"""Command-line front end.

Subcommands load canonical JSON inputs, run the solvers and simulators with
explicit seeds, and write JSON/CSV reports.  Every command is deterministic
given (inputs, flags, seed); randomized commands refuse to run without
--seed.  Exit codes: 0 success, 2 input/validation error, 3 runtime
contract violation (non-realizability, or stdout closed by its reader).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Any, Callable

from . import adversaries, arena, blind, littlestone, model

CONFIG_ENV = "QSTREAM_CONFIG"

# Upper limit on the items one command builds or sums over: the reveals of
# `adversary --kind self-revealing --reveal-every`, the segments of
# `adversary --kind two-point` and the units of `blind-bound`.  Time, memory
# and output grow linearly with the count.
MAX_ITEMS = 100_000
# Upper limit on trials * ceil(horizon / delta) of `unif-sim`: the work of a
# run, each trial making at least ceil(horizon / delta) queries.
MAX_STEPS = 1_000_000


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}")
    except RecursionError:
        raise CliError(f"malformed JSON in {path}: nested too deeply")


def _load(path: str, from_json: Callable[[dict], Any], what: str) -> Any:
    """Read, convert and validate one input file; any defect is a CliError."""
    doc = _load_json(path)
    try:
        obj = from_json(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad {what} in {path}: {exc}")
    problems = model.validate(obj)
    if problems:
        raise CliError(f"invalid {what} in {path}: " + "; ".join(problems))
    return obj


def _fraction(text: str) -> Fraction:
    try:
        return model.as_fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({exc})")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qstream-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _require_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise CliError("this command is randomized; --seed is required")
    return args.seed


def _config_defaults() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise CliError(f"config {path} must be a JSON object")
    return doc


def _budget_policy(args: argparse.Namespace) -> model.QueryBudgetPolicy:
    """The query budget from --slope or the config (default slope 1), validated."""
    budget = model.QueryBudgetPolicy(args.slope if args.slope is not None else Fraction(1))
    problems = model.validate(budget)
    if problems:
        raise CliError("invalid query budget: " + "; ".join(problems))
    return budget


def _fill_from_config(args: argparse.Namespace, keys: dict[str, type]) -> None:
    config = _config_defaults()
    for key, conv in keys.items():
        if getattr(args, key, None) is None and key in config:
            value = config[key]
            try:
                if conv is Fraction:
                    value = model.as_fraction(value)
                elif conv is int:
                    value = model.as_int(value)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise CliError(f"bad {key} in config {os.environ[CONFIG_ENV]}: {exc}")
            setattr(args, key, value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ld(args: argparse.Namespace) -> int:
    cls = _load(args.class_file, model.concept_class_from_json, "concept class")
    print(littlestone.littlestone_dimension(cls))
    return 0


def _format_float(x: float) -> str:
    return repr(float(x))


def cmd_unif_sim(args: argparse.Namespace) -> int:
    _fill_from_config(args, {"delta": Fraction, "trials": int, "slope": Fraction})
    seed = _require_seed(args)
    cls = _load(args.class_file, model.concept_class_from_json, "concept class")
    delta = args.delta if args.delta is not None else Fraction(1)
    trials = args.trials if args.trials is not None else 10000
    if trials > MAX_ITEMS:
        raise CliError(f"{trials} trials: at most {MAX_ITEMS} are allowed")

    if args.stream:
        source = _load(args.stream, model.stream_from_json, "stream")
        horizon = source.horizon
    elif args.adversary == "littlestone-branch":
        budget = _budget_policy(args)
        n = args.n if args.n is not None else 1
        horizon = args.horizon if args.horizon is not None else 4 * n

        def source(stream_seed):
            return adversaries.gen_littlestone_branch_stream(
                cls, n, budget, stream_seed, horizon=args.horizon
            )
    else:
        raise CliError("provide --stream FILE or --adversary littlestone-branch")
    # each query moves time on by at most delta, so a trial makes at least
    # horizon / delta queries
    steps = math.ceil(horizon / delta) if delta > 0 else 0
    if steps > MAX_ITEMS:
        raise CliError(
            f"horizon {horizon} at delta {delta} gives {steps} query steps per "
            f"trial; at most {MAX_ITEMS} are allowed"
        )
    if trials * steps > MAX_STEPS:
        raise CliError(
            f"{trials} trials of {steps} query steps: at most {MAX_STEPS} steps "
            f"in all are allowed"
        )

    stats = arena.monte_carlo_uniform(
        cls, source, delta, trials, seed, on_empty=args.on_empty
    )
    dim = littlestone.littlestone_dimension(cls)
    bound = float(delta) * dim

    if args.format == "json":
        doc = stats.to_json()
        doc["bound"] = bound
        doc["passed"] = stats.mean <= bound + 3 * stats.stderr
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
        return 0

    lines = ["row,index,value,mean,stderr,bound,passed"]
    for i, integral in enumerate(stats.integrals):
        lines.append(f"trial,{i},{_format_float(float(integral))},,,,")
    for es in stats.per_epoch:
        ok = es.mean <= float(delta) + 3 * es.stderr
        lines.append(
            f"epoch,{es.epoch},,{_format_float(es.mean)},{_format_float(es.stderr)},"
            f"{_format_float(float(delta))},{str(ok).lower()}"
        )
    ok = stats.mean <= bound + 3 * stats.stderr
    lines.append(
        f"summary,,,{_format_float(stats.mean)},{_format_float(stats.stderr)},"
        f"{_format_float(bound)},{str(ok).lower()}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_qld(args: argparse.Namespace) -> int:
    _fill_from_config(args, {"budget": int})
    if args.budget is None:
        raise CliError("--budget is required")
    P = _load(args.patterns, model.pattern_class_from_json, "pattern class")
    witness = blind.qld(P, args.budget)
    doc = {
        "value": witness.value,
        "witness": witness.witness,
        "oracle_value": None,
        "agree": None,
    }
    if args.verify:
        oracle = blind.game_value(P, args.budget)
        replay = blind.worst_case_mistakes(witness.to_strategy(), P, args.budget)
        doc["oracle_value"] = oracle
        doc["agree"] = witness.value == oracle
        doc["bp_soa_worst"] = replay
        doc["bp_soa_within_bound"] = replay <= witness.value
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    return 0


def cmd_adversary(args: argparse.Namespace) -> int:
    _fill_from_config(args, {"slope": Fraction, "horizon": Fraction})
    seed = _require_seed(args)
    budget = _budget_policy(args)
    params: dict = {"slope": str(budget.slope)}

    if args.kind == "littlestone-branch":
        if not args.class_file:
            raise CliError("littlestone-branch needs --class")
        cls = _load(args.class_file, model.concept_class_from_json, "concept class")
        n = args.n if args.n is not None else 1
        stream = adversaries.gen_littlestone_branch_stream(
            cls, n, budget, seed, horizon=args.horizon
        )
        params.update({"n": n, "class": args.class_file})
    elif args.kind == "two-point":
        units = args.units if args.units is not None else 1
        # unit n holds 2 budget(n) segments, or one when budget(n) = 0
        count = 0
        for n in range(1, units + 1):
            count += max(2 * budget.budget(n), 1)
            if count > MAX_ITEMS:
                raise CliError(
                    f"--units {units} gives more than {MAX_ITEMS} segments at slope "
                    f"{budget.slope}; at most {MAX_ITEMS} are allowed"
                )
        stream = adversaries.gen_two_point_stream(args.x1, args.x2, units, budget, seed)
        params.update({"units": units, "x1": args.x1, "x2": args.x2})
    elif args.kind == "self-revealing":
        if not args.class_file:
            raise CliError("self-revealing needs --class")
        cls = _load(args.class_file, model.concept_class_from_json, "concept class")
        if args.horizon is None:
            raise CliError("self-revealing needs --horizon")
        if args.reveal_times is not None:
            try:
                reveals = [model.as_fraction(t) for t in args.reveal_times.split(",")]
            except (ValueError, ZeroDivisionError) as exc:
                raise CliError(f"bad --reveal-times {args.reveal_times!r}: {exc}")
        else:
            step = args.reveal_every if args.reveal_every is not None else Fraction(1)
            if step <= 0:
                raise CliError(f"--reveal-every must be > 0, got {step}")
            # reveals at 0, step, 2 step, ... below the horizon
            count = max(0, math.ceil(args.horizon / step))
            if count > MAX_ITEMS:
                raise CliError(
                    f"--reveal-every {step} gives {count} reveals before horizon "
                    f"{args.horizon}; at most {MAX_ITEMS} are allowed"
                )
            reveals = [step * i for i in range(count)]
        stream = adversaries.gen_self_revealing_stream(cls, reveals, args.horizon, seed)
        params.update(
            {"class": args.class_file, "reveal_times": [str(t) for t in reveals]}
        )
    else:
        raise CliError(f"unknown adversary kind {args.kind!r}")

    if args.horizon is not None:
        params["horizon"] = str(model.as_fraction(args.horizon))
    doc = model.stream_to_json(stream)
    doc["provenance"] = {"kind": args.kind, "params": params, "seed": seed}
    if not args.out:
        raise CliError("--out is required")
    _atomic_write(args.out, json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_blind_bound(args: argparse.Namespace) -> int:
    _fill_from_config(args, {"slope": Fraction})
    budget = _budget_policy(args)
    if args.units > MAX_ITEMS:
        raise CliError(f"--units {args.units}: at most {MAX_ITEMS} units are allowed")
    if args.placement:
        doc = _load_json(args.placement)
        try:
            times = [model.as_fraction(t) for t in doc["query_times"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CliError(f"bad placement file {args.placement}: {exc}")
    else:
        times = []
    value = adversaries.exact_blind_error(args.units, budget, times)
    floor = Fraction(args.units, 4)
    print(f"expected_error = {value} ({float(value)})")
    print(f">= units/4: {str(value >= floor).lower()}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstream",
        description="query-bounded online learning laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ld", help="Littlestone dimension of a concept class")
    p.add_argument("--class", dest="class_file", required=True)
    p.set_defaults(fn=cmd_ld)

    p = sub.add_parser("unif-sim", help="Monte Carlo of the uniform sampler")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--stream")
    p.add_argument("--adversary", choices=["littlestone-branch"])
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=_fraction)
    p.add_argument("--slope", type=_fraction)
    p.add_argument("--horizon", type=_fraction)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--on-empty", dest="on_empty", choices=["error", "reset"], default="error")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=cmd_unif_sim)

    p = sub.add_parser("qld", help="query learning distance of a pattern class")
    p.add_argument("--patterns", required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_qld)

    p = sub.add_parser("adversary", help="generate an adversarial stream file")
    p.add_argument("--kind", required=True,
                   choices=["littlestone-branch", "two-point", "self-revealing"])
    p.add_argument("--class", dest="class_file")
    p.add_argument("--n", type=int)
    p.add_argument("--units", type=int)
    p.add_argument("--x1", default="x1")
    p.add_argument("--x2", default="x2")
    p.add_argument("--slope", type=_fraction)
    p.add_argument("--horizon", type=_fraction)
    p.add_argument("--reveal-times", dest="reveal_times")
    p.add_argument("--reveal-every", dest="reveal_every", type=_fraction)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("blind-bound", help="exact blind error of a query placement")
    p.add_argument("--units", type=int, required=True)
    p.add_argument("--slope", type=_fraction)
    p.add_argument("--placement")
    p.set_defaults(fn=cmd_blind_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send what is left to devnull so the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 3
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except model.NonRealizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (model.QstreamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
