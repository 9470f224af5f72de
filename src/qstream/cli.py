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
import re
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
    """A refused input: main prints it as one ``error:`` line and exits 2."""


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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals are CliErrors, so they print as one
    ``error:`` line and exit 2, as every other refusal does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values such as -1/4 and -1e-3 too, not only argparse's own -12 and -1.5
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        # an invalid choice or an unrecognized argument is quoted as given
        raise CliError(message if len(message) <= 160 else message[:157] + "...")


def _refusal(expected: str) -> argparse.ArgumentTypeError:
    """A flag's or file's value refused: what is expected, never the value,
    which can run to thousands of digits."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    return argparse.ArgumentTypeError(
        f"expected {expected}" + (f" ({limit} digits at most)" if limit else ""))


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _refusal("an integer") from None


def _fraction(text: str) -> Fraction:
    try:
        return model.as_fraction(text)
    except (ValueError, ZeroDivisionError, TypeError):
        raise _refusal("a rational number such as 3, 0.25 or 1/4") from None


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path")
    return text


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temp file beside it.  Any OSError, from
    mkstemp, the write or the replace, is a CliError; the temp file never
    outlives the call."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".qstream-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _fill_from_config(args: argparse.Namespace) -> None:
    """Set each flag of the command's config table left unset on the command
    line: from the file named by QSTREAM_CONFIG, else to the table's default.
    The file is read only by a command whose table names a key."""
    path = os.environ.get(CONFIG_ENV) if args.config else None
    config = _load_json(path) if path else {}
    if not isinstance(config, dict):
        raise CliError(f"config {path} must be a JSON object")
    for key, (conv, default) in args.config.items():
        if getattr(args, key) is not None:
            continue
        if key in config:
            try:
                default = conv(config[key])
            except (KeyError, TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise CliError(f"bad {key} in config {path}: {exc}")
        setattr(args, key, default)


def _budget_policy(args: argparse.Namespace) -> model.QueryBudgetPolicy:
    """The query budget of --slope, validated."""
    budget = model.QueryBudgetPolicy(args.slope)
    problems = model.validate(budget)
    if problems:
        raise CliError("invalid query budget: " + "; ".join(problems))
    return budget


# ---------------------------------------------------------------------------
# subcommands: each returns its result, a JSON document or finished text,
# and `main` writes it to stdout or to --out


def cmd_ld(args: argparse.Namespace) -> str:
    cls = _load(args.class_file, model.concept_class_from_json, "concept class")
    return str(littlestone.littlestone_dimension(cls))


def _format_float(x: float) -> str:
    return repr(float(x))


def cmd_unif_sim(args: argparse.Namespace) -> dict | str:
    cls = _load(args.class_file, model.concept_class_from_json, "concept class")
    delta, trials = args.delta, args.trials
    if trials > MAX_ITEMS:
        raise CliError(f"too many --trials: at most {MAX_ITEMS} are allowed")

    if args.stream:
        source = _load(args.stream, model.stream_from_json, "stream")
        horizon = source.horizon
    elif args.adversary == "littlestone-branch":
        budget = _budget_policy(args)
        horizon = args.horizon if args.horizon is not None else 4 * args.n

        def source(stream_seed):
            return adversaries.gen_littlestone_branch_stream(
                cls, args.n, budget, stream_seed, horizon=args.horizon
            )
    else:
        raise CliError("provide --stream FILE or --adversary littlestone-branch")
    # each query moves time on by at most delta, so a trial makes at least
    # horizon / delta queries
    steps = math.ceil(horizon / delta) if delta > 0 else 0
    if steps > MAX_ITEMS:
        raise CliError(
            f"the horizon at --delta gives more than {MAX_ITEMS} query steps per "
            f"trial; at most {MAX_ITEMS} are allowed"
        )
    if trials * steps > MAX_STEPS:
        raise CliError(
            f"{trials} trials of {steps} query steps: at most {MAX_STEPS} steps "
            f"in all are allowed"
        )

    stats = arena.monte_carlo_uniform(
        cls, source, delta, trials, args.seed, on_empty=args.on_empty
    )
    dim = littlestone.littlestone_dimension(cls)
    bound = float(delta) * dim
    passed = stats.mean <= bound + 3 * stats.stderr

    if args.format == "json":
        doc = stats.to_json()
        doc["bound"] = bound
        doc["passed"] = passed
        return doc

    lines = ["row,index,value,mean,stderr,bound,passed"]
    for i, integral in enumerate(stats.integrals):
        lines.append(f"trial,{i},{_format_float(float(integral))},,,,")
    for es in stats.per_epoch:
        ok = es.mean <= float(delta) + 3 * es.stderr
        lines.append(
            f"epoch,{es.epoch},,{_format_float(es.mean)},{_format_float(es.stderr)},"
            f"{_format_float(float(delta))},{str(ok).lower()}"
        )
    lines.append(
        f"summary,,,{_format_float(stats.mean)},{_format_float(stats.stderr)},"
        f"{_format_float(bound)},{str(passed).lower()}"
    )
    return "\n".join(lines) + "\n"


def cmd_qld(args: argparse.Namespace) -> dict:
    if args.budget is None:
        raise CliError("--budget is required")
    P = _load(args.patterns, model.pattern_class_from_json, "pattern class")
    witness = blind.qld(P, args.budget)
    doc = {**witness.to_json(), "oracle_value": None, "agree": None}
    if args.verify:
        oracle = blind.game_value(P, args.budget)
        replay = blind.worst_case_mistakes(witness.to_strategy(), P, args.budget)
        doc["oracle_value"] = oracle
        doc["agree"] = witness.value == oracle
        doc["bp_soa_worst"] = replay
        doc["bp_soa_within_bound"] = replay <= witness.value
    return doc


def cmd_adversary(args: argparse.Namespace) -> dict:
    seed = args.seed
    budget = _budget_policy(args)
    params: dict = {"slope": str(budget.slope)}

    if args.kind == "littlestone-branch":
        if not args.class_file:
            raise CliError("littlestone-branch needs --class")
        cls = _load(args.class_file, model.concept_class_from_json, "concept class")
        stream = adversaries.gen_littlestone_branch_stream(
            cls, args.n, budget, seed, horizon=args.horizon
        )
        params.update({"n": args.n, "class": args.class_file})
    elif args.kind == "two-point":
        count = 0
        for n in range(1, args.units + 1):
            count += adversaries._unit_pieces(budget, n)
            if count > MAX_ITEMS:
                raise CliError(
                    f"--units at this --slope gives more than {MAX_ITEMS} segments; "
                    f"at most {MAX_ITEMS} are allowed"
                )
        stream = adversaries.gen_two_point_stream(args.x1, args.x2, args.units, budget, seed)
        params.update({"units": args.units, "x1": args.x1, "x2": args.x2})
    else:  # self-revealing
        if not args.class_file:
            raise CliError("self-revealing needs --class")
        cls = _load(args.class_file, model.concept_class_from_json, "concept class")
        if args.horizon is None:
            raise CliError("self-revealing needs --horizon")
        if args.reveal_times is not None:
            try:
                reveals = [_fraction(t) for t in args.reveal_times.split(",")]
            except argparse.ArgumentTypeError as exc:
                raise CliError(f"bad --reveal-times, a comma-separated list: {exc}")
        else:
            step = args.reveal_every
            if step <= 0:
                raise CliError(f"--reveal-every must be > 0, got {step}")
            # reveals at 0, step, 2 step, ... below the horizon
            count = math.ceil(args.horizon / step)
            if count > MAX_ITEMS:
                raise CliError(
                    f"--reveal-every gives more than {MAX_ITEMS} reveals before the horizon; "
                    f"at most {MAX_ITEMS} are allowed"
                )
            reveals = [step * i for i in range(count)]
        stream = adversaries.gen_self_revealing_stream(cls, reveals, args.horizon, seed)
        params.update(
            {"class": args.class_file, "reveal_times": [str(t) for t in reveals]}
        )

    if args.horizon is not None:
        params["horizon"] = str(args.horizon)
    doc = model.stream_to_json(stream)
    doc["provenance"] = {"kind": args.kind, "params": params, "seed": seed}
    return doc


def cmd_blind_bound(args: argparse.Namespace) -> str:
    budget = _budget_policy(args)
    if args.units > MAX_ITEMS:
        raise CliError(f"too many --units: at most {MAX_ITEMS} are allowed")
    if args.placement:
        doc = _load_json(args.placement)
        try:
            times = doc["query_times"]
            if not isinstance(times, list):
                raise TypeError("query_times must be a list")
            times = [_fraction(t) for t in times]
        except (KeyError, TypeError, argparse.ArgumentTypeError) as exc:
            raise CliError(f"bad placement file {args.placement}: {exc}")
    else:
        times = []
    value = adversaries.exact_blind_error(args.units, budget, times)
    floor = Fraction(args.units, 4)
    # an exact answer can pass Python's int-to-str digit limit (4,300 digits from
    # Python 3.10.7 on; older versions have none), so lift it for this format only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = f"expected_error = {value} ({float(value)})"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return f"{text}\n>= units/4: {str(value >= floor).lower()}"


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qstream",
        description="query-bounded online learning laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ld", help="Littlestone dimension of a concept class")
    p.add_argument("--class", dest="class_file", required=True)
    p.set_defaults(fn=cmd_ld, config={})

    p = sub.add_parser("unif-sim", help="Monte Carlo of the uniform sampler")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--stream")
    p.add_argument("--adversary", choices=["littlestone-branch"])
    p.add_argument("--n", type=_integer, default=1)
    p.add_argument("--delta", type=_fraction)
    p.add_argument("--slope", type=_fraction)
    p.add_argument("--horizon", type=_fraction)
    p.add_argument("--trials", type=_integer)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--on-empty", dest="on_empty", choices=["error", "reset"], default="error")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=cmd_unif_sim, config={
        "delta": (_fraction, Fraction(1)), "trials": (model.as_int, 10000),
        "slope": (_fraction, Fraction(1))})

    p = sub.add_parser("qld", help="query learning distance of a pattern class")
    p.add_argument("--patterns", required=True)
    p.add_argument("--budget", type=_integer)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_qld, config={"budget": (model.as_int, None)})

    p = sub.add_parser("adversary", help="generate an adversarial stream file")
    p.add_argument("--kind", required=True,
                   choices=["littlestone-branch", "two-point", "self-revealing"])
    p.add_argument("--class", dest="class_file")
    p.add_argument("--n", type=_integer, default=1)
    p.add_argument("--units", type=_integer, default=1)
    p.add_argument("--x1", default="x1")
    p.add_argument("--x2", default="x2")
    p.add_argument("--slope", type=_fraction)
    p.add_argument("--horizon", type=_fraction)
    p.add_argument("--reveal-times", dest="reveal_times")
    p.add_argument("--reveal-every", dest="reveal_every", type=_fraction, default=Fraction(1))
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(fn=cmd_adversary, config={
        "slope": (_fraction, Fraction(1)), "horizon": (_fraction, None)})

    p = sub.add_parser("blind-bound", help="exact blind error of a query placement")
    p.add_argument("--units", type=_integer, required=True)
    p.add_argument("--slope", type=_fraction)
    p.add_argument("--placement")
    p.set_defaults(fn=cmd_blind_bound, config={"slope": (_fraction, Fraction(1))})

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _fill_from_config(args)
        result = args.fn(args)
        text = result if isinstance(result, str) else json.dumps(result, indent=2, sort_keys=True)
        if getattr(args, "out", None):
            _atomic_write(args.out, text)
        else:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader closed stdout; send what is left to devnull so the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 3
    except model.NonRealizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CliError, model.QstreamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
