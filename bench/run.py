"""qstream benchmark: one workload per run, closed loop, one caller thread.

    python3 bench/run.py --workload sweep --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 3        # every workload, one table

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from a traced run.  The line
before it holds the run metadata.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import checkout

checkout.use_checkout_src()

import numpy as np  # noqa: E402

from qstream import blind  # noqa: E402

import cliprobe  # noqa: E402
import golden  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, FRONTIER_BUDGET, LADDER, WORKLOADS, frontier_class  # noqa: E402

SETUP_PROBES = 7  # spread over the timed phase, so they sample the machine's slow and fast spells
MIN_OPS = 100  # every timed phase: at least ten samples beyond op_ms_p90
FRONTIER_LIMIT_S = 0.5  # blind.frontier_L: largest L whose qld(P, 2) fits in this
FRONTIER_MAX_L = 20


@dataclass
class Phase:
    latencies_ns: list[int] = field(default_factory=list)
    scaled_ns: list[float] = field(default_factory=list)  # at the reference speed
    cal_ns: list[int] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    count_end: int = 0  # spans recorded by the end of op ``count_ops``

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    def rate(self, latencies) -> float:
        return self.ops / (sum(latencies) / 1e9)


def run_phase(wl, seconds: float, min_ops: int, op=None, tracer: Tracer | None = None,
              between=()) -> Phase:
    """Closed loop over ops 0, 1, ... until ``seconds`` passed and ``min_ops`` ran.

    Only the op itself is timed; its checks and output digest run between
    ops, and so does a machine-speed calibration every CAL_PERIOD_S.  The
    untimed tasks in ``between`` run between ops too, evenly spread over
    ``seconds``, which does not count the time they take.  An op that
    raises or fails a check counts as failed; a run-level check that fails
    marks every op of the phase failed.
    """
    op = op or wl.op
    phase = Phase()
    cal_at: list[int] = []
    tasks = [(seconds * (k + 0.5) / len(between), task) for k, task in enumerate(between)]
    start = perf_counter()  # moved forward by the time tasks take
    next_cal = 0.0
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        if tasks and perf_counter() - start >= tasks[0][0]:
            paused = perf_counter()
            tasks.pop(0)[1]()  # before the calibration, so the next op gets a fresh one
            start += perf_counter() - paused
        now = perf_counter()
        if now >= next_cal:
            cal_at.append(i)
            phase.cal_ns.append(speed.calibrate())
            next_cal = now + speed.CAL_PERIOD_S
        inp = wl.make_input(i)
        t0 = perf_counter_ns()
        t1 = None
        try:
            out = op(inp)
            t1 = perf_counter_ns()
            bad = wl.check(inp, out)
            digest = hashlib.sha1(golden.canonical(wl.record(inp, out)).encode()).hexdigest()
        except Exception as exc:  # a crash is a failed op, not a crashed run
            t1 = t1 or perf_counter_ns()
            bad, digest = [f"{type(exc).__name__}: {exc}"], None
        phase.latencies_ns.append(t1 - t0)
        phase.digests.append(digest)
        if bad:
            phase.failed += 1
            phase.problems.extend(f"{wl.name}[{i}]: {b}" for b in bad)
        i += 1
        if tracer is not None and i == wl.count_ops:
            phase.count_end = len(tracer)
    for _, task in tasks:
        task()
    cal_at.append(i)
    phase.cal_ns.append(speed.calibrate())
    phase.scaled_ns = speed.scaled(phase.latencies_ns, cal_at, phase.cal_ns)
    run_level = wl.finish()
    if run_level:
        phase.failed = phase.ops
        phase.problems.extend(f"{wl.name}: {b}" for b in run_level)
    return phase


def setup_sample(name: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until the workload is
    built: (at the reference speeds, wall).

    The imports count at the import reference speed (the mean of one
    reference just before the child and one just after), building the
    inputs (pure Python like the ops) at the calibration loop's; see
    speed.py.  The child reports the build's wall time, the time its
    calibrations took and, after the ``ready`` line, the calibration median.
    """
    import_ref = speed.import_reference(checkout.ROOT)
    argv = [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=checkout.ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        rest = proc.stdout.read()
    fields = line.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != b"ready":
        raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    import_ref = (import_ref + speed.import_reference(checkout.ROOT)) / 2
    build_s, cal_spent_s = int(fields[1]) / 1e9, int(fields[2]) / 1e9
    imports_s = elapsed - cal_spent_s - build_s
    scaled = imports_s * speed.IMPORT_REF_S / import_ref + build_s * speed.REF_NS / float(rest)
    return scaled, elapsed - cal_spent_s


def setup_probe(name: str, seed: int) -> None:
    """The child side of ``setup_sample``."""
    wl = WORKLOADS[name](seed)
    t = perf_counter_ns()
    cal = [speed.calibrate() for _ in range(5)]
    t0 = perf_counter_ns()
    wl.build()
    t1 = perf_counter_ns()
    print("ready", t1 - t0, t0 - t, flush=True)
    cal += [speed.calibrate() for _ in range(5)]
    print(statistics.median(cal))


def frontier_probe(seed: int) -> tuple[int, int, list[str]]:
    """Largest L (from the ladder's first rung) whose qld(P, 2) finishes
    within FRONTIER_LIMIT_S at the reference speed, with the classes checked
    by replay."""
    best, checked, bad = LADDER[0] - 1, 0, []
    for L in range(LADDER[0], FRONTIER_MAX_L + 1):
        P = frontier_class(random.Random(f"frontier-L:{seed}:{L}"), L)
        cal_before = speed.calibrate()
        t0 = perf_counter_ns()
        w = blind.qld(P, FRONTIER_BUDGET)
        elapsed_ns = perf_counter_ns() - t0
        cal = (cal_before + speed.calibrate()) / 2
        elapsed = elapsed_ns * speed.REF_NS / cal / 1e9
        checked += 1
        replay = blind.worst_case_mistakes(w.to_strategy(), P, FRONTIER_BUDGET)
        if replay != w.value:
            bad.append(f"frontier_L probe L={L}: replay {replay} != qld {w.value}")
        if elapsed > FRONTIER_LIMIT_S:
            break
        best = L
    return best, checked, bad


def layer_metrics(tracer: Tracer, phase_end: int, count_end: int, golden_end: int):
    """Per-layer figures per call of each entry point.

    Times come from the whole traced phase, counts from its first
    ``count_ops`` ops (so they repeat exactly for a seed).  Where the
    workload never calls an entry point, the figure comes from the traced
    golden pass, which calls every one of them on fixed inputs.
    """
    timed = tracer.layer_totals(0, phase_end)
    counted = tracer.layer_totals(0, count_end)
    gold = tracer.layer_totals(phase_end, golden_end)
    source: dict[str, str] = {}

    def pick(metric: str, totals: dict, *spans: str) -> dict:
        if any(totals[s]["calls"] for s in spans):
            source[metric] = "workload"
            return totals
        source[metric] = "golden"
        return gold

    m: dict[str, tuple[float, str]] = {}
    for metric, span, unit in (
        ("blind.qld_ms", "blind.qld", "ms"),
        ("blind.game_value_ms", "blind.game_value", "ms"),
        ("blind.replay_ms", "blind.replay", "ms"),
        ("blind.bld_ms", "blind.bld", "ms"),
        ("littlestone.soa_predict_us", "littlestone.soa_predict", "us"),
        ("arena.uniform_ms", "arena.uniform", "ms"),
        ("arena.adaptive_ms", "arena.adaptive", "ms"),
        ("arena.mistake_integral_us", "arena.mistake_integral", "us"),
        ("adversaries.branch_gen_ms", "adversaries.branch_gen", "ms"),
        ("adversaries.selfrev_gen_ms", "adversaries.selfrev_gen", "ms"),
        ("model.value_at_us", "model.value_at", "us"),
    ):
        t = pick(metric, timed, span)[span]
        m[metric] = (t["self_ns"] / t["calls"] / (1e6 if unit == "ms" else 1e3), unit)

    q = pick("blind.witness_nodes", counted, "blind.qld")["blind.qld"]
    m["blind.witness_nodes"] = (q["extra"] / q["calls"], "count")
    u = pick("arena.queries", counted, "arena.uniform")
    calls = u["arena.uniform"]["calls"]
    m["arena.queries"] = (u["arena.uniform"]["extra"] / calls, "count")
    source["littlestone.soa_calls"] = source["arena.queries"]
    soa = u["littlestone.soa_predict"].get("under.arena.uniform", 0)
    m["littlestone.soa_calls"] = (soa / calls, "count")
    t = pick("arena.query_us", timed, "arena.uniform")["arena.uniform"]
    m["arena.query_us"] = (t["self_ns"] / t["extra"] / 1e3, "us")
    gens = ("adversaries.branch_gen", "adversaries.selfrev_gen")
    g = pick("adversaries.segments", counted, *gens)
    m["adversaries.segments"] = (
        sum(g[s]["extra"] for s in gens) / sum(g[s]["calls"] for s in gens), "count"
    )
    return m, source


def git_commit() -> str | None:
    git = checkout.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the checkout's qstream sources, which names the code
    measured where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(checkout.SRC.rglob("*.py")):
        h.update(path.relative_to(checkout.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def timing_metrics(phase: Phase, latencies_ns) -> dict[str, tuple[float, str]]:
    p90 = statistics.quantiles(latencies_ns, n=10, method="inclusive")[8]
    return {
        "ops_per_s": (phase.rate(latencies_ns), "1/s"),
        "op_ms_p50": (statistics.median(latencies_ns) / 1e6, "ms"),
        "op_ms_p90": (p90 / 1e6, "ms"),
    }


def run(args) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload](args.seed)
    t0 = perf_counter()
    wl.build()
    own_build_s = perf_counter() - t0
    gold = golden.load()
    problems: list[str] = []
    attempted = failed = 0
    meta: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git_commit(), "src_sha256": src_digest(), "build_inputs_s": own_build_s,
        "loop": "closed, 1 caller thread",
    }

    def account(n: int, bad: list[str], n_failed: int | None = None) -> None:
        nonlocal attempted, failed
        attempted += n
        failed += len(bad) if n_failed is None else n_failed
        problems.extend(bad)

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        setup: list[tuple[float, float]] = []
        n, bad = golden.golden_pass(gold)  # also warms every code path
        account(n, bad)
        sample = lambda: setup.append(setup_sample(args.workload, args.seed))  # noqa: E731
        phase = run_phase(wl, args.seconds, MIN_OPS, between=[sample] * SETUP_PROBES)
        meta["setup_samples_s"] = setup
        account(phase.ops, phase.problems, phase.failed)
        metrics["setup_s"] = (statistics.median(s for s, _ in setup), "s")
        metrics.update(timing_metrics(phase, phase.scaled_ns))
        meta["raw"] = {k: v for k, (v, _) in timing_metrics(phase, phase.latencies_ns).items()}
        meta["raw"]["setup_s"] = statistics.median(wall for _, wall in setup)
        meta["cal_us"] = statistics.median(phase.cal_ns) / 1e3
        meta["ops"] = {"timed": phase.ops, "golden": n}
        meta["latency_samples"] = phase.ops
    else:
        n, bad = golden.golden_pass(gold)
        account(n, bad)
        plain = run_phase(wl, args.seconds / 2, 1)
        account(plain.ops, plain.problems, plain.failed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(wl, args.seconds / 2, wl.count_ops, tracer.wrap(0, wl.op), tracer)
            phase_end = len(tracer)
            n2, bad = golden.golden_pass(gold)
            golden_end = len(tracer)
        finally:
            tracer.uninstall()
        account(traced.ops, traced.problems, traced.failed)
        account(n2, bad)
        common = min(plain.ops, traced.ops)
        if plain.digests[:common] != traced.digests[:common]:
            account(0, ["traced outputs differ from untraced outputs"])
        layers, meta["layer_source"] = layer_metrics(tracer, phase_end, traced.count_end, golden_end)
        metrics.update(layers)
        frontier_l, checked, bad = frontier_probe(args.seed)
        account(checked, bad)
        metrics["blind.frontier_L"] = (frontier_l, "L")
        untraced_rate, traced_rate = plain.rate(plain.scaled_ns), traced.rate(traced.scaled_ns)
        metrics["trace.overhead_pct"] = (100 * (1 - traced_rate / untraced_rate), "%")
        metrics["bench.cal_us"] = (statistics.median(traced.cal_ns) / 1e3, "us")
        meta["ops"] = {"untraced": plain.ops, "traced": traced.ops, "golden": n + n2,
                       "frontier_probe": checked, "identical_prefix": common}
        meta["ops_per_s"] = {"untraced": untraced_rate, "traced": traced_rate}
        checkout.OUT.mkdir(exist_ok=True)
        spans_path = checkout.OUT / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        meta["spans"] = {"count": len(tracer), "file": str(spans_path.relative_to(checkout.ROOT))}

    probe = cliprobe.run_probe()
    account(len(probe["commands"]), cliprobe.check_probe(probe, gold["cli"]))
    if args.trace:
        metrics["cli.import_ms"] = (probe["import_ms"], "ms")
        for name, res in probe["commands"].items():
            metrics[f"cli.{name}_ms"] = (res["ms"], "ms")

    meta["attempted"], meta["failed"] = attempted, failed
    meta["fail_ratio"] = failed / attempted
    meta["problems"] = problems[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return meta, result


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=checkout.ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        rows.append((name, meta, result))
    for name, meta, result in rows:
        print(f"{name}  seed {meta['seed']}  ops {meta['ops']}  "
              f"fail_ratio {meta['fail_ratio']:.4g} ({result['failed']}/{result['attempted']})")
        for metric, mv in result["metrics"].items():
            print(f"    {metric:32s} {mv['value']:14.6g} {mv['unit']}")
        for p in meta["problems"]:
            print(f"    problem: {p}")
    return 0 if all(r["correct"] for _, _, r in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=False, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--capture-golden", action="store_true",
                        help="rewrite golden.json from this checkout")
    args = parser.parse_args()
    if args.capture_golden:
        golden.write(golden.capture())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    meta, result = run(args)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
