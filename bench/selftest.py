"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

Shows that a corrupted golden value, a wrong output fed to each cross-check
and a wrong CLI digest all register as failures, that the workload inputs
at the default seed are still the golden inputs, and that traced and
untraced ops give identical outputs.  Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from fractions import Fraction

import checkout

checkout.use_checkout_src()

from qstream import blind, model  # noqa: E402

import cliprobe  # noqa: E402
import golden  # noqa: E402
from run import run_phase  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

failures: list[str] = []


def expect(case: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {case}")
    if not ok:
        failures.append(case)


def golden_cases(gold: dict) -> None:
    small = copy.deepcopy(gold)
    small["workloads"] = {
        "sweep": small["workloads"]["sweep"][:3],
        "mc": small["workloads"]["mc"][:5],
    }
    n, problems = golden.golden_pass(small)
    expect(f"intact goldens pass ({n} ops)", not problems)

    bad = copy.deepcopy(small)
    bad["workloads"]["sweep"][1]["output"]["budgets"][2]["value"] += 1
    bad["workloads"]["mc"][0]["output"]["integral"] = "1/3"
    _, problems = golden.golden_pass(bad)
    expect("corrupted qld golden is a failed op",
           any(p.startswith("golden sweep[1]: output differs") for p in problems))
    expect("corrupted integral golden is a failed op",
           any(p.startswith("golden mc[0]: output differs") for p in problems))
    expect("corrupted integral also fails the monte_carlo_uniform cross-check",
           any("monte_carlo_uniform" in p for p in problems))


def checker_cases(gold: dict) -> None:
    sweep = WORKLOADS["sweep"](DEFAULT_SEED)
    P = model.pattern_class_from_json(gold["workloads"]["sweep"][0]["input"])
    bld, rows = sweep.op(P)
    expect("sweep check accepts a real output", not sweep.check(P, (bld, rows)))
    Q, v, w, g, r = rows[1]
    wrong = [rows[0], (Q, v, w, g, r + 1), rows[2]]
    expect("sweep check rejects replay != qld", bool(sweep.check(P, (bld, wrong))))
    tree = copy.deepcopy(rows[2][2])
    tree["tree"] = {"time": P.horizon + 1, "interim": [], "predict": 0, "children": {}}
    wrong = [rows[0], rows[1], rows[2][:2] + (tree,) + rows[2][3:]]
    expect("sweep check rejects an invalid witness tree", bool(sweep.check(P, (bld, wrong))))

    frontier = WORKLOADS["frontier"](DEFAULT_SEED)
    classes = frontier.make_input(0)
    out = frontier.op(classes)
    expect("frontier check accepts a real output", not frontier.check(classes, out))
    bld, value, witness, replay = out[1]
    wrong = [out[0], (value - 1, value, witness, replay), out[2]]
    expect("frontier check rejects value > blind dimension", bool(frontier.check(classes, wrong)))

    mc = WORKLOADS["mc"](DEFAULT_SEED)
    mc.build()
    seeds = mc.make_input(0)
    report = mc.op(seeds)
    expect("mc check accepts a real output", not mc.check(seeds, report))
    wrong = dataclasses.replace(report, mistake_integral=report.mistake_integral + 1)
    expect("mc check rejects an integral that is not the epoch sum", bool(mc.check(seeds, wrong)))
    mc.integrals = [4.0] * 50
    expect("mc run-level check rejects a mean above the bound", bool(mc.finish()))
    wrong_op = lambda s: dataclasses.replace(mc.op(s), mistake_integral=Fraction(-1))  # noqa: E731
    phase = run_phase(mc, 0, 5, wrong_op)
    expect("a phase counts each wrong output as a failed op", phase.failed == 5)
    phase = run_phase(mc, 0, 5, lambda s: 1 / 0)
    expect("a phase counts each op that raises as a failed op", phase.failed == 5)

    long = WORKLOADS["longstream"](DEFAULT_SEED)
    long.build()
    seeds = long.make_input(0)
    segments, uniform, adaptive = long.op(seeds)
    expect("longstream check accepts a real output", not long.check(seeds, (segments, uniform, adaptive)))
    wrong = dataclasses.replace(adaptive, mistake_integral=Fraction(1, 2))
    expect("longstream check rejects a nonzero adaptive integral",
           bool(long.check(seeds, (segments, uniform, wrong))))
    wrong = dataclasses.replace(adaptive, query_events=adaptive.query_events[1:])
    expect("longstream check rejects query times != reveal times",
           bool(long.check(seeds, (segments, uniform, wrong))))

    probe = {"commands": {name: {"exit": 0, "sha256": want["sha256"], "stderr": ""}
                          for name, want in gold["cli"].items()}}
    expect("cli check accepts golden digests", not cliprobe.check_probe(probe, gold["cli"]))
    probe["commands"]["ld"]["sha256"] = "0" * 64
    probe["commands"]["qld"]["exit"] = 2
    expect("cli check rejects a wrong digest and a nonzero exit",
           len(cliprobe.check_probe(probe, gold["cli"])) == 2)


def input_cases(gold: dict) -> None:
    for name in ("sweep", "frontier"):
        wl = WORKLOADS[name](gold["seed"])
        wl.build()
        got = [golden.input_to_json(wl.make_input(i)) for i in range(len(gold["workloads"][name]))]
        want = [e["input"] for e in gold["workloads"][name]]
        expect(f"{name} inputs at seed {gold['seed']} are the golden inputs", got == want)


def trace_cases() -> None:
    original = blind.qld
    for name, ops in (("sweep", 60), ("frontier", 2), ("mc", 100), ("longstream", 30)):
        wl = WORKLOADS[name](7)
        wl.build()
        plain = run_phase(wl, 0, ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(wl, 0, ops, tracer.wrap(0, wl.op), tracer)
        finally:
            tracer.uninstall()
        expect(f"{name}: {ops} traced ops ({len(tracer)} spans) equal untraced ops",
               plain.digests == traced.digests and not plain.failed and not traced.failed)
    expect("uninstall restores qstream", blind.qld is original)


def main() -> int:
    gold = golden.load()
    golden_cases(gold)
    checker_cases(gold)
    input_cases(gold)
    trace_cases()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
