"""Golden exact outputs at the default seed, and the pass that re-derives them.

``golden.json`` holds, per workload, the inputs and exact outputs of its
first ops at ``DEFAULT_SEED`` (qld values and witness trees per budget,
mistake integrals as exact fractions), plus the exit code and SHA-256 of
every CLI probe output.  Every benchmark run re-derives all of them; a
mismatch counts as a failed op.

Re-capture only when an output change is intended:

    python3 bench/run.py --capture-golden
"""

from __future__ import annotations

import json
from pathlib import Path

from qstream import arena, model

from workloads import DEFAULT_SEED, WORKLOADS, frac

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_OPS = {"sweep": 40, "frontier": 1, "mc": 200, "longstream": 30}


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def input_to_json(inp):
    if isinstance(inp, model.PatternClass):
        return model.pattern_class_to_json(inp)
    if isinstance(inp, tuple) and all(isinstance(P, model.PatternClass) for P in inp):
        return [model.pattern_class_to_json(P) for P in inp]
    return None


def _pattern_class(doc) -> model.PatternClass:
    P = model.pattern_class_from_json(doc)
    problems = model.validate(P)
    if problems:
        raise ValueError("golden pattern class invalid: " + "; ".join(problems))
    return P


def _input_from_json(wl, i: int, doc):
    """Pattern classes come back through the JSON loader and validator;
    seeded trials are re-derived from their index."""
    if doc is None:
        return wl.make_input(i)
    if isinstance(doc, list):
        return tuple(_pattern_class(d) for d in doc)
    return _pattern_class(doc)


def golden_pass(golden: dict) -> tuple[int, list[str]]:
    """Re-run every golden op; return (ops attempted, problems)."""
    attempted, problems = 0, []
    seed = golden["seed"]
    for name, entries in golden["workloads"].items():
        wl = WORKLOADS[name](seed)
        if any(e["input"] is None for e in entries):
            wl.build()
        for i, entry in enumerate(entries):
            attempted += 1
            try:
                inp = _input_from_json(wl, i, entry["input"])
                out = wl.op(inp)
                bad = wl.check(inp, out)
                if canonical(wl.record(inp, out)) != canonical(entry["output"]):
                    bad.append("output differs from golden")
            except Exception as exc:  # a crash is a failed op, not a crashed run
                bad = [f"{type(exc).__name__}: {exc}"]
            problems.extend(f"golden {name}[{i}]: {b}" for b in bad)
        problems.extend(f"golden {name}: {b}" for b in wl.finish())
        if name == "mc":
            # the benchmark's own trial seeding must match the library's
            attempted += 1
            stats = arena.monte_carlo_uniform(wl.H, wl.stream, wl.DELTA, len(entries), seed)
            if [frac(v) for v in stats.integrals] != [e["output"]["integral"] for e in entries]:
                problems.append("golden mc: monte_carlo_uniform integrals differ from per-trial ops")
    return attempted, problems


def capture() -> dict:
    import cliprobe

    doc = {"seed": DEFAULT_SEED, "workloads": {}, "cli": {}}
    for name, count in GOLDEN_OPS.items():
        wl = WORKLOADS[name](DEFAULT_SEED)
        wl.build()
        entries = []
        for i in range(count):
            inp = wl.make_input(i)
            out = wl.op(inp)
            bad = wl.check(inp, out)
            if bad:
                raise SystemExit(f"refusing to capture {name}[{i}]: {bad}")
            entries.append({"input": input_to_json(inp), "output": wl.record(inp, out)})
        doc["workloads"][name] = entries
    for sub, res in cliprobe.run_probe()["commands"].items():
        if res["exit"] != 0:
            raise SystemExit(f"refusing to capture cli {sub}: exit {res['exit']}")
        doc["cli"][sub] = {"exit": res["exit"], "sha256": res["sha256"]}
    return doc


def write(doc: dict) -> None:
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
