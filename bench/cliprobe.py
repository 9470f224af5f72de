"""CLI probe: every subcommand once, each as a fresh child process.

Children run one at a time on fixed small inputs written to a scratch
directory inside the checkout.  A probe is checked by exit code and by the
SHA-256 of what it wrote (stdout, plus the ``--out`` file where there is
one).  The wall time of each child is what a user of the ``qstream``
command pays, imports included.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from qstream import model

from checkout import OUT, SRC
from workloads import full_concept_class, pattern_class

# name -> (argv after ``python -m qstream.cli``, file written through --out)
COMMANDS = {
    "ld": (["ld", "--class", "class3.json"], None),
    "unif-sim": ([
        "unif-sim", "--class", "class2.json", "--adversary", "littlestone-branch",
        "--n", "4", "--slope", "1/16", "--delta", "1", "--trials", "200", "--seed", "7",
    ], None),
    "qld": (["qld", "--patterns", "patterns.json", "--budget", "2", "--verify"], None),
    "adversary-branch": ([
        "adversary", "--kind", "littlestone-branch", "--class", "class2.json",
        "--n", "4", "--slope", "1/16", "--seed", "3", "--out", "branch.json",
    ], "branch.json"),
    "adversary-two-point": ([
        "adversary", "--kind", "two-point", "--units", "8", "--slope", "1",
        "--seed", "3", "--out", "two-point.json",
    ], "two-point.json"),
    "adversary-self-revealing": ([
        "adversary", "--kind", "self-revealing", "--class", "class4.json",
        "--horizon", "16", "--reveal-every", "1", "--seed", "3", "--out", "self-revealing.json",
    ], "self-revealing.json"),
    "blind-bound": (["blind-bound", "--units", "32", "--slope", "1", "--placement", "placement.json"], None),
}

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import qstream.cli; "
    "print((time.perf_counter() - t) * 1e3)"
)

TIMEOUT_S = 60


def _write_inputs(workdir: Path) -> None:
    def dump(name: str, doc: dict) -> None:
        (workdir / name).write_text(json.dumps(doc, sort_keys=True))

    for n in (2, 3, 4):
        dump(f"class{n}.json", model.concept_class_to_json(full_concept_class(n)))
    rng = random.Random("cli-patterns")
    pats = set()
    while len(pats) < 8:
        pats.add(tuple((rng.choice("ab"), rng.randint(0, 1)) for _ in range(5)))
    dump("patterns.json", model.pattern_class_to_json(pattern_class(("a", "b"), sorted(pats))))
    # covering placement: unit n holds n queries at its first n sub-interval starts
    times = [
        Fraction(n - 1) + Fraction(j, 2 * n) for n in range(1, 33) for j in range(n)
    ]
    dump("placement.json", {"query_times": [{"num": t.numerator, "den": t.denominator} for t in times]})


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QSTREAM_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_probe() -> dict:
    """Run every subcommand once; per command exit code, output digest, ms."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    env = _child_env()
    try:
        _write_inputs(workdir)
        commands = {}
        for name, (argv, out_file) in COMMANDS.items():
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "qstream.cli", *argv],
                cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S,
            )
            ms = (perf_counter() - t0) * 1e3
            data = proc.stdout
            if out_file is not None and (workdir / out_file).is_file():
                data += (workdir / out_file).read_bytes()
            commands[name] = {
                "exit": proc.returncode,
                "sha256": hashlib.sha256(data).hexdigest(),
                "ms": ms,
                "stderr": proc.stderr.decode(errors="replace")[-500:],
            }
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S, check=True,
        )
        return {"commands": commands, "import_ms": float(proc.stdout)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_probe(probe: dict, golden_cli: dict) -> list[str]:
    bad = []
    for name, res in probe["commands"].items():
        want = golden_cli.get(name)
        if res["exit"] != 0:
            bad.append(f"cli {name}: exit {res['exit']}: {res['stderr'].strip()}")
        elif want is None or res["sha256"] != want["sha256"]:
            bad.append(f"cli {name}: output digest differs from golden")
    return bad
