"""Workload inputs, ops and exactness checks for the qstream benchmark.

A workload is built from its seed alone, and the library only ever sees the
generated inputs.  Ops call qstream through module attributes (``blind.qld``,
never a name bound at import time), so ``spans.Tracer`` can wrap those
attributes from outside the library.

Each workload offers:
  build()           set-up: everything ``make_input`` needs
  make_input(i)     the i-th op's input, deterministic in (seed, i); untimed
  op(inp)           the timed call into qstream
  check(inp, out)   independent cross-checks, a list of problems ([] = exact)
  record(inp, out)  JSON-able exact output, compared against the goldens
  finish()          run-level checks over every op of a phase
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import numpy as np

from qstream import adversaries, arena, blind, model

DEFAULT_SEED = 1

# frontier: horizons cycled op by op, patterns per class, budget
LADDER = (8, 9, 10)
FRONTIER_PATTERNS = 24
FRONTIER_BUDGET = 2


def pattern_class(space: tuple[str, ...], pats) -> model.PatternClass:
    return model.PatternClass(
        model.InstanceSpace(space),
        len(pats[0]),
        tuple(model.DiscretePattern(p) for p in pats),
    )


def full_concept_class(n: int) -> model.ConceptClass:
    space = model.InstanceSpace(tuple(f"x{i}" for i in range(n)))
    return model.ConceptClass(space, tuple(product((0, 1), repeat=n)))


def _swap_canonical(pats) -> tuple:
    swapped = tuple(
        sorted(tuple(("b" if x == "a" else "a", y) for x, y in p) for p in pats)
    )
    return min(tuple(sorted(pats)), swapped)


@cache
def exhaustive_classes() -> tuple[model.PatternClass, ...]:
    """The exhaustive part of the criteria 5-7 set.

    Single-instance classes with L <= 3 and up to 6 patterns; two-instance
    classes with L = 2 (up to 6 patterns) and L in {3, 4} (up to 2
    patterns), deduplicated up to swapping the two instances.
    """
    out = []
    for L in (1, 2, 3):
        vectors = list(product((0, 1), repeat=L))
        for k in range(1, min(6, len(vectors)) + 1):
            for combo in combinations(vectors, k):
                out.append(pattern_class(("a",), [tuple(("a", y) for y in v) for v in combo]))
    seen = set()
    for L, max_p in ((2, 6), (3, 2), (4, 2)):
        pool = [
            tuple(zip(xs, ys))
            for xs in product("ab", repeat=L)
            for ys in product((0, 1), repeat=L)
        ]
        for k in range(1, max_p + 1):
            for combo in combinations(pool, k):
                canon = _swap_canonical(combo)
                if canon not in seen:
                    seen.add(canon)
                    out.append(pattern_class(("a", "b"), list(combo)))
    return tuple(out)


def random_sweep_classes(seed: int, count: int = 500) -> list[model.PatternClass]:
    """Seeded two-instance classes with 2 <= L <= 6 and up to 12 patterns."""
    rng = random.Random(f"sweep:{seed}")
    out = []
    while len(out) < count:
        L = rng.randint(2, 6)
        want = rng.randint(1, 12)
        pats = set()
        for _ in range(6 * want):
            pats.add(tuple((rng.choice("ab"), rng.randint(0, 1)) for _ in range(L)))
            if len(pats) == want:
                break
        out.append(pattern_class(("a", "b"), sorted(pats)))
    return out


def frontier_class(rng: random.Random, L: int) -> model.PatternClass:
    pats = set()
    while len(pats) < FRONTIER_PATTERNS:
        pats.add(tuple((rng.choice("ab"), rng.randint(0, 1)) for _ in range(L)))
    return pattern_class(("a", "b"), sorted(pats))


def witness_nodes(tree: dict) -> int:
    return 1 + sum(witness_nodes(c) for c in tree.get("children", {}).values())


def frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class Workload:
    name = ""
    count_ops = 0  # per-layer counts come from this many leading ops

    def __init__(self, seed: int):
        self.seed = seed

    def build(self) -> None:
        pass

    def finish(self) -> list[str]:
        return []


class Sweep(Workload):
    """Criteria 5-7 classes: bld, then qld, game_value and replay per Q."""

    name = "sweep"
    count_ops = 1000

    def build(self) -> None:
        self.classes = list(exhaustive_classes()) + random_sweep_classes(self.seed)
        random.Random(f"order:{self.seed}").shuffle(self.classes)

    def make_input(self, i: int) -> model.PatternClass:
        return self.classes[i % len(self.classes)]

    def op(self, P):
        bld = blind.blind_learning_dimension(P).value
        rows = []
        for Q in (0, 1, 2):
            w = blind.qld(P, Q)
            oracle = blind.game_value(P, Q)
            replay = blind.worst_case_mistakes(w.to_strategy(), P, Q)
            rows.append((Q, w.value, w.witness, oracle, replay))
        return bld, rows

    def check(self, P, out) -> list[str]:
        bld, rows = out
        bad = []
        for Q, value, witness, oracle, replay in rows:
            if not value == oracle == replay:
                bad.append(f"Q={Q}: qld {value}, oracle {oracle}, replay {replay}")
            if Q == 0 and value != bld:
                bad.append(f"qld(P, 0) {value} != blind dimension {bld}")
            bad.extend(blind.validate_witness_tree(witness["tree"], Q, P.horizon))
        return bad

    def record(self, P, out) -> dict:
        bld, rows = out
        return {
            "bld": bld,
            "budgets": [
                {"Q": Q, "value": v, "witness": w, "oracle": g, "replay": r}
                for Q, v, w, g, r in rows
            ],
        }


class Frontier(Workload):
    """Large two-instance classes up the horizon ladder: qld(P, 2) + replay.

    One op is one class at each rung of the ladder.  Op latencies are then
    unimodal, so the median does not sit between two rungs' latencies, where
    it would follow the luck of the seed.
    """

    name = "frontier"
    count_ops = 2

    def make_input(self, i: int) -> tuple[model.PatternClass, ...]:
        return tuple(
            frontier_class(random.Random(f"frontier:{self.seed}:{i}:{L}"), L) for L in LADDER
        )

    def op(self, classes):
        out = []
        for P in classes:
            bld = blind.blind_learning_dimension(P).value
            w = blind.qld(P, FRONTIER_BUDGET)
            replay = blind.worst_case_mistakes(w.to_strategy(), P, FRONTIER_BUDGET)
            out.append((bld, w.value, w.witness, replay))
        return out

    def check(self, classes, out) -> list[str]:
        bad = []
        for P, (bld, value, witness, replay) in zip(classes, out):
            bad.extend(blind.validate_witness_tree(witness["tree"], FRONTIER_BUDGET, P.horizon))
            if not replay == value <= bld:
                bad.append(f"L={P.horizon}: replay {replay}, qld {value}, blind dimension {bld}")
        return bad

    def record(self, classes, out) -> list[dict]:
        return [
            {"L": P.horizon, "bld": bld, "value": value, "witness": witness, "replay": replay}
            for P, (bld, value, witness, replay) in zip(classes, out)
        ]


class _Trials(Workload):
    """Seeded sampler trials, seeded exactly as ``monte_carlo_uniform`` does.

    Trial i gets the i-th child of SeedSequence(seed) and splits it into a
    stream seed and a sampler seed.
    """

    count_ops = 500

    def make_input(self, i: int):
        return np.random.SeedSequence(self.seed, spawn_key=(i,)).spawn(2)


class MonteCarlo(_Trials):
    """Criterion 1: uniform sampler vs littlestone-branch streams, 2 instances."""

    name = "mc"
    N = 4
    DELTA = Fraction(1)

    def build(self) -> None:
        self.H = full_concept_class(2)
        self.budget = model.QueryBudgetPolicy(Fraction(1, 16))
        self.dim = 2  # LD of the full class on 2 instances
        self.integrals: list[float] = []

    def stream(self, stream_seed) -> model.PiecewiseStream:
        return adversaries.gen_littlestone_branch_stream(self.H, self.N, self.budget, stream_seed)

    def op(self, seeds):
        stream_seed, run_seed = seeds
        stream = self.stream(stream_seed)
        return arena.run_uniform_sampler(self.H, stream, self.DELTA, run_seed)

    def check(self, seeds, report) -> list[str]:
        self.integrals.append(float(report.mistake_integral))
        return _sampler_problems(report, Fraction(4 * self.N), self.dim)

    def record(self, seeds, report) -> dict:
        return _sampler_record(report)

    def finish(self) -> list[str]:
        values = self.integrals
        self.integrals = []
        if len(values) < 2:
            return []
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        bound = float(self.DELTA) * self.dim
        stderr = math.sqrt(var / len(values))
        if mean > bound + 3 * stderr:
            return [f"mean {mean} > {bound} + 3 * {stderr} over {len(values)} trials"]
        return []


class LongStream(_Trials):
    """Criterion 4 shape: self-revealing stream, uniform then adaptive sampler."""

    name = "longstream"
    HORIZON = 16

    def build(self) -> None:
        self.H = full_concept_class(4)
        self.reveals = [Fraction(k) for k in range(self.HORIZON)]

    def op(self, seeds):
        stream_seed, run_seed = seeds
        stream = adversaries.gen_self_revealing_stream(
            self.H, self.reveals, self.HORIZON, stream_seed
        )
        uniform = arena.run_uniform_sampler(self.H, stream, 1, run_seed, on_empty="reset")
        return len(stream.segments), uniform, arena.run_adaptive_sampler(stream)

    def check(self, seeds, out) -> list[str]:
        segments, uniform, adaptive = out
        bad = _sampler_problems(uniform, Fraction(self.HORIZON), None)
        if adaptive.mistake_integral != 0:
            bad.append(f"adaptive integral {adaptive.mistake_integral} != 0")
        if [e.time for e in adaptive.query_events] != self.reveals:
            bad.append("adaptive query times != reveal times")
        if segments != 2 * self.HORIZON:
            bad.append(f"{segments} segments, expected {2 * self.HORIZON}")
        return bad

    def record(self, seeds, out) -> dict:
        segments, uniform, adaptive = out
        return {
            "segments": segments,
            "uniform": _sampler_record(uniform),
            "adaptive": frac(adaptive.mistake_integral),
        }


def _sampler_problems(report, horizon: Fraction, dim: int | None) -> list[str]:
    bad = []
    integral = report.mistake_integral
    if not isinstance(integral, Fraction) or not 0 <= integral <= horizon:
        bad.append(f"integral {integral!r} outside [0, {horizon}]")
    if sum((e.error for e in report.epoch_errors), Fraction(0)) != integral:
        bad.append("epoch errors do not sum to the integral")
    times = [e.time for e in report.query_events]
    if any(b <= a for a, b in zip(times, times[1:])) or (times and times[-1] >= horizon):
        bad.append("query times not strictly increasing inside the horizon")
    if dim is not None and report.successful_queries > dim:
        bad.append(f"{report.successful_queries} successful queries > LD {dim}")
    return bad


def _sampler_record(report) -> dict:
    return {
        "integral": frac(report.mistake_integral),
        "epochs": [frac(e.error) for e in report.epoch_errors],
        "queries": len(report.query_events),
    }


WORKLOADS = {w.name: w for w in (Sweep, Frontier, MonteCarlo, LongStream)}
