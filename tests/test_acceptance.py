"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Exact criteria use zero
tolerance (Fraction arithmetic or integer equality); statistical criteria
pin their bound at mean <= target + 3 * stderr with fixed seeds.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from qstream.adversaries import (
    exact_blind_error,
    gen_littlestone_branch_stream,
    gen_self_revealing_stream,
)
from qstream.arena import monte_carlo_uniform, run_adaptive_sampler
from qstream.blind import (
    blind_learning_dimension,
    game_value,
    qld,
    worst_case_mistakes,
)
from qstream.littlestone import (
    LittlestoneSolver,
    littlestone_dimension,
    soa_predict,
)
from qstream.model import (
    ConceptClass,
    DiscretePattern,
    InstanceSpace,
    PatternClass,
    QueryBudgetPolicy,
)


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS — {detail}")


def full_concept_class(n):
    space = InstanceSpace(tuple(f"x{i}" for i in range(n)))
    return ConceptClass(space, tuple(product((0, 1), repeat=n)))


def ld_depth_probe(H):
    """Independent dimension oracle: direct shattered-tree existence search."""
    concepts, n = H.concepts, len(H.space.instances)

    def exists(ids, d):
        if d == 0:
            return True
        for xi in range(n):
            zeros = [i for i in ids if concepts[i][xi] == 0]
            ones = [i for i in ids if concepts[i][xi] == 1]
            if zeros and ones and exists(zeros, d - 1) and exists(ones, d - 1):
                return True
        return False

    d = 0
    while exists(list(range(len(concepts))), d + 1):
        d += 1
    return d


# ---------------------------------------------------------------------------
# Criterion 1: uniform-sampler expected error bound (statistical)


def test_criterion_1_uniform_sampler_bound():
    H = full_concept_class(2)
    dim = littlestone_dimension(H)
    assert dim == 2 == ld_depth_probe(H)
    delta = Fraction(1)
    # horizon 16 = 4n with n = 4; slope 1/16 gives budget(16) = 1, the
    # deepest branch the dimension-2 class supports (needs LD >= 2k)
    budget = QueryBudgetPolicy(Fraction(1, 16))

    def adversary(seed):
        return gen_littlestone_branch_stream(H, 4, budget, seed)

    stats = monte_carlo_uniform(H, adversary, delta, trials=10_000, seed=20240601)
    bound = float(delta) * dim
    assert stats.mean <= bound + 3 * stats.stderr, (stats.mean, stats.stderr)
    for es in stats.per_epoch:
        assert es.mean <= float(delta) + 3 * es.stderr, (es.epoch, es.mean, es.stderr)
    report(
        1,
        f"mean {stats.mean:.4f} <= {bound} + 3*{stats.stderr:.4f}; "
        f"per-epoch means {[round(e.mean, 4) for e in stats.per_epoch]} all <= 1 + 3*stderr "
        f"({stats.trials} trials)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: exact blind-error lower bound and tightness (exact)


def _admissible_placements_exhaustive(units):
    """Every sub-interval coverage pattern within the per-unit caps (slope 1)."""
    per_unit = []
    for n in range(1, units + 1):
        k = n
        width = Fraction(1, 2 * k)
        starts = [Fraction(n - 1) + width * j for j in range(2 * k)]
        options = []
        for take in range(k + 1):
            options.extend(combinations(starts, take))
        per_unit.append(options)
    for combo in product(*per_unit):
        yield [t for chunk in combo for t in chunk]


def test_criterion_2_blind_error_floor():
    slope1 = QueryBudgetPolicy(1)
    checked = 0
    for units in (1, 2):
        for times in _admissible_placements_exhaustive(units):
            value = exact_blind_error(units, slope1, times)
            assert value >= Fraction(units, 4), (units, times, value)
            checked += 1
    rng = random.Random(99)
    for units in (4, 8):
        for _ in range(200):
            times = []
            for n in range(1, units + 1):
                k = n
                width = Fraction(1, 2 * k)
                take = rng.randint(0, k)
                for j in rng.sample(range(2 * k), take):
                    times.append(Fraction(n - 1) + width * j)
            value = exact_blind_error(units, slope1, times)
            assert value >= Fraction(units, 4), (units, value)
            checked += 1
    for units in (1, 2, 4, 8):
        optimal = []
        for n in range(1, units + 1):
            width = Fraction(1, 2 * n)
            optimal.extend(Fraction(n - 1) + width * j for j in range(n))
        assert exact_blind_error(units, slope1, optimal) == Fraction(units, 4)
    report(2, f"{checked} admissible placements >= units/4 exactly; "
              "covering placement achieves units/4 exactly for units in {1,2,4,8}")


# ---------------------------------------------------------------------------
# Criterion 3: adaptive sampler is exact (exact)


def test_criterion_3_adaptive_sampler_zero_error():
    source = full_concept_class(2)
    steps = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    checked = 0
    for i in range(100):
        horizon = Fraction(2 + (i % 31))
        step = steps[i % len(steps)]
        reveals = []
        t = Fraction(0)
        while t < horizon:
            reveals.append(t)
            t += step
        stream = gen_self_revealing_stream(source, reveals, horizon, seed=i)
        run = run_adaptive_sampler(stream)
        assert run.mistake_integral == 0, (i, run.mistake_integral)
        assert [e.time for e in run.query_events] == reveals, i
        assert len(run.query_events) <= len(reveals)
        checked += 1
    report(3, f"{checked} seeded self-revealing streams (horizons up to 32): "
              "mistake integral exactly 0, query times == reveal times")


# ---------------------------------------------------------------------------
# Criterion 4: uniform sampler loses linearly on self-revealing streams


def test_criterion_4_uniform_sampler_growth_trend():
    slope = Fraction(1, 8)
    horizons = (4, 8, 16)
    budget = QueryBudgetPolicy(slope)
    needed = 2 * budget.budget(max(horizons))
    source = full_concept_class(needed)  # dimension = needed = 4
    assert littlestone_dimension(source) >= needed

    means = {}
    for horizon in horizons:
        reveals = [Fraction(k) for k in range(horizon)]

        def adversary(seed, horizon=horizon, reveals=reveals):
            return gen_self_revealing_stream(source, reveals, horizon, seed)

        stats = monte_carlo_uniform(
            source, adversary, Fraction(1), trials=600, seed=777 + horizon,
            on_empty="reset",
        )
        means[horizon] = stats.mean
    assert means[4] < means[8] < means[16], means
    assert means[16] > 2 * means[4], means
    report(4, "means " + ", ".join(f"h={h}: {means[h]:.3f}" for h in horizons)
           + " strictly increasing; h=16 mean > 2x h=4 mean")


# ---------------------------------------------------------------------------
# Criteria 5-7 share one sweep over the Appendix-B instance set


def _pattern_class(space_tokens, pats):
    L = len(pats[0])
    space = InstanceSpace(space_tokens)
    return PatternClass(space, L, tuple(DiscretePattern(p) for p in pats))


def _canonical_two_instance(pats):
    swapped = tuple(
        sorted(tuple(("b" if x == "a" else "a", y) for x, y in p) for p in pats)
    )
    return min(tuple(sorted(pats)), swapped)


def _exhaustive_classes():
    """Single-instance L<=3 (all classes up to 6 patterns), two-instance L=2
    (up to 6 patterns) and L in {3,4} (up to 2 patterns), deduplicated up to
    instance relabeling."""
    classes = []
    for L in (1, 2, 3):
        vectors = list(product((0, 1), repeat=L))
        for k in range(1, min(6, len(vectors)) + 1):
            for combo in combinations(vectors, k):
                pats = [tuple(("a", y) for y in v) for v in combo]
                classes.append(_pattern_class(("a",), pats))
    all_two = {
        2: [tuple(zip(xs, ys))
            for xs in product("ab", repeat=2)
            for ys in product((0, 1), repeat=2)],
        3: [tuple(zip(xs, ys))
            for xs in product("ab", repeat=3)
            for ys in product((0, 1), repeat=3)],
        4: [tuple(zip(xs, ys))
            for xs in product("ab", repeat=4)
            for ys in product((0, 1), repeat=4)],
    }
    seen = set()
    for L, max_p in ((2, 6), (3, 2), (4, 2)):
        pool = all_two[L]
        for k in range(1, max_p + 1):
            for combo in combinations(pool, k):
                canon = _canonical_two_instance(combo)
                if canon in seen:
                    continue
                seen.add(canon)
                classes.append(_pattern_class(("a", "b"), list(combo)))
    return classes


def _random_classes(count=500, seed=424242):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        L = rng.randint(2, 6)
        want = rng.randint(1, 12)
        pats = set()
        for _ in range(6 * want):
            pats.add(tuple((rng.choice("ab"), rng.randint(0, 1)) for _ in range(L)))
            if len(pats) == want:
                break
        out.append(_pattern_class(("a", "b"), sorted(pats)))
    return out


@pytest.fixture(scope="module")
def appendix_b_sweep():
    t0 = time.time()
    rows = []
    classes = _exhaustive_classes()
    n_exhaustive = len(classes)
    classes += _random_classes()
    for P in classes:
        bld = blind_learning_dimension(P).value
        for Q in (0, 1, 2):
            witness = qld(P, Q)
            oracle = game_value(P, Q)
            replay = worst_case_mistakes(witness.to_strategy(), P, Q)
            rows.append((P, Q, witness.value, oracle, replay, bld))
    elapsed = time.time() - t0
    return {
        "rows": rows,
        "n_exhaustive": n_exhaustive,
        "n_random": len(classes) - n_exhaustive,
        "elapsed": elapsed,
    }


def test_criterion_5_qld_equals_game_oracle(appendix_b_sweep):
    bad = [
        (P, Q, v, g)
        for (P, Q, v, g, _, _) in appendix_b_sweep["rows"]
        if v != g
    ]
    assert not bad, bad[:3]
    report(
        5,
        f"qld == game oracle on {appendix_b_sweep['n_exhaustive']} exhaustive + "
        f"{appendix_b_sweep['n_random']} random classes x Q in {{0,1,2}} "
        f"({len(appendix_b_sweep['rows'])} solves, {appendix_b_sweep['elapsed']:.0f}s), zero tolerance",
    )


def test_criterion_6_blind_dimension(appendix_b_sweep):
    for (P, Q, v, _, _, bld) in appendix_b_sweep["rows"]:
        if Q == 0:
            assert v == bld, (P, v, bld)
    rng = random.Random(31337)
    checked = 0
    for _ in range(60):
        L = rng.randint(1, 10)
        vecs = list({tuple(rng.randint(0, 1) for _ in range(L)) for _ in range(rng.randint(1, 8))})
        P = _pattern_class(("a",), [tuple(("a", y) for y in v) for v in vecs])
        naive = min(
            max(sum(a != b for a, b in zip(cand, v)) for v in vecs)
            for cand in product((0, 1), repeat=L)
        )
        assert blind_learning_dimension(P).value == naive
        checked += 1
    report(6, f"qld(P, 0) == blind dimension on the criterion-5 set; "
              f"blind dimension == naive double-loop oracle on {checked} classes with L <= 10")


def test_criterion_7_strategy_soundness(appendix_b_sweep):
    for (P, Q, v, _, replay, _) in appendix_b_sweep["rows"]:
        assert replay <= v, (P, Q, replay, v)
        assert replay == v, (P, Q, replay, v)  # witness replay is exact
    report(7, "worst_case_mistakes(bp_soa) <= qld value (and == value) on the "
              "full criterion-5 instance set, zero tolerance")


# ---------------------------------------------------------------------------
# Criterion 8: SOA mistake bound and dimension monotonicity (exhaustive)


def _all_concept_classes(n):
    space = InstanceSpace(tuple("abc"[:n]))
    vectors = list(product((0, 1), repeat=n))
    for k in range(1, len(vectors) + 1):
        for combo in combinations(vectors, k):
            yield ConceptClass(space, combo)


def test_criterion_8_soa_suite():
    runs = 0
    for n in (1, 2, 3):
        for H in _all_concept_classes(n):
            solver = LittlestoneSolver(H)
            dim = solver.dimension()
            space = H.space.instances

            def dfs(ids, mistakes, depth):
                nonlocal runs
                assert mistakes <= dim
                if depth == 5:
                    return
                for xi, x in enumerate(space):
                    for y in (0, 1):
                        nxt = solver.restrict_ids(ids, xi, y)
                        if not nxt:
                            continue
                        runs += 1
                        wrong = soa_predict(H, x, ids) != y
                        dfs(nxt, mistakes + wrong, depth + 1)

            dfs(solver.full(), 0, 0)

    # dimension monotonicity across every subset pair, per instance count
    pairs = 0
    for n in (1, 2, 3):
        space = InstanceSpace(tuple("abc"[:n]))
        vectors = list(product((0, 1), repeat=n))
        full = ConceptClass(space, tuple(vectors))
        solver = LittlestoneSolver(full)
        subsets = []
        for k in range(1, len(vectors) + 1):
            for combo in combinations(range(len(vectors)), k):
                mask = sum(1 << i for i in combo)  # bit i: concept i survives
                subsets.append((mask, solver.dimension(mask)))
        for small, ld_small in subsets:
            for big, ld_big in subsets:
                if small & big == small:
                    assert ld_small <= ld_big
                    pairs += 1
    report(8, f"SOA mistakes <= LD on every realizable sequence of length <= 5 "
              f"({runs} prefix steps over all classes on <= 3 instances); "
              f"LD monotone on {pairs} subset pairs")
