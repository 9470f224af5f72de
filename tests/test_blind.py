import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qstream import adversaries, arena, blind, littlestone
from qstream.blind import (
    BlindStrategy,
    QldSolver,
    _int_to_bits,
    _Plan,
    _one_center_value,
    _weighted_one_center,
    blind_learning_dimension,
    game_value,
    qld,
    worst_case_mistakes,
)
from qstream.model import (
    BudgetViolationError,
    ConceptClass,
    DiscretePattern,
    InstanceSpace,
    PatternClass,
    QstreamError,
    QueryBudgetPolicy,
    pattern_class_from_json,
    pattern_class_to_json,
)

AB = InstanceSpace(("a", "b"))


def make_class(labels_list, insts_list=None, space=None):
    L = len(labels_list[0])
    if insts_list is None:
        insts_list = [("a",) * L] * len(labels_list)
        space = space or InstanceSpace(("a",))
    space = space or AB
    pats = tuple(
        DiscretePattern(tuple(zip(xs, ys))) for xs, ys in zip(insts_list, labels_list)
    )
    return PatternClass(space, L, pats)


def random_class(rng, max_L=6, max_P=12, alphabet="ab", min_L=2):
    L = rng.randint(min_L, max_L)
    want = rng.randint(1, max_P)
    pats = set()
    for _ in range(4 * want):
        pats.add(tuple((rng.choice(alphabet), rng.randint(0, 1)) for _ in range(L)))
        if len(pats) == want:
            break
    space = InstanceSpace(tuple(sorted(alphabet)))
    return PatternClass(space, L, tuple(DiscretePattern(p) for p in sorted(pats)))


def bld_naive(P, lo=None, hi=None):
    """Plain double loop, no bit packing: the independent oracle."""
    lo = lo or 1
    hi = hi or P.horizon
    vecs = {tuple(y for _, y in p.steps[lo - 1 : hi]) for p in P.patterns}
    best = None
    for yhat in product((0, 1), repeat=hi - lo + 1):
        worst = max(sum(a != b for a, b in zip(yhat, v)) for v in vecs)
        if best is None or worst < best:
            best = worst
    return best


# --- blind learning dimension -----------------------------------------------------

def test_bld_singleton():
    P = make_class([(0, 1, 0)])
    assert blind_learning_dimension(P).to_json() == {
        "value": 0,
        "witness": {"kind": "bld", "window": [1, 3], "prediction": [0, 1, 0]},
    }


def test_bld_pair_distance_three():
    # exhaustive over all 8 candidates: every vector sits at distance >= 2
    # from one of {000, 111}, and e.g. 100 achieves exactly 2
    P = make_class([(0, 0, 0), (1, 1, 1)])
    assert blind_learning_dimension(P).value == 2


def test_bld_all_vectors_is_horizon():
    for L in (1, 2, 3, 4):
        P = make_class(list(product((0, 1), repeat=L)))
        assert blind_learning_dimension(P).value == L


def test_bld_matches_naive_oracle():
    rng = random.Random(5)
    for _ in range(40):
        L = rng.randint(1, 10)
        n = rng.randint(1, 8)
        labels = list({tuple(rng.randint(0, 1) for _ in range(L)) for _ in range(n)})
        P = make_class(labels)
        assert blind_learning_dimension(P).value == bld_naive(P)


def test_bld_invariant_under_order_and_relabeling():
    labels = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    insts = [("a", "b", "a"), ("b", "a", "a"), ("a", "a", "b")]
    P1 = make_class(labels, insts)
    P2 = make_class(list(reversed(labels)), [tuple("b" if c == "a" else "a" for c in xs) for xs in reversed(insts)])
    assert blind_learning_dimension(P1).value == blind_learning_dimension(P2).value


def test_bld_empty_class_errors():
    with pytest.raises(QstreamError):
        blind_learning_dimension(PatternClass(AB, 2, ()))


def test_bld_prediction_is_zero_budget_blind_vector():
    rng = random.Random(29)
    for _ in range(30):
        P = random_class(rng, max_L=7, max_P=12)
        tree = qld(P, 0).witness["tree"]
        assert blind_learning_dimension(P).witness["prediction"] == tree["blind"]


def test_bld_witness_replay_matches_value():
    rng = random.Random(9)
    for _ in range(20):
        P = random_class(rng, max_L=5, max_P=8)
        w = blind_learning_dimension(P)
        assert worst_case_mistakes(w.to_strategy(), P, 0) == w.value


def one_center_naive(vectors, weights, width):
    """Plain loop over candidate bit tuples in lexicographic order; the first
    optimum found is the lexicographically smallest."""
    def bits(v):
        return tuple((v >> (width - 1 - i)) & 1 for i in range(width))

    best = None
    for cand in product((0, 1), repeat=width):
        worst = max(w + sum(a != b for a, b in zip(cand, bits(v)))
                    for v, w in zip(vectors, weights))
        if best is None or worst < best[0]:
            best = (worst, cand)
    return best


@pytest.mark.parametrize("weight_offset", [0, 20])
def test_weighted_one_center_matches_naive_oracle(weight_offset):
    # The search must return the oracle's value and its lexicographically
    # smallest optimal candidate, also when vectors repeat with other weights.
    # Both offsets draw the same cases; at 20 every weight exceeds any width,
    # which moves the value by 20 but must leave the candidate unchanged.
    rng = random.Random(41)
    for width in list(range(9)) + [9, 10, 11]:
        for _ in range(25 if width < 9 else 4):
            n = rng.randint(1, 7)
            vectors = [rng.getrandbits(width) for _ in range(n)]
            vectors += rng.sample(vectors, rng.randint(0, n))
            weights = [weight_offset + rng.randint(0, 4) for _ in vectors]
            value, cand = _weighted_one_center(list(zip(vectors, weights)), width)
            want_value, want_cand = one_center_naive(vectors, weights, width)
            assert value == want_value, (vectors, weights, width)
            want_int = int("".join(map(str, want_cand)), 2) if width else 0
            assert cand == want_int, (vectors, weights, width)


def test_weighted_one_center_wide_complementary_pair():
    # Two complementary 21-bit vectors: the best candidate splits the
    # distance 11/10, and the smallest one is eleven zeros then ten ones.
    assert _weighted_one_center([(0, 0), ((1 << 21) - 1, 0)], 21) == (11, (1 << 10) - 1)


@st.composite
def one_center_cases(draw):
    """Up to six distinct vectors at widths 0-12, each maybe repeated under
    another weight, with weights spread past the width."""
    width = draw(st.integers(0, 12))
    distinct = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=6))
    vectors = distinct + draw(st.lists(st.sampled_from(distinct), max_size=4))
    weights = draw(st.lists(st.integers(0, 2 * width + 3), min_size=len(vectors),
                            max_size=len(vectors)))
    return vectors, weights, width


@settings(max_examples=300, deadline=None, derandomize=True)
@given(one_center_cases())
# a repeated vector whose second copy is the heavier
@example(([0b1011, 0b0100, 0b1011], [0, 1, 3], 4))
# weight gaps wider than the width, across blocks of 256 candidates
@example(([0b10_1100_1010, 0b01_0011_0101, 0b11_1111_0000], [12, 0, 1], 10))
@example(([0b1111_0000_1111, 0, 0b1111_0000_1111], [1, 30, 2], 12))
def test_weighted_one_center_matches_naive_oracle_property(case):
    vectors, weights, width = case
    want_value, want_cand = one_center_naive(vectors, weights, width)
    want_int = int("".join(map(str, want_cand)), 2) if width else 0
    assert _weighted_one_center(list(zip(vectors, weights)), width) == (want_value, want_int)


@pytest.mark.parametrize("v", [0, 1, 0b1011_0110_0101_1100_1010, (1 << 20) - 1, 1 << 19])
def test_weighted_one_center_single_vector_is_its_own_center(v):
    # k = 1 at width 20: the vector itself, at its weight, also when it repeats lighter
    assert _weighted_one_center([(v, 3)], 20) == (3, v)
    assert _weighted_one_center([(v, 1), (v, 3)], 20) == (3, v)


@pytest.mark.parametrize("u", [0, 0b1_0110_1001_0011_1100, (1 << 17) - 1])
def test_weighted_one_center_dominated_pair(u):
    # v lies 2 away from u and is 2 lighter, so u alone reaches u's weight:
    # every other candidate is at least 1 from u.  Width 17 spans 512 blocks.
    for flips in (0b101, 0b1_0000_0001_0000_0000, 0b1_0000_0000_0000_0001):
        v = u ^ flips
        assert _weighted_one_center([(v, 1), (u, 3)], 17) == (3, u)
        assert _weighted_one_center([(u, 3), (v, 1)], 17) == (3, u)


def one_center_value_brute(rows, width):
    """The least worst weight plus distance over all 2^width candidates."""
    return min(max(w + (c ^ v).bit_count() for v, w in rows) for c in range(1 << width))


def heaviest_per_vector(rows):
    out = {}
    for v, w in rows:
        out[v] = max(out.get(v, w), w)
    return out


def test_one_center_value_closed_forms_exhaustive():
    # every set of one to three distinct vectors at widths 2-4, weights 0-3
    cases = 0
    for width in (2, 3, 4):
        for k in (1, 2, 3):
            for vectors in combinations(range(1 << width), k):
                for weights in product(range(4), repeat=k):
                    rows = dict(zip(vectors, weights))
                    assert _one_center_value(rows, width) == one_center_value_brute(
                        rows.items(), width), (rows, width)
                    cases += 1
    assert cases == 42_256


@st.composite
def few_vector_cases(draw):
    """One to three distinct vectors at widths 1-12, weights 0-12, each maybe
    repeated under another weight."""
    width = draw(st.integers(1, 12))
    distinct = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=3,
                             unique=True))
    vectors = distinct + draw(st.lists(st.sampled_from(distinct), max_size=3))
    return [(v, draw(st.integers(0, 12))) for v in vectors], width


@settings(max_examples=400, deadline=None, derandomize=True)
@given(few_vector_cases())
@example(([(0, 0), ((1 << 12) - 1, 0), (0b1010_1010_1010, 0)], 12))
@example(([(0b101, 5), (0b010, 0), (0b101, 0), (0b111, 12)], 3))
def test_one_center_value_closed_forms_match_brute_force(case):
    # the heaviest copy of a repeated vector stands for all of its copies
    rows, width = case
    assert _one_center_value(heaviest_per_vector(rows), width) == one_center_value_brute(
        rows, width)


# --- qld ----------------------------------------------------------------------------

def test_qld_singleton_any_budget_zero():
    P = make_class([(0, 1, 1, 0)])
    for Q in (0, 1, 3):
        assert qld(P, Q).value == 0


def test_qld_two_constants():
    P = make_class([(0, 0, 0, 0), (1, 1, 1, 1)])
    assert qld(P, 0).value == 2
    assert qld(P, 1).value == 1


def test_qld_free_labels_one_query_saves_nothing():
    P = make_class([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert qld(P, 1).value == 2


def test_qld_zero_budget_equals_bld():
    rng = random.Random(11)
    for _ in range(25):
        P = random_class(rng, max_L=5, max_P=10)
        assert qld(P, 0).value == blind_learning_dimension(P).value


def test_qld_monotone_in_budget():
    rng = random.Random(13)
    for _ in range(20):
        P = random_class(rng, max_L=5, max_P=8)
        values = [qld(P, Q).value for Q in range(4)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_qld_monotone_in_class_exhaustive_single_instance():
    # all subset pairs of the full single-instance class family at L = 2
    from itertools import combinations

    vectors = list(product((0, 1), repeat=2))
    classes = []
    for k in range(1, 5):
        for combo in combinations(vectors, k):
            classes.append((frozenset(combo), make_class(list(combo))))
    for Q in (0, 1, 2):
        values = {ids: qld(P, Q).value for ids, P in classes}
        for small, _ in classes:
            for big, _ in classes:
                if small <= big:
                    assert values[small] <= values[big]


def test_qld_monotone_in_class_random():
    rng = random.Random(17)
    for _ in range(15):
        P = random_class(rng, max_L=4, max_P=8)
        if len(P.patterns) < 2:
            continue
        sub = PatternClass(P.space, P.horizon, P.patterns[:-1])
        for Q in (0, 1, 2):
            assert qld(sub, Q).value <= qld(P, Q).value


def test_qld_budget_saturates_past_horizon():
    P = make_class([(0, 1), (1, 0), (1, 1)])
    assert qld(P, 5).value == qld(P, 2).value


def test_qld_value_within_range():
    rng = random.Random(19)
    for _ in range(15):
        P = random_class(rng, max_L=5, max_P=10)
        for Q in (0, 1, 2):
            assert 0 <= qld(P, Q).value <= P.horizon


def test_qld_empty_class_errors():
    with pytest.raises(QstreamError):
        qld(PatternClass(AB, 2, ()), 1)


INVALID_CLASSES = [
    # unvalidated, an internal AssertionError
    (make_class([(0, 2)]), "non-binary label", "label-2-assertion"),
    # unvalidated, a value of 0
    (make_class([(2, 0), (1, 1)]), "non-binary label", "label-2-value"),
    (make_class([(0, 1), (0, 1)]), "not pairwise distinct", "duplicate"),
    # horizon 2, one-step pattern: unvalidated, a value 0 whose [0, 1] errs once
    (PatternClass(InstanceSpace(("a",)), 2, (DiscretePattern((("a", 1),)),)),
     "length mismatch", "short-pattern"),
    (PatternClass(InstanceSpace(("a",)), 1, (DiscretePattern((("b", 0),)),)),
     "instance not in space: 'b'", "unknown-instance"),
    # unvalidated, the oracle's value 0
    (PatternClass(InstanceSpace(("a",)), 0, (DiscretePattern(()),)),
     "horizon must be positive, got 0", "horizon-0"),
]


@pytest.mark.parametrize("solve, P, problem", [
    pytest.param(solve, P, problem, id=prefix + case)
    for prefix, solve in (("", lambda P: qld(P, 1)), ("bld-", blind_learning_dimension),
                          ("gv-", lambda P: game_value(P, 1)))
    for P, problem, case in INVALID_CLASSES
])
def test_qld_rejects_invalid_class(solve, P, problem):
    # the solver validates its class like every other entry point, the
    # blind learning dimension is the solver's zero-budget answer, and the
    # oracle validates with the model's own check, not the solver's
    with pytest.raises(QstreamError, match=problem):
        solve(P)


# --- one solver per class ---------------------------------------------------------------

def test_bld_then_every_budget_builds_one_solver(monkeypatch):
    built = []
    init = QldSolver.__init__

    def counting_init(self, P):
        built.append(P)
        init(self, P)

    monkeypatch.setattr(QldSolver, "__init__", counting_init)
    P = random_class(random.Random(73), max_L=5, max_P=8, alphabet="abc")
    blind_learning_dimension(P)
    for Q in range(4):
        qld(P, Q)
    assert built == [P]


def fresh_answers(P, budgets):
    """bld and each qld(P, Q) as JSON, each from a new solver with an empty memo."""
    solver = QldSolver(P)
    value, root = solver.strategy(solver.initial_state(), 0, 0)
    out = {"bld": {"value": value, "witness": {
        "kind": "bld", "window": [1, P.horizon], "prediction": _int_to_bits(root[0].interim, P.horizon),
    }}}
    for Q in budgets:
        solver = QldSolver(P)
        value, root = solver.strategy(solver.initial_state(), Q, 0)
        out[Q] = {"value": value, "witness": {
            "kind": "qld", "budget": Q, "tree": blind._canonical_tree(root, Q, 0, P.horizon),
        }}
    return out


@pytest.mark.parametrize("alphabet", ["ab", "abc"])
def test_shared_solver_answers_as_fresh_solvers_in_any_budget_order(alphabet):
    # the memo a class's solver keeps from earlier budgets, and from its bld,
    # must leave every later value and witness as a fresh solver gives them
    rng = random.Random(79)
    for _ in range(6):
        P = random_class(rng, max_L=5, max_P=8, alphabet=alphabet)
        want = fresh_answers(P, range(4))
        for order in permutations(range(4)):
            for bld_first in (True, False):
                P = PatternClass(P.space, P.horizon, P.patterns)  # a new key for the slot
                got = {"bld": blind_learning_dimension(P).to_json()} if bld_first else {}
                got.update((Q, qld(P, Q).to_json()) for Q in order)
                if not bld_first:
                    got["bld"] = blind_learning_dimension(P).to_json()
                assert got == want, (order, bld_first)


def test_shared_solver_of_an_earlier_class_dies(gc_off):
    # the slot keeps only the last class's solver, so its memo cannot pile up;
    # with the collector off, reference counting frees it at the next class
    rng = random.Random(83)
    first, second = (random_class(rng, max_L=5, max_P=8) for _ in range(2))
    qld(first, 2)
    ref = weakref.ref(QldSolver.of(first))
    qld(second, 2)
    assert ref() is None


def test_witness_neither_needs_nor_holds_its_solver(monkeypatch, gc_off):
    # the witness plays its strategy tree with every solver call refused, and
    # its class's solver dies once another class takes the slot
    def refuse(*args, **kwargs):
        raise AssertionError("the replay called the solver")

    rng = random.Random(89)
    P, other = (random_class(rng, max_L=5, max_P=8, min_L=4) for _ in range(2))
    solves = [(0, lambda: blind_learning_dimension(P))]
    solves += [(Q, lambda Q=Q: qld(P, Q)) for Q in (0, 1, 2)]
    for Q, solve in solves:
        w = solve()
        ref = weakref.ref(QldSolver._last[1])
        with monkeypatch.context() as patch:
            patch.setattr(QldSolver, "solve", refuse)
            patch.setattr(QldSolver, "advance", refuse)
            assert worst_case_mistakes(w.to_strategy(), P, Q) == w.value
        qld(other, 0)
        assert ref() is None
        assert worst_case_mistakes(w.to_strategy(), P, Q) == w.value


def test_library_calls_leave_no_cyclic_garbage(gc_off):
    # every call here frees what it builds by reference counting alone, the
    # solver and oracle memos included; the CLI is left out, as argparse
    # builds cycles of its own
    P = random_class(random.Random(107), max_L=5, max_P=8, min_L=4)
    assert blind_learning_dimension(P).value == qld(P, 0).value
    for Q in (0, 1, 2):
        w = qld(P, Q)
        assert w.value == game_value(P, Q) == worst_case_mistakes(w.to_strategy(), P, Q)
        assert blind.validate_witness_tree(w.witness["tree"], Q, P.horizon) == []
    H = ConceptClass(AB, tuple(product((0, 1), repeat=2)))
    tree = littlestone.build_littlestone_tree(H, 2)  # a miss, then a hit
    assert littlestone.build_littlestone_tree(H, 2) is tree is not None
    budget = QueryBudgetPolicy(Fraction(1, 4))  # one query in [0, 4), below LD 2
    branch = adversaries.gen_littlestone_branch_stream(H, 1, budget, 3)
    two_point = adversaries.gen_two_point_stream("a", "b", 2, QueryBudgetPolicy(1), 5)
    revealing = adversaries.gen_self_revealing_stream(H, [0, 1, 2, 3], 4, 7)
    for stream in (branch, two_point, revealing):
        arena.run_uniform_sampler(H, stream, Fraction(1, 2), 11, on_empty="reset")
    assert arena.run_adaptive_sampler(revealing).mistake_integral == 0
    arena.monte_carlo_uniform(
        H, lambda seed: adversaries.gen_littlestone_branch_stream(H, 1, budget, seed),
        Fraction(1, 4), trials=4, seed=13,
    )
    assert gc.collect() == 0


# --- oracle agreement ----------------------------------------------------------------

FOUR_ROUND_PAIR = make_class([(0, 0, 0, 0), (1, 1, 1, 1)])
# the class where collapsing accrued mistakes understates the optimum
ORDER_SENSITIVE = make_class(
    [(1, 0, 0, 1), (0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 1), (1, 0, 1, 1), (1, 0, 1, 1)],
    [("a", "a", "a", "b"), ("a", "b", "a", "b"), ("a", "a", "b", "b"),
     ("b", "a", "a", "b"), ("b", "b", "a", "a"), ("a", "b", "a", "b")],
)


def test_game_value_equals_qld_on_known_cases():
    for Q in (0, 1, 2):
        assert game_value(FOUR_ROUND_PAIR, Q) == qld(FOUR_ROUND_PAIR, Q).value


@pytest.mark.parametrize("solve", [qld, game_value], ids=["qld", "game_value"])
@pytest.mark.parametrize("Q", [1.5, 2.0, True], ids=["1.5", "2.0", "True"])
def test_budget_must_be_an_int(solve, Q):
    # a budget of 1.5 drew a qld witness querying at rounds 1, 2 and 3, with
    # unused budget -0.5 and -1.5 at its leaves, while game_value allowed
    # ceil(1.5) queries; a bool was written out as "budget": true
    P = make_class([(0, 0, 1), (0, 1, 1), (1, 1, 0)])
    with pytest.raises(TypeError) as exc:
        solve(P, Q)
    assert str(exc.value) == f"query budget must be an int, got {Q!r}"


@pytest.mark.parametrize("solve", [qld, game_value], ids=["qld", "game_value"])
def test_budget_must_not_be_negative(solve):
    with pytest.raises(ValueError) as exc:
        solve(FOUR_ROUND_PAIR, -1)
    assert str(exc.value) == "query budget must be >= 0, got -1"


def test_solve_on_an_empty_information_set_raises():
    with pytest.raises(QstreamError) as exc:
        QldSolver(FOUR_ROUND_PAIR).solve((0, 0), 0, 0)
    assert str(exc.value) == "solve on an empty information set"


def test_worst_case_over_an_empty_class_raises():
    strategy = qld(FOUR_ROUND_PAIR, 0).to_strategy()
    with pytest.raises(QstreamError) as exc:
        worst_case_mistakes(strategy, PatternClass(AB, 4, ()), 0)
    assert str(exc.value) == "worst case over an empty pattern class"


def test_game_value_shares_no_solver_code(monkeypatch):
    # The oracle checks the solver, so it must reach neither the solver nor
    # its one-center kernel, and its slot is not the solver's.
    def refuse(*args, **kwargs):
        raise AssertionError("game_value called solver code")

    qld(FOUR_ROUND_PAIR, 1)
    solver_slot = QldSolver._last
    monkeypatch.setattr(QldSolver, "of", refuse)
    monkeypatch.setattr(blind, "QldSolver", refuse)
    monkeypatch.setattr(blind, "_weighted_one_center", refuse)
    monkeypatch.setattr(blind, "_one_center_value", refuse)
    assert [game_value(FOUR_ROUND_PAIR, Q) for Q in (0, 1, 2)] == [2, 1, 1]
    assert [game_value(ORDER_SENSITIVE, Q) for Q in (0, 1, 2)] == [2, 2, 1]
    assert QldSolver._last is solver_slot


def game_value_pairs(P, Q):
    """Reference: the oracle's round recursion with each state a tuple of
    (pattern id, accrual) pairs, normalized at every round."""
    steps = [p.steps for p in P.patterns]
    memo = {}

    def value(state, q, t):
        if t == P.horizon:
            return max(acc for _, acc in state)
        offset = min(acc for _, acc in state)
        state = tuple((pid, acc - offset) for pid, acc in state)
        if (state, q, t) not in memo:
            options = []
            for r in (0, 1):
                nxt = tuple((pid, acc + (steps[pid][t][1] != r)) for pid, acc in state)
                options.append(value(nxt, q, t + 1))
                if q > 0:
                    branches = {}
                    for pid, acc in nxt:
                        branches.setdefault(steps[pid][t], []).append((pid, acc))
                    options.append(max(value(tuple(b), q - 1, t + 1) for b in branches.values()))
            memo[state, q, t] = min(options)
        return memo[state, q, t] + offset

    return value(tuple((i, 0) for i in range(len(steps))), Q, 0)


@pytest.mark.parametrize("alphabet", ["a", "ab", "abc"])
def test_game_value_matches_the_pair_tuple_recursion(alphabet):
    rng = random.Random(89)
    for _ in range(40):
        P = random_class(rng, max_L=6, max_P=10, alphabet=alphabet)
        # the reference caps no budget, so L - 1, L and L + 1 check the cap
        for Q in (0, 1, 2, 3, P.horizon - 1, P.horizon, P.horizon + 1):
            assert game_value(P, Q) == game_value_pairs(P, Q)


@pytest.mark.parametrize("alphabet", ["a", "ab", "abc"])
def test_game_value_slot_answers_as_the_reference_in_any_budget_order(alphabet):
    # the memo a class keeps from earlier budgets must leave every later
    # value as the reference computes it; at L = 1 the root is the folded
    # last round, and Q = L + 2 has more queries than rounds
    rng = random.Random(97)
    for L in (1, 1, 2, 3, 4):
        P = random_class(rng, max_L=L, max_P=6, alphabet=alphabet, min_L=L)
        budgets = (0, 1, 2, 3, L + 2)
        want = {Q: game_value_pairs(P, Q) for Q in budgets}
        for order in permutations(budgets):
            P = PatternClass(P.space, P.horizon, P.patterns)  # a new key for the slot
            assert {Q: game_value(P, Q) for Q in order} == want, order


def test_game_value_slot_of_an_earlier_class_dies(gc_off):
    # the slot keeps only the last class's memo, so memos cannot pile up;
    # with the collector off, reference counting frees it at the next class
    class Probe:
        pass

    rng = random.Random(101)
    first, second = (random_class(rng, max_L=5, max_P=8) for _ in range(2))
    game_value(first, 2)
    probe = Probe()
    blind._game_last[3][("probe",)] = probe  # an object only the first memo holds
    refs = weakref.ref(first), weakref.ref(probe)
    del first, probe
    game_value(second, 2)
    assert [ref() for ref in refs] == [None, None]


def test_game_value_work_is_pinned():
    # The memo entries and partitions the oracle's slot holds after Q = 0, 1
    # and 2 in turn, per class: an uncapped budget (more entries at Q = 1 and
    # 2) or a partition keyed past (members, round) shows here even with
    # equal values
    rng = random.Random(37)
    classes = [two_instance_class(rng, 5, 12), two_instance_class(rng, 6, 16),
               random_class(rng, max_L=5, max_P=10, alphabet="abc", min_L=5)]
    want = [[(3, 31, 0), (3, 146, 4), (2, 243, 25)],
            [(4, 63, 0), (3, 413, 5), (2, 781, 45)],
            [(3, 31, 0), (2, 125, 4), (1, 186, 32)]]
    for P, counts in zip(classes, want):
        got = []
        for Q in (0, 1, 2):
            value = game_value(P, Q)
            got.append((value, len(blind._game_last[3]), len(blind._game_last[4])))
        assert got == counts, P.horizon


@pytest.mark.parametrize("alphabet", ["a", "ab", "abc"])
def test_game_value_solves_no_budget_past_the_rounds_left(alphabet):
    # each query takes its own round among 1..L - 1, so every budget past
    # L - 1 is the game of Q = L - 1 and finds its root in the memo; at
    # L = 2 the Q = 2 call is one hit on the root of Q = 1
    rng = random.Random(103)
    for L in (2, 2, 3, 4, 5):
        P = random_class(rng, max_L=L, max_P=8, alphabet=alphabet, min_L=L)
        value, size = game_value(P, L - 1), len(blind._game_last[3])
        for Q in (L, L + 3):
            assert game_value(P, Q) == value and len(blind._game_last[3]) == size, (L, Q)


def test_game_value_monotone_in_budget():
    P = make_class([(0, 1, 1), (1, 0, 1), (0, 0, 0)])
    assert game_value(P, 2) <= game_value(P, 1) <= game_value(P, 0)


def test_oracle_equality_random():
    rng = random.Random(23)
    for _ in range(40):
        P = random_class(rng, max_L=5, max_P=8)
        for Q in (0, 1, 2):
            assert qld(P, Q).value == game_value(P, Q)


@pytest.mark.parametrize("alphabet", ["a", "abc"])
def test_oracle_equality_random_alphabets(alphabet):
    # Three instances split a round into up to six observation branches; one
    # instance gives many patterns of a branch the same remaining rounds,
    # where the worst accrual among them must set the value.
    rng = random.Random(47)
    for _ in range(60):
        P = random_class(rng, max_L=5, max_P=8, alphabet=alphabet)
        for Q in (0, 1, 2):
            assert qld(P, Q).value == game_value(P, Q)


def two_instance_class(rng, L, n=24):
    pats = set()
    while len(pats) < n:
        pats.add(tuple((rng.choice("ab"), rng.randint(0, 1)) for _ in range(L)))
    return PatternClass(AB, L, tuple(DiscretePattern(p) for p in sorted(pats)))


def test_oracle_equality_on_wide_two_instance_classes():
    # 24 patterns at L = 8-10: search leaves with many members and futures
    rng = random.Random(2805)
    for L in (8, 8, 9, 9, 10, 10):
        P = two_instance_class(rng, L)
        for Q in range(4):
            assert qld(P, Q).value == game_value(P, Q), (L, Q)


def test_leaf_value_equals_the_budget_zero_solve(monkeypatch):
    # every leaf the search values, against a fresh solver's blind solve
    leaf_value, seen = QldSolver._leaf_value, []

    def record(self, ones, accs, t_prev):
        value = leaf_value(self, ones, accs, t_prev)
        seen.append((ones, accs, t_prev, value))
        return value

    monkeypatch.setattr(QldSolver, "_leaf_value", record)
    rng = random.Random(2806)
    futures = set()
    for L in (6, 7, 8):
        P = two_instance_class(rng, L)
        solver, reference = QldSolver(P), QldSolver(P)
        for Q in (1, 2):
            solver.solve(solver.initial_state(), Q, 0)
        for ones, accs, t_prev, value in seen:
            assert value == reference.solve((ones, accs), 0, t_prev)[0]
            futures.add(min(len(solver._futures(ones, accs, t_prev)), 4))
        seen.clear()
    assert futures == {1, 2, 3, 4}


def test_search_work_is_pinned(monkeypatch):
    # The calls one Q = 2 solve makes from a fresh solver, per class: a search
    # that visits other prefixes or memo keys shows here even with equal
    # outputs, such as a 1-child tested when deferred instead of when popped
    # (more leaf calls), or a memo key left unshifted (more _solve_shifted calls)
    calls = dict.fromkeys(["_solve_shifted", "_leaf_value", "_weighted_one_center"], 0)

    def counted(owner, name):
        f = getattr(owner, name)

        def count(*args):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(owner, name, count)

    counted(QldSolver, "_solve_shifted")
    counted(QldSolver, "_leaf_value")
    counted(blind, "_weighted_one_center")
    rng = random.Random(4)
    want = {8: (3, 9, 43, 2), 9: (4, 24, 173, 8), 10: (4, 26, 268, 16)}
    for L, counts in want.items():
        P = two_instance_class(rng, L)
        calls.update(dict.fromkeys(calls, 0))
        solver = QldSolver(P)
        value = solver.solve(solver.initial_state(), 2, 0)[0]
        assert (value, *calls.values()) == counts, L


def decode_state(solver, state):
    """The packed (ones, accs) information set as (pattern id, accrual)
    pairs in pid order, read one field at a time; accs must be 0 outside
    the members' fields."""
    ones, accs = state
    w = solver._w
    pairs = tuple(
        (pid, (accs >> (w * pid)) & ((1 << w) - 1))
        for pid in range(len(solver._labels))
        if (ones >> (w * pid)) & 1
    )
    assert accs == sum(acc << (w * pid) for pid, acc in pairs)  # 0 off the members
    return pairs


def test_qld_value_at_least_largest_accrual():
    # The interim search prunes on this bound: no play can undo a mistake a
    # pattern has already accrued.  States come from advance under random
    # plans, so accruals spread well beyond those of optimal play.  Each
    # advance, one add of packed flips per played round, must equal a
    # per-round recount of the interim and query-round mistakes over the steps.
    rng = random.Random(43)
    checked = 0
    for _ in range(40):
        P = random_class(rng, max_L=5, max_P=8, alphabet="abc")
        steps = [p.steps for p in P.patterns]
        solver = QldSolver(P)
        stack = [(solver.initial_state(), rng.randint(1, 3), 0)]
        while stack:
            state, q, t_prev = stack.pop()
            pairs = decode_state(solver, state)
            assert solver.solve(state, q, t_prev)[0] >= max(acc for _, acc in pairs)
            checked += 1
            if q == 0 or t_prev == P.horizon:
                continue
            t = rng.randint(t_prev + 1, P.horizon)
            gap = t - t_prev - 1
            plan = _Plan(t, rng.getrandbits(gap), rng.randint(0, 1))
            played = [(plan.interim >> (gap - 1 - i)) & 1 for i in range(gap)] + [plan.predict]
            for x, y in sorted({steps[pid][t - 1] for pid, _ in pairs}):
                advanced = solver.advance(state, plan, t_prev, x, y)
                assert decode_state(solver, advanced) == tuple(
                    (pid, acc + sum(a != b for a, (_, b) in zip(played, steps[pid][t_prev:t])))
                    for pid, acc in pairs
                    if steps[pid][t - 1] == (x, y)
                )
                stack.append((advanced, q - 1, t))
    assert checked > 200


@pytest.mark.parametrize("alphabet", ["a", "ab", "abc"])
def test_solver_tables_match_their_slice_definitions(alphabet):
    # _labels[pid] packs all L labels; its low L - t bits must equal the
    # labels of rounds t+1..L read as a big-endian binary number, for every t.
    rng = random.Random(53)
    for _ in range(40):
        P = random_class(rng, max_L=6, max_P=12, alphabet=alphabet)
        solver = QldSolver(P)
        steps = [p.steps for p in P.patterns]
        for t in range(P.horizon + 1):
            assert [row & ((1 << (P.horizon - t)) - 1) for row in solver._labels] == [
                int("0" + "".join(str(y) for _, y in st[t:]), 2) for st in steps
            ]


def test_oracle_equality_on_shared_futures():
    # Every round-1 observation is followed by each of a few shared tails,
    # so after round 1 many patterns agree on every remaining round and
    # differ only in their accruals: the solver keeps each one as its own
    # entry, where the worst of them must still set the value.
    rng = random.Random(67)
    for _ in range(12):
        L, k, n_tails = rng.randint(6, 8), rng.randint(3, 6), rng.randint(2, 3)
        firsts = [f"x{i}" for i in range(k)]
        heads = [(x, y) for x in firsts for y in (0, 1) if rng.random() < 0.75]
        tails = set()
        while len(tails) < n_tails:
            tails.add(tuple((rng.choice("ab"), rng.randint(0, 1)) for _ in range(L - 1)))
        pats = sorted((head,) + tail for head in heads for tail in tails)
        space = InstanceSpace(tuple(firsts) + ("a", "b"))
        P = PatternClass(space, L, tuple(DiscretePattern(p) for p in pats))
        for Q in (0, 1, 2, 3):
            w = qld(P, Q)
            assert w.value == game_value(P, Q) == worst_case_mistakes(w.to_strategy(), P, Q)


def test_oracle_equality_on_instance_order_sensitive_class():
    assert qld(ORDER_SENSITIVE, 1).value == game_value(ORDER_SENSITIVE, 1) == 2


@pytest.mark.parametrize("alphabet", ["abc", "abcd"])
def test_oracle_equality_past_the_sweep(alphabet):
    # The sweep holds one- and two-instance classes with L <= 6.  Three and
    # four instances at L = 7-9 split a round into up to eight observation
    # branches, and budgets up to 3 nest the query stages one deeper.
    rng = random.Random(61)
    space = InstanceSpace(tuple(alphabet))
    for _ in range(12):
        L, want = rng.randint(7, 9), rng.randint(4, 10)
        pats = set()
        while len(pats) < want:
            pats.add(tuple((rng.choice(alphabet), rng.randint(0, 1)) for _ in range(L)))
        P = PatternClass(space, L, tuple(DiscretePattern(p) for p in sorted(pats)))
        for Q in (0, 1, 2, 3):
            w = qld(P, Q)
            assert w.value == game_value(P, Q) == worst_case_mistakes(w.to_strategy(), P, Q)


@pytest.mark.parametrize("L", [6, 7, 14, 15])
def test_packed_fields_hold_at_the_width_edges(L):
    # A pattern's field is (L + 1).bit_length() + 1 bits wide, and the prune
    # lifts each member field by the top bit 2^(w-1).  At L = 6 and 14 that
    # is only L + 2, the least room a search field can have; L = 7 and 15
    # add one more bit.  A field one bit narrower carries into its neighbour.
    P = make_class([(0,) * L, (1,) * L])
    assert blind_learning_dimension(P).value == (L + 1) // 2
    for Q in (1, 2):
        w = qld(P, Q)
        assert w.value == game_value(P, Q) == worst_case_mistakes(w.to_strategy(), P, Q) == 1
    if L > 7:
        return
    rng = random.Random(71 + L)
    space = InstanceSpace(("a", "b", "c"))
    for _ in range(10):
        want, pats = rng.randint(3, 12), set()
        while len(pats) < want:
            pats.add(tuple((rng.choice("abc"), rng.randint(0, 1)) for _ in range(L)))
        P = PatternClass(space, L, tuple(DiscretePattern(p) for p in sorted(pats)))
        for Q in (0, 1, 2, 3):
            w = qld(P, Q)
            assert w.value == game_value(P, Q) == worst_case_mistakes(w.to_strategy(), P, Q)


# --- strategies -----------------------------------------------------------------------

def test_bp_soa_singleton_never_errs():
    P = make_class([(0, 1, 0)])
    assert worst_case_mistakes(qld(P, 2).to_strategy(), P, 2) == 0


def test_bp_soa_two_constants_queries_first_round():
    P = make_class([(0, 0, 0, 0), (1, 1, 1, 1)])
    strat = qld(P, 1).to_strategy()
    pred, wants = strat.predict(1)
    assert wants is True
    strat.observe(1, "a", 1)
    assert strat.predict(2) == (1, False)
    assert strat.predict(3) == (1, False)
    assert worst_case_mistakes(strat, P, 1) == 1


def test_bp_soa_within_qld_bound_random():
    rng = random.Random(29)
    for _ in range(30):
        P = random_class(rng, max_L=5, max_P=8)
        for Q in (0, 1, 2):
            w = qld(P, Q)
            assert worst_case_mistakes(w.to_strategy(), P, Q) <= w.value


def test_worst_case_all_zeros_counts_disagreements():
    P = make_class([(1, 1, 1)])
    zeros = blind_learning_dimension(make_class([(0, 0, 0)])).to_strategy()
    assert worst_case_mistakes(zeros, P, 0) == 3


def test_worst_case_budget_violation():
    class Greedy(BlindStrategy):
        budget = 5

        def reset(self):
            pass

        def predict(self, t):
            return 0, True

        def observe(self, t, x, y):
            pass

    P = make_class([(0, 0, 0)])
    with pytest.raises(BudgetViolationError):
        worst_case_mistakes(Greedy(), P, 1)


def test_witness_tree_shape():
    P = make_class([(0, 0, 0, 0), (1, 1, 1, 1)])
    doc = qld(P, 1).to_json()
    tree = doc["witness"]["tree"]
    assert tree["time"] == 1
    assert set(tree["children"]) == {"0", "1"}
    assert tree["children"]["0"]["blind"] == [0, 0, 0]
    assert tree["children"]["1"]["blind"] == [1, 1, 1]


def test_witness_replay_reproduces_value_exactly():
    rng = random.Random(31)
    for _ in range(25):
        P = random_class(rng, max_L=5, max_P=8)
        for Q in (0, 1, 2):
            w = qld(P, Q)
            assert worst_case_mistakes(w.to_strategy(), P, Q) == w.value


def test_witness_trees_satisfy_query_tree_invariants():
    from qstream.blind import validate_witness_tree

    rng = random.Random(37)
    for _ in range(20):
        P = random_class(rng, max_L=5, max_P=8)
        for Q in (0, 1, 2):
            doc = qld(P, Q).witness
            assert validate_witness_tree(doc["tree"], Q, P.horizon) == []
    bad = {"time": 2, "interim": [0, 0], "predict": 0,
           "children": {"0": {"blind": [], "unused_budget": 0},
                        "1": {"blind": [], "unused_budget": 0}}}
    assert validate_witness_tree(bad, 1, 4) != []  # interim length is wrong


@pytest.mark.parametrize("mutate, problems", [
    (lambda tree: None, []),
    (lambda tree: tree["children"]["0"].update(unused_budget=1),
     ["path 0: 1 query nodes + 1 unused != 1"]),
    (lambda tree: tree["children"]["0"].pop("blind"),
     ["path 0: leaf carries no suffix vector"]),
    (lambda tree: tree.update(time=5, interim=[0] * 4),
     ["path root: timestamp 5 not in (0, 4]",
      "path 0: blind suffix of 3 rounds after 1 != -1 after 5",
      "path 1: blind suffix of 3 rounds after 1 != -1 after 5"]),
    (lambda tree: tree["children"].update({"2": tree["children"].pop("1")}),
     ["path root: edges are not exactly 0 and 1"]),
    (lambda tree: tree["children"]["1"]["blind"].pop(),
     ["path 1: blind suffix of 2 rounds after 1 != 3 after 1"]),
    (lambda tree: tree["children"]["0"].update(start_after=0),
     ["path 0: blind suffix of 3 rounds after 0 != 3 after 1"]),
], ids=["untouched", "unused-budget", "no-suffix", "time", "edges", "truncated-suffix",
        "wrong-start"])
def test_validate_witness_tree_names_each_broken_invariant(mutate, problems):
    from qstream.blind import validate_witness_tree

    tree = qld(make_class([(0, 0, 0, 0), (1, 1, 1, 1)]), 1).witness["tree"]
    mutate(tree)
    assert validate_witness_tree(tree, 1, 4) == problems


def test_validate_witness_tree_reports_in_preorder():
    # at Q = 2 the tree has query nodes at paths 0 and 1: a node's problems
    # come before its subtree's, and the 0-subtree's before the 1-edge's
    from qstream.blind import validate_witness_tree

    P = make_class([(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 1, 1)])
    tree = qld(P, 2).witness["tree"]
    zero, one = tree["children"]["0"], tree["children"]["1"]
    assert "time" in zero and "time" in one
    zero["interim"] = [0]
    zero["children"]["1"].pop("blind")
    one["interim"] = [1]
    assert validate_witness_tree(tree, 2, 4) == [
        "path 0: interim length != 0",
        "path 01: leaf carries no suffix vector",
        "path 1: interim length != 0",
    ]


def test_replan_strategy_rejects_an_observation_off_its_plan():
    # a refused observation leaves no trace: the right one is still accepted
    P = make_class([(0, 0, 0, 0), (1, 1, 1, 1)])
    strat = qld(P, 1).to_strategy()
    with pytest.raises(QstreamError, match="observation at 2 does not match plan 1"):
        strat.observe(2, "a", 0)
    with pytest.raises(QstreamError, match="inconsistent with the pattern class"):
        strat.observe(1, "b", 0)
    assert strat.history == ()
    strat.observe(1, "a", 0)
    assert strat.history == ((1, "a", 0),)
    assert [strat.predict(t) for t in (2, 3, 4)] == [(0, False)] * 3


def test_blind_strategy_observe_checks_time_and_budget():
    strat = BlindStrategy()
    with pytest.raises(BudgetViolationError, match="beyond budget 0"):
        strat.observe(1, "a", 0)
    strat.budget = 2
    strat.observe(2, "a", 0)
    for t in (1, 2):
        with pytest.raises(QstreamError, match="must strictly increase"):
            strat.observe(t, "a", 0)


def test_strategy_records_observation_history():
    P = make_class([(0, 0, 0, 0), (1, 1, 1, 1)])
    strat = qld(P, 1).to_strategy()
    assert worst_case_mistakes(strat, P, 1) == 1
    assert len(strat.history) == 1 and strat.history[0][0] == 1
    strat.reset()
    assert strat.history == ()


def test_strategy_reset_restores_the_root_and_replays_the_same():
    # reset goes back to the root of the strategy tree built by the solve;
    # after a full play it must give back that root, whose plan is the
    # initial state's, and an empty history
    rng = random.Random(59)
    for _ in range(20):
        P = random_class(rng, max_L=5, max_P=8, alphabet="abc")
        for Q in (0, 1, 2):
            strat = qld(P, Q).to_strategy()
            solver = QldSolver(P)
            first = worst_case_mistakes(strat, P, Q)
            strat.reset()
            assert strat.history == ()
            assert strat.node is strat.root
            assert strat.root == solver.strategy(solver.initial_state(), Q, 0)[1]
            assert strat.node[0] == solver.solve(solver.initial_state(), Q, 0)[1]
            assert worst_case_mistakes(strat, P, Q) == first


# --- frozen witnesses -----------------------------------------------------------------

GOLDEN_PATH = Path(__file__).parent / "data" / "qld_golden.json"


def _golden_classes():
    """The frozen set: four 24-pattern two-instance classes at L = 8 solved
    with Q = 2, then 50 random two-instance classes with L <= 6 solved with
    Q in {0, 1, 2}."""
    rng = random.Random(4101)
    for _ in range(4):
        pats = set()
        while len(pats) < 24:
            pats.add(tuple((rng.choice("ab"), rng.randint(0, 1)) for _ in range(8)))
        yield PatternClass(AB, 8, tuple(DiscretePattern(p) for p in sorted(pats))), (2,)
    for _ in range(50):
        yield random_class(rng, max_L=6, max_P=12), (0, 1, 2)


def _golden_records(classes):
    return [
        {"class": pattern_class_to_json(P), "budget": Q, **qld(P, Q).to_json()}
        for P, budgets in classes
        for Q in budgets
    ]


def _assert_matches_frozen(frozen):
    for rec in frozen:
        P = pattern_class_from_json(rec["class"])
        got = qld(P, rec["budget"]).to_json()
        assert got == {"value": rec["value"], "witness": rec["witness"]}, rec["class"]


def test_qld_witnesses_match_frozen_goldens():
    # Any change to a value, to the tie-break or to one witness node fails here.
    frozen = json.loads(GOLDEN_PATH.read_text())
    assert len(frozen) == 4 + 50 * 3
    _assert_matches_frozen(frozen)


def test_frozen_golden_classes_are_the_seeded_set():
    frozen = json.loads(GOLDEN_PATH.read_text())
    classes = [
        (pattern_class_to_json(P), Q) for P, budgets in _golden_classes() for Q in budgets
    ]
    assert [(rec["class"], rec["budget"]) for rec in frozen] == classes


FRONTIER_GOLDEN_PATH = Path(__file__).parent / "data" / "qld_golden_frontier.json"


def _frontier_golden_classes():
    """The frozen frontier set: three 24-pattern two-instance classes each at
    L = 11 and L = 12 solved with Q = 2, where the interim search prunes
    most, then 30 random three-instance classes with L <= 6 solved with
    Q in {0, 1, 2, 3}, where a round can have up to six observation branches."""
    rng = random.Random(4102)
    for L in (11, 11, 11, 12, 12, 12):
        pats = set()
        while len(pats) < 24:
            pats.add(tuple((rng.choice("ab"), rng.randint(0, 1)) for _ in range(L)))
        yield PatternClass(AB, L, tuple(DiscretePattern(p) for p in sorted(pats))), (2,)
    for _ in range(30):
        yield random_class(rng, max_L=6, max_P=12, alphabet="abc"), (0, 1, 2, 3)


def test_qld_witnesses_match_frozen_frontier_goldens():
    frozen = json.loads(FRONTIER_GOLDEN_PATH.read_text())
    classes = [
        (pattern_class_to_json(P), Q)
        for P, budgets in _frontier_golden_classes()
        for Q in budgets
    ]
    assert [(rec["class"], rec["budget"]) for rec in frozen] == classes
    _assert_matches_frozen(frozen)


# SHA-256 of {"bld": ..., "qld": ...} (qld at Q = 2) on the frontier probe's seed-1
# classes, frozen from the candidate-at-a-time scan the bit-sliced kernel replaced
WIDE_WITNESS_SHA256 = {
    16: "d014145518ba34aab52ce51b9b1ac7d36991c7890438b7bf3fb0594768fb80ee",
    18: "3fc05287cc360ade74cab3b521d1b6032f38fac9209758af97f3fa5fdd346dc6",
}


@pytest.mark.parametrize("L", sorted(WIDE_WITNESS_SHA256))
def test_wide_witnesses_match_frozen_digests(L):
    # The 24-pattern two-instance class the frontier probe builds at L; its
    # one-center calls run widths up to L, many blocks of 256 candidates,
    # which the L = 11-12 goldens barely reach.
    rng = random.Random(f"frontier-L:1:{L}")
    pats = set()
    while len(pats) < 24:
        pats.add(tuple((rng.choice("ab"), rng.randint(0, 1)) for _ in range(L)))
    P = PatternClass(AB, L, tuple(DiscretePattern(p) for p in sorted(pats)))
    doc = {"bld": blind_learning_dimension(P).to_json(), "qld": qld(P, 2).to_json()}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == WIDE_WITNESS_SHA256[L]


if __name__ == "__main__":
    # Regenerate the frozen witnesses: python tests/test_blind.py
    # or, for the frontier set, python tests/test_blind.py frontier
    import sys

    if sys.argv[1:] == ["frontier"]:
        path, classes = FRONTIER_GOLDEN_PATH, _frontier_golden_classes()
    else:
        path, classes = GOLDEN_PATH, _golden_classes()
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(_golden_records(classes), sort_keys=True) + "\n")
