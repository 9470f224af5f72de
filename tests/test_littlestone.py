from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstream.littlestone import (
    LittlestoneSolver,
    build_littlestone_tree,
    littlestone_dimension,
    soa_predict,
)
from qstream.model import (
    ConceptClass,
    InstanceSpace,
    QstreamError,
    UnknownInstanceError,
)

AB = InstanceSpace(("a", "b"))
FULL_AB = ConceptClass(AB, tuple(product((0, 1), repeat=2)))


def cls(space, *concepts):
    return ConceptClass(space, tuple(concepts))


def ld_oracle(H: ConceptClass) -> int:
    """Depth-probe oracle: largest d for which a shattered tree exists,
    checked by direct unmemoized search."""
    concepts = H.concepts
    n = len(H.space.instances)

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


def restrict(H, ids, x, y):
    """The mask ``ids`` of ``LittlestoneSolver.of(H)`` restricted to (x, y)."""
    return LittlestoneSolver.of(H).restrict_ids(ids, H.space.index_of(x), y)


def concepts_of(H, ids):
    return tuple(c for i, c in enumerate(H.concepts) if ids >> i & 1)


def all_classes(n_instances, max_concepts=None):
    space = InstanceSpace(tuple("abc"[:n_instances]))
    vectors = list(product((0, 1), repeat=n_instances))
    for k in range(1, (max_concepts or len(vectors)) + 1):
        for combo in combinations(vectors, k):
            yield ConceptClass(space, combo)


# --- one solver per class ------------------------------------------------------

def test_solver_of_is_shared_per_class():
    H = cls(AB, (0, 0), (0, 1), (1, 1))
    solver = LittlestoneSolver.of(H)
    assert LittlestoneSolver.of(H) is solver
    assert LittlestoneSolver.of(cls(AB, (0, 0), (0, 1), (1, 1))) is not solver
    assert solver.dimension() == LittlestoneSolver(H).dimension() == littlestone_dimension(H)


def test_solver_of_needs_no_hashable_class():
    # concept names are not part of any cache key
    H = ConceptClass(AB, ((0, 1), (1, 0)), ([], {}))
    assert littlestone_dimension(H) == 1
    assert soa_predict(H, "a") == 0


# --- restrict ----------------------------------------------------------------

def test_restrict_filters():
    out = restrict(FULL_AB, 0b1111, "a", 0)
    assert set(concepts_of(FULL_AB, out)) == {(0, 0), (0, 1)}


def test_restrict_can_empty():
    H = cls(AB, (0, 0), (0, 1))
    assert restrict(H, 0b11, "a", 1) == 0


def test_soa_labels_of_the_empty_mask_raises():
    with pytest.raises(QstreamError) as exc:
        LittlestoneSolver.of(FULL_AB).soa_labels(0)
    assert str(exc.value) == "SOA prediction from an empty version space"


def test_tree_depth_must_be_positive():
    with pytest.raises(ValueError) as exc:
        build_littlestone_tree(FULL_AB, 0)
    assert str(exc.value) == "tree depth must be positive, got 0"


def test_restrict_direct():
    H = cls(AB, (0, 0), (1, 1))
    assert concepts_of(H, restrict(H, 0b11, "b", 1)) == ((1, 1),)


def test_restrict_unknown_instance():
    with pytest.raises(UnknownInstanceError):
        soa_predict(FULL_AB, "zz")


# --- littlestone dimension ---------------------------------------------------

def test_ld_singleton_zero():
    assert littlestone_dimension(cls(InstanceSpace(("a",)), (0,))) == 0


def test_ld_full_two_instances():
    assert littlestone_dimension(FULL_AB) == 2
    assert ld_oracle(FULL_AB) == 2


def test_ld_two_disjoint_concepts():
    H = cls(AB, (0, 0), (1, 1))
    assert littlestone_dimension(H) == 1


def test_ld_empty_class_errors():
    with pytest.raises(QstreamError):
        littlestone_dimension(ConceptClass(AB, ()))


def test_ld_matches_oracle_exhaustively_two_instances():
    for H in all_classes(2):
        assert littlestone_dimension(H) == ld_oracle(H)


def test_ld_matches_oracle_three_instances_sample():
    classes = list(all_classes(3, max_concepts=3))
    for H in classes:
        assert littlestone_dimension(H) == ld_oracle(H)


def test_ld_monotone_under_subclass_two_instances():
    for H in all_classes(2):
        ld = littlestone_dimension(H)
        for k in range(1, len(H.concepts)):
            for combo in combinations(H.concepts, k):
                assert littlestone_dimension(ConceptClass(AB, combo)) <= ld


def dimension_unpruned(label_masks, ids, memo):
    """The dimension recursion without the log2 |S| cuts: every instance
    that splits ``ids`` is tried at every mask."""
    if ids not in memo:
        best = 0
        if ids & (ids - 1):
            for zeros_mask, ones_mask in label_masks:
                zeros, ones = ids & zeros_mask, ids & ones_mask
                if zeros and ones:
                    score = 1 + min(dimension_unpruned(label_masks, zeros, memo),
                                    dimension_unpruned(label_masks, ones, memo))
                    best = max(best, score)
        memo[ids] = best
    return memo[ids]


@st.composite
def classes_and_masks(draw):
    """A class of up to 24 distinct concepts over 1-6 instances, and up to
    30 nonempty subset masks of it."""
    n = draw(st.integers(1, 6))
    vectors = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                            max_size=min(1 << n, 24), unique=True))
    concepts = tuple(tuple((v >> i) & 1 for i in range(n)) for v in vectors)
    H = ConceptClass(InstanceSpace(tuple(f"x{i}" for i in range(n))), concepts)
    masks = draw(st.lists(st.integers(1, (1 << len(concepts)) - 1), min_size=1, max_size=30))
    return H, masks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(classes_and_masks())
def test_dimension_cuts_match_the_unpruned_recursion(case):
    # The cuts skip work, never a better tree: every mask asked for, and
    # every sub-mask the pruned search memoized on the way, reads the
    # unpruned value.
    H, masks = case
    solver = LittlestoneSolver(H)
    memo = {}
    for ids in masks:
        assert solver.dimension(ids) == dimension_unpruned(solver.label_masks, ids, memo)
    for ids, value in solver._memo.items():
        assert value == dimension_unpruned(solver.label_masks, ids, memo)


# --- shattered trees ---------------------------------------------------------

def tree_paths(tree):
    """Every root-to-leaf (instance, edge-label) sequence of a shattered tree."""
    out = []
    for y, child in ((0, tree.left), (1, tree.right)):
        tails = [()] if child is None else tree_paths(child)
        out.extend(((tree.x, y),) + tail for tail in tails)
    return out


def test_tree_full_class_depth_two_all_branches_realizable():
    tree = build_littlestone_tree(FULL_AB, 2)
    assert tree is not None
    paths = tree_paths(tree)
    assert len(paths) == 4 and {len(path) for path in paths} == {2}
    for path in paths:
        ids = LittlestoneSolver.of(FULL_AB).full()
        for x, y in path:
            ids = restrict(FULL_AB, ids, x, y)
            assert ids


def test_tree_singleton_infeasible():
    assert build_littlestone_tree(cls(AB, (0, 1)), 1) is None


def test_tree_feasible_iff_dimension_reaches_depth():
    for n_inst in (2, 3):
        for H in all_classes(n_inst):
            ld = littlestone_dimension(H)
            for d in range(1, n_inst + 2):
                tree = build_littlestone_tree(H, d)
                assert (tree is not None) == (ld >= d)
                if tree is not None:
                    assert {len(path) for path in tree_paths(tree)} == {d}


def test_tree_is_built_once_per_depth_and_shared():
    for n_inst in (2, 3):
        for H in all_classes(n_inst):
            depths = range(1, littlestone_dimension(H) + 2)
            trees = {d: build_littlestone_tree(H, d) for d in depths}
            memo = LittlestoneSolver.of(H)._trees
            assert memo == trees and memo[depths[-1]] is None  # None memoized too
            for d in reversed(depths):
                assert build_littlestone_tree(H, d) is trees[d]
                fresh = ConceptClass(H.space, H.concepts)  # equal, own solver
                assert build_littlestone_tree(fresh, d) == trees[d]


# --- SOA ----------------------------------------------------------------------

def test_soa_predict_singleton_follows_concept():
    H = cls(AB, (0, 1))
    assert soa_predict(H, "a") == 0
    assert soa_predict(H, "b", 0b1) == 1


def test_soa_predict_tie_breaks_to_zero():
    assert soa_predict(FULL_AB, "a") == 0


def test_soa_predict_larger_dimension_wins():
    H = cls(AB, (0, 0), (0, 1), (1, 0))
    # restrict at a: label 0 leaves {(0,0),(0,1)} with dimension 1, label 1
    # leaves {(1,0)} with dimension 0
    assert soa_predict(H, "a") == 0


def _realizable_sequences(H, length):
    """DFS over all sequences of exactly `length` realizable in H."""
    space = H.space.instances

    def extend(prefix, V):
        if len(prefix) == length:
            yield prefix
            return
        for x in space:
            for y in (0, 1):
                nxt = [i for i in V if H.concepts[i][H.space.index_of(x)] == y]
                if nxt:
                    yield from extend(prefix + [(x, y)], nxt)

    yield from extend([], list(range(len(H.concepts))))


def test_soa_halving_property_and_bound_exhaustive_small():
    # every realizable sequence of length <= 4 over every 2-instance class
    for H in all_classes(2):
        ld = littlestone_dimension(H)
        for length in range(1, 5):
            for seq in _realizable_sequences(H, length):
                solver = LittlestoneSolver.of(H)
                ids = solver.full()
                mistakes = 0
                for x, y in seq:
                    pred = soa_predict(H, x, ids)
                    nxt = restrict(H, ids, x, y)
                    if pred != y:
                        mistakes += 1
                        if nxt:
                            assert solver.dimension(nxt) <= solver.dimension(ids) - 1
                    ids = nxt
                assert mistakes <= ld


def soa_oracle(H, x):
    """The SOA rule from scratch: the label whose explicit restriction of H
    has the larger ``ld_oracle`` dimension, -1 for an empty one, ties to 0."""
    xi = H.space.index_of(x)
    scores = []
    for y in (0, 1):
        kept = tuple(c for c in H.concepts if c[xi] == y)
        scores.append(ld_oracle(ConceptClass(H.space, kept)) if kept else -1)
    return 0 if scores[0] >= scores[1] else 1


def test_soa_predict_matches_naive_rule_on_every_mask():
    # every nonempty mask of every 2-instance class and of the full
    # 3-instance class, against the explicit restricted class
    classes = list(all_classes(2)) + [ConceptClass(
        InstanceSpace(("a", "b", "c")), tuple(product((0, 1), repeat=3)))]
    checked = 0
    for H in classes:
        for ids in range(1, 1 << len(H.concepts)):
            V = ConceptClass(H.space, concepts_of(H, ids))
            for x in H.space.instances:
                assert soa_predict(H, x, ids) == soa_oracle(V, x)
                checked += 1
    # (class, nonempty mask) pairs over the 4 vectors on 2 instances: 3^4 - 2^4
    assert checked == 2 * (3**4 - 2**4) + 3 * 255
