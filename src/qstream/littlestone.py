"""Littlestone dimension, shattered trees, and the standard optimal predictor.

A subset of a fixed root class, such as the version space of a run, is an
int bitmask over its concept indices, and restriction to an (instance,
label) pair is one ``&`` with a precomputed mask.  The dimension recursion
and the SOA predictions are memoized on those masks in one solver per class
(``LittlestoneSolver.of``), so exhaustive property sweeps and repeated
sampler runs stay cheap.  Classes here are small by design; clarity beats
asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ConceptClass, Label, QstreamError


@dataclass(frozen=True)
class ShatteredTree:
    """Perfect binary mistake tree; a leaf is represented by None children.

    Each node names the instance queried at that level; the 0-edge goes left,
    the 1-edge right.  Every root-to-leaf path must be realizable in the
    class the tree was built from.
    """

    x: str
    left: "ShatteredTree | None"
    right: "ShatteredTree | None"


class LittlestoneSolver:
    """Dimension and SOA queries over subsets of one root class.

    A subset is an int bitmask over concept indices: bit i set means
    ``root.concepts[i]`` survives.  Restricting to a label is one ``&`` with
    a mask precomputed per (instance, label), and the dimension memo and the
    SOA label tables are keyed by the subset mask, so every run that shares
    the solver shares them, as it shares the shattered tree of each depth
    and the last branch-stream layout.
    """

    def __init__(self, root: ConceptClass):
        self.root = root
        # label_masks[xi][y]: the concepts labelling instance xi with y
        self.label_masks: tuple[tuple[int, int], ...] = tuple(
            tuple(
                sum(1 << i for i, c in enumerate(root.concepts) if c[xi] == y)
                for y in (0, 1)
            )
            for xi in range(len(root.space.instances))
        )
        self._memo: dict[int, int] = {}
        self._soa: dict[int, tuple[Label, ...]] = {}
        self._trees: dict[int, ShatteredTree | None] = {}  # by depth
        # gen_littlestone_branch_stream's layout for the last (depth, n,
        # horizon) key it met; a call with another key replaces it
        self._branch: tuple | None = None

    @classmethod
    def of(cls, H: ConceptClass) -> "LittlestoneSolver":
        """The one solver of ``H``, kept in ``H.__dict__`` as a cached
        property would be, so it lives exactly as long as ``H``."""
        solver = H.__dict__.get("_littlestone_solver")
        if solver is None:
            solver = H.__dict__["_littlestone_solver"] = cls(H)
        return solver

    def full(self) -> int:
        """The mask of the whole root class."""
        return (1 << len(self.root.concepts)) - 1

    def restrict_ids(self, ids: int, xi: int, y: Label) -> int:
        """The concepts of ``ids`` labelling instance ``xi`` with ``y``."""
        return ids & self.label_masks[xi][y] if y in (0, 1) else 0

    def dimension(self, ids: int | None = None) -> int:
        """LD of the subset whose int mask is ``ids`` (default: the whole
        root class); QstreamError for the empty mask 0.  Both cuts are exact,
        as the 2^d leaves of a depth-d shattered tree need distinct concepts,
        so LD(S) <= floor(log2 |S|) (Littlestone 1988): the search stops once
        ``best`` reaches that bound, and skips an instance where even
        1 + floor(log2 min(|zeros|, |ones|)) cannot beat ``best``."""
        ids = self.full() if ids is None else ids
        if not ids:
            raise QstreamError("Littlestone dimension of an empty class")
        cached = self._memo.get(ids)
        if cached is not None:
            return cached
        best, cap = 0, ids.bit_count().bit_length() - 1
        for zeros_mask, ones_mask in self.label_masks:
            if best == cap:
                break
            zeros, ones = ids & zeros_mask, ids & ones_mask
            if min(zeros.bit_count(), ones.bit_count()).bit_length() > best:
                best = max(best, 1 + min(self.dimension(zeros), self.dimension(ones)))
        self._memo[ids] = best
        return best

    def soa_labels(self, ids: int) -> tuple[Label, ...]:
        """SOA prediction for every instance (space order) from the subset
        whose int mask is ``ids``; QstreamError for the empty mask 0.

        Computed once per mask.  The label whose restriction has the larger
        dimension wins; an empty restriction scores -1, so a consistent
        label always beats an inconsistent one, and ties go to 0.
        """
        table = self._soa.get(ids)
        if table is None:
            if not ids:
                raise QstreamError("SOA prediction from an empty version space")
            labels = []
            for zeros_mask, ones_mask in self.label_masks:
                zeros = ids & zeros_mask
                ones = ids & ones_mask
                s0 = self.dimension(zeros) if zeros else -1
                s1 = self.dimension(ones) if ones else -1
                labels.append(0 if s0 >= s1 else 1)
            table = self._soa[ids] = tuple(labels)
        return table


def littlestone_dimension(H: ConceptClass) -> int:
    """LD(H): depth of the deepest shattered mistake tree of H."""
    return LittlestoneSolver.of(H).dimension()


def build_littlestone_tree(H: ConceptClass, d: int) -> ShatteredTree | None:
    """Build a depth-d shattered tree for H, or None if LD(H) < d.

    Node instances are chosen smallest-first in space order, so equal inputs
    build equal trees.  Each depth is built once per class and shared.
    """
    if d <= 0:
        raise ValueError(f"tree depth must be positive, got {d}")
    solver = LittlestoneSolver.of(H)
    trees = solver._trees
    if d not in trees:  # a cached None (LD(H) < d) is a hit too
        trees[d] = _grow(solver, solver.full(), d)
    return trees[d]


def _grow(solver: LittlestoneSolver, ids: int, depth: int) -> ShatteredTree | None:
    """``build_littlestone_tree``'s recursion: a depth-``depth`` shattered
    tree of the subset ``ids``, or None."""
    for xi, (zeros_mask, ones_mask) in enumerate(solver.label_masks):
        zeros, ones = ids & zeros_mask, ids & ones_mask
        if not (zeros and ones):
            continue
        x = solver.root.space.instances[xi]
        if depth == 1:
            return ShatteredTree(x, None, None)
        if min(solver.dimension(zeros), solver.dimension(ones)) >= depth - 1:
            left = _grow(solver, zeros, depth - 1)
            right = _grow(solver, ones, depth - 1)
            assert left is not None and right is not None
            return ShatteredTree(x, left, right)
    return None


def soa_predict(H: ConceptClass, x: str, ids: int | None = None) -> Label:
    """SOA prediction at ``x`` from the version space ``ids``, an int mask of
    ``LittlestoneSolver.of(H)`` (default: all of H): a lookup in the solver's
    SOA table for ``ids`` (``soa_labels``).  An empty mask raises QstreamError.
    """
    solver = LittlestoneSolver.of(H)
    return solver.soa_labels(solver.full() if ids is None else ids)[H.space.index_of(x)]
