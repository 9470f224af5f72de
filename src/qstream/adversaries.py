"""Adversarial stream constructions and the exact blind-error formula.

Three generators: the shattered-branch painting over [0, 4n), the two-point
random painting that defeats blind prediction, and self-revealing streams
whose segment-initial instance encodes the segment's full schedule plus the
next reveal time.  ``exact_blind_error`` evaluates the two-point expected
error analytically, with no sampling.  Branch streams come from a cached
layout per class and (depth, n, horizon): bounds and segments built once
per tree node, one stream per drawn path.  Self-revealing streams over one
(depth-2 tree, den, reveal grid) share one cached layout, kept once two
calls in a row use it: its bounds and at most four (token, branch) segment
pairs per reveal.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction

import numpy as np

from .littlestone import LittlestoneSolver, ShatteredTree, build_littlestone_tree
from .model import (
    BudgetViolationError,
    ConceptClass,
    Label,
    MalformedTokenError,
    PiecewiseStream,
    QstreamError,
    QueryBudgetPolicy,
    RationalLike,
    Segment,
    _coprime_fraction,
    as_fraction,
    as_int,
)

_TOKEN_PREFIX = "SEG("
_TOKEN_JOINT = ")|next="
_TOKEN_JSON = json.JSONEncoder(separators=(",", ":"))
Time = tuple[int, int]  # a token time p / q as (p, q), reduced, q > 0
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")  # Fraction builds 10^|exponent|
# gen_self_revealing_stream's slot: the last call's (depth-2 tree, den, bounds
# over den) key and, once a second call in a row meets that key, its layout:
# the stream grid, each cut's Fraction and text, the tree's row texts and
# pair 4 i + 2 bit + bit2, reveal i's segments once drawn.  A single call
# leaves only its key, so its segments die with its stream.
_layout_last: tuple = (None,)


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_time(value) -> Time:
    """A time string as the reduced pair (p, q) of ``Fraction(value)``, or what
    that raises.  The encoder writes only p/q strings, so any other type is a
    TypeError, and an exponent over 4300 (the int-to-str limit) a ValueError."""
    if not isinstance(value, str):
        raise TypeError(f"time must be a string, got {value!r}")
    exponent = _EXPONENT.search(value)
    if exponent and (len(exponent[1]) > 4300 or int(exponent[1]) > 4300):
        raise ValueError(f"time exponent over 4300 in magnitude: {value!r}")
    return Fraction(value).as_integer_ratio()


def _xy(x, y) -> str:  # a step's instance and label as JSON text, "x",y
    return _TOKEN_JSON.encode([x, y])[1:-1]


def _token(rows, next_text: str) -> str:
    """The token of rows (xy, start, end): ``_xy`` text and two time strings."""
    body = ",".join([f'[{xy},"{a}","{b}"]' for xy, a, b in rows])
    return f"{_TOKEN_PREFIX}[{body}]{_TOKEN_JOINT}{next_text}"


def encode_reveal_token(
    schedule: list[tuple[str, Label, Fraction, Fraction]], next_reveal: Fraction
) -> str:
    """Pack a segment's full (x, y, start, end) schedule into one instance id."""
    rows = [
        (_xy(x, y), _frac_str(as_fraction(start)), _frac_str(as_fraction(end)))
        for x, y, start, end in schedule
    ]
    return _token(rows, _frac_str(as_fraction(next_reveal)))


def read_reveal_token(token: str) -> tuple[tuple[tuple[str, Label, Time, Time], ...], Time]:
    """``decode_reveal_token`` with each time a ``_parse_time`` pair, as
    tuples; a token read before comes from the cache, errors never do."""
    if not isinstance(token, str):
        raise TypeError(f"token must be a string, got {token!r}")
    return _read_token(token)


@functools.lru_cache(maxsize=4096)  # a stream's tokens recur across trials
def _read_token(token: str) -> tuple[tuple[tuple[str, Label, Time, Time], ...], Time]:
    if not token.startswith(_TOKEN_PREFIX) or _TOKEN_JOINT not in token:
        raise MalformedTokenError("not a self-revealing stream")
    body, _, tail = token[len(_TOKEN_PREFIX):].rpartition(_TOKEN_JOINT)
    try:
        payload = json.loads(body)
        schedule = tuple([
            (x, as_int(y), _parse_time(start), _parse_time(end))
            for x, y, start, end in payload
        ])
        next_reveal = _parse_time(tail)
    except (ValueError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise MalformedTokenError(f"not a self-revealing stream: {exc}") from exc
    for x, y, _, _ in schedule:
        if not isinstance(x, str) or y not in (0, 1):
            raise MalformedTokenError(f"not a self-revealing stream: bad step ({x!r}, {y})")
    return schedule, next_reveal


def decode_reveal_token(token: str) -> tuple[list[tuple[str, Label, Fraction, Fraction]], Fraction]:
    """Inverse of ``encode_reveal_token``; raises MalformedTokenError."""
    schedule, next_reveal = read_reveal_token(token)  # reduced pairs, as from _parse_time
    return ([(x, y, _coprime_fraction(*a), _coprime_fraction(*b)) for x, y, a, b in schedule],
            _coprime_fraction(*next_reveal))


def is_reveal_token(x: str) -> bool:
    return isinstance(x, str) and x.startswith(_TOKEN_PREFIX) and _TOKEN_JOINT in x


def gen_littlestone_branch_stream(
    H: ConceptClass,
    n: int,
    budget: QueryBudgetPolicy,
    seed,
    horizon: RationalLike | None = None,
) -> PiecewiseStream:
    """Paint [0, 4n) with a random root-to-leaf branch of a shattered tree.

    With k = budget(4n), the branch has 2k steps and each step occupies an
    interval of width 2n/k.  Beyond 4n (when a larger horizon is requested)
    the stream holds a fixed pair consistent with every surviving concept,
    so the whole stream stays realizable.

    The branch takes one scalar draw per step and reads as a heap index
    (node i's b-child is 2 i + b).  Streams come from one cached layout,
    held by ``LittlestoneSolver.of(H)`` for the last (2k, n, horizon) key:
    the bounds from one ``_grid_times``, one segment per (tree node, bit)
    shared by every path through the node, and one stream per drawn leaf,
    tail included.  Streams are frozen, so a path drawn again returns the
    same stream.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k = budget.budget(4 * n)
    if k < 1:
        raise QstreamError(f"budget({4 * n}) = {k} < 1; nothing to paint against")
    tree = build_littlestone_tree(H, 2 * k)
    if tree is None:
        raise QstreamError(
            f"class too shallow: needs Littlestone dimension >= {2 * k}"
        )
    rng = np.random.default_rng(seed)
    leaf = 1  # the drawn path as a heap index: node i's b-child is 2 i + b
    for _ in range(2 * k):
        leaf = 2 * leaf + int(rng.integers(0, 2))

    p, q = (4 * n, 1) if horizon is None else as_fraction(horizon).as_integer_ratio()
    if p < 4 * n * q:
        raise ValueError(f"horizon {Fraction(p, q)} shorter than the painted prefix {4 * n}")
    solver = LittlestoneSolver.of(H)
    key = (2 * k, n, p, q)
    layout = solver._branch
    if layout is None or layout[0] != key:
        # the horizon is p / q; over den = k q, each step's width 2n / k is 2n q
        cuts = list(range(0, 2 * n * q * 2 * k + 1, 2 * n * q))
        if p > 4 * n * q:
            cuts.append(p * k)
        # the segment of the edge into node c and the stream of leaf c, by
        # heap index c: 2^(2k + 1) slots each, twice the 2^2k concepts a
        # class needs at the least to shatter the tree
        edges, streams = [None] * (2 << 2 * k), [None] * (2 << 2 * k)
        layout = solver._branch = (key, *PiecewiseStream._grid_times(k * q, cuts), edges, streams)
    _, grid, times, edges, streams = layout
    stream = streams[leaf]
    if stream is None:
        stream = streams[leaf] = _branch_stream(H, tree, leaf, grid, times, edges)
    return stream


def _branch_stream(H: ConceptClass, tree: ShatteredTree, leaf: int, grid, times, edges
                   ) -> PiecewiseStream:
    """The branch stream of heap index ``leaf`` in ``tree``, its bounds
    ``times`` over ``grid``.  The segment of the edge into node c comes
    from ``edges[c]``, built there on first use; a tail past the branch is
    the leaf's own."""
    depth = leaf.bit_length() - 1
    segments, node = [], tree
    for j in range(depth):
        child = leaf >> (depth - 1 - j)
        seg = edges[child]
        if seg is None:
            seg = edges[child] = _segment(times[j], times[j + 1], node.x, child & 1)
        segments.append(seg)
        node = node.right if child & 1 else node.left
    if len(times) > depth + 1:  # a horizon past 4n
        x, y = _consistent_tail(H, [(seg.x, seg.y) for seg in segments])
        segments.append(_segment(times[depth], times[depth + 1], x, y))
    return PiecewiseStream._from_parts(times[-1], segments, grid)


def _segment(start: Fraction, end: Fraction, x: str, y: Label) -> Segment:
    """A Segment past ``as_fraction``, its fields set one by one as the
    dataclass's own ``__init__`` does, which keeps them in the object
    (about 110 bytes on CPython 3.11, against 250 through ``vars()``)."""
    seg = object.__new__(Segment)
    for name, value in (("start", start), ("end", end), ("x", x), ("y", y)):
        object.__setattr__(seg, name, value)
    return seg


def _consistent_tail(H: ConceptClass, path: list[tuple[str, Label]]) -> tuple[str, Label]:
    """A pair every branch-consistent concept can extend: the smallest
    instance on which the survivors are unanimous.  One exists, as the
    branch's last step leaves them unanimous on its instance."""
    solver = LittlestoneSolver.of(H)
    ids = solver.full()
    for x, y in path:
        ids = solver.restrict_ids(ids, H.space.index_of(x), y)
    assert ids  # every tree branch is realizable
    for x in sorted(H.space.instances):
        zeros, ones = solver.label_masks[H.space.index_of(x)]
        if not ids & zeros or not ids & ones:
            return x, 0 if ids & zeros else 1


def _unit_pieces(budget: QueryBudgetPolicy, n: int) -> int:
    """The two-point law's cut: unit [n-1, n) splits into 2 budget(n) equal
    sub-intervals, or one when budget(n) = 0."""
    return max(2 * budget.budget(n), 1)


def gen_two_point_stream(
    x1: str,
    x2: str,
    units: int,
    budget: QueryBudgetPolicy,
    seed,
) -> PiecewiseStream:
    """Random (x1, 0) / (x2, 1) painting of each unit interval: unit n is cut
    into ``_unit_pieces(budget, n)`` sub-intervals, each assigned
    independently and uniformly."""
    if x1 == x2:
        raise ValueError("the two instances must be distinct")
    if units < 1:
        raise ValueError(f"units must be a positive integer, got {units}")
    rng = np.random.default_rng(seed)
    pieces = [_unit_pieces(budget, n) for n in range(1, units + 1)]
    den = math.lcm(*pieces)
    cuts = [0]  # unit n's cuts n - 1 + j / m, j = 1..m, over den
    for n, m in enumerate(pieces, 1):
        cuts += range(cuts[-1] + den // m, n * den + 1, den // m)
    pairs = ((x1, 0), (x2, 1))
    bits = rng.integers(0, 2, size=len(cuts) - 1).tolist()  # as one scalar draw per piece
    return PiecewiseStream._on_grid(den, cuts, [pairs[b] for b in bits])


def exact_blind_error(
    units: int,
    budget: QueryBudgetPolicy,
    query_times: set[RationalLike] | list[RationalLike],
) -> Fraction:
    """Expected mistake integral of any blind predictor vs the two-point law.

    Exact, no sampling: a sub-interval whose interior contains no query
    contributes half its width, because its label is a fair coin independent
    of every blind prediction.  Query placement must respect the per-unit
    cap |queries in [n-1, n)| <= budget(n).
    """
    if units < 1:
        raise ValueError(f"units must be a positive integer, got {units}")
    # unit [u, u + 1) holds the times t with floor(t) = u
    by_unit: dict[int, list[Fraction]] = {}
    for t in map(as_fraction, query_times):
        u = t.numerator // t.denominator
        if 0 <= u < units:
            by_unit.setdefault(u, []).append(t)
    total = Fraction(0)
    for u in range(units):
        in_unit = by_unit.get(u, ())
        k = budget.budget(u + 1)
        if len(in_unit) > k:
            raise BudgetViolationError(
                f"{len(in_unit)} queries in [{u}, {u + 1}) exceed budget({u + 1}) = {k}"
            )
        pieces = _unit_pieces(budget, u + 1)
        # sub-interval j is [u + j/pieces, u + (j+1)/pieces)
        hit = {(t.numerator - u * t.denominator) * pieces // t.denominator for t in in_unit}
        total += Fraction(pieces - len(hit), 2 * pieces)
    return total


def gen_self_revealing_stream(
    source: ConceptClass,
    reveal_times: list[RationalLike],
    horizon: RationalLike,
    seed,
) -> PiecewiseStream:
    """Stream whose segment-initial instances announce the segment's future.

    Each segment [q_i, q_{i+1}) carries an inner stream realizable in
    ``source`` (a fresh random depth-2 shattered branch when the class
    supports one, a random single concept otherwise); its first piece's
    instance is replaced by a token encoding the full inner schedule and the
    next reveal time.
    """
    global _layout_last
    total = as_fraction(horizon)
    if total <= 0:
        raise ValueError(f"horizon must be positive, got {total}")
    reveals = [as_fraction(t) for t in reveal_times]
    if not reveals or reveals[0] != 0:
        raise ValueError("reveal times must start at 0")
    bounds = reveals + [total]
    den = 2 * math.lcm(*(v.denominator for v in bounds))  # even: midpoints stay on it
    grid = [v.numerator * (den // v.denominator) for v in bounds]  # bounds over den
    if any(b <= a for a, b in zip(grid, grid[1:-1])):
        raise ValueError("reveal times must be strictly increasing")
    if grid[-2] >= grid[-1]:
        raise ValueError("reveal times must lie inside [0, horizon)")
    if not source.concepts:
        raise QstreamError("source class is empty")

    rng = np.random.default_rng(seed)
    tree = build_littlestone_tree(source, 2)
    if tree is None:
        text = [_frac_str(v) for v in bounds]  # each bound's time string, once
        pairs = []
        for i in range(len(reveals)):
            h = int(rng.integers(0, len(source.concepts)))
            xi = int(rng.integers(0, len(source.space.instances)))
            x, y = source.space.instances[xi], source.concepts[h][xi]
            pairs.append((_token([(_xy(x, y), text[i], text[i + 1])], text[i + 1]), y))
        return PiecewiseStream._on_grid(den, grid, pairs)
    key = (tree, den, tuple(grid))
    met = _layout_last[0] == key  # the key the previous call left
    layout = _layout_last
    if not met or len(layout) == 1:  # cut at each reveal's bound and its midpoint
        cuts = [c for lo, hi in zip(grid, grid[1:]) for c in (lo, (lo + hi) >> 1)] + grid[-1:]
        stream_grid, times = PiecewiseStream._grid_times(den, cuts)
        names = [_TOKEN_JSON.encode(node.x) for node in (tree, tree.left, tree.right)]
        rows = [[f"{name},{bit}" for bit in (0, 1)] for name in names]  # (instance, bit) texts
        layout = (key, stream_grid, times, [_frac_str(t) for t in times], rows,
                  [None] * (4 * len(reveals)))
        _layout_last = layout if met else (key,)
    _, stream_grid, times, text, rows, pairs = layout
    # every segment's two branch bits in one draw, the same bits in the same
    # order as one scalar draw per bit; pair 4 i + 2 bit + bit2 is reveal i's
    bits = iter(rng.integers(0, 2, size=2 * len(reveals)).tolist())
    segments = []
    for i, (bit, bit2) in enumerate(zip(bits, bits)):
        k = 4 * i + 2 * bit + bit2
        pair = pairs[k]
        if pair is None:
            node, lo, mid, hi = tree.right if bit else tree.left, 2 * i, 2 * i + 1, 2 * i + 2
            token = _token(((rows[0][bit], text[lo], text[mid]),
                            (rows[1 + bit][bit2], text[mid], text[hi])), text[hi])
            pair = pairs[k] = (_segment(times[lo], times[mid], token, bit),
                               _segment(times[mid], times[hi], node.x, bit2))
        segments += pair
    return PiecewiseStream._from_parts(times[-1], segments, stream_grid)
