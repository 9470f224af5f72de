"""Exact solvers for query-budgeted blind prediction over pattern classes.

The learner predicts at every round seeing only the clock and its past query
results; the adversary must stay realizable with respect to the pattern
class.  ``qld`` computes the optimal worst-case mistake count for a budget of
Q queries by backward induction over information sets; ``game_value`` is an
independent oracle that plays the same game one round at a time (predict,
then query or not, a last-round query folded as no round is left to use it),
shares no code with the solver and keeps, in a slot of its own, only the last
class's memo, which serves every budget;
``qld(P, Q).to_strategy()`` turns the solve into a playable strategy whose
worst-case replay meets the computed value exactly.

An information set is the set of patterns consistent with the observations
so far, each carrying the mistakes the learner has already accrued against
it.  Carrying the accrued counts is essential: the learner's committed
predictions couple past and future, and collapsing states to bare pattern
subsets understates the optimum on some two-instance classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .model import (
    BudgetViolationError,
    Label,
    PatternClass,
    QstreamError,
    validate,
)

def _int_to_bits(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


@cache
def _center_tables(b: int) -> tuple[int, int, list[int], list[int], int]:
    """2^b candidates in f-bit fields, half = 2^(f-1): f, the low-bit mask, dist[u]
    (field c holds H(c, u)), lift[s] = (half - s) * ones and every field's top bit."""
    f, n, half = b.bit_length() + 1, 1 << b, 1 << b.bit_length()
    ones = sum(1 << f * c for c in range(n))
    cols = [sum(1 << f * c for c in range(n) if c >> i & 1) for i in range(b)]
    dist = [sum(cols)]
    for col in cols:  # setting bit i of u turns each field's c_i into 1 - c_i
        dist += [d + ones - 2 * col for d in dist]
    return f, n - 1, dist, [(half - s) * ones for s in range(b + 1)], half * ones


def _weighted_one_center(rows: list[tuple[int, int]], width: int) -> tuple[int, int]:
    """Minimize over candidates c the max over (v, w) in rows of w + H(c, v).

    Returns (value, candidate) with the lexicographically smallest optimal
    candidate; ``rows`` is non-empty.  Blocks of 2^b candidates, b =
    min(width, 8), share a prefix h of the width - b high bits and are scored
    in the fields of one int (``_center_tables``).  At threshold V, a vector of
    weight w at distance dh from h fails the fields whose low bits lie at
    distance >= s = V + 1 - w - dh from its own: dist[v & low] + lift[s] sets
    just their top bits, and no carry crosses a field, since half > b >= every
    distance and 1 <= s <= b (V starts at the largest w + dh; a vector with s >
    b fails nothing and is skipped).  The lowest unmarked field is the block's
    smallest candidate within V.  Prefixes go in ascending order, V rising in
    each to best_val - 1, and those where a vector reaches best_val are jumped
    past.  Only a strict improvement replaces the best and no skipped candidate
    could make one, so the first optimum in ascending order wins; the walk
    stops at the largest weight, which no candidate goes below.  Heavy rows go
    first in a multi-block scan, so ``rows`` may come back reordered.
    """
    b = width if width < 8 else 8
    f, low, dist, lift, highs = _center_tables(b)
    if width > b:  # heaviest first, so a losing prefix reaches best_val sooner
        rows.sort(key=lambda vw: -vw[1])
    floor = max([w for _, w in rows])
    best_val, best_cand = floor + width + 1, 0
    h, end = 0, 1 << (width - b)
    while h < end:
        block, lb = [], 0
        for v, w in rows:
            x = h ^ v >> b
            d = w + x.bit_count()
            if d >= best_val:
                # the lowest of the best_val - w highest mismatches ends a prefix failing on v
                for _ in range(d - best_val):
                    x &= x - 1
                h = (h | ((x & -x) - 1)) + 1
                break
            lb = d if d > lb else lb
            block.append((dist[v & low], d - 1))  # V - (d - 1) is s
        else:
            for V in range(lb, best_val):
                marks = 0
                for dv, d in block:
                    if V - d <= b:
                        marks |= dv + lift[V - d]
                if free := highs & ~marks:  # no sum carries, so OR first, mask once
                    best_val, best_cand = V, h << b | (free & -free).bit_length() // f - 1
                    break
            if best_val == floor:
                break
            h += 1
    return best_val, best_cand


def _one_center_value(rows: dict[int, int], width: int) -> int:
    """``_weighted_one_center``'s value over distinct vectors (``rows`` maps
    vector to weight), in closed form at up to three vectors and from the
    kernel beyond.  One vector is its own center.  Two at distance H: a center
    taking k of their H split columns from b is worth max(a + k, b + H - k), at
    best max(a, b, ceil((a+b+H)/2)).  Three: the largest of the weights and
    the three pair bounds.  A bound over all three, ceil((a+b+c+n_1+n_2+n_3)/3)
    with n_i the columns where v_i is the odd one out, adds nothing: it is the
    ceiling of the mean of the pairs' (w_i+w_j+H_ij)/2, as H_ij = n_i + n_j.
    The tests check every form against all 2^width candidates."""
    if len(rows) > 3:
        return _weighted_one_center(list(rows.items()), width)[0]
    if len(rows) == 1:
        (value,) = rows.values()
        return value
    if len(rows) == 2:
        (u, a), (v, b) = rows.items()
        return max(a, b, (a + b + (u ^ v).bit_count() + 1) >> 1)
    (u, a), (v, b), (y, c) = rows.items()
    return max(a, b, c, (a + b + (u ^ v).bit_count() + 1) >> 1,
               (a + c + (u ^ y).bit_count() + 1) >> 1, (b + c + (v ^ y).bit_count() + 1) >> 1)


ObservationHistory = tuple[tuple[int, str, Label], ...]
"""Executed queries as (time, x, y) triples, strictly increasing in time."""


class BlindStrategy:
    """Blind-prediction player: per round, a prediction and a query decision.

    Drive it with ``predict(t)`` for t = 1, 2, ...; when it queries, feed the
    revealed pair back through ``observe(t, x, y)``.  ``reset`` rewinds to
    round one.  ``history`` holds the observations seen so far; it is the
    only stream information a blind player ever gets.
    """

    budget: int = 0

    def __init__(self) -> None:
        self.history: ObservationHistory = ()

    def reset(self) -> None:
        self.history = ()

    def predict(self, t: int) -> tuple[Label, bool]:
        raise NotImplementedError

    def observe(self, t: int, x: str, y: Label) -> None:
        if self.history and self.history[-1][0] >= t:
            raise QstreamError("observation times must strictly increase")
        if len(self.history) >= self.budget:
            raise BudgetViolationError(f"observation beyond budget {self.budget}")
        self.history = self.history + ((t, x, y),)


@dataclass
class DimensionWitness:
    """A solved value plus a replayable certificate achieving it.

    ``witness`` is the serializable form: the optimal prediction vector for
    the blind case, or the optimal query tree (timestamps, per-gap interim
    vectors, query-round predictions, blind suffixes) for the budgeted case.
    """

    value: int
    witness: dict
    _factory: Callable[[], BlindStrategy] = field(repr=False, compare=False)

    def to_strategy(self) -> BlindStrategy:
        return self._factory()

    def to_json(self) -> dict:
        return {"value": self.value, "witness": self.witness}


def blind_learning_dimension(P: PatternClass) -> DimensionWitness:
    """Exact min over prediction vectors of worst-case Hamming distance over
    the full horizon: ``qld``'s zero-budget answer, the root solve of a
    ``QldSolver`` with no query left, so the class is validated the same way.

    ``QldSolver.of(P)`` keeps the last class's solver for a following
    ``qld(P, Q)``; at most one class's memo outlives a call, and reference
    counting frees it once the next class's solver replaces it.
    """
    solver = QldSolver.of(P)
    value, plan = solver.solve(solver.initial_state(), 0, 0)
    prediction = _int_to_bits(plan.interim, solver.L)
    return DimensionWitness(
        value=value,
        witness={"kind": "bld", "window": [1, solver.L], "prediction": prediction},
        _factory=lambda: TreeReplanStrategy(solver, 0),
    )


@dataclass(frozen=True)
class _Plan:
    """One stage of play: next query time (None = go blind) plus vectors."""

    time: int | None
    interim: int  # rounds t_prev+1..time-1 (..L if blind), packed as _labels; bits only in JSON
    predict: Label | None  # committed prediction for the query round


class QldSolver:
    """Backward-induction solver over information sets of one pattern class.

    ``_labels[pid]`` packs pattern pid's L labels big-endian: its low L - t
    bits are the labels of rounds t+1..L, and ascending ints are
    lexicographically ascending label vectors.  Plans pack their interim
    vectors alike; only witness JSON holds bits.  An information set (ones,
    accs) packs one w-bit field per pattern id, w = (L + 1).bit_length() + 1:
    ``ones`` holds a 1 in each consistent pattern's field, ``accs`` each
    member's accrual, 0 in every other field.
    ``_flips[k][v]`` holds a 1 for each pattern whose round-(k+1) label is
    not v, so one add counts a played round for every member; ``_obs[k]``
    maps each round-(k+1) observation (x, y), sorted, to the ``ones`` of the
    patterns showing it, so one AND keeps a branch.  No field carries into
    the next, a condition the code does not check: a normalized accrual is
    at most t_prev, a search field holds at most L plus the prune's offset
    2^(w-1) > L + 1, and fields outside ``ones`` take at most L flips before
    a mask clears them.  Values and stage plans are memoized on (state
    shifted to a minimum accrual of 0, queries left, last query time), so
    states differing by a constant share one entry.  Patterns agreeing on
    every remaining round are not merged: on the bench workloads and test
    classes the merge cost more time than the memo entries it saved.  It
    pays only where many patterns share a future after a distinguishing
    round, such as 50-100 round-1 instances with a few shared tails, where
    each round-1 observation takes its own entry.  Interim vectors are
    searched as a bounded search tree: no play undoes an accrued mistake, so
    a prefix that cannot beat the best plan so far on accruals alone is
    dropped before any of its children is solved.  Search leaves are valued
    without plans: a child with no query left costs ``_leaf_value``, which
    groups its members by distinct future and writes no memo entry, in
    closed form at up to three futures and by the kernel beyond.  Plans are
    built, through ``solve``, only where one is played: ``witness_tree`` and
    ``TreeReplanStrategy``.  The root solve at budget 0 is the blind
    learning dimension.
    """

    def __init__(self, P: PatternClass):
        problems = validate(P)
        if problems:
            raise QstreamError("; ".join(problems))
        self.L = L = P.horizon
        steps = [p.steps for p in P.patterns]
        self._w = w = (L + 1).bit_length() + 1
        self._fmask = (1 << w) - 1
        units = [1 << (w * pid) for pid in range(len(steps))]
        self._ones = sum(units)
        self._labels = [sum(y << (L - 1 - t) for t, (_, y) in enumerate(st)) for st in steps]
        self._flips: list[tuple[int, int]] = []
        self._obs: list[dict[tuple[str, Label], int]] = []
        for column in zip(*steps):  # one round's (x, y) per pattern
            obs: dict[tuple[str, Label], int] = {}
            for xy, unit in zip(column, units):
                obs[xy] = obs.get(xy, 0) | unit
            labelled1 = sum(group for (_, y), group in obs.items() if y)
            self._flips.append((labelled1, self._ones ^ labelled1))
            self._obs.append(dict(sorted(obs.items())))
        self._memo: dict[tuple[int, int, int, int], tuple[int, _Plan]] = {}

    _last: tuple[PatternClass, QldSolver] | None = None

    @classmethod
    def of(cls, P: PatternClass) -> QldSolver:
        """P's solver, from one slot keyed by identity that holds P: only the last class's stays."""
        last = cls._last
        if last is None or last[0] is not P:
            last = cls._last = (P, cls(P))
        return last[1]

    def initial_state(self) -> tuple[int, int]:
        return self._ones, 0

    # -- state plumbing ----------------------------------------------------

    def advance(self, state: tuple[int, int], plan: _Plan, t_prev: int,
                x: str, y: Label) -> tuple[int, int]:
        """Keep the members showing (x, y) at plan.time; one add of packed flips
        per played bit counts the mistakes on rounds t_prev+1 .. plan.time."""
        ones, accs = state
        t, played = plan.time, plan.interim << 1 | plan.predict
        for k in range(t_prev, t):
            accs += self._flips[k][(played >> (t - 1 - k)) & 1]
        c = ones & self._obs[t - 1].get((x, y), 0)
        return c, accs & c * self._fmask

    # -- the recursion -----------------------------------------------------

    def solve(self, state: tuple[int, int], q_left: int, t_prev: int) -> tuple[int, _Plan]:
        ones, accs = state
        if not ones:
            raise QstreamError("solve on an empty information set")
        # lift every member field by half, then take ones off while all stay >= half
        high = ones << (self._w - 1)
        lifted, offset = accs + high, 0
        while (lifted - ones) & high == high:
            lifted -= ones
            offset += 1
        key = (ones, lifted - high, q_left, t_prev)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._solve_shifted(*key)
        return hit[0] + offset, hit[1]

    def _futures(self, ones: int, accs: int, t_prev: int) -> dict[int, int]:
        """The members' distinct futures (labels of rounds t_prev+1..L), each
        with its largest accrual: a lighter copy of a vector is never the worst."""
        labels, w, fmask = self._labels, self._w, self._fmask
        future, rows = (1 << (self.L - t_prev)) - 1, {}
        while ones:  # members in pid order, lowest field first
            low = ones & -ones
            shift = low.bit_length() - 1
            v, acc = labels[shift // w] & future, (accs >> shift) & fmask
            if rows.get(v, -1) < acc:
                rows[v] = acc
            ones ^= low
        return rows

    def _blind(self, ones: int, accs: int, t_prev: int) -> tuple[int, _Plan]:
        rows = self._futures(ones, accs, t_prev)
        if len(rows) == 1:  # the one future is its own center
            (cand, value), = rows.items()
        else:
            value, cand = _weighted_one_center(list(rows.items()), self.L - t_prev)
        return value, _Plan(None, cand, None)

    def _leaf_value(self, ones: int, accs: int, t_prev: int) -> int:
        """``solve((ones, accs), 0, t_prev)[0]`` with no memo entry and no plan."""
        return _one_center_value(self._futures(ones, accs, t_prev), self.L - t_prev)

    def _solve_shifted(self, ones: int, accs: int, q_left: int, t_prev: int) -> tuple[int, _Plan]:
        """Blind plan, or the first best (query time t, interim yh, prediction r).

        The blind plan is solved only where it is returned, with no query or
        round left; else the search starts with no plan at L + 1, which no
        plan reaches.  Per t, a depth-first search over the bits of yh, 0
        first, meets yh in ascending order.  A prefix is dropped once some
        member's accrual plus partial distance plus (r != b) reaches best_val
        for both r: adding half - best_val to every member field sets a
        field's top bit exactly then.  No completion can then strictly
        improve; only a strict improvement replaces the best, so the first
        optimum in (t, yh, r) order wins.  Each prefix is tested before its
        call, against the cut its elder sibling's subtree left.  With one
        query left, a branch's value comes from ``_leaf_value``, its plan
        unbuilt: the search reads values only.  The t = L plans reach the
        blind value.
        """
        if q_left == 0 or t_prev == self.L:
            return self._blind(ones, accs, t_prev)
        flips, fmask = self._flips, self._fmask
        half, high = 1 << (self._w - 1), ones << (self._w - 1)
        best_val, best_plan = self.L + 1, None

        def cuts() -> tuple[int, int]:
            lift = (half - best_val) * ones
            return miss0 + lift, miss1 + lift

        def descend(k: int, yh: int, x: int) -> None:
            nonlocal best_val, best_plan, cut0, cut1
            if k < t - 1:
                f0, f1 = flips[k]
                x0, x1 = x + f0, x + f1  # x1's cut is read after x0's subtree moved it
                if not ((x0 + cut0) & high and (x0 + cut1) & high):
                    descend(k + 1, yh << 1, x0)
                if not ((x1 + cut0) & high and (x1 + cut1) & high):
                    descend(k + 1, yh << 1 | 1, x1)
                return
            worst0 = worst1 = 0
            for b, c, cmask in leaves:
                if last_query:
                    value = leaf_value(c, x & cmask, t)
                else:
                    value = self.solve((c, x & cmask), q_left - 1, t)[0]
                if value + b > worst0:
                    worst0 = value + b
                if value + 1 - b > worst1:
                    worst1 = value + 1 - b
                if worst0 >= best_val and worst1 >= best_val:
                    return
            for r, worst in ((0, worst0), (1, worst1)):
                if worst < best_val:
                    best_val = worst
                    best_plan = _Plan(t, yh, r)
                    cut0, cut1 = cuts()

        last_query, leaf_value = q_left == 1, self._leaf_value
        try:
            for t in range(t_prev + 1, self.L + 1):
                # the members of each round-t observation (x, b), sorted by (x, b)
                leaves = [(b, c, c * fmask) for (_, b), group in self._obs[t - 1].items()
                          if (c := ones & group)]
                miss0, miss1 = flips[t - 1]
                cut0, cut1 = cuts()
                if not ((accs + cut0) & high and (accs + cut1) & high):
                    descend(t_prev, 0, accs)
        finally:
            descend = None  # its cell made a cycle: refcounting now frees it and self
        return best_val, best_plan

    # -- witness serialization ----------------------------------------------

    def witness_tree(self, state: tuple[int, int], q_left: int, t_prev: int) -> dict:
        """Adversary-canonical query tree: per label edge, the worst branch."""
        value, plan = self.solve(state, q_left, t_prev)
        if plan.time is None:
            return {
                "blind": _int_to_bits(plan.interim, self.L - t_prev),
                "start_after": t_prev,
                "unused_budget": q_left,
            }
        t = plan.time
        children: dict[str, dict] = {}
        for b in (0, 1):
            options = [x for (x, y), group in self._obs[t - 1].items()
                       if y == b and state[0] & group]
            picked = max(  # the first of the worst branches
                (self.advance(state, plan, t_prev, x, b) for x in options),
                key=lambda child: self.solve(child, q_left - 1, t)[0], default=None,
            )
            if picked is None:
                children[str(b)] = {"unreachable": True, "unused_budget": q_left - 1}
            else:
                children[str(b)] = self.witness_tree(picked, q_left - 1, t)
        return {
            "time": t,
            "interim": _int_to_bits(plan.interim, t - t_prev - 1),
            "predict": plan.predict,
            "children": children,
        }


class TreeReplanStrategy(BlindStrategy):
    """Minimax play from a solver: replan at every observation.

    Between queries it plays the solved interim vector; at the query round
    it plays the committed prediction (the larger-subtree label, ties to 0)
    and queries; the observation advances the information set and the next
    stage plan comes from the shared memo.  The root plan is solved once, at
    construction, and ``reset`` restores it with the initial state.
    """

    def __init__(self, solver: QldSolver, budget: int):
        super().__init__()
        self.solver = solver
        self.budget = budget
        self._root = solver.initial_state()
        _, self._root_plan = solver.solve(self._root, budget, 0)
        self.reset()

    def reset(self) -> None:
        super().reset()
        self.state, self.plan = self._root, self._root_plan

    def predict(self, t: int) -> tuple[Label, bool]:
        plan = self.plan
        if t == plan.time:
            return plan.predict, True
        end = self.solver.L if plan.time is None else plan.time - 1  # last interim round
        return (plan.interim >> (end - t)) & 1 if t <= end else 0, False

    def observe(self, t: int, x: str, y: Label) -> None:
        if self.plan.time != t:
            raise QstreamError(f"observation at {t} does not match plan {self.plan.time}")
        t_prev = self.history[-1][0] if self.history else 0
        nxt = self.solver.advance(self.state, self.plan, t_prev, x, y)
        if not nxt[0]:
            raise QstreamError("observation inconsistent with the pattern class")
        super().observe(t, x, y)
        self.state = nxt
        _, self.plan = self.solver.solve(nxt, self.budget - len(self.history), t)


def qld(P: PatternClass, Q: int) -> DimensionWitness:
    """Optimal worst-case mistakes for budget Q, with a replayable witness.

    Ties break toward the smaller query timestamp, then the lexicographically
    smaller interim vector, then prediction 0.

    ``QldSolver.of(P)`` keeps the last class's solver, so one class is built
    once for its bld and every budget; at most one class's memo outlives a call,
    and reference counting frees it once the next class's solver replaces it:
    the search's recursive closure clears its own name when the solve ends,
    so no cycle holds the solver for the cyclic collector.
    """
    if type(Q) is not int:  # nor a bool
        raise TypeError(f"query budget must be an int, got {Q!r}")
    if Q < 0:
        raise ValueError(f"query budget must be >= 0, got {Q}")
    solver = QldSolver.of(P)
    state = solver.initial_state()
    value, _ = solver.solve(state, Q, 0)
    tree = solver.witness_tree(state, Q, 0)
    return DimensionWitness(
        value=value,
        witness={"kind": "qld", "budget": Q, "tree": tree},
        _factory=lambda: TreeReplanStrategy(solver, Q),
    )


def validate_witness_tree(tree: dict, Q: int, horizon: int) -> list[str]:
    """Query-tree invariants: strictly increasing node timestamps, 0/1 edges,
    Q query nodes per root-to-leaf path (unused budget is recorded at leaves
    when the horizon runs out first), blind suffixes from the parent query on."""
    out: list[str] = []

    def walk(node: dict, t_prev: int, used: int, path: str) -> None:
        where = f"path {path or 'root'}"
        if "time" not in node:
            unused = node.get("unused_budget", 0)
            if used + unused != Q:
                out.append(f"{where}: {used} query nodes + {unused} unused != {Q}")
            blind, start = node.get("blind"), node.get("start_after")
            if blind is not None and (start, len(blind)) != (t_prev, horizon - t_prev):
                out.append(f"{where}: blind suffix of {len(blind)} rounds after {start}"
                           f" != {horizon - t_prev} after {t_prev}")
            if not node.get("unreachable") and blind is None:
                out.append(f"{where}: leaf carries no suffix vector")
            return
        t = node["time"]
        if not (t_prev < t <= horizon):
            out.append(f"{where}: timestamp {t} not in ({t_prev}, {horizon}]")
        gap = t - t_prev - 1
        if len(node.get("interim", ())) != gap:
            out.append(f"{where}: interim length != {gap}")
        children = node.get("children", {})
        if set(children) != {"0", "1"}:
            out.append(f"{where}: edges are not exactly 0 and 1")
        for edge, child in sorted(children.items()):
            walk(child, t, used + 1, path + edge)

    try:
        walk(tree, 0, 0, "")
    finally:
        walk = None  # its cell made a cycle: refcounting now frees it
    return out


def worst_case_mistakes(strategy: BlindStrategy, P: PatternClass, Q: int) -> int:
    """Exhaustive worst case of a strategy over every pattern in the class.

    Replays the full protocol per pattern: predict, reveal, then observe on
    query rounds.  Raises BudgetViolationError if the strategy exceeds Q.
    """
    if not P.patterns:
        raise QstreamError("worst case over an empty pattern class")
    worst = 0
    for p in P.patterns:
        strategy.reset()
        steps = p.steps
        queries = mistakes = 0
        for t in range(1, P.horizon + 1):
            pred, wants_query = strategy.predict(t)
            x, y = steps[t - 1]
            mistakes += pred != y
            if wants_query:
                queries += 1
                if queries > Q:
                    raise BudgetViolationError(
                        f"strategy used {queries} queries with budget {Q}"
                    )
                strategy.observe(t, x, y)
        worst = max(worst, mistakes)
    return worst


_game_last: tuple = (None,)  # game_value's slot: the last class, its rows, miss rows and memo


def game_value(P: PatternClass, Q: int) -> int:
    """Independent oracle for the game ``qld`` solves, played round by round.

    Before round t + 1 the learner picks r, each pattern accrues [y_p != r],
    and the learner goes on unqueried or, with a query left, faces the worst
    observed (x, y) branch.  After round L the value is the largest accrual,
    so the last round is folded: its query branches partition the members,
    and with no round left the worst of them is the largest accrual too.  Kept
    naive: no ``QldSolver`` code, pruning, one-center kernel or interim vector.
    Its own slot, keyed by identity and holding P, keeps the last class's rows
    and memo for every budget (keys carry q); at most one class's memo outlives a call,
    freed by reference counting once the next class's slot replaces it: the
    recursive ``value`` clears its own name when the call ends, so no cycle
    holds the memo for the cyclic collector.
    """
    global _game_last
    if type(Q) is not int:  # nor a bool
        raise TypeError(f"query budget must be an int, got {Q!r}")
    if Q < 0:
        raise ValueError(f"query budget must be >= 0, got {Q}")
    if _game_last[0] is not P:
        if problems := validate(P):
            raise QstreamError("; ".join(problems))
        rounds = list(zip(*(p.steps for p in P.patterns)))  # rounds[t][pid]: round t + 1's (x, y)
        misses = [tuple(tuple(y != r for _, y in row) for r in (0, 1)) for row in rounds]
        _game_last = (P, rounds, misses, {})
    _, rounds, misses, memo = _game_last
    L, get = P.horizon, memo.get

    def value(pids: tuple[int, ...], accs: tuple[int, ...], q: int, t: int) -> int:
        offset = min(accs)
        if offset:
            accs = tuple([acc - offset for acc in accs])
        best = get(key := (pids, accs, q, t))
        if best is None:
            best, row, last = L, rounds[t], t + 1 == L  # no option exceeds L
            for miss in misses[t]:
                nxt = tuple([acc + miss[pid] for pid, acc in zip(pids, accs)])
                if (v := max(nxt) if last else value(pids, nxt, q, t + 1)) < best:
                    best = v
                if q > 0 and not last:  # a last-round query is folded: see the docstring
                    branches: dict[tuple[str, Label], list[tuple[int, int]]] = {}
                    for pid, acc in zip(pids, nxt):
                        branches.setdefault(row[pid], []).append((pid, acc))
                    if (v := max([value(*zip(*b), q - 1, t + 1) for b in branches.values()])) < best:
                        best = v
            memo[key] = best
        return best + offset

    try:
        return value(tuple(range(len(P.patterns))), (0,) * len(P.patterns), Q, 0)
    finally:
        value = None  # its cell made a cycle: refcounting now frees it and memo
