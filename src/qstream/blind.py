"""Exact solvers for query-budgeted blind prediction over pattern classes.

The learner predicts at every round seeing only the clock and its past query
results; the adversary must stay realizable with respect to the pattern
class.  ``qld`` computes the optimal worst-case mistake count for a budget of
Q queries by backward induction over information sets; ``game_value`` is an
independent oracle that plays the same game one round at a time (predict,
then query or not, a last-round query folded as no round is left to use it
and the budget capped at the rounds left), shares no code with the solver and
keeps, in a slot of its own, only the last class's memo and partitions.

Each solve builds one strategy tree: a query node maps every observation its
query round can reveal to the child played next.  The JSON witness reads the
worst child per label off it, and ``qld(P, Q).to_strategy()`` plays it, with
no solver behind it, to a worst-case replay that meets the computed value
exactly.

An information set is the set of patterns consistent with the observations
so far, each carrying the mistakes the learner has already accrued against
it.  Carrying the accrued counts is essential: the learner's committed
predictions couple past and future, and collapsing states to bare pattern
subsets understates the optimum on some two-instance classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

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


@dataclass(frozen=True)
class _Plan:
    """One stage of play: next query time (None = go blind) plus vectors."""

    time: int | None
    interim: int  # rounds t_prev+1..time-1 (..L if blind), packed as _labels; bits only in JSON
    predict: Label | None  # committed prediction for the query round


# a strategy tree node: its plan and, in ``QldSolver._obs`` order, each observation (x, y)
# its query round can reveal mapped to the child's (value, node); none under a blind plan
_Node = tuple[_Plan, dict]


class _TreeStrategy(BlindStrategy):
    """Plays a strategy tree: the node's interim vector between queries, its
    committed prediction and a query at its query round, then the child the
    observation names.  ``reset`` goes back to the root."""

    def __init__(self, root: _Node, budget: int, horizon: int):
        super().__init__()
        self.root = self.node = root
        self.budget, self.horizon = budget, horizon

    def reset(self) -> None:
        super().reset()
        self.node = self.root

    def predict(self, t: int) -> tuple[Label, bool]:
        plan = self.node[0]
        if t == plan.time:
            return plan.predict, True
        end = self.horizon if plan.time is None else plan.time - 1  # last interim round
        return (plan.interim >> (end - t)) & 1 if t <= end else 0, False

    def observe(self, t: int, x: str, y: Label) -> None:
        plan, children = self.node
        if plan.time != t:
            raise QstreamError(f"observation at {t} does not match plan {plan.time}")
        child = children.get((x, y))
        if child is None:
            raise QstreamError("observation inconsistent with the pattern class")
        super().observe(t, x, y)
        self.node = child[1]


@dataclass
class DimensionWitness:
    """A solved value plus a replayable certificate achieving it.

    ``witness`` is the serializable form: the optimal prediction vector for
    the blind case, or the optimal query tree (timestamps, per-gap interim
    vectors, query-round predictions, blind suffixes) for the budgeted case.
    Both are read off the solve's one strategy tree, which the witness keeps
    as data (root node, budget, horizon) and ``to_strategy`` plays.
    """

    value: int
    witness: dict
    _tree: tuple[_Node, int, int] = field(repr=False, compare=False)

    def to_strategy(self) -> BlindStrategy:
        return _TreeStrategy(*self._tree)

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
    value, root = solver.strategy(solver.initial_state(), 0, 0)
    prediction = _int_to_bits(root[0].interim, solver.L)
    witness = {"kind": "bld", "window": [1, solver.L], "prediction": prediction}
    return DimensionWitness(value, witness, (root, 0, solver.L))


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
    built, through ``solve``, only where one is played: ``strategy`` builds
    a solve's one strategy tree from them, which the witness JSON and the
    played strategy both read.  The root solve at budget 0 is the blind
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
        plan reaches.  Per t, one loop walks the bits of yh depth first, 0
        first, deferring each 1-child to a stack, so it meets yh in ascending
        order.  A prefix is dropped once some member's accrual plus partial
        distance plus (r != b) reaches best_val for both r: adding half -
        best_val to every member field sets a field's top bit exactly then.
        No completion can then strictly improve; only a strict improvement
        replaces the best, so the first optimum in (t, yh, r) order wins.
        Each prefix is tested once, a 1-child when popped, against the cut
        its elder sibling's subtree left.  With one query left, a branch's
        value comes from ``_leaf_value``, its plan unbuilt: the search reads
        values only.  The t = L plans reach the blind value.
        """
        if q_left == 0 or t_prev == self.L:
            return self._blind(ones, accs, t_prev)
        flips, fmask, leaf_value = self._flips, self._fmask, self._leaf_value
        half, high = 1 << (self._w - 1), ones << (self._w - 1)
        best_val, best_plan, last_query = self.L + 1, None, q_left == 1
        lift = (half - best_val) * ones
        for t in range(t_prev + 1, self.L + 1):
            # the members of each round-t observation (x, b), sorted by (x, b)
            leaves = [(b, c, c * fmask) for (_, b), group in self._obs[t - 1].items()
                      if (c := ones & group)]
            miss0, miss1 = flips[t - 1]
            cut0, cut1 = miss0 + lift, miss1 + lift
            stack = [(t_prev, 0, accs)]  # (k, yh, x) to test: the root, then deferred 1-children
            while stack:
                k, yh, x = stack.pop()
                while not ((x + cut0) & high and (x + cut1) & high):  # the prefix survives
                    if k == t - 1:  # a full interim: value the round-t branches
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
                                break
                        else:
                            for r, worst in ((0, worst0), (1, worst1)):
                                if worst < best_val:
                                    best_val, best_plan = worst, _Plan(t, yh, r)
                                    lift = (half - best_val) * ones
                                    cut0, cut1 = miss0 + lift, miss1 + lift
                        break
                    f0, f1 = flips[k]
                    stack.append((k + 1, yh << 1 | 1, x + f1))
                    k, yh, x = k + 1, yh << 1, x + f0
        return best_val, best_plan

    # -- the strategy tree --------------------------------------------------

    def strategy(self, state: tuple[int, int], q_left: int, t_prev: int) -> tuple[int, _Node]:
        """(value, node) of the strategy tree from ``state``: the node's plan
        comes from ``solve`` and, for a query plan, its children from each
        observation of the query round that some member shows."""
        value, plan = self.solve(state, q_left, t_prev)
        children: dict[tuple[str, Label], tuple[int, _Node]] = {}
        if plan.time is not None:
            for (x, y), group in self._obs[plan.time - 1].items():
                if state[0] & group:
                    child = self.advance(state, plan, t_prev, x, y)
                    children[x, y] = self.strategy(child, q_left - 1, plan.time)
        return value, (plan, children)


def _canonical_tree(node: _Node, q_left: int, t_prev: int, L: int) -> dict:
    """The adversary-canonical query tree of a strategy tree: per label edge,
    the first worst child in ``_obs`` order, or an unreachable leaf."""
    plan, children = node
    if (t := plan.time) is None:
        return {"blind": _int_to_bits(plan.interim, L - t_prev), "start_after": t_prev,
                "unused_budget": q_left}
    edges: dict[str, dict] = {}
    for b in (0, 1):
        worst = max((vc for (_, y), vc in children.items() if y == b),
                    key=lambda vc: vc[0], default=None)
        edges[str(b)] = ({"unreachable": True, "unused_budget": q_left - 1} if worst is None
                         else _canonical_tree(worst[1], q_left - 1, t, L))
    return {"time": t, "interim": _int_to_bits(plan.interim, t - t_prev - 1),
            "predict": plan.predict, "children": edges}


def qld(P: PatternClass, Q: int) -> DimensionWitness:
    """Optimal worst-case mistakes for budget Q, with a replayable witness.

    Ties break toward the smaller query timestamp, then the lexicographically
    smaller interim vector, then prediction 0.

    ``QldSolver.of(P)`` keeps the last class's solver, so one class is built
    once for its bld and every budget; at most one class's memo outlives a call,
    and reference counting frees it once the next class's solver replaces it.
    The witness keeps only the strategy tree, none of the solver.
    """
    if type(Q) is not int:  # nor a bool
        raise TypeError(f"query budget must be an int, got {Q!r}")
    if Q < 0:
        raise ValueError(f"query budget must be >= 0, got {Q}")
    solver = QldSolver.of(P)
    value, root = solver.strategy(solver.initial_state(), Q, 0)
    tree = _canonical_tree(root, Q, 0, solver.L)
    return DimensionWitness(value, {"kind": "qld", "budget": Q, "tree": tree}, (root, Q, solver.L))


def validate_witness_tree(tree: dict, Q: int, horizon: int) -> list[str]:
    """Query-tree invariants: strictly increasing node timestamps, 0/1 edges,
    Q query nodes per root-to-leaf path (unused budget is recorded at leaves
    when the horizon runs out first), blind suffixes from the parent query on."""
    out: list[str] = []
    stack = [(tree, 0, 0, "")]  # (node, parent's time, query nodes above, path), preorder
    while stack:
        node, t_prev, used, path = stack.pop()
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
            continue
        t = node["time"]
        if not (t_prev < t <= horizon):
            out.append(f"{where}: timestamp {t} not in ({t_prev}, {horizon}]")
        gap = t - t_prev - 1
        if len(node.get("interim", ())) != gap:
            out.append(f"{where}: interim length != {gap}")
        children = node.get("children", {})
        if set(children) != {"0", "1"}:
            out.append(f"{where}: edges are not exactly 0 and 1")
        for edge, child in sorted(children.items(), reverse=True):  # the first edge pops first
            stack.append((child, t, used + 1, path + edge))
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


_game_last: tuple = (None,)  # game_value's slot: the last class, rows, miss rows, memo, partitions


def game_value(P: PatternClass, Q: int) -> int:
    """Independent oracle for the game ``qld`` solves, played round by round.

    Before round t + 1 the learner picks r, each pattern accrues [y_p != r],
    and the learner goes on unqueried or, with a query left, faces the worst
    observed (x, y) branch.  After round L the value is the largest accrual,
    so the last round is folded: its query branches partition the members,
    and with no round left the worst of them is the largest accrual too.  So
    a query counts only in a round of its own before the last, and q is capped
    at those rounds, exactly: any Q >= L - 1 is the game of Q = L - 1.  Kept
    naive: no ``QldSolver`` code, pruning, one-center kernel or interim vector.
    Its own slot, keyed by identity and holding P, keeps the last class's rows,
    memo (keys carry the capped q) and partitions for every budget; at most
    one class's memo outlives a call, freed by reference counting once the
    next class's slot replaces it.
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
        _game_last = (P, rounds, misses, {}, {})
    _, rounds, misses, memo, parts = _game_last
    n = len(P.patterns)
    return _play(tuple(range(n)), (0,) * n, Q, 0, P.horizon, rounds, misses, memo, parts)


def _play(pids: tuple[int, ...], accs: tuple[int, ...], q: int, t: int, L: int,
          rounds: list, misses: list, memo: dict, parts: dict) -> int:
    """``game_value``'s recursion: the members ``pids`` with accruals ``accs``
    and q queries left, before round t + 1, the memo keyed on accruals
    shifted to a minimum of 0 and on the capped q.  ``parts`` maps (pids, t)
    to the members grouped by round t + 1's observation, each group a pid
    tuple and its positions in ``pids``, shared by every prediction and budget."""
    offset = min(accs)
    if offset:
        accs = tuple([acc - offset for acc in accs])
    # each query takes a distinct round among t + 1..L - 1 (a last-round query
    # is folded: see game_value), so budget past those rounds is never spent
    q = min(q, L - 1 - t)
    best = memo.get(key := (pids, accs, q, t))
    if best is None:
        best, last = L, t + 1 == L  # no option exceeds L
        if q and (groups := parts.get((pids, t))) is None:
            row, by_obs = rounds[t], {}
            for i, pid in enumerate(pids):
                by_obs.setdefault(row[pid], []).append(i)
            groups = parts[pids, t] = [(tuple([pids[i] for i in g]), g) for g in by_obs.values()]
        for miss in misses[t]:
            nxt = tuple([acc + miss[pid] for pid, acc in zip(pids, accs)])
            v = max(nxt) if last else _play(pids, nxt, q, t + 1, L, rounds, misses, memo, parts)
            if v < best:
                best = v
            if q and (v := max([_play(g, tuple([nxt[i] for i in at]), q - 1, t + 1, L, rounds,
                                      misses, memo, parts) for g, at in groups])) < best:
                best = v
        memo[key] = best
    return best + offset
