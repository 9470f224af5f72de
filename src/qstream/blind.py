"""Exact solvers for query-budgeted blind prediction over pattern classes.

The learner predicts at every round seeing only the clock and its past query
results; the adversary must stay realizable with respect to the pattern
class.  ``qld`` computes the optimal worst-case mistake count for a budget of
Q queries by backward induction over information sets; ``game_value`` is an
independent oracle that plays the same game one round at a time (predict,
then query or not) and shares no code with the solver;
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
from operator import add
from typing import Callable

from .model import (
    BudgetViolationError,
    Label,
    PatternClass,
    QstreamError,
    validate,
)

# state: tuple of (pattern id, accrued mistakes), sorted by pattern id
State = tuple[tuple[int, int], ...]


def _int_to_bits(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def _weighted_one_center(vectors: list[int], weights: list[int], width: int) -> tuple[int, int]:
    """Minimize over candidates c the max of weights[j] + H(c, vectors[j]).

    Returns (value, candidate) with the lexicographically smallest optimal
    candidate; ``vectors`` is non-empty.  Identical vectors are merged,
    keeping the largest weight, and one scan visits candidates in ascending
    order.  A candidate fails on the first vector v whose weight w plus
    distance reaches the best value; then every candidate sharing the
    shortest prefix (high bits) of cand that already carries best_val - w
    mismatches with v fails on v too, so the scan jumps past them.  Only a strict improvement replaces the best and no
    skipped candidate could make one, so the first optimum in ascending order
    wins.  The scan stops once the best value equals the largest weight,
    which no candidate can go below.
    """
    heaviest: dict[int, int] = {}
    for v, w in zip(vectors, weights):
        if v not in heaviest or w > heaviest[v]:
            heaviest[v] = w
    # heaviest first, so a losing candidate reaches best_val sooner
    pairs = sorted(heaviest.items(), key=lambda vw: -vw[1])
    floor = pairs[0][1]
    best_val, best_cand = floor + width + 1, 0
    cand, end = 0, 1 << width
    while cand < end:
        worst = 0
        for v, w in pairs:
            x = cand ^ v
            d = w + x.bit_count()
            if d > worst:
                worst = d
                if d >= best_val:
                    # keep the best_val - w highest mismatches: the lowest
                    # kept bit ends the prefix that already fails on v
                    for _ in range(d - best_val):
                        x &= x - 1
                    cand = (cand | ((x & -x) - 1)) + 1
                    break
        else:  # never reached best_val, so a strict improvement
            best_val, best_cand = worst, cand
            if worst == floor:
                break
            cand += 1
    return best_val, best_cand


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
    """
    solver = QldSolver(P)
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
    interim: int  # rounds t_prev+1..time-1 (..L if blind), packed as _suffix; bits only in JSON
    predict: Label | None  # committed prediction for the query round


class QldSolver:
    """Backward-induction solver over information sets of one pattern class.

    ``steps[pid]`` holds pattern pid's (x, y) per round; ``_suffix[t][pid]``
    packs the labels of rounds t+1..L big-endian, so ascending ints are
    lexicographically ascending label vectors.  Plans pack their interim
    vectors alike; only witness JSON holds bits.  A state holds one (pattern
    id, accrual) per consistent pattern, in pid order.  Values and stage
    plans are memoized on (state shifted to a minimum accrual of 0, queries
    left, last query time), so states differing by a constant share one
    entry.  Patterns agreeing on every remaining round are not merged: on
    the bench workloads and test classes the merge cost more time than the
    memo entries it saved.  It pays only where many patterns share a future
    after a distinguishing round, such as 50-100 round-1 instances with a
    few shared tails, where each round-1 observation takes its own entry.
    Interim vectors are searched as a bounded search tree: no play undoes an
    accrued mistake, so a prefix that cannot beat the best plan so far on
    accruals alone is dropped before any of its children is solved.  The
    root solve at budget 0 is the blind learning dimension.
    """

    def __init__(self, P: PatternClass):
        problems = validate(P)
        if problems:
            raise QstreamError("; ".join(problems))
        self.L = P.horizon
        self.steps = steps = [p.steps for p in P.patterns]
        self._suffix: list[list[int]] = [[0] * len(steps)]
        for t in range(self.L - 1, -1, -1):
            bit = 1 << (self.L - 1 - t)
            self._suffix.append([s | bit * st[t][1] for st, s in zip(steps, self._suffix[-1])])
        self._suffix.reverse()
        self._memo: dict[tuple[State, int, int], tuple[int, _Plan]] = {}

    def initial_state(self) -> State:
        return tuple((i, 0) for i in range(len(self.steps)))

    # -- state plumbing ----------------------------------------------------

    def advance(self, state: State, plan: _Plan, t_prev: int, x: str, y: Label) -> State:
        """Keep the members showing (x, y) at plan.time; one XOR with the
        played bits counts their mistakes on rounds t_prev+1 .. plan.time."""
        t, suffix = plan.time, self._suffix[t_prev]
        played = plan.interim << 1 | plan.predict
        return tuple(
            (pid, acc + ((suffix[pid] >> (self.L - t)) ^ played).bit_count())
            for pid, acc in state
            if self.steps[pid][t - 1] == (x, y)
        )

    # -- the recursion -----------------------------------------------------

    def solve(self, state: State, q_left: int, t_prev: int) -> tuple[int, _Plan]:
        if not state:
            raise QstreamError("solve on an empty information set")
        offset = min(acc for _, acc in state)
        shifted = tuple((pid, acc - offset) for pid, acc in state)
        value, plan = self._memoized(shifted, q_left, t_prev)
        return value + offset, plan

    def _memoized(self, state: State, q_left: int, t_prev: int) -> tuple[int, _Plan]:
        key = (state, q_left, t_prev)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._solve_shifted(state, q_left, t_prev)
        return hit

    def _blind(self, state: State, t_prev: int) -> tuple[int, _Plan]:
        suffix = self._suffix[t_prev]
        vecs = [suffix[pid] for pid, _ in state]
        weights = [acc for _, acc in state]
        value, cand = _weighted_one_center(vecs, weights, self.L - t_prev)
        return value, _Plan(None, cand, None)

    def _solve_shifted(self, state: State, q_left: int, t_prev: int) -> tuple[int, _Plan]:
        """Blind plan, or the first best (query time t, interim yh, prediction r).

        The blind plan is solved only where it is returned, with no query or
        round left; else the search starts with no plan at max(acc) + rounds
        left + 1, which no plan reaches.  Per t, a depth-first search over the
        bits of yh, 0 first, meets yh in ascending order.  A prefix with partial
        distances d is dropped once lb_r = max(acc + d + (r != b)) over the
        members is >= best_val for both r, as no completion can then strictly
        improve; only a strict improvement replaces the best, so the first
        optimum in (t, yh, r) order wins.  The t = L plans reach the blind value.
        The flip rows of rounds t_prev+1..L are built once and shared by every t.
        """
        if q_left == 0 or t_prev == self.L:
            return self._blind(state, t_prev)

        best_val = max(acc for _, acc in state) + (self.L - t_prev) + 1
        best_plan = None
        # flips[k][v][i]: member i's label in round t_prev + k + 1 is not v; for
        # query time t, k = t - t_prev - 1 is the query round, where it is r != b
        rows = [self.steps[pid] for pid, _ in state]
        flips = [
            [[st[k][1] != v for st in rows] for v in (0, 1)]
            for k in range(t_prev, self.L)
        ]
        for t in range(t_prev + 1, self.L + 1):
            gap_len = t - t_prev - 1
            miss0, miss1 = flips[gap_len]
            # per observation (x, b): the indices of its members
            branches: dict[tuple[str, Label], list[int]] = {}
            for i, st in enumerate(rows):
                branches.setdefault(st[t - 1], []).append(i)
            leaves = [
                (b, [state[i][0] for i in idx], idx)
                for (_, b), idx in sorted(branches.items())
            ]

            def descend(k: int, yh: int, accs: list[int]) -> None:
                nonlocal best_val, best_plan
                if (max(map(add, accs, miss0)) >= best_val
                        and max(map(add, accs, miss1)) >= best_val):
                    return
                if k < gap_len:
                    descend(k + 1, yh << 1, list(map(add, accs, flips[k][0])))
                    descend(k + 1, yh << 1 | 1, list(map(add, accs, flips[k][1])))
                    return
                worst0 = worst1 = 0
                for b, pids, idx in leaves:
                    offset = min([accs[i] for i in idx])
                    child = tuple(zip(pids, [accs[i] - offset for i in idx]))
                    value = self._memoized(child, q_left - 1, t)[0] + offset
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

            descend(0, 0, [acc for _, acc in state])
        return best_val, best_plan

    # -- witness serialization ----------------------------------------------

    def witness_tree(self, state: State, q_left: int, t_prev: int) -> dict:
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
            options = {x for x, y in (self.steps[p][t - 1] for p, _ in state) if y == b}
            picked = max(  # the first of the worst branches
                (self.advance(state, plan, t_prev, x, b) for x in sorted(options)),
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
        self.q_left = self.budget
        self.t_prev = 0

    def predict(self, t: int) -> tuple[Label, bool]:
        plan = self.plan
        if t == plan.time:
            return plan.predict, True
        end = self.solver.L if plan.time is None else plan.time - 1  # last interim round
        return (plan.interim >> (end - t)) & 1 if t <= end else 0, False

    def observe(self, t: int, x: str, y: Label) -> None:
        if self.plan.time != t:
            raise QstreamError(f"observation at {t} does not match plan {self.plan.time}")
        nxt = self.solver.advance(self.state, self.plan, self.t_prev, x, y)
        if not nxt:
            raise QstreamError("observation inconsistent with the pattern class")
        super().observe(t, x, y)
        self.state = nxt
        self.q_left -= 1
        self.t_prev = t
        _, self.plan = self.solver.solve(self.state, self.q_left, t)


def qld(P: PatternClass, Q: int) -> DimensionWitness:
    """Optimal worst-case mistakes for budget Q, with a replayable witness.

    Ties break toward the smaller query timestamp, then the lexicographically
    smaller interim vector, then prediction 0.
    """
    if Q < 0:
        raise ValueError(f"query budget must be >= 0, got {Q}")
    solver = QldSolver(P)
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

    walk(tree, 0, 0, "")
    return out


def worst_case_mistakes(strategy: BlindStrategy, P: PatternClass, Q: int) -> int:
    """Exhaustive worst case of a strategy over every pattern in the class.

    Replays the full protocol per pattern: predict, reveal, then observe on
    query rounds.  Raises BudgetViolationError if the strategy exceeds Q.
    """
    if P.is_empty:
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


def game_value(P: PatternClass, Q: int) -> int:
    """Independent oracle for the game ``qld`` solves, played round by round.

    After round L the value is the largest accrual.  Before round t + 1 the
    learner picks r, each pattern accrues [y_p != r], and the learner goes on
    unqueried or, with a query left, faces the worst observed (x, y) branch.
    Kept naive: no ``QldSolver`` code, pruning, one-center kernel or
    interim vector; it shares only the solver's offset-normalized memo key.
    """
    if P.is_empty:
        raise QstreamError("game value of an empty pattern class")
    if Q < 0:
        raise ValueError(f"query budget must be >= 0, got {Q}")
    steps = [p.steps for p in P.patterns]
    memo: dict[tuple[State, int, int], int] = {}

    def value(state: State, q: int, t: int) -> int:
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
                    branches: dict[tuple[str, Label], list[tuple[int, int]]] = {}
                    for pid, acc in nxt:
                        branches.setdefault(steps[pid][t], []).append((pid, acc))
                    options.append(max(value(tuple(b), q - 1, t + 1) for b in branches.values()))
            memo[state, q, t] = min(options)
        return memo[state, q, t] + offset

    return value(tuple((i, 0) for i in range(len(steps))), Q, 0)
