"""Continuous-time game engine: exact integrals and the two samplers.

Mistake integrals are computed on the common refinement of segment
boundaries in integers over one common denominator, never by quadrature.
Both samplers start from the stream's integer grid, ``PiecewiseStream.grid``.
Query times drawn from the RNG are binary floats n / 2^k, so a seeded run
has one well-defined exact mistake integral.  The uniform sampler draws
its uniforms 64 at a time, holds its times and epoch sums as integers
over one unit per run, 1 / (den << shift), and builds each Fraction once,
at the end.  The adaptive sampler follows schedules on the grid, each
distinct token parsed once by the cache behind ``read_reveal_token``,
keeps its predictions as integer pieces over the same unit and builds
one Fraction per query time.  Runs on a class share its ``LittlestoneSolver``;
the uniform sampler makes its SOA prediction and restriction once per
(segment, version space), not once per query.
No Fraction goes through its constructor: each is an integer pair over one gcd
(``_reduced_fraction``), or a query time's reduced float ratio (``_coprime_fraction``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .adversaries import is_reveal_token, read_reveal_token
from .littlestone import LittlestoneSolver, soa_predict
from .model import (
    ConceptClass,
    Label,
    MalformedTokenError,
    NonRealizableError,
    PiecewiseStream,
    RationalLike,
    Segment,
    _coprime_fraction,
    _reduced_fraction,
    as_fraction,
    fraction_to_json,
)


class QueryEvent(NamedTuple):
    time: Fraction
    x: str
    y: Label
    success: bool  # deployed predictor disagreed with the revealed label

    def to_json(self) -> dict:
        return {**self._asdict(), "time": fraction_to_json(self.time)}


class EpochError(NamedTuple):
    """Error accrued while waiting for the k-th successful query."""

    epoch: int
    error: Fraction

    def to_json(self) -> dict:
        return {"epoch": self.epoch, "error": fraction_to_json(self.error)}


@dataclass(frozen=True)
class RunReport:
    mistake_integral: Fraction
    query_events: tuple[QueryEvent, ...]
    epoch_errors: tuple[EpochError, ...]
    seed: object
    parameters: dict

    @property
    def successful_queries(self) -> int:
        return sum(1 for e in self.query_events if e.success)

    def to_json(self) -> dict:
        return {
            "mistake_integral": fraction_to_json(self.mistake_integral),
            "query_events": [e.to_json() for e in self.query_events],
            "epoch_errors": [e.to_json() for e in self.epoch_errors],
            "seed": self.seed,
            "parameters": self.parameters,
        }


def mistake_integral(
    stream: PiecewiseStream, den: int, pieces: Sequence[tuple[int, int, Label]]
) -> Fraction:
    """Exact measure of {t : prediction != label} over [0, horizon).

    ``pieces`` are the realized predictions, (start, end, label) rows in time
    order with bounds as integers over ``den``, a positive multiple of the
    stream's grid den; the sweep runs in those integers."""
    den_s, starts, ends, end = stream.grid
    if den <= 0 or den % den_s:
        raise ValueError(f"den must be a positive multiple of the grid's {den_s}, got {den}")
    up = den // den_s
    starts, ends, end = [v * up for v in starts], [v * up for v in ends], end * up
    segments = stream.segments
    total = cursor = si = ti = 0
    while cursor < end:
        while si < len(segments) and ends[si] <= cursor:
            si += 1
        while ti < len(pieces) and pieces[ti][1] <= cursor:
            ti += 1
        if si >= len(segments) or ti >= len(pieces):
            raise ValueError(f"coverage ends before horizon at {Fraction(cursor, den)}")
        p_start, p_end, label = pieces[ti]
        if starts[si] > cursor or p_start > cursor:
            raise ValueError(f"coverage gap at {Fraction(cursor, den)}")
        stop = min(ends[si], p_end, end)
        if label != segments[si].y:
            total += stop - cursor
        cursor = stop
    return _reduced_fraction(total, den)


def _delta_float(delta: RationalLike) -> float:
    """The sampler's window width as a float: positive and finite."""
    try:
        delta_f = float(as_fraction(delta))
    except OverflowError:
        raise ValueError(f"delta {delta} does not fit a float") from None
    if delta_f <= 0:
        if as_fraction(delta) > 0:  # float() rounded it to 0.0, a step that never advances
            raise ValueError(f"delta {delta} underflows a float to 0.0")
        raise ValueError(f"delta must be positive, got {delta}")
    return delta_f


def run_uniform_sampler(
    H: ConceptClass,
    stream: PiecewiseStream,
    delta: RationalLike,
    seed,
    on_empty: str = "error",
) -> RunReport:
    """Uniformly-sampled querying with a standard-optimal predictor.

    The next query time is drawn from Unif[t, t + delta] where t is the
    previous query time (0 initially) and read as the float's exact integer
    ratio; each query observes the stream pair, is marked successful when
    the deployed prediction disagrees, and shrinks the version space.
    Queries landing past the horizon are not executed.  ``seed`` is anything
    ``np.random.default_rng`` accepts; the uniforms come in blocks of 64, so
    a ``Generator`` seed ends up advanced by whole blocks, its draws unchanged.

    Instances outside H's space (reveal tokens) are predicted as 0 and do
    not restrict the version space.  ``on_empty`` decides what an
    observation inconsistent with every surviving concept means: ``error``
    raises NonRealizableError (concept-class contract), ``reset`` restores
    the full class and continues (pattern-class streams).  A stream that
    does not cover [0, horizon) raises ValueError at its first gap.

    Every run on H shares ``LittlestoneSolver.of(H)``, its dimension memo
    and SOA tables.  One segment cursor moves forward over the whole run.
    Between queries the deployed predictor is the SOA table of the current
    version space, so the error of a segment is accounted once, when the
    cursor leaves it, and the open part of the current segment only when a
    query ends an epoch or changes the table.  A query's instance, label,
    SOA prediction and restricted version space depend only on (cursor,
    version space), so they are looked up at the first query of each such
    key and reused by the queries that follow at it; each query still adds
    its own event, and each success its own epoch.  Times are integers over one
    unit: den is the lcm of the stream's denominators and the horizon's, and
    a query time n / 2^k with k > shift rescales every held integer (segment
    bounds, horizon, ``mark``, epoch sums) by 2^(k - shift) and sets shift = k.
    """
    if on_empty not in ("error", "reset"):
        raise ValueError(f"on_empty must be 'error' or 'reset', got {on_empty!r}")
    delta_f = _delta_float(delta)
    rng = np.random.default_rng(seed)
    # the doubles of successive rng.random() calls, drawn 64 at a time
    draw = chain.from_iterable(iter(lambda: rng.random(64).tolist(), None)).__next__
    solver = LittlestoneSolver.of(H)
    segments = stream.segments
    # position of each segment's instance in the space; -1 (outside the
    # space) indexes the trailing 0 of every padded label table
    position = {x: i for i, x in enumerate(solver.root.space.instances)}
    seg_xi = [position.get(seg.x, -1) for seg in segments]
    # times as integers over 1 / (den << shift); see the docstring
    den, starts, ends, end = stream.grid
    shift = 0
    ids = solver.full()  # the version space
    labels = solver.soa_labels(ids) + (0,)

    epoch_acc = [0]
    events: list[QueryEvent] = []
    si = 0  # the cursor: the segment holding `mark`
    mark = 0  # error before `mark` is already in epoch_acc

    def enter() -> None:
        """Check that segment si exists and starts by ``mark``."""
        if si == len(segments):
            raise ValueError(f"coverage ends before horizon at {Fraction(mark, den << shift)}")
        if starts[si] > mark:
            raise ValueError(f"coverage gap at {Fraction(mark, den << shift)}")

    def seek(t: int) -> Segment:
        """Account every segment that ends by t and return the one holding it."""
        nonlocal si, mark
        while ends[si] <= t:
            if labels[seg_xi[si]] != segments[si].y:
                epoch_acc[-1] += ends[si] - mark
            mark = ends[si]
            si += 1
            enter()
        return segments[si]

    def settle(seg: Segment, t: int) -> None:
        """Account [mark, t) inside ``seg``, the segment holding both."""
        nonlocal mark
        if labels[seg_xi[si]] != seg.y:
            epoch_acc[-1] += t - mark
        mark = t

    if end > 0:
        enter()
    anchor = 0.0
    queried = False
    looked_si = -1  # the segment of the lookups below, made for the current ids
    while True:
        # numpy's uniform(anchor, anchor + delta_f) bit for bit; it includes
        # the lower endpoint, but query times must strictly increase
        span = (anchor + delta_f) - anchor
        t_float = anchor + span * draw()
        while queried and t_float == anchor:
            t_float = anchor + span * draw()
        n, d = t_float.as_integer_ratio()
        k = d.bit_length() - 1
        if k > shift:
            up, shift = k - shift, k
            starts = [v << up for v in starts]
            ends = [v << up for v in ends]
            epoch_acc = [v << up for v in epoch_acc]
            end <<= up
            mark <<= up
        t = n * den << (shift - k)
        if t >= end:
            break
        t_q = _coprime_fraction(n, d)  # as_integer_ratio's pair is reduced
        if ends[si] <= t:
            seek(t)
        if si != looked_si:  # the lookups depend only on (si, ids)
            seg = segments[si]
            x, y, xi = seg.x, seg.y, seg_xi[si]
            success = (soa_predict(H, x, ids) if xi >= 0 else 0) != y
            nxt = ids
            if xi >= 0:
                nxt = solver.restrict_ids(ids, xi, y)
                if not nxt:
                    if on_empty == "error":
                        raise NonRealizableError(
                            f"stream not realizable: ({x!r}, {y}) at {t_q} empties the version space"
                        )
                    nxt = solver.full()
            looked_si = si
        events.append(QueryEvent(t_q, x, y, success))
        if success or nxt != ids:
            settle(seg, t)
            if nxt != ids:
                ids = nxt
                labels = solver.soa_labels(ids) + (0,)
                looked_si = -1  # a new version space, a new key
            if success:
                epoch_acc.append(0)
        anchor = t_float
        queried = True

    while mark < end:
        seg = seek(mark)
        settle(seg, min(ends[si], end))

    # a trailing zero-error epoch carries no information and would push the
    # epoch count past LD(H) after the final successful query
    unit = den << shift
    epochs = epoch_acc[:-1] if epoch_acc[-1] == 0 else epoch_acc
    return RunReport(
        mistake_integral=_reduced_fraction(sum(epoch_acc), unit),
        query_events=tuple(events),
        epoch_errors=tuple(EpochError(k + 1, _reduced_fraction(e, unit))
                           for k, e in enumerate(epochs)),
        seed=seed,
        parameters={"delta": str(as_fraction(delta)), "horizon": str(stream.horizon)},
    )


@dataclass
class EpochStats:
    epoch: int
    mean: float
    stderr: float
    count: int


@dataclass
class MonteCarloStats:
    trials: int
    mean: float
    stderr: float
    per_epoch: list[EpochStats]
    integrals: list[Fraction] = field(repr=False)

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "mean": self.mean,
            "stderr": self.stderr,
            "per_epoch": [asdict(s) for s in self.per_epoch],
        }


def monte_carlo_uniform(
    H: ConceptClass,
    stream_or_generator: PiecewiseStream | Callable[[np.random.SeedSequence], PiecewiseStream],
    delta: RationalLike,
    trials: int,
    seed,
    on_empty: str = "error",
) -> MonteCarloStats:
    """Independent seeded runs; mean and standard error of the integral.

    A callable adversary receives a child SeedSequence per trial, so stream
    randomness and sampler randomness never share a stream of bits.  The
    top-level seed fully determines every output.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    _delta_float(delta)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    integrals: list[Fraction] = []
    epoch_values: dict[int, list[Fraction]] = {}
    for child in root.spawn(trials):
        stream_seed, run_seed = child.spawn(2)
        if callable(stream_or_generator):
            stream = stream_or_generator(stream_seed)
        else:
            stream = stream_or_generator
        report = run_uniform_sampler(H, stream, delta, run_seed, on_empty)
        integrals.append(report.mistake_integral)
        for rec in report.epoch_errors:
            epoch_values.setdefault(rec.epoch, []).append(rec.error)

    values = np.array([float(v) for v in integrals])
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials))
    per_epoch = []
    for k in sorted(epoch_values):
        vals = np.array([float(v) for v in epoch_values[k]])
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        per_epoch.append(EpochStats(k, float(vals.mean()), se, len(vals)))
    return MonteCarloStats(trials, mean, stderr, per_epoch, integrals)


def run_adaptive_sampler(stream: PiecewiseStream) -> RunReport:
    """Decode-and-follow play on a self-revealing stream.

    Queries at t = 0, decodes the revealed schedule, predicts it verbatim
    until the announced next reveal, queries exactly then, and repeats.  On
    an honest self-revealing stream the mistake integral is exactly 0 and
    the query times equal the reveal times.

    Times are integers over den, from ``stream.grid``, and the followed
    predictions are (start, end, label) pieces over den for
    ``mistake_integral``; a token time off the grid scales den and every
    held time up.
    """
    den, _, _, end = stream.grid
    events: list[QueryEvent] = []
    pieces: list[tuple[int, int, Label]] = []  # predictions, times over den

    def regrid(*qs: int) -> None:  # den becomes lcm(den, *qs)
        nonlocal den, end, t, cursor
        up = math.lcm(den, *qs) // den
        den, end, t, cursor = den * up, end * up, t * up, cursor * up
        pieces[:] = [(a * up, b * up, y) for a, b, y in pieces]

    t = 0
    last_label: Label = 0  # stale-predictor output at the instant of a query
    while t < end:
        t_q = _reduced_fraction(t, den)
        x, y = stream.value_at(t_q)
        if not is_reveal_token(x):
            raise MalformedTokenError(f"not a self-revealing stream at t={t_q}")
        schedule, (p_next, q_next) = read_reveal_token(x)
        events.append(QueryEvent(t_q, x, y, success=last_label != y))
        cursor = t
        for _, sy, (p_lo, q_lo), (p_hi, q_hi) in schedule:
            if den % q_lo or den % q_hi:
                regrid(q_lo, q_hi)
            lo, hi = p_lo * (den // q_lo), p_hi * (den // q_hi)
            if lo != cursor:
                raise MalformedTokenError(f"decoded schedule has a gap at {Fraction(cursor, den)}")
            pieces.append((lo, hi, sy))
            cursor = hi
            last_label = sy
        if den % q_next:
            regrid(q_next)
        next_reveal = p_next * (den // q_next)
        if cursor != min(next_reveal, end):
            raise MalformedTokenError(
                f"decoded schedule ends at {Fraction(cursor, den)}, "
                f"expected {Fraction(next_reveal, den)}"
            )
        if next_reveal <= t:
            raise MalformedTokenError("next reveal does not advance time")
        t = next_reveal

    return RunReport(
        mistake_integral=mistake_integral(stream, den, pieces),
        query_events=tuple(events),
        epoch_errors=(),
        seed=None,
        parameters={"horizon": str(stream.horizon)},
    )
