"""Shared domain types, validation, and JSON serialization.

Everything downstream (samplers, adversarial stream generators, discrete
solvers, CLI) builds on the immutable value types defined here.  Times and
interval boundaries are ``fractions.Fraction`` throughout so that mistake
integrals and the blind-error arithmetic stay exact; a stream also holds
them as integers over one den, its ``grid``, on which the generators build
it.  JSON emits a plain number whenever the value survives a decimal round
trip and a ``{"num": p, "den": q}`` object otherwise.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any


class QstreamError(Exception):
    """Base class for contract violations raised by this package."""


class UnknownInstanceError(QstreamError):
    """An instance identifier is not part of the relevant instance space."""


class NonRealizableError(QstreamError):
    """A stream or sequence is inconsistent with every surviving concept."""


class MalformedTokenError(QstreamError):
    """A stream position expected to carry a reveal token does not."""


class BudgetViolationError(QstreamError):
    """A query placement or strategy exceeds its declared query budget."""


RationalLike = int | float | str | Fraction | dict
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")  # Fraction builds 10^|exponent|


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce a JSON-compatible number representation to an exact Fraction.

    Floats are read through their shortest decimal repr, so a JSON ``0.1``
    means one tenth rather than the nearest binary double.  A string with a
    decimal exponent over 4300 in magnitude (the int-to-str limit) is a
    ValueError, raised before ``Fraction`` builds 10^|exponent|.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent and (len(exponent[1]) > 4300 or int(exponent[1]) > 4300):
            raise ValueError("decimal exponent over 4300 in magnitude")
        return Fraction(value)
    if isinstance(value, dict):
        return Fraction(as_int(value["num"]), as_int(value["den"]))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def as_int(value: Any) -> int:
    """Read a JSON integer exactly: an int, or a float with an integral value.

    Raises ValueError for a bool, a non-finite or fractional float, and any
    other type, where ``int()`` would round, overflow or parse instead.  The
    message names the type found, never the value, which can run to any length.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {type(value).__name__}")


def _coprime_fraction(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for ints with gcd(n, d) = 1 and d > 0, its two slots set as
    CPython 3.12+'s ``Fraction._from_coprime_ints`` does; tests/test_model.py checks
    it against the constructor, in CI on Python 3.10-3.13."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


def _reduced_fraction(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for ints with d > 0, by one gcd."""
    g = math.gcd(n, d)
    return _coprime_fraction(n // g, d // g)


def fraction_to_json(value: Fraction) -> Any:
    """Emit an int, a decimal-exact float, or a {num, den} object.

    Every float is a finite decimal, so a value whose reduced denominator has
    a prime factor other than 2 and 5 goes to {num, den} without a float; the
    rest go by their digit count, and 16-17 digits by the ``repr`` round trip.
    """
    den = value.denominator
    if den == 1:
        return int(value)
    a = (den & -den).bit_length() - 1  # den = 2^a 5^b rest
    rest, b = den >> a, 0
    while rest % 5 == 0:
        rest, b = rest // 5, b + 1
    if rest == 1:  # value = digits / 10^d, and digits ends in no 0
        d = max(a, b)
        digits = (abs(value.numerator) << (d - a)) * 5 ** (d - b)
        if digits < 10**15 and d < 300:  # a normal float reads back 15 digits
            return float(value)
        if digits < 10**17 and Fraction(repr(float(value))) == value:  # no float's repr has 18
            return float(value)
    return {"num": value.numerator, "den": den}


Label = int


@dataclass(frozen=True)
class InstanceSpace:
    """Ordered alphabet of opaque instance identifiers.

    The declared order is the canonical tie-breaking order used everywhere
    determinism matters.
    """

    instances: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", tuple(self.instances))

    def index_of(self, x: str) -> int:
        try:
            return self.instances.index(x)
        except ValueError:
            raise UnknownInstanceError(f"instance not in space: {x!r}") from None


@dataclass(frozen=True)
class ConceptClass:
    """Finite binary concept class: distinct label vectors over a space.

    ``concepts[i][j]`` is the label concept *i* assigns to instance *j* (in
    space order).  An empty class can be built, and ``validate`` flags it; a
    restriction is an int mask of the class's ``LittlestoneSolver``, not a class.
    """

    space: InstanceSpace
    concepts: tuple[tuple[Label, ...], ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "concepts", tuple(tuple(c) for c in self.concepts))
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"h{i + 1}" for i in range(len(self.concepts)))
            )
        else:
            object.__setattr__(self, "names", tuple(self.names))


@dataclass(frozen=True)
class Segment:
    """Constant piece of a stream: value (x, y) on [start, end)."""

    start: Fraction
    end: Fraction
    x: str
    y: Label

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_fraction(self.start))
        object.__setattr__(self, "end", as_fraction(self.end))


def _segment(start: Fraction, end: Fraction, x: str, y: Label) -> Segment:
    """A Segment past ``as_fraction``, its fields set one by one as the
    dataclass's own ``__init__`` does, which keeps them in the object
    (about 110 bytes on CPython 3.11, against 250 through ``vars()``)."""
    seg = object.__new__(Segment)
    for name, value in (("start", start), ("end", end), ("x", x), ("y", y)):
        object.__setattr__(seg, name, value)
    return seg


@dataclass(frozen=True)
class PiecewiseStream:
    """Finite-horizon continuous stream as ordered constant segments.

    Valid streams cover [0, horizon) exactly, with disjoint contiguous
    segments of positive width.
    """

    horizon: Fraction
    segments: tuple[Segment, ...]
    # (den, starts, ends, end): the segment bounds and the horizon as
    # integers over den, the lcm of their denominators
    grid: tuple[int, tuple[int, ...], tuple[int, ...], int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", as_fraction(self.horizon))
        object.__setattr__(self, "segments", tuple(self.segments))
        segments, horizon = self.segments, self.horizon
        den = math.lcm(horizon.denominator,
                       *(v.denominator for seg in segments for v in (seg.start, seg.end)))
        starts = tuple([seg.start.numerator * (den // seg.start.denominator) for seg in segments])
        ends = tuple([seg.end.numerator * (den // seg.end.denominator) for seg in segments])
        end = horizon.numerator * (den // horizon.denominator)
        object.__setattr__(self, "grid", (den, starts, ends, end))

    @staticmethod
    def _grid_times(den: int, cuts: list[int]) -> tuple[tuple, list[Fraction]]:
        """The constructor's ``grid`` of a stream cut at ``cuts`` over den, the
        last cut the horizon, and each cut as one Fraction, built by
        ``_reduced_fraction``."""
        g = math.gcd(den, *cuts)  # den as the lcm of the bounds' denominators
        den, cuts = den // g, [c // g for c in cuts]
        return ((den, tuple(cuts[:-1]), tuple(cuts[1:]), cuts[-1]),
                [_reduced_fraction(c, den) for c in cuts])

    @classmethod
    def _on_grid(cls, den: int, cuts: list[int], pairs) -> PiecewiseStream:
        """The stream cut at ``cuts`` over den, one (x, y) of ``pairs`` per
        segment; each bound is one ``_grid_times`` Fraction, shared by its
        segments, which skip ``as_fraction``."""
        grid, times = cls._grid_times(den, cuts)
        segments = [_segment(a, b, x, y) for a, b, (x, y) in zip(times, times[1:], pairs)]
        return cls._from_parts(times[-1], segments, grid)

    @classmethod
    def _from_parts(cls, horizon: Fraction, segments, grid) -> PiecewiseStream:
        """The stream of built segments and their ``grid``, unchecked.  The
        fields are set one by one, as the dataclass's own ``__init__`` sets
        them, which keeps them in the object rather than in a ``vars()`` dict."""
        stream = object.__new__(cls)
        for name, value in (("horizon", horizon), ("segments", tuple(segments)), ("grid", grid)):
            object.__setattr__(stream, name, value)
        return stream

    def value_at(self, t: Fraction) -> tuple[str, Label]:
        """Return (x, y) for the segment containing time t, searched on the
        grid at u = floor(t * den), which orders against every bound as t does."""
        den, starts, ends, end = self.grid
        p, q = t.as_integer_ratio()
        u = p * den // q
        if u < 0 or u >= end:
            raise ValueError(f"time {t} outside [0, {self.horizon})")
        i = bisect_right(ends, u)
        if i == len(ends) or starts[i] > u:
            raise ValueError(f"stream does not cover time {t}")
        seg = self.segments[i]
        return seg.x, seg.y


@dataclass(frozen=True)
class DiscretePattern:
    """Finite discrete pattern: (x, y) pairs for rounds 1..len(steps)."""

    steps: tuple[tuple[str, Label], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple((x, y) for x, y in self.steps))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class PatternClass:
    """Finite set of equal-length patterns over a shared instance space."""

    space: InstanceSpace
    horizon: int
    patterns: tuple[DiscretePattern, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", tuple(self.patterns))


@dataclass(frozen=True)
class QueryBudgetPolicy:
    """Linear query budget: budget(t) = floor(slope * t), slope > 0."""

    slope: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", as_fraction(self.slope))

    def budget(self, t: RationalLike) -> int:
        if type(t) is int:  # a bool goes on to as_fraction, which refuses it
            return self.slope.numerator * t // self.slope.denominator
        t = as_fraction(t)  # one floor division, as both denominators are positive
        return (self.slope.numerator * t.numerator) // (self.slope.denominator * t.denominator)


# ---------------------------------------------------------------------------
# Validation


def _validate_space(space: InstanceSpace) -> list[str]:
    out = []
    if not space.instances:
        out.append("instance space is empty")
    if len(set(space.instances)) != len(space.instances):
        out.append("instance identifiers are not pairwise distinct")
    return out


def _validate_concept_class(cls: ConceptClass) -> list[str]:
    out = _validate_space(cls.space)
    if not cls.concepts:
        out.append("concept class is empty")
    n = len(cls.space.instances)
    for i, c in enumerate(cls.concepts):
        if len(c) != n:
            out.append(f"concept {i} has {len(c)} labels, expected {n}")
        for y in c:
            if y not in (0, 1):
                out.append(f"concept {i} has non-binary label {y!r}")
                break
    if len(set(cls.concepts)) != len(cls.concepts):
        out.append("concepts are not pairwise distinct as label vectors")
    if len(cls.names) != len(cls.concepts):
        out.append("concept names do not match concept count")
    return out


def _validate_stream(stream: PiecewiseStream) -> list[str]:
    out = []
    if stream.horizon < 0:
        out.append("horizon is negative")
    cursor = Fraction(0)
    for i, seg in enumerate(stream.segments):
        if seg.start >= seg.end:
            out.append(f"segment {i} has start >= end ({seg.start} >= {seg.end})")
        if not isinstance(seg.x, str):
            out.append(f"segment {i} has non-string instance {seg.x!r}")
        if seg.y not in (0, 1):
            out.append(f"segment {i} has non-binary label {seg.y!r}")
        if seg.start > cursor:
            out.append(f"gap [{cursor},{seg.start})")
        elif seg.start < cursor:
            out.append(f"overlap at {seg.start} (segment {i})")
        cursor = max(cursor, seg.end)
    if cursor < stream.horizon:
        out.append(f"gap [{cursor},{stream.horizon})")
    elif cursor > stream.horizon:
        out.append(f"segments extend to {cursor}, beyond horizon {stream.horizon}")
    return out


def _validate_pattern(p: DiscretePattern) -> list[str]:
    out = []
    if not p.steps:
        out.append("pattern is empty")
    for t, (_, y) in enumerate(p.steps, start=1):
        if y not in (0, 1):
            out.append(f"pattern step {t} has non-binary label {y!r}")
    return out


def _validate_pattern_class(P: PatternClass) -> list[str]:
    out = _validate_space(P.space)
    if P.horizon <= 0:
        out.append(f"horizon must be positive, got {P.horizon}")
    if not P.patterns:
        out.append("pattern class is empty")
    space = P.space.instances
    valid_steps = {(x, y) for x in space for y in (0, 1)}
    for i, p in enumerate(P.patterns):
        try:  # one set test of every label and instance; only a failing pattern is walked
            ok = p.steps and valid_steps.issuperset(p.steps)
        except TypeError:  # an unhashable step fails the test
            ok = False
        if not ok:
            out.extend(f"pattern {i}: {v}" for v in _validate_pattern(p))
        if len(p) != P.horizon:
            out.append(f"pattern {i}: length mismatch ({len(p)} steps, horizon {P.horizon})")
        if not ok:
            out.extend(f"pattern {i}: instance not in space: {x!r}" for x, _ in p.steps
                       if x not in space)
    try:
        distinct = len(set(P.patterns)) == len(P.patterns)
    except TypeError:  # an unhashable step, named above
        distinct = all(p not in P.patterns[:i] for i, p in enumerate(P.patterns))
    if not distinct:
        out.append("patterns are not pairwise distinct")
    return out


def _validate_budget(b: QueryBudgetPolicy) -> list[str]:
    return [] if b.slope > 0 else [f"slope must be positive, got {b.slope}"]


def validate(obj: Any) -> list[str]:
    """Return every invariant violation of a core value; [] means ok.

    Violations are data, not failures: this never raises on a structurally
    well-formed value and is idempotent.
    """
    if isinstance(obj, InstanceSpace):
        return _validate_space(obj)
    if isinstance(obj, ConceptClass):
        return _validate_concept_class(obj)
    if isinstance(obj, PiecewiseStream):
        return _validate_stream(obj)
    if isinstance(obj, DiscretePattern):
        return _validate_pattern(obj)
    if isinstance(obj, PatternClass):
        return _validate_pattern_class(obj)
    if isinstance(obj, QueryBudgetPolicy):
        return _validate_budget(obj)
    raise TypeError(f"validate does not know type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# JSON wire formats (canonical field names)


def concept_class_to_json(cls: ConceptClass) -> dict:
    return {
        "instances": list(cls.space.instances),
        "concepts": [
            {"name": name, "labels": list(labels)}
            for name, labels in zip(cls.names, cls.concepts)
        ],
    }


def _strings(values: list, what: str) -> tuple[str, ...]:
    """The values as a tuple; a TypeError names the type of a non-list or of
    its first non-string, never the value."""
    if not isinstance(values, list):
        raise TypeError(f"{what} must be a list of strings, got {type(values).__name__}")
    for v in values:
        if not isinstance(v, str):
            raise TypeError(f"{what} must be strings, got {type(v).__name__}")
    return tuple(values)


def concept_class_from_json(doc: dict) -> ConceptClass:
    space = InstanceSpace(_strings(doc["instances"], "instance identifiers"))
    concepts = tuple(tuple(as_int(y) for y in c["labels"]) for c in doc["concepts"])
    names = [c.get("name", f"h{i + 1}") for i, c in enumerate(doc["concepts"])]
    return ConceptClass(space, concepts, _strings(names, "concept names"))


def pattern_class_to_json(P: PatternClass) -> dict:
    return {
        "instances": list(P.space.instances),
        "horizon": P.horizon,
        "patterns": [[[x, y] for x, y in p.steps] for p in P.patterns],
    }


def pattern_class_from_json(doc: dict) -> PatternClass:
    space = InstanceSpace(_strings(doc["instances"], "instance identifiers"))
    patterns = tuple(
        DiscretePattern(tuple((x, as_int(y)) for x, y in steps))
        for steps in doc["patterns"]
    )
    _strings([x for p in patterns for x, _ in p.steps], "pattern instances")
    return PatternClass(space, as_int(doc["horizon"]), patterns)


def stream_to_json(stream: PiecewiseStream) -> dict:
    rows, end, end_json = [], None, None
    for s in stream.segments:  # a start equal to the last end reuses its value
        start_json = end_json if s.start == end else fraction_to_json(s.start)
        end, end_json = s.end, fraction_to_json(s.end)
        rows.append({"start": start_json, "end": end_json, "x": s.x, "y": s.y})
    return {"horizon": fraction_to_json(stream.horizon), "segments": rows}


def _same_json(a: Any, b: Any) -> bool:
    """Equal JSON numbers of one type, a {num, den}'s entries too: ``true`` is not ``1``."""
    return type(a) is type(b) and a == b and (
        type(a) is not dict or all(type(a[k]) is type(b[k]) for k in ("num", "den")))


def _time(value: Any, name: str) -> Fraction:
    """A stream document's time: its refusal names the field, where Fraction's
    own quote the text or numerator, which can run to any length."""
    try:
        return as_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise type(exc)(f"expected a rational number such as 3, 0.25 or 1/4 as the {name}") from None


def stream_from_json(doc: dict) -> PiecewiseStream:
    segments: list[Segment] = []
    for s in doc["segments"]:  # a start written as the last end reuses its value
        start = end if segments and _same_json(s["start"], end_json) else _time(s["start"], "start")
        end_json, end = s["end"], _time(s["end"], "end")
        segments.append(Segment(start, end, s["x"], as_int(s["y"])))
    return PiecewiseStream(_time(doc["horizon"], "horizon"), segments)


def budget_to_json(b: QueryBudgetPolicy) -> dict:
    return {"slope": {"num": b.slope.numerator, "den": b.slope.denominator}}


_TO_JSON = {
    ConceptClass: concept_class_to_json,
    PatternClass: pattern_class_to_json,
    PiecewiseStream: stream_to_json,
    QueryBudgetPolicy: budget_to_json,
}


def dumps(obj: Any, **kwargs: Any) -> str:
    """Serialize a core value to its canonical JSON text."""
    for typ, fn in _TO_JSON.items():
        if isinstance(obj, typ):
            return json.dumps(fn(obj), **kwargs)
    raise TypeError(f"no JSON format for type {type(obj).__name__}")
