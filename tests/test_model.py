import ast
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstream import model
from qstream.model import (
    ConceptClass,
    DiscretePattern,
    InstanceSpace,
    PatternClass,
    PiecewiseStream,
    QueryBudgetPolicy,
    Segment,
    as_fraction,
    fraction_to_json,
    validate,
)

SPACE = InstanceSpace(("a", "b"))


def pattern(*steps):
    return DiscretePattern(tuple(steps))


def test_validate_singleton_class_ok():
    cls = ConceptClass(InstanceSpace(("a",)), ((0,),))
    assert validate(cls) == []


def test_validate_stream_gap_reported():
    stream = PiecewiseStream(3, (Segment(0, 1, "a", 0), Segment(2, 3, "a", 1)))
    assert any("gap [1,2)" in v for v in validate(stream))


def test_validate_stream_non_string_instance_reported():
    stream = PiecewiseStream(1, (Segment(0, 1, 5, 0),))
    assert validate(stream) == ["segment 0 has non-string instance 5"]


def test_validate_pattern_length_mismatch():
    P = PatternClass(SPACE, 3, (pattern(("a", 0), ("a", 1)), pattern(("a", 0), ("a", 1), ("b", 0))))
    assert any("length mismatch" in v for v in validate(P))


def test_validate_is_idempotent_and_total():
    bad = PiecewiseStream(2, (Segment(0, 1, "a", 0), Segment(0, 1, "a", 1)))
    assert validate(bad) == validate(bad)
    assert validate(QueryBudgetPolicy(Fraction(-1, 2))) != []


def test_validate_empty_concepts_flagged():
    cls = ConceptClass(InstanceSpace(("a",)), ())
    assert any("empty" in v for v in validate(cls))


def test_budget_policy_floor():
    b = QueryBudgetPolicy(Fraction(1, 2))
    assert [b.budget(t) for t in range(5)] == [0, 0, 1, 1, 2]
    assert b.budget(Fraction(3, 2)) == 0
    assert b.budget(0) == 0


@pytest.mark.parametrize("segments", [(), (Segment(0, 1, "a", 0),)])
def test_value_at_uncovered_time_raises_value_error(segments):
    stream = PiecewiseStream(2, segments)
    with pytest.raises(ValueError, match="stream does not cover time 3/2"):
        stream.value_at(Fraction(3, 2))


def _value_at_scan(stream, t):
    """Reference: the first segment holding t, by a linear scan."""
    if t < 0 or t >= stream.horizon:
        raise ValueError(f"time {t} outside [0, {stream.horizon})")
    for seg in stream.segments:
        if seg.start <= t < seg.end:
            return seg.x, seg.y
    raise ValueError(f"stream does not cover time {t}")


def _value_at_fraction_search(stream, t):
    """Reference: a binary search by Fraction ``<=`` over the segment ends,
    which also defines the result on an unsorted stream."""
    if t < 0 or t >= stream.horizon:
        raise ValueError(f"time {t} outside [0, {stream.horizon})")
    lo, hi = 0, len(stream.segments)
    while lo < hi:
        mid = (lo + hi) // 2
        if stream.segments[mid].end <= t:
            lo = mid + 1
        else:
            hi = mid
    if lo == len(stream.segments) or stream.segments[lo].start > t:
        raise ValueError(f"stream does not cover time {t}")
    seg = stream.segments[lo]
    return seg.x, seg.y


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _value_at_case(rng, *, shuffled):
    """A seeded stream over bounds with mixed denominators, with a gap now
    and then (sorted, but not valid), or with its segments shuffled."""
    den = rng.choice((1, 2, 3, 7, 1000003))
    bounds = sorted({Fraction(rng.randint(1, 30), den) for _ in range(rng.randint(0, 8))})
    horizon = Fraction(rng.randint(1, 30), rng.choice((1, 3, 4)))
    bounds = [Fraction(0), *(b for b in bounds if b < horizon), horizon]
    rows = list(zip(bounds, bounds[1:]))
    if rows and rng.random() < 0.3:
        del rows[rng.randrange(len(rows))]
    if shuffled:
        rng.shuffle(rows)
    segments = tuple(Segment(a, b, f"x{i}", i % 2) for i, (a, b) in enumerate(rows))
    return PiecewiseStream(horizon, segments), bounds


def _probe_times(rng, bounds):
    """Every bound, each bound's neighbours off the grid, and times below 0,
    at the horizon and past it."""
    times = [-Fraction(1, 5), Fraction(-1), bounds[-1], bounds[-1] + Fraction(1, 11)]
    for b in bounds:
        times += [b, b - Fraction(1, 10**9 + 7), b + Fraction(1, rng.choice((5, 13, 2**40)))]
    times += [Fraction(rng.randint(0, 200), rng.choice((1, 9, 11, 97))) for _ in range(10)]
    return times + [0, 1, 2]  # ints are rational too


def test_value_at_matches_linear_scan():
    rng = random.Random(12)
    outcomes = {"value": 0, "outside": 0, "does not cover": 0}
    for _ in range(300):
        stream, bounds = _value_at_case(rng, shuffled=False)
        for t in _probe_times(rng, bounds):
            expected = _outcome(_value_at_scan, stream, t)
            assert _outcome(stream.value_at, t) == expected
            kind = expected[1] if expected[0] is ValueError else ""
            outcomes[next((k for k in outcomes if k in kind), "value")] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_value_at_on_unsorted_stream_matches_fraction_search():
    rng = random.Random(13)
    for _ in range(300):
        stream, bounds = _value_at_case(rng, shuffled=True)
        for t in _probe_times(rng, bounds):
            assert _outcome(stream.value_at, t) == _outcome(_value_at_fraction_search, stream, t)


# --- public names -------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_is_used_outside_init():
    # every name `qstream` exports occurs as a word in the library (not on
    # its own def/class line), in bench/ or in README.md
    package = ROOT / "src" / "qstream"
    tree = ast.parse((package / "__init__.py").read_text())
    names = [a.asname or a.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for a in node.names]
    texts = [(ROOT / "README.md").read_text()]
    texts += [f.read_text() for f in sorted((ROOT / "bench").glob("*.py"))]
    texts += [f.read_text() for f in sorted(package.glob("*.py")) if f.name != "__init__.py"]
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own_line = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own_line.match(line)
                   for text in texts for line in text.splitlines()):
            unused.append(name)
    assert names and unused == []


def test_every_public_member_is_used():
    # every public method and property of a class in the library occurs as
    # `.name` (never on its own def line) in the library, in bench/ or in
    # README.md
    package = ROOT / "src" / "qstream"
    members = []
    for f in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.ClassDef):
                members += [f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
    texts = [(ROOT / "README.md").read_text()]
    texts += [f.read_text() for f in sorted((ROOT / "bench").glob("*.py"))]
    texts += [f.read_text() for f in sorted(package.glob("*.py"))]
    unused = []
    for member in members:
        attr = re.compile(rf"\.{re.escape(member.split('.')[1])}\b")
        if not any(attr.search(line) and not line.lstrip().startswith("def ")
                   for text in texts for line in text.splitlines()):
            unused.append(member)
    assert members and unused == []


# --- serialization round trips ---------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)


@given(rationals)
def test_fraction_json_round_trip(fr):
    encoded = json.loads(json.dumps(fraction_to_json(fr)))
    assert as_fraction(encoded) == fr


@given(st.integers(1, 4), st.integers(1, 6))
def test_concept_class_round_trip(n_inst, n_conc):
    space = InstanceSpace(tuple(f"x{i}" for i in range(n_inst)))
    seen = []
    for i in range(n_conc):
        vec = tuple((i >> j) & 1 for j in range(n_inst))
        if vec not in seen:
            seen.append(vec)
    cls = ConceptClass(space, tuple(seen))
    doc = json.loads(model.dumps(cls))
    assert model.concept_class_from_json(doc) == cls


@pytest.mark.parametrize("name", [[], None, 3, {"n": "h1"}])
def test_concept_class_from_json_rejects_non_string_names(name):
    doc = {"instances": ["a"], "concepts": [{"labels": [0], "name": name}]}
    with pytest.raises(TypeError, match="concept names must be strings"):
        model.concept_class_from_json(doc)


@given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1)), min_size=1, max_size=5),
       st.integers(0, 3))
def test_pattern_class_round_trip(steps, extra):
    L = len(steps)
    pats = [DiscretePattern(tuple(steps))]
    if extra:
        flipped = tuple((x, 1 - y) for x, y in steps)
        if flipped != tuple(steps):
            pats.append(DiscretePattern(flipped))
    P = PatternClass(SPACE, L, tuple(pats))
    doc = json.loads(model.dumps(P))
    assert model.pattern_class_from_json(doc) == P


@given(st.lists(rationals.filter(lambda f: f > 0), min_size=1, max_size=6))
@settings(max_examples=60)
def test_stream_round_trip(widths):
    cursor = Fraction(0)
    segments = []
    for i, w in enumerate(widths):
        segments.append(Segment(cursor, cursor + w, "a" if i % 2 else "b", i % 2))
        cursor += w
    stream = PiecewiseStream(cursor, tuple(segments))
    assert validate(stream) == []
    doc = json.loads(model.dumps(stream))
    assert model.stream_from_json(doc) == stream


def test_budget_round_trip_exact():
    b = QueryBudgetPolicy(Fraction(1, 3))
    doc = json.loads(model.dumps(b))
    assert QueryBudgetPolicy(as_fraction(doc["slope"])) == b
    assert doc["slope"] == {"num": 1, "den": 3}


def test_non_decimal_fraction_survives_json():
    stream = PiecewiseStream(
        Fraction(4, 3), (Segment(0, Fraction(2, 3), "a", 0), Segment(Fraction(2, 3), Fraction(4, 3), "b", 1))
    )
    doc = json.loads(model.dumps(stream))
    assert doc["segments"][0]["end"] == {"num": 2, "den": 3}
    assert model.stream_from_json(doc) == stream
