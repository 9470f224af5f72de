import ast
import json
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
