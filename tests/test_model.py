import ast
import json
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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


def validate_pattern_class_reference(P):
    """The per-step validation loop, frozen: labels, then length, then the
    instances of every pattern.  Patterns are compared pairwise, so an
    unhashable step raises nothing."""
    out = model._validate_space(P.space)
    if P.horizon <= 0:
        out.append(f"horizon must be positive, got {P.horizon}")
    if not P.patterns:
        out.append("pattern class is empty")
    for i, p in enumerate(P.patterns):
        if not p.steps:
            out.append(f"pattern {i}: pattern is empty")
        for t, (_, y) in enumerate(p.steps, start=1):
            if y not in (0, 1):
                out.append(f"pattern {i}: pattern step {t} has non-binary label {y!r}")
        if len(p) != P.horizon:
            out.append(f"pattern {i}: length mismatch ({len(p)} steps, horizon {P.horizon})")
        for x, _ in p.steps:
            if x not in P.space.instances:
                out.append(f"pattern {i}: instance not in space: {x!r}")
    if any(p == q for i, p in enumerate(P.patterns) for q in P.patterns[:i]):
        out.append("patterns are not pairwise distinct")
    return out


MALFORMED_PATTERNS = [
    pattern(),
    pattern(("a", 2), ("b", 1)),
    pattern(("a", None), ("b", "1")),
    pattern(("c", 0), ("a", 1)),
    pattern((["a"], 0), ("b", 1)),
    pattern(("a", [1]), ("b", 0)),
    pattern(("a", 0), ("b", 1), ("a", 1)),
    pattern(("a", 0), ("z", 7)),
    pattern(("a", 1), ("b", 1)),
    pattern(("a", True), ("b", 1.0)),
]


def test_validate_pattern_class_matches_the_per_step_loop():
    rng = random.Random(2802)
    classes = [PatternClass(SPACE, 2, (p,)) for p in MALFORMED_PATTERNS]
    classes += [
        PatternClass(SPACE, 2, (pattern(("a", 1), ("b", 1)),) * 2),
        PatternClass(SPACE, 2, (pattern((["a"], 0), ("b", 1)),) * 2),
        PatternClass(SPACE, 0, ()),
        PatternClass(InstanceSpace(("a", "a")), 2, (pattern(("a", 0), ("a", 1)),)),
    ]
    for _ in range(200):
        pats = rng.sample(MALFORMED_PATTERNS, rng.randint(1, 4))
        pats += [pattern(("a", 0), ("b", 1))] * rng.randint(0, 2)
        rng.shuffle(pats)
        classes.append(PatternClass(SPACE, rng.choice([2, 3]), tuple(pats)))
    for P in classes:
        assert validate(P) == validate_pattern_class_reference(P)
    problems = validate(PatternClass(SPACE, 2, (pattern((["a"], 0), ("b", 1)),) * 2))
    assert problems == ["pattern 0: instance not in space: ['a']",
                        "pattern 1: instance not in space: ['a']",
                        "patterns are not pairwise distinct"]
    assert validate(PatternClass(SPACE, 2, (pattern(("a", True), ("b", 1.0)),))) == []


@pytest.mark.parametrize("value, shown", [
    ("a" * 38, repr("a" * 38)),
    ("a" * 39, "str of length 39"),
    (list(range(1000)), "list of length 1000"),
    (-(10**39 - 1), str(-(10**39 - 1))),
    (10**40, "int with a 41-character repr"),
    (10**5000, "int of 16610 bits"),  # past the int-to-str digit limit, where repr raises
    (None, "None"),
], ids=["str-40", "str-41", "list", "int-40", "int-41", "int-past-limit", "none"])
def test_shown_quotes_up_to_40_characters(value, shown):
    assert model._shown(value) == shown


def test_long_values_in_problem_texts_are_named_not_quoted():
    long = "x" * 3001
    P = PatternClass(SPACE, 1, (pattern((long, 0)), pattern(("a", 10**50))))
    assert validate(P) == ["pattern 0: instance not in space: str of length 3001",
                           "pattern 1: pattern step 1 has non-binary label int with a 51-character repr"]
    stream = PiecewiseStream(1, (Segment(0, 1, [long], [0] * 50),))
    assert validate(stream) == ["segment 0 has non-string instance list of length 1",
                                "segment 0 has non-binary label list of length 50"]
    with pytest.raises(model.UnknownInstanceError, match=r"^instance not in space: str of length 3001$"):
        SPACE.index_of(long)


def test_validate_is_idempotent_and_total():
    bad = PiecewiseStream(2, (Segment(0, 1, "a", 0), Segment(0, 1, "a", 1)))
    assert validate(bad) == validate(bad)
    assert validate(QueryBudgetPolicy(Fraction(-1, 2))) != []


def test_validate_empty_concepts_flagged():
    cls = ConceptClass(InstanceSpace(("a",)), ())
    assert any("empty" in v for v in validate(cls))


@pytest.mark.parametrize("fn, value, expected", [
    (validate, InstanceSpace(()), ["instance space is empty"]),
    (validate, InstanceSpace(("a", "b", "a")), ["instance identifiers are not pairwise distinct"]),
    (validate, ConceptClass(SPACE, ((0, 1), (1, 2))), ["concept 1 has non-binary label 2"]),
    (validate, ConceptClass(SPACE, ((0, 1), (0, 1))),
     ["concepts are not pairwise distinct as label vectors"]),
    (validate, ConceptClass(SPACE, ((0, 1),), ("h1", "h2")),
     ["concept names do not match concept count"]),
    (validate, PiecewiseStream(1, (Segment(0, 1, "a", 2),)), ["segment 0 has non-binary label 2"]),
    (validate, pattern(("a", 0), ("b", -1)), ["pattern step 2 has non-binary label -1"]),
    (validate, 3, TypeError("validate does not know type int")),
    (model.dumps, SPACE, TypeError("no JSON format for type InstanceSpace")),
], ids=["empty-space", "duplicate-ids", "concept-label", "duplicate-concepts", "names",
        "stream-label", "pattern", "unknown-type", "dumps-space"])
def test_validate_and_dumps_report_each_problem(fn, value, expected):
    # each problem reads back as its own exact message, or its exact error
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as got:
            fn(value)
        assert str(got.value) == str(expected)
    else:
        assert fn(value) == expected


def test_budget_policy_floor():
    b = QueryBudgetPolicy(Fraction(1, 2))
    assert [b.budget(t) for t in range(5)] == [0, 0, 1, 1, 2]
    assert b.budget(Fraction(3, 2)) == 0
    assert b.budget(0) == 0


budget_times = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@given(st.fractions(max_denominator=10**6).filter(bool), budget_times)
@example(Fraction(1, 16), -1)
@example(Fraction(1, 3), "-7/2")
@example(Fraction(3, 7), -0.5)
@example(Fraction(1, 2), Fraction(-3, 2))
def test_budget_floors_as_the_fraction_product_does(slope, t):
    assert QueryBudgetPolicy(slope).budget(t) == math.floor(slope * as_fraction(t))


def test_budget_of_an_int_equals_the_fraction_path():
    rng = random.Random(2801)
    for _ in range(500):
        slope = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        t = rng.choice([rng.randint(-50, 50), rng.randint(-10**30, 10**30)])
        b = QueryBudgetPolicy(slope)
        assert b.budget(t) == b.budget(Fraction(t)) == math.floor(slope * t)
    for t in (True, False):
        with pytest.raises(TypeError, match="booleans"):
            QueryBudgetPolicy(Fraction(1, 4)).budget(t)


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


def test_no_nested_function_calls_itself():
    # a nested function that calls itself holds itself through its closure
    # cell, a cycle that keeps what it references (a solver, a memo) alive
    # until the cyclic collector runs; the library recurses through
    # module-level functions and methods, or walks an explicit stack
    found = []
    for f in sorted((ROOT / "src" / "qstream").glob("*.py")):
        for outer in ast.walk(ast.parse(f.read_text())):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == inner.name for call in ast.walk(inner)
                ):
                    found.append(f"{f.name}: {outer.name}.{inner.name}")
    assert found == []


def test_readme_library_sketch_runs_and_its_comments_hold():
    # README's python block runs in a fresh namespace; each bare expression
    # is evaluated, keyed by its source text, to check the value its
    # comment states
    block = (ROOT / "README.md").read_text().split("```python\n")[1].split("```")[0]
    ns: dict = {}
    values = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node.value)] = eval(code, ns)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
    w = ns["w"]
    assert values["qs.littlestone_dimension(H)"] == 2
    assert values['qs.soa_predict(H, "a")'] == 0
    assert isinstance(values["report.mistake_integral"], Fraction)
    assert values["qs.blind_learning_dimension(P).value"] == 2
    assert values["w.value"] == 1
    assert values["qs.game_value(P, 1) == w.value"] is True
    assert values["qs.worst_case_mistakes(w.to_strategy(), P, 1)"] == w.value


# --- serialization round trips ---------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)


@given(rationals)
@example(Fraction(10**400 + 1, 2))  # past the float range: written as {num, den}
def test_fraction_json_round_trip(fr):
    encoded = json.loads(json.dumps(fraction_to_json(fr)))
    assert as_fraction(encoded) == fr


def fraction_to_json_by_round_trip(value):
    """The rule without the denominator test: a float wherever its repr
    reads back as the value."""
    if value.denominator == 1:
        return int(value)
    try:
        f = float(value)
        if Fraction(repr(f)) == value:
            return f
    except OverflowError:
        pass
    return {"num": value.numerator, "den": value.denominator}


@given(st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
    st.builds(  # denominators of 2s and 5s only, where a float may or may not match
        lambda n, a, b: Fraction(n, 2**a * 5**b),
        st.integers(-10**20, 10**20), st.integers(0, 1100), st.integers(0, 400),
    ),
))
@example(Fraction(1, 3))
@example(Fraction(1, 5**20))  # not a float, yet its float's repr reads back as it
@example(Fraction(1, 2**1074))  # a float, but its shortest repr is not exact
@example(Fraction(123456789123456789123, 10**5))  # more digits than a float holds
@example(Fraction(10**400 + 1, 2))  # past the float range
@example(Fraction(1, 5**400))  # underflows to 0.0
@example(Fraction(123456789012347, 10**7))  # 15 digits: a float
@example(Fraction(1234567890123457, 10**7))  # 16 digits: the round trip decides
@example(Fraction(6471313452454534, 10**16))  # 16 digits that no float reads back as
@example(Fraction(1, 2**22))  # 16 digits, a float whose repr is exact
@example(Fraction(12345678901234567, 10**7))  # 17 digits: the round trip decides
@example(Fraction(1, 2**24))  # 17 digits, a float whose repr is shorter
@example(Fraction(1, 10**307))  # one digit near the bottom of the normal range
@example(Fraction(17, 10**310))  # subnormal
@example(Fraction(123456789012347, 10**325))  # 15 digits, too many for a subnormal
def test_fraction_to_json_matches_the_round_trip_rule(fr):
    assert json.dumps(fraction_to_json(fr)) == json.dumps(fraction_to_json_by_round_trip(fr))


def assert_same_fraction(f, ref):
    """f is a plain Fraction that the constructor's ``ref`` cannot be told from."""
    assert type(f) is Fraction
    assert (f, f.numerator, f.denominator, hash(f), str(f), repr(f)) == (
        ref, ref.numerator, ref.denominator, hash(ref), str(ref), repr(ref))
    back = pickle.loads(pickle.dumps(f))
    assert type(back) is Fraction and (back.numerator, back.denominator) == (
        ref.numerator, ref.denominator)
    assert json.dumps(fraction_to_json(f)) == json.dumps(fraction_to_json(ref))
    assert f + 1 == ref + 1 and f * f == ref * ref and (f < 1) == (ref < 1)


@given(
    st.one_of(st.integers(-10**6, 10**6), st.integers(-2**1100, 2**1100)),
    st.one_of(st.integers(1, 10**6), st.integers(1, 2**1100),
              st.integers(0, 1100).map(lambda k: 2**k)),  # the sampler's float times
)
@example(0, 7)  # zero reduces to 0/1
@example(-6, 4)
@example(3**700, 2**1100)  # both past the float range
@example(1, 2**1074)  # the smallest subnormal float
@example(-(2**1100), 2**1075)
@settings(max_examples=300)
def test_fraction_helpers_match_the_constructor(n, d):
    ref = Fraction(n, d)
    assert_same_fraction(model._reduced_fraction(n, d), ref)
    assert_same_fraction(model._coprime_fraction(*ref.as_integer_ratio()), ref)


@pytest.mark.parametrize("text", ["1e4301", "-1e-4301", "2E+99999999", "1e1_0000", " 1e9999999 "])
def test_as_fraction_refuses_a_decimal_exponent_over_4300(text):
    # refused before Fraction builds 10^exponent, in a text that leaves the value out
    with pytest.raises(ValueError) as exc:
        model.as_fraction(text)
    assert str(exc.value) == "decimal exponent over 4300 in magnitude"


def test_as_fraction_reads_a_decimal_exponent_up_to_4300():
    assert model.as_fraction("1e4300") == 10**4300
    assert model.as_fraction("-2.5E-4300") == Fraction(-25, 10**4301)


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


def stream_from_json_bound_by_bound(doc):
    """The reader with every bound parsed on its own."""
    return PiecewiseStream(as_fraction(doc["horizon"]), tuple(
        Segment(as_fraction(s["start"]), as_fraction(s["end"]), s["x"], model.as_int(s["y"]))
        for s in doc["segments"]))


def json_forms(v):
    """Ways a JSON document may write the value v."""
    p, q = v.numerator, v.denominator
    return [fraction_to_json(v), str(v), {"num": p, "den": q},
            {"num": 2 * p, "den": 2 * q}, {"num": float(p), "den": q}]


@given(st.data())
@settings(max_examples=150)
def test_stream_from_json_reads_each_bound_as_on_its_own(data):
    """Starts equal to the last end, written alike or not, and gaps,
    overlaps, empty segments and horizons short of or past the last end."""
    steps = st.sampled_from([Fraction(0)] * 4 + [Fraction(1, 3), Fraction(-1, 2)])
    start, last_end, rows = data.draw(steps), None, []
    for i in range(data.draw(st.integers(0, 5))):
        end = start + data.draw(rationals)
        a, b = data.draw(st.permutations(range(5)))[:2]
        row = {"start": json_forms(start)[a], "end": json_forms(end)[b],
               "x": "ab"[i % 2], "y": i % 2}
        if start == last_end and data.draw(st.booleans()):
            row["start"] = rows[-1]["end"]  # the very JSON value of the last end
        rows.append(row)
        last_end, start = end, end + data.draw(steps)
    horizon = data.draw(st.sampled_from(json_forms(start)))
    doc = json.loads(json.dumps({"horizon": horizon, "segments": rows}))
    got, want = model.stream_from_json(doc), stream_from_json_bound_by_bound(doc)
    assert got == want and got.grid == want.grid
    assert validate(got) == validate(want)
    assert model.stream_from_json(json.loads(model.dumps(got))) == got


@pytest.mark.parametrize("bounds, horizon, messages", [
    ([(0, 1), (2, 3)], 3, ["gap [1,2)"]),
    ([(0, 0.5), ("1/4", 1)], 1, ["overlap at 1/4 (segment 1)"]),
    ([(0, 1), (1, 2.5)], 2, ["segments extend to 5/2, beyond horizon 2"]),
    ([(0, {"num": 1, "den": 3}), ({"num": 2, "den": 6}, 1)], {"num": 2, "den": 3},
     ["segments extend to 1, beyond horizon 2/3"]),
])
def test_stream_from_json_validates_as_before(bounds, horizon, messages):
    doc = {"horizon": horizon, "segments": [
        {"start": a, "end": b, "x": "a", "y": 0} for a, b in bounds]}
    assert validate(model.stream_from_json(doc)) == messages
    assert validate(stream_from_json_bound_by_bound(doc)) == messages


@pytest.mark.parametrize("end, start, error", [
    (1, True, TypeError),
    (0, False, TypeError),
    ({"num": 1, "den": 2}, {"num": True, "den": 2}, ValueError),
])
def test_stream_from_json_rejects_a_boolean_start_equal_to_the_last_end(end, start, error):
    doc = {"horizon": 2, "segments": [{"start": 0, "end": end, "x": "a", "y": 0},
                                      {"start": start, "end": 2, "x": "b", "y": 1}]}
    with pytest.raises(error):
        model.stream_from_json(doc)


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
