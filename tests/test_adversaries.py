import gc
import json
import random
import re
import weakref
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qstream.adversaries import (
    _consistent_tail,
    _parse_time,
    _read_token,
    decode_reveal_token,
    encode_reveal_token,
    exact_blind_error,
    gen_littlestone_branch_stream,
    gen_self_revealing_stream,
    gen_two_point_stream,
    is_reveal_token,
    read_reveal_token,
)
from qstream.arena import run_adaptive_sampler
from qstream.littlestone import (
    LittlestoneSolver,
    build_littlestone_tree,
    littlestone_dimension,
)
from qstream.model import (
    BudgetViolationError,
    ConceptClass,
    InstanceSpace,
    MalformedTokenError,
    PiecewiseStream,
    QstreamError,
    QueryBudgetPolicy,
    Segment,
    validate,
)


def full_class(n):
    space = InstanceSpace(tuple(f"x{i}" for i in range(n)))
    return ConceptClass(space, tuple(product((0, 1), repeat=n)))


FULL2 = full_class(2)
SLOPE1 = QueryBudgetPolicy(1)


def realizable(H, pairs):
    """Whether some concept of H agrees with every (x, y) of ``pairs``."""
    solver = LittlestoneSolver.of(H)
    ids = solver.full()
    for x, y in pairs:
        ids = solver.restrict_ids(ids, H.space.index_of(x), y)
    return ids != 0


# --- reveal tokens -------------------------------------------------------------

def test_token_round_trip():
    schedule = [("a", 0, Fraction(0), Fraction(1, 2)), ("b", 1, Fraction(1, 2), Fraction(2))]
    token = encode_reveal_token(schedule, Fraction(2))
    assert is_reveal_token(token)
    decoded, nxt = decode_reveal_token(token)
    assert decoded == schedule and nxt == 2


def test_token_round_trip_with_hostile_instance_ids():
    # instance ids may contain the token delimiters themselves
    schedule = [(')|next=evil', 1, Fraction(0), Fraction(1))]
    token = encode_reveal_token(schedule, Fraction(1))
    decoded, nxt = decode_reveal_token(token)
    assert decoded == schedule and nxt == 1


@given(st.lists(st.tuples(
    st.text(max_size=4),
    st.sampled_from([0, 1, True, 2]),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
), max_size=3), st.fractions(max_denominator=50))
@example([], Fraction(0))
@example([('é"\\\n', True, Fraction(-1, 3), Fraction(2))], Fraction(5, 2))
def test_encode_reveal_token_writes_json_dumps_bytes(schedule, next_reveal):
    # every schedule the encoder accepts, decodable or not, as json.dumps writes it
    payload = [[x, y, f"{a.numerator}/{a.denominator}", f"{b.numerator}/{b.denominator}"]
               for x, y, a, b in schedule]
    expected = (f"SEG({json.dumps(payload, separators=(',', ':'))})"
                f"|next={next_reveal.numerator}/{next_reveal.denominator}")
    assert encode_reveal_token(schedule, next_reveal) == expected


def test_token_decode_rejects_garbage():
    for token in MALFORMED_TOKENS[:2]:
        with pytest.raises(MalformedTokenError):
            decode_reveal_token(token)


def test_token_decode_rejects_zero_denominators():
    for token in MALFORMED_TOKENS[2:]:
        with pytest.raises(MalformedTokenError):
            decode_reveal_token(token)


# token bodies that must decode to MalformedTokenError, by test id
MALFORMED_STEPS = {
    "label-0.5": '[["a",0.5,"0","1"]]',
    "label-2": '[["a",2,"0","1"]]',
    "label-true": '[["a",true,"0","1"]]',
    "instance-int": '[[7,0,"0","1"]]',
    "nested-100000": "[" * 100_000 + "]" * 100_000,
    "time-true": '[["a",0,true,"1"]]',
    "time-1.5": '[["a",0,"0",1.5]]',
    "time-0": '[["a",0,0,"1"]]',
}
# time strings outside the encoder's "p/q" form, and broken ones
TIME_FORMS = [
    "2/4", "-1/2", "+1/2", " 1/2", "1_0/3", "\u0661/\u0662", "1.5", "1e3", "1/0", "/", "1/", "",
]
# whole tokens that must decode to MalformedTokenError
MALFORMED_TOKENS = [
    "a",
    "SEG(oops)|next=1/2",
    'SEG([["a",0,"0","1"]])|next=1/0',
    'SEG([["a",0,"0","1/0"]])|next=1',
]


@pytest.mark.parametrize("body", MALFORMED_STEPS.values(), ids=MALFORMED_STEPS.keys())
def test_token_decode_rejects_malformed_steps(body):
    with pytest.raises(MalformedTokenError):
        decode_reveal_token(f"SEG({body})|next=1")


def _decode_reference(token):
    """Reference decoder: every time read by ``Fraction(str)``."""
    if not token.startswith("SEG(") or ")|next=" not in token:
        raise MalformedTokenError("not a self-revealing stream")
    body, _, tail = token[len("SEG("):].rpartition(")|next=")
    try:
        payload = json.loads(body)
        schedule = [
            (str(x), int(y), Fraction(start), Fraction(end))
            for x, y, start, end in payload
        ]
        next_reveal = Fraction(tail)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise MalformedTokenError(f"not a self-revealing stream: {exc}") from exc
    return schedule, next_reveal


@pytest.mark.parametrize("time", TIME_FORMS)
def test_token_decode_agrees_with_fraction_parsing(time):
    # the time string as a segment start, a segment end and the next reveal
    tokens = [
        f'SEG([["a",0,{json.dumps(time)},"1"]])|next=1',
        f'SEG([["a",0,"0",{json.dumps(time)}]])|next=1',
        f'SEG([["a",0,"0","1"]])|next={time}',
    ]
    for token in tokens:
        try:
            expected = _decode_reference(token)
        except MalformedTokenError as exc:
            with pytest.raises(MalformedTokenError) as got:
                decode_reveal_token(token)
            assert str(got.value) == str(exc)
        else:
            got = decode_reveal_token(token)
            assert got == expected
            assert all(type(v) is Fraction for _, _, a, b in got[0] for v in (a, b))


# digits, the characters of every time form above, and non-ASCII digits
TIME_CHARS = "0123456789/-+._e \u0661\u0662\uff11\u00b2"


@given(st.one_of(
    st.text(TIME_CHARS, max_size=8),
    st.from_regex(r"-?[0-9]{1,3}/[0-9]{1,3}", fullmatch=True),
    st.text(max_size=6),
))
@example("1/0")
@example("-0/3")
@example("0/0")
@example("\u0661/\u0662")
@example("1.5")
@example("-.25")
@example("007/0010")
@example("0e600000")  # Fraction takes a noticeable while to build 10^600000
@example("1e-4301")
@example("1e4300")
@example("2E+\u0661\u0660\u0660\u0660\u0660 ")
def test_parse_time_agrees_with_fraction(s):
    # a decimal exponent over 4300 in magnitude is refused before Fraction
    # runs; every other string agrees with Fraction
    oversized = re.fullmatch(r"(?s).*[eE][+-]?((?:\d+_)*\d+)\s*", s)
    if oversized and (len(oversized[1]) > 4300 or int(oversized[1]) > 4300):
        with pytest.raises(ValueError, match="^decimal exponent over 4300 in magnitude$"):
            _parse_time(s)
        with pytest.raises(MalformedTokenError, match="decimal exponent over 4300"):
            read_reveal_token(f'SEG([["a",0,"0","1"]])|next={s}')
        return
    try:
        expected = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            _parse_time(s)
        assert str(got.value) == str(exc)
    else:
        first = _parse_time(s)
        token = f'SEG([["a",0,"0","1"]])|next={s}'  # s as a token's next reveal
        read = read_reveal_token(token)
        hits = _read_token.cache_info().hits
        assert read_reveal_token(token) is read  # the second read comes from the cache
        assert _read_token.cache_info().hits == hits + 1
        assert read[1] == first
        p, q = first
        assert type(p) is int and type(q) is int and q > 0
        assert Fraction(p, q) == expected


def test_parse_time_rejects_non_strings():
    assert _parse_time("1/2") == (1, 2)
    for value in (["1/2"], 0.5, None):
        with pytest.raises(TypeError) as got:
            _parse_time(value)
        assert str(got.value) == f"time must be a string, got {value!r}"


def test_read_reveal_token_caches_good_tokens_only():
    token = encode_reveal_token([("a", 1, Fraction(0), Fraction(2, 6))], Fraction(1, 3))
    first = read_reveal_token(token)
    hits = _read_token.cache_info().hits
    assert read_reveal_token(token) is first  # the second read is a cache hit
    assert _read_token.cache_info().hits == hits + 1
    schedule, nxt = first
    assert type(schedule) is tuple and schedule == (("a", 1, (0, 1), (1, 3)),)
    assert nxt == (1, 3)
    # errors are never cached: every read parses again and raises the same
    bad = MALFORMED_TOKENS + [f"SEG({body})|next=1" for body in MALFORMED_STEPS.values()]
    for token in bad:
        messages = []
        for _ in range(2):
            misses = _read_token.cache_info().misses
            with pytest.raises(MalformedTokenError) as got:
                read_reveal_token(token)
            assert _read_token.cache_info().misses == misses + 1
            messages.append(str(got.value))
        assert messages[0] == messages[1]
    info = _read_token.cache_info()
    for value in (None, 7, b"SEG([])|next=1", ["SEG([])|next=1"]):
        with pytest.raises(TypeError) as got:
            read_reveal_token(value)
        assert str(got.value) == f"token must be a string, got {value!r}"
    assert _read_token.cache_info() == info  # rejected before the cache


# --- littlestone-branch streams --------------------------------------------------

def test_branch_stream_interval_widths():
    # n=1 with slope 1 gives k=4, needing dimension >= 8: the full class on
    # 8 instances provides it; intervals have width 2n/k = 1/2
    H = full_class(8)
    stream = gen_littlestone_branch_stream(H, 1, SLOPE1, 0)
    assert stream.horizon == 4
    assert len(stream.segments) == 8
    assert all(s.end - s.start == Fraction(1, 2) for s in stream.segments)
    assert validate(stream) == []


def test_branch_stream_deterministic():
    H = full_class(8)
    assert gen_littlestone_branch_stream(H, 1, SLOPE1, 42) == gen_littlestone_branch_stream(
        H, 1, SLOPE1, 42
    )


def _branch_reference(H, k, seed):
    """Reference: the tree walk with one scalar ``rng.integers(0, 2)`` draw
    per node, the 2k bits of a depth-2k tree."""
    rng = np.random.default_rng(seed)
    node, path = build_littlestone_tree(H, 2 * k), []
    while node is not None:
        b = int(rng.integers(0, 2))
        path.append((node.x, b))
        node = node.right if b else node.left
    return path


@pytest.mark.parametrize("k", [1, 2, 4])
def test_branch_stream_matches_scalar_draw_reference(k):
    # the branch takes one scalar draw per node, in walk order; seeded
    # streams and the arena goldens rest on that order
    H = full_class(2 * k)
    budget = QueryBudgetPolicy(Fraction(k, 4))
    for seed in range(150):
        stream = gen_littlestone_branch_stream(H, 1, budget, seed)
        assert [(s.x, s.y) for s in stream.segments] == _branch_reference(H, k, seed)


def test_branch_stream_realizable_via_restrict_chain():
    H = full_class(8)
    for seed in range(5):
        stream = gen_littlestone_branch_stream(H, 1, SLOPE1, seed)
        assert realizable(H, [(seg.x, seg.y) for seg in stream.segments])


def test_branch_stream_tail_consistent():
    H = full_class(8)
    stream = gen_littlestone_branch_stream(H, 1, SLOPE1, 3, horizon=6)
    assert stream.horizon == 6
    assert stream.segments[-1].start == 4 and stream.segments[-1].end == 6
    assert realizable(H, [(seg.x, seg.y) for seg in stream.segments])


@pytest.mark.parametrize("horizon, text", [(Fraction(7, 2), "7/2"), (3.5, "7/2"), ("-1", "-1"),
                                           ({"num": 6, "den": 2}, "3")])
def test_branch_stream_horizon_shorter_than_the_prefix_is_named(horizon, text):
    with pytest.raises(ValueError, match=f"^horizon {text} shorter than the painted prefix 4$"):
        gen_littlestone_branch_stream(full_class(8), 1, SLOPE1, 0, horizon=horizon)


def test_branch_stream_too_shallow():
    with pytest.raises(QstreamError, match="too shallow"):
        gen_littlestone_branch_stream(FULL2, 1, SLOPE1, 0)


def test_branch_stream_zero_budget():
    with pytest.raises(QstreamError, match="budget"):
        gen_littlestone_branch_stream(FULL2, 1, QueryBudgetPolicy(Fraction(1, 100)), 0)


def _branch_on_grid(H, n, k, seed, horizon):
    """Reference: the branch stream rebuilt afresh by ``_on_grid``, bounds,
    segments and all, as every call built it before the layout."""
    path = _branch_reference(H, k, seed)
    p, q = (4 * n, 1) if horizon is None else Fraction(horizon).as_integer_ratio()
    cuts = list(range(0, 2 * n * q * len(path) + 1, 2 * n * q))
    if p > 4 * n * q:
        cuts.append(p * k)
        path.append(_consistent_tail(H, path))
    return PiecewiseStream._on_grid(k * q, cuts, path)


def _leaf(k, seed):
    """The heap index of the seed's branch in a depth-2k tree."""
    rng, leaf = np.random.default_rng(seed), 1
    for _ in range(2 * k):
        leaf = 2 * leaf + int(rng.integers(0, 2))
    return leaf


# (class, n, k, horizon); the third and fourth keys differ in n alone
BRANCH_KEYS = [(FULL2, 1, 1, None), (FULL2, 1, 1, Fraction(13, 2)), (FULL2, 1, 1, 8),
               (FULL2, 2, 1, None), (FULL2, 4, 1, 20),
               (full_class(4), 1, 2, None), (full_class(4), 2, 2, Fraction(41, 3))]


def test_branch_stream_on_every_path_equals_a_fresh_build():
    # depth-2 and depth-4 trees, with and without a tail past 4n, each key
    # met in turn, so every round replaces the slot at every key
    for round_ in range(2):
        for H, n, k, horizon in BRANCH_KEYS:
            leaves = set()
            for seed in range(200):
                stream = gen_littlestone_branch_stream(
                    H, n, QueryBudgetPolicy(Fraction(k, 4 * n)), seed, horizon=horizon)
                ref = _branch_on_grid(H, n, k, seed, horizon)
                assert stream.segments == ref.segments
                assert stream.grid == ref.grid and stream.horizon == ref.horizon
                assert_public_stream(stream)
                leaves.add(_leaf(k, seed))
            assert len(leaves) == 4 ** k  # every path was drawn


def test_branch_layout_slot_is_replaced_by_another_key():
    H, budget = full_class(4), QueryBudgetPolicy(Fraction(1, 4))
    solver = LittlestoneSolver.of(H)
    first = gen_littlestone_branch_stream(H, 1, budget, 0)
    assert solver._branch[0] == (2, 1, 4, 1)  # (depth, n, horizon as p, q)
    refs = [weakref.ref(seg) for seg in first.segments]
    del first
    gen_littlestone_branch_stream(H, 1, budget, 0, horizon=Fraction(9, 2))
    assert solver._branch[0] == (2, 1, 9, 2)
    gc.collect()
    assert all(ref() is None for ref in refs)  # the old layout died with the slot
    gen_littlestone_branch_stream(H, 2, QueryBudgetPolicy(Fraction(1, 8)), 0)
    assert solver._branch[0] == (2, 2, 8, 1)


def test_branch_layout_holds_two_segments_per_node_and_one_stream_per_drawn_leaf():
    H, k = full_class(4), 2
    budget = QueryBudgetPolicy(Fraction(k, 4))
    streams = {}
    for seed in range(40):
        stream = gen_littlestone_branch_stream(H, 1, budget, seed, horizon=5)
        assert streams.setdefault(_leaf(k, seed), stream) is stream  # one per leaf
    _, _, _, edges, held = LittlestoneSolver.of(H)._branch
    assert len(streams) < 4 ** k  # some leaf was never drawn
    assert {i for i, s in enumerate(held) if s is not None} == set(streams)
    built = [i for i, seg in enumerate(edges) if seg is not None]
    assert len(built) <= 2 * (2 ** (2 * k) - 1)  # at most two per tree node
    for leaf, stream in streams.items():
        # the segment of a step is the layout's one for its edge, the tail the leaf's own
        path = [leaf >> (2 * k - 1 - j) for j in range(2 * k)]
        assert all(seg is edges[c] for seg, c in zip(stream.segments, path))
        assert len(stream.segments) == 2 * k + 1
        assert all(stream.segments[-1] is not seg for seg in edges)
    assert set(built) == {leaf >> s for leaf in streams for s in range(2 * k)}


# --- two-point streams ------------------------------------------------------------

def test_two_point_widths():
    stream = gen_two_point_stream("x1", "x2", 1, QueryBudgetPolicy(2), 0)
    assert len(stream.segments) == 4
    assert all(s.end - s.start == Fraction(1, 4) for s in stream.segments)
    assert validate(stream) == []


def test_two_point_only_the_two_pairs():
    stream = gen_two_point_stream("x1", "x2", 3, SLOPE1, 5)
    assert {(s.x, s.y) for s in stream.segments} <= {("x1", 0), ("x2", 1)}


def test_two_point_realizable_for_separating_concept():
    stream = gen_two_point_stream("x1", "x2", 2, SLOPE1, 9)
    h = {"x1": 0, "x2": 1}
    assert all(h[s.x] == s.y for s in stream.segments)


def test_two_point_degenerate_budget():
    stream = gen_two_point_stream("x1", "x2", 1, QueryBudgetPolicy(Fraction(1, 2)), 1)
    seg, = stream.segments
    assert seg.end - seg.start == 1


# --- exact blind error ---------------------------------------------------------------

def test_blind_error_no_queries():
    assert exact_blind_error(1, QueryBudgetPolicy(2), []) == Fraction(1, 2)


def test_blind_error_half_covered_is_quarter():
    value = exact_blind_error(1, QueryBudgetPolicy(2), [Fraction(1, 8), Fraction(3, 8)])
    assert value == Fraction(1, 4)


def test_blind_error_every_admissible_placement_bounded_below():
    # exhaustive over sub-interval coverage patterns for units <= 2, slope 1
    for units in (1, 2):
        subints = []
        for n in range(1, units + 1):
            k = n  # budget(n) with slope 1
            width = Fraction(1, 2 * k)
            subints.append([(Fraction(n - 1) + width * j, k) for j in range(2 * k)])
        per_unit_choices = []
        for n, pieces in enumerate(subints, start=1):
            k = pieces[0][1]
            opts = []
            for take in range(0, k + 1):
                opts.extend(combinations([p[0] for p in pieces], take))
            per_unit_choices.append(opts)
        for combo in product(*per_unit_choices):
            times = [t for unit in combo for t in unit]
            value = exact_blind_error(units, SLOPE1, times)
            assert value >= Fraction(units, 4)


def test_blind_error_optimal_placement_hits_quarter_per_unit():
    for units in (1, 2, 4):
        times = []
        for n in range(1, units + 1):
            k = n
            width = Fraction(1, 2 * k)
            times.extend(Fraction(n - 1) + width * j for j in range(k))
        assert exact_blind_error(units, SLOPE1, times) == Fraction(units, 4)


def test_blind_error_budget_violation():
    with pytest.raises(BudgetViolationError):
        exact_blind_error(1, SLOPE1, [Fraction(1, 8), Fraction(3, 8)])


def _blind_error_naive(units, budget, query_times):
    """Reference: scan every time for every unit, every time in the unit for
    every sub-interval."""
    times = sorted(Fraction(t) for t in query_times)
    total = Fraction(0)
    for n in range(1, units + 1):
        lo_unit, hi_unit = Fraction(n - 1), Fraction(n)
        in_unit = [t for t in times if lo_unit <= t < hi_unit]
        k = budget.budget(n)
        if len(in_unit) > k:
            raise BudgetViolationError(
                f"{len(in_unit)} queries in [{n - 1}, {n}) exceed budget({n}) = {k}"
            )
        pieces = 2 * k if k >= 1 else 1
        width = Fraction(1, pieces)
        for j in range(pieces):
            lo = lo_unit + width * j
            if not any(lo <= t < lo + width for t in in_unit):
                total += width / 2
    return total


def _seeded_placement(rng, units, budget):
    """Up to budget(n) (sometimes one more) times per unit: sub-interval
    edges, points just inside an edge, random rationals and repeats, plus a
    few times outside [0, units)."""
    times = []
    for n in range(1, units + 1):
        k = budget.budget(n)
        pieces = 2 * k if k >= 1 else 1
        take = rng.randint(0, k + (1 if rng.random() < 0.2 else 0))
        for _ in range(take):
            j = rng.randrange(pieces)
            edge = Fraction(n - 1) + Fraction(j, pieces)
            kind = rng.randrange(4)
            if kind == 0:
                times.append(edge)
            elif kind == 1:
                times.append(edge + Fraction(1, pieces) - Fraction(1, 10**9))
            elif kind == 2:
                times.append(edge + Fraction(rng.randrange(1, 97), 97 * pieces))
            else:
                times.append(times[-1] if times else edge)
    if rng.random() < 0.5:
        times.extend([Fraction(-1, 3), Fraction(units), Fraction(2 * units + 1, 2)])
    rng.shuffle(times)
    return times


def test_blind_error_matches_naive_reference():
    rng = random.Random(7)
    violations = 0
    for _ in range(300):
        units = rng.randint(1, 12)
        slope = rng.choice([Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), 3])
        budget = QueryBudgetPolicy(slope)
        times = _seeded_placement(rng, units, budget)
        try:
            expected = _blind_error_naive(units, budget, times)
        except BudgetViolationError as exc:
            violations += 1
            with pytest.raises(BudgetViolationError) as got:
                exact_blind_error(units, budget, times)
            assert str(got.value) == str(exc)
        else:
            assert exact_blind_error(units, budget, times) == expected
            assert exact_blind_error(units, budget, set(times)) == _blind_error_naive(
                units, budget, set(times)
            )
    assert 0 < violations < 300


# --- self-revealing streams -------------------------------------------------------------

def test_self_revealing_first_token_decodes_whole_segment():
    stream = gen_self_revealing_stream(FULL2, [0, 2], 4, 7)
    assert validate(stream) == []
    x0, _ = stream.value_at(Fraction(0))
    schedule, nxt = decode_reveal_token(x0)
    assert nxt == 2
    cursor = Fraction(0)
    for x, y, lo, hi in schedule:
        assert lo == cursor
        # the painted pieces past the token carry the same labels
        assert stream.value_at(lo)[1] == y
        cursor = hi
    assert cursor == 2


def test_self_revealing_segments_individually_realizable():
    # each reveal segment is consistent with some concept of the source;
    # segments use independent branches, so only per-segment realizability
    # is promised
    stream = gen_self_revealing_stream(FULL2, [0, 1, 2, 3], 4, 11)
    bounds = [Fraction(i) for i in range(5)]
    for a, b in zip(bounds, bounds[1:]):
        pairs = [(seg.x, seg.y) for seg in stream.segments
                 if seg.start >= a and seg.end <= b and not is_reveal_token(seg.x)]
        token_seg = next(s for s in stream.segments if s.start == a)
        schedule, _ = decode_reveal_token(token_seg.x)
        assert realizable(FULL2, pairs + [schedule[0][:2]])


def test_self_revealing_rejects_bad_reveals():
    with pytest.raises(ValueError):
        gen_self_revealing_stream(FULL2, [1, 2], 4, 0)  # must start at 0
    with pytest.raises(ValueError):
        gen_self_revealing_stream(FULL2, [0, 5], 4, 0)  # beyond horizon


@pytest.mark.parametrize("reveals, horizon, message", [
    ([0, "1/2", 0.5], 2, "strictly increasing"),  # equal once on one grid
    ([0, Fraction(4, 2)], "2", "inside \\[0, horizon\\)"),
    ([1, 2], 1, "start at 0"),  # checked before the horizon check
])
def test_self_revealing_reveal_checks_on_the_integer_grid(reveals, horizon, message):
    with pytest.raises(ValueError, match=message):
        gen_self_revealing_stream(FULL2, reveals, horizon, 0)


def test_self_revealing_tiny_reveal_is_followed_exactly():
    tiny = Fraction(1, 10**400 + 1)
    stream = gen_self_revealing_stream(FULL2, [0, tiny], 1, 3)
    assert validate(stream) == []
    report = run_adaptive_sampler(stream)
    assert report.mistake_integral == 0
    assert [e.time for e in report.query_events] == [0, tiny]


def _self_revealing_reference(source, reveals, horizon, seed):
    """Reference: one scalar ``rng.integers(0, 2)`` draw per branch bit, and
    each token written by ``json.dumps``."""
    rng = np.random.default_rng(seed)
    tree = build_littlestone_tree(source, 2)
    bounds = [Fraction(t) for t in reveals] + [Fraction(horizon)]
    segments = []
    for a, b in zip(bounds, bounds[1:]):
        if tree is not None:
            mid = (a + b) / 2
            node, inner = tree, []
            for lo, hi in [(a, mid), (mid, b)]:
                bit = int(rng.integers(0, 2))
                inner.append((node.x, bit, lo, hi))
                node = node.right if bit else node.left
        else:
            h = int(rng.integers(0, len(source.concepts)))
            xi = int(rng.integers(0, len(source.space.instances)))
            x = source.space.instances[xi]
            inner = [(x, source.concepts[h][xi], a, b)]
        payload = [[x, y, f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"]
                   for x, y, lo, hi in inner]
        token = (f"SEG({json.dumps(payload, separators=(',', ':'))})"
                 f"|next={b.numerator}/{b.denominator}")
        segments.append(Segment(inner[0][2], inner[0][3], token, inner[0][1]))
        segments.extend(Segment(lo, hi, x, y) for x, y, lo, hi in inner[1:])
    return segments


@pytest.mark.parametrize("source, dim", [
    (FULL2, 2),
    (full_class(3), 3),
    (ConceptClass(FULL2.space, ((0, 0), (1, 0))), 1),
    (ConceptClass(FULL2.space, ((0, 1),)), 0),
], ids=["full-2", "full-3", "ld-1", "ld-0"])
def test_self_revealing_matches_scalar_draw_reference(source, dim):
    assert littlestone_dimension(source) == dim
    rng = random.Random(dim)
    for seed in range(60):
        horizon = Fraction(rng.randint(2, 40), rng.choice((1, 2, 3, 7)))
        cuts = {Fraction(rng.randint(1, 400), rng.choice((1, 3, 10, 1000003))) for _ in range(12)}
        reveals = [Fraction(0), *sorted(t for t in cuts if t < horizon)]
        stream = gen_self_revealing_stream(source, reveals, horizon, seed)
        assert list(stream.segments) == _self_revealing_reference(source, reveals, horizon, seed)
        assert stream.horizon == horizon


# --- every generator builds what the public constructor builds ----------------------

def assert_public_stream(stream):
    """The stream equals its public-constructor rebuild, grid included, is
    valid, and holds every bound as a Fraction."""
    public = PiecewiseStream(
        stream.horizon, [Segment(s.start, s.end, s.x, s.y) for s in stream.segments]
    )
    assert stream == public
    assert stream.grid == public.grid
    assert validate(stream) == []
    times = [stream.horizon, *(v for s in stream.segments for v in (s.start, s.end))]
    assert all(type(v) is Fraction for v in times)


SOURCES = [ConceptClass(FULL2.space, ((0, 1),)), ConceptClass(FULL2.space, ((0, 0), (1, 0))),
           FULL2, full_class(3)]  # Littlestone dimension 0, 1, 2, 3


@given(st.sampled_from(SOURCES),
       st.fractions(min_value=Fraction(1, 8), max_value=40, max_denominator=12),
       st.lists(st.fractions(min_value=0, max_value=40, max_denominator=12), max_size=10),
       st.integers(0, 2**32))
@example(FULL2, Fraction(6), [Fraction(2), Fraction(4)], 0)  # even reveals: den reduces
@example(full_class(3), Fraction(9, 2), [Fraction(3, 2), Fraction(5, 2)], 1)
@example(SOURCES[0], Fraction(4), [Fraction(2)], 2)
def test_self_revealing_stream_equals_the_public_construction(source, horizon, cuts, seed):
    reveals = [Fraction(0), *sorted({t for t in cuts if 0 < t < horizon})]
    assert_public_stream(gen_self_revealing_stream(source, reveals, horizon, seed))


def test_self_revealing_layout_slot_serves_no_stale_layout():
    # interleaved layouts replace the one slot at every switch: two reveal
    # grids, one grid under two trees naming different instances, and one
    # grid, (0, 2) over den, whose den moves with the horizon alone
    renamed = ConceptClass(InstanceSpace(("p", "q")), FULL2.concepts)
    assert build_littlestone_tree(renamed, 2).x != build_littlestone_tree(FULL2, 2).x
    layouts = [(FULL2, [0, 1, 2, 3], 4), (renamed, [0, 1, 2, 3], 4),
               (FULL2, [0, Fraction(1, 3), 2], Fraction(5, 2)),
               (FULL2, [0], 1), (FULL2, [0], Fraction(1, 2)), (FULL2, [0], Fraction(1, 3))]
    for round_ in range(4):
        for source, reveals, horizon in layouts:
            # the second call in a row fills the slot and the third reuses it
            for seed in (round_, round_ + 50, round_ + 100):
                stream = gen_self_revealing_stream(source, reveals, horizon, seed)
                assert list(stream.segments) == _self_revealing_reference(
                    source, reveals, horizon, seed)
                assert_public_stream(stream)


def test_self_revealing_layout_slot_holds_one_layout():
    gen_self_revealing_stream(FULL2, [0, 1], 2, 0)  # leaves only its key in the slot
    first = gen_self_revealing_stream(FULL2, [0, 1], 2, 0)  # fills the slot
    again = gen_self_revealing_stream(FULL2, [0, 1], 2, 0)
    assert all(a is b for a, b in zip(first.segments, again.segments))  # shared, not rebuilt
    refs = [weakref.ref(seg) for seg in first.segments]
    del first, again
    gen_self_revealing_stream(FULL2, [0, 1, 2], 3, 0)  # a new layout replaces the slot
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_self_revealing_single_call_keeps_no_segment():
    gen_self_revealing_stream(FULL2, [0, 1, 2], 3, 0)  # a key no call below meets
    stream = gen_self_revealing_stream(FULL2, [0, 1], 2, 0)
    refs = [weakref.ref(seg) for seg in stream.segments]
    del stream
    gc.collect()
    assert all(ref() is None for ref in refs)


@given(st.sampled_from([(full_class(4), 4), (full_class(8), 8)]), st.integers(1, 3),
       st.integers(1, 4), st.integers(0, 3),
       st.one_of(st.none(), st.just(Fraction(10**400 + 1, 2)),
                 st.fractions(min_value=0, max_value=30, max_denominator=9)),
       st.integers(0, 2**32))
@example((full_class(8), 8), 1, 4, 0, Fraction(10**400 + 1, 2), 0)
@example((full_class(4), 4), 2, 1, 0, Fraction(8), 0)
def test_branch_stream_equals_the_public_construction(source, n, k, extra, horizon, seed):
    H, dim = source
    k = min(k, dim // 2)  # budget(4n) = k, so the tree has depth 2k <= dim
    if horizon is not None:
        horizon = max(horizon, Fraction(4 * n)) + extra
    budget = QueryBudgetPolicy(Fraction(k, 4 * n))
    assert_public_stream(gen_littlestone_branch_stream(H, n, budget, seed, horizon=horizon))


@given(st.integers(1, 12), st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
       st.integers(0, 2**32))
@example(3, Fraction(1, 3), 0)  # budget(1) = budget(2) = 0: one piece per unit
@example(4, Fraction(1), 1)
def test_two_point_stream_equals_the_public_construction(units, slope, seed):
    budget = QueryBudgetPolicy(slope)
    stream = gen_two_point_stream("x1", "x2", units, budget, seed)
    assert_public_stream(stream)
    assert list(stream.segments) == _two_point_reference(units, budget, seed)


def _two_point_reference(units, budget, seed):
    """Reference: one scalar ``rng.integers(0, 2)`` draw per piece, each
    bound a Fraction of its own."""
    rng = np.random.default_rng(seed)
    segments = []
    for n in range(1, units + 1):
        pieces = max(2 * budget.budget(n), 1)
        for j in range(pieces):
            lo = n - 1 + Fraction(j, pieces)
            x, y = (("x1", 0), ("x2", 1))[int(rng.integers(0, 2))]
            segments.append(Segment(lo, lo + Fraction(1, pieces), x, y))
    return segments


def test_two_point_needs_two_instances():
    with pytest.raises(ValueError) as exc:
        gen_two_point_stream("a", "a", 1, QueryBudgetPolicy(1), 0)
    assert str(exc.value) == "the two instances must be distinct"


def test_self_revealing_needs_a_concept():
    with pytest.raises(QstreamError) as exc:
        gen_self_revealing_stream(ConceptClass(FULL2.space, ()), [0], 1, 0)
    assert str(exc.value) == "source class is empty"
