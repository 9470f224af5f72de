import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstream import arena
from qstream.arena import (
    QueryEvent,
    RunReport,
    mistake_integral,
    monte_carlo_uniform,
    run_adaptive_sampler,
    run_uniform_sampler,
)
from qstream.adversaries import (
    decode_reveal_token,
    gen_littlestone_branch_stream,
    gen_self_revealing_stream,
)
from qstream.littlestone import (
    LittlestoneSolver,
    littlestone_dimension,
    soa_predict,
)
from qstream.model import (
    ConceptClass,
    InstanceSpace,
    MalformedTokenError,
    NonRealizableError,
    PiecewiseStream,
    QstreamError,
    QueryBudgetPolicy,
    Segment,
    fraction_to_json,
    validate,
)
from test_adversaries import MALFORMED_STEPS, MALFORMED_TOKENS, TIME_FORMS

AB = InstanceSpace(("a", "b"))
FULL_AB = ConceptClass(AB, tuple(product((0, 1), repeat=2)))
SINGLETON = ConceptClass(AB, ((0, 1),))


def on_grid(stream, pieces):
    """``mistake_integral``'s (den, pieces) for Fraction (start, end, label)
    rows: their bounds as integers over the lcm of the stream's grid den and
    every bound's denominator."""
    den = math.lcm(stream.grid[0], *(Fraction(v).denominator for a, b, _ in pieces for v in (a, b)))
    return den, [(int(a * den), int(b * den), y) for a, b, y in pieces]


def test_integral_zero_when_trace_matches():
    stream = PiecewiseStream(2, (Segment(0, 1, "a", 0), Segment(1, 2, "b", 1)))
    assert mistake_integral(stream, 1, [(0, 1, 0), (1, 2, 1)]) == 0


def test_integral_width_arithmetic():
    stream = PiecewiseStream(2, (Segment(0, 2, "a", 0),))
    assert mistake_integral(stream, 1, [(0, 1, 1), (1, 2, 0)]) == 1


def test_integral_refined_quarters():
    # four quarter-width segments on [0,1); trace wrong on exactly two
    segs = tuple(
        Segment(Fraction(i, 4), Fraction(i + 1, 4), "a", i % 2) for i in range(4)
    )
    stream = PiecewiseStream(1, segs)
    # stream labels 0,1,0,1 vs constant 1 -> wrong on quarters 1 and 3, in
    # quarters and in the same pieces over a multiple of the grid's den
    assert mistake_integral(stream, 4, [(0, 1, 1), (1, 3, 1), (3, 4, 1)]) == Fraction(1, 2)
    assert mistake_integral(stream, 12, [(0, 3, 1), (3, 9, 1), (9, 12, 1)]) == Fraction(1, 2)


@pytest.mark.parametrize("den", [0, -2, -4, 1, 3, 6])
def test_integral_rejects_den_off_the_grid(den):
    # the grid's den is 4; pieces are written over 4, so only den breaks
    quarter = Fraction(1, 4)
    stream = PiecewiseStream(1, (Segment(0, quarter, "a", 0), Segment(quarter, 1, "a", 1)))
    message = f"den must be a positive multiple of the grid's 4, got {den}"
    with pytest.raises(ValueError, match=message):
        mistake_integral(stream, den, [(0, 4, 0)])


@given(st.lists(st.integers(1, 4), min_size=1, max_size=5),
       st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
@settings(max_examples=50)
def test_integral_invariant_under_resplitting(widths, cuts, data):
    cursor = Fraction(0)
    segs = []
    for i, w in enumerate(widths):
        segs.append(Segment(cursor, cursor + w, "a", i % 2))
        cursor += w
    stream = PiecewiseStream(cursor, tuple(segs))
    labels = [data.draw(st.integers(0, 1)) for _ in widths]
    pieces = [(s.start, s.end, y) for s, y in zip(segs, labels)]
    base = mistake_integral(stream, *on_grid(stream, pieces))

    # re-split every stream segment into equal pieces with identical content
    refined = []
    for s, k in zip(segs, cuts * len(segs)):
        step = (s.end - s.start) / k
        for j in range(k):
            refined.append(Segment(s.start + step * j, s.start + step * (j + 1), s.x, s.y))
    stream2 = PiecewiseStream(cursor, tuple(refined))
    assert validate(stream2) == []
    assert mistake_integral(stream2, *on_grid(stream2, pieces)) == base


def _mistake_integral_naive(stream, pieces):
    """Reference: the sweep over Fraction (start, end, label) pieces in
    Fraction arithmetic, comparing and taking ``min`` over Fractions at
    every step."""
    total = Fraction(0)
    si = ti = 0
    cursor = Fraction(0)
    while cursor < stream.horizon:
        while si < len(stream.segments) and stream.segments[si].end <= cursor:
            si += 1
        while ti < len(pieces) and pieces[ti][1] <= cursor:
            ti += 1
        if si >= len(stream.segments) or ti >= len(pieces):
            raise ValueError(f"coverage ends before horizon at {cursor}")
        seg = stream.segments[si]
        piece = pieces[ti]
        if seg.start > cursor or piece[0] > cursor:
            raise ValueError(f"coverage gap at {cursor}")
        stop = min(seg.end, piece[1], stream.horizon)
        if piece[2] != seg.y:
            total += stop - cursor
        cursor = stop
    return total


# small denominators mixed with large pairwise coprime ones
DENOMINATORS = (1, 2, 3, 4, 6, 10, 10007, 65537, 999983, 2**31 - 1, 2**61 - 1)


def _seeded_cover(rng, horizon):
    """(start, end, label) rows over [0, horizon) at random cuts, sometimes
    with one row dropped (a gap), the tail cut short (an early end) or the
    last row running past the horizon."""
    cuts = set()
    for _ in range(rng.randint(0, 8)):
        q = rng.choice(DENOMINATORS)
        cut = Fraction(rng.randint(1, horizon * q - 1) if horizon * q > 1 else 0, q)
        if 0 < cut < horizon:
            cuts.add(cut)
    bounds = [Fraction(0), *sorted(cuts), Fraction(horizon)]
    rows = [(a, b, rng.randint(0, 1)) for a, b in zip(bounds, bounds[1:])]
    roll = rng.random()
    if roll < 0.1:
        del rows[rng.randrange(len(rows))]
    elif roll < 0.2:
        end = rows[-1][1] - Fraction(1, rng.choice(DENOMINATORS[1:]))
        if end > rows[-1][0]:
            rows[-1] = (rows[-1][0], end, rows[-1][2])
        else:
            rows.pop()
    elif roll < 0.3:
        rows[-1] = (rows[-1][0], rows[-1][1] + Fraction(1, rng.choice(DENOMINATORS)), rows[-1][2])
    return rows


def test_mistake_integral_matches_naive_reference():
    rng = random.Random(17)
    outcomes = dict.fromkeys(("value", "ends", "gap"), 0)
    for _ in range(300):
        horizon = rng.randint(1, 6)
        stream = PiecewiseStream(
            horizon, tuple(Segment(a, b, "a", y) for a, b, y in _seeded_cover(rng, horizon))
        )
        pieces = _seeded_cover(rng, horizon)
        try:
            expected = _mistake_integral_naive(stream, pieces)
        except ValueError as exc:
            outcomes[next(k for k in outcomes if k in str(exc))] += 1
            with pytest.raises(ValueError) as got:
                mistake_integral(stream, *on_grid(stream, pieces))
            assert str(got.value) == str(exc)
        else:
            outcomes["value"] += 1
            got = mistake_integral(stream, *on_grid(stream, pieces))
            assert got == expected and type(got) is Fraction
    assert all(outcomes.values()), outcomes
    assert outcomes["value"] >= 150, outcomes


# --- uniform sampler ---------------------------------------------------------

def branch_stream(seed, n=4, slope=Fraction(1, 16)):
    return gen_littlestone_branch_stream(FULL_AB, n, QueryBudgetPolicy(slope), seed)


def test_uniform_singleton_never_errs():
    stream = PiecewiseStream(4, (Segment(0, 2, "a", 0), Segment(2, 4, "b", 1)))
    report = run_uniform_sampler(SINGLETON, stream, 1, 0)
    assert report.mistake_integral == 0


def test_uniform_successes_bounded_by_dimension():
    dim = littlestone_dimension(FULL_AB)
    for seed in range(25):
        report = run_uniform_sampler(FULL_AB, branch_stream(seed), 1, seed)
        assert report.successful_queries <= dim
        assert 0 <= report.mistake_integral <= 16
        assert len(report.epoch_errors) <= dim


def test_uniform_deterministic_given_seed():
    a = run_uniform_sampler(FULL_AB, branch_stream(3), 1, 11)
    b = run_uniform_sampler(FULL_AB, branch_stream(3), 1, 11)
    assert a == b


def test_uniform_query_times_strictly_increase():
    report = run_uniform_sampler(FULL_AB, branch_stream(5), Fraction(1, 2), 9)
    times = [e.time for e in report.query_events]
    assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))


def test_uniform_non_realizable_raises():
    # the stream shows (a,0) then (a,1); no single concept survives both
    stream = PiecewiseStream(2, (Segment(0, 1, "a", 0), Segment(1, 2, "a", 1)))
    with pytest.raises(NonRealizableError):
        run_uniform_sampler(ConceptClass(AB, ((0, 0),)), stream, Fraction(1, 4), 2)


def test_uniform_reset_mode_survives_inconsistency():
    stream = PiecewiseStream(2, (Segment(0, 1, "a", 0), Segment(1, 2, "a", 1)))
    report = run_uniform_sampler(ConceptClass(AB, ((0, 0),)), stream, Fraction(1, 4), 2, on_empty="reset")
    assert report.mistake_integral >= 0


def test_uniform_rejects_unknown_on_empty_mode():
    stream = PiecewiseStream(1, (Segment(0, 1, "a", 0),))
    with pytest.raises(ValueError) as exc:
        run_uniform_sampler(FULL_AB, stream, 1, 0, on_empty="x")
    assert str(exc.value) == "on_empty must be 'error' or 'reset', got 'x'"


def test_uniform_rejects_coverage_gap():
    # [1, 2) is covered by no segment; it must not be counted under the
    # next segment's label
    stream = PiecewiseStream(3, (Segment(0, 1, "a", 0), Segment(2, 3, "b", 1)))
    with pytest.raises(ValueError, match="coverage gap at 1"):
        run_uniform_sampler(FULL_AB, stream, 3, 3)


@pytest.mark.parametrize("segments, end", [((Segment(0, 1, "a", 0),), 1), ((), 0)])
def test_uniform_rejects_stream_ending_before_horizon(segments, end):
    stream = PiecewiseStream(3, segments)
    for seed in range(5):
        with pytest.raises(ValueError, match=f"coverage ends before horizon at {end}"):
            run_uniform_sampler(FULL_AB, stream, 1, seed)


def test_monte_carlo_singleton_zero():
    stream = PiecewiseStream(4, (Segment(0, 4, "a", 0),))
    stats = monte_carlo_uniform(SINGLETON, stream, 1, 20, 0)
    assert stats.mean == 0.0 and stats.stderr == 0.0


def test_monte_carlo_bounds_hold_smoke():
    stats = monte_carlo_uniform(FULL_AB, branch_stream, 1, 300, 123)
    dim = littlestone_dimension(FULL_AB)
    assert stats.mean <= dim * 1.0 + 3 * stats.stderr
    for es in stats.per_epoch:
        assert es.mean <= 1.0 + 3 * es.stderr


def test_monte_carlo_needs_two_trials():
    with pytest.raises(ValueError):
        monte_carlo_uniform(FULL_AB, branch_stream, 1, 1, 0)


@pytest.mark.parametrize("delta", [0, -1])
def test_uniform_sampler_rejects_delta_not_positive(delta):
    # monte_carlo_uniform checks delta before its first stream, so only a
    # direct call reaches the sampler's own check
    stream = PiecewiseStream(1, (Segment(0, 1, "a", 0),))
    with pytest.raises(ValueError, match=f"delta must be positive, got {delta}"):
        run_uniform_sampler(FULL_AB, stream, delta, 0)


@pytest.mark.parametrize("delta", [Fraction(1, 10**400), "1e-400", {"num": 1, "den": 2**1100}])
def test_sampler_rejects_a_positive_delta_that_underflows_a_float(delta):
    # float(delta) is 0.0, and a zero step would never advance time
    stream = PiecewiseStream(1, (Segment(0, 1, "a", 0),))
    with pytest.raises(ValueError, match=r"underflows a float to 0\.0"):
        run_uniform_sampler(FULL_AB, stream, delta, 0)
    with pytest.raises(ValueError, match=r"underflows a float to 0\.0"):
        monte_carlo_uniform(FULL_AB, branch_stream, delta, 2, 0)


@pytest.mark.parametrize("seed, delta", [(0, Fraction(1, 4)), (7, Fraction(1, 3)), (8, 2)])
def test_uniform_query_times_are_the_drawn_floats_in_lowest_terms(seed, delta):
    # replay the draws: t = anchor + span * u, redrawn while t equals a
    # previous query time, up to the horizon 16
    report = run_uniform_sampler(FULL_AB, branch_stream(seed), delta, seed)
    uniforms = iter(np.random.default_rng(seed).random(64 * 20).tolist())
    anchor, drawn, delta_f = 0.0, [], float(delta)
    while True:
        t = anchor + ((anchor + delta_f) - anchor) * next(uniforms)
        while drawn and t == anchor:
            t = anchor + ((anchor + delta_f) - anchor) * next(uniforms)
        if t >= 16:
            break
        drawn.append(t)
        anchor = t
    times = [e.time for e in report.query_events]
    assert len(times) == len(drawn) > 10
    for time, t in zip(times, drawn):
        assert type(time) is Fraction and time == Fraction(t)
        assert math.gcd(time.numerator, time.denominator) == 1
        assert time.denominator & (time.denominator - 1) == 0  # a power of two


def test_monte_carlo_deterministic():
    a = monte_carlo_uniform(FULL_AB, branch_stream, 1, 50, 77)
    b = monte_carlo_uniform(FULL_AB, branch_stream, 1, 50, 77)
    assert a.integrals == b.integrals


# --- adaptive sampler ----------------------------------------------------------

def test_adaptive_zero_error_and_exact_query_times():
    reveals = [Fraction(0), Fraction(3, 2), Fraction(3), Fraction(5)]
    stream = gen_self_revealing_stream(FULL_AB, reveals, 6, 21)
    report = run_adaptive_sampler(stream)
    assert report.mistake_integral == 0
    assert [e.time for e in report.query_events] == reveals
    assert len(report.query_events) <= 6  # slope-1 budget


def test_adaptive_on_stream_without_segments_raises_value_error():
    with pytest.raises(ValueError, match="stream does not cover time 0"):
        run_adaptive_sampler(PiecewiseStream(2, ()))


def test_adaptive_rejects_plain_stream():
    stream = PiecewiseStream(2, (Segment(0, 2, "a", 0),))
    with pytest.raises(MalformedTokenError, match="not a self-revealing stream"):
        run_adaptive_sampler(stream)


def test_adaptive_rejects_non_string_instance():
    # validate reports the segment; the sampler must not fail on str methods
    stream = PiecewiseStream(1, (Segment(0, 1, 5, 0),))
    with pytest.raises(MalformedTokenError, match="not a self-revealing stream at t=0"):
        run_adaptive_sampler(stream)


def _adaptive_sampler_reference(stream):
    """Reference: every time a Fraction, ``value_at`` by a Fraction binary
    search, tokens read by ``decode_reveal_token``, and the integral by
    ``_mistake_integral_naive`` over the Fraction pieces."""
    def value_at(t):
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
        return stream.segments[lo].x, stream.segments[lo].y

    events, pieces = [], []
    t = Fraction(0)
    last_label = 0
    while t < stream.horizon:
        x, y = value_at(t)
        if not (isinstance(x, str) and x.startswith("SEG(") and ")|next=" in x):
            raise MalformedTokenError(f"not a self-revealing stream at t={t}")
        schedule, next_reveal = decode_reveal_token(x)
        events.append(QueryEvent(t, x, y, success=last_label != y))
        cursor = t
        for _, sy, lo, hi in schedule:
            if lo != cursor:
                raise MalformedTokenError(f"decoded schedule has a gap at {cursor}")
            pieces.append((lo, hi, sy))
            cursor = hi
            last_label = sy
        if cursor != min(next_reveal, stream.horizon):
            raise MalformedTokenError(
                f"decoded schedule ends at {cursor}, expected {next_reveal}"
            )
        if next_reveal <= t:
            raise MalformedTokenError("next reveal does not advance time")
        t = next_reveal
    integral = _mistake_integral_naive(stream, pieces)
    return RunReport(integral, tuple(events), (), None, {"horizon": str(stream.horizon)})


def _assert_adaptive_matches_reference(stream):
    """Same report and JSON, or the same exception type and message; returns
    the reference's exception, or None."""
    try:
        expected = _adaptive_sampler_reference(stream)
    except (ValueError, QstreamError) as exc:
        with pytest.raises(type(exc)) as got:
            run_adaptive_sampler(stream)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return exc
    report = run_adaptive_sampler(stream)
    assert report == expected and report.to_json() == expected.to_json()
    assert type(report.mistake_integral) is Fraction
    assert all(type(e.time) is Fraction for e in report.query_events)
    return None


def test_adaptive_sampler_matches_reference_on_generated_streams():
    # reveal grids of denominators 1, 2, 3 and 7, evenly and unevenly spaced,
    # from classes with and without a depth-2 shattered tree
    rng = random.Random(7)
    sources = (FULL_AB, SINGLETON, FULL_4)
    for case in range(120):
        den = (1, 2, 3, 7)[case % 4]
        horizon = Fraction(rng.randint(1, 10 * den), den)
        if case % 8 < 4:
            step = Fraction(rng.randint(1, 3), den)
            reveals = [k * step for k in range(int(horizon / step) + 1) if k * step < horizon]
        else:
            cuts = {Fraction(rng.randint(1, 10 * den), den) for _ in range(rng.randint(0, 6))}
            reveals = [Fraction(0), *sorted(c for c in cuts if c < horizon)]
        stream = gen_self_revealing_stream(sources[case % 3], reveals, horizon, case)
        assert _assert_adaptive_matches_reference(stream) is None
        report = run_adaptive_sampler(stream)
        assert report.mistake_integral == 0
        assert [e.time for e in report.query_events] == reveals


def _hand_made_stream(rng):
    """A stream whose tokens announce schedules split at times on and off
    the stream's grid, with random labels, and now and then a broken token,
    a reveal that does not advance, a schedule that runs back, a non-string
    instance or a coverage gap."""
    stream_den = rng.choice((1, 2, 3))
    units = rng.randint(2, 12 * stream_den)
    horizon = Fraction(units, stream_den)
    reveal_den = rng.choice((1, 5, 7))
    cuts = {Fraction(rng.randint(1, 12 * reveal_den), reveal_den) for _ in range(rng.randint(0, 4))}
    reveals = [Fraction(0), *sorted(c for c in cuts if c < horizon)]
    grid = {Fraction(k, stream_den) for k in range(1, units)}
    # a reveal off the stream grid either starts its own segment or falls
    # inside one
    grid |= {r for r in reveals if rng.random() < 0.5}
    bounds = [Fraction(0), *sorted(grid), horizon]
    nexts = reveals[1:] + [horizon]
    segments = []
    for a, b in zip(bounds, bounds[1:]):
        held = [i for i, r in enumerate(reveals) if a <= r < b]
        if not held:
            segments.append(Segment(a, b, rng.choice("ab"), rng.randint(0, 1)))
            continue
        i = held[0]
        lo, hi = reveals[i], nexts[i]
        if rng.random() < 0.5:  # splits on the stream's grid, so den stays
            inner = [g for g in bounds if lo < g < hi]
            splits = sorted(rng.sample(inner, min(len(inner), rng.randint(0, 2))))
        else:  # splits off it
            split_den = rng.choice((11, 13, 2**20))
            splits = sorted({Fraction(rng.randint(1, 50), split_den) * (hi - lo) / 50 + lo
                             for _ in range(rng.randint(0, 2))} - {lo, hi})
        times = [lo, *splits, hi]
        steps = [[rng.choice("ab"), rng.randint(0, 1), f"{p.numerator}/{p.denominator}",
                  f"{q.numerator}/{q.denominator}"] for p, q in zip(times, times[1:])]
        tail = f"{hi.numerator}/{hi.denominator}"
        roll = rng.random()
        if roll < 0.05 and len(steps) > 1:
            del steps[0]  # a gap at the reveal
        elif roll < 0.1:
            steps[-1][3] = f"{2 * hi.numerator}/{2 * hi.denominator + 1}"  # ends early or late
        elif roll < 0.15:
            steps, tail = [], f"{lo.numerator}/{lo.denominator}"  # does not advance
        elif roll < 0.2:
            # other spellings of the same times: unreduced, integer, decimal
            tail = f"{2 * hi.numerator}/{2 * hi.denominator}"
            steps[0][2] = repr(float(lo)) if lo.denominator in (1, 5) else str(lo)
        elif roll < 0.22:
            tail = rng.choice(["1/0", "x", "-0/3", "\u0661/\u0662"])
        elif roll < 0.27:
            # a schedule that runs back before its reveal, to a time off the grid
            back = lo - Fraction(1, rng.choice((2, 11)))
            tail = f"{back.numerator}/{back.denominator}"
            steps = [["a", 0, steps[0][2], tail]]
        token = "SEG(" + json.dumps(steps, separators=(",", ":")) + ")|next=" + tail
        x = 5 if rng.random() < 0.02 else token
        segments.append(Segment(a, b, x, rng.randint(0, 1)))
    if rng.random() < 0.1 and len(segments) > 1:
        del segments[rng.randrange(len(segments))]
    return PiecewiseStream(horizon, tuple(segments))


def test_adaptive_sampler_matches_reference_on_hand_made_tokens():
    rng = random.Random(8)
    outcomes = {"value": 0, "nonzero": 0, "gap at": 0, "ends at": 0, "advance": 0,
                "not a self-revealing stream": 0, "cover": 0}
    for _ in range(600):
        stream = _hand_made_stream(rng)
        exc = _assert_adaptive_matches_reference(stream)
        if exc is None:
            outcomes["value"] += 1
            outcomes["nonzero"] += run_adaptive_sampler(stream).mistake_integral != 0
        else:
            outcomes[next(k for k in outcomes if k in str(exc))] += 1
    assert min(outcomes.values()) >= 5, outcomes
    assert outcomes["value"] >= 200, outcomes


# every malformed-token case of test_adversaries.py, by test id
MALFORMED_CASES = {
    **{f"token-{i}": token for i, token in enumerate(MALFORMED_TOKENS)},
    **{f"steps-{k}": f"SEG({body})|next=1" for k, body in MALFORMED_STEPS.items()},
    **{f"{field}-{time!r}": token for time in TIME_FORMS for field, token in (
        ("start", f'SEG([["a",0,{json.dumps(time)},"1"]])|next=1'),
        ("end", f'SEG([["a",0,"0",{json.dumps(time)}]])|next=1'),
        ("next", f'SEG([["a",0,"0","1"]])|next={time}'),
    )},
}


@pytest.mark.parametrize("token", MALFORMED_CASES.values(), ids=MALFORMED_CASES.keys())
def test_adaptive_sampler_matches_reference_on_malformed_tokens(token):
    for horizon in (1, 2):
        stream = PiecewiseStream(horizon, (Segment(0, horizon, token, 0),))
        _assert_adaptive_matches_reference(stream)


# --- frozen sampler goldens ----------------------------------------------------

GOLDEN_PATH = Path(__file__).parent / "data" / "arena_golden.json"
FULL_4 = ConceptClass(InstanceSpace(("a", "b", "c", "d")), tuple(product((0, 1), repeat=4)))
LONG_HORIZON = 16


def _long_stream(seed):
    reveals = [Fraction(k) for k in range(LONG_HORIZON)]
    return gen_self_revealing_stream(FULL_4, reveals, LONG_HORIZON, seed)


def _golden_records():
    """Full reports of the criterion 1 shape (20 seeds) and the criterion 4
    shape (10 seeds), and the integrals of one 50-trial Monte Carlo run."""
    return {
        "branch": [
            run_uniform_sampler(FULL_AB, branch_stream(seed), 1, 1000 + seed).to_json()
            for seed in range(20)
        ],
        "self_revealing": [
            run_uniform_sampler(
                FULL_4, _long_stream(seed), 1, 2000 + seed, on_empty="reset"
            ).to_json()
            for seed in range(10)
        ],
        "monte_carlo": [
            fraction_to_json(v)
            for v in monte_carlo_uniform(FULL_AB, branch_stream, 1, 50, 31).integrals
        ],
    }


def test_uniform_sampler_matches_frozen_goldens():
    # Any change to a query time, a success flag, an epoch error or an
    # integral fails here.
    frozen = json.loads(GOLDEN_PATH.read_text())
    assert (len(frozen["branch"]), len(frozen["self_revealing"]), len(frozen["monte_carlo"])) == (
        20, 10, 50
    )
    assert json.loads(json.dumps(_golden_records())) == frozen


DELTAS_PATH = Path(__file__).parent / "data" / "arena_golden_deltas.json"
GOLDEN_DELTAS = ("1/3", "1/10", "7/2", "3/1000")
# at delta 3/1000 a run makes about 10^4 queries; its events are frozen as a
# count and a SHA-256 of their JSON, which keeps the file under 2 MB
DIGEST_DELTAS = ("3/1000",)


def _frozen_report(report, delta: str) -> dict:
    doc = report.to_json()
    if delta in DIGEST_DELTAS:
        events = json.dumps(doc["query_events"], sort_keys=True).encode()
        doc["query_events"] = {
            "count": len(report.query_events),
            "sha256": hashlib.sha256(events).hexdigest(),
        }
    return doc


def _delta_records():
    """Full reports at step sizes other than 1: both sampler shapes, 5 seeds
    per delta."""
    return {
        delta: {
            "branch": [
                _frozen_report(
                    run_uniform_sampler(FULL_AB, branch_stream(seed), Fraction(delta), 3000 + seed),
                    delta,
                )
                for seed in range(5)
            ],
            "self_revealing": [
                _frozen_report(
                    run_uniform_sampler(
                        FULL_4, _long_stream(seed), Fraction(delta), 4000 + seed, on_empty="reset"
                    ),
                    delta,
                )
                for seed in range(5)
            ],
        }
        for delta in GOLDEN_DELTAS
    }


def test_uniform_sampler_matches_frozen_goldens_at_other_deltas():
    frozen = json.loads(DELTAS_PATH.read_text())
    assert sorted(frozen) == sorted(GOLDEN_DELTAS)
    assert all(len(frozen[d]["branch"]) == len(frozen[d]["self_revealing"]) == 5 for d in frozen)
    assert json.loads(json.dumps(_delta_records())) == frozen


# --- one solver per class ------------------------------------------------------

def _fresh_full_4():
    return ConceptClass(FULL_4.space, FULL_4.concepts)


def test_uniform_sampler_same_on_cold_and_warm_class():
    cold = run_uniform_sampler(_fresh_full_4(), _long_stream(3), Fraction(1, 3), 77, on_empty="reset")
    warm = _fresh_full_4()
    for seed in range(5):
        run_uniform_sampler(warm, _long_stream(seed), 1, seed, on_empty="reset")
    monte_carlo_uniform(warm, _long_stream, Fraction(1, 2), 5, 8, on_empty="reset")
    assert run_uniform_sampler(warm, _long_stream(3), Fraction(1, 3), 77, on_empty="reset") == cold
    # the shared solver's cached answers equal a fresh solver's
    shared, fresh = LittlestoneSolver.of(warm), LittlestoneSolver(warm)
    assert shared._soa and all(shared.soa_labels(ids) == fresh.soa_labels(ids) for ids in shared._soa)
    assert all(shared.dimension(ids) == fresh.dimension(ids) for ids in shared._memo)


def test_uniform_sampler_equal_classes_give_equal_reports():
    a, b = _fresh_full_4(), _fresh_full_4()
    assert a == b and LittlestoneSolver.of(a) is not LittlestoneSolver.of(b)
    for seed in range(3):
        stream = _long_stream(seed)
        assert run_uniform_sampler(a, stream, 1, seed, on_empty="reset") == run_uniform_sampler(
            b, stream, 1, seed, on_empty="reset"
        )


# --- integer time accounting vs the Fraction reference --------------------------

def _uniform_sampler_reference(H, stream, delta, seed, on_empty):
    """Reference: the sampler with every mark and epoch sum a Fraction, one
    Fraction subtraction and addition per accounted piece.  Same RNG draws,
    same SOA predictor and restriction, same error messages."""
    delta_f = float(Fraction(delta))
    rng = np.random.default_rng(seed)
    solver = LittlestoneSolver.of(H)
    segments = stream.segments
    position = {x: i for i, x in enumerate(solver.root.space.instances)}
    seg_xi = [position.get(seg.x, -1) for seg in segments]
    ids = solver.full()
    labels = solver.soa_labels(ids) + (0,)
    epoch_acc = [Fraction(0)]
    events = []
    si = 0
    mark = Fraction(0)

    def enter():
        if si == len(segments):
            raise ValueError(f"coverage ends before horizon at {mark}")
        if segments[si].start > mark:
            raise ValueError(f"coverage gap at {mark}")

    def seek(t):
        nonlocal si, mark
        while segments[si].end <= t:
            if labels[seg_xi[si]] != segments[si].y:
                epoch_acc[-1] += segments[si].end - mark
            mark = segments[si].end
            si += 1
            enter()
        return segments[si]

    def settle(seg, t):
        nonlocal mark
        if labels[seg_xi[si]] != seg.y:
            epoch_acc[-1] += t - mark
        mark = t

    if stream.horizon > 0:
        enter()
    anchor = 0.0
    queried = False
    while True:
        span = (anchor + delta_f) - anchor
        t_float = anchor + span * rng.random()
        while queried and t_float == anchor:
            t_float = anchor + span * rng.random()
        t = Fraction(t_float)
        if t >= stream.horizon:
            break
        seg = seek(t)
        x, y, xi = seg.x, seg.y, seg_xi[si]
        success = (soa_predict(H, x, ids) if xi >= 0 else 0) != y
        events.append(QueryEvent(t, x, y, success))
        nxt = ids
        if xi >= 0:
            nxt = solver.restrict_ids(ids, xi, y)
            if not nxt:
                if on_empty == "error":
                    raise NonRealizableError(
                        f"stream not realizable: ({x!r}, {y}) at {t} empties the version space"
                    )
                nxt = solver.full()
        if success or nxt != ids:
            settle(seg, t)
            if nxt != ids:
                ids = nxt
                labels = solver.soa_labels(ids) + (0,)
            if success:
                epoch_acc.append(Fraction(0))
        anchor = t_float
        queried = True

    while mark < stream.horizon:
        seg = seek(mark)
        settle(seg, min(seg.end, stream.horizon))
    epochs = epoch_acc[:-1] if epoch_acc[-1] == 0 else epoch_acc
    return sum(epoch_acc, Fraction(0)), events, epochs


ABC = InstanceSpace(("a", "b", "c"))
# coprime small and large boundary denominators, and a binary one
ACCOUNTING_DENOMINATORS = (1, 2, 3, 7, 1000003, 2**20)
# all times of a case are scaled by one of these, so tiny deltas and tiny
# horizons meet query times with large binary denominators
ACCOUNTING_SCALES = (Fraction(1), Fraction(1, 2**40), Fraction(1, 3**25))


def _accounting_case(rng):
    """(class, stream, delta, seed, on_empty, whether the horizon is a drawn
    query time), seeded from ``rng``."""
    concepts = tuple(c for c in product((0, 1), repeat=3) if rng.random() < 0.5) or ((0, 1, 0),)
    H = ConceptClass(ABC, concepts)
    scale = rng.choice(ACCOUNTING_SCALES)
    horizon = Fraction(rng.randint(1, 12), rng.choice((1, 3, 4, 7))) * scale
    delta = Fraction(rng.randint(1, 4), rng.choice((2, 3, 7, 16))) * scale
    seed = rng.randrange(2**32)
    # every time the sampler draws for (delta, seed) below the horizon; a
    # stream of one instance outside the space leaves the draws unchanged
    probe = PiecewiseStream(horizon, (Segment(0, horizon, "z", 0),))
    times = [e.time for e in _uniform_sampler_reference(H, probe, delta, seed, "error")[1]]
    on_horizon = len(times) > 1 and rng.random() < 0.2
    if on_horizon:
        # the first query past the horizon lands exactly on it
        horizon = rng.choice(times[1:])
        times = [t for t in times if t < horizon]
    cuts = set()
    for _ in range(rng.randint(0, 8)):
        q = rng.choice(ACCOUNTING_DENOMINATORS)
        cuts.add(Fraction(rng.randint(1, 12 * q), 4 * q) * scale)
    if times:
        # segment ends exactly on drawn query times
        cuts.update(rng.sample(times, min(len(times), rng.randint(0, 3))))
    # the last segment may run past a horizon that is no segment end
    tail = horizon + Fraction(1, rng.choice(ACCOUNTING_DENOMINATORS)) * scale
    bounds = [Fraction(0), *sorted(c for c in cuts if 0 < c < horizon)]
    bounds.append(tail if rng.random() < 0.3 else horizon)
    rows = [[a, b] for a, b in zip(bounds, bounds[1:])]
    roll = rng.random()
    if roll < 0.1 and len(rows) > 1:
        del rows[rng.randrange(len(rows))]  # a gap, or a late first start
    elif roll < 0.2:
        rows[-1][1] = (rows[-1][0] + rows[-1][1]) / 2  # coverage ends early
    segments = tuple(Segment(a, b, rng.choice("abcz"), rng.randint(0, 1)) for a, b in rows)
    on_empty = rng.choice(("error", "reset"))
    return H, PiecewiseStream(horizon, segments), delta, seed, on_empty, on_horizon


def test_uniform_sampler_integer_accounting_matches_fraction_reference():
    rng = random.Random(2026)
    outcomes = dict.fromkeys(
        ("value", "on-end", "on-horizon", "past-horizon",
         "coverage gap", "coverage ends", "not realizable",
         "over 64 queries", "over 128 queries"), 0  # the draws cross blocks of 64
    )
    for _ in range(300):
        H, stream, delta, seed, on_empty, on_horizon = _accounting_case(rng)
        try:
            value, events, epochs = _uniform_sampler_reference(H, stream, delta, seed, on_empty)
        except (ValueError, NonRealizableError) as exc:
            outcomes[next(k for k in outcomes if k in str(exc))] += 1
            with pytest.raises(type(exc)) as got:
                run_uniform_sampler(H, stream, delta, seed, on_empty)
            assert str(got.value) == str(exc)
            continue
        outcomes["value"] += 1
        ends = {seg.end for seg in stream.segments}
        outcomes["on-end"] += any(e.time in ends for e in events)
        outcomes["past-horizon"] += stream.segments[-1].end > stream.horizon
        outcomes["on-horizon"] += on_horizon
        outcomes["over 64 queries"] += len(events) > 64
        outcomes["over 128 queries"] += len(events) > 128
        report = run_uniform_sampler(H, stream, delta, seed, on_empty)
        assert report.mistake_integral == value and type(report.mistake_integral) is Fraction
        assert list(report.query_events) == events
        assert [e.error for e in report.epoch_errors] == epochs
        assert [e.epoch for e in report.epoch_errors] == list(range(1, len(epochs) + 1))
    assert all(outcomes.values()), outcomes
    assert outcomes["value"] >= 150, outcomes


def test_uniform_sampler_matches_reference_over_many_blocks_of_draws():
    H = ConceptClass(ABC, tuple(product((0, 1), repeat=3)))
    rng = random.Random(22)
    stream = PiecewiseStream(48, tuple(
        Segment(Fraction(i, 2), Fraction(i + 1, 2), "abcz"[i % 4], rng.randint(0, 1))
        for i in range(96)))
    value, events, epochs = _uniform_sampler_reference(H, stream, Fraction(1, 4), 5, "reset")
    assert len(events) >= 300
    gen = np.random.default_rng(5)
    report = run_uniform_sampler(H, stream, Fraction(1, 4), gen, "reset")
    assert report.mistake_integral == value
    assert list(report.query_events) == events
    assert [e.error for e in report.epoch_errors] == epochs
    # a Generator seed is left advanced by whole blocks: every query's draw
    # and the one past the horizon, rounded up to a multiple of 64
    fresh = np.random.default_rng(5)
    fresh.random(-(-(len(events) + 1) // 64) * 64)
    assert gen.random() == fresh.random()



# --- one SOA lookup per (segment, version space) ------------------------------

def _lookup_keys(H, stream, events):
    """The distinct (segment index, version space) pairs that the in-space
    queries of ``events`` meet, replayed with the solver's restriction and
    the full class after an emptying observation."""
    solver = LittlestoneSolver.of(H)
    ids, keys = solver.full(), set()
    for e in events:
        if e.x in H.space.instances:
            si = next(i for i, seg in enumerate(stream.segments) if seg.start <= e.time < seg.end)
            keys.add((si, ids))
            ids = solver.restrict_ids(ids, H.space.index_of(e.x), e.y) or solver.full()
    return keys


def test_uniform_sampler_predicts_once_per_segment_and_version_space(monkeypatch):
    calls = []

    def counted(H, x, ids=None):
        calls.append(x)
        return soa_predict(H, x, ids)

    monkeypatch.setattr(arena, "soa_predict", counted)
    for seed in range(20):  # criterion 1 trials: branch streams, delta 1
        stream_seed, run_seed = np.random.SeedSequence(seed).spawn(2)
        stream = branch_stream(stream_seed)
        calls.clear()
        report = run_uniform_sampler(FULL_AB, stream, 1, run_seed)
        keys = _lookup_keys(FULL_AB, stream, report.query_events)
        assert len(report.query_events) > len(keys) > 0  # some queries repeat a key
        assert 1 <= len(calls) <= len(keys)


def test_uniform_sampler_repeated_successes_at_one_key_each_open_an_epoch():
    # every query of the first segment, outside the space and labelled 1,
    # is a success at one (segment, version space); every query of the last
    # empties the space, and "reset" leaves it full, so each is one too
    H = ConceptClass(ABC, tuple(c for c in product((0, 1), repeat=3) if c[0] == 0))
    stream = PiecewiseStream(8, (Segment(0, 4, "z", 1), Segment(4, 6, "b", 0), Segment(6, 8, "a", 1)))
    value, events, epochs = _uniform_sampler_reference(H, stream, Fraction(1, 2), 3, "reset")
    report = run_uniform_sampler(H, stream, Fraction(1, 2), 3, "reset")
    assert report.mistake_integral == value
    assert list(report.query_events) == events
    assert [e.error for e in report.epoch_errors] == epochs
    outside = [e for e in events if e.x == "z"]
    emptying = [e for e in events if e.x == "a"]
    assert len(outside) >= 3 and len(emptying) >= 3
    assert all(e.success for e in outside + emptying)
    # each success in the first segment closes an epoch that accrued error
    assert len(epochs) > len(outside) and all(epochs[:len(outside)])

if __name__ == "__main__":
    # Regenerate the frozen reports: python tests/test_arena.py [deltas]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    if sys.argv[1:] == ["deltas"]:
        DELTAS_PATH.write_text(json.dumps(_delta_records(), sort_keys=True) + "\n")
    else:
        GOLDEN_PATH.write_text(json.dumps(_golden_records(), sort_keys=True) + "\n")
