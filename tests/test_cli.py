import argparse
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstream import cli, model
from qstream.arena import run_adaptive_sampler
from qstream.cli import main
from qstream.model import (
    ConceptClass,
    DiscretePattern,
    InstanceSpace,
    PatternClass,
)

AB = InstanceSpace(("a", "b"))
FULL_AB = ConceptClass(AB, tuple(product((0, 1), repeat=2)))
SINGLETON = ConceptClass(InstanceSpace(("a",)), ((0,),))


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        if isinstance(obj, str):
            path.write_text(obj)
        else:
            path.write_text(model.dumps(obj))
        return str(path)

    return tmp_path, write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ld_singleton(files, capsys):
    _, write = files
    path = write("cls.json", SINGLETON)
    code, out, _ = run(capsys, "ld", "--class", path)
    assert code == 0 and out.strip() == "0"


def test_ld_full_class(files, capsys):
    _, write = files
    path = write("cls.json", FULL_AB)
    code, out, _ = run(capsys, "ld", "--class", path)
    assert code == 0 and out.strip() == "2"


def test_ld_empty_concepts_exit_2(files, capsys):
    _, write = files
    path = write("cls.json", '{"instances": ["a"], "concepts": []}')
    code, _, err = run(capsys, "ld", "--class", path)
    assert code == 2 and "empty" in err


def test_ld_malformed_json_exit_2(files, capsys):
    _, write = files
    path = write("cls.json", "{nope")
    code, _, err = run(capsys, "ld", "--class", path)
    assert code == 2 and "malformed JSON" in err


def test_unif_sim_requires_seed(files, capsys):
    _, write = files
    path = write("cls.json", SINGLETON)
    stream = write("s.json", model.PiecewiseStream(2, (model.Segment(0, 2, "a", 0),)))
    code, _, err = run(capsys, "unif-sim", "--class", path, "--stream", stream,
                       "--trials", "5")
    assert code == 2 and "--seed" in err


def test_unif_sim_singleton_passes_and_is_deterministic(files, capsys):
    _, write = files
    path = write("cls.json", SINGLETON)
    stream = write("s.json", model.PiecewiseStream(2, (model.Segment(0, 2, "a", 0),)))
    args = ["unif-sim", "--class", path, "--stream", stream,
            "--trials", "10", "--seed", "4", "--delta", "1"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "row,index,value,mean,stderr,bound,passed"
    summary = lines[-1].split(",")
    assert summary[0] == "summary" and summary[-1] == "true"
    assert summary[3] == "0.0"
    code, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_unif_sim_non_realizable_exit_3(files, capsys):
    _, write = files
    path = write("cls.json", ConceptClass(AB, ((0, 0),)))
    stream = write(
        "s.json",
        model.PiecewiseStream(2, (model.Segment(0, 1, "a", 0), model.Segment(1, 2, "a", 1))),
    )
    code, _, err = run(capsys, "unif-sim", "--class", path, "--stream", stream,
                       "--trials", "4", "--seed", "0", "--delta", "1/4")
    assert code == 3 and "realizable" in err


def test_unif_sim_adversary_generator(files, capsys):
    _, write = files
    path = write("cls.json", FULL_AB)
    code, out, _ = run(capsys, "unif-sim", "--class", path,
                       "--adversary", "littlestone-branch", "--n", "4",
                       "--slope", "1/16", "--trials", "20", "--seed", "3")
    assert code == 0
    assert out.splitlines()[-1].startswith("summary")


def test_qld_command_with_verify(files, capsys):
    _, write = files
    pats = tuple(
        DiscretePattern(tuple(("a", b) for _ in range(4)))
        for b in (0, 1)
    )
    path = write("p.json", PatternClass(InstanceSpace(("a",)), 4, pats))
    code, out, _ = run(capsys, "qld", "--patterns", path, "--budget", "1", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 1
    assert doc["oracle_value"] == 1
    assert doc["agree"] is True
    assert doc["bp_soa_worst"] <= doc["value"]
    assert doc["bp_soa_within_bound"] is True


def test_qld_budget_zero_matches_blind(files, capsys):
    from qstream.blind import blind_learning_dimension

    pats = tuple(
        DiscretePattern((("a", a), ("a", b))) for a, b in ((0, 0), (0, 1), (1, 0))
    )
    P = PatternClass(InstanceSpace(("a",)), 2, pats)
    _, write = files
    path = write("p.json", P)
    code, out, _ = run(capsys, "qld", "--patterns", path, "--budget", "0")
    doc = json.loads(out)
    assert doc["value"] == blind_learning_dimension(P).value
    assert doc["oracle_value"] is None


def test_qld_saturation_past_horizon(files, capsys):
    pats = tuple(
        DiscretePattern((("a", a), ("a", b))) for a, b in ((0, 1), (1, 0), (1, 1))
    )
    P = PatternClass(InstanceSpace(("a",)), 2, pats)
    _, write = files
    path = write("p.json", P)
    _, out_big, _ = run(capsys, "qld", "--patterns", path, "--budget", "9")
    _, out_sat, _ = run(capsys, "qld", "--patterns", path, "--budget", "2")
    assert json.loads(out_big)["value"] == json.loads(out_sat)["value"]


def test_qld_empty_class_exit_2(files, capsys):
    _, write = files
    path = write("p.json", '{"instances": ["a"], "horizon": 2, "patterns": []}')
    code, _, err = run(capsys, "qld", "--patterns", path, "--budget", "1")
    assert code == 2


def test_adversary_two_point_file(files, capsys):
    tmp, write = files
    out_path = str(tmp / "stream.json")
    code, _, _ = run(capsys, "adversary", "--kind", "two-point", "--units", "1",
                     "--slope", "2", "--seed", "5", "--out", out_path)
    assert code == 0
    doc = json.loads((tmp / "stream.json").read_text())
    assert len(doc["segments"]) == 4
    assert all(s["end"] - s["start"] == 0.25 for s in doc["segments"])
    assert doc["provenance"]["kind"] == "two-point"
    assert doc["provenance"]["seed"] == 5
    stream = model.stream_from_json(doc)
    assert model.validate(stream) == []


def test_adversary_same_seed_identical_files(files, capsys):
    tmp, _ = files
    a, b = str(tmp / "a.json"), str(tmp / "b.json")
    for path in (a, b):
        code, _, _ = run(capsys, "adversary", "--kind", "two-point", "--units", "2",
                         "--slope", "1", "--seed", "9", "--out", path)
        assert code == 0
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()


def test_adversary_littlestone_branch_too_shallow_exit_2(files, capsys):
    tmp, write = files
    path = write("cls.json", FULL_AB)
    code, _, err = run(capsys, "adversary", "--kind", "littlestone-branch",
                       "--class", path, "--n", "1", "--slope", "1",
                       "--seed", "0", "--out", str(tmp / "s.json"))
    assert code == 2 and "too shallow" in err


def test_adversary_self_revealing_runs_adaptive(files, capsys):
    tmp, write = files
    path = write("cls.json", FULL_AB)
    out_path = str(tmp / "sr.json")
    code, _, _ = run(capsys, "adversary", "--kind", "self-revealing",
                     "--class", path, "--horizon", "4", "--reveal-every", "1",
                     "--seed", "2", "--out", out_path)
    assert code == 0
    stream = model.stream_from_json(json.loads((tmp / "sr.json").read_text()))
    report = run_adaptive_sampler(stream)
    assert report.mistake_integral == 0


def test_adversary_requires_seed(files, capsys):
    tmp, _ = files
    code, _, err = run(capsys, "adversary", "--kind", "two-point", "--units", "1",
                       "--out", str(tmp / "s.json"))
    assert code == 2 and "--seed" in err


def test_blind_bound_optimal_placement(files, capsys):
    _, write = files
    times = []
    for n in range(1, 5):
        width = Fraction(1, 2 * n)
        times.extend(str(Fraction(n - 1) + width * j) for j in range(n))
    placement = write("pl.json", json.dumps({"query_times": times}))
    code, out, _ = run(capsys, "blind-bound", "--units", "4", "--slope", "1",
                       "--placement", placement)
    assert code == 0
    assert "expected_error = 1 (1.0)" in out
    assert ">= units/4: true" in out


def test_blind_bound_no_queries(files, capsys):
    code, out, _ = run(capsys, "blind-bound", "--units", "1", "--slope", "1")
    assert code == 0 and "expected_error = 1/2 (0.5)" in out


def test_blind_bound_prints_an_answer_past_the_int_digit_limit(files, capsys):
    # one query mid-unit in each of 10,000 units: the value is units/2 - H_units/4,
    # whose 4,346-digit denominator passes Python's 4,300-digit int-to-str limit
    _, write = files
    units = 10_000
    times = [f"{2 * u + 1}/2" for u in range(units)]
    placement = write("pl.json", json.dumps({"query_times": times}))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(capsys, "blind-bound", "--units", str(units), "--slope", "1",
                         "--placement", placement)
    assert code == 0, err
    lcm = math.lcm(*range(1, units + 1))
    want = Fraction(units, 2) - Fraction(sum(lcm // n for n in range(1, units + 1)), 4 * lcm)
    head, _, rest = out.partition(" (")
    num, den = head.removeprefix("expected_error = ").split("/")
    # Decimal reads and compares digit strings of any length
    assert (Decimal(num), Decimal(den)) == (want.numerator, want.denominator)
    assert len(den) == 4346 and rest.startswith(f"{float(want)})")
    if limit is not None:  # the format restored the limit it lifted
        assert sys.get_int_max_str_digits() == limit


def test_blind_bound_budget_violation_exit_2(files, capsys):
    _, write = files
    placement = write("pl.json", json.dumps({"query_times": ["1/8", "3/8"]}))
    code, _, err = run(capsys, "blind-bound", "--units", "1", "--slope", "1",
                       "--placement", placement)
    assert code == 2


def test_config_env_supplies_defaults(files, capsys, monkeypatch):
    tmp, write = files
    cfg = write("cfg.json", json.dumps({"budget": 1}))
    monkeypatch.setenv("QSTREAM_CONFIG", cfg)
    pats = tuple(DiscretePattern(tuple(("a", b) for _ in range(3))) for b in (0, 1))
    path = write("p.json", PatternClass(InstanceSpace(("a",)), 3, pats))
    code, out, _ = run(capsys, "qld", "--patterns", path)
    assert code == 0 and json.loads(out)["value"] == 1


# --- the parser's config tables: which flags QSTREAM_CONFIG fills, and their defaults --

# each command's required flags and nothing else; the files are never read,
# since the config is filled before the command runs
CONFIG_ARGV = {
    "ld": ["--class", "cls.json"],
    "unif-sim": ["--class", "cls.json", "--seed", "0"],
    "qld": ["--patterns", "p.json"],
    "adversary": ["--kind", "two-point", "--seed", "0", "--out", "s.json"],
    "blind-bound": ["--units", "1"],
}
# a config value each converter reads, and what it reads it as
CONFIG_SAMPLE = {cli._fraction: ("3/4", Fraction(3, 4)), model.as_int: (7, 7)}


def subparsers():
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def config_rows():
    return [(name, key) for name, sp in sorted(subparsers().items())
            for key in sp.get_default("config")]


def filled(command, *flags):
    args = cli.build_parser().parse_args([command, *CONFIG_ARGV[command], *flags])
    cli._fill_from_config(args)
    return args


def test_config_tables_name_these_keys_and_defaults():
    assert {name: {key: default for key, (_, default) in sp.get_default("config").items()}
            for name, sp in subparsers().items()} == {
        "ld": {}, "unif-sim": {"delta": 1, "trials": 10000, "slope": 1}, "qld": {"budget": None},
        "adversary": {"slope": 1, "horizon": None}, "blind-bound": {"slope": 1}}


@pytest.mark.parametrize("command, key", config_rows())
def test_config_table_entry(tmp_path, capsys, monkeypatch, command, key):
    sp = subparsers()[command]
    conv, default = sp.get_default("config")[key]
    flags = {a.dest: a.option_strings[0] for a in sp._actions if a.option_strings}
    assert key in flags
    monkeypatch.delenv("QSTREAM_CONFIG", raising=False)
    assert getattr(filled(command), key) == default
    text, value = CONFIG_SAMPLE[conv]
    cfg = tmp_path / "cfg.json"
    monkeypatch.setenv("QSTREAM_CONFIG", str(cfg))
    cfg.write_text(json.dumps({key: text}))
    assert getattr(filled(command), key) == value
    assert getattr(filled(command, f"{flags[key]}=5"), key) == 5
    cfg.write_text(json.dumps({key: "x" * 3000}))
    code, out, err = run(capsys, command, *CONFIG_ARGV[command])
    assert_single_error(code, err)
    assert len(err.encode()) < 200 and f"bad {key} in config" in err and out == ""


def test_ld_never_reads_the_config(files, capsys, monkeypatch):
    tmp, write = files
    monkeypatch.setenv("QSTREAM_CONFIG", str(tmp / "missing.json"))
    code, out, _ = run(capsys, "ld", "--class", write("cls.json", SINGLETON))
    assert code == 0 and out.strip() == "0"


def test_seed_is_required_by_the_randomized_commands():
    assert {name for name, sp in subparsers().items()
            if any(a.dest == "seed" and a.required for a in sp._actions)} == {
        "unif-sim", "adversary"}


# --- zero denominators and bad numeric flags: exit 2, one error line -----------------

ZERO_DEN = {"num": 1, "den": 0}


def assert_single_error(code, err):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_unif_sim_zero_denominator_in_stream_exit_2(files, capsys):
    _, write = files
    path = write("cls.json", SINGLETON)
    stream = write("s.json", json.dumps(
        {"horizon": ZERO_DEN, "segments": [{"start": 0, "end": 1, "x": "a", "y": 0}]}
    ))
    code, _, err = run(capsys, "unif-sim", "--class", path, "--stream", stream,
                       "--trials", "2", "--seed", "0")
    assert_single_error(code, err)


def test_blind_bound_zero_denominator_in_placement_exit_2(files, capsys):
    _, write = files
    placement = write("pl.json", json.dumps({"query_times": [ZERO_DEN]}))
    code, _, err = run(capsys, "blind-bound", "--units", "1", "--slope", "1",
                       "--placement", placement)
    assert_single_error(code, err)


def test_config_zero_denominator_exit_2(files, capsys, monkeypatch):
    _, write = files
    monkeypatch.setenv("QSTREAM_CONFIG", write("cfg.json", json.dumps({"slope": ZERO_DEN})))
    code, _, err = run(capsys, "blind-bound", "--units", "1")
    assert_single_error(code, err)


def test_blind_bound_negative_units_exit_2(capsys):
    code, out, err = run(capsys, "blind-bound", "--units", "-3", "--slope", "1")
    assert_single_error(code, err)
    assert out == ""


SLOPE_COMMANDS = {
    "unif-sim": ["unif-sim", "--class", "{cls}", "--adversary", "littlestone-branch",
                 "--n", "2", "--trials", "2", "--seed", "0"],
    "adversary": ["adversary", "--kind", "two-point", "--units", "2", "--seed", "0",
                  "--out", "{out}"],
    "blind-bound": ["blind-bound", "--units", "2"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("slope", ["0", "-1/2"])
@pytest.mark.parametrize("command", sorted(SLOPE_COMMANDS))
def test_slope_not_positive_exit_2(files, capsys, monkeypatch, command, slope, source):
    tmp, write = files
    cls = write("cls.json", FULL_AB)
    argv = [a.format(cls=cls, out=tmp / "s.json") for a in SLOPE_COMMANDS[command]]
    if source == "flag":
        argv.append(f"--slope={slope}")
    else:
        monkeypatch.setenv("QSTREAM_CONFIG", write("cfg.json", json.dumps({"slope": slope})))
    code, out, err = run(capsys, *argv)
    assert_single_error(code, err)
    assert "slope must be positive" in err
    assert out == "" and not (tmp / "s.json").exists()


def run_child(*argv, timeout=10):
    """The CLI in a child process with a timeout (10 s by default), so an
    endless or unbounded run fails the test instead of hanging the suite."""
    src = str(Path(model.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "qstream.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_ld_full_class_over_13_instances_in_time(tmp_path):
    # 8,192 concepts: the search ends at log2 |H| = 13 on the first branch
    # that reaches it; the unpruned recursion took 53 s on a 2-core machine
    space = InstanceSpace(tuple(f"x{i}" for i in range(13)))
    path = tmp_path / "full13.json"
    path.write_text(model.dumps(ConceptClass(space, tuple(product((0, 1), repeat=13)))))
    proc = run_child("ld", "--class", str(path), timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "13\n", "")


@pytest.mark.parametrize("step", ["0", "-1/2"])
def test_adversary_reveal_every_not_positive_exit_2(tmp_path, step):
    cls = tmp_path / "cls.json"
    cls.write_text(model.dumps(FULL_AB))
    proc = run_child("adversary", "--kind", "self-revealing", "--class", str(cls),
                     "--horizon", "4", f"--reveal-every={step}", "--seed", "0",
                     "--out", str(tmp_path / "s.json"))
    assert_single_error(proc.returncode, proc.stderr)
    assert not (tmp_path / "s.json").exists()


def test_adversary_reveal_every_too_many_reveals_exit_2(tmp_path):
    # 4 * 10^8 reveals would run and allocate without bound; the count is
    # refused before any is generated
    cls = tmp_path / "cls.json"
    cls.write_text(model.dumps(FULL_AB))
    proc = run_child("adversary", "--kind", "self-revealing", "--class", str(cls),
                     "--horizon", "4", "--reveal-every=1/100000000", "--seed", "0",
                     "--out", str(tmp_path / "s.json"))
    assert_single_error(proc.returncode, proc.stderr)
    assert "at most 100000" in proc.stderr
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("flags", [
    ["--reveal-every", "1/3", "--horizon", "1e400"],  # a 401-digit count and horizon
    ["--horizon", "4", "--reveal-every", "1e-320"],  # a 321-digit count, step 1/10^320
], ids=["long-horizon", "tiny-step"])
def test_adversary_reveal_count_refusal_stays_short(files, capsys, flags):
    # the refusal names the cap, not the count, step or horizon it was given
    tmp, write = files
    path = write("cls.json", FULL_AB)
    code, _, err = run(capsys, "adversary", "--kind", "self-revealing", "--class", path,
                       *flags, "--seed", "0", "--out", str(tmp / "s.json"))
    assert_single_error(code, err)
    assert len(err.encode()) < 200 and "at most 100000" in err
    assert not (tmp / "s.json").exists()


BIG = "1" + "0" * 4000  # a 4,001-digit count
UNIF = ["unif-sim", "--class", "{cls}", "--adversary", "littlestone-branch", "--slope", "1/4",
        "--seed", "0"]
TWO_POINT = ["adversary", "--kind", "two-point", "--seed", "0", "--out", "{out}"]


@pytest.mark.parametrize("argv", [
    # a 4,001-digit step count from a 4,001-digit delta denominator
    [*UNIF, "--delta", "1e-4000"],
    # past Python's 4,300-digit int-to-str limit, which once replaced the refusal
    [*UNIF, "--delta", "1e-4300"],
    [*UNIF, "--trials", BIG],
    [*TWO_POINT, "--units", "100001", "--slope", "1e-4000"],  # a 4,001-digit slope denominator
    [*TWO_POINT, "--units", BIG, "--slope", "1"],
    ["blind-bound", "--units", BIG, "--slope", "1"],
], ids=["unif-sim-delta", "unif-sim-delta-past-limit", "unif-sim-trials", "two-point-slope",
        "two-point-units", "blind-bound-units"])
def test_cap_refusals_stay_short(files, capsys, argv):
    # each refusal names the flag and the cap, not the numbers it was given
    tmp, write = files
    cls, out = write("cls.json", FULL_AB), tmp / "s.json"
    code, stdout, err = run(capsys, *[a.format(cls=cls, out=out) for a in argv])
    assert_single_error(code, err)
    assert len(err.encode()) < 200 and "at most 100000" in err
    assert stdout == "" and not out.exists()


LONG = "1" * 5001  # past Python's 4,300-digit int-to-str limit
TEXT = "0," + "9" * 3000 + "x"  # no rational number, 3,003 characters long
TEXT_FILES = {  # each refusal once quoted the whole text
    "placement": {"query_times": [TEXT]},
    "times": {"query_times": TEXT},
    "stream": {"horizon": TEXT, "segments": [{"start": 0, "end": 1, "x": "a", "y": 0}]},
    "patterns": {"instances": ["a"], "horizon": TEXT, "patterns": [[["a", 0]]]},
    "instances": {"instances": TEXT, "concepts": [{"labels": [0]}]},
    "label": {"instances": ["a"], "concepts": [{"labels": [TEXT]}]},
    "name": {"instances": ["a"], "concepts": [{"labels": [0], "name": [TEXT]}]},
}


@pytest.mark.parametrize("argv, named", [
    (["blind-bound", "--units", "abc"], "argument --units: expected an integer"),
    (["blind-bound", "--units", LONG], "argument --units: expected an integer"),
    ([*UNIF, "--trials", LONG], "argument --trials: expected an integer"),
    ([*UNIF[:-2], "--seed", LONG], "argument --seed: expected an integer"),
    ([*UNIF, "--slope", "1/" + LONG], "argument --slope: expected a rational number"),
    ([*UNIF, "--delta", "1e4000"], "delta does not fit a float"),
    # past the int-to-str limit, which once replaced the refusal
    ([*UNIF, "--delta", "1e4300"], "delta does not fit a float"),
    # an exponent over 4300 is refused before Fraction builds 10^exponent
    ([*UNIF, "--delta", "1e5000"], "argument --delta: expected a rational number"),
    ([*UNIF, "--delta=-1e-4000"], "delta must be positive"),  # a 4,001-digit denominator
    # a leading minus and a digit make a value, not a flag, with or without "="
    ([*UNIF, "--delta", "-1/4"], "error: delta must be positive"),
    ([*UNIF, "--delta", "-1e-3"], "error: delta must be positive"),
    ([*UNIF, "--delta=-1/4"], "error: delta must be positive"),
    # the sign is read before the float, which this one overflows
    ([*UNIF, "--delta=-1e4300"], "error: delta must be positive"),
    ([*UNIF, "--delta", "-1e4300"], "error: delta must be positive"),
    ([*UNIF, "--delta=-1e5000"], "argument --delta: expected a rational number"),
    ([*UNIF, "--delta", "-1e5000"], "argument --delta: expected a rational number"),
    ([*TWO_POINT[:2], LONG], "argument --kind: invalid choice"),
    # a rational text in a flag or a file: the flag or file and what it expects
    (["adversary", "--kind", "self-revealing", "--class", "{cls}", "--horizon", "4",
      "--reveal-times", TEXT, "--seed", "0", "--out", "{out}"],
     "bad --reveal-times, a comma-separated list: expected a rational number"),
    (["blind-bound", "--units", "1", "--placement", "{placement}"],
     "placement.json: expected a rational number"),
    (["blind-bound", "--units", "1", "--placement", "{times}"],
     "times.json: query_times must be a list"),
    (["unif-sim", "--class", "{cls}", "--stream", "{stream}", "--trials", "2", "--seed", "0"],
     "stream.json: expected a rational number such as 3, 0.25 or 1/4 as the horizon"),
    # a string or list where an integer or a string belongs: the type, not the value
    (["qld", "--patterns", "{patterns}", "--budget", "1"],
     "patterns.json: expected an integer, got str"),
    (["ld", "--class", "{instances}"],
     "instances.json: instance identifiers must be a list of strings, got str"),
    (["ld", "--class", "{label}"], "label.json: expected an integer, got str"),
    (["ld", "--class", "{name}"], "name.json: concept names must be strings, got list"),
], ids=["units-abc", "units-long", "trials-long", "seed-long", "slope-long", "delta-1e4000",
        "delta-1e4300", "delta-1e5000", "delta-minus-1e-4000", "delta-minus-quarter",
        "delta-minus-1e-3", "delta-eq-minus-quarter", "delta-eq-minus-1e4300",
        "delta-minus-1e4300", "delta-eq-minus-1e5000", "delta-minus-1e5000", "kind-long",
        "reveal-times-text", "placement-text", "placement-not-a-list", "stream-horizon-text",
        "pattern-horizon-text", "class-instances-text", "label-text", "name-list-text"])
def test_flag_refusals_stay_short(files, capsys, argv, named):
    # each refusal is one line that names the flag or file and what it
    # expects, never the value it was given
    tmp, write = files
    paths = {name: write(f"{name}.json", json.dumps(doc)) for name, doc in TEXT_FILES.items()}
    cls, out = write("cls.json", FULL_AB), tmp / "s.json"
    code, stdout, err = run(capsys, *[a.format(cls=cls, out=out, **paths) for a in argv])
    assert_single_error(code, err)
    assert len(err.encode()) < 200 and named in err
    assert stdout == "" and not out.exists()


def test_config_rational_text_refusal_stays_short(files, capsys, monkeypatch):
    _, write = files
    monkeypatch.setenv("QSTREAM_CONFIG", write("cfg.json", json.dumps({"slope": TEXT})))
    code, stdout, err = run(capsys, "blind-bound", "--units", "1")
    assert_single_error(code, err)
    assert len(err.encode()) < 200 and "bad slope in config" in err
    assert "expected a rational number" in err and stdout == ""


HUGE = "1e9999999"  # Fraction would build 10^9999999, about 8 s on a 2-core machine


@pytest.mark.parametrize("argv, files_in", [
    ([*UNIF, "--n", "1", "--delta", HUGE, "--trials", "2"], {}),
    (["blind-bound", "--units", "1", "--slope", HUGE], {}),
    (["adversary", "--kind", "self-revealing", "--class", "{cls}", "--horizon", HUGE,
      "--seed", "0", "--out", "{out}"], {}),
    (["adversary", "--kind", "self-revealing", "--class", "{cls}", "--horizon", "4",
      "--reveal-times", "0," + HUGE, "--seed", "0", "--out", "{out}"], {}),
    (["blind-bound", "--units", "1", "--placement", "{placement}"],
     {"placement": {"query_times": [HUGE]}}),
    (["blind-bound", "--units", "1"], {"config": {"slope": HUGE}}),
    ([*UNIF[:5], "--stream", "{stream}", "--trials", "2", "--seed", "0"],
     {"stream": {"horizon": HUGE, "segments": [{"start": 0, "end": 1, "x": "a", "y": 0}]}}),
], ids=["unif-sim-delta", "blind-bound-slope", "adversary-horizon", "reveal-times",
        "placement-file", "config-slope", "stream-horizon"])
def test_huge_exponents_are_refused_at_once(files, monkeypatch, argv, files_in):
    # every rational text goes through as_fraction, which refuses an
    # exponent over 4300 before Fraction builds the power of ten
    tmp, write = files
    paths = {"cls": write("cls.json", FULL_AB), "out": tmp / "s.json"}
    for name, doc in files_in.items():
        paths[name] = write(f"{name}.json", json.dumps(doc))
    if "config" in paths:
        monkeypatch.setenv("QSTREAM_CONFIG", paths["config"])
    proc = run_child(*[a.format(**paths) for a in argv], timeout=5)
    assert_single_error(proc.returncode, proc.stderr)
    err = proc.stderr
    assert len(err.encode()) < 200
    assert "decimal exponent over 4300" in err or "expected a rational number" in err
    assert proc.stdout == "" and not (tmp / "s.json").exists()


@pytest.mark.parametrize("argv", [
    # sum over n <= 20000 of 2 budget(n) at slope 1: about 4 * 10^8 segments
    ["adversary", "--kind", "two-point", "--units", "20000", "--slope", "1",
     "--seed", "0", "--out", "{out}"],
    # one exact Fraction term per unit, 10^7 of them
    ["blind-bound", "--units", "10000000", "--slope", "1"],
], ids=["two-point", "blind-bound"])
def test_units_past_the_cap_exit_2(tmp_path, argv):
    # the count is refused before anything is built
    proc = run_child(*[a.format(out=tmp_path / "s.json") for a in argv])
    assert_single_error(proc.returncode, proc.stderr)
    assert "at most 100000" in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv, config", [
    # 10^9 trials: a billion child seeds are spawned before the first trial
    (["--trials", "1000000000"], None),
    ([], {"trials": 1000000000}),
    # about 4 * 10^9 queries in each trial
    (["--delta", "1/1000000000"], None),
    ([], {"delta": {"num": 1, "den": 1000000000}}),
    # horizon 10^9 or 4 * 10^9 at delta 1: as many queries per trial
    (["--horizon", "1000000000"], None),
    (["--n", "1000000000"], None),
    (["--stream", "{stream}"], None),
], ids=["trials", "config-trials", "delta", "config-delta", "horizon", "n", "stream"])
def test_unif_sim_past_the_cap_exit_2(tmp_path, monkeypatch, argv, config):
    # the cap is checked after the config is read and before any trial runs
    cls = tmp_path / "cls.json"
    cls.write_text(model.dumps(FULL_AB))
    stream = tmp_path / "s.json"
    stream.write_text(json.dumps(
        {"horizon": 10**9, "segments": [{"start": 0, "end": 10**9, "x": "a", "y": 0}]}
    ))
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv("QSTREAM_CONFIG", str(cfg))
    proc = run_child("unif-sim", "--class", str(cls), "--adversary", "littlestone-branch",
                     "--slope", "1/4", "--seed", "0",
                     *[a.format(stream=stream) for a in argv])
    assert_single_error(proc.returncode, proc.stderr)
    assert "at most 100000" in proc.stderr
    assert proc.stdout == ""


def test_unif_sim_trials_times_steps_past_the_cap_exit_2(tmp_path):
    # 10^5 trials of 10^5 steps, each cap met on its own: more than a day
    # of queries, refused before the first trial
    cls = tmp_path / "cls.json"
    cls.write_text(model.dumps(FULL_AB))
    proc = run_child("unif-sim", "--class", str(cls), "--adversary", "littlestone-branch",
                     "--slope", "1/4", "--delta", "1/25000", "--trials", "100000",
                     "--seed", "0")
    assert_single_error(proc.returncode, proc.stderr)
    assert "at most 1000000 steps" in proc.stderr
    assert proc.stdout == ""


def test_unif_sim_criterion_1_size_is_under_the_caps(files, monkeypatch):
    # README's criterion 1 run, 10^4 trials of 16 steps, reaches the sampler
    _, write = files
    cls = write("cls.json", FULL_AB)

    class Reached(Exception):
        pass

    def stop(*args, **kwargs):
        raise Reached

    monkeypatch.setattr("qstream.arena.monte_carlo_uniform", stop)
    with pytest.raises(Reached):
        main(["unif-sim", "--class", cls, "--adversary", "littlestone-branch", "--n", "4",
              "--slope", "1/16", "--delta", "1", "--trials", "10000", "--seed", "7"])


@pytest.mark.parametrize("argv", [
    ["unif-sim", "--class", "{cls}", "--adversary", "littlestone-branch",
     "--slope", "1/4", "--trials", "20", "--seed", "0", "--format", "json"],
    ["ld", "--class", "{cls}"],
], ids=["unif-sim", "ld"])
def test_closed_stdout_exit_3(tmp_path, argv):
    # the reader closes the pipe before the child writes: one error line,
    # no traceback from the write or from the interpreter's final flush
    cls = tmp_path / "cls.json"
    cls.write_text(model.dumps(FULL_AB))
    src = str(Path(model.__file__).parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "qstream.cli", *[a.format(cls=cls) for a in argv]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    child.stdout.close()
    try:
        err = child.communicate(timeout=10)[1]
    finally:
        child.kill()
    lines = err.strip().splitlines()
    assert child.returncode == 3
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("times", ["0,1/0", "0,abc", ""])
def test_adversary_bad_reveal_times_exit_2(files, capsys, times):
    tmp, write = files
    path = write("cls.json", FULL_AB)
    code, _, err = run(capsys, "adversary", "--kind", "self-revealing", "--class", path,
                       "--horizon", "2", f"--reveal-times={times}", "--seed", "0",
                       "--out", str(tmp / "sr.json"))
    assert_single_error(code, err)
    assert "--reveal-times" in err and not (tmp / "sr.json").exists()


@pytest.mark.parametrize("step, reveals", [
    ("1/4", ["0", "1/4", "1/2", "3/4"]),
    ("3/10", ["0", "3/10", "3/5", "9/10"]),
    ("2", ["0"]),
])
def test_adversary_reveal_every_schedule(files, capsys, step, reveals):
    tmp, write = files
    path = write("cls.json", FULL_AB)
    code, _, _ = run(capsys, "adversary", "--kind", "self-revealing", "--class", path,
                     "--horizon", "1", "--reveal-every", step, "--seed", "2",
                     "--out", str(tmp / "sr.json"))
    assert code == 0
    stream = model.stream_from_json(json.loads((tmp / "sr.json").read_text()))
    times = [e.time for e in run_adaptive_sampler(stream).query_events]
    assert times == [Fraction(r) for r in reveals]


# --- hostile JSON fields and deep nesting: exit 2, one error line ----------------

INF = float("inf")
PATTERNS = {"instances": ["a"], "horizon": 2, "patterns": [[["a", 0], ["a", 1]]]}
STREAM = {"horizon": 1, "segments": [{"start": 0, "end": 1, "x": "a", "y": 0}]}


@pytest.mark.parametrize("command, doc, config", [
    ("qld", {**PATTERNS, "horizon": INF}, None),
    ("qld", {**PATTERNS, "horizon": 2.5}, None),
    ("unif-sim", {**STREAM, "segments": [{**STREAM["segments"][0], "y": INF}]}, None),
    ("unif-sim", {**STREAM, "horizon": {"num": INF, "den": 1}}, None),
    ("ld", {"instances": ["a"], "concepts": [{"labels": [INF]}]}, None),
    ("ld", {"instances": ["a"], "concepts": [{"labels": [0.7]}]}, None),
    ("qld", PATTERNS, {"budget": INF}),
    ("blind-bound", {"query_times": [{"num": 1, "den": INF}]}, None),
    ("ld", {"instances": [[]], "concepts": [{"labels": [0]}]}, None),
    ("qld", {**PATTERNS, "instances": [{"num": 1, "den": 0}]}, None),
    ("ld", {"instances": ["a"], "concepts": [{"labels": [0], "name": []}]}, None),
    ("ld", {"instances": ["a"], "concepts": [{"labels": [0], "name": None}]}, None),
    # a string reads as the list of its characters
    ("ld", {"instances": "ab", "concepts": [{"labels": [0, 1]}]}, None),
    ("qld", {**PATTERNS, "instances": "a"}, None),
    ("unif-sim", STREAM, {"delta": "1e400"}),
    # a string reads as its characters, a dict as its keys
    ("blind-bound", {"query_times": "01"}, None),
    ("blind-bound", {"query_times": {"0": 1}}, None),
], ids=["horizon-inf", "horizon-2.5", "y-inf", "num-inf", "label-inf", "label-0.7",
        "config-budget-inf", "den-inf", "instance-list", "instance-dict", "name-list",
        "name-null", "ld-instances-string", "qld-instances-string", "config-delta-1e400",
        "placement-string", "placement-dict"])
def test_hostile_json_field_exit_2(files, capsys, monkeypatch, command, doc, config):
    _, write = files
    path = write("doc.json", json.dumps(doc))
    argv = {
        "ld": ["ld", "--class", path],
        "qld": ["qld", "--patterns", path],
        "unif-sim": ["unif-sim", "--class", write("cls.json", SINGLETON), "--stream", path,
                     "--trials", "2", "--seed", "0"],
        "blind-bound": ["blind-bound", "--units", "2", "--slope", "1", "--placement", path],
    }[command]
    if config is not None:
        monkeypatch.setenv("QSTREAM_CONFIG", write("cfg.json", json.dumps(config)))
    elif command == "qld":
        argv += ["--budget", "1"]
    code, out, err = run(capsys, *argv)
    assert_single_error(code, err)
    assert out == ""


@pytest.mark.parametrize("command, doc, message", [
    ("unif-sim", {**STREAM, "segments": [{**STREAM["segments"][0], "x": 5}]},
     "segment 0 has non-string instance 5"),
    ("unif-sim", {**STREAM, "segments": [{**STREAM["segments"][0], "x": ["a"]}]},
     "segment 0 has non-string instance ['a']"),
    ("qld", {"instances": ["1"], "horizon": 1, "patterns": [[[1, 0]]]},
     "pattern instances must be strings, got int"),
    ("qld", {"instances": ["a"], "horizon": 1, "patterns": [[[["a"], 0]]]},
     "pattern instances must be strings, got list"),
], ids=["stream-int", "stream-list", "pattern-int", "pattern-list"])
def test_non_string_instance_in_a_step_exit_2(files, capsys, command, doc, message):
    # read through str(), the first three values would match an instance
    # named by their text ("5", "['a']", "1") and exit 0
    _, write = files
    path = write("doc.json", json.dumps(doc))
    cls = write("cls.json", ConceptClass(InstanceSpace(("5", "['a']")), ((0, 0),)))
    argv = {
        "qld": ["qld", "--patterns", path, "--budget", "1"],
        "unif-sim": ["unif-sim", "--class", cls, "--stream", path, "--trials", "2",
                     "--seed", "0"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert_single_error(code, err)
    assert out == "" and message in err


@pytest.mark.parametrize("argv, message", [
    (["adversary", "--kind", "self-revealing", "--horizon", "-1", "--reveal-every", "1",
      "--out", "s.json"], "horizon must be positive, got -1"),
    (["unif-sim", "--adversary", "littlestone-branch", "--delta", "0"],
     "delta must be positive"),
    (["unif-sim", "--adversary", "littlestone-branch", "--delta", "1e400"],
     "delta does not fit a float: the largest float is 1.7976931348623157e+308"),
], ids=["self-revealing-horizon", "unif-sim-delta", "unif-sim-delta-1e400"])
def test_bad_value_is_the_one_named(files, capsys, monkeypatch, argv, message):
    tmp, write = files
    monkeypatch.chdir(tmp)
    code, _, err = run(capsys, *argv, "--class", write("cls.json", FULL_AB), "--seed", "0")
    assert_single_error(code, err)
    assert message in err


@pytest.mark.parametrize("argv", [
    ["--kind", "littlestone-branch", "--n", "1"],
    ["--kind", "self-revealing", "--reveal-times", "0"],
], ids=["littlestone-branch", "self-revealing"])
def test_adversary_horizon_past_the_float_range(files, capsys, argv):
    # the horizon is written as {num, den}, where a float would overflow
    tmp, write = files
    horizon = Fraction(10**400 + 1, 2)
    out = tmp / "s.json"
    code, _, err = run(capsys, "adversary", *argv, "--class", write("cls.json", FULL_AB),
                       "--slope", "1/4", "--horizon", str(horizon), "--seed", "0",
                       "--out", str(out))
    assert code == 0, err
    assert model.stream_from_json(json.loads(out.read_text())).horizon == horizon


def test_deeply_nested_json_exit_2(files, capsys):
    _, write = files
    path = write("cls.json", "[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "ld", "--class", path)
    assert_single_error(code, err)
    assert "malformed JSON" in err


HOSTILE = [INF, float("nan"), 0.7, 2.5, True, None, "x", [], -1,
           {"num": 1, "den": 0}, {"num": INF, "den": 1},
           # reveal tokens as instance names: one with a zero denominator
           'SEG([["a",0,"0","1/0"]])|next=1', 'SEG([["a",0,"0","1"]])|next=1']


@st.composite
def cli_documents(draw):
    """Small valid input documents: concept class, pattern class, stream,
    query placement and config, named as the commands below read them."""
    bit = st.integers(0, 1)
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    concepts = draw(st.lists(st.lists(bit, min_size=len(names), max_size=len(names)),
                             min_size=1, max_size=4, unique_by=tuple))
    horizon = draw(st.integers(1, 4))
    step = st.tuples(st.sampled_from(names), bit).map(list)
    patterns = draw(st.lists(st.lists(step, min_size=horizon, max_size=horizon),
                             min_size=1, max_size=4))
    cuts = draw(st.lists(st.integers(1, 2 * horizon - 1), max_size=3, unique=True))
    ends = [c / 2 for c in sorted(cuts)] + [horizon]
    segments = [
        {"start": lo, "end": hi, "x": draw(st.sampled_from(names)), "y": draw(bit)}
        for lo, hi in zip([0] + ends[:-1], ends)
    ]
    times = draw(st.lists(st.integers(0, 7).map(lambda k: k / 4), max_size=4))
    return {
        "cls": {"instances": names,
                "concepts": [{"name": f"h{i}", "labels": c} for i, c in enumerate(concepts)]},
        "patterns": {"instances": names, "horizon": horizon, "patterns": patterns},
        "stream": {"horizon": horizon, "segments": segments},
        "placement": {"query_times": times},
        "config": {"slope": 1, "delta": 1},
    }


def json_paths(node, prefix=()):
    """Every position below the root of a JSON document, as a key path."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, prefix + (key,))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(docs=cli_documents(), data=st.data())
def test_cli_input_contract_fuzz(docs, data):
    # One field of one valid document is swapped for a hostile value; every
    # command must then exit 0, 2 or 3, with one `error:` line unless it is 0.
    name = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(json_paths(docs[name]))))
    value = data.draw(st.sampled_from(HOSTILE))
    parent = docs[name]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for doc_name, doc in docs.items():
            files[doc_name] = os.path.join(tmp, f"{doc_name}.json")
            with open(files[doc_name], "w") as fh:
                json.dump(doc, fh)
        commands = [
            ["ld", "--class", files["cls"]],
            ["unif-sim", "--class", files["cls"], "--stream", files["stream"],
             "--trials", "2", "--seed", "0"],
            ["qld", "--patterns", files["patterns"], "--budget", "1"],
            ["blind-bound", "--units", "2", "--placement", files["placement"]],
            ["adversary", "--kind", "littlestone-branch", "--class", files["cls"],
             "--seed", "0", "--out", os.path.join(tmp, "branch.json")],
            ["adversary", "--kind", "self-revealing", "--class", files["cls"],
             "--horizon", "2", "--seed", "0", "--out", os.path.join(tmp, "revealing.json")],
        ]
        with mock.patch.dict(os.environ, {"QSTREAM_CONFIG": files["config"]}):
            for argv in commands:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 2, 3), (argv, code)
                if code:
                    lines = err.getvalue().splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err.getvalue())


# --- bad flag values and an unwritable --out: exit 2, one error line ------------

BAD_FLAG_BASES = {
    "qld": ["qld", "--patterns", "{patterns}", "--budget", "1", "--out", "{out}"],
    "unif-sim": ["unif-sim", "--class", "{cls}", "--adversary", "littlestone-branch",
                 "--slope", "1/4", "--trials", "2", "--seed", "0", "--out", "{out}"],
    "adversary": ["adversary", "--kind", "two-point", "--units", "2", "--seed", "0",
                  "--out", "{out}"],
    "self-revealing": ["adversary", "--kind", "self-revealing", "--class", "{cls}",
                       "--horizon", "2", "--seed", "0", "--out", "{out}"],
}

# (base command, flag, bad value): the flag's value in the base is replaced
BAD_FLAGS = [
    *[(base, "--out", where) for where in ("{missing}", "{dir}")
      for base in ("qld", "unif-sim", "adversary")],
    ("self-revealing", "--reveal-times", ""),
    ("self-revealing", "--reveal-times", "0,0"),
    ("unif-sim", "--delta", "0"),
    ("unif-sim", "--delta", "-1"),
    # past the float range: the sampler draws its query times as floats
    ("unif-sim", "--delta", "1e400"),
    ("unif-sim", "--n", "0"),
    ("adversary", "--units", "-2"),
    ("qld", "--budget", "-1"),
    ("unif-sim", "--trials", "1"),
    ("unif-sim", "--horizon", "-1"),
]


def bad_flag_argv(tmp, base, flag=None, value=None):
    """The base command with flag=value in place of the base's own value,
    its paths in tmp; {missing} is under a missing directory, {dir} is an
    existing, empty directory."""
    (tmp / "dir").mkdir(exist_ok=True)
    paths = {"cls": tmp / "cls.json", "patterns": tmp / "patterns.json",
             "out": tmp / "out.json", "missing": tmp / "missing" / "out.json",
             "dir": tmp / "dir"}
    paths["cls"].write_text(model.dumps(FULL_AB))
    paths["patterns"].write_text(json.dumps(PATTERNS))
    argv = list(BAD_FLAG_BASES[base])
    if flag is not None:
        if flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
        argv.append(f"{flag}={value}")
    return [a.format(**paths) for a in argv]


@pytest.mark.parametrize("base", sorted(BAD_FLAG_BASES))
def test_bad_flag_bases_run(tmp_path, capsys, base):
    code, _, _ = run(capsys, *bad_flag_argv(tmp_path, base))
    assert code == 0 and (tmp_path / "out.json").is_file()


@pytest.mark.parametrize("base, flag, value", BAD_FLAGS,
                         ids=[f"{b}-{f[2:]}={v.strip('{}')}" for b, f, v in BAD_FLAGS])
def test_bad_flag_value_exit_2(tmp_path, capsys, base, flag, value):
    code, out, err = run(capsys, *bad_flag_argv(tmp_path, base, flag, value))
    assert_single_error(code, err)
    assert out == "" and not (tmp_path / "out.json").exists()
    assert not (tmp_path / "missing").exists() and not any((tmp_path / "dir").iterdir())
    assert not list(tmp_path.rglob(".qstream-*"))
    if flag == "--out":
        assert "cannot write" in err


def test_out_write_failure_exit_2(tmp_path, capsys, monkeypatch):
    # the temp file is made and the write into it fails, as on a full disk
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fdopen(fd, mode):
        os.close(fd)
        return Full()

    argv = bad_flag_argv(tmp_path, "qld")
    monkeypatch.setattr("qstream.cli.os.fdopen", fdopen)
    code, out, err = run(capsys, *argv)
    assert_single_error(code, err)
    assert "cannot write" in err and os.strerror(errno.ENOSPC) in err
    assert out == "" and not (tmp_path / "out.json").exists()
    assert not list(tmp_path.rglob(".qstream-*"))


@pytest.mark.parametrize("argv, refusal", [
    (["--kind", "littlestone-branch", "--class", "{cls}"], "required: --out"),
    # 90,300 segments at slope 1, under the cap
    (["--kind", "two-point", "--units", "300"], "required: --out"),
    (["--kind", "self-revealing", "--class", "{cls}", "--horizon", "2"], "required: --out"),
    # an empty --out names no file: refused as the flags are read
    (["--kind", "two-point", "--units", "300", "--out", ""],
     "argument --out: expected a file path"),
], ids=["littlestone-branch", "two-point", "self-revealing", "two-point-empty-out"])
def test_adversary_without_out_exit_2_before_building(files, capsys, monkeypatch, argv,
                                                      refusal):
    _, write = files
    cls = write("cls.json", FULL_AB)

    def build(*args, **kwargs):
        raise AssertionError("a stream was built")

    for name in ("gen_littlestone_branch_stream", "gen_two_point_stream",
                 "gen_self_revealing_stream"):
        monkeypatch.setattr(f"qstream.adversaries.{name}", build)
    code, out, err = run(capsys, "adversary", *[a.format(cls=cls) for a in argv],
                         "--slope", "1", "--seed", "0")
    assert_single_error(code, err)
    assert refusal in err and out == ""


@pytest.mark.parametrize("units, built", [(315, True), (316, False)])
def test_two_point_cap_counts_the_generators_segments(tmp_path, capsys, monkeypatch,
                                                      units, built):
    # at slope 1 unit n holds 2n segments: 315 units give 99,540, 316 give
    # 100,172, past the cap
    class Reached(Exception):
        pass

    def build(*args, **kwargs):
        raise Reached

    monkeypatch.setattr("qstream.adversaries.gen_two_point_stream", build)
    argv = ["adversary", "--kind", "two-point", "--units", str(units), "--slope", "1",
            "--seed", "0", "--out", str(tmp_path / "s.json")]
    if built:
        with pytest.raises(Reached):
            main(argv)
    else:
        code, _, err = run(capsys, *argv)
        assert_single_error(code, err)
        assert "at most 100000" in err


@pytest.mark.parametrize("argv, digest", [
    (["unif-sim", "--adversary", "littlestone-branch", "--slope", "1/4", "--trials", "50"],
     "002fa749038408cb4ac45ac28982639d5580448cacba996ce28892b05b8478b1"),
    (["unif-sim", "--adversary", "littlestone-branch", "--slope", "1/4", "--trials", "50",
      "--format", "json"], "fdddd715efaa4fd726dd4f92b64134cd7904f3f5de43895678f5172b9abc1b16"),
    (["adversary", "--kind", "littlestone-branch", "--slope", "1/4", "--out", "s.json"],
     "2980c8c0bc2629786f5586e99e19b0ac13eac6275fede34672dbea2d46869983"),
    (["adversary", "--kind", "two-point", "--slope", "2", "--out", "s.json"],
     "b6543bbfa4947bbec1f3b85544ad84a071a5e77df9d20cde0fdad4a1fbf7c4c6"),
    (["adversary", "--kind", "self-revealing", "--horizon", "4", "--out", "s.json"],
     "64cc0ff621a4f3f3b2f6cc73326205424a42f4bd3af0b62f6c27288ef306330a"),
], ids=["unif-sim-csv", "unif-sim-json", "littlestone-branch", "two-point", "self-revealing"])
def test_default_flag_output_digests(files, capsys, monkeypatch, argv, digest):
    # --n, --units and --reveal-every left at their defaults: the bytes are
    # pinned by SHA-256, the class file named by a relative path
    tmp, write = files
    monkeypatch.chdir(tmp)
    monkeypatch.delenv("QSTREAM_CONFIG", raising=False)
    write("cls.json", FULL_AB)
    code, out, _ = run(capsys, *argv, "--class", "cls.json", "--seed", "3")
    assert code == 0
    data = (tmp / "s.json").read_bytes() if "--out" in argv else out.encode()
    assert hashlib.sha256(data).hexdigest() == digest
