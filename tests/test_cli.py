"""The command-line contract: exit codes, spec precedence, and output bytes
that do not depend on the worker count."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opweb
from opweb import cli, oracle
from opweb.errors import InvalidArgumentError
from opweb.oracle import check_suite

from _references import argparse_reference, canonical_reference

SIGMA_SPEC = {"sigma": 0.8733}


def _main(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _spec_file(tmp_path, content, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(content))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# -- exit codes ----------------------------------------------------------------

def test_exit_0_on_clean_check(capsys):
    code, out, _ = _main(capsys, "check", "--delta", "0.8", "--n", "10",
                         "--replicas", "2")
    assert code == 0
    assert out == "p=0.8: 2/2 exact matches\np=0 guard agreement: ok\n"


def test_exit_1_on_check_failure(capsys, monkeypatch):
    # cmd_check imports check_suite from the oracle when it runs
    monkeypatch.setattr(oracle, "check_suite",
                        functools.partial(check_suite, corrupt_run=0))
    code, out, _ = _main(capsys, "check", "--delta", "0.8", "--n", "10",
                         "--replicas", "2")
    assert code == 1
    assert "FAIL p=0.8 replica=0: right_boundary_mismatch" in out


def test_exit_1_when_the_box_is_too_narrow(capsys, monkeypatch):
    # the widest box holds every true walk's path; slack = -2n - 1 puts its
    # left wall one column right of the path, and each box refuses or dies
    monkeypatch.setattr(oracle, "check_suite",
                        functools.partial(check_suite, slack=-201))
    code, out, _ = _main(capsys, "check", "--delta", "0.6", "--n", "100",
                         "--replicas", "5")
    assert code == 1
    assert out == ("p=0.6: 0/5 exact matches\np=0 guard agreement: ok\n"
                   + "".join(f"FAIL p=0.6 replica={rep}: box_too_narrow\n"
                             for rep in range(5)))


B1 = ["--t", "0.5", "--sigma", "0.87", "--replicas", "3"]
INVALID_ARGV = [
    ["estimate", "--p", "1.5"],
    ["eta", "--eps", "0", "--delta", "0.5", *B1],
    ["eta", "--eps", "-0.01", "--delta", "0.5", *B1],
    ["coalesce", "--eps", "0", "--delta", "1", *B1, "--out", "{out}"],
    ["coalesce", "--eps", "0.01", "--delta", "-1", *B1, "--out", "{out}"],
    ["check", "--delta", "0.8", "1.5", "--n", "10", "--replicas", "2"],
    ["check", "--delta", "0.8", "0.8", "--n", "20", "--replicas", "2",
     "--seed", "4"],
    ["eta", "--eps", "nan", "--delta", "0.5", *B1],
    ["eta", "--eps", "0.01", "--delta", "nan", *B1],
    ["eta", "--eps", "0.01", "--delta", "inf", *B1],
    ["eta", "--eps", "0.01", "--delta", "0.5", "--t", "nan", "--replicas", "3",
     "--sigma", "0.87"],
    ["coalesce", "--eps", "inf", "--delta", "1", *B1, "--out", "{out}"],
    *(["eta", "--eps", "0.01", "--delta", "0.5", "--t", "0.5", "--replicas",
       "3", "--sigma", sigma] for sigma in ("0", "-1", "nan", "inf")),
    ["coalesce", "--eps", "0.01", "--delta", "1", "--t", "0.5", "--replicas",
     "3", "--sigma", "0", "--out", "{out}"],
    *(["estimate", "--p", "0.7", "--n", "200", "--margin", "50",
       "--scan-guard", guard] for guard in ("0", "-1")),
    ["estimate", "--n", "200", "--margin", "0"],
    ["estimate", "--n", "100", "--margin", "200"],
    # argv errors: unknown flag, no command, unknown command, a value of
    # the wrong type, a flag with no value, a bare "--"
    ["eta", "--bogus", "1"],
    [],
    ["nope"],
    ["eta", "--n", "x"],
    ["eta", "--n"],
    ["eta", "--n", "5", "--"],
    *(["check", "--delta", "0.8", "--n", "10", "--replicas", "2",
       "--workers", workers] for workers in ("0", "-3")),
    # integers past int64, which ctypes and numpy would wrap or refuse
    ["eta", "--p", "0.8", "--x", "2", "--n", str(2**64 + 200),
     "--replicas", "20"],
    ["estimate", "--n", str(2**64 + 2000), "--margin", "500",
     "--replicas", "2"],
    ["eta", "--n", "100", "--x", "3", "--replicas", str(10**20)],
    ["simulate", "--n", str(10**20), "--out", "{out}"],
    ["check", "--delta", "0.8", "--n", str(10**20), "--replicas", "1"],
    ["estimate", "--n", "200", "--margin", "50", "--scan-guard",
     str(2**63)],
    ["eta", "--n", "100", "--x", str(-2**63 - 2), "--replicas", "2"],
    # sizes within int64 whose arrays no address space holds, which
    # numpy, ctypes and array would refuse with ValueError, OverflowError
    # or MemoryError
    ["eta", "--n", "100", "--x", "3", "--replicas", str(2**62)],
    ["check", "--delta", "0.8", "--n", str(2**62), "--replicas", "1"],
    ["simulate", "--n", str(2**62), "--out", "{out}"],
]


def test_exit_2_on_invalid_spec(capsys, tmp_path):
    out = tmp_path / "out.csv"
    for argv in INVALID_ARGV:
        code, stdout, err = _main(capsys, *(a.format(out=out) for a in argv))
        assert code == 2 and err.startswith("invalid spec:"), argv
        assert stdout == "" and not out.exists()
    spec = _spec_file(tmp_path, {"bogus": 1})
    code, _, err = _main(capsys, "estimate", "--spec", spec)
    assert code == 2 and "bogus" in err
    spec = _spec_file(tmp_path, {"n": 2**64 + 200})
    code, _, err = _main(capsys, "estimate", "--spec", spec)
    assert code == 2 and "int64" in err
    spec = tmp_path / "utf16.json"
    spec.write_bytes(b"\xff\xfe{}")
    code, stdout, err = _main(capsys, "eta", "--spec", str(spec))
    assert code == 2 and stdout == "" and err.startswith("invalid spec:")


@pytest.mark.parametrize("argv", [
    ["coalesce", "--eps", "0.01", "--delta", "1", "--t", "0", "0.5",
     "--sigma", "0.87", "--replicas", "3", "--out", "{out}"],
    # no sigma: the calibration's walks would run first
    ["eta", "--eps", "0.01", "--delta", "0.5", "--t", "-1", "--replicas", "3"],
    ["check", "--delta", "0.8", "--n", "0", "--replicas", "2"],
], ids=["coalesce_t", "eta_t", "check_n"])
def test_exit_2_before_any_walk(capsys, tmp_path, monkeypatch, argv):
    from opweb import _native

    def walk(*args):
        raise AssertionError("a walk ran before the spec was checked")

    for body in ("bounds", "chain", "breaks", "check_walks",
                 "hashed_dp"):
        monkeypatch.setattr(_native, body, walk)
    out = tmp_path / "out.csv"
    code, stdout, err = _main(capsys, *(a.format(out=out) for a in argv))
    assert code == 2 and err.startswith("invalid spec:")
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("text", [
    '5', 'null', '["p"]', '{"p": "0.8"}', '{"eps": 0.1}', '{"t": [1, "a"]}',
    '{"seed": 2.7}', '{"scan_guard": 1e400}', '{"workers": "2"}',
    '{"replicas": true}'])
def test_exit_2_on_a_spec_value_of_the_wrong_type(capsys, tmp_path, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out, err = _main(capsys, "estimate", "--spec", str(spec))
    assert code == 2 and out == "" and err.startswith("invalid spec:")


def test_exit_2_on_a_horizon_below_n(capsys, tmp_path):
    out = tmp_path / "traj"
    code, _, err = _main(capsys, "simulate", "--n", "50", "--horizon", "20",
                         "--out", str(out))
    assert code == 2 and err.startswith("invalid spec:")
    assert not out.exists()


def test_exit_3_when_scan_guard_trips(capsys, tmp_path):
    spec = _spec_file(tmp_path, {"scan_guard": 50})
    code, _, err = _main(capsys, "estimate", "--p", "0.3", "--n", "200",
                         "--margin", "50", "--replicas", "1", "--spec", spec)
    assert code == 3 and err.startswith("scan guard tripped:")


def test_simulate_that_trips_its_guard_makes_no_directory(capsys, tmp_path):
    out = tmp_path / "simout"
    code, stdout, err = _main(capsys, "simulate", "--p", "0", "--n", "20",
                              "--scan-guard", "5", "--out", str(out))
    assert code == 3 and stdout == ""
    assert err.startswith("scan guard tripped:")
    assert not out.exists()


def test_exit_3_through_the_native_walk(capsys):
    from opweb import _native
    code, _, err = _main(capsys, "estimate", "--p", "0", "--n", "200",
                         "--margin", "50", "--replicas", "1",
                         "--scan-guard", "50")
    assert code == 3
    assert err == ("scan guard tripped: 50 start sites exhausted below "
                   "level 1\n")
    assert _native.load() is not None


def test_exit_3_when_the_check_walks_trip_their_guard(capsys):
    # the judged walks run with the spec's guard; the p = 0 probe, which
    # keeps a guard of its own, is never reached
    code, out, err = _main(capsys, "check", "--delta", "0.55", "--n", "100",
                           "--replicas", "2", "--scan-guard", "1")
    assert code == 3 and out == ""
    assert err.startswith("scan guard tripped: 1 start sites exhausted")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_trip_inside_a_batch_names_the_first_tripping_run(capsys, workers):
    # at p = 0.6 and seed 2, runs 1, 7, 8, 11, 13, 14 and 17 trip a guard
    # of 20 below levels 60, 46, 43, 35, 41, 38 and 60: the error is run
    # 1's, second in its batch at 1 and 2 workers, though later batches
    # trip lower
    code, out, err = _main(capsys, "check", "--delta", "0.9", "0.6", "--n",
                           "60", "--replicas", "20", "--scan-guard", "20",
                           "--seed", "2", "--workers", str(workers))
    assert code == 3 and out == ""
    assert err == ("scan guard tripped: 20 start sites exhausted below "
                   "level 60\n")


@pytest.mark.parametrize("workers", [1, 2])
def test_check_walks_each_range_in_one_batch_call(capsys, monkeypatch,
                                                   workers):
    # one check_walks call per p and replica range, and one for the p = 0
    # probe's walk; no walk is made or judged on its own
    from opweb import _native
    from opweb.runner import replica_ranges
    batches, check_walks = [], _native.check_walks

    def counted(bases, *args):
        batches.append(len(bases))
        return check_walks(bases, *args)

    def refused(*args):
        raise AssertionError("a walk made or judged on its own")

    monkeypatch.setattr(_native, "check_walks", counted)
    monkeypatch.setattr(_native, "bounds", refused)
    monkeypatch.setattr(_native, "judge_walk", refused)
    code, out, _ = _main(capsys, "check", "--delta", "0.7", "0.9", "--n",
                         "20", "--replicas", "10", "--workers", str(workers))
    assert code == 0 and out.endswith("p=0 guard agreement: ok\n")
    ranges = [size for _, size in replica_ranges(10, workers)]
    assert len(ranges) == (1 if workers == 1 else 8)
    assert sorted(batches) == sorted(2 * ranges + [1])


# n = 2**59: the native walk's size guard refuses it at once, whatever the
# machine's overcommit setting
HUGE_N = str(2**59)


@pytest.mark.parametrize("argv", [
    ["estimate", "--n", HUGE_N, "--margin", "500", "--replicas", "1"],
    ["check", "--delta", "0.8", "--n", HUGE_N, "--replicas", "1"],
], ids=["estimate", "check"])
def test_exit_2_when_a_walk_cannot_be_allocated(capsys, argv):
    code, out, err = _main(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eta", "--eps", "0.01", "--t", "0.5", "--delta", "0.5", "--sigma",
     "0.87", "--replicas", "3"],
    ["eta", "--n", "100", "--x", "3", "--replicas", "4"],
    ["coalesce", "--eps", "0.01", "--t", "0.5", "--delta", "1", "--sigma",
     "0.87", "--replicas", "3", "--out", "unused.csv"],
], ids=["eta_b1", "eta_b2", "coalesce"])
def test_exit_3_from_the_shared_configuration(capsys, tmp_path, argv):
    # the first replica's leftmost cluster runs first; at p = 0.3 its
    # scan guard trips at level 18
    argv = [tmp_path / a if a == "unused.csv" else a for a in argv]
    code, out, err = _main(capsys, *map(str, argv), "--p", "0.3")
    assert code == 3 and out == ""
    assert err == ("scan guard tripped: 10000 start sites exhausted below "
                   "level 18\n")
    assert not (tmp_path / "unused.csv").exists()


NO_COMPILER_ARGV = {
    "simulate": ["simulate", "--n", "20", "--out", "{dir}"],
    "estimate": ["estimate", "--n", "200", "--margin", "50",
                 "--replicas", "1"],
    "coalesce": ["coalesce", "--eps", "0.01", "--t", "0.5", "--delta", "1",
                 "--sigma", "0.87", "--replicas", "3", "--out", "{file}"],
    "eta": ["eta", "--eps", "0.01", "--t", "0.5", "--delta", "0.5",
            "--replicas", "3"],
    "check": ["check", "--delta", "0.8", "--n", "10", "--replicas", "2"],
}


@pytest.mark.parametrize("command", sorted(NO_COMPILER_ARGV))
def test_every_subcommand_exits_4_without_a_compiler(capsys, tmp_path,
                                                     fresh_loader,
                                                     monkeypatch, command):
    # every walk runs in the native library: with no compiler to build it,
    # the first walk raises the typed error, and no output is written
    monkeypatch.setattr(fresh_loader, "_COMPILERS", ("opweb-no-such-cc",))
    out_file = tmp_path / "out.csv"
    argv = [a.format(dir=tmp_path / "out", file=out_file)
            for a in NO_COMPILER_ARGV[command]]
    code, out, err = _main(capsys, *argv)
    assert code == 4 and out == "" and not out_file.exists()
    assert err == ("native library unavailable: no C compiler: none of "
                   "opweb-no-such-cc is on PATH\n")


def test_exit_4_on_unwritable_out(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = _main(capsys, "estimate", "--n", "200", "--margin", "50",
                         "--replicas", "2", "--out", str(blocker / "x.json"))
    assert code == 4 and err.startswith("i/o failure:")


# -- near-critical input -------------------------------------------------------

def test_near_critical_estimate_fails_typed(capsys):
    code, out, err = _main(capsys, "estimate", "--p", "0.64", "--n", "2000",
                           "--margin", "200", "--replicas", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("insufficient data:") and err.count("\n") == 1


def test_one_replica_estimate_writes_null_statistics(capsys):
    code, out, _ = _main(capsys, "estimate", "--p", "0.66", "--n", "2000",
                         "--margin", "200", "--replicas", "1")
    assert code == 0
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["n_records"] > 0
    for key in ("alpha_se", "sigma_se", "ks_stat"):
        assert report[key] is None


def test_degenerate_sigma_writes_null_ks(capsys):
    code, out, _ = _main(capsys, "estimate", "--p", "1.0", "--n", "300",
                         "--margin", "50", "--replicas", "2")
    assert code == 0
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["sigma_hat"] == 0.0 and report["ks_stat"] is None


def test_estimate_report_keys(capsys):
    code, out, _ = _main(capsys, "estimate", "--n", "300", "--margin", "50",
                         "--replicas", "2", "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"p", "n_records", "alpha_hat", "alpha_se",
                           "sigma_hat", "sigma_se", "ks_n", "ks_stat",
                           "seeds_used", "spec_hash", "version"}
    assert report["seeds_used"] == {"master_seed": 4, "replicas": 2,
                                    "stream_stride": 1024}


# -- streams -------------------------------------------------------------------

@pytest.mark.parametrize("argv, replicas", [
    # 16 calibration replicas, then 2 eps x 2 t x 2 delta x 3 replicas
    (["eta", "--eps", "0.01", "0.02", "--t", "0.5", "1", "--delta", "0.5",
      "1", "--replicas", "3"], 16 + 24),
    # two banks of 3 replicas
    (["eta", "--n", "100", "--x", "4", "--replicas", "6"], 6),
    (["coalesce", "--eps", "0.01", "0.02", "--delta", "1", "--t", "0.25",
      "--replicas", "3", "--out", "{out}"], 16 + 6),
    # 2 p values x 3 replicas, then the p = 0 probe
    (["check", "--delta", "0.7", "0.9", "--n", "20", "--replicas", "3"],
     6 + 1),
], ids=["eta_b1", "eta_b2", "coalesce", "check"])
def test_no_two_replicas_of_a_run_share_a_stream(capsys, tmp_path,
                                                 monkeypatch, argv, replicas):
    # every replica builds its one configuration, or the base of it in a
    # batch of replicas, in this process (one worker); the clusters of a
    # B1/B2 family or a coalescing pair share it
    from opweb import couple
    from opweb.lattice import STREAMS_PER_REPLICA, Config
    built = []
    post_init = Config.__post_init__
    replica_bases = couple.replica_bases
    assert oracle.replica_bases is replica_bases

    def recording(cfg):
        post_init(cfg)
        built.append((cfg.seed, cfg.stream_id))

    def recording_bases(seed, first, count):
        built.extend((seed, (first + k) * STREAMS_PER_REPLICA + 1)
                     for k in range(count))
        return replica_bases(seed, first, count)

    monkeypatch.setattr(Config, "__post_init__", recording)
    monkeypatch.setattr(couple, "replica_bases", recording_bases)
    monkeypatch.setattr(oracle, "replica_bases", recording_bases)
    out = tmp_path / "out.csv"
    argv = [a.format(out=out) for a in argv]
    assert _main(capsys, *argv, "--p", "0.8", "--seed", "3")[0] == 0
    assert len(built) == replicas
    assert len(set(built)) == replicas


# -- precedence ----------------------------------------------------------------

def test_precedence_flag_over_spec_over_default(tmp_path):
    spec = _spec_file(tmp_path, {"n": 77, "seed": 5, "sigma": 0.5})
    resolved = cli.spec_from_argv(
        ["eta", "--spec", spec, "--n", "12", "--replicas", "3"])
    assert resolved.n == 12  # flag beats the spec file
    assert resolved.seed == 5 and resolved.sigma == 0.5  # spec file
    assert resolved.replicas == 3  # flag beats the command default
    assert resolved.margin == 500  # default
    bare = cli.spec_from_argv(["eta"])
    assert (bare.n, bare.replicas, bare.seed) == (1000, 1000, 0)


def test_every_spec_field_but_command_has_one_flag():
    fields = {f.name for f in dataclasses.fields(cli.ExperimentSpec)}
    assert set(cli.SPEC_FLAGS) == fields - {"command"}
    for key in cli.SPEC_FLAGS:
        flag = "--" + key.replace("_", "-")
        value = getattr(cli.spec_from_argv(["eta", flag, "1"]), key)
        assert value == ((1.0,) if key in cli.LIST_FIELDS else
                         "1" if key == "out" else 1), key


def test_precedence_of_sigma_and_scan_guard(tmp_path):
    spec = _spec_file(tmp_path, {"sigma": 0.5, "scan_guard": 300})

    def resolve(*argv):
        return cli.spec_from_argv(["eta", *argv])

    flagged = resolve("--spec", spec, "--sigma", "0.9", "--scan-guard", "70")
    assert (flagged.sigma, flagged.scan_guard) == (0.9, 70)
    filed = resolve("--spec", spec)
    assert (filed.sigma, filed.scan_guard) == (0.5, 300)
    bare = resolve()
    assert (bare.sigma, bare.scan_guard) == (None, 10_000)
    # the flags set the same spec fields, so the spec hash follows the value
    assert resolve("--sigma", "0.5", "--scan-guard", "300").hash() == filed.hash()


# -- the argv grammar ----------------------------------------------------------

def _argparse_reads(argv):
    """The spec fields argparse reads from ``argv``, or its exit code."""
    try:
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            ns = argparse_reference().parse_args(argv)
    except SystemExit as e:
        return e.code
    return {key: getattr(ns, key) for key in ("command", "spec",
                                              *cli.SPEC_FLAGS)}


def _cli_reads(argv):
    """The same from `cli.parse_argv`: 0 for help and 2 for an error."""
    try:
        parsed = cli.parse_argv(argv)
    except InvalidArgumentError:
        return 2
    if parsed is None:
        return 0
    command, fields = parsed
    return {"command": command,
            **{key: fields.get(key) for key in ("spec", *cli.SPEC_FLAGS)}}


FLAGS = ["--" + key.replace("_", "-") for key in (*cli.SPEC_FLAGS, "spec")]
JUNK = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),  # exponents, "nan", "inf" and "-inf" among them
    st.sampled_from([
        "-.5", ".5", "-1.", "-1e5", "1E-3", "+3", "1_0", "-nan", "NaN",
        "abc", "x", "", "-", "-x", "-5x", "-1 e", "a b", "- 1", "--n 5",
        "--eps 1", "-h x", "=", "-=", "--bogus", "-h", "--he"]))
TYPED = {int: st.integers(-10**6, 10**6).map(str),
         float: st.one_of(st.floats().map(repr),
                          st.integers(-99, 99).map(str)),
         str: st.one_of(st.text(max_size=4).filter(lambda text: text != "--"),
                        st.sampled_from(["-", "- 1", "-1 e", "--n 5"]))}


def _mostly(draw, strategy, other):
    """A draw from ``strategy``, or one time in ten from ``other``."""
    return draw(other if draw(st.integers(0, 9)) == 0 else strategy)


@st.composite
def _argv(draw):
    """An argv, mostly well formed: a command, then flags, each exact, a
    prefix or with ``=value``, and values mostly of the flag's type; now
    and then tokens before the command, an unknown command or none, an
    unknown flag, a help flag, or a value of any kind."""
    argv = []
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.lists(JUNK, max_size=2))
    argv += _mostly(draw, st.sampled_from(list(cli.COMMAND_DEFAULTS)),
                    st.sampled_from(["", "nope", "-h"])).split()
    for _ in range(draw(st.integers(0, 6))):
        flag = _mostly(draw, st.sampled_from(FLAGS),
                       st.sampled_from(["--help", "-h", "--bogus", "-x"]))
        key = cli._FLAGS.get(flag)
        kind = cli.SPEC_FLAGS.get(key, str)
        if flag.startswith("--") and draw(st.booleans()):
            flag = flag[:draw(st.integers(3, len(flag)))]
        count = _mostly(draw, st.just(1), st.integers(0, 3))
        if key in cli.LIST_FIELDS:
            count = draw(st.integers(0, 3))
        values = [_mostly(draw, TYPED[kind], JUNK) for _ in range(count)]
        if values and draw(st.integers(0, 3)) == 0:
            flag += "=" + values.pop(0)
        argv += [flag, *values]
    return argv


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(_argv())
def test_argv_reads_as_argparse_reads_it(argv):
    # a bare "--" is left out: it is an error here, and argparse, whose
    # handling of it differs between versions, has nothing after it to read
    assert repr(_cli_reads(argv)) == repr(_argparse_reads(argv)), argv


@pytest.mark.parametrize("argv", [
    ["eta", "--ep", "0.1", "0.2", "--ep", "0.3"],  # the last repeat wins
    ["eta", "--eps"],  # a list flag with no values
    ["eta", "--p", "-.5", "--seed=-3", "--t", "-1", "-2.5", "--x", "-"],
    ["eta", "--p", "-1e5"],  # not argparse's negative number: a flag
    ["eta", "--spec", "a b", "--out", "-1 e"],
    ["eta", "--s", "1"],  # ambiguous
    ["eta", "--h"],  # ambiguous: --help, --horizon
    ["--h"],  # help: the only flag before the command
    ["--bogus", "eta", "-h"],  # a later help wins over an unknown flag
    ["eta", "--bogus", "--help"],
    ["eta", "-h", "--s"],  # an ambiguous flag anywhere is an error
    ["eta", "-h", "--n", "x"],  # values after help are not read
    ["eta", "--n", "x", "-h"],
    ["eta", "--help=1"],
    ["-hx", "eta"],
    ["eta", "--eps=1", "2"],  # "=" gives a list flag its one value
    ["eta", "--n=", "5"],
    ["-5"], ["", "eta"], ["eta", ""],
])
def test_argv_edge_cases_read_as_argparse_reads_them(argv):
    assert repr(_cli_reads(argv)) == repr(_argparse_reads(argv))


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["eta", "--he"],
                                  ["--bogus", "check", "-h"]])
def test_help_prints_the_usage(capsys, argv):
    code, out, err = _main(capsys, *argv)
    assert code == 0 and err == "" and out == cli.usage()
    for word in [*cli.COMMAND_DEFAULTS, *FLAGS]:
        assert f"{word} " in out, word


# -- spec hashes ---------------------------------------------------------------

NUMBERS = st.one_of(st.integers(-2**70, 2**70), st.floats())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.builds(
    cli.ExperimentSpec, command=st.sampled_from(sorted(cli.COMMAND_DEFAULTS)),
    p=NUMBERS, seed=st.integers(), replicas=st.integers(), n=st.integers(),
    horizon=st.none() | st.integers(), margin=st.integers(),
    eps=st.lists(NUMBERS, max_size=4).map(tuple),
    delta=st.lists(NUMBERS, max_size=4).map(tuple),
    x=st.none() | st.integers(), t=st.lists(NUMBERS, max_size=4).map(tuple),
    out=st.none() | st.text(), workers=st.integers(),
    sigma=st.none() | NUMBERS, scan_guard=st.integers()))
def test_canonical_is_the_deep_copy(spec):
    # ints stand in float fields as a spec file may put them there
    new, old = spec.canonical(), canonical_reference(spec)
    assert list(new) == list(old)
    assert (json.dumps(new, sort_keys=True)
            == json.dumps(old, sort_keys=True))


def test_spec_file_ints_keep_their_hash(tmp_path):
    spec = cli.spec_from_argv(["eta", "--spec", _spec_file(
        tmp_path, {"p": 1, "sigma": 2, "eps": [1, 0.5], "t": [2],
                   "x": None})])
    blob = json.dumps(canonical_reference(spec), sort_keys=True).encode()
    assert spec.hash() == hashlib.sha256(blob).hexdigest()[:16]
    assert json.dumps(spec.canonical()) == json.dumps(
        canonical_reference(spec))


# -- worker-count invariance ---------------------------------------------------

def _run_ok(capsys, argv, workers):
    """Stdout of a run that must exit 0."""
    code, out, _ = _main(capsys, *argv, "--workers", str(workers))
    assert code == 0
    return out


@pytest.mark.parametrize("argv", [
    ["check", "--delta", "0.7", "0.9", "--n", "20", "--replicas", "3",
     "--seed", "4"],
    ["check", "--delta", "0.55", "--n", "100", "--replicas", "5"],
    ["estimate", "--p", "0.8", "--n", "300", "--margin", "100",
     "--replicas", "3", "--seed", "2"],
    ["eta", "--p", "0.8", "--eps", "0.01", "--t", "0.5", "--delta", "0.5",
     "1.0", "--replicas", "6", "--seed", "3"],
    # on 2 workers, 7 replicas walk in 7 ranges of one, and 13 in 8 ranges
    # of one or two
    ["eta", "--p", "0.8", "--eps", "0.01", "--t", "0.5", "--delta", "0.5",
     "1.0", "--replicas", "7", "--seed", "3"],
    ["eta", "--p", "0.8", "--eps", "0.01", "--t", "0.5", "--delta", "0.5",
     "1.0", "--replicas", "13", "--seed", "3"],
    ["eta", "--p", "0.8", "--n", "100", "--x", "4", "--replicas", "12",
     "--seed", "3"],
], ids=["check", "check_near_critical", "estimate", "eta", "eta_7", "eta_13",
        "eta_b2"])
def test_stdout_independent_of_workers(capsys, tmp_path, argv):
    if argv[0] == "eta" and "--x" not in argv:
        argv = argv + ["--spec", _spec_file(tmp_path, SIGMA_SPEC)]
    one = _run_ok(capsys, argv, 1)
    assert [_run_ok(capsys, argv, w) for w in (2, 3)] == [one, one]


def test_coalesce_file_independent_of_workers(capsys, tmp_path):
    spec = _spec_file(tmp_path, SIGMA_SPEC)
    for replicas in ("6", "7", "13"):
        outs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"coalesce-{replicas}-{workers}.csv"
            _run_ok(capsys, ["coalesce", "--p", "0.8", "--eps", "0.01",
                             "--delta", "1", "--t", "0.25", "0.5",
                             "--replicas", replicas, "--seed", "3",
                             "--spec", spec, "--out", str(out)], workers)
            outs.append(out.read_bytes())
        assert outs[1:] == [outs[0]] * 2, replicas


def test_simulate_files_independent_of_workers(capsys, tmp_path):
    trees = []
    for workers in (1, 2, 3):
        out = tmp_path / f"sim-{workers}"
        _run_ok(capsys, ["simulate", "--p", "0.8", "--n", "50",
                         "--horizon", "100", "--replicas", "3", "--seed", "3",
                         "--out", str(out)], workers)
        trees.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert sorted(trees[0]) == ["manifest.json", "traj_00000.csv",
                                "traj_00001.csv", "traj_00002.csv"]
    assert trees[1:] == [trees[0]] * 2


@pytest.mark.parametrize("argv", [
    ["estimate", "--p", "0.55", "--n", "2000", "--margin", "100",
     "--replicas", "8", "--seed", "3"],
    ["eta", "--p", "0.56", "--eps", "0.001", "--t", "1", "--delta", "1",
     "--sigma", "1", "--replicas", "40", "--seed", "3"],
    ["check", "--delta", "0.55", "--n", "400", "--replicas", "8",
     "--seed", "3"],
], ids=["estimate", "eta", "check"])
def test_failed_run_independent_of_workers(capsys, argv):
    # subcritical p: several replicas trip the guard, and the run reports
    # the first of them in order, whichever trips first in time
    one, two = (_main(capsys, *argv, "--workers", w) for w in ("1", "2"))
    assert one[0] == 3 and one[2].startswith("scan guard tripped")
    assert two == one


# -- start-up and version ------------------------------------------------------

def test_package_and_project_versions_agree():
    import tomllib
    pyproject = Path(opweb.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == opweb.__version__


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ,
               PYTHONPATH=str(Path(opweb.__file__).resolve().parents[1]))
    # nor the native walk, whose first use may build the library, nor
    # argparse, nor multiprocessing, nor concurrent.futures, which only a
    # pool of workers needs, nor numpy, which only simulate and check need
    probe = ("import sys, opweb.cli; print(*(m in sys.modules for m in "
             "('scipy', 'opweb._native', 'argparse', 'multiprocessing', "
             "'concurrent.futures', 'numpy')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"] * 6


_WALK_COMMANDS = [
    ["estimate", "--n", "400", "--margin", "100", "--replicas", "3"],
    ["eta", "--eps", "0.01", "--t", "0.5", "--delta", "0.5", "1",
     "--replicas", "3", "--sigma", "0.87"],
    # no sigma: the calibration's estimate runs first
    ["eta", "--eps", "0.01", "--t", "0.5", "--delta", "0.5",
     "--replicas", "3"],
    ["eta", "--n", "100", "--x", "3", "--replicas", "6"],
    ["coalesce", "--eps", "0.01", "--delta", "1", "--t", "0.25", "0.5",
     "--replicas", "3", "--sigma", "0.87", "--out", "{out}"],
]

_WALK_PROBE = """
import contextlib, io, json, sys
from opweb import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([argv[0], code, sys.argv[2] in sys.modules])
print(json.dumps(seen))
"""


def _probe(argvs, module):
    """Runs ``argvs`` in order in one fresh interpreter, and returns each
    one's command, exit code and whether ``module`` was loaded after it."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(opweb.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _WALK_PROBE,
                           json.dumps(argvs), module], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    return json.loads(done.stdout)


def test_walk_commands_run_without_numpy(tmp_path):
    # estimate, eta B1 with and without a sigma, eta B2, coalesce, and check
    # on one worker and on two, in one fresh interpreter: each exits 0, and
    # none loads numpy, so a shell call of any of them never pays numpy's
    # import; simulate is the one command that loads it
    out = tmp_path / "out.csv"
    check = ["check", "--delta", "0.7", "0.8", "0.9", "--n", "500",
             "--replicas", "2", "--workers"]
    argvs = [[a.format(out=out) for a in argv] for argv in _WALK_COMMANDS]
    argvs += [check + ["1"], check + ["2"]]
    assert _probe(argvs, "numpy") == [[argv[0], 0, False] for argv in argvs]
    assert out.read_text(encoding="utf-8").startswith("# spec_hash=")


def test_workers_run_without_multiprocessing():
    # the workers are threads of the one process: eta B1 and check on two
    # of them start no process pool
    argvs = [["eta", "--eps", "0.01", "--t", "0.5", "--delta", "0.5", "1",
              "--replicas", "8", "--sigma", "0.87", "--workers", "2"],
             ["check", "--delta", "0.8", "--n", "50", "--replicas", "4",
              "--workers", "2"]]
    assert _probe(argvs, "multiprocessing") == [["eta", 0, False],
                                                ["check", 0, False]]
