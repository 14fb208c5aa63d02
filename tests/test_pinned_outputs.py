"""Pinned output bytes of the command line.

Each call runs in-process through `opweb.cli.main` and its output (stdout,
the ``--out`` file, or every file of the ``--out`` directory with its name)
is reduced to a sha256.  A change that keeps these hashes keeps every byte
the calls write; a change that means to alter output must say so and
update the hash with the package version.
"""

import hashlib

import numpy as np
import pytest

from opweb import _native, cli, couple, oracle
from opweb.lattice import replica_config

from _references import (bounds_reference, chain_reference, check_reference,
                         estimate_reference)

SIGMA = ["--sigma", "0.87"]

CALLS = {
    "simulate": (
        ["simulate", "--p", "0.8", "--n", "50", "--horizon", "100",
         "--replicas", "3", "--seed", "3", "--out", "{dir}"],
        "3b5bcf6331961a691b3ba026523a61265d244e776e32570a19bf171ed2862684"),
    # replica 1's left boundary on [0, 50] moves on five levels between
    # levels 50 and 100, so its l and gamma columns differ there
    "simulate_l_moves": (
        ["simulate", "--p", "0.8", "--n", "50", "--horizon", "100",
         "--replicas", "3", "--seed", "4", "--out", "{dir}"],
        "8073b30d0afbc402984794fbe1e4db2d69e6992a37cb77d663092d1250903fda"),
    "estimate": (
        ["estimate", "--p", "0.8", "--n", "2000", "--margin", "200",
         "--replicas", "4", "--seed", "2"],
        "0bb1b012e150ab6441ecf96339951ab3360fe32c263bc2eae68c52675d9a731d"),
    "eta_b1_sigma": (
        ["eta", "--p", "0.8", "--eps", "0.01", "0.02", "--t", "0.5", "1",
         "--delta", "0.5", "1", "--replicas", "20", "--seed", "3", *SIGMA],
        "8847e171c0a56e6f51307d51255a99e0c79dfb25ae04cc0d816aef55c269383c"),
    "eta_b1_calibrated": (
        ["eta", "--p", "0.8", "--eps", "0.01", "--t", "0.5", "--delta", "0.5",
         "--replicas", "10", "--seed", "4"],
        "bf76d7b752bdff8a8d984a50d4136c7ec4a79ee1c3ed71037611946c67759a0b"),
    "eta_b2": (
        ["eta", "--p", "0.8", "--n", "100", "--x", "4", "--replicas", "12",
         "--seed", "3"],
        "55039fed552badfe28961632c5ea04fb56ed365d4c679050dbc0c2c5bade2065"),
    "coalesce": (
        ["coalesce", "--p", "0.8", "--eps", "0.01", "0.02", "--delta", "1",
         "--t", "0.25", "0.5", "--replicas", "10", "--seed", "3", *SIGMA,
         "--out", "{file}"],
        "2c953a0e5f98e328af980593339d94d58375ffcc1246b21b18513dae363c4c9c"),
    "check_dp": (
        ["check", "--delta", "0.7", "0.8", "0.9", "--n", "500",
         "--replicas", "2", "--seed", "1001"],
        "ea0122d2ee845d27dbd042704901469352ebb2d661d87aade10d0cdaf241bc92"),
    "check_near_critical": (
        ["check", "--delta", "0.55", "--n", "100", "--replicas", "5"],
        "652c20642d4ec492d52e71402dadf32a5b405b34dd6ed491c6ccc69b2ef9de4f"),
}


def _output_digest(argv, tmp_path, capsys) -> str:
    out_dir, out_file = tmp_path / "out", tmp_path / "out.csv"
    argv = [a.format(dir=out_dir, file=out_file) for a in argv]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    digest = hashlib.sha256()
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    elif out_file.exists():
        digest.update(out_file.read_bytes())
    else:
        digest.update(stdout.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_output_bytes_are_pinned(name, tmp_path, capsys):
    argv, expected = CALLS[name]
    assert _output_digest(argv, tmp_path, capsys) == expected


@pytest.mark.parametrize("name", sorted(CALLS))
def test_python_walk_writes_the_pinned_bytes(name, monkeypatch, tmp_path,
                                             capsys):
    # every walk of every call, the estimate workers that also calibrate
    # sigma included, and every ladder that judges a check's walk, runs on
    # the Python references of the tests, which must write the same bytes
    # as the native walks; the batched chains and checks take one Config's
    # base per replica, which also checks `lattice.replica_bases`
    def config_bases(seed, first, count):
        return np.array([replica_config(seed, 0.0, first + k)._base
                         for k in range(count)], dtype=np.uint64)

    monkeypatch.setattr(_native, "bounds", bounds_reference)
    monkeypatch.setattr(_native, "chain", chain_reference)
    monkeypatch.setattr(_native, "check_walks", check_reference)
    monkeypatch.setattr(couple, "replica_bases", config_bases)
    monkeypatch.setattr(oracle, "replica_bases", config_bases)
    monkeypatch.setattr(_native, "breaks", estimate_reference)
    argv, expected = CALLS[name]
    assert _output_digest(argv, tmp_path, capsys) == expected
