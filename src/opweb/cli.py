"""Command-line front end: reproducible experiment orchestration.

Subcommands: ``simulate | estimate | coalesce | eta | check``.  A run is
pinned by its spec (flags or ``--spec`` JSON file; flags win) plus the
package version; outputs are byte-identical across repeat runs and worker
counts, and every output file embeds the spec hash.  Exit codes: 0 ok,
1 check failures, 2 invalid spec or insufficient data, 3 scan guard
tripped, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .couple import coalescence_survival_curve
from .errors import (InsufficientDataError, InvalidArgumentError,
                     InvalidSiteError, ScanLimitExceededError)
from .explore import ExplorationCluster, explore_to_level
from .lattice import Config, LatticeSite, STREAMS_PER_REPLICA
from .metrics import b1_battery, b2_fkg_check
from .oracle import check_suite
from .regen import RegenAccumulator, break_point_arrays
from .runner import pmap
from .stats import ks_distance_to_normal

DEFAULT_T_GRID = tuple(round(0.1 * k, 1) for k in range(1, 21))

ESTIMATE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["p", "n_records", "alpha_hat", "alpha_se", "sigma_hat",
                 "sigma_se", "ks_n", "ks_stat", "seeds_used"],
    "properties": {
        "p": {"type": "number"},
        "n_records": {"type": "integer", "minimum": 0},
        "alpha_hat": {"type": "number"},
        "alpha_se": {"type": ["number", "null"]},
        "sigma_hat": {"type": "number"},
        "sigma_se": {"type": ["number", "null"]},
        "ks_n": {"type": "integer"},
        "ks_stat": {"type": ["number", "null"]},
        "seeds_used": {
            "type": "object",
            "required": ["master_seed", "replicas", "stream_stride"],
            "properties": {
                "master_seed": {"type": "integer"},
                "replicas": {"type": "integer"},
                "stream_stride": {"type": "integer"},
            },
        },
        "spec_hash": {"type": "string"},
        "version": {"type": "string"},
    },
}


@dataclass
class ExperimentSpec:
    command: str
    p: float = 0.8
    seed: int = 0
    replicas: int = 1
    n: int = 1000
    horizon: int | None = None
    margin: int = 500
    eps: tuple = ()
    delta: tuple = ()
    x: int | None = None
    t: tuple = ()
    out: str | None = None
    workers: int = 1
    sigma: float | None = None
    scan_guard: int = 10_000

    def canonical(self) -> dict:
        """Content-determining fields only; destination and worker count are
        execution details and never influence output bytes."""
        d = dataclasses.asdict(self)
        del d["out"], d["workers"]
        for key in ("eps", "delta", "t"):
            d[key] = list(d[key])
        return d

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# -- simulate ----------------------------------------------------------------

def _simulate_worker(args):
    p, seed, replica, n, horizon, scan_guard = args
    cfg = Config(seed, p, replica * STREAMS_PER_REPLICA + 1)
    cluster = ExplorationCluster(LatticeSite(0, 0), cfg, scan_guard=scan_guard)
    cluster.advance_to(n)
    left_n = list(cluster.left_values)
    cluster.advance_to(horizon)
    r = cluster.right_values[:n + 1]
    gamma = cluster.left_values[:n + 1]
    lines = [f"{j},{r[j]},{left_n[j]},{gamma[j]}" for j in range(n + 1)]
    return lines


def cmd_simulate(spec: ExperimentSpec) -> int:
    if not spec.out:
        raise InvalidArgumentError("simulate requires --out directory")
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    horizon = spec.horizon if spec.horizon else 4 * spec.n
    jobs = [(spec.p, spec.seed, r, spec.n, horizon, spec.scan_guard)
            for r in range(spec.replicas)]
    results = pmap(_simulate_worker, jobs, spec.workers)
    files = []
    for r, lines in enumerate(results):
        name = f"traj_{r:05d}.csv"
        body = "\n".join([f"# spec_hash={spec.hash()}", "j,r_j,l_j,gamma_j"]
                         + lines) + "\n"
        _write_text(out / name, body)
        files.append({"name": name, "rows": len(lines)})
    manifest = {"spec": spec.canonical(), "spec_hash": spec.hash(),
                "version": __version__, "files": files}
    _write_text(out / "manifest.json",
                json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return 0


# -- estimate ----------------------------------------------------------------

def _estimate_worker(args):
    p, seed, replica, n, margin, scan_guard = args
    cfg = Config(seed, p, replica * STREAMS_PER_REPLICA + 1)
    cluster = explore_to_level(LatticeSite(0, 0), n + margin, cfg,
                               scan_guard=scan_guard)
    T, RT = break_point_arrays(cluster, n, margin)
    return (np.diff(RT), np.diff(T), cluster.right_values[n])


def estimate_report(spec: ExperimentSpec) -> dict:
    jobs = [(spec.p, spec.seed, r, spec.n, spec.margin, spec.scan_guard)
            for r in range(spec.replicas)]
    acc = RegenAccumulator()
    endpoints = []
    for X, tau, r_n in pmap(_estimate_worker, jobs, spec.workers):
        acc.add(X, tau)
        endpoints.append(r_n)
    est = acc.finalize()
    norm = (np.array(endpoints, dtype=np.float64) - est.alpha_hat * spec.n)
    ks = None
    if est.sigma_hat > 0 and len(endpoints) > 1:
        ks = ks_distance_to_normal(norm / (est.sigma_hat * math.sqrt(spec.n)))
    return {
        "p": spec.p, "n_records": est.n_records,
        "alpha_hat": est.alpha_hat, "alpha_se": _defined(est.alpha_se),
        "sigma_hat": est.sigma_hat, "sigma_se": _defined(est.sigma_se),
        "ks_n": spec.n, "ks_stat": ks,
        "seeds_used": {"master_seed": spec.seed, "replicas": spec.replicas,
                       "stream_stride": STREAMS_PER_REPLICA},
        "spec_hash": spec.hash(), "version": __version__,
    }


def _defined(v: float) -> float | None:
    """An undefined statistic (NaN) as None, which JSON writes as null."""
    return None if math.isnan(v) else v


def cmd_estimate(spec: ExperimentSpec) -> int:
    report = estimate_report(spec)
    text = json.dumps(report, sort_keys=True, indent=1, allow_nan=False) + "\n"
    if spec.out:
        _write_text(spec.out, text)
    else:
        sys.stdout.write(text)
    return 0


def calibrate_sigma(p: float, seed: int, *, workers: int = 1,
                    replicas: int = 16, n: int = 4000, margin: int = 400,
                    scan_guard: int = 10_000) -> float:
    """Quick internal drift/diffusivity calibration on a reserved seed bank."""
    from .lattice import mix64
    calib = ExperimentSpec("estimate", p=p, seed=mix64(seed ^ 0xCA11B), n=n,
                           margin=margin, replicas=replicas, workers=workers,
                           scan_guard=scan_guard)
    return estimate_report(calib)["sigma_hat"]


# -- coalesce ----------------------------------------------------------------

def cmd_coalesce(spec: ExperimentSpec) -> int:
    if not spec.out:
        raise InvalidArgumentError("coalesce requires --out file")
    deltas = spec.delta or (1.0,)
    if len(deltas) != 1:
        raise InvalidArgumentError("coalesce takes exactly one delta target")
    eps_list = spec.eps or (1e-3,)
    t_grid = spec.t or DEFAULT_T_GRID
    sigma = spec.sigma or calibrate_sigma(spec.p, spec.seed,
                                          workers=spec.workers,
                                          scan_guard=spec.scan_guard)
    lines = [f"# spec_hash={spec.hash()}",
             "eps,t,empirical_survival,baseline_erf,n_replicas,n_censored"]
    for ie, eps in enumerate(eps_list):
        gap = int(round(deltas[0] * sigma / math.sqrt(eps) / 2)) * 2
        gap = max(2, gap)
        rows = coalescence_survival_curve(
            gap, spec.p, [eps], t_grid, spec.replicas, seed=spec.seed,
            sigma_hat=sigma, workers=spec.workers, scan_guard=spec.scan_guard,
            replica_offset=ie * spec.replicas)
        for row in rows:
            lines.append(",".join(_fmt(row[k]) for k in
                                  ("eps", "t", "empirical_survival",
                                   "baseline_erf", "n_replicas", "n_censored")))
    _write_text(spec.out, "\n".join(lines) + "\n")
    return 0


# -- eta ---------------------------------------------------------------------

def cmd_eta(spec: ExperimentSpec) -> int:
    rows = []
    if spec.x is not None:
        rep = b2_fkg_check(spec.p, spec.n, spec.x, spec.replicas,
                           seed=spec.seed, workers=spec.workers,
                           scan_guard=spec.scan_guard)
        rows.append({
            "battery": "b2", "p": spec.p, "level": spec.n, "x": spec.x,
            "estimate": rep.p3, "ci_low": rep.p3_ci[0], "ci_high": rep.p3_ci[1],
            "n": rep.n_per_side, "p2": rep.p2,
            "p2_ci_low": rep.p2_ci[0], "p2_ci_high": rep.p2_ci[1],
            "rhs": rep.rhs, "slack": rep.slack, "holds": rep.holds,
            "spec_hash": spec.hash(),
        })
    else:
        if not spec.eps or not spec.delta or not spec.t:
            raise InvalidArgumentError("eta battery b1 needs --eps, --delta, --t")
        sigma = spec.sigma or calibrate_sigma(spec.p, spec.seed,
                                              workers=spec.workers,
                                              scan_guard=spec.scan_guard)
        offset = 0
        for eps in spec.eps:
            for t in spec.t:
                batch = b1_battery(spec.p, eps, t, spec.delta, spec.replicas,
                                   sigma_hat=sigma, seed=spec.seed,
                                   workers=spec.workers,
                                   scan_guard=spec.scan_guard,
                                   replica_offset=offset)
                offset += spec.replicas * len(spec.delta)
                for row in batch:
                    row["battery"] = "b1"
                    row["spec_hash"] = spec.hash()
                    rows.append(row)
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n"
    if spec.out:
        _write_text(spec.out, text)
    else:
        sys.stdout.write(text)
    return 0


# -- check -------------------------------------------------------------------

def cmd_check(spec: ExperimentSpec) -> int:
    # --delta doubles as the list of p values to sweep; default suite below
    ps = spec.delta or (0.7, 0.8, 0.9)
    report = check_suite(ps, spec.replicas, spec.n, spec.seed,
                         workers=spec.workers)
    for p in ps:
        ok = report["per_p"][p]
        print(f"p={p}: {ok['passed']}/{ok['total']} exact matches")
    print(f"p=0 guard agreement: {'ok' if report['p0_agreement'] else 'FAIL'}")
    for failure in report["failures"]:
        print(f"FAIL p={failure['p']} replica={failure['replica']}: "
              f"{failure['kind']}")
    if report["failures"] or not report["p0_agreement"]:
        return 1
    return 0


# -- wiring ------------------------------------------------------------------

COMMAND_DEFAULTS = {
    "simulate": {"n": 1000, "replicas": 1},
    "estimate": {"n": 20_000, "replicas": 8},
    "coalesce": {"replicas": 1000},
    "eta": {"n": 1000, "replicas": 1000},
    "check": {"n": 50, "replicas": 200},
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="opweb", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMAND_DEFAULTS:
        sp = sub.add_parser(name)
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--replicas", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--horizon", type=int, default=None)
        sp.add_argument("--margin", type=int, default=None)
        sp.add_argument("--eps", type=float, nargs="*", default=None)
        sp.add_argument("--delta", type=float, nargs="*", default=None)
        sp.add_argument("--x", type=int, default=None)
        sp.add_argument("--t", type=float, nargs="*", default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--sigma", type=float, default=None)
        sp.add_argument("--scan-guard", type=int, default=None)
        sp.add_argument("--spec", type=str, default=None)
    return ap


def spec_from_args(args) -> ExperimentSpec:
    """Resolve precedence: flags > spec file > per-command defaults."""
    base = {}
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            base = json.load(fh)
    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    unknown = set(base) - fields
    if unknown:
        raise InvalidArgumentError(f"unknown spec keys: {sorted(unknown)}")
    merged = dict(base)
    merged["command"] = args.command
    for key in ("p", "seed", "replicas", "n", "horizon", "margin", "eps",
                "delta", "x", "t", "out", "workers", "sigma", "scan_guard"):
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    for key, val in COMMAND_DEFAULTS[args.command].items():
        merged.setdefault(key, val)
    for key in ("eps", "delta", "t"):
        merged[key] = tuple(merged.get(key) or ())
    spec = ExperimentSpec(**merged)
    if not 0.0 <= spec.p <= 1.0 or spec.replicas < 1 or spec.n < 0:
        raise InvalidArgumentError("spec values out of range")
    return spec


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        handler = {"simulate": cmd_simulate, "estimate": cmd_estimate,
                   "coalesce": cmd_coalesce, "eta": cmd_eta,
                   "check": cmd_check}[spec.command]
        return handler(spec)
    except (InvalidArgumentError, InvalidSiteError, json.JSONDecodeError) as e:
        print(f"invalid spec: {e}", file=sys.stderr)
        return 2
    except InsufficientDataError as e:
        print(f"insufficient data: {e}", file=sys.stderr)
        return 2
    except ScanLimitExceededError as e:
        print(f"scan guard tripped: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
