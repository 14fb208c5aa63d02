"""Command-line front end: reproducible experiment orchestration.

    opweb <command> [--flag value ...]

The command is one of ``simulate | estimate | coalesce | eta | check``.
Each flag sets the spec field of its name (``--scan-guard`` sets
``scan_guard``) and takes one value, given as the next token or as
``--flag=value``; the list flags ``--eps``, ``--delta`` and ``--t`` take
every value that follows them.  A flag may be shortened to any prefix that
names it alone, and when a flag is repeated the last one wins.  A token
that starts with ``-`` is a value only when it is ``-`` alone, a negative
number such as ``-3`` or ``-.5``, or contains a space.  ``-h`` or
``--help`` prints the usage.

A run is pinned by its spec (flags or ``--spec`` JSON file; flags win) plus
the package version; stdout, output files, exit code and stderr are
identical across repeat runs and for any ``--workers`` (`opweb.runner`),
and every output file embeds the spec hash.  Every walk runs
in the native library of ``_walk.c``, built with the local C compiler on
the first walk of a process.  Exit codes: 0 ok, 1 check failures, 2 an
argv error, an invalid spec (one that asks for an array larger than any
address space among them), insufficient data or out of memory, 3 scan
guard tripped, 4 I/O failure or a native library that cannot be built or
loaded (`NativeLibraryError`, whose message names the cause).

Importing this module loads no numpy.  ``estimate``, ``eta``,
``coalesce`` and ``check`` never load it: their walks and judges hand back
ints and lists, and their statistics are plain floats.  ``simulate``
writes whole boundaries, held in numpy arrays: it imports `opweb.explore`,
and with it numpy, when it runs; ``check`` imports `opweb.oracle` when it
runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .couple import b1_battery, b2_fkg_check, coalescence_survival_curve
from .errors import (DEFAULT_SCAN_GUARD, InsufficientDataError,
                     InvalidArgumentError, InvalidSiteError,
                     NativeLibraryError, ScanLimitExceededError)
from .lattice import (LatticeSite, STREAMS_PER_REPLICA, calibration_seed,
                      replica_config)
from .regen import replica_estimate
from .runner import pmap
from .stats import ks_distance_to_normal

DEFAULT_T_GRID = tuple(round(0.1 * k, 1) for k in range(1, 21))

# the spec fields that flags set, with the types that read their values; a
# field ``scan_guard`` is the flag ``--scan-guard``
SPEC_FLAGS = {"p": float, "seed": int, "replicas": int, "n": int,
              "horizon": int, "margin": int, "eps": float, "delta": float,
              "x": int, "t": float, "out": str, "workers": int,
              "sigma": float, "scan_guard": int}
LIST_FIELDS = ("eps", "delta", "t")  # flags taking any number of values
_INT64_FIELDS = tuple(key for key, kind in SPEC_FLAGS.items()
                      if kind is int and key != "seed")


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
    scan_guard: int = DEFAULT_SCAN_GUARD

    def canonical(self) -> dict:
        """Content-determining fields only; destination and worker count are
        execution details and never influence output bytes."""
        d = {key: getattr(self, key) for key in _CANONICAL_FIELDS}
        for key in LIST_FIELDS:
            d[key] = list(d[key])
        return d

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# read once: the defaults that a spec file's values are checked against,
# and the fields that canonical() copies
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
_CANONICAL_FIELDS = tuple(key for key in _DEFAULTS
                          if key not in ("out", "workers"))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# -- simulate ----------------------------------------------------------------

def cmd_simulate(spec: ExperimentSpec) -> int:
    if not spec.out:
        raise InvalidArgumentError("simulate requires --out directory")
    horizon = 4 * spec.n if spec.horizon is None else spec.horizon
    if horizon < spec.n:
        raise InvalidArgumentError("simulate needs a horizon of at least --n")
    # explore loads numpy: imported here, not at module import
    from .explore import explore_to_level, write_trajectory_csv

    def walk(r):
        b = explore_to_level(LatticeSite(0, 0), spec.n,
                             replica_config(spec.seed, spec.p, r),
                             horizon=horizon, scan_guard=spec.scan_guard)
        return b.right[:spec.n + 1], b.left, b.gamma[:spec.n + 1]
    walks = pmap(walk, range(spec.replicas), spec.workers)
    # made once every walk has returned: a run that fails leaves no directory
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    files, spec_hash = [], spec.hash()
    for r, (right, left, gamma) in enumerate(walks):
        name = f"traj_{r:05d}.csv"
        write_trajectory_csv(out / name, right, left, gamma,
                             header_comment=f"spec_hash={spec_hash}")
        files.append({"name": name, "rows": len(left)})
    manifest = {"spec": spec.canonical(), "spec_hash": spec_hash,
                "version": __version__, "files": files}
    _write_text(out / "manifest.json",
                json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return 0


# -- estimate ----------------------------------------------------------------

def estimate_report(spec: ExperimentSpec) -> dict:
    est, endpoints = replica_estimate(spec.p, spec.seed, spec.replicas, spec.n,
                                      spec.margin, workers=spec.workers,
                                      scan_guard=spec.scan_guard)
    ks = None
    if est.sigma_hat > 0 and len(endpoints) > 1:
        shift = est.alpha_hat * spec.n
        scale = est.sigma_hat * math.sqrt(spec.n)
        ks = ks_distance_to_normal([(float(r) - shift) / scale
                                    for r in endpoints])
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


# the estimate behind sigma when a run needs sigma and its spec gives none
CALIBRATION_REPLICAS, CALIBRATION_N, CALIBRATION_MARGIN = 16, 4000, 400


def calibrate_sigma(p: float, seed: int, *, workers: int = 1,
                    scan_guard: int = DEFAULT_SCAN_GUARD) -> float:
    """Quick internal diffusivity calibration on a seed of its own."""
    est, _ = replica_estimate(p, calibration_seed(seed), CALIBRATION_REPLICAS,
                              CALIBRATION_N, CALIBRATION_MARGIN,
                              workers=workers, scan_guard=scan_guard)
    return est.sigma_hat


def _sigma(spec: ExperimentSpec) -> float:
    """The spec's sigma, or the calibrated one when the spec gives none."""
    if spec.sigma is not None:
        return spec.sigma
    return calibrate_sigma(spec.p, spec.seed, workers=spec.workers,
                           scan_guard=spec.scan_guard)


# -- coalesce ----------------------------------------------------------------

def cmd_coalesce(spec: ExperimentSpec) -> int:
    if not spec.out:
        raise InvalidArgumentError("coalesce requires --out file")
    deltas = spec.delta or (1.0,)
    if len(deltas) != 1:
        raise InvalidArgumentError("coalesce takes exactly one delta target")
    eps_list = spec.eps or (1e-3,)
    t_grid = spec.t or DEFAULT_T_GRID
    sigma = _sigma(spec)
    lines = [f"# spec_hash={spec.hash()}",
             "eps,t,empirical_survival,baseline_erf,n_replicas,n_censored"]
    for ie, eps in enumerate(eps_list):
        gap = int(round(deltas[0] * sigma / math.sqrt(eps) / 2)) * 2
        gap = max(2, gap)
        rows = coalescence_survival_curve(
            gap, spec.p, eps, t_grid, spec.replicas, seed=spec.seed,
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
    rows, spec_hash = [], spec.hash()
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
            "spec_hash": spec_hash,
        })
    else:
        if not spec.eps or not spec.delta or not spec.t:
            raise InvalidArgumentError("eta battery b1 needs --eps, --delta, --t")
        sigma = _sigma(spec)
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
                    row["spec_hash"] = spec_hash
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
    from .oracle import check_suite  # only check needs it: not at import
    report = check_suite(ps, spec.replicas, spec.n, spec.seed,
                         workers=spec.workers, scan_guard=spec.scan_guard)
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


# each flag -> the spec field it sets, "spec" for the spec file and "help"
# for the usage; before the command only help is a flag
_TOP_FLAGS = {"-h": "help", "--help": "help"}
_FLAGS = {**{"--" + key.replace("_", "-"): key
             for key in [*SPEC_FLAGS, "spec"]}, **_TOP_FLAGS}
# argparse's: a token that matches it is a value, not a flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def usage() -> str:
    """What ``-h`` and ``--help`` print."""
    flags = "".join(f"  --{key.replace('_', '-')} {kind.__name__}"
                    f"{' ...' if key in LIST_FIELDS else ''}\n"
                    for key, kind in SPEC_FLAGS.items())
    commands = "".join(
        f"  {name}: " + ", ".join(f"--{key} {val}" for key, val in d.items())
        + "\n" for name, d in COMMAND_DEFAULTS.items())
    return (f"usage: opweb {{{','.join(COMMAND_DEFAULTS)}}} "
            f"[--flag value ...]\n\n{__doc__}\nflags:\n{flags}"
            f"  --spec str  (a JSON file of spec fields)\n\n"
            f"defaults by command:\n{commands}")


def _classify(token: str, flags: dict):
    """``(field, text)`` for a flag token, where ``text`` follows its ``=``
    or is None, and ``field`` is "" for an unknown flag; None for a value.

    Tokens are told apart as argparse tells them.  A flag may be a unique
    prefix of one in ``flags``; an ambiguous prefix is an error.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return flags[token], None
    name, eq, text = token.partition("=")
    text = text if eq else None
    if name in flags:
        return flags[name], text
    if token[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            raise InvalidArgumentError(
                f"ambiguous flag {token!r} could be {', '.join(matches)}")
        if matches:
            return flags[matches[0]], text
    elif token[:2] in flags:  # "-h" with text glued on
        return flags[token[:2]], token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return "", None


def _help(token: str, text):
    """None, the answer to a help flag, unless text was glued onto it."""
    if text is not None:
        raise InvalidArgumentError(f"{token!r}: help takes no value")


def parse_argv(argv) -> tuple[str, dict] | None:
    """The command and the fields that ``argv``'s flags set, "spec" among
    them for ``--spec``; None when ``argv`` asks for help.

    One pass reads each flag's values with its ``SPEC_FLAGS`` type when it
    reaches the flag.  Any argv error raises `InvalidArgumentError`, at the
    point where argparse would stop: an ambiguous flag before the pass,
    even after ``--help``; unknown flags and stray values after it, so a
    later ``--help`` still prints the usage.
    """
    stray = []
    for i, token in enumerate(argv):
        kind = None if token == "--" else _classify(token, _TOP_FLAGS)
        if kind is None:
            command, rest = token, argv[i + 1:]
            break
        if kind[0]:
            return _help(token, kind[1])
        stray.append(token)
    else:
        raise InvalidArgumentError(
            f"no command; expected one of {', '.join(COMMAND_DEFAULTS)}")
    if command not in COMMAND_DEFAULTS:
        raise InvalidArgumentError(
            f"unknown command {command!r}; expected one of "
            f"{', '.join(COMMAND_DEFAULTS)}")
    # a bare "--" would end the flags, and no command takes anything else
    end = rest.index("--") if "--" in rest else len(rest)
    kinds = [_classify(token, _FLAGS) for token in rest[:end]]
    fields = {}
    i = 0
    while i < end:
        kind, token = kinds[i], rest[i]
        i += 1
        if kind is None or not kind[0]:
            stray.append(token)
            continue
        key, text = kind
        if key == "help":
            return _help(token, text)
        if text is not None:
            values = [text]
        else:
            stop = i
            while stop < end and kinds[stop] is None:
                stop += 1
            if key not in LIST_FIELDS:
                stop = min(stop, i + 1)
                if stop == i:
                    raise InvalidArgumentError(f"{token} expects a value")
            values, i = rest[i:stop], stop
        read = SPEC_FLAGS.get(key, str)
        try:
            values = [read(v) for v in values]
        except ValueError:
            raise InvalidArgumentError(
                f"{token} needs {read.__name__} values: {' '.join(values)!r}"
            ) from None
        fields[key] = values if key in LIST_FIELDS else values[0]
    stray += rest[end:]
    if stray:
        raise InvalidArgumentError(
            f"unrecognized arguments: {' '.join(stray)}")
    return command, fields


def _parses_as(val, kind) -> bool:
    """True iff the JSON value ``val`` is one the flag type ``kind`` gives;
    an int also passes for a float."""
    if isinstance(val, bool):
        return False
    return isinstance(val, (int, float) if kind is float else kind)


def _check_spec_file(base) -> None:
    """Reject a spec file that is not a JSON object, has unknown keys, or
    holds a value its flag would not parse: values are never coerced, so a
    valid spec keeps its hash."""
    if not isinstance(base, dict):
        raise InvalidArgumentError("spec file must hold a JSON object")
    unknown = set(base) - set(_DEFAULTS)
    if unknown:
        raise InvalidArgumentError(f"unknown spec keys: {sorted(unknown)}")
    for key, val in base.items():
        if key not in SPEC_FLAGS:  # the command, which the subcommand sets
            continue
        kind = SPEC_FLAGS[key]
        if key in LIST_FIELDS:
            ok = isinstance(val, list) and all(_parses_as(v, kind) for v in val)
        else:
            ok = ((val is None and _DEFAULTS[key] is None)
                  or _parses_as(val, kind))
        if not ok:
            raise InvalidArgumentError(
                f"spec key {key!r} holds {val!r}, which its flag would not give")


def spec_from_argv(argv) -> ExperimentSpec | None:
    """Resolve precedence: flags > spec file > per-command defaults.

    None when ``argv`` asks for help.
    """
    parsed = parse_argv(argv)
    if parsed is None:
        return None
    command, merged = parsed
    spec_file = merged.pop("spec", None)
    if spec_file:
        try:
            with open(spec_file, encoding="utf-8") as fh:
                base = json.load(fh)
        except UnicodeDecodeError as e:
            raise InvalidArgumentError(
                f"spec file {spec_file} is not UTF-8: {e}") from None
        _check_spec_file(base)
        merged = {**base, **merged}
    merged["command"] = command
    for key, val in COMMAND_DEFAULTS[command].items():
        merged.setdefault(key, val)
    for key in LIST_FIELDS:
        merged[key] = tuple(merged.get(key) or ())
    spec = ExperimentSpec(**merged)
    # the native walks and numpy read these as int64; the seed is hashed
    # mod 2**64 instead
    for key in _INT64_FIELDS:
        val = getattr(spec, key)
        if val is not None and not -2**63 <= val < 2**63:
            raise InvalidArgumentError(f"{key} {val} does not fit in int64")
    if not 0.0 <= spec.p <= 1.0 or spec.replicas < 1 or spec.n < 0:
        raise InvalidArgumentError("spec values out of range")
    if spec.scan_guard < 1:
        raise InvalidArgumentError("scan guard must be at least 1")
    if spec.workers < 1:
        raise InvalidArgumentError("workers must be at least 1")
    if not all(map(math.isfinite, spec.eps + spec.delta + spec.t)):
        raise InvalidArgumentError("eps, delta and t must be finite")
    if spec.sigma is not None and not (math.isfinite(spec.sigma)
                                       and spec.sigma > 0):
        raise InvalidArgumentError("sigma must be finite and positive")
    if any(eps <= 0 for eps in spec.eps):
        raise InvalidArgumentError("eps must be positive")
    if spec.command == "check":
        # check reads its list of p values from --delta
        if not all(0.0 <= p <= 1.0 for p in spec.delta):
            raise InvalidArgumentError("check p values must lie in [0, 1]")
        if spec.n < 1:
            raise InvalidArgumentError("check needs --n of at least 1")
    elif spec.command in ("coalesce", "eta"):
        if any(delta <= 0 for delta in spec.delta):
            raise InvalidArgumentError("delta must be positive")
        if any(t <= 0 for t in spec.t):
            raise InvalidArgumentError("t must be positive")
    return spec


def main(argv=None) -> int:
    try:
        spec = spec_from_argv(sys.argv[1:] if argv is None else list(argv))
        if spec is None:
            sys.stdout.write(usage())
            return 0
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
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 2
    except ScanLimitExceededError as e:
        print(f"scan guard tripped: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 4
    except NativeLibraryError as e:
        print(f"native library unavailable: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
