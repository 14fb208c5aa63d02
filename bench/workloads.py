"""The four benchmark workloads: the CLI calls of one round and their checks.

Each workload is a list of calls that make up one round.  Round ``k`` of a
run with benchmark seed ``s`` passes ``--seed s * 1000 + k`` to every call,
so rounds are different experiments and the same seed replays the same
rounds.  Every call's output is checked against values the benchmark
computes itself, or against properties the method must have; nothing is
compared with stored output.

Statistical checks use ``Z`` standard errors taken from the replica count
(a binomial standard error at the recomputed baseline), plus a stated
allowance for the finite-epsilon bias, so that they hold on any seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SIGMA_SPEC = BENCH_DIR / "specs" / "sigma-p0.8.json"

# sigma pinned for p = 0.8 (kept in SIGMA_SPEC, read by the CLI): an
# `opweb estimate --p 0.8` at n = 20000 gave 0.8724 +- 0.0023.
PINNED_SIGMA = 0.8733

# Two-sided normal quantile for the per-call and pooled checks: a false
# alarm has probability below 1e-6 per comparison.
Z = 5.0
# Agreement of two estimate runs at the same p, where both standard errors
# are themselves batch-means estimates from 8 replicas (about 14 degrees of
# freedom between them): P(|T_14| > 8) is about 1e-6.
Z_SE = 8.0
# Finite-epsilon allowance: at eps = 1e-3 the lattice survival runs above
# the Brownian erf baseline.  At 1000 replicas the coalescing pair ran
# 0.01-0.03 above it (0.04-0.06 has been seen at fewer replicas) and the B1
# family within 0.02 of it; 0.07 covers the largest of these.
EPS_ALLOWANCE = 0.07


def round_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


@dataclass
class Call:
    """One CLI invocation: argv, replicas it completes, and its tag."""

    argv: list
    seed: int
    replicas: int
    p: float
    out_file: Path | None = None


@dataclass
class Result:
    call: Call
    rc: int | None
    output: str
    error: str | None = None  # why the per-call check failed, if it did
    parsed: object = None


def _isfinite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _binom_tol(baseline: float, n: int) -> float:
    return Z * math.sqrt(baseline * (1.0 - baseline) / n) + EPS_ALLOWANCE


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _one_per_round(results) -> list:
    """Parsed outputs of the calls that passed, one per round seed (a traced
    run replays each round, and a replay is no new sample)."""
    return list({r.call.seed: r.parsed for r in results
                 if r.error is None and r.parsed}.values())


class Workload:
    name = ""
    kernel = "walk"  # the reference kernel that tracked these calls best

    def calls(self, seed: int) -> list:
        """The calls of round ``seed``; the benchmark runs them in order."""
        raise NotImplementedError

    def check(self, res: Result) -> str | None:
        """Check one call's output; return why it failed, or None."""
        raise NotImplementedError

    def check_run(self, results: list) -> list:
        """Checks across the calls of a run; return the failures found."""
        return []


# -- estimate-sweep -----------------------------------------------------------

class EstimateSweep(Workload):
    name = "estimate-sweep"
    ps = (0.7, 0.8, 0.9)
    n = 20_000
    replicas = 8

    def calls(self, seed):
        return [Call(["estimate", "--p", str(p), "--n", str(self.n),
                      "--replicas", str(self.replicas), "--seed", str(seed),
                      "--workers", "1"], seed, self.replicas, p)
                for p in self.ps]

    def check(self, res):
        rep = json.loads(res.output)
        res.parsed = rep
        if rep["p"] != res.call.p:
            return f"p echoed as {rep['p']}"
        if rep["seeds_used"]["replicas"] != self.replicas:
            return "replica count not echoed"
        if not _isfinite(rep["alpha_hat"], rep["alpha_se"], rep["sigma_hat"],
                         rep["sigma_se"]):
            return "non-finite estimate or standard error"
        if not 0.0 < rep["alpha_hat"] < 1.0:
            return f"alpha_hat {rep['alpha_hat']} outside (0, 1)"
        if not rep["sigma_hat"] > 0.0:
            return f"sigma_hat {rep['sigma_hat']} not positive"
        if rep["n_records"] <= 0:
            return "no break-point records"
        return None

    def check_run(self, results):
        problems = []
        by_round = {}
        for res in results:
            if res.error is None and res.parsed is not None:
                by_round.setdefault(res.call.seed, {})[res.call.p] = res.parsed
        # alpha(p) strictly increases in p (Durrett 1984)
        for seed, reps in by_round.items():
            alphas = [reps[p]["alpha_hat"] for p in self.ps if p in reps]
            if any(a >= b for a, b in zip(alphas, alphas[1:])):
                problems.append(f"seed {seed}: alpha_hat not increasing in p")
        # consecutive rounds at the same p agree within their standard errors
        for p in self.ps:
            seq = [reps[p] for reps in by_round.values() if p in reps]
            for a, b in zip(seq, seq[1:]):
                for key in ("alpha", "sigma"):
                    d = abs(a[f"{key}_hat"] - b[f"{key}_hat"])
                    se = math.hypot(a[f"{key}_se"], b[f"{key}_se"])
                    if d > Z_SE * se:
                        problems.append(f"p={p}: {key}_hat differs by {d:.4g} "
                                        f"> {Z_SE} x {se:.3g}")
        return problems


# -- eta-b1 -------------------------------------------------------------------

def even_cover(gap: float) -> int:
    """The smallest even integer that is at least ``gap`` and at least 2."""
    span = max(2, math.ceil(gap))
    return span + span % 2


class EtaB1(Workload):
    name = "eta-b1"
    p = 0.8
    eps = 1e-3
    t = 1.0
    deltas = (0.5, 1.0)
    replicas = 40

    def calls(self, seed):
        argv = ["eta", "--p", str(self.p), "--eps", str(self.eps),
                "--t", str(self.t), "--delta", *map(str, self.deltas),
                "--replicas", str(self.replicas), "--seed", str(seed),
                "--workers", "1", "--spec", str(SIGMA_SPEC)]
        return [Call(argv, seed, self.replicas * len(self.deltas), self.p)]

    def expected(self, delta):
        x_eps = even_cover(delta * PINNED_SIGMA / math.sqrt(self.eps))
        delta_eff = x_eps * math.sqrt(self.eps) / PINNED_SIGMA
        level = math.floor(self.t / self.eps)
        return x_eps, delta_eff, level, math.erf(delta_eff / (2 * math.sqrt(self.t)))

    def check(self, res):
        rows = [json.loads(line) for line in res.output.splitlines() if line]
        res.parsed = rows
        if len(rows) != len(self.deltas):
            return f"{len(rows)} rows for {len(self.deltas)} deltas"
        for row, delta in zip(rows, self.deltas):
            x_eps, delta_eff, level, base = self.expected(delta)
            if row["battery"] != "b1" or row["delta"] != delta:
                return f"row for delta {row['delta']} out of order"
            if row["x_eps"] != x_eps or row["level"] != level:
                return f"delta {delta}: x_eps/level {row['x_eps']}/{row['level']}"
            if not (_close(row["delta_eff"], delta_eff)
                    and _close(row["baseline"], base)):
                return f"delta {delta}: delta_eff/baseline not recomputed"
            if row["n"] != self.replicas:
                return f"delta {delta}: n = {row['n']}"
            if abs(row["estimate"] - base) > _binom_tol(base, self.replicas):
                return (f"delta {delta}: estimate {row['estimate']} far from "
                        f"baseline {base:.4f}")
        # P(eta >= 2) does not decrease in delta, up to sampling noise
        for a, b in zip(rows, rows[1:]):
            slack = Z * math.hypot(*(math.sqrt(r["baseline"] * (1 - r["baseline"])
                                               / self.replicas) for r in (a, b)))
            if b["estimate"] < a["estimate"] - slack:
                return "estimate decreases in delta"
        return None

    def check_run(self, results):
        # pooled over the run, the same tolerance is Z / sqrt(rounds) tighter
        problems = []
        rows = _one_per_round(results)
        for i, delta in enumerate(self.deltas):
            *_, base = self.expected(delta)
            n = self.replicas * len(rows)
            if n and abs(sum(r[i]["estimate"] for r in rows) * self.replicas / n
                         - base) > _binom_tol(base, n):
                problems.append(f"delta {delta}: pooled estimate far from baseline")
        return problems


# -- coalesce-pair --------------------------------------------------------------

class CoalescePair(Workload):
    name = "coalesce-pair"
    p = 0.8
    eps = 1e-3
    delta = 1.0
    ts = (0.25, 0.5, 1.0, 2.0)
    replicas = 40

    def calls(self, seed):
        out = OUT_DIR / "coalesce-pair.csv"
        argv = ["coalesce", "--p", str(self.p), "--eps", str(self.eps),
                "--delta", str(self.delta), "--t", *map(str, self.ts),
                "--replicas", str(self.replicas), "--seed", str(seed),
                "--workers", "1", "--spec", str(SIGMA_SPEC), "--out", str(out)]
        return [Call(argv, seed, self.replicas, self.p, out)]

    def baselines(self):
        gap = max(2, round(self.delta * PINNED_SIGMA / math.sqrt(self.eps) / 2) * 2)
        delta_eff = gap * math.sqrt(self.eps) / PINNED_SIGMA
        return [math.erf(delta_eff / (2 * math.sqrt(t))) for t in self.ts]

    def check(self, res):
        lines = res.output.splitlines()
        if len(lines) != 2 + len(self.ts) or not lines[0].startswith("# spec_hash="):
            return f"{len(lines)} lines of output"
        header = lines[1].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[2:]]
        res.parsed = rows
        surv = [row["empirical_survival"] for row in rows]
        if [row["t"] for row in rows] != list(self.ts):
            return "t grid not echoed in order"
        if any(b > a for a, b in zip(surv, surv[1:])):
            return "survival increases in t"
        for row, base in zip(rows, self.baselines()):
            n = int(row["n_replicas"])
            if n != self.replicas:
                return f"n_replicas = {n}"
            if round(row["empirical_survival"] * n) < row["n_censored"]:
                return f"t={row['t']}: fewer survivors than censored runs"
            if not _close(row["baseline_erf"], base):
                return f"t={row['t']}: baseline not recomputed"
            if abs(row["empirical_survival"] - base) > _binom_tol(base, n):
                return (f"t={row['t']}: survival {row['empirical_survival']} "
                        f"far from baseline {base:.4f}")
        return None

    def check_run(self, results):
        problems = []
        rows = _one_per_round(results)
        n = self.replicas * len(rows)
        for i, base in enumerate(self.baselines()):
            if n and abs(sum(r[i]["empirical_survival"] for r in rows)
                         * self.replicas / n - base) > _binom_tol(base, n):
                problems.append(f"t={self.ts[i]}: pooled survival far from baseline")
        return problems


# -- check-dp -------------------------------------------------------------------

class CheckDp(Workload):
    name = "check-dp"
    kernel = "box"
    ps = (0.7, 0.8, 0.9)
    n = 500
    replicas = 2

    def calls(self, seed):
        # `check` reads its list of p values from --delta
        argv = ["check", "--delta", *map(str, self.ps), "--n", str(self.n),
                "--replicas", str(self.replicas), "--seed", str(seed),
                "--workers", "1"]
        return [Call(argv, seed, self.replicas * len(self.ps), self.ps[1])]

    def check(self, res):
        if res.rc != 0:
            return f"exit code {res.rc}"
        lines = res.output.splitlines()
        want = [f"p={p}: {self.replicas}/{self.replicas} exact matches"
                for p in self.ps] + ["p=0 guard agreement: ok"]
        if lines != want:
            return f"unexpected report: {lines}"
        return None


WORKLOADS = {w.name: w for w in (EstimateSweep(), EtaB1(), CoalescePair(),
                                 CheckDp())}
