"""Benchmark of the opweb command line, run from the repository root.

    python3 bench/run.py --workload estimate-sweep --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop with one client: each call is
``opweb.cli.main(argv)`` made in-process with ``--workers 1``, and the next
call starts when the previous one returns.  The loop runs whole rounds of
the workload's calls until ``--seconds`` have passed.  Each call is checked
(see workloads.py) and bracketed by the reference kernel (see refkernel.py);
its time is reported in seconds at the reference speed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from tracing.py, and the spans go to ``bench/out/``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import refkernel
from workloads import OUT_DIR, WORKLOADS, Call, Result, round_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 7  # timed interpreter starts per run, after one warm start
# The yardstick for interpreter starts: a start that imports numpy, fixed
# work of the same kind (loading compiled modules and bytecode), and its
# time at reference speed.
SPAWN_YARDSTICK = "import numpy"
SPAWN_NOMINAL_S = 0.15


def ref_time(raw: float, before: float, after: float) -> float:
    """Raw seconds at reference speed, from the slowness around the call."""
    return raw / ((before + after) / 2)


def _spawn(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing opweb.cli, scaled and raw.

    Neither kernel tracks interpreter starts (numpy starts its thread pool
    on import, and shared objects are mapped in), so each start is timed
    between two starts of the yardstick instead.
    """
    _spawn("import opweb.cli")  # writes bytecode
    yardstick = [_spawn(SPAWN_YARDSTICK)]
    raw, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        raw.append(_spawn("import opweb.cli"))
        yardstick.append(_spawn(SPAWN_YARDSTICK))
        slowness = (yardstick[-2] + yardstick[-1]) / 2 / SPAWN_NOMINAL_S
        scaled.append(raw[-1] / slowness)
    return statistics.median(scaled), statistics.median(raw)


def invoke(main, call: Call, tracer=None) -> tuple[Result, float]:
    """Make one CLI call; return its result and its raw seconds."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = (main(call.argv) if tracer is None
                  else tracer.call(main, call.argv))
    except (Exception, SystemExit):  # a crash, or argparse exiting, fails it
        err.write(traceback.format_exc())
    raw = time.perf_counter() - t0
    res = Result(call, rc, out.getvalue())
    if rc != 0:
        res.error = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
    elif call.out_file is not None:
        try:
            res.output = call.out_file.read_text(encoding="utf-8")
        except OSError as e:
            res.error = f"no output file: {e}"
    return res, raw


class Loop:
    """The timed closed loop: whole rounds until the time is up."""

    def __init__(self, main, workload, seed):
        self.main = main
        self.workload = workload
        self.seed = seed
        self.results = []
        self.times = []  # reference seconds per call
        self.raw = []  # raw seconds per call
        self.slowness = []  # kernel slowness before and after each call

    def run_round(self, k, tracer=None):
        """Run round ``k``; return its reference seconds."""
        total = 0.0
        for call in self.workload.calls(round_seed(self.seed, k)):
            if tracer is not None:
                tracer.tag = str(call.p)
            before = refkernel.slowness(self.workload.kernel)
            res, raw = invoke(self.main, call, tracer)
            after = refkernel.slowness(self.workload.kernel)
            if res.error is None:
                try:
                    res.error = self.workload.check(res)
                except (ValueError, KeyError, TypeError, IndexError) as e:
                    res.error = f"unreadable output: {type(e).__name__}: {e}"
            if res.error is not None:
                print(f"FAILED {' '.join(call.argv)}: {res.error}",
                      file=sys.stderr)
            t = ref_time(raw, before, after)
            self.results.append(res)
            self.times.append(t)
            self.raw.append(raw)
            self.slowness += [before, after]
            total += t
        return total


def median_round(times: list, m: int) -> list:
    """Median time of each of the ``m`` calls of a round, over the rounds
    (``times`` lists the calls of whole rounds in order)."""
    return [statistics.median(times[j::m]) for j in range(m)]


def end_to_end(loop: Loop, seconds: float, peak_kb: int) -> dict:
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        loop.run_round(k)
        k += 1
    calls = loop.workload.calls(0)
    per_round = sum(call.replicas for call in calls)
    ref = median_round(loop.times, len(calls))
    raw = median_round(loop.raw, len(calls))
    setup = measure_setup()
    # the same figures in raw seconds, and every call, for reference
    (OUT_DIR / f"raw-{loop.workload.name}-{loop.seed}.json").write_text(
        json.dumps({"replicas_per_s": per_round / sum(raw),
                    "run_p50_s": statistics.mean(raw),
                    "setup_s": setup[1], "kernel": loop.workload.kernel,
                    "calls": [[r.call.seed, r.call.replicas, raw, before, after]
                              for r, raw, before, after in
                              zip(loop.results, loop.raw, loop.slowness[::2],
                                  loop.slowness[1::2])]})
        + "\n", encoding="utf-8")
    return {
        "replicas_per_s": {"value": per_round / sum(ref), "unit": "1/s"},
        "run_p50_s": {"value": statistics.mean(ref), "unit": "s"},
        "setup_s": {"value": setup[0], "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def per_layer(loop: Loop, seconds: float) -> dict:
    """Alternate untraced and traced runs of each round; report the layers."""
    from tracing import Tracer
    tracer = Tracer()
    workload = loop.workload
    plain, traced = Loop(loop.main, workload, loop.seed), loop
    start = time.perf_counter()
    k = 0
    untraced_s = traced_s = 0.0
    while k == 0 or time.perf_counter() - start < seconds:
        untraced_s += plain.run_round(k)
        tracer.install()
        try:
            traced_s += traced.run_round(k, tracer)
        finally:
            tracer.remove()
        n = len(workload.calls(0))
        for a, b in zip(plain.results[-n:], traced.results[-n:]):
            if b.error is None and a.output != b.output:
                b.error = "tracing changed the output"
                print(f"FAILED {' '.join(b.call.argv)}: {b.error}",
                      file=sys.stderr)
        k += 1
    calls = len(traced.results)
    # traced spans are scaled to the reference speed like the calls
    scale = 1 / statistics.median(traced.slowness)
    m = tracer.layer_metrics(calls, sum(r.call.replicas for r in traced.results),
                             scale)
    m["cli.output_bytes"] = (
        sum(len(r.output.encode()) for r in traced.results) / calls, "bytes")
    m["trace.overhead_ms"] = ((traced_s - untraced_s) / calls * 1e3, "ms")
    m["trace.overhead_pct"] = ((traced_s - untraced_s) / untraced_s * 100, "%")
    tracer.dump(OUT_DIR / f"trace-{workload.name}-{loop.seed}.json",
                workload=workload.name, seed=loop.seed, reference_scale=scale)
    loop.results += plain.results
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "opweb" / "cli.py").is_file():
        print(f"no opweb sources at {SRC}", file=sys.stderr)
        return 2
    # One CPU for the whole run, the set-up starts included: the kernels
    # then run where the calls run.  Pinned, the spread of eta-b1 runs
    # fell from 11% to 5%.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import opweb.cli
    OUT_DIR.mkdir(exist_ok=True)

    loop = Loop(opweb.cli.main, workload, args.seed)
    # Warm-up, untimed: lazy imports and first-call costs stay out of the
    # timing.  It is the same round in every run, so that the peak memory
    # below is that of one fixed round: the peak of import plus one round,
    # what running that round from the shell costs.  Over a longer loop the
    # peak creeps up with garbage that earlier calls left for the cycle
    # collector, which a user who runs one command per process never sees.
    Loop(opweb.cli.main, workload, 0).run_round(999)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        metrics = per_layer(loop, args.seconds)
    else:
        metrics = end_to_end(loop, args.seconds, peak_kb)
    failed = [r for r in loop.results if r.error is not None]
    problems = workload.check_run(loop.results)
    for line in problems:
        print(f"CHECK {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(loop.results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
