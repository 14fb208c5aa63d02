"""Spans around the calls into each opweb layer, patched in from outside.

`Tracer.install` replaces module attributes (public functions, the edge
samplers they hand out, and a few methods) with timing wrappers, and
`Tracer.remove` puts the originals back.  Nothing under ``src/`` changes;
the traced process alone sees the wrappers.

A span records its duration and the time covered by its child spans, so
self time is duration minus children.  Spans are aggregated by name as
they close; the coarse ones (everything but the per-level and per-edge
spans) are also kept in memory and written out when the run ends.

The edge samplers are the finest layer, one call per sampled edge.  Their
wrapper counts every call and times one in ``SAMPLER_TIMING_STRIDE``; it
opens no span, so its time stays inside the enclosing walk's span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter

# One sampler call in this many is timed; the rest are only counted, which
# keeps the clock reads from doubling the cost of a sampled edge.
SAMPLER_TIMING_STRIDE = 16


class Stat:
    __slots__ = ("count", "total", "self_time", "units")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.units = 0  # edges examined, materialised or timed, by layer


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.spans = []  # (name, parent, start, end) of the coarse spans
        self.tag = ""  # p of the call in flight, as text
        self._stack = []  # [name, start, child_time] of the open spans
        self._saved = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        self._stack.append([name, _clock(), 0.0])

    def _close(self, keep=True):
        end = _clock()
        name, start, child = self._stack.pop()
        dur = end - start
        st = self.stats[name]
        st.count += 1
        st.total += dur
        st.self_time += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if keep:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((name, parent, start, end))
        return st

    def span(self, name, fn):
        """Wrap ``fn`` so that every call is one span called ``name``."""
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            return  # the layer no longer offers this entry point
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        import opweb.cli as cli
        import opweb.couple as couple
        import opweb.explore as explore
        import opweb.metrics as metrics
        import opweb.oracle as oracle
        import opweb.regen as regen
        import opweb.runner as runner

        for mod in (cli, regen, couple, metrics, runner):
            self._patch(mod, "pmap", self._wrap_pmap)
        for mod in (explore, couple):
            self._patch(mod, "make_key_sampler", self._wrap_sampler_factory)
        self._patch(oracle, "edge_status_array", self._wrap_array)
        self._patch(explore.ExplorationCluster, "advance_level",
                    self._wrap_advance)
        self._patch(cli, "break_point_arrays",
                    lambda fn: self.span("regen.break_points", fn))
        for meth in ("add", "finalize"):
            self._patch(regen.RegenAccumulator, meth,
                        lambda fn: self.span("regen.accumulate", fn))
        self._patch(metrics, "run_right_family",
                    lambda fn: self.span("couple.family", fn))
        self._patch(couple, "run_coupled_pair",
                    lambda fn: self.span("couple.pair", fn))
        self._patch(cli, "coalescence_survival_curve",
                    lambda fn: self.span("couple.survival_curve", fn))
        self._patch(cli, "b1_battery", lambda fn: self.span("metrics.b1", fn))
        self._patch(cli, "check_suite",
                    lambda fn: self.span("oracle.check_suite", fn))
        self._patch(oracle.BoxConfig, "__post_init__",
                    lambda fn: self.span("oracle.box", fn))
        for name in ("dp_right_boundary", "dp_rightmost_path"):
            self._patch(oracle, name, lambda fn: self.span("oracle.dp", fn))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, fn, *args):
        """Run one CLI call as the root span ``cli.main``."""
        self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close()

    # -- wrappers --------------------------------------------------------------

    def _wrap_pmap(self, pmap):
        task = self.span

        def traced_pmap(fn, items, workers=1):
            return task("runner.pmap", pmap)(task("runner.task", fn), items,
                                               workers)
        return traced_pmap

    def _wrap_sampler_factory(self, factory):
        def traced_factory(cfg):
            sample = factory(cfg)
            st = self.stats[f"lattice.sample.p{cfg.p}"]

            def traced_sample(key):
                st.count += 1
                if st.count % SAMPLER_TIMING_STRIDE:
                    return sample(key)
                t0 = _clock()
                v = sample(key)
                st.total += _clock() - t0
                st.units += 1
                return v
            return traced_sample
        return traced_factory

    def _wrap_array(self, fn):
        st = self.stats["lattice.array"]

        def traced_array(cfg, xs, ts, directions):
            t0 = _clock()
            out = fn(cfg, xs, ts, directions)
            st.total += _clock() - t0
            st.count += 1
            st.units += len(out)
            return out
        return traced_array

    def _wrap_advance(self, advance):
        tracer = self

        def traced_advance(cluster):
            p = cluster.cfg.p if cluster.cfg is not None else tracer.tag
            before = cluster.n_examined
            tracer._open(f"explore.level.p{p}")
            try:
                return advance(cluster)
            finally:
                tracer._close(keep=False).units += cluster.n_examined - before
        return traced_advance

    # -- report ----------------------------------------------------------------

    def layer_metrics(self, calls: int, replicas: int, scale: float) -> dict:
        """Per-layer metrics, name -> (value, unit), over ``calls`` CLI calls
        that completed ``replicas`` replicas; times are multiplied by
        ``scale``.  A layer the calls never entered reads 0."""
        S = self.stats

        def ratio(a, b, unit=1.0):
            return a / b * unit if b else 0.0

        samples = [st for name, st in S.items()
                   if name.startswith("lattice.sample.")]
        edges = sum(st.count for st in samples)
        levels = [st for name, st in S.items()
                  if name.startswith("explore.level.")]
        n_levels = sum(st.count for st in levels)
        arr = S["lattice.array"]
        us, ms = 1e6 * scale, 1e3 * scale
        m = {
            "lattice.edges_sampled": (ratio(edges, calls), "count"),
            "lattice.ns_per_edge": (ratio(sum(st.total for st in samples),
                                          sum(st.units for st in samples),
                                          1e9 * scale), "ns"),
            "lattice.array_edges": (ratio(arr.units, calls), "count"),
            "lattice.array_ns_per_edge": (ratio(arr.total, arr.units,
                                                1e9 * scale), "ns"),
            "explore.levels": (ratio(n_levels, calls), "count"),
            "explore.us_per_level": (ratio(sum(st.total for st in levels),
                                           n_levels, us), "us"),
            "explore.edges_per_level": (ratio(sum(st.units for st in levels),
                                              n_levels), "edges/level"),
        }
        for p in ("0.7", "0.8", "0.9"):
            st = S[f"explore.level.p{p}"]
            m[f"explore.us_per_level.p{p}"] = (ratio(st.total, st.count, us),
                                               "us")
            m[f"explore.edges_per_level.p{p}"] = (ratio(st.units, st.count),
                                                  "edges/level")
        bp, acc = S["regen.break_points"], S["regen.accumulate"]
        fam, pair = S["couple.family"], S["couple.pair"]
        b1, pmap, cli = S["metrics.b1"], S["runner.pmap"], S["cli.main"]
        # the box and DP figures are per checked walk, on check-dp only
        checked = replicas if S["oracle.box"].count else 0
        m.update({
            "regen.ms_per_replica": (ratio(bp.total + acc.total, bp.count, ms),
                                     "ms"),
            "couple.family_ms": (ratio(fam.total, fam.count, ms), "ms"),
            "couple.family_self_ms": (ratio(fam.self_time, fam.count, ms), "ms"),
            "couple.pair_ms": (ratio(pair.total, pair.count, ms), "ms"),
            "couple.pair_self_ms": (ratio(pair.self_time, pair.count, ms), "ms"),
            "metrics.b1_self_ms": (ratio(b1.self_time, b1.count, ms), "ms"),
            "oracle.box_ms": (ratio(S["oracle.box"].total, checked, ms), "ms"),
            "oracle.box_edges": (ratio(arr.units, checked), "count"),
            "oracle.dp_ms": (ratio(S["oracle.dp"].total, checked, ms), "ms"),
            "oracle.walk_edge_ratio": (ratio(edges, arr.units), "ratio"),
            "runner.pmap_self_ms": (ratio(pmap.self_time, pmap.count, ms), "ms"),
            "cli.self_ms": (ratio(cli.self_time, cli.count, ms), "ms"),
        })
        return m

    def dump(self, path, **meta):
        """Write the aggregated stats and the coarse spans as JSON."""
        path.parent.mkdir(exist_ok=True)
        stats = {name: {"count": st.count, "total_s": st.total,
                        "self_s": st.self_time, "units": st.units}
                 for name, st in sorted(self.stats.items())}
        path.write_text(json.dumps({**meta, "stats": stats,
                                    "spans": self.spans}) + "\n",
                        encoding="utf-8")
