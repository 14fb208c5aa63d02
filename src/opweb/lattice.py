"""Even space-time lattice addressing and deterministic lazy edge sampling.

Sites live on ``{(x, t) : x + t even}``; every site has two outgoing oriented
edges, up-right to ``(x+1, t+1)`` and up-left to ``(x-1, t+1)``.  Each edge is
open with probability ``p``, independently, and its status is a pure function
of ``(seed, stream_id, x, t, direction)``.  Nothing is stored: replaying any
query is free, which is what makes multi-cluster couplings on shared
configurations possible without snapshots.

The mixing function below is part of the external contract and is frozen.
An edge is packed into a single integer key, combined with a per-config
base via a golden-ratio multiply, and passed through the splitmix64
finalizer; the edge is open iff the 64-bit output is below
``floor(p * 2**64)``.  Multiplying a float ``p`` by ``2**64`` is exact
(power-of-two scaling), so the threshold is bit-reproducible.

The reference is `edge_status`, which runs `make_key_sampler`, the scalar
mix with `mix64` inlined.  Each other copy of the hash is pinned to it by
a test:

* the numpy one, `edge_status_array`, by
  ``test_determinism_and_vector_scalar_agreement``.  No walk or box reads
  it: the tests build their reference boxes from it;
* the C copy of `_config_base`, ``config_bases`` in ``_walk.c``, which
  `replica_bases` calls to give the bases of a batch of replicas at once,
  by ``test_replica_bases_are_those_of_replica_configs``;
* the walk's sampler in ``_walk.c``, through the walks it drives, by
  ``test_native_walk_matches_python_walk`` and the walk references of
  ``tests/_references.py``, whose Python walk samples through
  `make_key_sampler`;
* the judge's ``box_open`` in ``_walk.c``, which ``dp_box`` runs to hash
  each box's rows of bits as it reaches them, against the numpy-row
  reference DP on cells from `edge_status_array`, on boxes as far as
  2**30 columns either side of 0, by
  ``test_bit_row_dp_matches_numpy_rows_far_and_wide``.  Its all-open flag
  stands in for the threshold ``2**64`` of p = 1, as
  ``test_an_edge_hashed_to_the_top_is_open_at_p_one`` checks.

``_walk.c`` holds the only body of each walk and of the judge in the
package; their Python references live with the tests.

Only `edge_status_array` and `independence_probe`, which the tests call,
use numpy, and they import it when they run: the walk commands load this
module without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import InvalidArgumentError, InvalidSiteError

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Packs signed x into the low 32 bits of a key; |x| must stay below 2**31.
X_BIAS = 1 << 31

# The one stream rule: replica r of an experiment owns the stream_ids
# r * STREAMS_PER_REPLICA + 1 .. (r + 1) * STREAMS_PER_REPLICA.  Its
# configuration is the first of them, which `replica_config` builds and
# whose base `replica_bases` gives for a batch of replicas; the ledger
# coupling of the tests (``tests/_ledger.py``) gives cluster i the
# (i + 1)-th.  Replicas of one run are numbered without gaps across all its
# workloads, so no two workloads of a run share a stream; a run's
# drift/diffusivity calibration draws its replicas under a seed of its own
# (`calibration_seed`).
STREAMS_PER_REPLICA = 1024


class Orientation(IntEnum):
    UP_LEFT = 0
    UP_RIGHT = 1


def mix64(z: int) -> int:
    """splitmix64 finalizer; full-avalanche 64-bit permutation."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def edge_key(x: int, t: int, direction: int) -> int:
    """Injective packing of an oriented edge; inverse of `unpack_edge_key`."""
    return ((2 * t + direction) << 32) | (x + X_BIAS)


def unpack_edge_key(key: int) -> tuple[int, int, int]:
    x = (key & 0xFFFFFFFF) - X_BIAS
    q = key >> 32
    return x, q >> 1, q & 1


@dataclass(frozen=True)
class LatticeSite:
    """A vertex of the even lattice."""

    x: int
    t: int

    def __post_init__(self):
        if (self.x + self.t) % 2 != 0:
            raise InvalidSiteError(f"({self.x}, {self.t}) has odd parity")

    def up_right(self) -> "LatticeSite":
        return LatticeSite(self.x + 1, self.t + 1)

    def up_left(self) -> "LatticeSite":
        return LatticeSite(self.x - 1, self.t + 1)


@dataclass(frozen=True)
class EdgeRef:
    """One of the two outgoing oriented edges of a site."""

    site: LatticeSite
    direction: Orientation

    def target(self) -> LatticeSite:
        if self.direction == Orientation.UP_RIGHT:
            return self.site.up_right()
        return self.site.up_left()

    def key(self) -> int:
        return edge_key(self.site.x, self.site.t, int(self.direction))


@dataclass(frozen=True)
class Config:
    """A deterministic percolation edge configuration.

    Immutable after construction; edge queries are pure functions, safe to
    share across any number of workers.  Configs with different
    ``stream_id`` are computationally independent even under the same seed.
    """

    seed: int
    p: float
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "_base", _config_base(self.seed, self.stream_id))
        object.__setattr__(self, "_threshold", edge_threshold(self.p))


def edge_threshold(p: float) -> int:
    """The sampler's threshold at ``p``: an edge is open iff its hash is
    below it.  At p = 1 it is ``2**64``, above every hash."""
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"p={p} outside [0, 1]")
    return int(p * 2.0**64)


def _config_base(seed: int, stream_id: int) -> int:
    return mix64((mix64(seed) + (stream_id & MASK64) * GOLDEN) & MASK64)


def replica_config(seed: int, p: float, replica: int) -> Config:
    """The configuration of replica ``replica`` of an experiment: the first
    of its streams (the rule above)."""
    return Config(seed, p, replica * STREAMS_PER_REPLICA + 1)


def replica_bases(seed: int, first: int, count: int):
    """The bases of replicas ``first, ..., first + count - 1`` of an
    experiment, as an ``array.array`` of uint64 (typecode ``"Q"``): entry
    ``k`` is the ``_base`` of ``replica_config(seed, p, first + k)``, for
    any p.  Filled in one native call (`opweb._native.config_bases`)."""
    from . import _native  # may build the library: not at import
    return _native.config_bases(mix64(seed),
                                (first * STREAMS_PER_REPLICA + 1) & MASK64,
                                STREAMS_PER_REPLICA, count)


def calibration_seed(seed: int) -> int:
    """Seed of the replicas that calibrate sigma for a run under ``seed``."""
    return mix64(seed ^ 0xCA11B)


def make_key_sampler(cfg: Config):
    """Return the fastest form of the edge oracle: packed key -> bool.

    The body inlines `mix64`; it must stay bit-identical to `edge_status`.
    """
    base = cfg._base
    threshold = cfg._threshold

    def sample(key: int) -> bool:
        z = (base + key * GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return (z ^ (z >> 31)) < threshold

    return sample


def edge_status(cfg: Config, edge: EdgeRef) -> bool:
    """True iff the edge is open in this configuration."""
    return make_key_sampler(cfg)(edge.key())


def edge_status_array(cfg, xs, ts, directions):
    """Vectorized `edge_status`, as a numpy bool array; bit-identical to the
    scalar path."""
    import numpy as np
    xs = np.asarray(xs, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.int64)
    directions = np.asarray(directions, dtype=np.int64)
    if np.any((xs + ts) & 1):
        raise InvalidSiteError("some sites violate even parity")
    keys = ((2 * ts + directions) << 32 | (xs + X_BIAS)).astype(np.uint64)
    z = np.uint64(cfg._base) + keys * np.uint64(GOLDEN)
    # mix64, entry by entry
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    if cfg._threshold > MASK64:
        return np.ones(len(keys), dtype=bool)
    return z < np.uint64(cfg._threshold)


@dataclass(frozen=True)
class ProbeResult:
    correlation: float | None
    n: int
    degenerate: bool


def independence_probe(cfg1: Config, cfg2: Config, edges) -> ProbeResult:
    """Empirical correlation of the two configs' indicators on shared edges.

    Streams are meant to be computationally independent, so on distinct
    stream_ids |correlation| should stay below 4/sqrt(n).  Zero-variance
    samples (p of 0 or 1, or an unlucky tiny sample) are flagged degenerate
    rather than divided through.
    """
    if len(edges) == 0:
        raise InvalidArgumentError("empty edge sample")
    import numpy as np
    xs = np.array([e.site.x for e in edges], dtype=np.int64)
    ts = np.array([e.site.t for e in edges], dtype=np.int64)
    ds = np.array([int(e.direction) for e in edges], dtype=np.int64)
    a = edge_status_array(cfg1, xs, ts, ds).astype(np.float64)
    b = edge_status_array(cfg2, xs, ts, ds).astype(np.float64)
    va = a.var()
    vb = b.var()
    if va == 0.0 or vb == 0.0:
        return ProbeResult(None, len(edges), True)
    corr = float(((a - a.mean()) * (b - b.mean())).mean() / np.sqrt(va * vb))
    return ProbeResult(corr, len(edges), False)
