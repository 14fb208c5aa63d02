"""The native walk of ``_walk.c``: one C call per walk, made from Python.

Each body here makes one C call, which makes, runs and frees its walks and
hands back a few integers or fills arrays that Python allocated and owns:
no walk outlives the call, and nothing is copied after it.  `lockstep` is
the body of `explore.walk_lockstep` (``walk_value`` for one start,
``walk_pair`` for an equal-time pair), `pairs` of `couple.pair_merges`
(``walk_pairs``, the pair on a batch of replicas), `breaks` of the estimate
worker `regen._estimate_worker` (``walk_breaks``), and `bounds` of
`explore.explore_to_level` (``walk_bounds``).  The judge of these walks
runs no walk code: `edges` writes the edge statuses of an
`oracle.BoxConfig` into the box's own arrays (``box_edges``, with its own
copy of the edge hash), and `dp` is the certified DP of `oracle` on one
box (``dp_box``), which reads only those arrays.  These are the only
bodies of those computations in the package.  The Python references they
are tested against live with the tests: the walks' in
``tests/_references.py``, on `explore.ExplorationCluster`, and the DP's
and the box fill's in ``tests/test_oracle.py``.

`explore` and `oracle` import this module the first time a walk or a box
needs it, never at ``import opweb``.  The first `load` in a process
compiles ``_walk.c`` with the local ``cc`` (or ``gcc``) unless a cached
build exists, and loads it through ctypes.  The cache is the package's
``__pycache__``, file ``_walk-<key>.so``, where ``<key>`` hashes the
source, the compiler and its flags.  A build is written to a temporary
file and moved into place by ``os.replace``, so concurrent processes only
ever see whole files; the other ``_walk-*.so`` files, builds of older
sources, are then removed.  Every cached file ends in a trailer holding
its key and the SHA-256 of the bytes before it; a file whose trailer does
not check out (truncated, stale or foreign) is rebuilt and never loaded.
The library is required: without a compiler, with an unreadable source, a
failed build, an unwritable cache or a library that does not load, `load`
raises `NativeLibraryError`, which names the cause.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from ctypes import c_int, c_int64, c_uint64, c_void_p
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, NativeLibraryError
from .explore import Boundaries, guard_error
from .lattice import MASK64, edge_threshold, replica_bases

_COMPILERS = ("cc", "gcc")
_CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_walk.c")
_CACHE = Path(__file__).with_name("__pycache__")
_MAGIC = b"opweb-walk\0"
_KEY_LEN = 16

# the entries' return codes
_GUARD = 1
_NOMEM = 2

_lib = None

# what walk_value and walk_pair write: the merge's level from the start, or
# -1; two r values; and the report of the walk that stopped
_Out = c_int64 * 6
# what walk_breaks writes: the six break-point sums, r[n], and its walk's
# report
_Breaks = c_int64 * 10
# a walk's report: its scan offset, last completed level and edges examined
_Report = c_int64 * 3
# what walk_pairs reports: the index of the last replica walked, the one
# that stopped the batch if one did, and its walk's report
_BatchReport = c_int64 * 4

# the sampler as _sampler gives it
_SAMPLER = [c_uint64, c_uint64, c_int]
# t0, the sampler and the guard
_WALK = [c_int64, *_SAMPLER, c_int64]
# every entry of _walk.c, as (argtypes, restype)
_ENTRIES = {
    "walk_value": ([c_int64, *_WALK, c_int64, c_void_p], c_int),
    "walk_pair": ([c_int64, c_int64, *_WALK, c_int64, c_void_p], c_int),
    "walk_pairs": ([c_int64] * 3 + [c_void_p, c_int64, c_uint64, c_int,
                                    c_int64, c_int64, c_void_p, c_void_p],
                   c_int),
    "walk_breaks": ([c_int64, *_WALK, c_int64, c_int64, c_void_p], c_int),
    "walk_bounds": ([c_int64, *_WALK, c_int64, c_int64] + [c_void_p] * 4,
                    c_int),
    "box_edges": ([c_int64] * 3 + [c_void_p, *_SAMPLER] + [c_void_p] * 3,
                  None),
    "dp_box": ([c_int64] * 3 + [c_void_p, c_int64] + [c_void_p] * 9, c_int),
}


def load():
    """The native library, built and loaded on the first call in a process.

    Raises `NativeLibraryError` when it cannot be built or loaded here; the
    next call tries again.  Forked pool workers inherit a loaded library.
    """
    global _lib
    if _lib is None:
        _lib = _load()
    return _lib


def _load():
    cc = next(filter(shutil.which, _COMPILERS), None)
    if cc is None:
        raise NativeLibraryError(
            f"no C compiler: none of {', '.join(_COMPILERS)} is on PATH")
    try:
        source = _SOURCE.read_bytes()
    except OSError as e:
        raise NativeLibraryError(f"cannot read {_SOURCE}: {e}") from e
    key = _key(source, cc)
    path = _CACHE / f"_walk-{key.decode()}.so"
    if not _valid(path, key):
        _build(cc, source, path, key)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as e:
        raise NativeLibraryError(f"cannot load {path}: {e}") from e
    for name, (argtypes, restype) in _ENTRIES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def _key(source: bytes, cc: str) -> bytes:
    """The cache key of a build of ``source`` by ``cc``."""
    key = hashlib.sha256(b"\0".join(
        [source, cc.encode(), *(f.encode() for f in _CFLAGS)])).hexdigest()
    return key[:_KEY_LEN].encode()


def _trailer(body: bytes, key: bytes) -> bytes:
    return _MAGIC + key + hashlib.sha256(body).digest()


def _valid(path: Path, key: bytes) -> bool:
    """True iff ``path`` is a whole build for ``key``."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    n = len(_MAGIC) + _KEY_LEN + 32
    return len(data) > n and data[-n:] == _trailer(data[:-n], key)


def _build(cc: str, source: bytes, path: Path, key: bytes) -> None:
    try:
        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix="_walk-",
                                   suffix=".tmp")
        os.close(fd)
    except OSError as e:
        raise NativeLibraryError(
            f"cannot write the build cache {path.parent}: {e}") from e
    try:
        _compile(cc, source, tmp)
        with open(tmp, "r+b") as fh:
            body = fh.read()
            fh.write(_trailer(body, key))
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise NativeLibraryError(
                f"cannot write the build cache {path.parent}: {e}") from e
        raise
    for stale in path.parent.glob("_walk-*.so"):
        if stale != path:
            with contextlib.suppress(OSError):
                stale.unlink()


def _compile(cc: str, source: bytes, out: str) -> None:
    """Compile ``source`` into the shared library ``out``."""
    try:
        subprocess.run([cc, *_CFLAGS, "-x", "c", "-o", out, "-"],
                       input=source, capture_output=True, check=True,
                       timeout=120)
    except subprocess.CalledProcessError as e:
        lines = e.stderr.decode(errors="replace").strip().splitlines()
        raise NativeLibraryError(
            f"{cc} failed to build {_SOURCE.name}"
            + (f": {lines[0]}" if lines else "")) from e
    except (OSError, subprocess.TimeoutExpired) as e:
        raise NativeLibraryError(
            f"{cc} failed to build {_SOURCE.name}: {e}") from e


def _sampler(cfg) -> tuple:
    """The Config's sampler as the entries take it: base, threshold and
    all-open flag."""
    return cfg._base, *_cut(cfg._threshold)


def _cut(threshold: int) -> tuple:
    """A threshold as the entries take it: cut to 64 bits, and the all-open
    flag that stands in for ``2**64``."""
    return min(threshold, MASK64), threshold > MASK64


def _guard(scan_guard) -> int:
    """The guard as the walks take it: the walk trips once scan_offset >=
    scan_guard, an integer count."""
    return min(math.ceil(scan_guard), 1 << 62)


def _check(code: int, scan_offset: int, level: int) -> None:
    """Raise what a one-call entry's return code and report name."""
    if code == _GUARD:
        raise guard_error(scan_offset, level)
    if code == _NOMEM:
        raise MemoryError("the native exploration walk cannot allocate "
                          "its buffers")


def lockstep(xs, t0: int, level: int, cfg, scan_guard):
    """`explore.walk_lockstep` in one C call."""
    lib = load()
    out = _Out()
    args = (t0, *_sampler(cfg), _guard(scan_guard), level, out)
    if len(xs) == 1:
        code = lib.walk_value(xs[0], *args)
    else:
        code = lib.walk_pair(xs[0], xs[1], *args)
    _check(code, out[3], out[4])
    if out[0] >= 0:
        return t0 + out[0], None
    return None, tuple(out[1:1 + len(xs)])


def pairs(xl: int, xr: int, t0: int, level: int, seed: int, p: float,
          first: int, count: int, scan_guard) -> np.ndarray:
    """`explore.walk_lockstep` of the pair ``(xl, xr)`` on replicas
    ``first, ..., first + count - 1`` in one C call: entry ``k`` of the
    int64 array is the merge's level from ``t0`` on
    ``replica_config(seed, p, first + k)``, or -1 where the pair has not
    merged by ``level``.  The batch stops at the first replica, in order,
    whose walk fails, and raises that walk's error."""
    threshold, all_open = _cut(edge_threshold(p))
    bases = replica_bases(seed, first, count)
    merges = np.empty(count, dtype=np.int64)
    rep = _BatchReport()
    code = load().walk_pairs(xl, xr, t0, bases.ctypes.data, count, threshold,
                             all_open, _guard(scan_guard), level,
                             merges.ctypes.data, rep)
    _check(code, rep[1], rep[2])
    return merges


def breaks(cfg, n: int, margin: int, scan_guard):
    """The estimate worker's body in one C call: the six break-point sums
    of the walk from (0, 0) to level ``n + margin``, as
    `regen.RegenAccumulator.add` takes them, and r(n).  Needs
    ``0 < margin <= n``."""
    out = _Breaks()
    code = load().walk_breaks(0, 0, *_sampler(cfg), _guard(scan_guard), n,
                              margin, out)
    _check(code, out[7], out[8])
    return tuple(out[:6]), out[6]


def bounds(z, n: int, horizon: int, cfg, scan_guard) -> Boundaries:
    """`explore.explore_to_level` in one C call, which writes r, l and γ
    straight into the record's arrays."""
    right = np.empty(horizon - z.t + 1, dtype=np.int64)
    left = np.empty(n - z.t + 1, dtype=np.int64)
    gamma = np.empty_like(right)
    rep = _Report()
    code = load().walk_bounds(z.x, z.t, *_sampler(cfg), _guard(scan_guard),
                              n, horizon, right.ctypes.data, left.ctypes.data,
                              gamma.ctypes.data, rep)
    _check(code, rep[0], rep[1])
    return Boundaries(z, right, left, gamma, rep[0], rep[2])


def edges(box) -> None:
    """The edge statuses of a box in one C call, which writes them straight
    into its ``open_ur``, ``open_ul`` and ``entry_open``: C-contiguous bool
    arrays of shape ``(height, width)`` and ``(height,)``."""
    height, width = box.open_ur.shape
    lefts = box.x_min + box.shear
    load().box_edges(height, width, box.t_min, lefts.ctypes.data,
                     *_sampler(box.cfg), box.open_ur.ctypes.data,
                     box.open_ul.ctypes.data, box.entry_open.ctypes.data)


def dp(box, start: int, n: int):
    """The certified DP of `oracle` on one box over ``n`` levels in one C
    call, from the seed row's cells up to cell ``start`` of row 0.

    ``dp_box`` reads the box's ``open_ur``, ``open_ul`` and ``entry_open``
    as they are now, and packs each row of the first two into 64-bit words
    as it reaches it.  Returns its code; the lower and upper tables,
    ``n + 1`` rows of ``ceil(width / 64)`` words each; the bit lengths of
    their rows, shape ``(2, n + 1)``; the path; and the level and column
    that a refusal names.
    """
    width = box.x_max - box.x_min + 1
    words = -(-width // 64)
    ur = np.ascontiguousarray(box.open_ur[:n], dtype=bool)
    ul = np.ascontiguousarray(box.open_ul[:n], dtype=bool)
    entry = np.ascontiguousarray(box.entry_open[:n], dtype=bool)
    if ur.shape != (n, width) or ul.shape != ur.shape or entry.shape != (n,):
        raise InvalidArgumentError("the box's arrays do not fit its shape")
    lefts = box.x_min + box.shear[:n + 1]
    rows = np.empty((2, words), dtype=np.uint64)
    lower = np.empty((n + 1, words), dtype=np.uint64)
    upper = np.empty_like(lower)
    lengths = np.empty((2, n + 1), dtype=np.int64)
    path = np.empty(n + 1, dtype=np.int64)
    at = (c_int64 * 2)()
    code = load().dp_box(n, width, box.t_min, lefts.ctypes.data, start,
                         ur.ctypes.data, ul.ctypes.data, entry.ctypes.data,
                         rows.ctypes.data, lower.ctypes.data,
                         upper.ctypes.data, lengths.ctypes.data,
                         path.ctypes.data, at)
    return code, lower, upper, lengths, path, tuple(at)
