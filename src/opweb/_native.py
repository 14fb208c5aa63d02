"""`NativeCluster`, the `ExplorationCluster` that walks in ``_walk.c``.

Its ``walk_t`` owns r, the left boundary and the counts, so it overrides
only the members that read them (through `_Head`) and the two advances.
It keeps no set of dead sites: the least dead column of each level decides
whether a site is dead.
No caller names it: `ExplorationCluster.__new__` returns one for a cluster
built from a Config and no edge source when `load` succeeds.  It keeps no
left-delta record (`left_deltas` is None): the record's one reader, the
ledger coupling, runs on edge sources and so on the Python walk.

`lockstep` is the native body of `explore.walk_lockstep`, and `breaks` of
the estimate worker `regen._estimate_worker`; each caller picks it by the
same rule, when `load` succeeds.  Each makes one C call, ``walk_value`` for
one start or ``walk_pair`` for an equal-time pair, and ``walk_breaks`` for
a replica's break-point sums.  That call makes, runs and frees its walks
and hands back a few integers: no cluster, no finaliser and no copy of r
or of the left boundary.

`explore` imports this module the first time it makes a Config-driven
cluster, never at ``import opweb``.  The first `load` in a process compiles
``_walk.c`` with the local ``cc`` (or ``gcc``) unless a cached build exists,
and loads it through ctypes.  The cache is the package's ``__pycache__``,
file ``_walk-<key>.so``, where ``<key>`` hashes the source, the compiler and
its flags.  A build is written to a temporary file and moved into place by
``os.replace``, so concurrent processes only ever see whole files; the other
``_walk-*.so`` files, builds of older sources, are then removed.  Every
cached file ends in a trailer holding its key and the SHA-256 of the bytes
before it; a file whose trailer does not check out (truncated, stale or
foreign) is rebuilt and never loaded.  Without a compiler, or with an
unwritable cache, `load` returns None and clusters use the Python walk.
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
import weakref
from ctypes import POINTER, c_int, c_int64, c_uint64, c_void_p
from pathlib import Path

import numpy as np

from .explore import DEFAULT_SCAN_GUARD, ExplorationCluster, guard_error
from .lattice import MASK64

_COMPILERS = ("cc", "gcc")
_CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_walk.c")
_CACHE = Path(__file__).with_name("__pycache__")
_MAGIC = b"opweb-walk\0"
_KEY_LEN = 16

# walk_advance return codes
_GUARD = 1
_NOMEM = 2

_lib = None
_tried = False

# what walk_value and walk_pair write: the merge's level from the start, or
# -1; two r values; and the scan offset and last level of the walk that
# stopped
_Out = c_int64 * 5
# what walk_breaks writes: the six break-point sums, r[n], and the scan
# offset and last level of its walk
_Breaks = c_int64 * 9

# t0, then the sampler and the guard as _sampler gives them
_WALK = [c_int64, c_uint64, c_uint64, c_int, c_int64]
# every entry of _walk.c, as (argtypes, restype)
_ENTRIES = {
    "walk_new": ([c_int64, *_WALK], c_void_p),
    "walk_advance": ([c_void_p, c_int64], c_int),
    "walk_free": ([c_void_p], None),
    "walk_value": ([c_int64, *_WALK, c_int64, c_void_p], c_int),
    "walk_pair": ([c_int64, c_int64, *_WALK, c_int64, c_void_p], c_int),
    "walk_breaks": ([c_int64, *_WALK, c_int64, c_int64, c_void_p], c_int),
}


class _Head(ctypes.Structure):
    """The leading fields of ``walk_t``, the ones Python reads: r_len,
    stack_len, scan_offset, n_examined and the pointers r and sx.  Keep in
    step with ``_walk.c``."""

    _fields_ = [("r_len", c_int64), ("stack_len", c_int64),
                ("scan_offset", c_int64), ("n_examined", c_int64),
                ("r", POINTER(c_int64)), ("sx", POINTER(c_int64))]


def load():
    """The native library, or None when it cannot be built or loaded here.

    Tried once per process; forked pool workers inherit the result.
    """
    global _lib, _tried
    if not _tried:
        _tried = True
        _lib = _load()
    return _lib


def _load():
    cc = next(filter(shutil.which, _COMPILERS), None)
    if cc is None:
        return None
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    key = _key(source, cc)
    path = _CACHE / f"_walk-{key.decode()}.so"
    try:
        if not _valid(path, key):
            _build(cc, source, path, key)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
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
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix="_walk-", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([cc, *_CFLAGS, "-x", "c", "-o", tmp, "-"], input=source,
                       capture_output=True, check=True, timeout=120)
        with open(tmp, "r+b") as fh:
            body = fh.read()
            fh.write(_trailer(body, key))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    for stale in path.parent.glob("_walk-*.so"):
        if stale != path:
            with contextlib.suppress(OSError):
                stale.unlink()


def _sampler(cfg, scan_guard) -> tuple:
    """The Config's sampler and the guard as ``walk_new`` takes them: base,
    threshold, all-open flag and an integer guard."""
    threshold = cfg._threshold
    # the walk trips once scan_offset >= scan_guard, an integer count
    return (cfg._base, min(threshold, MASK64), threshold > MASK64,
            min(math.ceil(scan_guard), 1 << 62))


def _check(code: int, scan_offset: int, level: int) -> None:
    """Raise what a one-call entry's return code and report name."""
    if code == _GUARD:
        raise guard_error(scan_offset, level)
    if code == _NOMEM:
        raise MemoryError("native exploration walk out of memory")


def lockstep(xs, t0: int, level: int, cfg, scan_guard):
    """`explore.walk_lockstep` in one C call."""
    lib = load()
    out = _Out()
    args = (t0, *_sampler(cfg, scan_guard), level, out)
    if len(xs) == 1:
        code = lib.walk_value(xs[0], *args)
    else:
        code = lib.walk_pair(xs[0], xs[1], *args)
    _check(code, out[3], out[4])
    if out[0] >= 0:
        return t0 + out[0], None
    return None, tuple(out[1:1 + len(xs)])


def breaks(cfg, n: int, margin: int, scan_guard):
    """The estimate worker's body in one C call: the six break-point sums
    of the walk from (0, 0) to level ``n + margin`` and r(n), as
    `regen._estimate_reference` returns them.  Needs ``0 < margin <= n``."""
    out = _Breaks()
    code = load().walk_breaks(0, 0, *_sampler(cfg, scan_guard), n, margin,
                              out)
    _check(code, out[7], out[8])
    return tuple(out[:6]), out[6]


def _copy(ptr, n: int) -> np.ndarray:
    """A fresh int64 array of the ``n`` entries at ``ptr``, in one memmove."""
    out = np.empty(n, dtype=np.int64)
    if n:
        ctypes.memmove(out.ctypes.data, ptr, 8 * n)
    return out


class NativeCluster(ExplorationCluster):
    """A Config-driven cluster on one ``walk_t``, freed when it is collected.

    `right_values` and `left_values` hand out copies, not views: the next
    advance may ``realloc`` either buffer, and a view would point at freed
    memory.
    """

    def __init__(self, origin, cfg, *, source=None,
                 scan_guard=DEFAULT_SCAN_GUARD):
        # source is None: ExplorationCluster.__new__ picks this walk only
        # then
        lib = load()
        self.origin = origin
        self.cfg = cfg
        self._t0 = origin.t
        self._left_deltas = None
        handle = lib.walk_new(origin.x, origin.t, *_sampler(cfg, scan_guard))
        if not handle:
            raise MemoryError("cannot allocate a native exploration walk")
        weakref.finalize(self, lib.walk_free, handle)
        self._lib = lib
        self._handle = handle
        self._head = _Head.from_address(handle)

    @property
    def level(self) -> int:
        return self._t0 + self._head.r_len - 1

    @property
    def right_values(self) -> np.ndarray:
        h = self._head
        return _copy(h.r, h.r_len)

    @property
    def left_values(self) -> np.ndarray:
        """The frozen stack ``sx[0:stack_len]``, copied."""
        h = self._head
        return _copy(h.sx, h.stack_len)

    @property
    def scan_offset(self) -> int:
        return self._head.scan_offset

    @property
    def n_examined(self) -> int:
        return self._head.n_examined

    def advance_level(self) -> int:
        self.advance_to(self.level + 1)
        h = self._head
        return h.r[h.r_len - 1]

    def advance_to(self, n: int) -> None:
        """Explore up to level ``n`` in one C call."""
        if n <= self.level:
            return
        code = self._lib.walk_advance(self._handle, n - self.level)
        if code == _GUARD:
            raise self._guard_error()
        if code == _NOMEM:
            raise MemoryError("native exploration walk out of memory")
