"""The native walk of ``_walk.c``: one C call per walk, made from Python.

Each body here makes one C call, which makes, runs and frees its walks and
hands back a few integers or fills arrays that Python allocated and owns:
no walk outlives the call, and nothing is copied after it.  `chain` is the
body of `couple.family_eta`, `couple.family_etas` and `couple.pair_merges`
(``walk_chain``: equal-time starts on a batch of replicas, each walked from
the left up to its first level at or left of its neighbour's r), `breaks`
of each replica of `regen.replica_estimate` (``walk_breaks``), and
`bounds` of `explore.explore_to_level` (``walk_bounds``); `config_bases`
(``config_bases``) gives `lattice.replica_bases`, the sampler bases of a
batch of replicas, which `chain` and `check_walks` take.  The judge of
these walks runs no walk code, and hashes each edge with its own copy of
the edge hash: `hashed_dp` is the certified DP of `oracle` on one box
(``dp_box``), whose rows of edges it hashes as it reaches them, the body
of `oracle.dp_right_boundary` and `oracle.dp_rightmost_path`.
`judge_walk` is the body of `oracle._ladder_outcome`, the whole ladder of
boxes that judges one walk (``judge_walk``): the same DP on each box, on
hashed rows, compared with the walk's two boundaries.  `check_walks` is
``check``'s walks and their judge on a batch of replicas
(``check_walks``): each replica walked as `bounds` walks it and judged on
that ladder in place, in the one call.
These are the only bodies of those computations in the package.  The
Python references they are tested against live with the tests: the walks'
and the ladder's in ``tests/_references.py``, the walks' on
`explore.ExplorationCluster`, and the DP's in ``tests/test_oracle.py``.

``array.array`` is the one buffer type at the C boundary: every body
passes such buffers, by the address that ``buffer_info()`` gives, and
ctypes words, and returns lists or those buffers.  A body that reads a
sequence the caller hands in, the bases of `chain` and `check_walks` and
the boundaries of `judge_walk`, reads an ``array.array`` of its typecode
in place and copies any other sequence of integers into one
(`_int_array`).  A size too large for any address space raises
`InvalidArgumentError` before it is allocated (`_sized`), and so does a
level or start column outside int64, which ctypes would wrap (`_int64`).

Its callers `couple`, `regen`, `lattice` and `explore` import this module
the first time a walk or a batch of bases needs it, never at import;
`oracle`, which ``check`` imports when it runs, imports it at its own
import.  Importing it builds nothing: the first `load` in a process
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
import sys
import tempfile
import threading
from array import array
from ctypes import c_int, c_int64, c_uint64, c_void_p
from pathlib import Path

from .errors import (InvalidArgumentError, InvalidSiteError,
                     NativeLibraryError, guard_error)
from .lattice import MASK64, edge_threshold

_COMPILERS = ("cc", "gcc")
_CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_walk.c")
_CACHE = Path(__file__).with_name("__pycache__")
_MAGIC = b"opweb-walk\0"
_KEY_LEN = 16

# the entries' return codes
_GUARD = 1
_NOMEM = 2
_JUDGE_NOMEM = 5  # judge_walk's; its others are outcomes

_lib = None
_LOAD_LOCK = threading.Lock()  # held while a first load builds and loads

# what walk_breaks writes besides its report: the six break-point sums and
# r[n]
_Breaks = c_int64 * 7
# what every walk entry reports: its walk's scan offset, last completed
# level and edges examined, then, from walk_chain, the index of the last
# replica walked, the one that stopped the batch if one did
_Report = c_int64 * 4
# what judge_walk reports: the boxes it judged, then four words per box,
# for at most 64 boxes
_Judged = c_int64 * (1 + 4 * 64)

# the sampler as _sampler gives it
_SAMPLER = [c_uint64, c_uint64, c_int]
# t0, the sampler and the guard
_WALK = [c_int64, *_SAMPLER, c_int64]
# every entry of _walk.c, as (argtypes, restype)
_ENTRIES = {
    "config_bases": ([c_uint64] * 3 + [c_int64, c_void_p], None),
    "walk_chain": ([c_void_p, c_int64, c_int64, c_void_p, c_int64, c_uint64,
                    c_int] + [c_int64] * 3 + [c_void_p] * 2, c_int),
    "walk_breaks": ([c_int64, *_WALK, c_int64, c_int64] + [c_void_p] * 2,
                    c_int),
    "walk_bounds": ([c_int64, *_WALK, c_int64, c_int64] + [c_void_p] * 4,
                    c_int),
    "dp_box": ([c_int64] * 3 + [c_void_p, c_int64] + _SAMPLER
               + [c_void_p] * 6, c_int),
    "judge_walk": ([c_int64] * 2 + _SAMPLER + [c_void_p, c_int64] * 2
                   + [c_void_p], c_int),
    "check_walks": ([c_void_p, c_int64, c_uint64, c_int] + [c_int64] * 4
                    + [c_void_p] * 2, c_int),
}


def load():
    """The native library, built and loaded on the first call in a process.

    Raises `NativeLibraryError` when it cannot be built or loaded here; the
    next call tries again.  Threads whose first calls meet wait on
    `_LOAD_LOCK` while one of them builds, and then share its library.
    """
    global _lib
    if _lib is None:
        with _LOAD_LOCK:
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


def _sized(count: int, itemsize: int) -> int:
    """``count``, once ``count`` items of ``itemsize`` bytes fit in the
    address space.  A size past it is an argument no machine can hold, and
    raises `InvalidArgumentError`, where ``array`` would raise MemoryError
    or OverflowError and ctypes OverflowError; a size within it that cannot
    be allocated raises MemoryError from the allocation."""
    if count * itemsize > sys.maxsize:
        raise InvalidArgumentError(
            f"{count} items of {itemsize} bytes exceed the address space")
    return count


def _int64(what: str, *values: int) -> None:
    """Refuse any of ``values`` outside int64, which ctypes would wrap in
    silence and ``array("q")`` refuse with OverflowError."""
    for v in values:
        if not -2**63 <= v < 2**63:
            raise InvalidArgumentError(f"{what} {v} does not fit in int64")


def _words(typecode: str, count: int) -> array:
    """A zeroed ``array.array`` of ``count`` 64-bit words."""
    try:
        return array(typecode, [0]) * _sized(count, 8)
    except MemoryError:  # array's carries no message
        raise MemoryError(f"cannot allocate {count} words of 8 bytes") from None


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


def _check(code: int, rep) -> None:
    """Raise what a walk entry's return code and report name."""
    if code == _GUARD:
        raise guard_error(rep[0], rep[1])
    if code == _NOMEM:
        raise MemoryError("the native exploration walk cannot allocate "
                          "its buffers")


def config_bases(seed_mix: int, stream: int, stride: int, count: int):
    """The sampler bases of the ``count`` configurations of one seed on
    the streams ``stream + k * stride``, in one C call (``config_bases``):
    entry ``k`` of the ``array.array`` of typecode ``"Q"`` is
    ``mix64(seed_mix + (stream + k * stride) * GOLDEN)`` mod 2**64, with
    ``seed_mix`` the seed's `lattice.mix64`, as `lattice.Config` forms its
    ``_base``.  The body of `lattice.replica_bases`."""
    bases = _words("Q", count)
    load().config_bases(seed_mix, stream, stride, count,
                        bases.buffer_info()[0])
    return bases


def _int_array(typecode: str, values, what: str) -> array:
    """``values`` as the entries read them: an ``array.array`` of
    ``typecode`` (``"q"`` for int64, ``"Q"`` for uint64) as it is, any other
    sequence of integers in its range copied into one, item by item, so
    that bytes are read as ints and not as raw memory.  Anything else, such
    as floats, nested rows or an integer out of range, raises
    `InvalidArgumentError`, which names ``what``."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    try:
        return array(typecode, iter(values))
    except (TypeError, OverflowError):
        kind = "int64" if typecode == "q" else "uint64"
        raise InvalidArgumentError(
            f"{what} must be sequences of {kind} integers") from None


def chain(xs, t0: int, level: int, p: float, bases, cap, scan_guard):
    """The chain of the equal-time starts ``xs``, at least one, from
    ``t0`` to ``level`` on the configurations at ``p`` with sampler bases
    ``bases`` (`lattice.Config._base`), in one C call.

    ``bases`` is any sequence of integers in [0, 2**64): an ``array.array``
    of typecode ``"Q"``, as `lattice.replica_bases` gives, is read in
    place, and any other is copied into one.  Returns one list per
    configuration, of one int per start but the first: entry ``[n][i -
    1]`` is the first level, counted from ``t0``, at which the walk from
    ``xs[i]`` on configuration ``n`` has r at or left of r of the start to
    its left, or -1 where it reaches ``level`` without stopping.  Once
    eta, one plus the walks that never stop, reaches ``cap`` (None for no
    cap), the chain ends and the starts past it get -2.  The batch stops
    at the first configuration, in order, whose chain trips, and raises
    the error of its walk that trips first in a level by level lockstep:
    lowest level first, then leftmost start.  A start off the even lattice
    raises `InvalidSiteError`, as `lattice.LatticeSite` does.
    """
    k = len(xs)
    if not k:
        raise InvalidArgumentError("need at least one start column")
    odd = [x for x in xs if (x + t0) % 2]
    if odd:
        raise InvalidSiteError(f"({odd[0]}, {t0}) has odd parity")
    _int64("level", t0, level)
    _int64("start column", min(xs), max(xs))
    starts = array("q", xs)
    bases = _int_array("Q", bases, "sampler bases")
    count, m = len(bases), k - 1
    stops = _words("q", count * m)
    rep = _Report()
    code = load().walk_chain(starts.buffer_info()[0], k, t0,
                             bases.buffer_info()[0], count,
                             *_cut(edge_threshold(p)), _guard(scan_guard),
                             level, cap or 0, stops.buffer_info()[0], rep)
    _check(code, rep)
    flat = stops.tolist()
    return [flat[n * m:(n + 1) * m] for n in range(count)]


def breaks(cfg, n: int, margin: int, scan_guard):
    """One estimate replica in one C call: the six break-point sums
    of the walk from (0, 0) to level ``n + margin``, as
    `regen.RegenAccumulator.add` takes them, and r(n).  Needs
    ``0 < margin <= n``."""
    _sized(n + margin + 1, 8)  # the walk's n + margin + 1 levels
    out, rep = _Breaks(), _Report()
    code = load().walk_breaks(0, 0, *_sampler(cfg), _guard(scan_guard), n,
                              margin, out, rep)
    _check(code, rep)
    return tuple(out[:6]), out[6]


def bounds(z, n: int, horizon: int, cfg, scan_guard) -> tuple:
    """`explore.explore_to_level` in one C call, which writes r, l and γ
    straight into new ``array.array`` buffers of typecode ``"q"``.  Returns
    them, the scan offset and the edges examined: the fields of
    `explore.Boundaries` after its start."""
    right = _words("q", horizon - z.t + 1)
    left = _words("q", n - z.t + 1)
    gamma = _words("q", horizon - z.t + 1)
    rep = _Report()
    code = load().walk_bounds(z.x, z.t, *_sampler(cfg), _guard(scan_guard),
                              n, horizon, right.buffer_info()[0],
                              left.buffer_info()[0], gamma.buffer_info()[0],
                              rep)
    _check(code, rep)
    return right, left, gamma, rep[0], rep[2]


def judge_walk(cfg, n: int, right, left, slack: int):
    """The ladder of `oracle` for the walk from (0, 0) to level ``n`` with
    right boundary ``right`` and rightmost path ``left``, on the
    configuration ``cfg``, in one C call (``judge_walk``).

    ``right`` and ``left`` are any sequences of int64 integers, read as
    `_int_array` reads them.  Returns the code of the last box's
    outcome, an index of `oracle.OUTCOMES`, and the boxes judged, in order,
    each as its left and right columns at level 0, 1 for a band or 0 for
    the rectangle, and its code.  The boxes' scratch is made and freed
    inside the call.
    """
    if n < 1:
        raise InvalidArgumentError("degenerate box")
    _sized(n + 1, 8)  # a box's n + 1 rows
    right, left = (_int_array("q", b, "a walk's boundaries")
                   for b in (right, left))
    rep = _Judged()
    code = load().judge_walk(n, _slack(slack), *_sampler(cfg),
                             right.buffer_info()[0], len(right),
                             left.buffer_info()[0], len(left), rep)
    if code == _JUDGE_NOMEM:
        raise MemoryError("the native judge cannot allocate its boxes")
    boxes = rep[1:1 + 4 * rep[0]]
    return code, [tuple(boxes[i:i + 4]) for i in range(0, len(boxes), 4)]


def _slack(slack: int) -> int:
    """The slack as the ladder takes it: the same ladder for any slack past
    +-2**61, cut to +-2**62."""
    return max(min(slack, 1 << 62), -(1 << 62))


def check_walks(bases, p: float, n: int, slack: int, corrupt: int,
                scan_guard):
    """``check``'s walks on a batch of replicas in one C call
    (``check_walks``): replica ``i``'s walk from (0, 0) to level ``n`` on
    the configuration at ``p`` with sampler base ``bases[i]``, judged on
    the ladder of `judge_walk`, with its r raised by one at ``n // 2`` on
    replica ``corrupt`` (none where that is no index of ``bases``).

    ``bases`` is read as `chain` reads it.  Returns, for each replica, its
    verdict, an index of `oracle.OUTCOMES`, and the boxes its ladder
    judged, as two lists.  The batch stops at the first replica, in order,
    whose walk trips its guard, which raises that walk's error, or whose
    walk or ladder cannot allocate, which raises MemoryError.
    """
    if n < 1:
        raise InvalidArgumentError("degenerate box")
    _sized(n + 1, 8)  # the walk's n + 1 levels, a box's n + 1 rows
    bases = _int_array("Q", bases, "sampler bases")
    count = len(bases)
    judged = _words("q", 2 * count)
    rep = _Report()
    code = load().check_walks(bases.buffer_info()[0], count,
                              *_cut(edge_threshold(p)), _guard(scan_guard),
                              n, _slack(slack), corrupt,
                              judged.buffer_info()[0], rep)
    if code == _JUDGE_NOMEM:
        raise MemoryError("the native judge cannot allocate its boxes")
    _check(code, rep)
    flat = judged.tolist()
    return flat[0::2], flat[1::2]


def hashed_dp(lefts, t_min: int, width: int, start: int, cfg):
    """The certified DP of `oracle` in one C call (``dp_box``): on the box
    of ``width`` columns whose row ``j``, at level ``t_min + j``, starts at
    column ``lefts[j]``, over ``len(lefts) - 1`` levels, from the seed row's
    cells up to cell ``start`` of row 0, with each row's edges hashed under
    the sampler of ``cfg`` as the DP reaches the row, on ``array.array``
    buffers.

    Returns its code; the lower and upper tables, each an ``array.array``
    of typecode ``"Q"`` holding ``len(lefts)`` rows of ``ceil(width / 64)``
    words, bit ``i`` of row ``j`` standing for column ``lefts[j] + i``; the
    bit lengths of their rows, as two lists; the path, as a list; and the
    level and column that a refusal names.  Refuses walls that the DP cannot
    read: a box narrower than two columns, no rows, or a wall that steps by
    more than one column per level.
    """
    levels = len(lefts)
    if width < 2 or not levels or any(
            not -1 <= b - a <= 1 for a, b in zip(lefts, lefts[1:])):
        raise InvalidArgumentError("the box's walls do not fit its shape")
    words = -(-width // 64)
    rows = _words("Q", 2 * words)
    lower, upper = _words("Q", levels * words), _words("Q", levels * words)
    # the bit lengths, the path and the refusal site
    ints = _words("q", 3 * levels + 2)
    walls = array("q", lefts)
    address = ints.buffer_info()[0]
    code = load().dp_box(levels - 1, width, t_min, walls.buffer_info()[0],
                         start, *_sampler(cfg), rows.buffer_info()[0],
                         lower.buffer_info()[0], upper.buffer_info()[0],
                         address, address + 16 * levels,
                         address + 24 * levels)
    flat = ints.tolist()
    return (code, lower, upper, (flat[:levels], flat[levels:2 * levels]),
            flat[2 * levels:-2], (flat[-2], flat[-1]))
