"""Exploration clusters and their boundary processes.

An exploration cluster discovers the minimal set of edge statuses needed to
find the rightmost open path from the half-line ``(-inf, x] x {t}`` to each
successive level.  The scan order is fixed: at every site the up-right edge
is examined before the up-left edge, sub-explorations are depth-first, and
start sites ``(x - 2k, t)`` are exhausted left-to-right in ``k``.

The process is resumable: the depth-first stack is frozen the moment the
first open path reaches the current target level (that path is the left
boundary ``l``, and its endpoint is the new right-boundary value ``r``), and
advancing the target simply continues the walk.  Each edge is sampled where
it is examined, and no edge is examined twice: a site's out-edges are
examined only while it is on the stack, and it leaves the stack only after
both are, as a dead site that no later edge enters.  Dead sites are never
re-entered, from a later start site or a later branch, so each costs its
exploration once.  The Python walk keeps them in a set.  The walk is
planar, so a site queried from the stack is dead exactly when its column is
at or right of the least dead column at its level.  The native walk reads
that column off its stack buffer, where a popped site's entry stays until
the next push at its level (the argument is in ``_walk.c``).  Neither walk
keeps the examined edges, only their count, `n_examined`.

There are two walks, integer-identical.  `ExplorationCluster` is the Python
walk: a resumable cluster, advanced level by level.  No body of the package
runs it.  The tests build from it the references that the native walk is
compared with (``tests/_references.py``), and drive it through an edge
``source`` in the ledger coupling (``tests/_ledger.py``).  The native walk
of ``_walk.c`` runs to its end inside one C call, built with the local C
compiler on the first such call in a process (never at import) and cached
in the package's ``__pycache__``; a machine where it cannot be built raises
`opweb.errors.NativeLibraryError`.

Every walk that starts from a `Config` is one native call, and there are
three, one per shape of answer.  `explore_to_level` runs one start to its
boundaries: r through a horizon, the left boundary ``l`` frozen at a level
``n``, and the left boundary at the horizon, the stand-in γ for the
rightmost infinite open path (`opweb._native.bounds`).  The batteries of
`opweb.couple` need only where equal-time boundaries meet: a chain of
walks from the left, each up to the level where its r meets the one to its
left (`opweb._native.chain`).  An estimate replica needs only the sums of
the increments between break points, where r meets the left boundary at
the horizon (`opweb._native.breaks`).

The Python walk always keeps its left-delta record (`left_deltas`): per
level, the lowest stack index the advance rewrote and the stack from there
up, from which a replay rebuilds the left boundary at every level.  Only
the ledger coupling of the tests reads it.

Boundaries are ``array.array`` buffers of int64 (typecode ``"q"``), as
the native walk writes them (`Boundaries`, `Trajectory`, and the Python
walk's `ExplorationCluster.right_values` and `left_values`), so this
module loads no numpy, and the command line imports it at its own
import.  It does no I/O: `trajectory_csv` formats ``simulate``'s CSV as
text, which the command line writes.  The scan guard it applies,
`opweb.errors.DEFAULT_SCAN_GUARD` and `opweb.errors.guard_error`, lives
with the errors, which every module imports.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import (DEFAULT_SCAN_GUARD, InvalidArgumentError,
                     ScanLimitExceededError, guard_error)
from .lattice import Config, LatticeSite, X_BIAS, make_key_sampler


@dataclass(frozen=True)
class Trajectory:
    """An integer-valued lattice trajectory starting at time ``start_t``."""

    start_t: int
    values: array  # values[j] is the position at time start_t + j

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class GammaApprox(Trajectory):
    """Finite-horizon stand-in for the rightmost infinite open path.

    Equals the left boundary of the exploration run to level ``horizon``;
    values can only decrease (pointwise) as the horizon grows.
    """

    start: LatticeSite = None
    horizon: int = 0


class ExplorationCluster:
    """Single-owner mutable exploration state, on the Python walk; advance
    levels sequentially.

    ``source`` overrides the edge oracle (used by couplings); the walk calls
    it once per examined edge, with the edge's packed key.
    """

    def __init__(self, origin: LatticeSite, cfg: Config | None = None, *,
                 source=None, scan_guard: int = DEFAULT_SCAN_GUARD):
        if cfg is None and source is None:
            raise InvalidArgumentError("need a Config or an edge source")
        self.origin = origin
        self.cfg = cfg
        self._t0 = origin.t
        self._left_deltas = []
        self._stack_x = [origin.x]
        self._r = [origin.x]
        self._source = source if source is not None else make_key_sampler(cfg)
        self._scan_guard = scan_guard
        self._dead: set[int] = set()
        self._stack_state = [0]
        self.scan_offset = 0  # start sites exhausted so far

    # -- read surface ------------------------------------------------------

    @property
    def level(self) -> int:
        """Highest explored target time."""
        return self._t0 + len(self._r) - 1

    @property
    def start_t(self) -> int:
        return self._t0

    @property
    def right_values(self) -> array:
        """A fresh copy of r, one value per level from the start, as an
        ``array.array`` of int64 (typecode ``"q"``)."""
        return array("q", self._r)

    @property
    def left_values(self) -> array:
        """A fresh copy of the left boundary at the current level, as an
        ``array.array`` of int64 (typecode ``"q"``)."""
        return array("q", self._stack_x)

    @property
    def n_examined(self) -> int:
        """Edges examined so far: both out-edges of each dead site, and the
        first ``stack_state[j]`` of stack site ``j``."""
        return 2 * len(self._dead) + sum(self._stack_state)

    @property
    def left_deltas(self):
        """Per level, ``(floor, stack[floor:])`` after that level's advance."""
        return self._left_deltas

    def _guard_error(self) -> ScanLimitExceededError:
        """The error of a tripped scan guard.  Every later advance past the
        current level raises it again; the walk stays where it stopped."""
        return guard_error(self.scan_offset, self.level)

    # -- the walk ----------------------------------------------------------

    def advance_level(self) -> int:
        """Explore until the first open path reaches the next level.

        Returns the new right-boundary value.  Raises
        ScanLimitExceededError once `scan_guard` start sites in a row have
        been exhausted without reaching the target (subcritical input never
        silently loops).
        """
        stack_x = self._stack_x
        if not stack_x:  # emptied by a tripped guard
            raise self._guard_error()
        stack_state = self._stack_state
        dead = self._dead
        src = self._source
        t0 = self._t0
        r = self._r
        target = len(r)
        top = target - 1
        min_top = top
        while True:
            state = stack_state[top]
            if state == 0:
                stack_state[top] = 1
                x = stack_x[top]
                t = t0 + top
                key = ((2 * t + 1) << 32) | (x + X_BIAS)  # up-right
                if src(key):
                    cx = x + 1
                    if ((t + 1) << 32) | (cx + X_BIAS) not in dead:
                        stack_x.append(cx)
                        stack_state.append(0)
                        top += 1
                        if top == target:
                            break
            elif state == 1:
                stack_state[top] = 2
                x = stack_x[top]
                t = t0 + top
                key = ((2 * t) << 32) | (x + X_BIAS)  # up-left
                if src(key):
                    cx = x - 1
                    if ((t + 1) << 32) | (cx + X_BIAS) not in dead:
                        stack_x.append(cx)
                        stack_state.append(0)
                        top += 1
                        if top == target:
                            break
            else:
                x = stack_x.pop()
                stack_state.pop()
                dead.add(((t0 + top) << 32) | (x + X_BIAS))
                top -= 1
                if top < 0:
                    self.scan_offset += 1
                    if self.scan_offset >= self._scan_guard:
                        raise self._guard_error()
                    stack_x.append(self.origin.x - 2 * self.scan_offset)
                    stack_state.append(0)
                    top = 0
                    min_top = -1
                elif top < min_top:
                    min_top = top
        new_r = stack_x[target]
        r.append(new_r)
        self._left_deltas.append((min_top + 1, stack_x[min_top + 1:]))
        return new_r

    def advance_to(self, n: int) -> None:
        while self.level < n:
            self.advance_level()


@dataclass(frozen=True)
class Boundaries:
    """The boundaries of the exploration cluster of ``start``, run to a
    horizon.

    ``right`` is r at every level from ``start.t`` to the horizon, ``left``
    the left boundary frozen at `level`, and ``gamma`` the left boundary at
    the horizon (see `GammaApprox`).  Each is a fresh ``array.array`` of
    int64 (typecode ``"q"``) that a caller may keep and write into.
    ``scan_offset`` and ``n_examined`` count the start sites exhausted and
    the edges examined up to the horizon.
    """

    start: LatticeSite
    right: array
    left: array
    gamma: array
    scan_offset: int
    n_examined: int

    @property
    def level(self) -> int:
        """The level ``n`` at which ``left`` was frozen."""
        return self.start.t + len(self.left) - 1


def explore_to_level(z: LatticeSite, n: int, cfg: Config, *,
                     horizon: int | None = None,
                     scan_guard: int = DEFAULT_SCAN_GUARD) -> Boundaries:
    """The boundaries of the exploration cluster of ``z``: the left
    boundary at target level ``n``, and r and γ at ``horizon`` (by default
    ``n``), from one walk.

    Runs the native walk.  A tripped scan guard raises its
    ScanLimitExceededError.
    """
    if n < z.t:
        raise InvalidArgumentError(f"target level {n} precedes start time {z.t}")
    horizon = n if horizon is None else horizon
    if horizon < n:
        raise InvalidArgumentError(f"horizon {horizon} precedes level {n}")
    from . import _native  # may build the library: not at import
    return Boundaries(z, *_native.bounds(z, n, horizon, cfg, scan_guard))


def gamma_approx(z: LatticeSite, horizon: int, cfg: Config, *,
                 scan_guard: int = DEFAULT_SCAN_GUARD) -> GammaApprox:
    """Rightmost open path from the half-line at ``z`` reaching ``horizon``."""
    gamma = explore_to_level(z, horizon, cfg, scan_guard=scan_guard).gamma
    return GammaApprox(z.t, gamma, start=z, horizon=horizon)


def boundary_ordering_check(bounds: Boundaries, g: GammaApprox) -> bool:
    """True iff gamma <= left boundary <= right boundary on ``[start,
    bounds.level]``."""
    if g.start != bounds.start:
        raise InvalidArgumentError("gamma approximation has a different origin")
    if g.horizon < bounds.level:
        raise InvalidArgumentError("gamma horizon shorter than cluster level")
    return all(lo <= mid <= hi for lo, mid, hi in zip(
        g.values, bounds.left, bounds.right))


def trajectory_csv(r, left, gamma, header_comment: str | None = None) -> str:
    """The text of ``j, r_j, l_j, gamma_j`` (integer-exact), one row per
    level, under an optional ``# header_comment`` line: what ``simulate``
    writes to each replica's CSV, through the command line's one writer.

    All three are ``array.array`` buffers of int64, as in `Boundaries`.
    ``left`` is the left boundary frozen at a level, and sets the number of
    rows; ``r`` is the right boundary and ``gamma`` the rightmost-path
    approximation (`GammaApprox`), both of which may run past that level.
    """
    m = len(left)
    if len(r) < m or len(gamma) < m:
        raise InvalidArgumentError("r and gamma must cover the left boundary")
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("j,r_j,l_j,gamma_j")
    rows = zip(r[:m].tolist(), left.tolist(), gamma[:m].tolist())
    lines.extend(f"{j},{rj},{lj},{gj}" for j, (rj, lj, gj) in enumerate(rows))
    return "\n".join(lines) + "\n"
