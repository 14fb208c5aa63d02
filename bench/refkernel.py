"""Fixed reference kernels that measure how fast the machine runs right now.

The machine this benchmark was written on shares two cores with other
tenants, and the speed of identical code drifts by a third over minutes and
flips between a fast and a slow state within seconds.  Each timed CLI call
is bracketed by a kernel, and its raw seconds are scaled by
``nominal / kernel seconds``: the result is the time the call would have
taken at the speed where the kernel takes its nominal time.

Pure-Python code and numpy code do not slow down alike (in the slow state
the walk below takes about 1.7 times as long, a numpy-bound call about 1.25
times), so there are two kernels, and each workload uses the one that
tracked its own calls more closely.  Neither calls the program, so that a
change to the program never changes the yardstick:

* ``walk``: a depth-first walk for the rightmost open path on a
  splitmix64-sampled oriented-percolation configuration, with dict and set
  lookups, like the exploration walk;
* ``box``: a vectorised splitmix64 over a box of edge keys, like the
  materialised DP box.
"""

from __future__ import annotations

import time

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_BIAS = 1 << 31
_BASE = 0x1234567


def walk(levels: int = 8000, threshold: int = 3 << 62) -> int:
    """Explore to ``levels`` on a fixed configuration; edges examined."""
    status = {}
    dead = set()
    stack_x = [0]
    stack_state = [0]
    top = 0
    offset = 0
    for target in range(1, levels + 1):
        while True:
            state = stack_state[top]
            if state < 2:
                stack_state[top] = state + 1
                x = stack_x[top]
                d = 1 - state
                key = ((2 * top + d) << 32) | (x + _BIAS)
                s = status.get(key)
                if s is None:
                    z = (_BASE + key * _GOLDEN) & _MASK
                    z = ((z ^ (z >> 30)) * _M1) & _MASK
                    z = ((z ^ (z >> 27)) * _M2) & _MASK
                    s = (z ^ (z >> 31)) < threshold
                    status[key] = s
                if s:
                    cx = x + 1 if d else x - 1
                    if ((top + 1) << 32) | (cx + _BIAS) not in dead:
                        stack_x.append(cx)
                        stack_state.append(0)
                        top += 1
                        if top == target:
                            break
            else:
                x = stack_x.pop()
                stack_state.pop()
                dead.add((top << 32) | (x + _BIAS))
                top -= 1
                if top < 0:
                    offset += 1
                    stack_x.append(-2 * offset)
                    stack_state.append(0)
                    top = 0
    return len(status)


def box(n: int = 400) -> int:
    """splitmix64 over every even site of an (3n+1) x n box; open count."""
    ts, xs = np.meshgrid(np.arange(n), np.arange(-2 * n, n + 1), indexing="ij")
    even = (xs + ts) % 2 == 0
    keys = (((2 * ts[even] + 1) << 32) | (xs[even] + _BIAS)).astype(np.uint64)
    z = np.uint64(_BASE) + keys * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    z = z ^ (z >> np.uint64(31))
    return int((z < np.uint64(3 << 62)).sum())


# name -> (function, its fixed result, nominal seconds).  The nominal time is
# the kernel's median on the reference machine (see README.md); a wrong
# result means a broken yardstick and stops the run.
KERNELS = {
    "walk": (walk, 12839, 0.025),
    "box": (box, 180608, 0.020),
}


def measure(name: str) -> float:
    """Run kernel ``name`` once; return its wall seconds."""
    fn, expected, _ = KERNELS[name]
    t0 = time.perf_counter()
    got = fn()
    dt = time.perf_counter() - t0
    if got != expected:
        raise RuntimeError(f"reference kernel {name} gave {got}")
    return dt


def slowness(name: str) -> float:
    """How much slower than nominal the machine runs now, by kernel
    ``name``: its time over its nominal time.  1.0 is reference speed."""
    return measure(name) / KERNELS[name][2]
