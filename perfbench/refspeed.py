"""References that measure the host's speed.

On a shared host the speed of the same Python code swings by up to 2x
within seconds.  Timing a fixed reference next to the program and scaling
by ``nominal / reference time`` turns a measured time into seconds at a
fixed reference speed: the speed at which the reference takes its nominal
time, about what it takes on the idle host the README names.

In one process the reference is ``chunk_seconds``: the oracles' integer
code, with the same mix of big-integer arithmetic, tuples and calls as the
library, importing nothing from ``topograph``; nominal ``REF_S``.  For CLI
processes it is a bare interpreter start (``python -c pass``), whose cost
moves with the host the way a CLI process does; nominal ``PROCESS_REF_S``.
"""

from __future__ import annotations

import time

import oracles as O

REF_S = 0.010
PROCESS_REF_S = 0.050


def chunk_seconds() -> float:
    t0 = time.perf_counter()
    for k in range(2000, 2021):
        O.rho_cycle((1, 2 * k + 1, -3))
        O.reduce_definite((7, 2 * k + 1, k * k))
    return time.perf_counter() - t0
