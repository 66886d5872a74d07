"""A fixed reference computation that measures how fast the host runs now.

The host's speed drifts by up to 1.8x within minutes and jumps within
seconds (the machine is shared; see NOTES.md), so every timed pass
is bracketed by two runs of this kernel and reported at the reference speed
CAL_REF_S.  The kernel mixes the package's three kinds of work: a Python
float loop, 44-digit Decimal logarithms and small numpy array ops.  It
touches no zetasteps state, and its arrays are small so it does not move
the process's peak RSS.
"""

import math
import time
from decimal import Decimal, localcontext

import numpy as np

# Median duration of calibrate() on the 2-CPU Xeon box the baseline was taken on.
CAL_REF_S = 0.14


def calibrate() -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 40001):
        s += math.cos(i * 0.001) / math.sqrt(i)
    with localcontext() as ctx:
        ctx.prec = 44
        for i in range(2, 400):
            Decimal(i).ln()
    x = np.arange(1, 8193, dtype=float)
    for _ in range(96):
        s += math.fsum(np.cos(x * 1.234) * x ** -0.5)
    return time.perf_counter() - t0
