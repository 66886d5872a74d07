"""Independent references for the benchmark's output checks, all in mpmath.

Nothing here imports zetasteps: every value is computed from the
definitions (zeta, Hurwitz zeta, Z, Gram points, the pendant center P(s))
so a wrong answer from the package cannot hide behind its own code.
"""

from __future__ import annotations

import functools
import math
import os

import mpmath
import numpy as np

mpmath.mp.dps = 30

ZEROS_FIRST_REF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "zeros_first_ref.txt")


def zeta(sigma: float, t: float) -> complex:
    return complex(mpmath.zeta(mpmath.mpc(sigma, t)))


def siegelz(t: float) -> float:
    return float(mpmath.siegelz(t))


def nzeros(t: float) -> int:
    """Number of zeros with 0 < ordinate <= t (Gram blocks, Rosser's rule)."""
    return int(mpmath.nzeros(t))


def direct_sum(sigma: float, t: float, n: int) -> complex:
    """sum_{k <= n} k**(-s), term by term."""
    s = mpmath.mpc(sigma, t)
    return complex(mpmath.fsum(mpmath.mpf(k) ** (-s) for k in range(1, n + 1)))


def hurwitz(sigma: float, t: float, a: int) -> mpmath.mpc:
    """zeta(s, a) by Euler-Maclaurin at the first term (no head sum).

    mpmath's own Hurwitz zeta sums a head of ~|t|/2pi terms at large t, so it
    is far too slow here; this form converges when 2*pi*a > 1.2*|s|.
    """
    s = mpmath.mpc(sigma, t)
    if 2.0 * math.pi * a <= 1.2 * abs(complex(s)):
        raise ValueError("hurwitz: a too small for the asymptotic series")
    a = mpmath.mpf(a)
    total = a ** (1 - s) / (s - 1) + a ** (-s) / 2
    poch = s
    apow = a ** (-s - 1)
    for j in range(1, 400):
        term = mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * poch * apow
        total += term
        if abs(term) < mpmath.mpf(10) ** -22:
            return total
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        apow /= a * a
    raise ArithmeticError("hurwitz: series did not converge")


def cumulative(sigma: float, t: float, n: int, zeta_s: mpmath.mpc) -> complex:
    """sum_{k <= n} k**(-s) as zeta(s) - zeta(s, n + 1)."""
    return complex(zeta_s - hurwitz(sigma, t, n + 1))


def center(sigma: float, t: float) -> tuple:
    """(P(s), |L|): half sum to n_p plus the pendant offset L, by definition.

    n_p = floor(sqrt(t/2pi)), p its fractional part; L has magnitude
    n_p**-sigma / (2 cos 2 pi p) and angle -t log n_p - 2 pi p, reversed.
    """
    r = mpmath.sqrt(mpmath.mpf(t) / (2 * mpmath.pi))
    n_p = int(mpmath.floor(r))
    p = r - n_p
    s = mpmath.mpc(sigma, t)
    head = mpmath.fsum(mpmath.mpf(k) ** (-s) for k in range(1, n_p + 1))
    mag = mpmath.mpf(n_p) ** (-sigma) / (2 * mpmath.cos(2 * mpmath.pi * p))
    offset = -mag * mpmath.expj(-t * mpmath.log(n_p) - 2 * mpmath.pi * p)
    return complex(head + offset), float(abs(mag))


def gram_points(t_lo: float, t_hi: float) -> list:
    """Gram points g_n with t_lo <= g_n <= t_hi (theta(g_n) = n pi), for
    t_lo above g_0 where theta is increasing."""
    n = int(mpmath.ceil(mpmath.siegeltheta(t_lo) / mpmath.pi))
    out = []
    while (g := float(mpmath.grampoint(n))) <= t_hi:
        if g >= t_lo:
            out.append(g)
        n += 1
    return out


def q_magnitude(sigma: float, t: float) -> float:
    return float((mpmath.mpf(t) / (2 * mpmath.pi)) ** (0.5 - sigma))


@functools.lru_cache(maxsize=None)
def zeros_first_histogram(count: int, bins: int):
    """(centers, counts) of the Gram-offset histogram of the first `count`
    zeros, from the stored mpmath.zetazero table and mpmath.grampoint."""
    with open(ZEROS_FIRST_REF) as fh:
        zeros = [float(x) for x in fh if x.strip() and not x.startswith("#")]
    if len(zeros) < count:
        raise ValueError(f"reference table holds {len(zeros)} zeros, need {count}")
    zeros = zeros[:count]
    grams = [float(mpmath.grampoint(0))]
    while grams[-1] <= zeros[-1]:
        grams.append(float(mpmath.grampoint(len(grams))))
    offsets = []
    for z in zeros:
        if z < grams[0]:
            continue  # below g_0: no Gram interval, dropped like the package does
        i = max(k for k, g in enumerate(grams) if g <= z)
        g0, g1 = grams[i], grams[i + 1]
        offsets.append((z - 0.5 * (g0 + g1)) / (0.5 * (g1 - g0)))
    vals = np.asarray(offsets)
    vmax = float(np.max(np.abs(vals)))
    counts, edges = np.histogram(vals, bins=bins, range=(-vmax, vmax))
    return 0.5 * (edges[:-1] + edges[1:]), counts
