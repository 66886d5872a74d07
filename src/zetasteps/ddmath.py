"""Double-width (double-double) float arithmetic for phase-accurate sums.

Working precision is IEEE double everywhere, but phases t*log(n) lose up
to seven digits at t ~ 1e9 when computed naively.  Everything here keeps a
(hi, lo) pair worth ~32 significant digits through the multiply and the
mod-2*pi reduction, which holds the reduced phase to well under 1e-9 rad
for t <= 1e8.

The primitives are branch-free and polymorphic: they accept Python floats
or numpy arrays alike (Dekker splitting instead of fma, which CPython 3.10
does not expose).
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split constant

_DD_PREC = 44
PI_STR = "3.1415926535897932384626433832795028841971693993751"


def _pi_dec() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _DD_PREC
        return +Decimal(PI_STR)


PI_DEC = _pi_dec()
TWOPI_DEC = 2 * PI_DEC
TWOPI = 2.0 * math.pi


def two_sum(a, b):
    """Error-free transform: a + b = s + e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """Error-free transform: a * b = p + e exactly (Dekker)."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(xh, xl, yh, yl):
    sh, se = two_sum(xh, yh)
    se = se + (xl + yl)
    hh, hl = two_sum(sh, se)
    return hh, hl


def dd_mul(xh, xl, yh, yl):
    ph, pe = two_prod(xh, yh)
    pe = pe + (xh * yl + xl * yh)
    hh, hl = two_sum(ph, pe)
    return hh, hl


def dd_mul_double(xh, xl, c):
    ph, pe = two_prod(xh, c)
    pe = pe + xl * c
    hh, hl = two_sum(ph, pe)
    return hh, hl


def dd_div(a, b):
    """(a/b) as a dd pair; a, b plain doubles (or arrays)."""
    q1 = a / b
    ph, pe = two_prod(q1, b)
    r = (a - ph) - pe
    q2 = r / b
    return two_sum(q1, q2)


def dd_from_decimal(d: Decimal):
    hi = float(d)
    lo = float(d - Decimal(hi))
    return hi, lo


TWOPI_HI, TWOPI_LO = dd_from_decimal(TWOPI_DEC)


@lru_cache(maxsize=200_000)
def _dd_log_cached(x: float):
    with localcontext() as ctx:
        ctx.prec = _DD_PREC
        return dd_from_decimal(Decimal(x).ln())


def dd_log(x: float):
    """log(x) as a dd pair, accurate to ~1e-32 relative."""
    if x <= 0.0 or not math.isfinite(x):
        raise ValueError(f"dd_log requires finite x > 0, got {x}")
    if x == 1.0:
        return 0.0, 0.0
    if float(x).is_integer() and 2.0 <= x <= 1e15:
        return _dd_log_cached(float(x))
    with localcontext() as ctx:
        ctx.prec = _DD_PREC
        return dd_from_decimal(Decimal(x).ln())


# ---------------------------------------------------------------------------
# Vectorized dd log table for integers 1..n, grown on demand.  Blocks use a
# log1p series around an exactly-known reference value, so the only Decimal
# work is one ln per block (plus the first 1024 entries).  The (hi, lo)
# pair is published as one tuple, so a reader on another thread never sees
# the arrays of two different growths.

_LOG_TABLE_SEED = 1024
_log = (np.zeros(2), np.zeros(2))


def _series_block(ref: int, n_arr: np.ndarray):
    """dd log(n) for n in n_arr, via log(ref) + log1p((n-ref)/ref).

    Requires |n - ref| <= ref/32 so ~23 series terms reach 1e-34.
    """
    rh, rl = _dd_log_cached(float(ref))
    d = n_arr - float(ref)  # exact: integers below 2**53
    xh, xl = dd_div(d, float(ref))
    # log1p(x) = sum_{k>=1} (-1)^(k+1) x^k / k
    sh = np.zeros_like(n_arr)
    sl = np.zeros_like(n_arr)
    ph, pl = np.ones_like(n_arr), np.zeros_like(n_arr)
    for k in range(1, 24):
        ph, pl = dd_mul(ph, pl, xh, xl)
        c = 1.0 / k if k % 2 == 1 else -1.0 / k
        th, tl = dd_mul_double(ph, pl, c)
        sh, sl = dd_add(sh, sl, th, tl)
    return dd_add(sh, sl, rh, rl)


def log_table(nmax: int):
    """dd log(n) arrays indexed by n for 0 <= n <= nmax (index 0 unused)."""
    global _log
    old_hi, old_lo = _log
    size = len(old_hi)
    if nmax < size - 1:
        return old_hi, old_lo
    target = nmax + 1
    hi = np.empty(target)
    lo = np.empty(target)
    hi[:size] = old_hi
    lo[:size] = old_lo
    hi[0] = lo[0] = 0.0
    start = max(size, 1)
    if start < min(target, _LOG_TABLE_SEED):
        with localcontext() as ctx:
            ctx.prec = _DD_PREC
            for n in range(start, min(target, _LOG_TABLE_SEED)):
                hi[n], lo[n] = dd_from_decimal(Decimal(n).ln())
        start = min(target, _LOG_TABLE_SEED)
    while start < target:
        stop = min(target, start + max(1, start // 32))
        ref = start + (stop - 1 - start) // 2
        n_arr = np.arange(start, stop, dtype=float)
        hi[start:stop], lo[start:stop] = _series_block(ref, n_arr)
        start = stop
    _log = (hi, lo)
    return hi, lo


def mod_twopi(ph, pl):
    """Reduce a dd value into [0, 2*pi), returned as a plain double."""
    if isinstance(ph, float):
        q = math.floor(ph / TWOPI_HI + 0.5)
        mh, me = two_prod(float(q), TWOPI_HI)
        me = me + q * TWOPI_LO
        rh, rl = dd_add(ph, pl, -mh, -me)
        r = rh + rl
        if r < 0.0:
            r += TWOPI
        elif r >= TWOPI:
            r -= TWOPI
        return r
    q = np.floor(ph / TWOPI_HI + 0.5)
    mh, me = two_prod(q, TWOPI_HI)
    me = me + q * TWOPI_LO
    rh, rl = dd_add(ph, pl, -mh, -me)
    r = rh + rl
    r = np.where(r < 0.0, r + TWOPI, r)
    r = np.where(r >= TWOPI, r - TWOPI, r)
    if np.ndim(r) == 0:
        return float(r)
    return r


def phase_from_dd_log(t: float, lh, ll):
    """((-t) * log) mod 2*pi for a dd log value (scalar or array)."""
    ph, pe = two_prod(-t, lh)
    pe = pe + (-t) * ll
    return mod_twopi(ph, pe)
