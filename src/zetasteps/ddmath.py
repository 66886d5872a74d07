"""Double-width (double-double) float arithmetic for phase-accurate sums.

Working precision is IEEE double everywhere, but phases t*log(n) lose up
to seven digits at t ~ 1e9 when computed naively.  Logs are kept as
(hi, lo) pairs worth ~32 significant digits; a phase is reduced mod 2*pi
from exact pieces of the product (Cody-Waite).  Against 50-digit mpmath
it errs by at most 6.7e-15 rad for t, n <= 1e8 and 5.1e-14 rad up to
REDUCTION_LIMIT (|phase| < 1.349e10), past which callers refuse it.

The primitives are branch-free and polymorphic: they accept Python floats
or numpy arrays alike (Dekker splitting instead of fma, which CPython 3.10
does not expose).

Every dd logarithm comes from one table-driven kernel, `_log_parts`, which
serves `dd_log` and the integer log table alike; the table runs it once per
odd core m for all of m*2^i.  A whole number's log (a step index, theta's
round(t)) has one reader, `dd_log_whole`: the table, else a 1,024-slot memo
past it, so a zero search runs the kernel on each integer once, not once per
pass.  The dd constants are float literals rounded from 50-digit mpmath values.
"""

from __future__ import annotations

import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split constant

TWOPI = 2.0 * math.pi


def two_sum(a, b):
    """Error-free transform: a + b = s + e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def split(a):
    c = _SPLITTER * a
    c -= c - a  # the hi word; in place for an ndarray
    return c, a - c


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


def dd_div(a, b, bl=0.0):
    """a/(b + bl) as a dd pair; a plain double, b + bl a dd (or arrays)."""
    q1 = a / b
    ph, pe = two_prod(q1, b)
    r = ((a - ph) - pe) - q1 * bl
    q2 = r / b
    return two_sum(q1, q2)


# 2*pi = C1 + C2 + C3 with C1, C2 of 22 bits, so q*C1 and q*C2 are exact
# for |q| < 2**31; dd log 2*pi*e and pi/8 of theta_RS, from 50-digit mpmath.
TWOPI_C1, TWOPI_C2, TWOPI_C3 = 6.283184051513672, 1.2556656656670384e-06, 2.4893488687586454e-13
REDUCTION_LIMIT, _INV_TWOPI, _ROUNDER = 2.0**31 * TWOPI_C1, 1.0 / TWOPI, 1.5 * 2.0**52
LOG_TWOPI_E_HI, LOG_TWOPI_E_LO = 2.8378770664093453, 1.4447872176368647e-16
PI8_HI, PI8_LO = 0.39269908169872414, 1.5308084989341915e-17

_THIRD = dd_div(1.0, 3.0)
_FIFTH = dd_div(1.0, 5.0)


def _atanh2(uh, ul):
    """2*atanh(u) as a dd pair for a dd u with |u| <= 1/129.

    atanh(u) = u + u*w*(1/3 + w*(1/5 + w*T)), w = u^2: the terms up to u^5/5
    run in dd, the tail T = 1/7 + w/9 + w^2/11 + w^3/13 in plain doubles.
    Rounding T costs at most 3e-29*|u| at |u| = 1/129 and 5e-31*|u| at
    |u| = 1/256; the first dropped term, u^15/15, is smaller still.
    """
    wh, wl = dd_mul(uh, ul, uh, ul)
    tail = wh * (1.0 / 7.0 + wh * (1.0 / 9.0 + wh * (1.0 / 11.0 + wh / 13.0)))
    sh, sl = dd_add(*_FIFTH, tail, 0.0)
    sh, sl = dd_mul(sh, sl, wh, wl)
    sh, sl = dd_add(*_THIRD, sh, sl)
    sh, sl = dd_mul(sh, sl, wh, wl)
    sh, sl = dd_mul(sh, sl, uh, ul)
    sh, sl = dd_add(uh, ul, sh, sl)
    return 2.0 * sh, 2.0 * sl


# dd log(1 + j/64) for j = 0..64, chained by
# log(c_{j+1}) = log(c_j) + 2*atanh(1/(129 + 2j)); the last knot is log 2.
_KNOTS = [(0.0, 0.0)]
for _j in range(64):
    _KNOTS.append(dd_add(*_KNOTS[-1], *_atanh2(*dd_div(1.0, 129.0 + 2 * _j))))
_KNOT_HI, _KNOT_LO = np.array(_KNOTS).T


def _log_parts(x):
    """(e, j, A) with log x = (e - 1)*log 2 + log c_j + A, x > 0 finite.

    Table-driven after Tang (ACM TOMS 16, 1990): x = 2^(e-1) * m with m in
    [1, 2), c_j = 1 + j/64 the knot nearest m, and A = 2*atanh(u) as a dd
    pair, u = (m - c)/(m + c), |u| <= 1/256.  m - c is exact and m + c is
    carried as a dd pair, so u is a dd quotient.  j and A depend on m
    alone, so x and 2x share them bit for bit.
    """
    if isinstance(x, float):
        f, e = math.frexp(x)
        j = round(128.0 * f) - 64
    else:
        f, e = np.frexp(x)
        j = np.rint(128.0 * f).astype(np.intp) - 64
    m = 2.0 * f
    c = 1.0 + j / 64.0
    sh, sl = two_sum(m, c)
    return e, j, _atanh2(*dd_div(m - c, sh, sl))


def _dd_log(x):
    """log x as a dd pair for finite x > 0, a float or an ndarray:
    dd_add(K, A), K = (e - 1)*log 2 + log c_j, of `_log_parts`."""
    e, j, a = _log_parts(x)
    ch, cl = _KNOTS[j] if isinstance(x, float) else (_KNOT_HI[j], _KNOT_LO[j])
    h, l = dd_mul_double(*_KNOTS[64], e - 1.0)
    return dd_add(*dd_add(h, l, ch, cl), *a)


# K of `_dd_log` at [e, j] for e = 0..64, by the same operations: the
# log table's entries n*2^i share j and A and take K at e + i.
_K_HI, _K_LO = dd_add(*dd_mul_double(*_KNOTS[64], np.arange(-1.0, 64.0)[:, None]),
                      _KNOT_HI, _KNOT_LO)


def dd_log(x: float):
    """log(x) as a dd pair, within 4e-30*max(1, |log x|) of the true value.

    Measured against 50-digit mpmath: at most 6.1e-31*max(1, |log x|) over
    48k doubles (uniform in bit pattern, near 1, and the knot edges); the
    error is mostly the 3.3e-31 of the log 2 knot, times the exponent.
    A whole x (every step index) reads `dd_log_whole`, any other x runs the
    kernel: `_dd_log`'s bits either way, and nothing else is kept.
    """
    if not 0.0 < x < math.inf:  # NaN fails too
        raise ValueError(f"dd_log requires finite x > 0, got {x}")
    x = float(x)
    return dd_log_whole(x) if x.is_integer() else _dd_log(x)


# ---------------------------------------------------------------------------
# dd log table for integers 1..n, grown on demand to a whole number of
# _LOG_STEP entries, so slowly rising requests grow it rarely.  Entry m*2^i
# (m odd) is dd_add(K[e + i, j], A) with the j and A of the core's first new
# entry: `_dd_log`'s operations on its operands, so its bits.  Cores come in
# chunks of up to BLOCK, which bound the temporaries.  The (hi, lo) pair is
# published as one tuple, so a reader on another thread never sees the
# arrays of two different growths.

# BLOCK: entries of every array loop over steps (phase blocks, row groups, the
# table's growth); its 64 KiB float64 temporaries stay below glibc's 128 KiB
# mmap threshold, so they are reused, not mapped and faulted in afresh.
BLOCK = 1 << 13
_LOG_STEP = 1 << 10
_log = (np.zeros(2), np.zeros(2))


def log_table(nmax: int):
    """dd log(n) arrays indexed by n for 0 <= n <= nmax (index 0 unused)."""
    global _log
    old_hi, old_lo = _log
    size = len(old_hi)
    if nmax < size:
        return old_hi, old_lo
    nmax |= _LOG_STEP - 1
    hi = np.empty(nmax + 1)
    lo = np.empty(nmax + 1)
    hi[:size] = old_hi
    lo[:size] = old_lo
    # The first new entry of each odd core m is every n in [size, 2*size)
    # and every odd n past that; n*2^i then shares its j and A.
    for start, stop, step in ((size, min(2 * size, nmax + 1), 1), (2 * size + 1, nmax + 1, 2)):
        for a in range(start, stop, step * BLOCK):
            first = np.arange(a, min(stop, a + step * BLOCK), step, dtype=float)
            e, j, (ah, al) = _log_parts(first)
            i = 0
            while a << i <= nmax:
                count = min(len(first), ((nmax >> i) - a) // step + 1)
                k = e[:count] + i, j[:count]
                at = slice(a << i, ((a + step * (count - 1)) << i) + 1, step << i)
                hi[at], lo[at] = dd_add(_K_HI[k], _K_LO[k], ah[:count], al[:count])
                i += 1
    _log = (hi, lo)
    return hi, lo


# Memo of whole numbers past the log table: rows (n, hi, lo), n in slot
# n mod _LOG_STEP, 0 in an empty slot (n >= 1 never matches it).  A miss
# publishes a new array as one object, like `_log`: a 24 KiB copy, where
# BLOCK slots would copy and keep 192 KiB.
_whole = np.zeros((3, _LOG_STEP))


def dd_log_whole(n):
    """`_dd_log` of a whole float n >= 1 (Python floats back) or an ndarray
    of them, the same bits: read off the log table where it already holds
    every n (never grown here), else off the memo `_whole`.  A float or a
    batch with any n the memo lacks runs the kernel once, on the whole
    batch, and each n takes its slot, in place of the n there before."""
    global _whole
    hi, lo = _log
    if isinstance(n, float):
        k = int(n)
        if k < len(hi):
            return hi.item(k), lo.item(k)
        memo, slot = _whole, k % _LOG_STEP
        if memo.item(0, slot) != n:
            memo = memo.copy()
            memo[:, slot] = n, *_dd_log(n)
            _whole = memo
        return memo.item(1, slot), memo.item(2, slot)
    if n.size and n.max() < len(hi):
        k = n.astype(np.intp)
        return hi[k], lo[k]
    memo = _whole
    slot = (n % _LOG_STEP).astype(np.intp)
    keys, hi, lo = memo[:, slot]
    if n[keys != n].size:  # not .any(): its code is 64 KiB more RSS in the figure commands
        hi, lo = _dd_log(n)
        memo = memo.copy()
        memo[:, slot] = n, hi, lo
        _whole = memo
    return hi, lo


def mod_twopi(big, rest):
    """Reduce big + rest into [0, 2*pi), for floats or ndarrays alike, with
    |big + rest| < REDUCTION_LIMIT: q*C1 and q*C2 are exact (Cody-Waite).
    r = ((big - q*C1) - q*C2) + (rest - q*C3), its augmented assignments
    in place for an ndarray (fewer temporaries, the same bits)."""
    q = big + rest
    q *= _INV_TWOPI
    q += _ROUNDER
    q -= _ROUNDER  # nearest integer
    r = big - q * TWOPI_C1
    r -= q * TWOPI_C2
    r += rest - q * TWOPI_C3
    r += TWOPI * (r < 0.0)  # may round up to exactly TWOPI: wrapped next
    r -= TWOPI * (r >= TWOPI)
    return r


def phase_from_dd_log(t, lh, ll):
    """((-t) * log) mod 2*pi for a dd log value (floats or ndarrays); the
    product of the 26-bit halves th*hh is exact, the rest is summed apart
    as (th*hl + tl*hh) + (tl*hl - t*ll), in place for an ndarray."""
    th, tl = split(-t)
    hh, hl = split(lh)
    rest = th * hl
    rest += tl * hh
    rest += tl * hl - t * ll
    return mod_twopi(th * hh, rest)
