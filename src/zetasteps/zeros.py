"""Gram points, Z sign-change scanning, zero refinement and statistics.

The scan walks Gram intervals with the fast first-order rs_z; each bracket
is then refined once, by an Illinois solve on the reference oracle, so every
reported ordinate is a true zero of zeta(1/2 + it) to the requested
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .evaluators import rs_z, z_reference
from .symmetry import TWOPI, rs_theta

_GRAM_TOL = 1e-10
_GRAM_MAX_ITER = 50
_T_SCAN_FLOOR = 10.0
_TOL_FLOOR = 1e-10
_SUBDIVISIONS_PER_GRAM = 8  # scan grid steps per Gram interval


@dataclass(frozen=True)
class GramPoint:
    index: int
    t: float


@dataclass(frozen=True)
class ZeroRecord:
    ordinal: int
    t: float
    bracket: Tuple[float, float]
    gram_index: int
    scaled_offset: float
    residual: float = math.nan  # oracle |Z| at t; NaN where z was not evaluated


@lru_cache(maxsize=100_000)
def gram_point(N: int) -> GramPoint:
    """The ordinate g_N with theta_RS(g_N) = N*pi, by Newton iteration."""
    if N < 0:
        raise DomainError(f"Gram index must be >= 0, got {N}")
    target = N * math.pi
    # Seed: solve u*(log u - 1) = N + 1/8 for u = t/2pi by Newton on the
    # smooth main term, then polish on the full series.
    u = max(3.0, float(N))
    for _ in range(30):
        g = u * (math.log(u) - 1.0) - (N + 0.125)
        du = g / math.log(u)
        u -= du
        u = max(u, 2.8)
        if abs(du) < 1e-12 * u:
            break
    t = TWOPI * u
    for _ in range(_GRAM_MAX_ITER):
        resid = rs_theta(t) - target
        if abs(resid) < _GRAM_TOL:
            return GramPoint(index=N, t=t)
        deriv = 0.5 * math.log(t / TWOPI)
        t -= resid / deriv
        if t < 17.1:
            t = 17.1  # stay on the increasing branch
    raise ConvergenceError(f"gram_point({N}) did not converge")


def zero_count_main(T: float) -> float:
    """Smooth main term of the zero-counting function: theta_RS(T)/pi + 1."""
    return rs_theta(T) / math.pi + 1.0


def _gram_index_below(t: float) -> int:
    """Largest N with g_N <= t (clamped at -1 for t below g_0)."""
    if t < gram_point(0).t:
        return -1
    n = int(math.floor(rs_theta(t) / math.pi))
    while gram_point(n).t > t:
        n -= 1
    while gram_point(n + 1).t <= t:
        n += 1
    return n


def _brackets_on_grid(grid: np.ndarray, values: Sequence[float]):
    out = []
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            out.append((float(grid[i]), float(grid[i])))
        elif values[i] * values[i + 1] < 0.0:
            out.append((float(grid[i]), float(grid[i + 1])))
    return out


def scan_z_sign_changes(
    t_lo: float,
    t_hi: float,
    z: Callable[[float], float] = rs_z,
) -> List[Tuple[float, float]]:
    """Sign-change brackets of Z on a per-Gram-interval grid.

    A Gram interval whose running count falls >= 2 behind the smooth
    estimate is re-scanned at 4x density (close pairs, Gram-law breaks).
    """
    if t_lo < TWOPI:
        raise DomainError(f"scan needs t_lo >= 2*pi, got {t_lo}")
    if t_hi <= t_lo:
        return []
    edges = [t_lo]
    n = _gram_index_below(t_lo) + 1  # g_n > t_lo
    while gram_point(n).t < t_hi:
        edges.append(gram_point(n).t)
        n += 1
    edges.append(t_hi)
    brackets: List[Tuple[float, float]] = []
    found = 0
    base = zero_count_main(max(t_lo, _T_SCAN_FLOOR + 5.0))
    for lo, hi in zip(edges[:-1], edges[1:]):
        grid = np.linspace(lo, hi, _SUBDIVISIONS_PER_GRAM + 1)
        vals = [z(float(x)) for x in grid]
        got = _brackets_on_grid(grid, vals)
        expected = (zero_count_main(hi) - base) if hi > 10.5 else 0.0
        if (found + len(got)) - expected <= -2.0:
            grid = np.linspace(lo, hi, 4 * _SUBDIVISIONS_PER_GRAM + 1)
            vals = [z(float(x)) for x in grid]
            got = _brackets_on_grid(grid, vals)
        brackets.extend(got)
        found += len(got)
    return brackets


def refine_zero(
    bracket: Tuple[float, float],
    tol: float,
    z: Callable[[float], float] = z_reference,
    ordinal: int = 0,
) -> ZeroRecord:
    """Shrink a sign-change bracket of z below tol by an Illinois solve.

    A bracket no wider than tol gives its midpoint without evaluating z.
    Otherwise the record holds the final-bracket endpoint with the smaller
    |z|, which lies within tol of the zero, and that |z| as its residual.
    """
    if tol < _TOL_FLOOR:
        raise DomainError(f"tol must be >= {_TOL_FLOOR:g}")
    lo, hi = bracket
    if hi < lo:
        raise DomainError("bracket endpoints out of order")
    if hi - lo <= tol:
        return _make_record(ordinal, 0.5 * (lo + hi), (lo, hi))
    return _illinois(z, lo, hi, z(lo), z(hi), tol, ordinal)


def _illinois(z, lo, hi, f_lo, f_hi, tol, ordinal=0) -> ZeroRecord:
    """Illinois (modified regula falsi) solve on [lo, hi] from the known
    endpoint values f_lo = z(lo), f_hi = z(hi) (Dowell & Jarratt, BIT 11,
    1971): an endpoint kept twice in a row has its weight halved, so the
    bracket closes from both sides superlinearly."""
    if f_lo * f_hi > 0.0:
        raise DomainError("Z does not change sign across the bracket")
    w_lo, w_hi = f_lo, f_hi
    moved = 0  # -1: lo moved last, +1: hi moved last
    while hi - lo > tol and f_lo * f_hi < 0.0:
        t = hi - w_hi * (hi - lo) / (w_hi - w_lo)
        # Step at least tol/2 off each end: a point that has converged from
        # one side then brackets the zero within tol in one more call.
        t = min(max(t, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                break  # lo and hi are adjacent floats
        f_t = z(t)
        if f_t * f_lo > 0.0:
            lo, f_lo, w_lo = t, f_t, f_t
            if moved < 0:
                w_hi *= 0.5
            moved = -1
        else:
            hi, f_hi, w_hi = t, f_t, f_t
            if moved > 0:
                w_lo *= 0.5
            moved = 1
    t, f_t = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    return _make_record(ordinal, t, (lo, hi), abs(f_t))


def _make_record(
    ordinal: int, t: float, bracket: Tuple[float, float], residual: float = math.nan
) -> ZeroRecord:
    idx = _gram_index_below(t)
    if idx < 0:
        return ZeroRecord(ordinal, t, bracket, -1, math.nan, residual)
    g0 = gram_point(idx).t
    g1 = gram_point(idx + 1).t
    offset = (t - 0.5 * (g0 + g1)) / (0.5 * (g1 - g0))
    return ZeroRecord(ordinal, t, bracket, idx, offset, residual)


def _refine_on_oracle(bracket: Tuple[float, float], tol: float) -> ZeroRecord:
    """Refine an rs_z scan bracket on the oracle Z.  Where the oracle keeps
    one sign across it, both ends widen by h = 1e-4, 2e-4, ... up to 1."""
    lo, hi = bracket
    f_lo, f_hi = z_reference(lo), z_reference(hi)
    h = 1e-4
    while f_lo * f_hi > 0.0:
        if h > 1.0:
            raise ConvergenceError(f"no oracle sign change near {bracket}")
        lo, hi = bracket[0] - h, bracket[1] + h
        f_lo, f_hi = z_reference(lo), z_reference(hi)
        h *= 2.0
    return _illinois(z_reference, lo, hi, f_lo, f_hi, tol)


def find_zeros(
    t_lo: float,
    t_hi: float,
    tol: float = 1e-8,
    certify: bool = False,
    workers: int = 1,
) -> List[ZeroRecord]:
    """Scan with rs_z, then refine each bracket once on the oracle.

    Everything runs in the calling thread; `workers` is accepted and
    ignored.  Each record carries the oracle |Z| at its ordinate as
    `residual`; certify=True checks it is < 1e-5.

    Known defect: for t_lo > 14 the first ordinal is
    round(zero_count_main(t_lo)), which ignores S(t) and can be one too
    high (find_zeros(527, 529) numbers its zeros 290 and 291 where
    mpmath.zetazero gives 289 and 290); an exact count needs a Turing bound.
    """
    if tol < _TOL_FLOOR:
        raise DomainError(f"tol must be >= {_TOL_FLOOR:g}")
    t_lo = max(t_lo, _T_SCAN_FLOOR)
    offset = 0 if t_lo <= 14.0 else max(0, int(round(zero_count_main(t_lo))))
    refined = [_refine_on_oracle(b, tol) for b in scan_z_sign_changes(t_lo, t_hi)]
    records: List[ZeroRecord] = []
    for rec in sorted(refined, key=lambda r: r.t):
        if records and rec.t - records[-1].t <= 10.0 * tol:
            continue
        records.append(replace(rec, ordinal=offset + len(records) + 1))
    if certify:
        for rec in records:
            if rec.residual >= 1e-5:
                raise ConvergenceError(
                    f"zero at t={rec.t} failed certification (|zeta| = {rec.residual:g})"
                )
    return records


def gram_offsets(zeros: Sequence[ZeroRecord]) -> List[float]:
    """Scaled displacements from Gram-interval midpoints (NaN entries from
    pre-Gram ordinates are dropped)."""
    return [z.scaled_offset for z in zeros if not math.isnan(z.scaled_offset)]


def histogram(values: Sequence[float], bins: int):
    """Equal-width histogram over [-max|v|, +max|v|]; (centers, counts)."""
    if bins < 1:
        raise DomainError("bins must be >= 1")
    vals = np.asarray(list(values), dtype=float)
    if len(vals) == 0:
        return np.zeros(bins), np.zeros(bins, dtype=int)
    vmax = float(np.max(np.abs(vals)))
    if vmax == 0.0:
        vmax = 1.0
    counts, edges = np.histogram(vals, bins=bins, range=(-vmax, vmax))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts
