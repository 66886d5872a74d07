"""Gram points, Z sign-change scanning, zero refinement and statistics.

The scan solves one window of Gram points, which also gives every record
its Gram index and scaled offset (by np.searchsorted), evaluates the
Riemann-Siegel rs_z (main sum plus Gabcke's C0-C4 remainder) in one batch
at them, then halves the steps of each Gram block with fewer sign changes
than Gram intervals (Rosser's rule).  All brackets are refined together by
a lockstep Illinois solve on rs_z, from the scan's values at their ends.
One more batched rs_z call at c - tol/2 and c + tol/2 around every
estimate c then certifies each zero whose two values change sign and both
exceed the error bound B(t) of rs_z ("rs_bound").  The rest go to the
reference oracle ("oracle"), all in lockstep: one batched oracle call at
the same two points of every such estimate, one secant step on the two
values of each that shows no sign change, and one more call on those.
Only then comes the per-zero fallback: widen the scan bracket until the
oracle changes sign across it and refine_zero solves on the oracle there.
B is +inf below t = 200, so low zeros always take the oracle.  The
oracle sums to the least multiple of 32 terms that its own tail bound
accepts, about 0.45t, at each point (evaluators.eval_reference).  Every
reported ordinate is a true zero of zeta(1/2 + it) to the requested
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceGuardError
from .evaluators import _rs_bound, rs_z, z_reference
from .steps import as_rows, shaped
from .symmetry import TWOPI, rs_theta

_T_SCAN_FLOOR = 10.0
_TOL_FLOOR = 1e-10
_ROSSER_LEVELS = 5  # step halvings of a short Gram block
SCAN_GUARD = 1_000_000  # Gram intervals per scan, about 0.9 kB each (0.9 GB)


@dataclass(frozen=True)
class ZeroRecord:
    ordinal: int
    t: float
    gram_index: int
    scaled_offset: float
    residual: float = math.nan  # |Z| at t by the certificate's evaluator; NaN if none ran
    certificate: str = "oracle"  # "rs_bound": |rs_z| > B(t); "oracle": z_reference


def gram_point(N):
    """The ordinate g_N with theta_RS(g_N) = N*pi for an int N >= 0 or an
    ndarray of them, each entry on its own: seed 2pi*u from Newton on
    u*(log u - 1) = N + 1/8 (theta's main term), then Newton on the array
    rs_theta until |theta_RS(t) - N*pi| <= max(1e-10, 4 ulp(N*pi)) (above
    N*pi = 2**19 the rounding of theta exceeds 1e-10)."""
    n = as_rows(N)
    if np.min(n, initial=0.0) < 0:
        raise DomainError(f"Gram index must be >= 0, got {np.min(n):.0f}")
    u, open_ = np.maximum(3.0, n), np.ones(n.shape, dtype=bool)
    for _ in range(30):
        log_u = np.log(u)
        du = (u * (log_u - 1.0) - (n + 0.125)) / log_u
        u = np.where(open_, np.maximum(u - du, 2.8), u)
        open_ &= np.abs(du) >= 1e-12 * u
        if not open_.any():
            break
    target = n * math.pi
    tol = np.maximum(1e-10, 4.0 * np.spacing(target))
    t, open_ = TWOPI * u, np.ones(n.shape, dtype=bool)
    for _ in range(50):
        resid = rs_theta(t) - target
        open_ &= np.abs(resid) > tol
        if not open_.any():
            return shaped(t, N)
        # stay on the increasing branch, t > 17.1
        t = np.where(open_, np.maximum(t - resid / (0.5 * np.log(t / TWOPI)), 17.1), t)
    raise ConvergenceError(f"gram_point did not converge at N = {n[open_][0]:.0f}")


def zero_count_main(T: float) -> float:
    """Smooth main term of the zero-counting function: theta_RS(T)/pi + 1."""
    return rs_theta(T) / math.pi + 1.0


def _gram_floors(t_lo: float, t_hi: float) -> Tuple[int, int]:
    """k = floor(theta_RS(t)/pi) at t_lo and t_hi, as mpmath's gram_index reads
    it: g_{k-1} < t < g_{k+2} up to t = 1e14.  ResourceGuardError past
    SCAN_GUARD Gram intervals between them, then DomainError where the Gram
    spacing 2pi/log(t/2pi) is below ulp(t_hi), from t = 2**50: Gram points are one float."""
    k_lo, k_hi = (math.floor(rs_theta(max(t, TWOPI)) / math.pi) for t in (t_lo, t_hi))
    if k_hi - k_lo > SCAN_GUARD:
        raise ResourceGuardError(f"scan of {k_hi - k_lo:.3g} Gram intervals exceeds {SCAN_GUARD}")
    if t_hi > TWOPI and TWOPI / math.log(t_hi / TWOPI) < math.ulp(t_hi):
        raise DomainError(f"Gram spacing at t = {t_hi:.6g} is below ulp(t)")
    return k_lo, k_hi


def _gram_window(t_lo: float, t_hi: float) -> Tuple[int, np.ndarray]:
    """(n0, g): the Gram points g_n0 < t_lo (or n0 = 0) ... g[-1] > t_hi in
    one gram_point call."""
    k_lo, k_hi = _gram_floors(t_lo, t_hi)
    n0 = max(k_lo - 1, 0)
    return n0, gram_point(np.arange(n0, k_hi + 3))


def gram_indices(t_lo: float, t_hi: float) -> range:
    """Indices n with t_lo <= g_n <= t_hi, from g_k and g_{k+1} at each end."""
    k = np.maximum([_gram_floors(t, t)[0] for t in (t_lo, t_hi)], 0)[:, None] + np.arange(2)
    g = gram_point(k)
    return range(int(k[0, 0] + np.searchsorted(g[0], t_lo)),
                 int(k[1, 0] + np.searchsorted(g[1], t_hi, side="right")))


class _Brackets(list):
    """The scan's (lo, hi) brackets from rows 0 and 1 of ends, carrying z at
    them (`values`, rows 2 and 3) and the scan's Gram window (`grams`), which
    find_zeros reads in place of a second z call and a second Gram solve."""

    def __init__(self, ends: np.ndarray, grams: Optional[Tuple[int, np.ndarray]]):
        super().__init__(zip(*ends[:2].tolist()))
        self.values, self.grams = ends[2:], grams


def scan_z_sign_changes(
    t_lo: float,
    t_hi: float,
    z: Callable[[np.ndarray], np.ndarray] = rs_z,
) -> List[Tuple[float, float]]:
    """Sign-change brackets of Z in [t_lo, t_hi], counted by Rosser's rule.

    z maps an ndarray of ordinates to an ndarray of values.  Its first call
    takes the Gram points g_{a-1} .. g_{b+1} around the range, with t_lo and
    t_hi (below g_0, t_lo stands in for g_{-1}).  Good points g_n, where
    (-1)**n Z(g_n) > 0, and the two outermost points end Gram blocks; a
    block of k Gram intervals should hold k sign changes (Rosser, Yohe &
    Schoenfeld 1968).  Short blocks halve their steps up to _ROSSER_LEVELS
    times, one call of z per level, and each block keeps the brackets of
    the first level that meets its count, else of the last.  The list also
    carries z at the bracket ends and the Gram window (_Brackets).  A range of
    more than SCAN_GUARD Gram intervals raises ResourceGuardError before
    any Gram point is computed.
    """
    if t_lo < TWOPI:
        raise DomainError(f"scan needs t_lo >= 2*pi, got {t_lo}")
    if t_hi <= t_lo:
        return _Brackets(np.empty((4, 0)), None)
    n0, g = grams = _gram_window(t_lo, t_hi)
    a, b = np.searchsorted(g, t_lo), np.searchsorted(g, t_hi, side="right")
    sign = {t_lo: 0 if n0 + a else -1, t_hi: 0}  # below g_0, t_lo is g_{-1}
    n = np.arange(n0 + max(a - 1, 0), n0 + b + 1)
    sign.update(zip(g[n - n0].tolist(), (1 - 2 * (n % 2)).tolist()))  # (-1)**n at g_n
    x, sign = np.array(sorted(sign.items())).T
    v = z(x)
    good = sign * v > 0.0
    good[[0, -1]] = True
    need = np.diff(np.cumsum(sign != 0)[good])  # Gram intervals per block
    block = np.cumsum(good[:-1]) - 1  # the block of each grid step
    x, v = np.stack([x[:-1], x[1:]], axis=1), np.stack([v[:-1], v[1:]], axis=1)
    found = []  # (lo, hi, z(lo), z(hi)) of the blocks each level completes
    for level in range(_ROSSER_LEVELS + 1):
        if level:  # twice the steps per row; z fills the new, odd columns
            x = np.linspace(x[:, 0], x[:, -1], 2 * x.shape[1] - 1, axis=1)
            fine = np.empty_like(x)
            fine[:, ::2], fine[:, 1::2] = v, z(x[:, 1::2].ravel()).reshape(len(x), -1)
            v = fine
        v0, v1 = v[:, :-1], v[:, 1:]
        zero = v0 == 0.0
        change = zero | (v0 * v1 < 0.0)
        count = np.bincount(block, change.sum(axis=1), minlength=len(need))
        done = (count >= need)[block] | (level == _ROSSER_LEVELS)
        r, i = np.nonzero(change & done[:, None])
        j = np.where(zero[r, i], i, i + 1)  # a zero of z brackets itself
        found.append((x[r, i], x[r, j], v[r, i], v[r, j]))
        x, v, block = x[~done], v[~done], block[~done]
        if not len(block):
            break
    ends = np.array([np.concatenate(part) for part in zip(*found)])
    ends = ends[:, (t_lo <= ends[0]) & (ends[1] <= t_hi)]
    return _Brackets(ends[:, np.argsort(ends[0])], grams)


def refine_zero(bracket: Tuple[float, float], tol: float) -> ZeroRecord:
    """Shrink a sign-change bracket of the oracle Z below tol (Illinois).

    Z must change sign across the bracket (else DomainError); one no wider
    than tol then gives its midpoint.  Otherwise the record holds the
    final-bracket endpoint with the smaller |Z|, which lies within tol of
    the zero, and that |Z| as its residual.
    """
    return _placed([_refined(bracket, tol)])[0]


def _refined(bracket: Tuple[float, float], tol: float) -> ZeroRecord:
    """refine_zero's record, its Gram fields left for _placed."""
    if tol < _TOL_FLOOR:
        raise DomainError(f"tol must be >= {_TOL_FLOOR:g}")
    lo, hi = bracket
    if hi < lo:
        raise DomainError("bracket endpoints out of order")
    x, f = _illinois(z_reference, [lo, hi], z_reference(np.array([lo, hi])), tol)
    if hi - lo <= tol:
        return ZeroRecord(0, 0.5 * (lo + hi), -1, math.nan)
    return _nearer(x[:, 0].tolist(), f[:, 0].tolist())


def _illinois(z, x, f, tol):
    """Illinois (modified regula falsi) solve on every bracket
    [x[0][i], x[1][i]] at once, from the known endpoint values f = z(x)
    (Dowell & Jarratt, BIT 11, 1971): an endpoint kept twice in a row has
    its weight halved, so each bracket closes from both sides
    superlinearly.  z maps an ndarray of ordinates to an ndarray of values;
    each pass calls it once, on the brackets still open.  Returns the final
    ends and values as two (2, brackets) arrays."""
    x, f = np.array(x, dtype=float).reshape(2, -1), np.array(f, dtype=float).reshape(2, -1)
    if np.any(f[0] * f[1] > 0.0):
        raise DomainError("Z does not change sign across the bracket")
    w = f.copy()
    moved = np.full(x.shape[1], -1)  # the end replaced last: 0 lo, 1 hi
    active = (x[1] - x[0] > tol) & (f[0] * f[1] < 0.0)
    while active.any():
        i = np.flatnonzero(active)
        a, b = x[:, i]
        t = b - w[1, i] * (b - a) / (w[1, i] - w[0, i])
        # Step at least tol/2 off each end: a point that has converged from
        # one side then brackets the zero within tol in one more call.
        t = np.minimum(np.maximum(t, a + 0.5 * tol), b - 0.5 * tol)
        t = np.where((a < t) & (t < b), t, 0.5 * (a + b))
        active[i] = (a < t) & (t < b)  # False where a and b are adjacent floats
        i, t = i[active[i]], t[active[i]]
        f_t = z(t)
        end = np.where(f_t * f[0, i] > 0.0, 0, 1)  # the end t replaces
        w[1 - end, i] *= np.where(moved[i] == end, 0.5, 1.0)
        x[end, i], f[end, i], w[end, i], moved[i] = t, f_t, f_t, end
        active[i] = (x[1, i] - x[0, i] > tol) & (f[0, i] * f[1, i] < 0.0)
    return x, f


def _placed(records: Sequence[ZeroRecord], grams=None, first: int = 0) -> List[ZeroRecord]:
    """The records, numbered from `first`, each with its Gram index n, g_n <=
    t < g_{n+1} (-1 below g_0), and scaled offset (t - mid)/(half width) in
    that interval (NaN below g_0), by np.searchsorted on the Gram window
    grams (n0, g), or on one solved over the records if it misses one."""
    if not records:
        return []
    t = np.array([r.t for r in records])
    n0, g = grams or (0, None)
    if g is None or (n0 and t.min() < g[0]) or t.max() >= g[-1]:
        n0, g = _gram_window(t.min(), t.max())
    k = np.searchsorted(g, t, side="right")  # g[k - 1] <= t < g[k]
    g0, g1 = g[k - 1], g[k]  # k = 0, below g_0, reads g[-1]: no offset there
    offset = (t - 0.5 * (g0 + g1)) / (0.5 * (g1 - g0))
    return [ZeroRecord(first + i, r.t, n, o if n >= 0 else math.nan, r.residual, r.certificate)
            for i, (r, n, o) in enumerate(zip(records, (n0 + k - 1).tolist(), offset.tolist()))]


def _nearer(x, f, certificate: str = "oracle") -> ZeroRecord:
    """The record at the bracket end x[k] with the smaller |f[k]|, and that
    |f[k]|, its Gram fields left for _placed."""
    k = 0 if abs(f[0]) <= abs(f[1]) else 1
    return ZeroRecord(0, x[k], -1, math.nan, abs(f[k]), certificate)


def _certify(est: np.ndarray, brackets: List[Tuple[float, float]],
             tol: float) -> List[ZeroRecord]:
    """The records of the zeros near the rs_z estimates est, in lockstep: an
    oracle sign change across [c - tol/2, c + tol/2], one oracle call for
    every c.  Where both values share a sign, one secant step on them moves
    c and a second call checks those rows.  Rows with two equal values, and
    rows that fail twice, widen both ends of their scan bracket by h = 0,
    1e-4, 2e-4, ... up to 1 until the oracle changes sign, and refine_zero's
    solve runs there."""
    records: List[Optional[ZeroRecord]] = [None] * len(brackets)
    todo, c = np.arange(len(brackets)), est
    for _ in range(2):
        if not todo.size:
            break
        ends = c + np.array([[-0.5], [0.5]]) * tol
        f = z_reference(ends)
        ok = f[0] * f[1] <= 0.0
        for i, e, v in zip(todo[ok].tolist(), ends[:, ok].T.tolist(), f[:, ok].T.tolist()):
            records[i] = _nearer(e, v)
        step = ~ok & (f[0] != f[1])
        (a, b), (f_a, f_b) = ends[:, step], f[:, step]
        todo, c = todo[step], b - f_b * (b - a) / (f_b - f_a)
    return [rec or _widened(bracket, tol) for rec, bracket in zip(records, brackets)]


def _widened(bracket: Tuple[float, float], tol: float) -> ZeroRecord:
    """refine_zero's unplaced record on the scan bracket widened by the
    first h = 0, 1e-4, 2e-4, ... up to 1 at which the oracle changes sign
    across it; find_zeros places it on the scan's Gram window."""
    for h in [0.0] + [1e-4 * 2.0**k for k in range(14)]:
        lo, hi = bracket[0] - h, bracket[1] + h
        if z_reference(lo) * z_reference(hi) <= 0.0:
            return _refined((lo, hi), tol)
    raise ConvergenceError(f"no oracle sign change near {bracket}")


def find_zeros(
    t_lo: float,
    t_hi: float,
    tol: float = 1e-8,
    workers: int = 1,
) -> List[ZeroRecord]:
    """Scan with rs_z, solve every bracket on rs_z, certify each zero on
    rs_z's error bound where it decides, else on the oracle.

    Everything runs in the calling thread; `workers` is accepted and
    ignored.  A record's `certificate` names its route and `residual` is
    |Z| at its ordinate on that route: |rs_z|, which exceeds B(t) and is
    within B(t) of |Z|, for "rs_bound"; the oracle |Z| for "oracle".

    Known defect: ordinals count on from round(zero_count_main(t_lo)), which
    ignores S(t) and can be one off either way: find_zeros(527, 529) gives
    290, 291 for mpmath's 289, 290 and find_zeros(14.5, 40) 1 for gamma_2.
    An exact count needs a Turing bound.
    """
    if tol < _TOL_FLOOR:
        raise DomainError(f"tol must be >= {_TOL_FLOOR:g}")
    t_lo = max(t_lo, _T_SCAN_FLOOR)
    offset = int(round(zero_count_main(t_lo)))
    # All scan brackets solve on rs_z in lockstep.  Each estimate, the rs_z
    # root interpolated in its final bracket, is certified where rs_z
    # changes sign across c -+ tol/2 by more than its bound, else on the oracle.
    brackets = scan_z_sign_changes(t_lo, t_hi)
    x = np.array(brackets).reshape(-1, 2).T
    (lo, hi), (f_lo, f_hi) = _illinois(rs_z, x, brackets.values, tol)
    est = lo - f_lo * (hi - lo) / np.where(f_hi == f_lo, 1.0, f_hi - f_lo)
    ends = est + np.array([[-0.5], [0.5]]) * tol
    f = rs_z(ends)
    sure = (f[0] * f[1] < 0.0) & np.all(np.abs(f) > _rs_bound(ends), axis=0)
    oracle = iter(_certify(est[~sure], [b for b, ok in zip(brackets, sure) if not ok], tol))
    refined = [
        _nearer(e, v, "rs_bound") if ok else next(oracle)
        for e, v, ok in zip(ends.T.tolist(), f.T.tolist(), sure)
    ]
    records: List[ZeroRecord] = []
    for rec in sorted(refined, key=lambda r: r.t):
        if not records or rec.t - records[-1].t > 10.0 * tol:
            records.append(rec)
    return _placed(records, brackets.grams, offset + 1)


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
