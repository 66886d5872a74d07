"""Three zeta evaluation routes plus the Euler-Maclaurin reference oracle.

* eval_em_paper   - Dirichlet sum to [t/pi] with the half-step and scroll
                    center correction (the point conjugate to the origin).
* eval_symmetric  - P(s) + Q(s) * P(1-s) via the pendant center.
* rs_z            - the real Riemann-Siegel line function with Gabcke's
                    C0-C4 remainder, on a float or an ndarray of ordinates.
* eval_reference  - an adaptive Euler-Maclaurin evaluation with explicit
                    Bernoulli terms, on a float or an ndarray of ordinates;
                    the ground-truth oracle of the build.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import FrozenSet

import numpy as np

from .errors import DomainError, ToleranceError
from .steps import BLOCK, Argument, as_rows, phase_blocks, shaped, step_sums
from .symmetry import TWOPI, frame_of, rs_theta_mod, sqrt_t_over_twopi, symmetric_parts

FLAG_DEGENERATE_P = "degenerate_p"


@dataclass(frozen=True)
class EvalResult:
    value: complex
    algorithm: str
    terms_used: int
    flags: FrozenSet[str] = field(default_factory=frozenset)
    error_estimate: float = math.nan  # bound on |value - zeta(s)|, NaN if none


# B_2k = numerator / denominator for k = 1..12; an int quotient is correctly
# rounded, so each B_2k / (2k)! is the nearest float to the exact ratio.
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730),
)
_B_OVER_FACT = np.array([num / (den * math.factorial(2 * k))
                         for k, (num, den) in enumerate(_BERNOULLI, 1)])
_SHIFTS = np.arange(1.0, 2.0 * len(_BERNOULLI) + 1.0)  # m = 1..24 of s + m


def _em_rows(sigma: float, a: np.ndarray, n: np.ndarray, target: float):
    """One Euler-Maclaurin pass at s = sigma + i*a, a >= 0, truncated at
    _em_cut's whole n >= 32: (values, error estimates, Bernoulli orders
    used).  The head sums k**(-s) to n (one step_sums call); the tail is
    n*w/(s - 1) - w/2, w = n**(-s), plus the orders k = 1..12 of B_2k/(2k)!
    s(s+1)...(s+2k-2) n**(-s-2k+1), formed at once as a cumprod of their
    ratios.  Order k's estimate bounds the rest by its next term,
    |term_k| q_k / (1 - q_k), q_k = |(s+2k-1)(s+2k)|/(2 pi n)**2, which
    such an n keeps at or below 1/8.  Each row stops at its first order
    whose estimate is <= target/4, else at order 12.
    """
    sums, lengths, phases = step_sums((sigma,), a, n)
    # Below t = 1 the tail's 1/(s - 1) would scale up the rounding of a
    # phase reduced into [0, 2pi); -t log n is small and exact enough.
    phi = np.where(a < 1.0, -a * np.log(n), phases)
    w = lengths[0] * (np.cos(phi) + 1j * np.sin(phi))
    s = sigma + 1j * a
    z = s[:, None] + _SHIFTS
    pairs = z[:, ::2] * z[:, 1::2]  # (s + 2k - 1)(s + 2k), k = 1..12
    ratios = np.empty_like(pairs)
    ratios[:, 0], ratios[:, 1:] = s * w / n, pairs[:, :-1] / (n * n)[:, None]
    terms = _B_OVER_FACT * np.cumprod(ratios, axis=1)
    q = np.abs(pairs) / ((TWOPI * n) ** 2)[:, None]
    err = np.abs(terms) * q / (1.0 - q)
    met = err <= target / 4.0
    met[:, -1] = True  # no order met: all 12
    rows, k = np.arange(a.size), met.argmax(axis=1)
    tail = n * w / (s - 1.0) - 0.5 * w + np.cumsum(terms, axis=1)[rows, k]
    return sums[0] + tail, err[rows, k], k + 1


_LOG_B24 = math.log(abs(_B_OVER_FACT[-1]) / TWOPI**2)
_LOG_SQRT8_OVER_TWOPI = math.log(math.sqrt(8.0) / TWOPI)
_TINY = np.finfo(float).tiny
_U = 2.0**-53  # unit roundoff


def _em_cut(sigma: float, a: np.ndarray, target: float) -> np.ndarray:
    """The least multiple of 32, at least 32, at which _em_rows meets its two
    rules at s = sigma + i*a, a >= 0: q_12 = |(s+23)(s+24)|/(2 pi n)**2 <= 1/8
    (the largest q_k), so n >= floor; and an order-12 estimate <= target/4,
    so n >= root / (1 - q_12)**(1/p), p = sigma + 25, where
    root**p = 4/target |B_24/24!| |s(s+1)...(s+24)| / (2 pi)**2.  As q_12 <= 1/8,
    max(floor, root (8/7)**(1/p)) meets both.  Where that exceeds floor the
    second rule binds, and six fixed-point passes, each nearer by a factor
    2 q_12 / ((1 - q_12) p) < 0.012 from the other side, end above its least
    n by at most 2e-14 of it.  In logs a huge a overflows nothing, and
    |s + m| >= the least normal float keeps them finite at s = 0 and -1,
    where the estimate is 0."""
    logs = np.log(np.maximum(np.hypot(sigma + np.arange(25.0), a[:, None]), _TINY))  # log|s + m|
    floor = np.exp(0.5 * (logs[:, 23] + logs[:, 24]) + _LOG_SQRT8_OVER_TWOPI)  # > 10: n >= 32
    p = sigma + 25.0
    root = np.exp((logs.sum(axis=1) + (_LOG_B24 + math.log(4.0 / target))) / p)
    n = np.maximum(floor, root * (8.0 / 7.0) ** (1.0 / p))
    if np.any(n > floor):
        for _ in range(6):
            n = np.maximum(floor, root * (1.0 - (floor / n) ** 2 / 8.0) ** (-1.0 / p))
    return 32.0 * np.ceil(n / 32.0)


def _rounding(sigma: float, a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """A bound on the rounding that _em_rows' estimate leaves out, at s =
    sigma + i*a cut at n: per unit of term length the phase's 6.7e-15 rad
    (5.1e-14 past t = 1e8), 8u for power, cos or sin and product, 24u of
    np.sum in a block (15 serial adds per lane, 3 to merge 8 lanes, 6 pairwise
    levels), u per block of the running sum; the length is sum k**(-sigma) <=
    max(1, n**(-sigma)) + its integral over [1, n] plus the tail's
    n**(1-sigma)/|s - 1|, and a factor 3 covers the complex modulus and the rest."""
    log_n = np.log(n)
    grow = log_n if sigma == 1.0 else np.expm1((1.0 - sigma) * log_n) / (1.0 - sigma)
    size = np.maximum(1.0, n**-sigma) + grow + n ** (1.0 - sigma) / np.hypot(sigma - 1.0, a)
    return 3.0 * size * (np.where(a <= 1e8, 6.7e-15, 5.1e-14) + (32.0 + np.ceil(n / BLOCK)) * _U)


def _reference_rows(sigma: float, a: np.ndarray, target: float):
    """(values, error estimates, cuts n, Bernoulli orders used) of
    zeta(sigma + i*a) at the 1-D array a >= 0: one _em_rows pass at n =
    _em_cut(sigma, a, target), whose order-12 estimates meet target/4.
    ToleranceError names the worst row's estimate if any misses the target."""
    n = _em_cut(sigma, a, target)
    values, errors, used = _em_rows(sigma, a, n, target)
    if np.any(errors > target):
        worst = float(errors.max())
        raise ToleranceError(
            f"eval_reference could not reach {target:g} (estimate {worst:g})", best_error=worst
        )
    return values, errors, n, used


def eval_reference(s: Argument, target_abs_error: float = 1e-10) -> EvalResult:
    """Full Euler-Maclaurin evaluation; the build's ground-truth oracle, for
    a float t or an ndarray of them (value, terms_used and error_estimate
    then arrays of its shape).

    The sum runs to the least multiple n of 32, at least 32, at which each
    q_k = |(s+2k-1)(s+2k)|/(2 pi n)**2 is <= 1/8 and the twelfth Bernoulli
    order's tail estimate is <= target_abs_error/4 (_em_cut), about 0.45|t|
    on the critical line at 1e-10, in one pass; an entry whose estimate
    still missed target_abs_error would raise ToleranceError with the
    worst entry's estimate.  The contract is 1e-10 for sigma in [0, 3] and
    |t| <= 1e4.  n depends on t alone, so a float, a one-entry array, gets
    a batch row's bits; the values at |t| are conjugated where t < 0.
    terms_used counts the n head terms and the Bernoulli orders;
    error_estimate is the tail bound that met the target plus _rounding's,
    3.2e-7 at (-1, 7968) (the error: 7.6e-10) and 1.8e-11 at (1/2, 1e4).
    """
    if target_abs_error < 1e-12:
        raise DomainError("target_abs_error below the 1e-12 floor")
    if not (-1.0 <= s.sigma <= 3.0):
        raise DomainError(f"eval_reference needs sigma in [-1, 3], got {s.sigma}")
    t = as_rows(s.t)
    if s.sigma == 1.0 and np.any(t == 0.0):
        raise DomainError("s = 1 is the pole of zeta")
    values, errors, n, used = _reference_rows(s.sigma, np.abs(t), target_abs_error)
    values.imag[t < 0.0] *= -1.0  # conj at |t|
    return EvalResult(shaped(values, s.t), "reference", shaped(n.astype(np.intp) + used, s.t),
                      error_estimate=shaped(errors + _rounding(s.sigma, np.abs(t), n), s.t))


def em_paper_domain(s: Argument) -> None:
    """eval_em_paper's domain: sigma in (0, 1.5) and |t| >= 50 (for an
    ndarray t, its every entry)."""
    if not (0.0 < s.sigma < 1.5):
        raise DomainError(f"eval_em_paper needs sigma in (0, 1.5), got {s.sigma}")
    low = np.min(np.abs(s.t), initial=math.inf)
    if low < 50.0:
        raise DomainError(f"eval_em_paper needs |t| >= 50, got |t| = {low}")


def em_paper_grid(sigmas, t: np.ndarray) -> np.ndarray:
    """eval_em_paper's values, one row per sigma, at the ordinates of the
    1-D array t (|t| >= 50 unchecked): one step_sums call serves every sigma."""
    a = np.abs(t)
    n = np.floor(a / math.pi)
    dt = a - math.pi * n
    sums, lengths, phases = step_sums(sigmas, a, n)
    w = lengths * (np.cos(phases) + 1j * np.sin(phases))  # the step N**(-s)
    sigma = np.array(sigmas)[:, None]
    # Python's complex arithmetic term for term: numpy's product may fuse a
    # multiply-add, and its quotient multiplies by 1/(4N)
    out = sums - 0.5 * w + ((sigma * w.real - dt * w.imag) / (4.0 * n)
                            + 1j * ((sigma * w.imag + dt * w.real) / (4.0 * n)))
    out.imag[:, t < 0.0] *= -1.0  # conj at |t|
    return out


def eval_em_paper(s: Argument) -> EvalResult:
    """First algorithm: Dirichlet sum to N = [|t|/pi] with the half-step and
    the scroll-center correction (sigma + i*dt)/(4 N**(s+1)), for a float t
    or an ndarray of them (value and terms_used then arrays of its shape).
    A float is evaluated as a one-entry array, with a batch row's bits."""
    em_paper_domain(s)
    t = as_rows(s.t)
    terms = np.floor(np.abs(t) / math.pi).astype(np.intp)
    return EvalResult(shaped(em_paper_grid((s.sigma,), t)[0], s.t), "em_paper", shaped(terms, s.t))


# Gabcke's C_k(p), k = 0..4, of the Riemann-Siegel remainder (Gabcke,
# thesis, Goettingen 1979; Edwards, Riemann's Zeta Function, 7.4) as Taylor
# polynomials in z = p - 1/2.  C0 = Psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p)
# is entire and even in z; C1..C4 combine its derivatives, so C2, C4 are even
# and C1, C3 odd.  Row k holds the coefficients of z^(2j) (even) or z^(2j+1)
# (odd), j = 0, 1, ..., from the mpmath Taylor series of Psi at 80 digits, up
# to the last term above 1e-19 on |z| <= 1/2.  tests/test_evaluators.py
# regenerates them with mpmath.
_GABCKE = (
    (  # C0
        0.3826834323650898, 1.7489618723100817, 2.118025207685496, -0.8707216670511481,
        -3.4733112243465167, -1.6626947308999325, 1.216731288919232, 1.3014304161007977,
        0.03051102182736167, -0.3755803051545095, -0.1085784416564066,
        0.051832902999549624, 0.029999480619902277, -0.0022759396706125644,
        -0.004382647416580339, -0.0004064230183729847, 0.0004006097785422114,
        8.971057991388841e-05, -2.3025650027239108e-05, -9.380006601906792e-06,
        6.323514947609108e-07, 6.551022819231502e-07,
    ),
    (  # C1
        -0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
        1.2634964862799458, -1.695108997559503, -2.9998711967650102,
        -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
        -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
        0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
        -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
        -3.956359669003182e-05, -4.7624592453571896e-05, -1.8539355338085133e-06,
        3.1936918080068973e-06,
    ),
    (  # C2
        0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
        0.14291492748532125, 1.3303391766687565, 0.3522472353403734, -2.421001595891951,
        -1.6760787022538108, 1.3689416723328371, 1.5539019430222982,
        -0.1722164273472998, -0.6359068055045431, -0.09911649873041208,
        0.14033480067387008, 0.04782352019827292, -0.017356040641479782,
        -0.010225012534028593, 0.0009274149159794888, 0.0013572194372373386,
        6.41369012029388e-05, -0.0001230080569819663, -1.83135074047892e-05,
        7.821628604322627e-06,
    ),
    (  # C3
        -0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
        -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
        -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
        1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
        -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
        -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
        0.0024243969641103086, 0.000437647697741857, -0.00020714032687001792,
        -6.274344504186516e-05, 1.157534381459567e-05,
    ),
    (  # C4
        0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
        0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
        0.9507754185141751, 0.5341535312914873, -1.67634944117634, -1.076747157875129,
        1.235339301656597, 1.0257825340057276, -0.40124095793988546,
        -0.5036663995108304, 0.03573487795502745, 0.14431763086785418,
        0.01509152741790347, -0.026098874779194363, -0.006126628379519262,
        0.003077503129870841, 0.0011562478934088753, -0.00022775966758472127,
        -0.00014189637118181445, 7.4648603079559195e-06,
    ),
)


# Column k holds C_k's coefficients of w**j = z**(2j) in row j, zero-padded.
_GABCKE_W = np.array([c + (0.0,) * (24 - len(c)) for c in _GABCKE]).T


def _gabcke(z, v):
    """sum_k C_k(p) v**k, k = 0..4, at z = p - 1/2 (floats or ndarrays);
    one Horner pass in w = z*z serves all five C_k, and v = 0 gives C0."""
    z = np.asarray(z)[..., None]
    w = z * z
    acc = w * _GABCKE_W[-1]
    for row in _GABCKE_W[-2:0:-1]:
        acc += row
        acc *= w
    acc += _GABCKE_W[0]
    acc[..., 1::2] *= z  # C1 and C3 are odd in z
    return (acc * np.asarray(v)[..., None] ** np.arange(5)).sum(-1)


def _remainder_c(p: float) -> float:
    """C0(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p); its polynomial has no
    special case at the removable singularities p = 1/4, 3/4."""
    return float(_gabcke(p - 0.5, 0.0))


def rs_remainder(t: float) -> float:
    """First-order Riemann-Siegel remainder (-1)**(n_p - 1) * C0(p) in the
    printed form, which divides by sqrt(n_p); rs_z takes the full C0-C4
    series with the (t/2pi)**(-1/4) scale instead."""
    frame = frame_of(t)
    sign = 1.0 if frame.n_p % 2 == 1 else -1.0
    return sign * float(frame.n_p) ** -0.5 * _remainder_c(frame.p)


def rs_z(t):
    """Riemann-Siegel Z(t) for a float or an ndarray of ordinates t >= 2pi.

    2 * sum_{n <= n_p} n**(-1/2) cos(theta - t log n) plus the remainder
    (-1)**(n_p - 1) u**(-1/4) * sum_k C_k(p) u**(-k/2), u = t/2pi, k = 0..4.
    Worst errors against mpmath.siegelz on 600 seeded t: 3.5e-6 below
    t = 50, 2.4e-7 below 100, 3.5e-8 below 200, 4.5e-9 below 1e3, 6.0e-11
    below 1e4 and 9.6e-14 up to 1e6.  A float is evaluated as a one-entry
    array, theta aside (rs_theta_mod's float path), with a batch row's bits:
    each row's main sum is a running sum read off at n_p, whatever the
    batch's longest.
    """
    ts = as_rows(t)
    theta = as_rows(rs_theta_mod(shaped(ts, t)))  # first: it refuses t < 2pi before np.sqrt
    r = sqrt_t_over_twopi(ts)
    n_p = np.floor(r).astype(np.intp)
    head = np.empty(ts.size)
    rows = max(1, BLOCK // int(n_p.max(initial=1)))  # rows x n_max <= BLOCK: one block, or one row
    for i in range(0, ts.size, rows):
        part, carry = slice(i, i + rows), 0.0
        for lo, hi, phases in phase_blocks(ts[part], 1, int(n_p[part].max())):
            terms = np.arange(lo, hi + 1.0) ** -0.5 * np.cos(theta[part, None] + phases)
            sums = np.cumsum(terms, axis=1) + carry
            carry = carry + np.sum(terms, axis=1, keepdims=True)
        head[part] = sums[np.arange(len(sums)), n_p[part] - lo]
    sign = np.where(n_p % 2 == 1, 1.0, -1.0)
    out = 2.0 * head + sign * _gabcke(r - n_p - 0.5, 1.0 / r) / np.sqrt(r)
    return shaped(out, t)


_RS_BOUND_T_MIN, _RS_BOUND_T_MAX = 200.0, 1e7  # _rs_bound is +inf outside
# Error of one main-sum term over n**(-1/2), in rad: the phase (6.7e-15,
# ddmath), theta mod 2pi (4 ulp(2pi) = 3.6e-15, plus the 1.2e-15 of the first
# dropped theta term at t = 200), theta + phase < 4pi (1.4e-15), cos and the
# n**(-1/2) product (5.5e-16).
_RS_TERM_ERR = 1.4e-14


def _rs_bound(t):
    """B(t) >= |rs_z(t) - Z(t)| for 200 <= t <= 1e7, +inf elsewhere (and at
    NaN); t is a float or an ndarray of ordinates.

    B = 0.017 t**(-11/4) + E_fp.  The first term is Gabcke's bound on the
    remainder after C0-C4 for t >= 200 (thesis, Goettingen 1979), of the
    same order t**(-(2L+1)/4), L = 5, as Arias de Reyna's explicit bound
    (Math. Comp. 80, 2011), which mpmath's rszeta applies.  E_fp bounds the
    rounding, with n = n_p, r = sqrt(t/2pi) and u = 2**-53:
    * the main sum: twice _RS_TERM_ERR * sum n**(-1/2) <= 2 sqrt(n), and the
      running sum's u * sum_k |S_k| <= u * (4/3)(n + 1)**(3/2);
    * the remainder: r**(-1/2) times its slope in p (<= 2.5) times the error
      of p (snap and rounding of r, <= 66u r), plus 64u of Horner
      rounding, and u(4 sqrt(n) + 1) for the final sum.
    Gabcke's constant is quoted, not re-derived here: the contract is
    tests/test_evaluators.py, which checks B against mpmath.siegelz on at
    least 100 seeded t per decade band of [200, 1e6] and on a few t in
    (1e6, 1e7].
    """
    ts = as_rows(t)
    inside = (ts >= _RS_BOUND_T_MIN) & (ts <= _RS_BOUND_T_MAX)
    ts = np.clip(ts, _RS_BOUND_T_MIN, _RS_BOUND_T_MAX)
    r = sqrt_t_over_twopi(ts)  # rs_z's n_p, also at t = 2pi*k**2
    n = np.floor(r)
    head = 4.0 * _RS_TERM_ERR * np.sqrt(n) + (8.0 / 3.0) * _U * (n + 1.0) ** 1.5
    rest = _U * (165.0 * np.sqrt(r) + 64.0 / np.sqrt(r) + 4.0 * np.sqrt(n) + 1.0)
    b = np.where(inside, 0.017 * ts**-2.75 + head + rest, np.inf)
    return shaped(b, t)


def eval_symmetric(s: Argument) -> EvalResult:
    """Symmetric form zeta(s) = P(s) + Q(s) * P(1-s), the sum of
    `symmetric_parts` for sigma in (0, 1); degeneracy of p is propagated as
    a flag.
    """
    if not (0.0 < s.sigma < 1.0):
        raise DomainError(f"eval_symmetric needs sigma in (0, 1), got {s.sigma}")
    frame = frame_of(abs(s.t))
    p_s, qp = symmetric_parts(s)
    flags = frozenset({FLAG_DEGENERATE_P}) if frame.degenerate_p else frozenset()
    return EvalResult(p_s + qp, "symmetric", 2 * frame.n_p, flags)


def zeta_on_line(t: float) -> complex:
    """zeta(1/2 + it) from Z(t): rotate Z back off the Theta axis, t >= 2*pi."""
    return rs_z(t) * cmath.exp(-1j * rs_theta_mod(t))


def z_reference(t):
    """Z(t) = Re(exp(i*theta) * zeta(1/2+it)) through the reference oracle,
    for a float or an ndarray of ordinates t >= 2*pi (an ndarray back for
    one); a float gets a batch row's bits, theta by rs_theta_mod's float path.

    The zero search certifies on it, in one batch per pass, the estimates
    that rs_z's bound B(t) leaves open (all below t = 200); its lockstep
    fallback and refine_zero solve on it.
    """
    ts = as_rows(t)
    theta = as_rows(rs_theta_mod(shaped(ts, t)))  # first: it refuses t < 2pi
    value = _reference_rows(0.5, ts, 1e-10)[0]
    return shaped(np.cos(theta) * value.real - np.sin(theta) * value.imag, t)
