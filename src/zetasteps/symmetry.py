"""The symmetry frame of a step plot.

For a given ordinate t this module knows where the pendant sits (n_p, p),
the Riemann-Siegel theta phase, the symmetry factor Q(s), the pendant
center offset L, the self-conjugate center P(s), and the conjugate-region
decomposition of the steps beyond n_p.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ddmath import (
    LOG_TWOPI_E_HI,
    LOG_TWOPI_E_LO,
    PI8_HI,
    PI8_LO,
    TWOPI,
    dd_add,
    dd_div,
    dd_log_whole,
    dd_mul_double,
    mod_twopi,
)
from .errors import DomainError
from .steps import (Argument, as_rows, check_power, check_reducible, partial_sum, reduced_phase,
                    shaped, step_sums)

DEGENERATE_COS_EPS = 1e-3
_SNAP = 32 * 2.220446049250313e-16  # integer-sqrt snap, ~32 ulp relative


@dataclass(frozen=True)
class SymmetryFrame:
    """Derived quantities of one ordinate t."""

    t: float
    n_p: int
    p: float
    degenerate_p: bool

    @property
    def theta_rs(self) -> float:
        return rs_theta(self.t)

    @property
    def Theta(self) -> float:
        # The paper's half phase-sum; step angles are negative, hence the sign.
        return -self.theta_rs

    def q_magnitude(self, sigma: float) -> float:
        """The discrete |Q| = n_p**(1-2*sigma) of the conjugate-region checks
        at one ordinate; DomainError where it overflows."""
        return check_power(self.n_p, 1.0 - 2.0 * sigma)


@dataclass(frozen=True)
class ConjugateRegion:
    n: int
    N_lo: int
    N_center: int
    N_hi: int

    @property
    def width(self) -> int:
        return self.N_hi - self.N_lo + 1


class PredictedSum(NamedTuple):
    value: complex
    accuracy_unguaranteed: bool


def _floor_check(name, low, high):
    """DomainError unless the least and greatest t are finite and >= 2*pi."""
    if low < TWOPI or math.isnan(low) or high == math.inf:
        raise DomainError(f"{name} needs t >= 2*pi, got {high if high == math.inf else low}")


def _theta_dd(t):
    """theta_RS(t) = (t/2)(log t - log 2*pi*e) - pi/8 + 1/48t + 7/5760t^3
    as a dd pair, for a float or an ndarray of finite ordinates t >= 2*pi (an
    empty array passes, NaN and inf do not).  The one check of the 2*pi
    floor for every theta reader.

    log t = log(ref) + x + (log1p(x) - x), ref = round(t), x = (t - ref)/ref:
    t - ref is exact (Sterbenz); log(ref), a whole number's dd log, comes from
    `dd_log_whole` for a float and an ndarray alike (the log table, else its
    memo of whole numbers past the table, the same bits; a log of t itself
    would run the kernel on each new t); the plain-double tail costs at most
    (t/2)*ulp(x) < 1e-16 rad.  The tail and the small series terms ride in lo
    words (rounding < 1e-18 rad).
    """
    array = isinstance(t, np.ndarray)
    low, high = (t.min(initial=TWOPI), t.max(initial=TWOPI)) if array else (t, t)
    _floor_check("theta_RS", low, high)
    ref = np.rint(t) if array else float(round(t))
    log_ref, cast = dd_log_whole(ref), (np.asarray if array else float)
    xh, xl = dd_div(t - ref, ref)
    h, l = dd_add(*log_ref, -LOG_TWOPI_E_HI, -LOG_TWOPI_E_LO)
    # np.log1p for a float too (math.log1p rounds apart): the array's bits
    h, l = dd_add(h, l, xh, xl + (cast(np.log1p(xh)) - xh))
    h, l = dd_mul_double(h, l, 0.5 * t)
    small = 1.0 / (48.0 * t) + 7.0 / (5760.0 * t * t * t)
    return dd_add(h, l, -PI8_HI, small - PI8_LO)


def rs_theta(t):
    """theta_RS(t) = (t/2)log(t/2pi) - t/2 - pi/8 + 1/48t + 7/5760t^3 for a
    float or an ndarray of ordinates t >= 2*pi (an ndarray back for one).
    Its error against mpmath.siegeltheta, about the first dropped term
    31/(80640 t^5), is 4.1e-8 at t = 2*pi, 1.2e-8 at 8 and 3.9e-9 at 10."""
    hi, lo = _theta_dd(t)
    return hi + lo


def rs_theta_mod(t):
    """theta_RS(t) reduced into [0, 2*pi), within 4*ulp(2*pi) of the series,
    for a float or an ndarray of ordinates t >= 2*pi (an empty array gives an
    empty array); the reduction limit refuses theta from t = 1.48e9 on."""
    hi, lo = _theta_dd(t)
    check_reducible(hi)
    return mod_twopi(hi, lo)


def sqrt_t_over_twopi(t):
    """sqrt(t/2pi) for a float or an ndarray t (an ndarray back either
    way), snapped to an integer when within a few ulps.

    The snap keeps n_p/p stable at arguments constructed as 2*pi*k**2,
    where bare floating point could land infinitesimally below the integer.
    """
    r = np.sqrt(t / TWOPI)
    rn = np.rint(r)
    snap = (rn >= 1.0) & (np.abs(r - rn) <= _SNAP * np.maximum(r, 1.0))
    return np.where(snap, rn, r)


def frame_of(t) -> SymmetryFrame:
    """n_p, p and the degeneracy flag for one ordinate, or arrays of them
    for an ndarray of ordinates; theta_RS is read from the frame on demand."""
    _floor_check("frame_of", np.min(t, initial=TWOPI), np.max(t, initial=TWOPI))
    r = sqrt_t_over_twopi(t)
    n_p = np.floor(r)  # a float array for an ndarray t: it may pass 2**63
    p = r - n_p
    degenerate = np.abs(np.cos(TWOPI * p)) < DEGENERATE_COS_EPS
    if not isinstance(t, np.ndarray):
        n_p, p, degenerate = int(n_p), float(p), bool(degenerate)
    return SymmetryFrame(t=t, n_p=n_p, p=p, degenerate_p=degenerate)


def _q_grid(sigmas, t: np.ndarray) -> np.ndarray:
    """Q(s), one row per sigma, at the 1-D array t, |t| >= 2pi: theta and
    its phase are taken once for every sigma, |Q| per sigma."""
    a = np.abs(t)
    hi, lo = _theta_dd(a)
    check_reducible(2.0 * hi)  # refused from t = 7.66e8 on
    phase = mod_twopi(-2.0 * hi, -2.0 * lo)
    turn = np.cos(phase) + 1j * np.sin(phase)
    top = a.max(initial=TWOPI) / TWOPI
    for sigma in sigmas:
        check_power(top, 0.5 - sigma)
    q = np.array([(a / TWOPI) ** (0.5 - sigma) * turn for sigma in sigmas])
    q.imag[:, t < 0.0] *= -1.0  # conj at |t|
    return q


def big_q(s: Argument):
    """The symmetry factor Q(s) = |Q| * exp(2i*Theta), of magnitude
    (|t|/2pi)**(1/2-sigma), for a float t or an ndarray of them, |t| >= 2pi;
    Q(conj s) = conj Q(s).  DomainError where |Q| overflows.
    `SymmetryFrame.q_magnitude` gives the discrete n_p**(1-2*sigma) of the
    conjugate-region checks."""
    return shaped(_q_grid((s.sigma,), as_rows(s.t))[0], s.t)


def _pendant_parts(sigmas, t: np.ndarray) -> np.ndarray:
    """(half sums to n_p, pendant offsets L) in shape (2, len(sigmas), t.size)
    at the 1-D array t, |t| >= 2pi; one step_sums call serves every sigma."""
    frame = frame_of(np.abs(t))
    heads, lengths, phi = step_sums(sigmas, frame.t, frame.n_p)
    ang = phi - TWOPI * frame.p
    offsets = -lengths / (2.0 * np.cos(TWOPI * frame.p)) * (np.cos(ang) + 1j * np.sin(ang))
    parts = np.array([heads, offsets])
    parts.imag[..., t < 0.0] *= -1.0  # conj at |t|
    return parts


def pendant_offset(s: Argument):
    """The lateral offset L from the half sum to the pendant center, for a
    float t or an ndarray of them; L(conj s) = conj L(s).

    Near p = 1/4, 3/4 the magnitude blows up along the symmetry axis; the
    condition is reported through frame_of(t).degenerate_p rather than an
    exception.
    """
    return shaped(_pendant_parts((s.sigma,), as_rows(s.t))[1][0], s.t)


def center_point(s: Argument):
    """P(s): the half sum to n_p plus the pendant offset, for a float t or
    an ndarray of them; P(conj s) = conj P(s)."""
    return shaped(np.add(*_pendant_parts((s.sigma,), as_rows(s.t)))[0], s.t)


def symmetric_grid(sigmas, t: np.ndarray) -> np.ndarray:
    """P(s) and Q(s) * P(1-s), stacked in shape (2, len(sigmas), t.size), at
    the ordinates of the 1-D array t, |t| >= 2pi: one _pendant_parts call
    serves every sigma and 1 - sigma.  Where t < 0 its inputs come conjugated,
    and so, bit for bit, does Q * conj(P(1-s)).  No sigma range is checked."""
    p, p1 = np.split(np.add(*_pendant_parts([*sigmas, *(1.0 - x for x in sigmas)], t)), 2)
    q = _q_grid(sigmas, t)
    # Python's product q * conj(p1) term for term: numpy's may fuse a multiply-add
    return np.array([p, q.real * p1.real + q.imag * p1.imag + 1j * (q.imag * p1.real - q.real * p1.imag)])


def symmetric_parts(s: Argument):
    """(P(s), Q(s) * P(1-s)), whose sum is zeta(s) in the symmetric form;
    P(1-s) is conj(P(1-sigma+it)).  For a float t or an ndarray of them,
    conjugated at conj s; no sigma range is checked."""
    p, qp = symmetric_grid((s.sigma,), as_rows(s.t))[:, 0]
    return shaped(p, s.t), shaped(qp, s.t)


def conj_region(n: int, t: float) -> ConjugateRegion:
    """Steps whose first angle differences bracket the n-th odd multiple
    of pi; their sum mirrors the single step n."""
    frame = frame_of(t)
    if n < 1 or n > frame.n_p:
        raise DomainError(f"conjugate region index must be in [1, {frame.n_p}]")
    n_lo = int(math.floor(t / (TWOPI * (n + 0.5)))) + 1
    n_hi = int(math.floor(t / math.pi))
    if n > 1:
        n_hi = min(int(math.floor(t / (TWOPI * (n - 0.5)))), n_hi)
    n_center = int(round(t / (TWOPI * n)))
    return ConjugateRegion(n=n, N_lo=n_lo, N_center=n_center, N_hi=n_hi)


def conj_sum_direct(n: int, s: Argument) -> complex:
    region = conj_region(n, s.t)
    return partial_sum(region.N_lo, region.N_hi, s)


def conj_sum_predicted(n: int, s: Argument) -> PredictedSum:
    """First-order Cornu-spiral prediction for the conjugate-region sum.

    Magnitude n_p**(1-2*sigma) * n**(sigma-1); phase twice the center-step
    angle minus pi/4.  Reliable for n well below n_p; beyond n_p/4 the
    value is still produced but flagged.  DomainError where a power overflows.
    """
    frame = frame_of(s.t)
    region = conj_region(n, s.t)
    phi_n = reduced_phase(s.t, n)
    phi_c = reduced_phase(s.t, region.N_center)
    mag = frame.q_magnitude(s.sigma) * check_power(n, s.sigma - 1.0)
    ang = 2.0 * phi_c - phi_n - 0.25 * math.pi
    value = mag * cmath.exp(1j * ang)
    return PredictedSum(value, accuracy_unguaranteed=(n > frame.n_p / 4))


def jacobi_g(u: complex) -> complex:
    """Truncated Jacobi theta sum G(u) = sum over n of exp(-pi n^2 u^2)."""
    u = complex(u)
    w = u * u
    if w.real <= 0.0:
        raise DomainError("jacobi_g needs Re(u^2) > 0 for convergence")
    # first omitted term below 1e-16: exp(-pi M^2 Re(w)) < 1e-16
    m_max = int(math.ceil(math.sqrt(36.9 / (math.pi * w.real)))) + 1
    total = complex(1.0, 0.0)
    for n in range(1, m_max + 1):
        total += 2.0 * cmath.exp(-math.pi * n * n * w)
    return total
