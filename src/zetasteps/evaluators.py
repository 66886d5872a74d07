"""Three zeta evaluation routes plus the Euler-Maclaurin reference oracle.

* eval_em_paper   - Dirichlet sum to [t/pi] with the half-step and scroll
                    center correction (the point conjugate to the origin).
* eval_symmetric  - P(s) + Q(s) * P(1-s) via the pendant center.
* rs_z            - the real Riemann-Siegel line function with the
                    first-order remainder.
* eval_reference  - an adaptive Euler-Maclaurin evaluation with explicit
                    Bernoulli terms; the ground-truth oracle of the build.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import FrozenSet

from .errors import DomainError, ToleranceError
from .steps import Argument, partial_sum, reduced_phase, step_term
from .symmetry import (
    TWOPI,
    big_q,
    center_point,
    frame_of,
    _theta_mod_unchecked,
)

FLAG_DEGENERATE_P = "degenerate_p"
FLAG_ACCURACY_UNGUARANTEED = "accuracy_unguaranteed"


@dataclass(frozen=True)
class EvalResult:
    value: complex
    algorithm: str
    terms_used: int
    flags: FrozenSet[str] = field(default_factory=frozenset)


_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(-236364091, 2730),
}
_BERNOULLI_MAX_K = 12
_B_OVER_FACT = {
    k: float(_BERNOULLI[2 * k] / math.factorial(2 * k))
    for k in range(1, _BERNOULLI_MAX_K + 1)
}


def _em_tail(s: complex, phi_n: float, n: int, target: float):
    """Integral, half-step and Bernoulli corrections at truncation n.

    Returns (tail_value, error_estimate, corrections_used).
    """
    n_pow_minus_s = float(n) ** (-s.real) * cmath.exp(1j * phi_n)
    tail = float(n) * n_pow_minus_s / (s - 1.0) + 0.5 * n_pow_minus_s
    term = n_pow_minus_s / float(n)  # N**(-s-1), built up per order below
    poch = 1.0 + 0.0j
    used = 0
    err = math.inf
    for k in range(1, _BERNOULLI_MAX_K + 1):
        if k == 1:
            poch = s
        else:
            poch = poch * (s + (2 * k - 3)) * (s + (2 * k - 2))
            term = term / float(n) / float(n)
        contrib = _B_OVER_FACT[k] * poch * term
        tail += contrib
        used = k
        ratio = abs(s + 2 * k - 1) * abs(s + 2 * k) / (TWOPI * n) ** 2
        nxt = abs(contrib) * ratio
        err = nxt / max(1e-16, 1.0 - min(ratio, 0.5)) if ratio < 1.0 else math.inf
        if err <= target / 4.0:
            break
    return tail, err, used


def eval_reference(s: Argument, target_abs_error: float = 1e-10) -> EvalResult:
    """Full Euler-Maclaurin evaluation; the build's ground-truth oracle.

    Truncation point and Bernoulli depth are chosen adaptively to meet
    target_abs_error (contractually reachable for |t| <= 1e4 down to
    1e-10; raises ToleranceError with the best achieved error otherwise).
    """
    if target_abs_error < 1e-12:
        raise DomainError("target_abs_error below the 1e-12 floor")
    if not (-1.0 <= s.sigma <= 3.0):
        raise DomainError(f"eval_reference needs sigma in [-1, 3], got {s.sigma}")
    if s.t == 0.0 and s.sigma == 1.0:
        raise DomainError("s = 1 is the pole of zeta")
    if s.t < 0.0:
        res = eval_reference(Argument(s.sigma, -s.t), target_abs_error)
        return EvalResult(res.value.conjugate(), res.algorithm, res.terms_used, res.flags)
    sc = s.complex
    n = max(32, int(math.ceil(0.7 * (abs(s.t) + abs(s.sigma)))))
    best_err = math.inf
    best = None
    terms = 0
    for _ in range(8):
        phi_n = reduced_phase(s.t, n)
        tail, err, used = _em_tail(sc, phi_n, n, target_abs_error)
        if err < best_err:
            head = partial_sum(1, n - 1, s)
            best = head + tail
            best_err = err
            terms = (n - 1) + used
        if best_err <= target_abs_error:
            return EvalResult(best, "reference", terms, frozenset())
        n *= 2
    raise ToleranceError(
        f"eval_reference could not reach {target_abs_error:g} "
        f"(best {best_err:g})",
        best_error=best_err,
    )


def eval_em_paper(s: Argument) -> EvalResult:
    """First algorithm: Dirichlet sum to N = [t/pi] with the half-step and
    the scroll-center correction (sigma + i*dt)/(4 N**(s+1))."""
    if s.t < 0.0:
        res = eval_em_paper(Argument(s.sigma, -s.t))
        return EvalResult(res.value.conjugate(), res.algorithm, res.terms_used, res.flags)
    if not (0.0 < s.sigma < 1.5):
        raise DomainError(f"eval_em_paper needs sigma in (0, 1.5), got {s.sigma}")
    if s.t < 50.0:
        raise DomainError(f"eval_em_paper needs t >= 50, got {s.t}")
    n = int(math.floor(s.t / math.pi))
    dt = s.t - math.pi * n
    head = partial_sum(1, n, s)
    n_pow_minus_s = step_term(n, s)
    value = head - 0.5 * n_pow_minus_s
    value += complex(s.sigma, dt) * n_pow_minus_s / (4.0 * n)
    return EvalResult(value, "em_paper", n, frozenset())


def _remainder_c(p: float) -> float:
    """C(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p), with the removable
    singularities at p = 1/4, 3/4 handled by series."""
    for quarter, slope in ((0.25, -1.0), (0.75, 1.0)):
        e = p - quarter
        if abs(e) < 0.01:
            u = math.pi * e * (2.0 * e + slope)
            v = TWOPI * e
            su = 1.0 - u * u / 6.0 + u ** 4 / 120.0
            sv = 1.0 - v * v / 6.0 + v ** 4 / 120.0
            return 0.5 * (2.0 * e + slope) * slope * su / sv
    return math.cos(TWOPI * (p * p - p - 0.0625)) / math.cos(TWOPI * p)


def rs_remainder(t: float, denominator: str = "np") -> float:
    """First-order Riemann-Siegel remainder.

    The printed form divides by sqrt(n_p); the standard-literature
    (t/2pi)**(-1/4) is available as denominator="t".
    """
    frame = frame_of(t)
    sign = 1.0 if frame.n_p % 2 == 1 else -1.0
    if denominator == "np":
        scale = float(frame.n_p) ** -0.5
    elif denominator == "t":
        scale = (t / TWOPI) ** -0.25
    else:
        raise ValueError(f"unknown denominator variant {denominator!r}")
    return sign * scale * _remainder_c(frame.p)


def rs_z(t: float) -> float:
    """Riemann-Siegel Z(t) to first order: sign changes locate
    critical-line zeros.  The remainder takes the (t/2pi)**(-1/4) scale."""
    head = partial_sum(1, frame_of(t).n_p, Argument(0.5, t))
    head *= cmath.exp(1j * _theta_mod_unchecked(t))
    return 2.0 * head.real + rs_remainder(t, denominator="t")


def eval_symmetric(s: Argument) -> EvalResult:
    """Symmetric form zeta(s) = P(s) + Q(s) * P(1-s).

    P(1-s) is conj(P(1-sigma+it)), so only positive-ordinate centers are
    needed; degeneracy of p is propagated as a flag.
    """
    if s.t < 0.0:
        res = eval_symmetric(Argument(s.sigma, -s.t))
        return EvalResult(res.value.conjugate(), res.algorithm, res.terms_used, res.flags)
    if not (0.0 < s.sigma < 1.0):
        raise DomainError(f"eval_symmetric needs sigma in (0, 1), got {s.sigma}")
    if s.t < TWOPI:
        raise DomainError(f"eval_symmetric needs t >= 2*pi, got {s.t}")
    frame = frame_of(s.t)
    p_s = center_point(s)
    p_mirror = center_point(Argument(1.0 - s.sigma, s.t))
    value = p_s + big_q(s) * p_mirror.conjugate()
    flags = frozenset({FLAG_DEGENERATE_P}) if frame.degenerate_p else frozenset()
    return EvalResult(value, "symmetric", 2 * frame.n_p, flags)


def zeta_on_line(t: float) -> complex:
    """zeta(1/2 + it) from Z(t): rotate Z back off the Theta axis."""
    if t < TWOPI:
        raise DomainError(f"zeta_on_line needs t >= 2*pi, got {t}")
    return rs_z(t) * cmath.exp(-1j * _theta_mod_unchecked(t))


def z_reference(t: float, target_abs_error: float = 1e-10) -> float:
    """Z(t) through the reference oracle: Re(exp(i*theta) * zeta(1/2+it)).

    Used to certify and polish zeros located by the fast rs_z scan.
    """
    theta_mod = _theta_mod_unchecked(t)
    value = eval_reference(Argument(0.5, t), target_abs_error).value
    rotated = cmath.exp(1j * theta_mod) * value
    return rotated.real
