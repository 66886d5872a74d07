"""Individual steps n**(-s), their angles, and compensated partial sums.

A *step* is the term n**(-s) drawn as a segment of length n**(-sigma) at
angle -t*log(n).  Everything downstream (symmetry frames, evaluators,
exports) is built on the primitives here: reduced phases, single steps,
the blocked phase kernel `phase_blocks` (the one reader of the dd log
table), and range sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddmath import (
    dd_add,
    dd_log,
    log_table,
    mod_twopi,
    phase_from_dd_log,
    two_prod,
)
from .errors import ResourceGuardError

RANGE_GUARD = 1_000_000_000
_VECTOR_CUTOFF = 16
_BLOCK = 1 << 16


@dataclass(frozen=True)
class Argument:
    """The point s = sigma + i*t."""

    sigma: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise ValueError("sigma and t must be finite")

    def conjugate(self) -> "Argument":
        return Argument(self.sigma, -self.t)

    @property
    def complex(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class StepRecord:
    n: int
    length: float
    angle: float
    cumulative: complex


def reduced_phase(t: float, x: float) -> float:
    """(-t * log(x)) mod 2*pi, in [0, 2*pi).

    The product t*log(x) is carried in double-double precision before the
    reduction; absolute error stays below 1e-9 rad for t <= 1e8.
    """
    lh, ll = dd_log(x)
    return phase_from_dd_log(t, lh, ll)


def step_term(n: int, s: Argument) -> complex:
    """The step n**(-s) with the reduced phase."""
    if n < 1:
        raise ValueError("step index must be >= 1")
    if n == 1:
        return complex(1.0, 0.0)
    length = float(n) ** (-s.sigma)
    theta = reduced_phase(abs(s.t), n)
    im = length * math.sin(theta)
    if s.t < 0.0:
        im = -im
    return complex(length * math.cos(theta), im)


def phase_blocks(t: float, a: int, b: int, lookahead: int = 0):
    """Reduced phases (-t * log n) mod 2*pi over [a, b], block by block.

    Yields (lo, hi, phases) with phases[i] the phase of n = lo + i for
    lo <= n <= hi + lookahead; the lookahead entries let a caller take
    forward differences across the block edge.  The dd log table is sized
    once, to b + lookahead, before the first block.
    """
    if t != 0.0:
        log_hi, log_lo = log_table(b + lookahead)
    for lo in range(a, b + 1, _BLOCK):
        hi = min(b, lo + _BLOCK - 1)
        stop = hi + 1 + lookahead
        if t == 0.0:
            yield lo, hi, np.zeros(stop - lo)
        else:
            yield lo, hi, phase_from_dd_log(t, log_hi[lo:stop], log_lo[lo:stop])


def partial_sum(a: int, b: int, s: Argument) -> complex:
    """Sum of step_term(n, s) for a <= n <= b, by math.fsum within each
    kernel block and again over the block sums."""
    if a < 1 or b < a:
        raise ValueError(f"need 1 <= a <= b, got ({a}, {b})")
    if b - a > RANGE_GUARD:
        raise ResourceGuardError(
            f"range of {b - a + 1} steps exceeds the guard of {RANGE_GUARD}"
        )
    if b - a < _VECTOR_CUTOFF:
        terms = [step_term(n, s) for n in range(a, b + 1)]
        return complex(
            math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)
        )
    re_parts = []
    im_parts = []
    for lo, hi, theta in phase_blocks(abs(s.t), a, b):
        lengths = np.arange(lo, hi + 1, dtype=float) ** (-s.sigma)
        re_parts.append(math.fsum(lengths * np.cos(theta)))
        im_parts.append(math.fsum(lengths * np.sin(theta)))
    im = math.fsum(im_parts)
    return complex(math.fsum(re_parts), -im if s.t < 0.0 else im)


def angle_diffs(n: int, t: float):
    """(delta1_raw, delta1_mod, delta2_mod) of the step angles at n.

    delta1_raw = -t*log((n+1)/n) exactly as a real number; delta1_mod is
    its reduction into (-2*pi, 0]; delta2_mod is the second forward
    difference of the angle reduced into [0, 2*pi).
    """
    if n < 1:
        raise ValueError("step index must be >= 1")
    l0h, l0l = dd_log(n) if n > 1 else (0.0, 0.0)
    l1h, l1l = dd_log(n + 1)
    l2h, l2l = dd_log(n + 2)
    # log((n+1)/n) in dd; the subtraction is safe because the pair parts
    # carry ~32 digits (equivalent to a log1p evaluation at large n).
    d1h, d1l = dd_add(l1h, l1l, -l0h, -l0l)
    delta1_raw = -t * (d1h + d1l)
    ph, pe = two_prod(-t, d1h)
    pe = pe + (-t) * d1l
    m = mod_twopi(ph, pe)
    delta1_mod = m - 2.0 * math.pi if m > 0.0 else 0.0
    # theta_{n+2} - 2*theta_{n+1} + theta_n = -t*(log n + log(n+2) - 2 log(n+1))
    g1h, g1l = dd_add(l0h, l0l, l2h, l2l)
    g2h, g2l = dd_add(-l1h, -l1l, -l1h, -l1l)
    gh, gl = dd_add(g1h, g1l, g2h, g2l)
    qh, qe = two_prod(-t, gh)
    qe = qe + (-t) * gl
    delta2_mod = mod_twopi(qh, qe)
    return delta1_raw, delta1_mod, delta2_mod
