"""Individual steps n**(-s), their angles, and partial sums.

A *step* is the term n**(-s) drawn as a segment of length n**(-sigma) at
angle -t*log(n).  Everything downstream (symmetry frames, evaluators,
exports) is built on the primitives here: reduced phases, single steps,
the blocked phase kernel `phase_blocks` (the one reader of the dd log
table), and range sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ddmath import BLOCK, REDUCTION_LIMIT, TWOPI, dd_add, dd_log, log_table, phase_from_dd_log
from .errors import DomainError, ResourceGuardError

TABLE_GUARD = 100_000_000  # dd log-table entries, 16 bytes each (1.6 GB)


@dataclass(frozen=True)
class Argument:
    """The point s = sigma + i*t."""

    sigma: float
    t: float  # or an ndarray of ordinates, where a function says so

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and np.isfinite(as_rows(self.t)).all()):
            raise ValueError("sigma and t must be finite")

    def conjugate(self) -> "Argument":
        return Argument(self.sigma, -self.t)


def as_rows(t) -> np.ndarray:
    """The ordinates of a float or an ndarray t of any shape as a 1-D float
    array: a point is a one-entry batch.  TypeError for anything else."""
    if not isinstance(t, (np.ndarray, numbers.Real)):
        raise TypeError(f"t must be a float or an ndarray, got {type(t).__name__}")
    return np.ravel(np.asarray(t, dtype=float))


def shaped(values: np.ndarray, t):
    """values over as_rows(t) in the shape of an ndarray t, or a Python
    scalar for a float t, with a batch row's bits."""
    return values.reshape(t.shape) if isinstance(t, np.ndarray) else values[0].item()


def check_reducible(x) -> None:
    """DomainError where |x| (a float or an ndarray's largest) reaches REDUCTION_LIMIT."""
    big = float(np.max(np.abs(x), initial=0.0))
    if big >= REDUCTION_LIMIT:
        raise DomainError(f"phase of {big:.6g} rad is past the reduction limit {REDUCTION_LIMIT:.6g}")


def reduced_phase(t: float, x: float) -> float:
    """(-t * log(x)) mod 2*pi, in [0, 2*pi).

    Measured within 6.7e-15 rad for t, x <= 1e8 (see ddmath); DomainError where
    |t*log(x)| reaches REDUCTION_LIMIT, about 1.349e10.
    """
    lh, ll = dd_log(x)
    check_reducible(t * lh)
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


def phase_blocks(t, a: int, b: int, lookahead: int = 0):
    """Reduced phases (-t * log n) mod 2*pi over [a, b], block by block.

    Yields (lo, hi, phases) with phases[..., i] the phase of n = lo + i for
    lo <= n <= hi + lookahead; the lookahead entries let a caller take
    forward differences across the block edge.  A block holds at most BLOCK
    entries (one column at least) plus the lookahead, one row per ordinate
    of an ndarray t.  The dd log table is sized once, to b + lookahead,
    before the first block; past TABLE_GUARD entries ResourceGuardError is
    raised first, then DomainError past the phase limit (check_reducible).
    """
    if b + lookahead > TABLE_GUARD:
        raise ResourceGuardError(f"log table of {b + lookahead:.3g} entries exceeds {TABLE_GUARD}")
    check_reducible(t * math.log(b + lookahead))
    t, width = (t.reshape(-1, 1), max(1, BLOCK // t.size)) if isinstance(t, np.ndarray) else (t, BLOCK)
    log_hi, log_lo = log_table(b + lookahead)
    for lo in range(a, b + 1, width):
        hi = min(b, lo + width - 1)
        stop = hi + 1 + lookahead
        yield lo, hi, phase_from_dd_log(t, log_hi[lo:stop], log_lo[lo:stop])


def check_power(base: float, exponent: float) -> float:
    """base**exponent, or DomainError where it overflows a float."""
    try:
        return float(base) ** exponent
    except OverflowError:
        raise DomainError(f"{base:.6g}**{exponent:.6g} overflows a float") from None


def partial_sum(a: int, b: int, s: Argument) -> complex:
    """Sum of step_term(n, s) for a <= n <= b: one row of step_sums, at |t|
    and conjugated for t < 0, so conj s gives the bit-exact conjugate.
    DomainError before the first block where b**(-sigma) overflows."""
    if a < 1 or b < a:
        raise ValueError(f"need 1 <= a <= b, got ({a}, {b})")
    total = complex(step_sums((s.sigma,), np.array([abs(s.t)]), np.array([float(b)]), a)[0][0, 0])
    return total.conjugate() if s.t < 0.0 else total


def step_sums(sigmas, t, n, a: int = 1):
    """(sums, lengths, phases): per sigma (row) and ordinate t_i >= 0 of the
    1-D array t (column), the sum of k**(-s) over a <= k <= n_i, n a float
    array of whole n_i >= a, and the length and phase of step n_i.  Rows of
    one n_i share phase_blocks calls of at most BLOCK entries and their cos
    and sin; each row is np.sum within a block, added to a running sum over
    the blocks, whatever the batch.  check_power refuses every sigma at the
    largest n_i first."""
    for sigma in sigmas:
        check_power(n.max(initial=1.0), -sigma)
    sums = np.empty((len(sigmas), t.size), dtype=complex)
    lengths, last = np.empty((len(sigmas), t.size)), np.empty(t.size)
    order, i = np.argsort(-n, kind="stable"), 0  # longest first: the log table grows once
    while i < order.size:
        count = n[order[i]]
        rows = order[i : i + max(1, int(BLOCK // count))]
        rows = rows[n[rows] == count]
        i += rows.size
        acc = np.zeros((2, len(sigmas), rows.size))  # real and imaginary parts
        for lo, hi, theta in phase_blocks(t[rows], a, int(count)):
            last[rows] = theta[:, -1]  # theta's buffer then takes the products
            cos, sin, k = np.cos(theta), np.sin(theta), np.arange(lo, hi + 1, dtype=float)
            for j, sigma in enumerate(sigmas):
                size = k ** (-sigma)
                acc[0, j] += np.sum(np.multiply(size, cos, out=theta), axis=1)
                acc[1, j] += np.sum(np.multiply(size, sin, out=theta), axis=1)
        sums.real[:, rows], sums.imag[:, rows] = acc
        lengths[:, rows] = [[float(count) ** -sigma] for sigma in sigmas]
    return sums, lengths, last


def phase_diffs(phases):
    """(d1, d2) at phases[0] of reduced phases phases[0..2] (floats or arrays): the
    first forward difference reduced into (-2*pi, 0], the second into [0, 2*pi)."""
    d1 = np.mod(phases[1] - phases[0], TWOPI)
    d1 = np.where(d1 > 0.0, d1 - TWOPI, 0.0)
    d2 = np.mod(phases[2] - 2.0 * phases[1] + phases[0], TWOPI)
    return d1, d2


def angle_diffs(n: int, t: float):
    """(delta1_raw, delta1_mod, delta2_mod) of the step angles at n.

    delta1_raw = -t*log((n+1)/n) exactly as a real number; delta1_mod is
    its reduction into (-2*pi, 0]; delta2_mod is the second forward
    difference of the angle reduced into [0, 2*pi).
    """
    if n < 1:
        raise ValueError("step index must be >= 1")
    l0h, l0l = dd_log(n)
    l1h, l1l = dd_log(n + 1)
    # log((n+1)/n) in dd; the subtraction is safe because the pair parts
    # carry ~32 digits (equivalent to a log1p evaluation at large n).
    d1h, d1l = dd_add(l1h, l1l, -l0h, -l0l)
    d1, d2 = phase_diffs(np.array([reduced_phase(t, m) for m in (n, n + 1, n + 2)]))
    return -t * (d1h + d1l), float(d1), float(d2)
