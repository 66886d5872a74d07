"""Evaluation routes against a quad-precision oracle (mpmath.zeta)."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasteps import (
    Argument,
    DomainError,
    ToleranceError,
    big_q,
    eval_em_paper,
    eval_reference,
    eval_symmetric,
    frame_of,
    gram_point,
    partial_sum,
    rs_remainder,
    rs_theta_mod,
    rs_z,
    z_reference,
    zeta_on_line,
)
from zetasteps import evaluators
from zetasteps.ddmath import BLOCK
from zetasteps.evaluators import (
    FLAG_DEGENERATE_P,
    _GABCKE,
    _GABCKE_W,
    _gabcke,
    _remainder_c,
    _rs_bound,
)

mpmath.mp.dps = 40
TWOPI = 2.0 * math.pi


def mp_zeta(sigma, t):
    return complex(mpmath.zeta(mpmath.mpc(sigma, t)))


class TestReference:
    def test_basel(self):
        res = eval_reference(Argument(2.0, 0.0))
        assert abs(res.value - math.pi**2 / 6.0) < 1e-9
        assert res.algorithm == "reference"
        assert res.terms_used > 0

    def test_against_quad_oracle(self):
        for sigma, t in ((0.5, 14.0), (0.5, 1000.0), (0.25, 321.5),
                         (1.5, 77.0), (-0.5, 200.0), (3.0, 9999.0)):
            got = eval_reference(Argument(sigma, t)).value
            assert abs(got - mp_zeta(sigma, t)) < 1e-10

    def test_first_zero_small_residual(self):
        assert abs(eval_reference(Argument(0.5, 14.134725)).value) < 1e-6

    def test_stability_under_tighter_target(self):
        s = Argument(0.5, 1000.0)
        a = eval_reference(s, target_abs_error=1e-10).value
        b = eval_reference(s, target_abs_error=1e-12).value
        assert abs(a - b) < 1e-10

    def test_reflection(self):
        s = Argument(0.4, 250.0)
        assert eval_reference(s.conjugate()).value == eval_reference(s).value.conjugate()

    def test_error_estimate_within_target(self):
        # the tail estimate meets the target; error_estimate adds the
        # rounding bound on top, which at sigma < 0 may pass the target
        rng = np.random.default_rng(20261018)
        for _ in range(24):
            sigma = float(rng.uniform(-1.0, 3.0))
            t = float(rng.uniform(-2000.0, 2000.0))
            target = float(10.0 ** rng.uniform(-10.0, -6.0))
            res = eval_reference(Argument(sigma, t), target)
            tail = evaluators._reference_rows(sigma, np.array([abs(t)]), target)[1][0]
            assert 0.0 < tail <= target
            assert tail < res.error_estimate
            mirror = eval_reference(Argument(sigma, -t), target)
            assert mirror.error_estimate == res.error_estimate

    # (-1, 7967.9) erred by 7.6e-10 under a tail-only estimate of 2.2e-11
    @pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.5, 2.0])
    def test_error_estimate_bounds_the_error(self, sigma):
        rng = np.random.default_rng([20261027, int(sigma * 2.0) + 2])
        t = np.exp(rng.uniform(0.0, math.log(1e4), 3))
        if sigma == -1.0:
            t = np.append(t, 7967.9)
        res = eval_reference(Argument(sigma, t))
        err = np.abs(res.value - [mp_zeta(sigma, x) for x in t])
        assert np.all(err <= res.error_estimate), (t, err, res.error_estimate)

    def test_unmet_target_reports_best_error(self, monkeypatch):
        # one _em_rows pass at _em_cut's n; a miss raises with its estimate
        calls = []
        em_rows = evaluators._em_rows

        def stuck(sigma, a, n, target):
            calls.append(n.tolist())
            values, _, used = em_rows(sigma, a, n, target)
            return values, np.full(a.size, 2e-6), used

        monkeypatch.setattr(evaluators, "_em_rows", stuck)
        with pytest.raises(ToleranceError) as exc:
            eval_reference(Argument(0.5, 100.0))
        assert exc.value.best_error == 2e-6
        assert calls == [[64.0]]  # one try, at N = 64

    def test_unmet_target_in_a_batch(self, monkeypatch):
        # one entry that misses its target fails the call; the error names
        # the worst entry's estimate
        calls = []
        em_rows = evaluators._em_rows

        def stuck(sigma, a, n, target):
            calls.append(a.tolist())
            values, errors, used = em_rows(sigma, a, n, target)
            return values, np.select([a == 50.0, a == 70.0], [3e-6, 1e-6], errors), used

        monkeypatch.setattr(evaluators, "_em_rows", stuck)
        with pytest.raises(ToleranceError) as exc:
            eval_reference(Argument(0.5, np.array([30.0, 50.0, 70.0, 90.0])))
        assert exc.value.best_error == 3e-6
        assert calls == [[30.0, 50.0, 70.0, 90.0]]
        with pytest.raises(ToleranceError):
            z_reference(np.array([30.0, 70.0]))

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_reference(Argument(5.0, 10.0))
        with pytest.raises(DomainError):
            eval_reference(Argument(1.0, 0.0))
        with pytest.raises(DomainError):
            eval_reference(Argument(0.5, 10.0), target_abs_error=1e-15)

    def test_bernoulli_numbers(self):
        want = [tuple(int(x) for x in mpmath.bernfrac(2 * k)) for k in range(1, 13)]
        assert list(evaluators._BERNOULLI) == want

    @pytest.mark.parametrize("t", [1e-300, 1e-20, 1e-12, 1e-8, 1e-4])
    def test_near_pole_on_sigma_one(self, t):
        # zeta(1 + it) = 1/(it) + gamma + O(t): the integral term's 1/(s - 1)
        # scales any rounding of its phase -t log n up by 1/t
        got = eval_reference(Argument(1.0, t)).value
        want = mp_zeta(1.0, t)
        assert abs(got.real - want.real) <= 1e-10
        assert abs(got.imag - want.imag) <= 1e-12 * abs(want.imag)

    @settings(max_examples=20, deadline=None)
    @given(
        sigma=st.floats(min_value=-1.0, max_value=3.0),
        t=st.floats(min_value=0.0, max_value=2000.0),
    )
    def test_oracle_property(self, sigma, t):
        if abs(sigma - 1.0) < 1e-3 and abs(t) < 1e-3:
            return  # pole neighborhood
        got = eval_reference(Argument(sigma, t)).value
        assert abs(got - mp_zeta(sigma, t)) < 1e-9


_B24_OVER_FACT = float(abs(mpmath.bernoulli(24)) / mpmath.factorial(24))


def _cut_rules(sigma, t, n, target):
    """The oracle's two rules at the head-sum length n, from products:
    q_12 = |(s+23)(s+24)|/(2 pi n)**2 <= 1/8, and the order-12 estimate
    |B_24/24!| |s(s+1)...(s+24)| / (2 pi)**2 n**-(sigma+25) / (1 - q_12) <= target/4."""
    s = complex(sigma, abs(t))
    q = abs((s + 23) * (s + 24)) / (TWOPI * n) ** 2
    size = _B24_OVER_FACT * math.prod(abs(s + m) for m in range(25)) / TWOPI**2
    return q <= 0.125, q < 1.0 and size * n ** -(sigma + 25.0) / (1.0 - q) <= target / 4.0


def _cut_edge(sigma, n, target=1e-10):
    """The largest float t >= 0 at which both rules hold at n (each only
    tightens as t grows), by bisection."""
    lo, hi = 0.0, 100.0 * n
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if all(_cut_rules(sigma, mid, n, target)) else (lo, mid)
    return lo


class TestCut:
    def test_least_multiple_of_32_meeting_both_rules(self, monkeypatch):
        # every row meets the target in the first pass: one _em_rows call
        calls = []
        em_rows = evaluators._em_rows

        def seen(sigma, a, n, target):
            out = em_rows(sigma, a, n, target)
            calls.append((a.tolist(), n.tolist(), out[1]))
            return out

        monkeypatch.setattr(evaluators, "_em_rows", seen)
        rng = np.random.default_rng(20261020)
        cases = [(-1.0, np.array([0.0]), 1e-10), (0.0, np.array([0.0]), 1e-10)]
        for _ in range(12):
            t = np.concatenate([rng.uniform(-1e5, 1e5, 2), rng.uniform(-300.0, 300.0, 2)])
            cases.append((float(rng.uniform(-1.0, 3.0)), t, float(10.0 ** rng.uniform(-12.0, -6.0))))
        for sigma, t, target in cases:
            calls.clear()
            res = eval_reference(Argument(sigma, t), target)
            assert len(calls) == 1
            rows, cuts, tails = calls[0]
            for a, n in zip(rows, cuts):
                assert n >= 32 and n % 32 == 0
                assert all(_cut_rules(sigma, a, n, target)), (sigma, a, n, target)
                assert n == 32 or not all(_cut_rules(sigma, a, n - 32, target)), (sigma, a, n, target)
            # the tail estimate; error_estimate adds the rounding bound
            assert np.all(tails <= target / 4.0) and np.all(tails < res.error_estimate)
        # s = -1 and s = 0 zero a factor of the estimate: n = 32, no warning
        assert abs(eval_reference(Argument(-1.0, 0.0)).value + 1.0 / 12.0) < 1e-12
        assert abs(eval_reference(Argument(0.0, 0.0)).value + 0.5) < 1e-12

    def test_one_pass_meets_every_target(self):
        # _em_cut sizes n from the order-12 estimate that _em_rows checks,
        # so no row misses target/4 and the oracle never needs a second pass
        rng = np.random.default_rng(20261021)
        sigmas = np.concatenate([[-1.0, 0.0, 0.5, 1.0, 3.0], rng.uniform(-1.0, 3.0, 7)])
        ts = np.concatenate([[0.0, 1e-300], np.exp(rng.uniform(math.log(1e-3), math.log(1e5), 84))])
        worst = 0.0
        for sigma in sigmas.tolist():
            a = ts[ts > 0.0] if sigma == 1.0 else ts  # s = 1 is the pole
            for target in (1e-12, 1e-10, 1e-6, 1.0):
                errors = evaluators._em_rows(sigma, a, evaluators._em_cut(sigma, a, target), target)[1]
                worst = max(worst, float(np.max(errors / target)))
        assert worst <= 0.25

    def test_critical_line_terms_below_half_t(self):
        # q_12 <= 1/8 alone would give n = sqrt(8)/(2 pi) t = 0.450 t there
        t = np.exp(np.random.default_rng(20261021).uniform(math.log(1e3), math.log(1e5), 6))
        t = np.concatenate([[1e3, 1e5], t])
        assert np.all(eval_reference(Argument(0.5, t)).terms_used <= 0.5 * t + 12)

    def test_z_reference_against_siegelz(self):
        # the zero search's oracle at the shorter cut, two seeded t per decade
        rng = np.random.default_rng(20261022)
        ts = np.exp(np.concatenate([rng.uniform(math.log(lo), math.log(10.0 * lo), 2)
                                    for lo in (1e3, 1e4, 1e5)]))
        with mpmath.workdps(20):
            want = [float(mpmath.siegelz(t)) for t in ts]
        assert np.all(np.abs(z_reference(ts) - want) <= 1e-10)


def _hex(x):
    return [float(v).hex() for v in np.ravel([np.real(x), np.imag(x)])]


class TestBatchedReference:
    # n steps up by 32 where the rules at 32m, met below an edge t, stop
    # holding (_cut_edge)
    @staticmethod
    def _ordinates(sigma):
        rng = np.random.default_rng(20261019)
        edges = [_cut_edge(sigma, 32.0 * m) for m in (1, 2, 5, 40)]
        sides = [e + d for e in edges for d in (-1e-9, 1e-9)]
        tiny = rng.uniform(0.0, 1.0, 3).tolist()
        wide = rng.uniform(1.0, 3000.0, 5).tolist()
        ts = [*sides, *tiny, *wide]
        return sides, [*ts, *(-t for t in ts), 0.0]

    @pytest.mark.parametrize("sigma", [-1.0, 0.5, 3.0])
    def test_float_equals_batch_row(self, sigma):
        sides, ts = self._ordinates(sigma)
        batch = eval_reference(Argument(sigma, np.array(ts)))
        shapes = {batch.value.shape, batch.terms_used.shape, batch.error_estimate.shape}
        assert shapes == {(len(ts),)}
        for i, t in enumerate(ts):
            one = eval_reference(Argument(sigma, t))
            assert type(one.value) is complex and type(one.terms_used) is int
            assert _hex(one.value) == _hex(batch.value[i])
            assert one.terms_used == batch.terms_used[i]
            assert one.error_estimate.hex() == float(batch.error_estimate[i]).hex()
        # each pair of sides straddles an edge: 32 head terms apart, less
        # at most 11 Bernoulli orders
        terms = dict(zip(ts, batch.terms_used.tolist()))
        for lo, hi in zip(sides[::2], sides[1::2]):
            assert 21 <= terms[hi] - terms[lo] <= 43
        # t < 0 is the exact conjugate of |t|
        half = (len(ts) - 1) // 2
        pos, neg = batch.value[:half], batch.value[half:-1]
        assert _hex(neg) == _hex(pos.conjugate())
        assert batch.error_estimate[:half].tolist() == batch.error_estimate[half:-1].tolist()

    def test_shape_kept(self):
        t = np.array([[10.0, 20.0], [-30.0, 0.5]])
        res = eval_reference(Argument(0.25, t))
        assert res.value.shape == res.terms_used.shape == res.error_estimate.shape == (2, 2)
        assert res.value[0, 1] == eval_reference(Argument(0.25, 20.0)).value

    # sigma is drawn per band from [0, 3]: at sigma = -1 the rounding of the
    # head sum alone reaches 1e-9 by t = 8000
    @pytest.mark.parametrize("band", [(0.0, 1.0), (1.0, 10.0), (10.0, 100.0),
                                      (100.0, 1e3), (1e3, 1e4), (1e4, 1e5)])
    def test_error_estimate_against_quad_oracle(self, band):
        rng = np.random.default_rng([20261019, int(band[1])])
        for sigma in (0.5, float(rng.uniform(0.0, 3.0))):
            t = rng.uniform(*band, 3)
            res = eval_reference(Argument(sigma, t))
            rows = zip(t, res.value, res.error_estimate, res.terms_used)
            for t_i, value, estimate, terms in rows:
                err = abs(value - mp_zeta(sigma, t_i))
                # the estimate bounds the Euler-Maclaurin truncation; the
                # rounding of the head sum comes on top
                rounding = 2.0**-52 * float(np.sum(np.arange(1.0, terms + 1.0) ** -sigma))
                assert err <= estimate + rounding
                assert err <= 1e-10 and estimate <= 1e-10

    def test_z_reference_array(self):
        rng = np.random.default_rng(20261019)
        t = np.concatenate([[TWOPI, 14.134725141734695], rng.uniform(10.0, 5000.0, 6)])
        batch = z_reference(t)
        assert isinstance(batch, np.ndarray) and batch.shape == t.shape
        assert [x.hex() for x in batch.tolist()] == [z_reference(x).hex() for x in t.tolist()]
        assert z_reference(t.reshape(2, 4)).tolist() == batch.reshape(2, 4).tolist()
        assert z_reference(np.array([])).shape == (0,)
        with pytest.raises(DomainError):
            z_reference(np.array([10.0, 6.0]))


class TestEmPaper:
    def test_agreement_with_reference(self):
        s = Argument(0.5, 2000.0)
        ref = eval_reference(s).value
        assert abs(eval_em_paper(s).value - ref) < 1e-3

    def test_upper_limit_insensitivity(self):
        # terminating one scroll later changes the value below the accuracy floor
        s = Argument(0.5, 2000.0)
        from zetasteps import partial_sum, step_term

        n = int(2000.0 / math.pi) + 1
        dt = 2000.0 - math.pi * n
        head = partial_sum(1, n, s)
        term = step_term(n, s)
        alt = head - 0.5 * term + complex(s.sigma, dt) * term / (4.0 * n)
        assert abs(alt - eval_em_paper(s).value) < 1e-3

    def test_reflection(self):
        s = Argument(0.6, 300.0)
        assert eval_em_paper(s.conjugate()).value == eval_em_paper(s).value.conjugate()

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_em_paper(Argument(2.0, 300.0))
        with pytest.raises(DomainError):
            eval_em_paper(Argument(0.5, 30.0))


class TestRemainder:
    def test_c_at_zero(self):
        assert _remainder_c(0.0) == pytest.approx(math.cos(-math.pi / 8.0), rel=1e-12)

    def test_c_at_half(self):
        # numerator cos(-5pi/8) over cos(pi)
        assert _remainder_c(0.5) == pytest.approx(
            math.cos(-5 * math.pi / 8.0) / math.cos(math.pi), rel=1e-12
        )
        assert _remainder_c(0.5) == pytest.approx(math.cos(3 * math.pi / 8.0), rel=1e-12)

    def test_removable_singularities_continuous(self):
        for quarter in (0.25, 0.75):
            inside = _remainder_c(quarter)
            for eps in (1e-3, -1e-3, 1e-5, -1e-5):
                assert abs(_remainder_c(quarter + eps) - inside) < 1e-2
            # series/quotient handoff continuity
            assert abs(_remainder_c(quarter + 0.011) - _remainder_c(quarter + 0.009)) < 1e-2

    def test_variant_denominators(self):
        # rs_z carries the whole C0-C4 remainder with the (t/2pi)**(-1/4)
        # scale; rs_remainder is the printed first-order form, C0 over
        # sqrt(n_p).  Both sit on the same main sum to n_p.
        t = TWOPI * 123456.789
        fr = frame_of(t)
        head = partial_sum(1, fr.n_p, Argument(0.5, t)) * cmath.exp(1j * rs_theta_mod(t))
        main = 2.0 * head.real
        assert abs((rs_z(t) - main) - (float(mpmath.siegelz(t)) - main)) < 1e-12
        p = fr.p
        c0 = math.cos(TWOPI * (p * p - p - 0.0625)) / math.cos(TWOPI * p)
        sign = 1.0 if fr.n_p % 2 == 1 else -1.0
        assert abs(rs_remainder(t) * math.sqrt(fr.n_p) - sign * c0) < 1e-15


def _gabcke_mp(p):
    # Gabcke's C0..C4 from the Taylor coefficients of
    # Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p) at p (Edwards, 7.4)
    pi = mpmath.pi
    psi = lambda x: mpmath.cos(2 * pi * (x * x - x - mpmath.mpf(1) / 16)) / mpmath.cos(2 * pi * x)
    d = [c * mpmath.factorial(k) for k, c in enumerate(mpmath.taylor(psi, p, 12))]
    return [
        d[0],
        -d[3] / (96 * pi**2),
        d[2] / (64 * pi**2) + d[6] / (18432 * pi**4),
        -d[1] / (64 * pi**2) - d[5] / (3840 * pi**4) - d[9] / (5308416 * pi**6),
        d[0] / (128 * pi**2) + 19 * d[4] / (24576 * pi**4)
        + 11 * d[8] / (5898240 * pi**6) + d[12] / (2038431744 * pi**8),
    ]


class TestGabcke:
    def test_coefficients_regenerated(self):
        # near the removable singularities of Psi and the ends of [0, 1),
        # then 200 seeded p; measured worst gap 2.2e-16
        ps = [q + e for q in (0.0, 0.25, 0.75, 1.0) for e in (-1e-12, 1e-12)]
        ps += np.random.default_rng(20261018).uniform(0.0, 1.0, 200).tolist()
        with mpmath.workdps(40):
            for p in ps:
                want = [float(c) for c in _gabcke_mp(mpmath.mpf(p))]
                z = p - 0.5
                got = [np.polynomial.polynomial.polyval(z * z, c) * z ** (k % 2)
                       for k, c in enumerate(_GABCKE)]
                assert np.max(np.abs(np.subtract(got, want))) < 1e-15, p
                # the series rs_z sums, at v = (t/2pi)**(-1/2) = 0.1 and 0
                series = sum(c * 0.1**k for k, c in enumerate(want))
                assert abs(_gabcke(z, 0.1) - series) < 1e-15, p
                assert abs(_remainder_c(p) - want[0]) < 1e-15, p

    @staticmethod
    def _gabcke_reference(z, v):
        # the Horner pass with a new array per step, as first written
        w = np.expand_dims(z * z, -1)
        acc = _GABCKE_W[-1]
        for row in _GABCKE_W[-2::-1]:
            acc = acc * w + row
        k = np.arange(5)
        c = np.where(k % 2 == 1, acc * np.expand_dims(z, -1), acc)
        return (c * np.expand_dims(v, -1) ** k).sum(-1)

    def test_in_place_horner_is_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(20261020)
        z = rng.uniform(-0.5, 0.5, 3000)
        v = 1.0 / np.sqrt(rng.uniform(1.0, 1e6, 3000))
        cases = [(z, v), (z.reshape(30, 100), v.reshape(30, 100)), (z[:1], v[:1]), (z[:0], v[:0]),
                 (z, 0.0), (-0.5, 0.0), (0.0, 0.0), (0.49999999999999994, 0.0)]
        cases += [(float(a), float(b)) for a, b in zip(z[:200], v[:200])]
        cases += [(float(a), 0.0) for a in z[:200]]
        for zc, vc in cases:
            got, want = _gabcke(zc, vc), self._gabcke_reference(zc, vc)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (zc, vc)

    # (lowest t, bound): measured worst errors 3.5e-6, 2.4e-7, 3.5e-8,
    # 4.5e-9, 6.0e-11 and 9.6e-14 over 600 seeded t
    SIEGELZ_BOUNDS = ((14.0, 1e-5), (50.0, 1e-6), (100.0, 1e-7), (200.0, 1e-8),
                      (1e3, 1e-10), (1e4, 1e-12))

    def test_rs_z_against_siegelz(self):
        rng = np.random.default_rng(20261019)
        edges = [lo for lo, _ in self.SIEGELZ_BOUNDS] + [1e6]
        for (lo, bound), hi in zip(self.SIEGELZ_BOUNDS, edges[1:]):
            ts = np.exp(rng.uniform(math.log(lo), math.log(hi), 6))
            got = rs_z(ts)
            for t, z in zip(ts, got):
                assert abs(z - float(mpmath.siegelz(t))) < bound, t
                assert rs_z(float(t)) == z  # bit for bit, float and array

    def test_rs_z_batch_over_row_groups_matches_floats(self):
        # n_p from 398 to 437: 18-20 rows per phase block, so 600
        # ordinates span 30-34 row groups, each row read off at its own n_p
        ts = np.random.default_rng(20261020).uniform(1e6, 1.2e6, 600)
        assert len(ts) > BLOCK // frame_of(float(ts.max())).n_p * 3
        got = rs_z(ts)
        assert got.tolist() == [rs_z(float(t)) for t in ts]

    def test_rs_z_past_one_block(self, phase_recorder):
        # n_p > BLOCK from t = 2pi(BLOCK + 1)**2 = 4.2e8: a row's running
        # sum crosses block edges, and a batch mixing such rows with short
        # ones keeps every float's bits.  Measured errors are below 6e-14.
        rng = np.random.default_rng(20261021)
        edge = TWOPI * (BLOCK + 1) ** 2
        ts = np.concatenate(([edge, edge + 1234.5], rng.uniform(edge, 1.4e9, 3), [1e5, 2e6]))
        got = rs_z(ts)
        assert got.tolist() == [rs_z(float(t)) for t in ts]
        assert max(cols for _, cols in phase_recorder) == BLOCK
        for t, z in zip(ts, got):
            assert abs(z - float(mpmath.siegelz(t))) < 1e-11, t



class TestRsBound:
    # _rs_bound's contract: B(t) >= |rs_z(t) - Z(t)| on 100 seeded t per
    # decade band of [200, 1e6] and 8 in (1e6, 1e7].  Measured worst
    # error/B: 0.71, 0.69, 0.15, 0.007 and 0.001; Gabcke's truncation term
    # sets B below 1e4, the rounding term above.
    BANDS = ((200.0, 1e3, 100), (1e3, 1e4, 100), (1e4, 1e5, 100), (1e5, 1e6, 100),
             (1e6, 1e7, 8))

    @pytest.mark.parametrize("lo, hi, k", BANDS)
    def test_bounds_rs_z_error(self, lo, hi, k):
        rng = np.random.default_rng([20261021, int(lo)])
        ts = np.exp(rng.uniform(math.log(lo), math.log(hi), k))
        if hi == 1e7:
            ts[-1] = hi
        with mpmath.workdps(20):
            want = np.array([float(mpmath.siegelz(t)) for t in ts])
        bound = _rs_bound(ts)
        assert np.all(np.isfinite(bound))
        assert np.all(np.abs(rs_z(ts) - want) <= bound)

    def test_infinite_outside_its_range(self):
        below, above = math.nextafter(200.0, 0.0), math.nextafter(1e7, math.inf)
        for t in (14.0, below, above, 1e8, math.nan):
            assert _rs_bound(t) == math.inf
        assert type(_rs_bound(200.0)) is float
        assert 0.0 < _rs_bound(200.0) < 1e-8 and 0.0 < _rs_bound(1e7) < 1e-10
        ts = np.array([[below, 200.0], [1e7, above]])
        got = _rs_bound(ts)
        assert got.shape == ts.shape
        assert np.isinf(got).tolist() == [[True, False], [False, True]]


def test_rs_bound_counts_rs_z_terms_at_squares():
    # At t = 2pi*k*k the unsnapped floor(sqrt(t/2pi)) is k - 1 for 74 of the
    # 1,256 squares in [200, 1e7] (k = 93, 119, 186, ...), where rs_z sums
    # k terms; B reads n_p as rs_z does, so its formula holds at n = k.
    k = np.arange(6.0, 1262.0)
    ts = TWOPI * k * k
    k = k[np.floor(np.sqrt(ts / TWOPI)) == k - 1.0]
    ts = TWOPI * k * k
    assert k.size == 74 and k[:3].tolist() == [93.0, 119.0, 186.0]
    assert frame_of(ts).n_p.tolist() == k.tolist()
    u, term = 2.0**-53, evaluators._RS_TERM_ERR
    head = 4.0 * term * np.sqrt(k) + (8.0 / 3.0) * u * (k + 1.0) ** 1.5
    rest = u * (165.0 * np.sqrt(k) + 64.0 / np.sqrt(k) + 4.0 * np.sqrt(k) + 1.0)
    np.testing.assert_allclose(_rs_bound(ts), 0.017 * ts**-2.75 + head + rest, rtol=1e-12)


class TestZ:
    def test_first_zero_bracket(self):
        assert rs_z(14.0) * rs_z(14.2) < 0.0

    def test_gram_law_initial_signs(self):
        for n in range(21):
            g = gram_point(n)
            assert math.copysign(1.0, rs_z(g)) == (-1.0) ** n

    def test_modulus_tracks_oracle(self):
        for t in (500.0, 1234.5, 2718.28, 5000.0):
            ref = abs(mp_zeta(0.5, t))
            assert abs(abs(rs_z(t)) - ref) < 0.05

    def test_z_reference_matches_rs_z(self):
        # rs_z takes the conventional (t/2pi)**(-1/4) remainder scale, which
        # is tight much earlier than the printed n_p**(-1/2) one
        for t, tol in ((100.0, 0.1), (1000.0, 0.005), (4000.0, 5e-4)):
            assert abs(z_reference(t) - rs_z(t)) < tol
        for t in (500.0, 1000.0, 4000.0):
            assert abs(z_reference(t) - rs_z(t)) < 5e-4


class TestSymmetric:
    def test_on_line_matches_reference(self):
        s = Argument(0.5, 2000.0)
        assert abs(eval_symmetric(s).value - eval_reference(s).value) < 0.05

    def test_off_line_matches_reference(self):
        s = Argument(0.3, 1500.5)
        assert abs(eval_symmetric(s).value - eval_reference(s).value) < 0.1

    def test_degenerate_flag(self):
        t = TWOPI * (40.25**2)
        res = eval_symmetric(Argument(0.5, t))
        assert FLAG_DEGENERATE_P in res.flags

    def test_reflection(self):
        s = Argument(0.5, 888.0)
        assert eval_symmetric(s.conjugate()).value == eval_symmetric(s).value.conjugate()

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_symmetric(Argument(0.0, 100.0))


class TestOnLine:
    def test_modulus_equals_z(self):
        for t in (100.0, 777.7):
            assert abs(abs(zeta_on_line(t)) - abs(rs_z(t))) < 1e-12

    def test_theta_rotation_realness(self):
        from zetasteps import rs_theta_mod

        for t in (100.0, 500.0, 1000.0):
            ref = eval_reference(Argument(0.5, t)).value
            rotated = cmath.exp(1j * rs_theta_mod(t)) * ref
            assert abs(rotated.imag) < 1e-8

    def test_first_zero(self):
        # at t ~ 14 only one term survives; true Z is -0.106 at 14.0 and
        # -0.027 at 14.1 (mpmath), so the sign change must fall in [14.1, 14.2]
        assert abs(zeta_on_line(14.134725)) < 0.1
        from zetasteps import rs_z

        assert rs_z(14.1) * rs_z(14.2) < 0.0


class TestTwoPiFloor:
    def test_refused_before_sqrt(self):
        # rs_z, zeta_on_line and eval_symmetric leave t < 2pi to the reader
        # they call first (rs_theta_mod, frame_of), ahead of any square root
        # of t/2pi, which would warn on a negative t.
        calls = [
            lambda: rs_z(5.0),
            lambda: rs_z(-5.0),
            lambda: rs_z(np.array([100.0, 5.0])),
            lambda: rs_z(np.array([100.0, -5.0])),
            lambda: zeta_on_line(5.0),
            lambda: zeta_on_line(-5.0),
            lambda: eval_symmetric(Argument(0.5, math.nextafter(TWOPI, 0.0))),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DomainError):
                    call()
            assert rs_z(np.array([])).shape == (0,)


class TestCrossAlgorithm:
    def test_functional_equation_residual(self):
        for t in (100.0, 500.0, 2500.0, 5000.0):
            s = Argument(0.5, t)
            lhs = eval_reference(s).value
            rhs = big_q(s) * eval_reference(Argument(0.5, t)).value.conjugate()
            assert abs(lhs - rhs) < 1e-2 * (1.0 + abs(lhs))

    def test_pendant_projection_tracks_remainder(self):
        # |2 L cos(theta_L - Theta)| reproduces the modulus of the
        # first-order remainder away from the degenerate band
        from zetasteps import pendant_offset, rs_theta_mod

        t = 2220000.15
        fr = frame_of(t)
        assert abs(math.cos(TWOPI * fr.p)) >= 0.1
        s = Argument(0.5, t)
        L = pendant_offset(s)
        proj = 2.0 * (cmath.exp(1j * rs_theta_mod(t)) * L).real
        assert abs(abs(proj) - abs(rs_remainder(t))) < 1e-3
