"""Evaluation routes against a quad-precision oracle (mpmath.zeta)."""

import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasteps import (
    Argument,
    DomainError,
    big_q,
    eval_em_paper,
    eval_reference,
    eval_symmetric,
    frame_of,
    gram_point,
    rs_remainder,
    rs_z,
    z_reference,
    zeta_on_line,
)
from zetasteps.evaluators import FLAG_DEGENERATE_P, _remainder_c

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

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_reference(Argument(5.0, 10.0))
        with pytest.raises(DomainError):
            eval_reference(Argument(1.0, 0.0))
        with pytest.raises(DomainError):
            eval_reference(Argument(0.5, 10.0), target_abs_error=1e-15)

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
        t = TWOPI * 123456.789
        fr = frame_of(t)
        a = rs_remainder(t)
        b = rs_remainder(t, denominator="t")
        ratio = (float(fr.n_p) ** -0.5) / ((t / TWOPI) ** -0.25)
        assert a == pytest.approx(b * ratio, rel=1e-12)


class TestZ:
    def test_first_zero_bracket(self):
        assert rs_z(14.0) * rs_z(14.2) < 0.0

    def test_gram_law_initial_signs(self):
        for n in range(21):
            g = gram_point(n).t
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
