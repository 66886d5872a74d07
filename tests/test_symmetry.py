"""Symmetry frame: n_p/p, theta, Q, pendant offset, conjugate regions."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasteps import (
    Argument,
    DomainError,
    big_q,
    center_point,
    conj_region,
    conj_sum_direct,
    conj_sum_predicted,
    find_zeros,
    frame_of,
    jacobi_g,
    partial_sum,
    pendant_offset,
    reduced_phase,
    refine_zero,
    rs_theta,
    rs_theta_mod,
    rs_z,
    scan_z_sign_changes,
    z_reference,
    zeta_on_line,
)
from zetasteps.ddmath import REDUCTION_LIMIT, _dd_log
from zetasteps.symmetry import _theta_dd

mpmath.mp.dps = 40
TWOPI = 2.0 * math.pi


def mp_theta(t):
    """Quad-precision oracle for the asymptotic theta series."""
    td = mpmath.mpf(t)
    return float(
        td / 2 * mpmath.log(td / (2 * mpmath.pi))
        - td / 2
        - mpmath.pi / 8
        + 1 / (48 * td)
        + 7 / (5760 * td**3)
    )


class TestFrame:
    def test_exact_square(self):
        fr = frame_of(TWOPI * 1e6)
        assert fr.n_p == 1000
        assert fr.p == 0.0

    def test_large_t(self):
        fr = frame_of(1e9)
        r = math.sqrt(1e9 / TWOPI)
        assert fr.n_p == 12615
        assert fr.p == pytest.approx(r - 12615, abs=1e-9)
        assert abs(fr.p - 0.66) < 0.01

    def test_degenerate_quarter(self):
        t = TWOPI * (1000.25**2)
        fr = frame_of(t)
        assert fr.p == pytest.approx(0.25, abs=1e-9)
        assert fr.degenerate_p

    def test_domain(self):
        with pytest.raises(DomainError):
            frame_of(6.0)

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(min_value=1e3, max_value=1e8))
    def test_square_identity(self, t):
        fr = frame_of(t)
        assert (fr.n_p + fr.p) ** 2 * TWOPI == pytest.approx(t, rel=1e-12)
        assert fr.n_p >= 1 and 0.0 <= fr.p < 1.0


class TestTheta:
    def test_zero_at_first_gram_ordinate(self):
        assert abs(rs_theta(17.8455995405)) < 1e-8

    def test_increasing(self):
        ts = [17.1 + 0.5 * k for k in range(40)]
        vals = [rs_theta(t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_series_terms(self):
        t = 1000.0
        main = t / 2 * math.log(t / TWOPI) - t / 2 - math.pi / 8
        assert abs(rs_theta(t) - main) < 1.0 / (48 * t) + 1e-8

    def test_matches_oracle(self):
        for t in (10.0, 50.0, 1234.5, 1e6):
            assert rs_theta(t) == pytest.approx(mp_theta(t), abs=1e-10 * max(1, t))

    def test_domain(self):
        # the floor is t = 2pi, where the first step pendant exists
        below = math.nextafter(TWOPI, 0.0)

        def as_array(t):
            return rs_theta_mod(np.array([t, 10.0]))

        def theta_of_array(t):
            return rs_theta(np.array([10.0, t]))

        for entry in (rs_theta, rs_theta_mod, z_reference, as_array, theta_of_array):
            for t in (5.0, below):
                with pytest.raises(DomainError):
                    entry(t)
        # one floor check, _theta_dd's, serves every reader and its message
        with pytest.raises(DomainError, match=r"^theta_RS needs t >= 2\*pi, got 5.0$"):
            theta_of_array(5.0)
        assert rs_theta(TWOPI) < 0.0 and 0.0 <= rs_theta_mod(TWOPI) < TWOPI
        assert rs_theta(np.array([])).shape == rs_theta_mod(np.array([])).shape == (0,)


NAN_CALLS = {
    "rs_theta": (rs_theta, math.nan),
    "rs_z": (rs_z, math.nan),
    "z_reference": (z_reference, math.nan),
    "frame_of": (frame_of, math.nan),
    "find_zeros": (find_zeros, 10.0, math.nan),
    "scan_z_sign_changes": (scan_z_sign_changes, math.nan, 20.0),
    "rs_theta_array": (rs_theta, np.array([100.0, math.nan])),
    "rs_z_array": (rs_z, np.array([math.nan])),
    "refine_zero": (refine_zero, (math.nan, 14.3), 1e-8),
    "frame_of_array": (frame_of, np.array([math.nan])),
}


@pytest.mark.parametrize("name", list(NAN_CALLS))
def test_nan_refused_at_the_two_pi_floor(name):
    # nan < 2pi is false, so the two floor checks, _theta_dd's and
    # frame_of's, test for NaN too: a DomainError, not a failed round() or
    # table index further in
    fn, *args = NAN_CALLS[name]
    with pytest.raises(DomainError, match=r"needs t >= 2\*pi, got nan$"):
        fn(*args)


INF_CALLS = {
    "rs_theta": (rs_theta, math.inf),
    "rs_z": (rs_z, math.inf),
    "z_reference": (z_reference, math.inf),
    "frame_of": (frame_of, math.inf),
    "rs_theta_array": (rs_theta, np.array([math.inf])),
    "rs_z_array": (rs_z, np.array([1e5, math.inf])),
    "frame_of_array": (frame_of, np.array([100.0, math.inf])),
}


@pytest.mark.parametrize("name", list(INF_CALLS))
def test_inf_refused_at_the_two_pi_floor(name):
    # inf >= 2pi, so the floor checks also test the largest t: a DomainError,
    # not an OverflowError from int(inf) or an IndexError from the log table
    fn, *args = INF_CALLS[name]
    with pytest.raises(DomainError, match=r"needs t >= 2\*pi, got inf$"):
        fn(*args)


def mp_theta_series(t):
    """The theta series at dps 50 (mp_theta rounds it to a double)."""
    with mpmath.workdps(50):
        td = mpmath.mpf(t)
        return (td / 2 * mpmath.log(td / (2 * mpmath.pi)) - td / 2
                - mpmath.pi / 8 + 1 / (48 * td) + 7 / (5760 * td**3))


def circular_gap(a, b):
    d = abs(a - b) % TWOPI
    return min(d, TWOPI - d)


class TestThetaContract:
    """rs_theta_mod within 4 ulp(2*pi) of the series mod 2*pi, rs_theta to
    4e-16 relative, and arg Q(1/2 + it) = -2*theta, on [2*pi, 1e8].  Dropping
    the log1p tail of log t misses the first bound by up to 1/(16t)."""

    EDGES = (10.0, 10.5, TWOPI * 4, 1e3 + 0.5, 1e6, TWOPI * 1e6, 1e8 - 0.5)

    def check(self, t):
        th = mp_theta_series(t)
        with mpmath.workdps(50):
            want_mod = float(th % (2 * mpmath.pi))
            want_q = float((-2 * th) % (2 * mpmath.pi))
        assert circular_gap(rs_theta_mod(t), want_mod) <= 4 * math.ulp(TWOPI)
        assert abs(rs_theta(t) - float(th)) <= 4e-16 * max(1.0, abs(float(th)))
        q = big_q(Argument(0.5, t))
        assert circular_gap(math.atan2(q.imag, q.real), want_q) <= 1e-14

    def test_edges(self):
        for t in self.EDGES:
            self.check(t)

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(min_value=10.0, max_value=1e8))
    def test_sweep(self, t):
        self.check(t)

    def test_below_ten(self):
        # [2pi, 10): the float and the array reader give the same bits
        ts = np.concatenate([[TWOPI, 6.5, 8.0, 9.9, math.nextafter(10.0, 0.0)],
                             np.random.default_rng(20261019).uniform(TWOPI, 10.0, 200)])
        for t in ts:
            self.check(float(t))
        assert rs_theta_mod(ts).tolist() == [rs_theta_mod(float(t)) for t in ts]

    def test_frame_reads_theta_on_demand(self, monkeypatch):
        import zetasteps.symmetry as sym

        t = 1234.5
        fr = frame_of(t)
        assert fr.theta_rs == rs_theta(t)
        assert fr.Theta == -rs_theta(t)
        # an ndarray of ordinates reads the bits of its point calls
        ts = np.array([TWOPI, 100.0, t, 2000.0])
        frames, points = frame_of(ts), [rs_theta(float(x)) for x in ts]
        assert frames.theta_rs.tolist() == rs_theta(ts).tolist() == points
        assert frames.Theta.tolist() == [-x for x in points]

        def no_theta(_t):
            raise AssertionError("frame_of computed theta")

        monkeypatch.setattr(sym, "_theta_dd", no_theta)
        assert frame_of(t).n_p == fr.n_p


def test_dd_log_and_theta_float_and_array_bits_agree():
    # One log1p and one log kernel for both branches: seeded integers up to
    # 2**31, the knot edges m = 1 + (j + 1/2)/64 and their neighbours at
    # several exponents, and seeded t up to 1.4e9 (near theta's limit).
    rng = np.random.default_rng(20261018)
    edges = [math.ldexp(1.0 + (j + 0.5) / 64.0, e) for j in range(64) for e in (-3, 0, 7, 30)]
    xs = np.concatenate([
        rng.integers(1, 2**31, 8000).astype(float),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
    ])
    assert np.array_equal(np.array([_dd_log(float(x)) for x in xs]).T, _dd_log(xs))
    ts = np.concatenate([rng.uniform(TWOPI, 1.4e9, 40_000), np.exp(rng.uniform(2.0, 21.0, 4000))])
    assert np.array_equal(np.array([_theta_dd(float(t)) for t in ts]).T, _theta_dd(ts))


def t_at_theta(target):
    """The t at which the theta series reaches target (Newton, dps 50)."""
    with mpmath.workdps(50):
        t = mpmath.mpf(target) / 10
        for _ in range(40):
            t -= (mp_theta_series(t) - target) / (mpmath.log(t / (2 * mpmath.pi)) / 2)
        return float(t)


class TestReductionLimit:
    """Each theta reduction refuses theta (or 2*theta in Q) just past
    REDUCTION_LIMIT and keeps 1e-13 rad just below it."""

    def test_theta(self):
        edge = t_at_theta(REDUCTION_LIMIT)  # 1.48e9
        past, below = edge * (1.0 + 1e-9), edge * (1.0 - 1e-9)
        for entry in (rs_theta_mod, zeta_on_line, z_reference, rs_z, lambda t: rs_z(np.array([t]))):
            with pytest.raises(DomainError):
                entry(past)
        with mpmath.workdps(50):
            want = float(mp_theta_series(below) % (2 * mpmath.pi))
        assert circular_gap(rs_theta_mod(below), want) <= 1e-13

    def test_big_q(self):
        edge = t_at_theta(REDUCTION_LIMIT / 2)  # 7.66e8
        past, below = edge * (1.0 + 1e-9), edge * (1.0 - 1e-9)
        with pytest.raises(DomainError):
            big_q(Argument(0.5, past))
        with mpmath.workdps(50):
            want = float((-2 * mp_theta_series(below)) % (2 * mpmath.pi))
        q = big_q(Argument(0.5, below))
        assert circular_gap(math.atan2(q.imag, q.real), want) <= 1e-13


class TestBigQ:
    def test_unit_modulus_on_line(self):
        for t in (10.0, 1234.5, 99999.0):
            assert abs(abs(big_q(Argument(0.5, t))) - 1.0) < 1e-14

    def test_magnitude_continuous(self):
        q = big_q(Argument(0.0, TWOPI * 1e6))
        assert abs(q) == pytest.approx(1000.0, rel=1e-12)

    def test_magnitude_discrete(self):
        assert frame_of(TWOPI * 1e6).q_magnitude(0.0) == pytest.approx(
            1000.0, rel=1e-12
        )
        # an overflowing power is a DomainError, as every other one is
        with pytest.raises(DomainError, match=r"^12\*\*2001 overflows a float$"):
            frame_of(1000.0).q_magnitude(-1000.0)
        with pytest.raises(DomainError, match=r"^3\*\*999 overflows a float$"):
            conj_sum_predicted(3, Argument(1000.0, 1000.0))

    def test_phase_is_minus_two_theta(self):
        t = 5000.0
        q = big_q(Argument(0.5, t))
        want = (-2.0 * mp_theta(t)) % TWOPI
        got = math.atan2(q.imag, q.real) % TWOPI
        err = abs(got - want)
        assert min(err, TWOPI - err) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=10.0, max_value=1e7),
    )
    def test_magnitude_product_is_one(self, sigma, t):
        a = abs(big_q(Argument(sigma, t)))
        b = abs(big_q(Argument(1.0 - sigma, t)))
        assert a * b == pytest.approx(1.0, abs=1e-14)


class TestPendantOffset:
    def test_integer_p_magnitude_and_phase(self):
        t = TWOPI * 1e6  # p = 0, n_p = 1000
        s = Argument(0.5, t)
        L = pendant_offset(s)
        assert abs(L) == pytest.approx(1000.0 ** -0.5 / 2.0, rel=1e-12)
        want = (reduced_phase(t, 1000) + math.pi) % TWOPI
        got = math.atan2(L.imag, L.real) % TWOPI
        err = abs(got - want)
        assert min(err, TWOPI - err) < 1e-9

    def test_degenerate_magnitude_blowup(self):
        t = TWOPI * (1000.2501**2)
        s = Argument(0.5, t)
        fr = frame_of(t)
        assert fr.degenerate_p
        assert abs(pendant_offset(s)) > 500.0 * 1000.0 ** -0.5

    def test_center_point_composition(self):
        s = Argument(0.5, TWOPI * 1e6)
        assert center_point(s) == partial_sum(1, 1000, s) + pendant_offset(s)

    def test_center_reflection(self):
        # bit for bit, through the short and the blocked partial sum
        rng = np.random.default_rng(20261019)
        ts = [TWOPI, 7.0, 4321.0, *rng.uniform(TWOPI, 2e3, 20), *rng.uniform(2e3, 1e6, 10)]
        for t in ts:
            s = Argument(float(rng.uniform(-0.5, 1.5)), float(t))
            want = center_point(s).conjugate()
            got = center_point(s.conjugate())
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


class TestConjRegion:
    def test_region_one(self):
        t = TWOPI * 1e6
        r = conj_region(1, t)
        assert (r.N_lo, r.N_center, r.N_hi) == (666667, 1000000, 2000000)

    def test_region_two(self):
        t = TWOPI * 1e6
        r = conj_region(2, t)
        assert (r.N_lo, r.N_center, r.N_hi) == (400001, 500000, 666666)

    def test_partition(self):
        t = TWOPI * 1e4
        fr = frame_of(t)
        prev_lo = None
        for n in range(1, fr.n_p + 1):
            r = conj_region(n, t)
            if prev_lo is not None:
                assert r.N_hi + 1 == prev_lo
            prev_lo = r.N_lo
        assert conj_region(1, t).N_hi == int(t / math.pi)

    def test_width_scale(self):
        t = TWOPI * 1e4
        fr = frame_of(t)
        for n in range(1, fr.n_p // 4 + 1):
            w = conj_region(n, t).width
            scale = (t / TWOPI) / n**2
            assert 0.5 * scale <= w <= 2.0 * scale

    def test_domain(self):
        with pytest.raises(DomainError):
            conj_region(2000, TWOPI * 1e4)


class TestConjSums:
    def test_direct_narrow_region(self):
        t = TWOPI * 1e4
        s = Argument(0.5, t)
        fr = frame_of(t)
        r = conj_region(fr.n_p, t)
        naive = sum(
            complex(n ** -0.5 * math.cos(reduced_phase(t, n)),
                    n ** -0.5 * math.sin(reduced_phase(t, n)))
            for n in range(r.N_lo, r.N_hi + 1)
        )
        assert abs(conj_sum_direct(fr.n_p, s) - naive) < 1e-10

    def test_predicted_modulus_on_line(self):
        s = Argument(0.5, TWOPI * 1e4)
        for n in (2, 3, 4):
            assert abs(conj_sum_predicted(n, s).value) == pytest.approx(
                n ** -0.5, rel=1e-12
            )

    def test_direct_vs_predicted(self):
        s = Argument(0.5, TWOPI * 1e4)
        pred = conj_sum_predicted(2, s)
        assert not pred.accuracy_unguaranteed
        direct = conj_sum_direct(2, s)
        assert abs(abs(direct) / abs(pred.value) - 1.0) < 0.1

    def test_error_shrinks_with_t(self):
        for n in (2, 3):
            errs = []
            for t in (TWOPI * 1e4, TWOPI * 1e6):
                s = Argument(0.5, t)
                errs.append(
                    abs(abs(conj_sum_direct(n, s)) / abs(conj_sum_predicted(n, s).value) - 1.0)
                )
            assert errs[1] < errs[0]

    def test_flag_past_quarter(self):
        t = TWOPI * 1e4
        fr = frame_of(t)
        n = fr.n_p // 2
        assert conj_sum_predicted(n, Argument(0.5, t)).accuracy_unguaranteed


class TestJacobiG:
    def test_reciprocal_approximation(self):
        g = jacobi_g(0.3)
        assert abs(g - 1.0 / 0.3) < 1e-4
        assert g.real == pytest.approx(3.33335, abs=1e-4)

    def test_large_u(self):
        assert jacobi_g(5.0) == pytest.approx(1.0, abs=1e-16)

    def test_near_half(self):
        # stated five-place agreement with 1/u up to |u| just below 1/2
        assert abs(jacobi_g(0.49) - 1.0 / 0.49) < 1e-5

    def test_matches_oracle(self):
        u = mpmath.mpc(0.4, 0.1)
        want = complex(mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * u * u)))
        assert abs(jacobi_g(complex(0.4, 0.1)) - want) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            jacobi_g(complex(0.1, 0.4))
