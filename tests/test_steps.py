"""Step geometry: reduced phases, single terms, compensated sums."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasteps import (
    Argument,
    ResourceGuardError,
    angle_diffs,
    partial_sum,
    reduced_phase,
    step_term,
)

mpmath.mp.dps = 40
TWOPI = 2.0 * math.pi


def mp_reduced_phase(t, x):
    """Quad-precision oracle for (-t*log x) mod 2pi."""
    v = mpmath.fmod(-mpmath.mpf(t) * mpmath.log(x), 2 * mpmath.pi)
    if v < 0:
        v += 2 * mpmath.pi
    return float(v)


class TestReducedPhase:
    def test_full_turn_is_zero(self):
        # t = 2pi, x = e: the phase is exactly -2pi, reduced to 0
        assert reduced_phase(TWOPI, math.e) == pytest.approx(0.0, abs=1e-12) or (
            abs(reduced_phase(TWOPI, math.e) - TWOPI) < 1e-12
        )

    def test_zero_t(self):
        assert reduced_phase(0.0, 5.0) == 0.0

    def test_large_t_matches_oracle(self):
        assert abs(reduced_phase(1e6, 2.0) - mp_reduced_phase(1e6, 2.0)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.floats(min_value=1.0, max_value=1e8),
        n=st.integers(min_value=2, max_value=10_000_000),
    )
    def test_oracle_contract(self, t, n):
        got = reduced_phase(t, n)
        want = mp_reduced_phase(t, n)
        err = abs(got - want)
        err = min(err, TWOPI - err)  # wrap-around at the seam
        assert 0.0 <= got < TWOPI
        assert err < 1e-9


class TestStepTerm:
    def test_first_step_is_one(self):
        assert step_term(1, Argument(0.5, 12345.6)) == 1.0 + 0.0j

    def test_real_axis(self):
        assert step_term(4, Argument(2.0, 0.0)) == pytest.approx(0.0625 + 0j)

    def test_modulus_and_phase(self):
        z = step_term(2, Argument(0.5, 1000.0))
        assert abs(z) == pytest.approx(2.0 ** -0.5, rel=1e-14)
        assert math.atan2(z.imag, z.real) % TWOPI == pytest.approx(
            mp_reduced_phase(1000.0, 2.0), abs=1e-9
        )

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=100_000),
        sigma=st.floats(min_value=-1.0, max_value=3.0),
        t=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_reflection_exact(self, n, sigma, t):
        s = Argument(sigma, t)
        assert step_term(n, s.conjugate()) == step_term(n, s).conjugate()

    def test_monotone_modulus(self):
        s = Argument(0.3, 777.0)
        mods = [abs(step_term(n, s)) for n in range(1, 200)]
        assert all(a > b for a, b in zip(mods, mods[1:]))


class TestPartialSum:
    def test_single(self):
        assert partial_sum(1, 1, Argument(0.7, 3.0)) == 1.0 + 0.0j

    def test_basel_head(self):
        # sum over n <= 1e6 of n^-2 = pi^2/6 - tail, tail in (1/(N+1), 1/N)
        v = partial_sum(1, 10**6, Argument(2.0, 0.0))
        assert v.imag == 0.0
        assert abs(v.real - (math.pi**2 / 6.0 - 1e-6)) < 1e-6

    def test_matches_high_precision_oracle(self):
        s = Argument(0.5, 50.0)
        want = complex(mpmath.nsum(lambda n: n ** (-mpmath.mpc(0.5, 50.0)), [1, 100]))
        assert abs(partial_sum(1, 100, s) - want) < 1e-12

    def test_vector_path_matches_oracle(self):
        s = Argument(0.5, 5000.0)
        want = complex(
            mpmath.nsum(lambda n: n ** (-mpmath.mpc(0.5, 5000.0)), [1, 3000])
        )
        assert abs(partial_sum(1, 3000, s) - want) < 1e-11

    @pytest.mark.parametrize("n", [15, 16, 17])
    def test_scalar_vector_cutoff_matches_oracle(self, n):
        s = Argument(0.5, 1420.3)
        want = complex(
            mpmath.fsum(k ** (-mpmath.mpc(0.5, 1420.3)) for k in range(1, n + 1))
        )
        assert abs(partial_sum(1, n, s) - want) < 1e-13

    @pytest.mark.parametrize("n", [65535, 65536, 65537])
    def test_block_edge_matches_oracle(self, n):
        # sum_{k <= n} k^-s = zeta(s) - zeta(s, n + 1) (Hurwitz)
        sm = mpmath.mpc(0.5, 12345.678)
        want = complex(mpmath.zeta(sm) - mpmath.zeta(sm, n + 1))
        assert abs(partial_sum(1, n, Argument(0.5, 12345.678)) - want) < 1e-11

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            partial_sum(1, 2_000_000_000, Argument(0.5, 10.0))

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.integers(min_value=2, max_value=400),
        width=st.integers(min_value=0, max_value=400),
        sigma=st.floats(min_value=0.0, max_value=2.0),
        t=st.floats(min_value=0.0, max_value=1e5),
    )
    def test_telescoping(self, a, width, sigma, t):
        b = a + width
        s = Argument(sigma, t)
        whole = partial_sum(1, b, s)
        split = partial_sum(1, a - 1, s) + partial_sum(a, b, s)
        assert abs(whole - split) < 1e-12 * max(1.0, abs(whole))


class TestAngleDiffs:
    def test_forced_first_difference(self):
        t = math.pi / math.log(2.0)
        d1_raw, d1_mod, _ = angle_diffs(1, t)
        assert d1_raw == pytest.approx(-math.pi, rel=1e-14)
        assert d1_mod == pytest.approx(-math.pi, rel=1e-12)

    def test_second_difference_full_turn_at_center(self):
        # at n matching the symmetry center the second difference is a full turn
        t = TWOPI * 1e6
        _, _, d2 = angle_diffs(1000, t)
        assert min(d2, TWOPI - d2) < 3.0 * TWOPI / 1000.0  # O(1/n_p) deviation

    def test_large_n_series(self):
        t = TWOPI * 1e6
        n = 10**6
        d1_raw, d1_mod, _ = angle_diffs(n, t)
        series = -t * (1.0 / n - 1.0 / (2 * n**2) + 1.0 / (3 * n**3))
        assert d1_raw == pytest.approx(series, abs=1e-9)
        assert -TWOPI < d1_mod <= 0.0
        # here the raw difference is already inside one negative turn
        assert d1_mod == pytest.approx(d1_raw, abs=1e-9)

    def test_monotone_toward_zero(self):
        t = 999.25
        vals = [angle_diffs(n, t)[0] for n in range(1, 100)]
        assert all(a < b < 0 for a, b in zip(vals, vals[1:]))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10**6),
        t=st.floats(min_value=1.0, max_value=1e7),
    )
    def test_ranges(self, n, t):
        _, d1_mod, d2_mod = angle_diffs(n, t)
        assert -TWOPI < d1_mod <= 0.0
        assert 0.0 <= d2_mod < TWOPI
