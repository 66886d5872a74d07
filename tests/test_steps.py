"""Step geometry: reduced phases, single terms, partial sums."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasteps import (
    Argument,
    DomainError,
    ResourceGuardError,
    angle_diffs,
    partial_sum,
    reduced_phase,
    step_term,
)
from zetasteps.ddmath import BLOCK, REDUCTION_LIMIT, _dd_log, phase_from_dd_log
from zetasteps.steps import TABLE_GUARD, phase_blocks, step_sums

mpmath.mp.dps = 40
TWOPI = 2.0 * math.pi


def mp_reduced_phase(t, x):
    """Quad-precision oracle for (-t*log x) mod 2pi."""
    v = mpmath.fmod(-mpmath.mpf(t) * mpmath.log(x), 2 * mpmath.pi)
    if v < 0:
        v += 2 * mpmath.pi
    return float(v)


def circular_gap(a, b):
    d = abs(a - b) % TWOPI
    return min(d, TWOPI - d)


class TestReducedPhase:
    def test_full_turn_is_zero(self):
        # t = 2pi, x = e: the phase is exactly -2pi, reduced to 0
        assert reduced_phase(TWOPI, math.e) == pytest.approx(0.0, abs=1e-12) or (
            abs(reduced_phase(TWOPI, math.e) - TWOPI) < 1e-12
        )

    def test_zero_t(self):
        assert reduced_phase(0.0, 5.0) == 0.0

    def test_large_t_matches_oracle(self):
        assert abs(reduced_phase(1e6, 2.0) - mp_reduced_phase(1e6, 2.0)) < 1e-13

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
        assert err < 1e-13


class TestReductionLimit:
    """The phase contract at t = 1e8 with n up to TABLE_GUARD, and the
    DomainError of each phase entry just past REDUCTION_LIMIT."""

    def test_contract_at_table_guard(self):
        rng = random.Random(20261019)
        ns = [TABLE_GUARD - k for k in range(5)] + [
            rng.randrange(TABLE_GUARD - 10**6, TABLE_GUARD) for _ in range(100)
        ]
        # _dd_log on an array grows no table
        arr = phase_from_dd_log(1e8, *_dd_log(np.array(ns, dtype=float)))
        scal = [reduced_phase(1e8, n) for n in ns]
        assert arr.tolist() == scal
        worst = max(circular_gap(r, mp_reduced_phase(1e8, n)) for r, n in zip(scal, ns))
        assert worst <= 1e-13

    @pytest.mark.parametrize("n", [2, 1000, 10**6])
    def test_reduced_phase(self, n):
        edge = REDUCTION_LIMIT / math.log(n)
        with pytest.raises(DomainError):
            reduced_phase(edge * (1.0 + 1e-9), n)
        t = edge * (1.0 - 1e-9)
        assert circular_gap(reduced_phase(t, n), mp_reduced_phase(t, n)) <= 1e-13

    @pytest.mark.parametrize("as_array", [False, True])
    def test_phase_blocks(self, as_array):
        edge = REDUCTION_LIMIT / math.log(1002)  # b + lookahead
        past, below = edge * (1.0 + 1e-9), edge * (1.0 - 1e-9)
        if as_array:
            past, below = np.array([10.0, past]), np.array([10.0, below])
        with pytest.raises(DomainError):
            next(phase_blocks(past, 1, 1000, lookahead=2))
        phases = next(phase_blocks(below, 1, 1000, lookahead=2))[2]
        last = phases[1, -1] if as_array else phases[-1]
        assert circular_gap(last, mp_reduced_phase(edge * (1.0 - 1e-9), 1002)) <= 1e-13

    def test_table_guard_comes_first(self, table_recorder):
        with pytest.raises(ResourceGuardError):
            next(phase_blocks(1e10, 1, TABLE_GUARD + 1))
        assert table_recorder == []


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

    @pytest.mark.parametrize("b", [17, 100, 70000])
    @pytest.mark.parametrize("t", [0.0, -0.0])
    def test_real_axis_sums_lengths(self, b, t):
        # at t = +-0 the kernel's phases are +0.0: the sum is the summation
        # policy's sum of n**-sigma (np.sum per block) with a +0.0 imaginary part
        for sigma in (2.0, 0.5, -0.5):
            v = partial_sum(1, b, Argument(sigma, t))
            want = 0.0
            for lo in range(1, b + 1, BLOCK):
                want += np.sum(np.arange(lo, min(b, lo + BLOCK - 1) + 1.0) ** -sigma)
            assert v.real == want
            assert math.copysign(1.0, v.imag) == 1.0 and v.imag == 0.0

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

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 65535, 65536, 65537])
    def test_block_edge_matches_oracle(self, n, phase_recorder):
        # sum_{k <= n} k^-s = zeta(s) - zeta(s, n + 1) (Hurwitz)
        sm = mpmath.mpc(0.5, 12345.678)
        want = complex(mpmath.zeta(sm) - mpmath.zeta(sm, n + 1))
        assert abs(partial_sum(1, n, Argument(0.5, 12345.678)) - want) < 1e-11
        assert len(phase_recorder) == -(-n // BLOCK)  # whole blocks, then the rest

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 640, BLOCK - 1, BLOCK, BLOCK + 1, 65536, 65537])
    def test_conjugate_exact(self, count):
        # both paths (short and blocked) and a block edge
        rng = random.Random(count)
        s = Argument(rng.uniform(0.0, 1.0), rng.uniform(10.0, 1e5))
        a = rng.randint(1, 100)
        b = a + count - 1
        assert partial_sum(a, b, s.conjugate()) == partial_sum(a, b, s).conjugate()

    @pytest.mark.parametrize("k", [1, 2, 15, 16, 17, 40])
    def test_conjugate_bits_from_one(self, k):
        # Both paths sum at |t| and conjugate the total once, so the sign of
        # an exactly zero imaginary part (k = 1: the lone step 1) flips too.
        rng = random.Random(k)
        ts = [3.0, TWOPI] + [rng.uniform(0.0, 1e4) for _ in range(20)]
        for t in ts:
            s = Argument(rng.uniform(-1.0, 2.0), t)
            got, want = partial_sum(1, k, s.conjugate()), partial_sum(1, k, s).conjugate()
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), s

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_head_sum_at_1e5_matches_hurwitz(self, seed):
        # a long head sum near t = 1e5, n = ceil(0.7 t) - 1 terms (the
        # oracle's own runs to about 0.45 t there)
        t = random.Random(seed).uniform(1e5, 1.02e5)
        n = math.ceil(0.7 * t) - 1
        sm = mpmath.mpc(0.5, t)
        want = complex(mpmath.zeta(sm) - mpmath.zeta(sm, n + 1))
        assert abs(partial_sum(1, n, Argument(0.5, t)) - want) < 1e-12

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            partial_sum(1, 2_000_000_000, Argument(0.5, 10.0))

    def test_table_guard_before_allocation(self, table_recorder):
        # a short range far out needs a log table up to b: 16 GB at b = 1e9
        with pytest.raises(ResourceGuardError):
            partial_sum(10**9 - 20, 10**9, Argument(0.5, 1e5))
        assert table_recorder == []

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


class TestOverflow:
    @pytest.mark.parametrize("b", [10, 40])
    def test_longest_step_overflow_is_a_domain_error(self, b, table_recorder):
        # the longest step b**400 overflows a float at either b: refused
        # before the first block asks for the log table
        with pytest.raises(DomainError, match="overflows"):
            partial_sum(1, b, Argument(-400.0, 100.0))
        assert table_recorder == []

    def test_step_sums_check_every_sigma_first(self, table_recorder):
        with pytest.raises(DomainError, match="overflows"):
            step_sums((0.5, -400.0), np.array([100.0, 200.0]), np.array([5.0, 10.0]))
        assert table_recorder == []


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
