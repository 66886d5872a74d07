"""Gram points, sign-change scanning, refinement, offset statistics."""

import math
import sys
import threading
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasteps import (
    Argument,
    DomainError,
    ResourceGuardError,
    eval_reference,
    find_zeros,
    gram_offsets,
    gram_point,
    histogram,
    refine_zero,
    rs_theta,
    rs_z,
    scan_z_sign_changes,
    z_reference,
    zero_count_main,
)
from zetasteps.cli import main
from zetasteps.evaluators import _rs_bound
from zetasteps.export import export_zeros
from zetasteps.zeros import gram_indices

zeros_module = sys.modules["zetasteps.zeros"]

mpmath.mp.dps = 30

# first three ordinates from the independent mpmath zero oracle
FIRST_ZEROS = [float(mpmath.zetazero(k).imag) for k in (1, 2, 3)]


class TestGramPoints:
    def test_first_two(self):
        assert gram_point(0) == pytest.approx(17.8455995, abs=1e-6)
        assert gram_point(1) == pytest.approx(23.1702827, abs=1e-6)

    def test_defining_relation(self):
        for n in (0, 1, 10, 100, 1000, 5000):
            g = gram_point(n)
            assert abs(rs_theta(g) - n * math.pi) < 1e-10

    def test_monotone(self):
        ts = [gram_point(n) for n in range(0, 1001, 7)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            gram_point(-1)

    def test_batch_matches_int_calls_and_mpmath(self):
        # g_0 .. g_200,000 in one call; an int call costs about 1 ms, so
        # the per-N check takes the ends, the five N whose bits moved by 1
        # ulp from the scalar Newton loop, 2**19/pi and 200 seeded N
        g = gram_point(np.arange(200_001))
        assert np.all(np.diff(g) > 0.0)
        rng = np.random.default_rng(20261019)
        for n in [0, 1, 4550, 127_293, 139_595, 184_196, 193_549, 166_886, 200_000,
                  *rng.integers(0, 200_001, 200).tolist()]:
            assert gram_point(n).hex() == float(g[n]).hex(), n
        seeded = np.sort(rng.integers(0, 30_000_001, 40))
        for n, t in zip(seeded.tolist(), gram_point(seeded).tolist()):
            assert abs(t - float(mpmath.grampoint(n))) < 1e-6, n

    # Above N*pi = 2**19 (N >= 166,886), ulp(theta) exceeds 1e-10; Newton
    # must stop within a few ulp(N*pi) instead.
    @pytest.mark.parametrize("n", [166_890, 298_198, 1_000_003, 30_000_000])
    def test_above_two_to_the_19(self, n):
        assert abs(gram_point(n) - float(mpmath.grampoint(n))) < 1e-6

    @pytest.mark.parametrize("t_lo", [1.2e5, 2e5])
    def test_find_zeros_above_two_to_the_19(self, t_lo):
        t_hi = t_lo + 2.0
        records = find_zeros(t_lo, t_hi)
        assert len(records) == mpmath.nzeros(t_hi) - mpmath.nzeros(t_lo)
        for rec in records:
            assert t_lo <= rec.t <= t_hi
            assert mpmath.siegelz(rec.t - 1e-6) * mpmath.siegelz(rec.t + 1e-6) < 0


class TestGramIndices:
    def test_inclusive_at_exact_gram_points(self):
        g = [gram_point(n) for n in range(6)]
        assert list(gram_indices(g[1], g[4])) == [1, 2, 3, 4]
        assert list(gram_indices(g[2], g[2])) == [2]
        inside = (math.nextafter(g[1], math.inf), math.nextafter(g[4], 0.0))
        assert list(gram_indices(*inside)) == [2, 3]
        assert list(gram_indices(10.0, g[0])) == [0]
        assert list(gram_indices(10.0, 17.0)) == []
        assert list(gram_indices(g[3], g[2])) == []

    @pytest.mark.parametrize("n, m", [(0, 4), (3, 40), (1000, 1003)])
    def test_scan_between_gram_points(self, n, m):
        # the first grid runs over the Gram points g_{n-1} .. g_{m+1} (from
        # g_0 when n = 0): an end that is a Gram point must not give a
        # zero-width interval (a repeated grid point)
        grids = []

        def z(ts):
            grids.append(ts.copy())
            return rs_z(ts)

        scan_z_sign_changes(gram_point(n), gram_point(m), z)
        grid = grids[0]
        assert np.all(np.diff(grid) > 0.0)
        want = [gram_point(k) for k in range(max(n - 1, 0), m + 2)]
        assert grid.tolist() == want
        assert grid.tolist().count(gram_point(n)) == 1
        assert grid.tolist().count(gram_point(m)) == 1


class TestScan:
    def test_first_three_zeros_bracketed(self):
        brackets = scan_z_sign_changes(10.0, 30.0, z=z_reference)
        for want in FIRST_ZEROS:
            assert any(lo <= want <= hi for lo, hi in brackets)
        # the batched rs_z scan yields one bracket apiece as well
        fast = scan_z_sign_changes(10.0, 30.0)
        assert len(fast) == len(brackets) == 3
        for want, (lo, hi) in zip(FIRST_ZEROS, sorted(fast)):
            assert lo - 0.25 <= want <= hi + 0.25

    def test_single_zero_between_first_gram_points(self):
        g0, g1 = gram_point(0), gram_point(1)
        assert len(scan_z_sign_changes(g0, g1)) == 1

    # Gram blocks that hold close pairs (5229.2-5229.5) and the Lehmer pair
    # near 7005.06: a grid of 8 steps per Gram interval missed two zeros in
    # each of the wider windows and two of the three in the narrow one
    @pytest.mark.parametrize("window", [(5220.0, 5240.0), (7000.0, 7010.0), (7004.0, 7006.5)])
    def test_rosser_blocks_count_every_zero(self, window):
        records = find_zeros(*window)
        assert len(records) == mpmath.nzeros(window[1]) - mpmath.nzeros(window[0])
        for rec in records:
            assert mpmath.siegelz(rec.t - 1e-6) * mpmath.siegelz(rec.t + 1e-6) < 0

    @pytest.mark.parametrize("window", [(15.0, 30.0), (10.0, 2000.0), (7004.0, 7006.5)])
    def test_at_most_six_calls(self, window):
        # one call on the Gram grid, then one per halving of the short
        # blocks; the block [15, g_0] counts one Gram interval but holds no
        # zero (the first is at 14.13), so it takes every halving
        calls = []

        def z(ts):
            calls.append(len(ts))
            return rs_z(ts)

        scan_z_sign_changes(*window, z)
        assert len(calls) <= 6
        if window[0] == 15.0:
            assert len(calls) == 6

    def test_empty_range(self):
        assert scan_z_sign_changes(20.0, 20.0) == []

    def test_zero_free_window(self):
        # no scan bracket, so the solve and the certificate each call rs_z
        # on an empty batch, which must pass the t >= 2pi check
        assert find_zeros(15.0, 20.0) == []
        empty = rs_z(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_domain(self):
        with pytest.raises(DomainError):
            scan_z_sign_changes(1.0, 30.0)


class TestScanGuard:
    def test_refused_before_any_gram_point(self, gram_recorder):
        # 2.48e8 Gram intervals: about 8 GB of edges and 18 GB of grid
        with pytest.raises(ResourceGuardError):
            find_zeros(10.0, 1e8)
        with pytest.raises(ResourceGuardError):
            scan_z_sign_changes(10.0, 1e8)
        assert gram_recorder == []

    @pytest.mark.parametrize("argv", [
        ("zeros", "--t-lo", "10", "--t-hi", "1e8"),
        ("histogram", "--count", "100000000"),
    ])
    def test_cli_exit_three(self, gram_recorder, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "resource guard" in captured.err and captured.out == ""
        assert not out.exists()
        assert gram_recorder == []

    def test_threshold_counts_gram_intervals(self, gram_recorder, monkeypatch):
        # theta(t)/pi runs from -0.98 at t = 10 to N at g_N
        monkeypatch.setattr(zeros_module, "SCAN_GUARD", 20)
        assert len(find_zeros(10.0, gram_point(18))) == 19
        with pytest.raises(ResourceGuardError):
            find_zeros(10.0, gram_point(20))


class TestRefine:
    def test_first_zero(self):
        rec = refine_zero((14.0, 14.2), 1e-6)
        assert rec.t == pytest.approx(FIRST_ZEROS[0], abs=1e-6)

    def test_second_zero(self):
        rec = refine_zero((21.0, 21.1), 1e-6)
        assert rec.t == pytest.approx(FIRST_ZEROS[1], abs=1e-6)

    def test_tol_equals_width(self):
        rec = refine_zero((14.0, 14.2), 0.2)
        assert rec.t == pytest.approx(14.1, abs=1e-12)

    def test_non_bracketing_rejected(self):
        with pytest.raises(DomainError):
            refine_zero((15.0, 17.0), 1e-6)  # Z has one sign there
        with pytest.raises(DomainError):
            refine_zero((15.0, 15.1), 0.2)  # no wider than tol: checked too

    def test_tol_floor(self):
        with pytest.raises(DomainError):
            refine_zero((14.0, 14.2), 1e-12)


class TestCounting:
    def test_gram_point_count_identity(self):
        for n in (0, 5, 50):
            assert zero_count_main(gram_point(n)) == pytest.approx(n + 1, abs=1e-9)

    def test_count_to_100(self):
        zeros = find_zeros(10.0, 100.0)
        assert len(zeros) == 29
        assert abs(zero_count_main(100.0) - 29) <= 2

    def test_monotone(self):
        vals = [zero_count_main(t) for t in (20.0, 50.0, 200.0, 1000.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestPipeline:
    def test_zeros_are_certified_by_oracle(self):
        zeros = find_zeros(10.0, 60.0)
        for rec in zeros:
            assert rec.residual < 1e-5
            assert abs(eval_reference(Argument(0.5, rec.t)).value) < 1e-5

    def test_no_duplicates(self):
        zeros = find_zeros(10.0, 120.0, tol=1e-8)
        for a, b in zip(zeros, zeros[1:]):
            assert b.t - a.t > 1e-7
            assert b.ordinal == a.ordinal + 1

    def test_worker_invariance(self):
        a = find_zeros(10.0, 80.0, workers=1)
        b = find_zeros(10.0, 80.0, workers=4)
        assert [(r.ordinal, r.t) for r in a] == [(r.ordinal, r.t) for r in b]

    def test_zero_search_starts_no_thread(self, monkeypatch, capsys):
        argv = ["histogram", "--count", "20", "--workers"]
        want_zeros = find_zeros(10.0, 80.0, workers=1)
        assert main(argv + ["1"]) == 0
        want_rows = capsys.readouterr().out

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert find_zeros(10.0, 80.0, workers=4) == want_zeros
        assert main(argv + ["4"]) == 0
        assert capsys.readouterr().out == want_rows

    def test_restarted_scan_ordinals(self):
        # scanning a later window yields globally consistent ordinals
        tail = find_zeros(40.0, 60.0)
        whole = find_zeros(10.0, 60.0)
        offset = len([r for r in whole if r.t < 40.0])
        got = [(r.ordinal, round(r.t, 6)) for r in tail]
        want = [(r.ordinal, round(r.t, 6)) for r in whole if r.t >= 40.0]
        assert got == want
        assert got[0][0] == offset + 1


def _instrument(monkeypatch, fn, wrapper):
    """Put wrapper in place of fn wherever zetasteps holds it: module
    attributes and default arguments bound at definition (scan's z=rs_z)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "zetasteps" or name.startswith("zetasteps.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, wrapper)
            elif isinstance(value, types.FunctionType) and any(
                d is fn for d in value.__defaults__ or ()
            ):
                monkeypatch.setattr(value, "__defaults__", tuple(
                    wrapper if d is fn else d for d in value.__defaults__
                ))


class TestOneGramSolve:
    def test_search_solves_once_and_reads_no_bracket_end_again(self, monkeypatch):
        # the scan's Gram window serves the grid and every record, and its
        # rs_z values at the bracket ends seed the solve: after the scan,
        # rs_z takes none of those ends (the parent took 2 per bracket)
        t_hi = gram_point(1002)
        solves, after_scan, brackets, in_scan = [], [], [], [False]

        def counted(n):
            solves.append(np.size(n))
            return gram_point(n)

        def fast(t):
            if not in_scan[0]:
                after_scan.extend(np.ravel(t).tolist())
            return rs_z(t)

        def scan(*args, **kwargs):
            in_scan[0] = True
            try:
                found = scan_z_sign_changes(*args, **kwargs)
            finally:
                in_scan[0] = False
            brackets.extend(found)
            return found

        _instrument(monkeypatch, gram_point, counted)
        _instrument(monkeypatch, rs_z, fast)
        _instrument(monkeypatch, scan_z_sign_changes, scan)
        records = find_zeros(10.0, t_hi)
        assert len(records) == 1003 and len(brackets) >= 1003
        assert len(solves) == 1
        assert after_scan and not {t for b in brackets for t in b} & set(after_scan)


class TestOneStageRefine:
    @pytest.mark.parametrize("window, ns", [((527.0, 529.0), (289, 290)),
                                            ((711.0, 712.5), (423, 424))])
    def test_widening_window(self, window, ns):
        # the first-order rs_z missed these oracle sign changes by 2.7e-5
        # and 1.1e-4; the C0-C4 roots fall within tol/2 of them, so each
        # zero is certified by two oracle calls
        got = [r.t for r in find_zeros(*window, workers=1)]
        want = [float(mpmath.zetazero(n).imag) for n in ns]
        assert len(got) == len(want)
        for t, w in zip(got, want):
            assert abs(t - w) <= 1e-8

    def test_forced_fallback(self, monkeypatch, gram_recorder):
        # an rs_z off by 1e-3 moves each estimate by ~1e-3: the oracle check
        # and its secant re-check fail, and every zero comes from the
        # fallback, refine_zero's unplaced solve on the (widened) scan
        # bracket; find_zeros places every record on the scan's Gram
        # window, the one Gram solve of the search
        fallbacks = []
        solve = zeros_module._refined

        def counted(bracket, tol):
            fallbacks.append(bracket)
            return solve(bracket, tol)

        monkeypatch.setattr(zeros_module, "rs_z", lambda t: rs_z(t) + 1e-3)
        monkeypatch.setattr(zeros_module, "_refined", counted)
        records = find_zeros(10.0, 60.0)
        want = [float(mpmath.zetazero(n).imag) for n in range(1, 14)]
        assert len(records) == len(fallbacks) == len(want)
        assert len(gram_recorder) == 1
        for rec, w in zip(records, want):
            assert abs(rec.t - w) <= 1e-8
            assert rec.residual == abs(z_reference(rec.t))

    def test_call_budget(self, monkeypatch):
        calls = {"oracle": 0, "points": 0, "fallback": 0, "rs_scan": 0, "rs_other": 0}
        in_scan = [False]

        def oracle(t):
            calls["oracle"] += 1
            calls["points"] += np.size(t)
            return z_reference(t)

        def fast(t):
            calls["rs_scan" if in_scan[0] else "rs_other"] += 1
            return rs_z(t)

        def scan(*args, **kwargs):
            in_scan[0] = True
            try:
                return scan_z_sign_changes(*args, **kwargs)
            finally:
                in_scan[0] = False

        solve = zeros_module._refined

        def fallback(bracket, tol):
            calls["fallback"] += 1
            return solve(bracket, tol)

        _instrument(monkeypatch, z_reference, oracle)
        _instrument(monkeypatch, rs_z, fast)
        _instrument(monkeypatch, scan_z_sign_changes, scan)
        _instrument(monkeypatch, solve, fallback)
        t_hi = gram_point(110)
        records = find_zeros(10.0, t_hi, workers=1)
        found = dict(calls)
        assert len(records) >= 100
        # two oracle points certify a zero; low ordinates, where C0-C4 is
        # only 1e-7 accurate, take a secant step and two more
        assert 2 * len(records) <= found["points"] <= 3 * len(records)
        # one batch for every first check and one for the secant re-checks
        assert found["fallback"] == 0 and found["oracle"] <= 2
        assert found["rs_scan"] > 0 and found["rs_scan"] + found["rs_other"] <= 40
        rows = list(export_zeros(t_hi=t_hi))
        assert calls["points"] == 2 * found["points"]  # the search again, nothing more
        assert [r[4] for r in rows] == [r.residual for r in records]
        monkeypatch.undo()
        for rec in records:
            want = abs(eval_reference(Argument(0.5, rec.t)).value)
            if rec.certificate == "oracle":
                assert abs(rec.residual - want) <= 1e-9
            else:  # |rs_z| beyond B(t), and within B(t) of |Z|
                bound = _rs_bound(rec.t)
                assert rec.residual > bound
                assert abs(rec.residual - want) <= bound + 1e-10


class TestCertificateRoutes:
    @pytest.mark.parametrize("t_lo", [1e5, 1e6])
    def test_bound_decides_without_the_oracle(self, monkeypatch, t_lo):
        # every zero is certified by rs_z beyond its bound B(t): no oracle call
        calls = []

        def oracle(t):
            calls.append(t)
            return z_reference(t)

        _instrument(monkeypatch, z_reference, oracle)
        tol = 1e-8
        records = find_zeros(t_lo, t_lo + 3.0, tol=tol)
        assert calls == []
        assert len(records) == mpmath.nzeros(t_lo + 3.0) - mpmath.nzeros(t_lo)
        with mpmath.workdps(20):
            for rec in records:
                assert rec.certificate == "rs_bound"
                assert mpmath.siegelz(rec.t - tol) * mpmath.siegelz(rec.t + tol) < 0

    def test_oracle_below_two_hundred(self):
        # B(t) is +inf below t = 200, where Gabcke's bound is not stated
        records = find_zeros(150.0, 260.0)
        low = [r for r in records if r.t < 200.0]
        assert low and all(r.certificate == "oracle" for r in low)
        assert any(r.certificate == "rs_bound" for r in records if r.t > 200.0)


class TestOffsets:
    def test_offset_at_midpoint_and_endpoint(self):
        g0, g1 = gram_point(3), gram_point(4)
        # offsets are computed inside the pipeline; verify the formula directly
        from zetasteps.zeros import ZeroRecord, _placed

        def offset(t):
            return _placed([ZeroRecord(0, t, -1, math.nan)])[0].scaled_offset

        assert offset(0.5 * (g0 + g1)) == pytest.approx(0.0, abs=1e-9)
        assert abs(offset(g1)) == pytest.approx(1.0, abs=1e-9)

    def test_pre_gram_zero_flagged(self):
        zeros = find_zeros(10.0, 20.0)
        assert zeros[0].gram_index == -1
        assert math.isnan(zeros[0].scaled_offset)
        assert gram_offsets(zeros) == []

    def test_histogram_shapes(self):
        centers, counts = histogram([-0.5, -0.1, 0.0, 0.1, 0.2, 0.5], 3)
        assert len(centers) == len(counts) == 3
        assert sum(counts) == 6
        c1, k1 = histogram([0.3, -0.2], 1)
        assert k1[0] == 2

    def test_histogram_domain(self):
        with pytest.raises(DomainError):
            histogram([0.1], 0)
