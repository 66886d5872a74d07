"""The double-double log contract, against mpmath at 50 digits."""

import math
import random
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasteps import ddmath, gram_point, rs_theta, rs_z, z_reference
from zetasteps.ddmath import TWOPI, dd_log, log_table
from zetasteps.steps import reduced_phase
from zetasteps.symmetry import _theta_dd

TABLE_N = 500_000


def dd_error(exact, *parts):
    with mpmath.workdps(50):
        return float(abs(sum(mpmath.mpf(p) for p in parts) - exact()))


def significant_bits(x):
    m = int(math.ldexp(math.frexp(x)[0], 53))
    return m.bit_length() - (m & -m).bit_length() + 1


def log_error(x, h, l):
    return dd_error(lambda: mpmath.log(mpmath.mpf(x)), h, l)


def angle_error(exact, r):
    """Distance of r from the mpf angle exact, modulo 2*pi (in 50 digits)."""
    with mpmath.workdps(50):
        d = (exact - mpmath.mpf(r)) % (2 * mpmath.pi)
        return float(min(d, 2 * mpmath.pi - d))


def log_bound(x):
    return 4e-30 * max(1.0, abs(math.log(x)))


@pytest.mark.parametrize(
    "name, exact",
    [
        ("TWOPI", lambda: 2 * mpmath.pi),
        ("LOG_TWOPI_E", lambda: mpmath.log(2 * mpmath.pi) + 1),
        ("PI8", lambda: mpmath.pi / 8),
    ],
)
def test_dd_constants(name, exact):
    if name == "TWOPI":
        # the Cody-Waite pieces: q*C1 and q*C2 are exact for |q| < 2**31
        parts = ddmath.TWOPI_C1, ddmath.TWOPI_C2, ddmath.TWOPI_C3
        assert [significant_bits(c) <= 22 for c in parts[:2]] == [True, True]
        assert dd_error(exact, *parts) <= 1e-28
        return
    h, l = getattr(ddmath, name + "_HI"), getattr(ddmath, name + "_LO")
    assert dd_error(exact, h, l) <= 1e-32 * abs(h)


EDGES = [
    5e-324,
    sys.float_info.max,
    2.0**53 - 1,
    1.0,
    math.nextafter(1.0, 0.0),
    math.nextafter(1.0, 2.0),
    0.5,
    2.0,
    3.0,
] + [
    x
    for j in range(65)
    for knot_edge in (1 + j / 64 - 1 / 128, 1 + j / 64 + 1 / 128)
    for x in (math.nextafter(knot_edge, 0.0), knot_edge, math.nextafter(knot_edge, 4.0))
]


def test_dd_log_edges():
    bad = [x for x in EDGES if log_error(x, *dd_log(x)) > log_bound(x)]
    assert bad == []


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=2.0**-1000, max_value=2.0**1000))
def test_dd_log_sweep(x):
    assert log_error(x, *dd_log(x)) <= log_bound(x)


@pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
def test_dd_log_domain(x):
    with pytest.raises(ValueError):
        dd_log(x)


@pytest.fixture
def fresh_table(monkeypatch):
    monkeypatch.setattr(ddmath, "_log", (np.zeros(2), np.zeros(2)))
    monkeypatch.setattr(ddmath, "_whole", np.zeros((3, ddmath._LOG_STEP)))


def table_sample():
    """2000 seeded indices, 1023-1025, the BLOCK edges of a growth from
    the empty table, and the last entry."""
    idx = set(random.Random(20261018).sample(range(2, TABLE_N + 1), 2000))
    idx |= {1023, 1024, 1025, TABLE_N}
    for edge in range(2, TABLE_N + 1, ddmath.BLOCK):
        idx |= {edge - 1, edge}
    return sorted(idx - {1})


def test_log_table_accuracy_and_scalar_agreement(fresh_table):
    hi, lo = log_table(TABLE_N)
    assert hi[1] == lo[1] == 0.0
    sample = table_sample()
    worst = max(log_error(n, hi[n], lo[n]) for n in sample)
    assert worst <= 1e-28
    # the kernel on one float has the table's bits (dd_log of a whole n
    # reads the table itself, so it would compare the table with itself)
    assert [ddmath._dd_log(float(n)) for n in sample] == [(hi[n], lo[n]) for n in sample]


def test_log_table_growth_is_chunk_independent(fresh_table):
    n = 3 * ddmath.BLOCK + 17
    once = log_table(n)
    ddmath._log = (np.zeros(2), np.zeros(2))
    log_table(ddmath.BLOCK + 5)
    twice = log_table(n)
    assert np.array_equal(once[0], twice[0])
    assert np.array_equal(once[1], twice[1])
    # a table already large enough is returned as it is, not copied
    assert log_table(n)[0] is twice[0]


def test_log_table_grows_in_whole_steps(fresh_table):
    # one growth serves the next _LOG_STEP - 1 slightly larger requests
    step = ddmath._LOG_STEP
    hi, lo = log_table(step + 6)
    assert len(hi) == len(lo) == 2 * step
    assert log_table(2 * step - 1)[0] is hi
    assert len(log_table(2 * step)[0]) == 3 * step


def start_table(size):
    """Make the table the first `size` entries (any size >= 2), exact."""
    hi, lo = ddmath._dd_log(np.arange(1.0, size))
    ddmath._log = (np.append(0.0, hi), np.append(0.0, lo))


B = ddmath.BLOCK


@pytest.mark.parametrize("size, nmax", [
    # fresh builds around BLOCK and 2*BLOCK
    *[(2, n) for n in (B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1)],
    (2, 3),
    (65_536, 69_631),  # nmax < 2*size: every odd core has one new entry
    (1_024, 70_655),  # nmax >= 2*size: cores below size start at m*2^i
    (1_537, 5_000),  # odd sizes
    (4_097, 3 * B + 17),
])
def test_log_table_growth_is_the_kernel_bit_for_bit(fresh_table, size, nmax):
    start_table(size)
    hi, lo = log_table(nmax)
    want_hi, want_lo = ddmath._dd_log(np.arange(size, len(hi), dtype=float))
    assert np.array_equal(hi[size:], want_hi)
    assert np.array_equal(lo[size:], want_lo)


@pytest.mark.parametrize("size, nmax, parts", [
    (2, 70_655, 35_328),  # the odd m <= 70,655
    (65_536, 69_631, 4_096),  # nmax < 2*size: one per entry
])
def test_log_table_shares_each_odd_core(fresh_table, monkeypatch, size, nmax, parts):
    # atanh and the rest of the mantissa work run once per odd core m and
    # serve m*2^i for every i; a growth that lost the sharing would pass
    # every new entry here.
    start_table(size)
    seen, parts_of = [], ddmath._log_parts

    def counting(x):
        seen.append(len(x))
        return parts_of(x)

    monkeypatch.setattr(ddmath, "_log_parts", counting)
    assert len(log_table(nmax)[0]) == nmax + 1
    assert sum(seen) == parts
    assert max(seen) <= ddmath.BLOCK


def test_log_table_growth_from_threads(fresh_table):
    # The package starts no thread, but a library caller may: every thread
    # must see a complete table however the growths interleave.
    sizes = [ddmath.BLOCK * k + 3 for k in (1, 3, 2, 4, 1, 3)]
    want = log_table(max(sizes))[0]
    ddmath._log = (np.zeros(2), np.zeros(2))
    errors = []

    def grow(n):
        try:
            hi, lo = log_table(n)
            assert len(hi) > n and np.array_equal(hi[: n + 1], want[: n + 1])
        except Exception as exc:  # recorded for the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(n,)) for n in sizes]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


def test_mod_twopi_tiny_negative_is_zero():
    # r = -1e-20 + 2*pi rounds to 2*pi; the result must still lie in [0, 2*pi)
    assert ddmath.mod_twopi(-1e-20, 0.0) == 0.0
    assert reduced_phase(1e-20, 2) == 0.0


def test_mod_twopi_scalar_matches_array_near_multiples():
    rng = np.random.default_rng(20261018)
    k = rng.integers(-1000, 1001, size=4000).astype(float)
    k[:1000] = 0.0
    offset = rng.uniform(-1e-15, 1e-15, size=k.size)
    offset[::2] *= 10.0 ** -rng.integers(1, 30, size=offset[::2].size)
    twopi_hi, twopi_lo = 6.283185307179586, 2.4492935982947064e-16  # 2*pi as a dd pair
    ph = k * twopi_hi + offset
    pl = k * twopi_lo * rng.uniform(0.0, 2.0, size=k.size)
    # and k near +-(2**31 - 1), the largest |q| for which q*C1 and q*C2 stay exact
    edge = (2.0**31 - 1.0 - rng.integers(0, 100, size=400)) * np.repeat([1.0, -1.0], 200)
    ph = np.concatenate([ph, edge * twopi_hi])
    pl = np.concatenate([pl, edge * twopi_lo * rng.uniform(0.0, 2.0, size=edge.size)])
    arr = ddmath.mod_twopi(ph, pl)
    scal = np.array([ddmath.mod_twopi(float(h), float(l)) for h, l in zip(ph, pl)])
    assert np.all((arr >= 0.0) & (arr < ddmath.TWOPI))
    assert np.array_equal(scal, arr)
    with mpmath.workdps(50):
        exact = [mpmath.mpf(h) + mpmath.mpf(l) for h, l in zip(ph[-400:], pl[-400:])]
        worst = max(angle_error(e, r) for e, r in zip(exact, arr[-400:]))
    assert worst <= 2e-15  # two ulps of 2*pi


def test_dd_log_whole_reads_a_covering_table(fresh_table):
    # a batch the table covers reads it: the kernel's bits, and no growth
    log_table(5000)
    table = ddmath._log
    n = np.array([2.0, 3.0, 1023.0, 4096.0, 5119.0, 17.0, 17.0])
    hi, lo = ddmath.dd_log_whole(n)
    want_hi, want_lo = ddmath._dd_log(n)
    assert np.array_equal(hi, want_hi) and np.array_equal(lo, want_lo)
    assert ddmath._log is table
    nd = n[:6].reshape(2, 3)
    assert [x.shape for x in ddmath.dd_log_whole(nd)] == [(2, 3), (2, 3)]


@pytest.mark.parametrize("n", [
    [1000.0, 1023.0, 1024.0],  # straddles the table's end
    [1024.0, 70_000.0],  # past it
    [],
])
def test_dd_log_whole_takes_the_kernel_past_the_table(fresh_table, monkeypatch, n):
    log_table(1000)
    table, calls, kernel = ddmath._log, [], ddmath._dd_log

    def counting(x):
        calls.append(x.size)
        return kernel(x)

    monkeypatch.setattr(ddmath, "_dd_log", counting)
    hi, lo = ddmath.dd_log_whole(np.array(n))
    want_hi, want_lo = kernel(np.array(n))
    assert np.array_equal(hi, want_hi) and np.array_equal(lo, want_lo)
    assert calls == ([len(n)] if n else [])  # an empty batch has nothing to miss
    assert ddmath._log is table and len(table[0]) == 1024
    # the same batch again reads the memo: no kernel
    again = ddmath.dd_log_whole(np.array(n))
    assert np.array_equal(again[0], want_hi) and np.array_equal(again[1], want_lo)
    assert len(calls) == bool(n)


def dd_log_whole_counting(monkeypatch):
    """Route dd_log_whole's kernel through a counter; returns the list of
    batch sizes it ran on and the kernel itself."""
    calls, kernel = [], ddmath._dd_log

    def counting(x):
        calls.append(np.size(x))
        return kernel(x)

    monkeypatch.setattr(ddmath, "_dd_log", counting)
    return calls, kernel


def assert_memo_is_the_kernel(kernel=ddmath._dd_log):
    """Every filled slot of the memo holds its own n, with the kernel's bits."""
    keys, hi, lo = ddmath._whole
    full = np.flatnonzero(keys)
    assert np.array_equal(keys[full] % ddmath._LOG_STEP, full)
    want_hi, want_lo = kernel(keys[full])
    assert np.array_equal(hi[full], want_hi) and np.array_equal(lo[full], want_lo)


def test_dd_log_whole_runs_the_kernel_only_on_a_miss(fresh_table, monkeypatch):
    log_table(1000)
    calls, kernel = dd_log_whole_counting(monkeypatch)
    first = np.array([[100_003.0, 99_999.0], [100_003.0, 100_003.0]])
    hi, lo = ddmath.dd_log_whole(first)
    assert calls == [4] and hi.shape == lo.shape == (2, 2)
    # a converging bracket: one new integer beside ones seen before
    n = np.array([99_999.0, 100_000.0, 100_003.0, 99_999.0])
    hi, lo = ddmath.dd_log_whole(n)
    want_hi, want_lo = kernel(n)
    assert calls == [4, 4]
    assert np.array_equal(hi, want_hi) and np.array_equal(lo, want_lo)
    for k in range(3):  # repeats of any of them, past the table
        hi, lo = ddmath.dd_log_whole(n[k:])
        assert np.array_equal(hi, want_hi[k:]) and np.array_equal(lo, want_lo[k:])
    assert calls == [4, 4]
    assert_memo_is_the_kernel(kernel)


def test_dd_log_of_a_whole_float_reads_the_one_store(fresh_table, monkeypatch):
    # dd_log of a whole x reads dd_log_whole: two table entries inside the
    # table, one memo slot past it, the kernel on a miss; Python floats with
    # the kernel's bits either way.  Any other x runs the kernel, uncached.
    log_table(1000)
    table = ddmath._log
    calls, kernel = dd_log_whole_counting(monkeypatch)
    past = [1_000_003.0, 2.0**60, 1_000_003.0 + 7 * ddmath._LOG_STEP]  # the last evicts the first
    for x in [2, 17.0, 1023, *past, 1_000_003.0, 2.0**60, 2.5, 2.5]:
        got = dd_log(x)
        assert got == kernel(float(x)) and [type(w) for w in got] == [float, float], x
    assert calls == [1, 1, 1, 1, 1, 1]  # the three past the table, the evicted one, 2.5 twice
    assert ddmath._log is table and len(table[0]) == 1024
    assert_memo_is_the_kernel(kernel)


STEP = ddmath._LOG_STEP


@pytest.mark.parametrize("batches, misses", [
    ([np.arange(1e6, 1e6 + B + 1)], [B + 1]),  # more distinct misses than BLOCK
    # n and n + k*_LOG_STEP share a slot, in one batch and across calls
    ([np.array([2e5, 2e5 + STEP, 2e5 + 3 * STEP, 2e5, 2e5 + STEP])], [5]),
    ([np.array([2e5]), np.array([2e5 + STEP, 7e5]), np.array([2e5, 7e5])], [1, 2, 2]),
])
def test_dd_log_whole_past_the_memo_size(fresh_table, monkeypatch, batches, misses):
    # each batch gets the kernel's bits, and each slot keeps one n
    log_table(1000)
    rng = np.random.default_rng(20261020)
    calls, kernel = dd_log_whole_counting(monkeypatch)
    for n in batches:
        n = rng.permutation(n)
        hi, lo = ddmath.dd_log_whole(n)
        want_hi, want_lo = kernel(n)
        assert np.array_equal(hi, want_hi) and np.array_equal(lo, want_lo)
        assert_memo_is_the_kernel(kernel)
    assert calls == misses


def test_dd_log_whole_from_threads(fresh_table):
    # threads share the memo: however their updates interleave, and
    # whichever of them is lost, every result has the kernel's bits.  Float
    # lookups (dd_log of whole floats) hit the same slots as the batches.
    log_table(1000)
    rng = np.random.default_rng(20261020)
    batches = [np.rint(rng.uniform(1e5, 1e5 + 3000, size)) for size in (2, 5, 300, 2, 40, B, 7, 1)]
    batches += batches[::-1]
    errors = []

    def look_up(n):
        try:
            for _ in range(5):
                hi, lo = ddmath.dd_log_whole(n)
                want_hi, want_lo = ddmath._dd_log(n)
                assert np.array_equal(hi, want_hi) and np.array_equal(lo, want_lo)
        except Exception as exc:  # recorded for the main thread
            errors.append(exc)

    def look_up_floats(n):
        try:
            for _ in range(5):
                for x in n.tolist():
                    assert dd_log(x) == ddmath._dd_log(x), x
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=look_up, args=(n,)) for n in batches]
        threads += [threading.Thread(target=look_up_floats, args=(n,)) for n in batches if n.size <= 300]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert_memo_is_the_kernel()


def test_scalar_theta_past_the_table_keeps_memory_flat(fresh_table):
    # 10,000 distinct round(t) past the table share the 1,024-slot memo, so
    # traced memory stays flat; a 200,000-entry lru_cache of scalar logs
    # grew it by about 2.6 MB here
    log_table(1000)
    ts = (200_000.3 + np.arange(10_000.0)).tolist()
    rs_theta(ts[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in ts:
            rs_theta(t)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1e6, grown


def test_theta_of_a_covered_batch_is_its_float_calls(fresh_table):
    log_table(1000)
    ts = np.concatenate([[TWOPI, 1022.5], np.random.default_rng(20261027).uniform(TWOPI, 1022.0, 500)])
    table = ddmath._log
    assert np.array_equal(np.array([_theta_dd(float(t)) for t in ts]).T, _theta_dd(ts))
    assert ddmath._log is table


# ddmath calls of one warm call, as counted at the change that made theta
# read the cached dd_log or the table (the kernel path took 74, 74, 136, 74;
# the batch past the table took 75 before the memo of whole-number logs).
# One float now reads dd_log_whole: the table, or past it the memo.
THETA_CALL_BUDGETS = {
    "rs_z": (lambda: rs_z(1000.3), 26),
    "z_reference": (lambda: z_reference(1000.3), 26),
    "gram_point": (lambda: gram_point(1000), 40),
    "rs_z_batch": (lambda: rs_z(np.random.default_rng(20261027).uniform(100.0, 240.0, 100)), 26),
    # past the table: a zero search near 1e5 asks again for the integers
    # of its last call, which the memo holds
    "rs_z_batch_past_the_table": (lambda: rs_z(np.array([100_000.37, 100_000.71])), 26),
    "rs_theta_past_the_table": (lambda: rs_theta(123456.7), 20),
}


@pytest.mark.parametrize("name", sorted(THETA_CALL_BUDGETS))
def test_theta_runs_no_log_kernel_on_a_float_or_a_covered_batch(fresh_table, ddmath_calls, name):
    # one float or a batch below the table's 1024 entries reads the table,
    # and one past it whose integers the warm-up asked for reads the memo:
    # none runs _log_parts
    call, budget = THETA_CALL_BUDGETS[name]
    log_table(1000)
    seen = ddmath_calls(call)
    assert seen["_log_parts"] == 0, seen
    assert sum(seen.values()) <= budget, seen
    assert len(ddmath._log[0]) == 1024
