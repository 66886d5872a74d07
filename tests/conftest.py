"""Shared fixtures."""

import collections
import sys

import numpy as np
import pytest

from zetasteps import ddmath, evaluators, export, steps, zeros

TABLE_GUARD_ENTRIES = 100_000_000  # 1.6 GB of dd log table


@pytest.fixture
def table_recorder(monkeypatch):
    """Replace the step kernel's log table with a tiny one that fails the
    test on any request above the 1e8-entry guard, so a guard that comes
    too late allocates nothing.  Yields the list of requested sizes."""
    seen = []

    def log_table(nmax):
        seen.append(nmax)
        assert nmax <= TABLE_GUARD_ENTRIES, f"log table of {nmax} entries requested"
        return np.zeros(1), np.zeros(1)

    monkeypatch.setattr(steps, "log_table", log_table)
    yield seen


@pytest.fixture
def gram_recorder(monkeypatch):
    """Count the Gram points solved through `zetasteps.zeros` (np.size of
    each request) and fail past 1,000, so a guard that comes too late fails
    before it solves its range.  Yields the list of requests."""
    calls = []
    gram_point = zeros.gram_point

    def recorder(n):
        calls.append(n)
        assert sum(map(np.size, calls)) <= 1000, "solved more than 1,000 Gram points"
        return gram_point(n)

    monkeypatch.setattr(zeros, "gram_point", recorder)
    yield calls


@pytest.fixture
def phase_recorder(monkeypatch):
    """Record the (rows, columns) of every block the step kernel yields to
    steps, evaluators and export, and fail any block, one row included, of
    more than ddmath.BLOCK entries besides its lookahead columns, so a
    batch that outgrows its block fails without holding it.  Yields the
    list of shapes."""
    shapes = []
    phase_blocks = steps.phase_blocks

    def recorder(*args, **kwargs):
        for lo, hi, phases in phase_blocks(*args, **kwargs):
            rows, cols = phases.shape if phases.ndim == 2 else (1, phases.size)
            shapes.append((rows, cols))
            assert rows * (hi - lo + 1) <= ddmath.BLOCK, f"{rows} x {cols} phase block"
            yield lo, hi, phases

    for module in (steps, evaluators, export):
        monkeypatch.setattr(module, "phase_blocks", recorder)
    yield shapes


@pytest.fixture
def ddmath_calls():
    """Count the Python-level calls into zetasteps/ddmath.py, by function
    name, that `record(fn)` sees while fn runs (sys.setprofile), after one
    warm-up call of fn, so the log table and the memo of whole-number logs
    are warm.
    Yields record, which returns the counts as a collections.Counter."""
    def record(fn):
        fn()
        seen = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == ddmath.__file__:
                seen[frame.f_code.co_name] += 1

        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(old)
        return seen

    yield record
