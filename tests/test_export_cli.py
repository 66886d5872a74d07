"""Exporters and the command-line front end: formats, row counts,
determinism, exit codes."""

import hashlib
import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import zetasteps
from zetasteps import export as ex
from zetasteps import symmetry
from zetasteps import (
    Argument,
    DomainError,
    ResourceGuardError,
    angle_diffs,
    eval_em_paper,
    eval_reference,
    eval_symmetric,
    frame_of,
    gram_point,
    partial_sum,
    write_rows,
)
from zetasteps.cli import EVAL_HEADER, build_parser, main
from zetasteps.ddmath import BLOCK
from zetasteps.export import (
    CONJUGATE_HEADER,
    GRAM_HEADER,
    HISTOGRAM_HEADER,
    LIMACON_HEADER,
    LOOPS_HEADER,
    STEPPLOT_HEADER,
    SURFACE_HEADER,
    ZEROS_HEADER,
    export_gram,
    export_histogram,
    export_limacon,
    export_loops,
    export_stepplot,
    export_surface,
    export_zeros,
)
from zetasteps.symmetry import symmetric_parts

TWOPI = 2.0 * math.pi
# child interpreters import the same zetasteps as this process, installed or not
SRC_DIR = os.path.dirname(os.path.dirname(zetasteps.__file__))
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC_DIR, os.environ.get("PYTHONPATH")))),
}


# every subcommand at the README's arguments, made small
README_RUNS = [
    ("eval", "--sigma", "0.5", "--t", "1000", "--algorithm", "reference"),
    ("zeros", "--t-lo", "10", "--t-hi", "100"),
    ("gram", "--t-lo", "10", "--t-hi", "100"),
    ("conjugate", "--t", "62831.85", "--n-lo", "2", "--n-hi", "5"),
    ("stepplot", "--t", "62831.85", "--decimation", "10"),
    ("limacon", "--t-lo", "1419", "--t-hi", "1424", "--samples", "50"),
    ("surface", "--t-lo", "124", "--t-hi", "129", "--n-sigma", "5", "--n-t", "11"),
    ("loops", "--sigma", "0.5,0.505", "--t-lo", "2000", "--t-hi", "2010", "--samples", "50"),
    ("histogram", "--count", "100", "--bins", "21"),
]


def render(header, rows, fmt="csv"):
    buf = io.StringIO()
    write_rows(buf, header, rows, fmt)
    return buf.getvalue()


def token_rule(v, json=False):
    """The per-value rule write_rows replaced, kept as the reference."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return '"' + v + '"' if json else v
    x = float(v)
    if json and math.isnan(x):
        return "null"
    return f"{x:.15g}"


def render_by_token_rule(header, rows, fmt):
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(token_rule(v) for v in row) for row in rows]
    else:
        lines = ["{" + ",".join(f'"{k}":{token_rule(v, json=True)}' for k, v in zip(header, row))
                 + "}" for row in rows]
    return "".join(line + "\n" for line in lines)


class TestWriters:
    def test_csv_header_and_digits(self):
        text = render(("a", "b"), [(1, 1.0 / 3.0)])
        lines = text.splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.333333333333333"

    def test_json_lines_field_names(self):
        text = render(("a", "b", "tag"), [(1, 0.5, "x")], fmt="json-lines")
        obj = json.loads(text.splitlines()[0])
        assert obj == {"a": 1, "b": 0.5, "tag": "x"}

    def test_nan_renders_null_in_json(self):
        text = render(("v",), [(math.nan,)], fmt="json-lines")
        assert json.loads(text)["v"] is None

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            render(("a",), [(1,)], fmt="xml")

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_template_matches_token_rule(self, fmt):
        rnd = random.Random(20261018)
        numbers = [
            0, 1, -1, 7, -123456789, 999_999_999_999_999, -999_999_999_999_999,
            np.int64(-42), np.int64(10**14), True, False,
            0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
            5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1.0 / 3.0,
            np.float64(-2.5e-7), np.float64(math.nan), np.float64(123456.789),
        ]
        strings = ["", "sample", "gram", "nan", "a%sb", "x|y"]
        header = ("i", "tag", "x", "y", "note", "z")
        rows = []
        for _ in range(500):
            row = [rnd.choice(numbers) for _ in header]
            row[1], row[4] = rnd.choice(strings), rnd.choice(strings)
            row[2] = rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-320, 300)
            rows.append(tuple(row))
        assert render(header, rows, fmt) == render_by_token_rule(header, rows, fmt)
        assert render(header, [], fmt) == render_by_token_rule(header, [], fmt)
        assert render(header, [], fmt) == ("i,tag,x,y,note,z\n" if fmt == "csv" else "")

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_chunked_writes_match_token_rule(self, fmt):
        # rows go out joined, a piece of at most 16 * BLOCK cell bytes to a
        # write, the pieces of a block at most one row apart; the JSON null
        # rule holds at every join
        header, rows = ("i", "x", "tag"), [(i, math.nan if i % 7 else 0.5, "nan") for i in range(2000)]
        writes = []

        class Stream(io.StringIO):
            def write(self, text):
                writes.append(text.count("\n"))
                return super().write(text)

        stream = Stream()
        assert write_rows(stream, header, rows, fmt) == len(rows)
        assert stream.getvalue() == render_by_token_rule(header, rows, fmt)
        pieces = writes[1:] if fmt == "csv" else writes  # the CSV header goes first
        budget = 16 * BLOCK // ex._layout(header, fmt == "json-lines")[0].size  # rows a piece
        assert len(pieces) >= 3 and sum(pieces) == len(rows)
        assert max(pieces) <= budget and max(pieces) - min(pieces) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_writes_of_about_50_kb(self, fmt):
        # stepplot's rows (an int and four floats) go out some 50 KB a write,
        # each column block in pieces of at most 16 * BLOCK cell bytes that
        # are at most one row apart
        writes = []

        class Stream(io.StringIO):
            def write(self, text):
                writes.append((len(text), text.count("\n")))
                return super().write(text)

        s = Argument(0.5, TWOPI * 1e4)
        assert write_rows(Stream(), STEPPLOT_HEADER, export_stepplot(s), fmt) == 20000
        sizes, pieces = (np.array(w) for w in zip(*writes[fmt == "csv" :]))
        assert 32_000 <= np.median(sizes) <= 96_000 and sizes.max() <= 16 * BLOCK
        assert pieces.max() * ex._layout(STEPPLOT_HEADER, fmt == "json-lines")[0].size <= 16 * BLOCK
        block = (np.cumsum(pieces) - 1) // ex._SLICE  # write_rows' column block of each piece
        assert all(np.ptp(pieces[block == b]) <= 1 for b in set(block.tolist()))

    @pytest.mark.parametrize("argv", README_RUNS)
    def test_rows_keep_first_row_column_types(self, argv):
        # write_rows types each column by its first row, so every row must
        # have the first row's str-or-number column types
        args = build_parser().parse_args(list(argv))
        kinds = [tuple(isinstance(v, str) for v in row) for row in ex._rows(args.blocks(args))]
        assert kinds and len(kinds[0]) == len(args.header)
        assert set(kinds) == {kinds[0]}

    @pytest.mark.parametrize("argv", README_RUNS)
    def test_csv_and_json_lines_carry_the_same_tokens(self, argv, capsys):
        outs = {}
        for fmt in ("csv", "json-lines"):
            assert main([*argv, "--format", fmt]) == 0
            outs[fmt] = capsys.readouterr().out.splitlines()
        header = outs["csv"][0].split(",")
        assert len(outs["csv"]) == len(outs["json-lines"]) + 1
        for line, js in zip(outs["csv"][1:], outs["json-lines"]):
            obj = json.loads(js)
            cells = [
                f'"{tok}"' if isinstance(obj[k], str) else "null" if tok == "nan" else tok
                for k, tok in zip(header, line.split(","))
            ]
            assert js == "{" + ",".join(f'"{k}":{c}' for k, c in zip(header, cells)) + "}"
        if argv[0] == "zeros":
            # g_0 > 14.13, so the first zero has no Gram offset
            assert outs["csv"][1].split(",")[3] == "nan"
            assert json.loads(outs["json-lines"][0])["scaled_offset"] is None


def renderer_floats():
    """Floats for the %.15g kernel and around its edges, of both signs."""
    rnd = random.Random(20261020)
    bits = [struct.unpack("<d", struct.pack("<Q", rnd.getrandbits(64)))[0] for _ in range(4000)]
    ties = [rnd.randrange(10**14, 10**15) + 0.5 for _ in range(500)]
    ties += [1e14 + 0.5, 1e14 + 1.5, 999999999999998.5, 999999999999999.5]  # the last carries
    powers = [float(f"1e{e}") for e in range(-9, 16)]
    powers += [math.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    decimals = [rnd.randrange(10**14, 10**15) / 10.0 ** rnd.randint(0, 22) for _ in range(1000)]
    edges = [1e-8, math.nextafter(1e-8, 0.0), 0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
             2.225073858507201e-308, 1.7976931348623157e308, 0.5, 1.0, 123456.789]
    values = bits + ties + powers + decimals + edges
    return values + [-v for v in values]


RENDERER_INTS = [0, 1, -1, 7, 10**15 - 1, -(10**15 - 1), 10**15, -(10**15), 2**53 + 1,
                 2**63 - 1, 2**63, -(2**63), 2**64 + 5, 10**30, -(10**400), True, False]
RENDERER_STRS = ["", "sample", "gram", "nan", "a%sb", "x|y", "\xff", "z\u00e9", "nul\x00"]


class TestRenderer:
    """write_rows and write_blocks print each value byte for byte as
    token_rule does: numbers in [1e-8, 1e15) through the numpy kernel, the
    rest one at a time."""

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_tuple_rows_match_token_rule(self, fmt):
        xs = renderer_floats()
        header = ("x", "n", "tag", "y", "k")
        rows = [(x, RENDERER_INTS[i % len(RENDERER_INTS)], RENDERER_STRS[i % len(RENDERER_STRS)],
                 np.float64(xs[-1 - i]), np.int64(i * 999_999_999_999 % 10**15 - 5 * 10**14))
                for i, x in enumerate(xs)]
        assert render(header, rows, fmt) == render_by_token_rule(header, rows, fmt)

    @pytest.mark.parametrize("x, text", [
        (271030.5303294735, "271030.530329473"),  # ties the error word rounds
        (69538.64351722205, "69538.6435172221"),
        (0.0002965698950217695, "0.000296569895021769"),
        (9654381390.003925, "9654381390.00393"),
        (123456789012345.5, "123456789012346"),  # exact halves, half-even
        (123456789012344.5, "123456789012344"),
    ])
    def test_half_integer_products(self, x, text):
        # fl(|x| * 10**(14 - e)) is a half-integer for each x here
        assert render(("x",), [(x,), (-x,)]) == f"x\n{text}\n-{text}\n"

    def test_half_integer_products_fuzz(self):
        # ph / 10**m with ph a half-integer in [1e14, 1e15): most products
        # round back to the half-integer, and only the error word rounds them
        rnd = random.Random(20261021)
        scaled = [(rnd.randrange(10**14, 10**15) + 0.5, rnd.randrange(23)) for _ in range(20000)]
        ties = [rnd.choice((-1.0, 1.0)) * ph / 10.0**m for ph, m in scaled]
        assert sum(abs(x) * 10.0**m % 1.0 == 0.5 for x, (_, m) in zip(ties, scaled)) >= 16000
        rows = [(x,) for x in ties + [rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-9, 15) for _ in range(10000)]]
        assert render(("x",), rows) == render_by_token_rule(("x",), rows, "csv")

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_render_peak_memory(self, fmt):
        # a piece of the most stepplot rows write_blocks renders at once
        # (16 * BLOCK cell bytes) peaks within 480 KiB of traced numpy and
        # Python memory, what a piece of 8 * BLOCK cell bytes once took
        json = fmt == "json-lines"
        layout = ex._layout(STEPPLOT_HEADER, json)
        block = next(ex.stepplot_blocks(Argument(0.5, math.pi * (BLOCK + 0.5))))
        piece = [c[: 16 * BLOCK // layout[0].size] for c in block]
        ex._render(piece, layout, json)
        tracemalloc.start()
        try:
            ex._render(piece, layout, json)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 480 * 1024

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_column_blocks_match_token_rule(self, fmt):
        # blocks of 0, 1, 2 and thousands of rows: pieces straddle block ends
        xs = np.array(renderer_floats())
        ns = np.array([v for v in RENDERER_INTS if -(2**63) <= v < 2**63] * 1000, dtype=np.int64)[: xs.size]
        tags = np.array(RENDERER_STRS * 2000)[: xs.size]
        bounds = [0, 0, 1, 3, 2000, 2001, 2001, 7000, xs.size]
        blocks = [[xs[i:j], ns[i:j], tags[i:j], ns[i:j] % 2 == 0, xs[i:j][::-1]]
                  for i, j in zip(bounds, bounds[1:])]
        header = ("x", "n", "tag", "even", "y")
        buf = io.StringIO()
        assert ex.write_blocks(buf, header, blocks, fmt) == xs.size
        assert buf.getvalue() == render_by_token_rule(header, list(ex._rows(blocks)), fmt)


class TestStepplot:
    def test_row_count_and_final_sum(self):
        t = TWOPI * 1e4
        s = Argument(0.5, t)
        rows = list(export_stepplot(s, 1))
        n_max = int(t / math.pi)
        assert len(rows) == n_max == 20000
        final = complex(rows[-1][1], rows[-1][2])
        assert abs(final - partial_sum(1, n_max, s)) < 1e-12

    def test_block_edge_rows_equal_partial_sum(self):
        # n_max = 65537: a kernel block ends at 65536
        s = Argument(0.5, math.pi * 65537.5)
        rows = {r[0]: r for r in export_stepplot(s, 65535)}
        for n in (65536, 65537):
            got = complex(rows[n][1], rows[n][2])
            assert abs(got - partial_sum(1, n, s)) < 1e-12

    def test_first_block_edge_rows_equal_partial_sum(self, phase_recorder):
        # n_max = BLOCK + 1: the first kernel block ends at BLOCK, and the
        # second holds one step plus the two lookahead columns
        s = Argument(0.5, math.pi * (BLOCK + 1.5))
        rows = {r[0]: r for r in export_stepplot(s)}
        for n in (BLOCK - 1, BLOCK, BLOCK + 1):
            got = complex(rows[n][1], rows[n][2])
            assert abs(got - partial_sum(1, n, s)) < 1e-12
        assert phase_recorder[:2] == [(1, BLOCK + 2), (1, 3)]
        assert rows[BLOCK][3:] == angle_diffs(BLOCK, s.t)[1:]

    def test_pendant_window_survives_decimation(self):
        t = TWOPI * 1e4
        rows = list(export_stepplot(Argument(0.5, t), 997))
        present = {r[0] for r in rows}
        n_p = frame_of(t).n_p
        assert all(n in present for n in range(max(1, n_p - 2 * n_p), 3 * n_p + 1))

    @pytest.mark.parametrize("n_max", [BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("decimation", [1, 7, 997, 3 * BLOCK])
    def test_kept_rows(self, n_max, decimation):
        # n = 1 mod decimation, the pendant window n <= 3*n_p and n_max,
        # across the kernel's block edges
        s = Argument(0.5, math.pi * (n_max + 0.5))
        n_p = frame_of(s.t).n_p
        got = np.concatenate([b[0] for b in ex.stepplot_blocks(s, decimation)]).tolist()
        want = set(range(1, n_max + 1, decimation)) | set(range(1, 3 * n_p + 1)) | {n_max}
        assert got == sorted(want)

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "1065c142fabf1ac61b4fa08439d5aaf42c172b72ff7ccde4d541547174545686"),
        ("json-lines", "3369018561146e920c5265801034a3c3e6745d05096a4104c5d74202136c4ae2"),
    ])
    def test_bytes_pinned(self, fmt, digest, capsys):
        # 49k rows of a 477k-step walk, pinned on an x86-64 Linux host with
        # numpy 2.4 (another libm may round a sin or cos apart)
        assert main(["stepplot", "--t", "1500123.4", "--decimation", "10", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_blocks_that_keep_no_row(self, fmt, capsys):
        # decimation > BLOCK: the kernel block [BLOCK + 1, 2 * BLOCK] keeps no row
        s = Argument(0.5, 1e6)
        assert [len(b[0]) for b in ex.stepplot_blocks(s, 100000)][1] == 0
        assert main(["stepplot", "--t", "1e6", "--decimation", "100000", "--format", fmt]) == 0
        rows = list(export_stepplot(s, 100000))
        assert capsys.readouterr().out == render_by_token_rule(ex.STEPPLOT_HEADER, rows, fmt)

    def test_full_turn_at_center(self):
        fr = frame_of(1e6)
        row = next(r for r in export_stepplot(Argument(0.5, 1e6), 10) if r[0] == fr.n_p)
        d2 = row[4]
        assert min(abs(d2), abs(d2 - TWOPI)) < 0.01

    def test_row_budget_guard(self):
        with pytest.raises(ResourceGuardError):
            next(export_stepplot(Argument(0.5, 1e8), 1))


class TestLimacon:
    def test_identity_and_gram_tags(self):
        lo = gram_point(1000) - 0.05
        hi = gram_point(1004) + 0.05
        rows = list(export_limacon(0.5, lo, hi, 20))
        gram_rows = [r for r in rows if r[7] == "gram"]
        assert len(gram_rows) == 5
        assert len(rows) == 25
        for r in rows:
            z = complex(r[5], r[6])
            assert abs(z - (complex(r[1], r[2]) + complex(r[3], r[4]))) < 1e-12

    def test_spot_values_vs_oracle(self):
        rows = list(export_limacon(0.5, 2000.0, 2001.0, 10))
        for r in rows[::3]:
            ref = eval_reference(Argument(0.5, r[0])).value
            assert abs(complex(r[5], r[6]) - ref) < 5e-2

    def test_domain(self):
        with pytest.raises(DomainError):
            list(export_limacon(0.5, 100.0, 101.0, 1))


class TestSurface:
    def test_grid_and_critical_line_equality(self):
        rows = list(export_surface(0.3, 0.7, 124.0, 129.0, 5, 11))
        assert len(rows) == 55
        mid = [r for r in rows if r[0] == 0.5]
        assert len(mid) == 11
        for r in mid:
            assert abs(r[2] - r[3]) < 1e-12

    def test_transverse_crossing(self):
        # the two magnitude sheets swap order across sigma = 1/2
        rows = list(export_surface(0.3, 0.7, 124.0, 129.0, 3, 5))
        by_t = {}
        for sigma, t, ap, aq in rows:
            by_t.setdefault(t, {})[sigma] = ap - aq
        for t, d in by_t.items():
            assert d[0.3] * d[0.7] < 0.0

    def test_grid_guard(self):
        with pytest.raises(ResourceGuardError):
            list(export_surface(0.0, 1.0, 100.0, 200.0, 2000, 2000))

    def test_moduli_round_as_pythons_abs(self):
        # the moduli are np.hypot of the parts, which rounds as Python's abs
        # of a complex does; np.abs rounds apart (it differs on 69,789 of the
        # 200,000 seeded values below)
        sigmas, ts = [-3.0 + 7.0 * i / 7 for i in range(8)], [14.0 + 2986.0 * i / 63 for i in range(64)]
        p, qp = symmetry.symmetric_grid(sigmas, np.array(ts)).tolist()
        want = [(sigma, t, abs(a), abs(b)) for sigma, row_p, row_qp in zip(sigmas, p, qp)
                for t, a, b in zip(ts, row_p, row_qp)]
        assert list(export_surface(-3.0, 4.0, 14.0, 3000.0, 8, 64)) == want
        rng = np.random.default_rng(20261020)
        z = (rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)) * 10.0 ** rng.integers(-100, 100, 200_000)
        assert np.hypot(z.real, z.imag).tolist() == [abs(v) for v in z.tolist()]

    def test_theta_once_per_grid(self, monkeypatch):
        # one theta (and its phase) serves every sigma of the grid; only |Q|
        # is taken per sigma
        calls = []
        theta = symmetry._theta_dd
        monkeypatch.setattr(symmetry, "_theta_dd", lambda t: calls.append(np.size(t)) or theta(t))
        rows = list(export_surface(0.0, 1.0, 124.0, 129.0, 21, 101))
        assert len(rows) == 21 * 101
        assert calls == [101]


def test_symmetric_parts_behind_evaluator_and_exports():
    # one P(s), Q(s)P(1-s) pair: eval_symmetric sums it, limacon and surface
    # print it (sigma = 0 and 1 only through the exports)
    rnd = random.Random(20261018)
    for sigma in [0.0, 1.0] + [rnd.uniform(0.01, 0.99) for _ in range(6)]:
        t = rnd.uniform(20.0, 5000.0)
        p, qp = symmetric_parts(Argument(sigma, t))
        if 0.0 < sigma < 1.0:
            assert eval_symmetric(Argument(sigma, t)).value == p + qp
        row = next(export_limacon(sigma, t, t + 0.5, 2))
        assert row == (t, p.real, p.imag, qp.real, qp.imag, (p + qp).real, (p + qp).imag, "sample")
        assert next(export_surface(sigma, sigma + 0.1, t, t + 0.5, 2, 2)) == (sigma, t, abs(p), abs(qp))


def hexes(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


def complex_hexes(values):
    """float.hex of the real and imaginary part of each value, in order."""
    return [(z.real.hex(), z.imag.hex()) for z in np.ravel(values)]


class TestBatchedFigures:
    # one batched call per figure: every row keeps the bits of its own
    # one-point call, across changes of the term count N = [t/pi] (loops)
    # and n_p (limacon and surface, here n_p = 15 | 16 at t = 2pi*16**2)
    SIGMAS = (0.25, 0.5, 0.8)

    def test_loops_rows_equal_point_calls(self, phase_recorder):
        rnd = random.Random(20261019)
        t_lo = rnd.uniform(2000.0, 2005.0)
        rows = list(export_loops(self.SIGMAS, t_lo, t_lo + 7.0, 301))
        assert len({int(r[1] / math.pi) for r in rows}) >= 3
        for sigma, t, re_, im_ in rows:
            z = eval_em_paper(Argument(sigma, t)).value
            assert hexes((re_, im_)) == hexes((z.real, z.imag)), (sigma, t)
        assert max(rows for rows, _ in phase_recorder) > 1  # batched, in groups

    def test_loops_negative_t_rows_are_conjugates(self):
        rnd = random.Random(20261020)
        t_lo = rnd.uniform(300.0, 305.0)
        up = list(export_loops(self.SIGMAS, t_lo, t_lo + 9.0, 101))
        down = list(export_loops(self.SIGMAS, -t_lo, -t_lo - 9.0, 101))
        assert [hexes(r) for r in down] == [hexes((s, -t, x, -y)) for s, t, x, y in up]

    def test_limacon_rows_equal_point_calls(self, phase_recorder):
        # a row over a negative range is the conjugate of the one at -t
        rnd = random.Random(20261021)
        edge = TWOPI * 16.0**2
        for sigma in self.SIGMAS:
            t_lo = edge - rnd.uniform(0.5, 1.5)
            rows = list(export_limacon(sigma, t_lo, t_lo + 2.0, 41))
            down = list(export_limacon(sigma, -t_lo - 2.0, -t_lo, 41))
            assert {frame_of(r[0]).n_p for r in rows} == {frame_of(-r[0]).n_p for r in down} == {15, 16}
            for row in rows + down:
                p, qp = (z.conjugate() if row[0] < 0.0 else z
                         for z in symmetric_parts(Argument(sigma, abs(row[0]))))
                want = (row[0], p.real, p.imag, qp.real, qp.imag, (p + qp).real, (p + qp).imag, row[7])
                assert hexes(row) == hexes(want), (sigma, row[0])
        assert max(rows for rows, _ in phase_recorder) > 1

    def test_surface_rows_equal_point_calls(self, phase_recorder):
        rnd = random.Random(20261022)
        t_lo = TWOPI * 25.0 - rnd.uniform(0.5, 1.5)
        rows = list(export_surface(0.25, 0.75, t_lo, t_lo + 2.0, 3, 31))
        down = list(export_surface(0.25, 0.75, -t_lo - 2.0, -t_lo, 3, 31))
        assert {frame_of(r[1]).n_p for r in rows} == {frame_of(-r[1]).n_p for r in down} == {4, 5}
        assert sorted({r[0] for r in rows}) == [0.25, 0.5, 0.75]
        for sigma, t, ap, aq in rows + down:  # a negative t has the moduli of -t
            p, qp = symmetric_parts(Argument(sigma, abs(t)))
            assert hexes((ap, aq)) == hexes((abs(p), abs(qp))), (sigma, t)

    def test_array_t_equals_point_calls(self):
        # the public point functions take an ndarray of t, row for row, and
        # give the conjugate at conj s, bit for bit, for a float t and an ndarray
        rng = np.random.default_rng(20261023)
        ts = np.concatenate([rng.uniform(50.0, 3000.0, 40), -rng.uniform(TWOPI, 3000.0, 10)])
        for sigma in self.SIGMAS:
            got = eval_em_paper(Argument(sigma, ts[ts > 50.0]))
            want = [eval_em_paper(Argument(sigma, float(t))) for t in ts[ts > 50.0]]
            assert [hexes((z.real, z.imag)) for z in got.value] == [
                hexes((w.value.real, w.value.imag)) for w in want]
            assert got.terms_used.tolist() == [w.terms_used for w in want]
            for f in (zetasteps.center_point, zetasteps.pendant_offset, zetasteps.big_q,
                      lambda s: symmetric_parts(s)[0], lambda s: symmetric_parts(s)[1]):
                batch = f(Argument(sigma, ts.reshape(5, 10)))
                assert batch.shape == (5, 10)
                points = [f(Argument(sigma, float(t))) for t in ts]
                assert complex_hexes(batch) == complex_hexes(points)
                assert complex_hexes(f(Argument(sigma, -ts.reshape(5, 10)))) == complex_hexes(np.conj(batch))
                mirrored = [f(Argument(sigma, -float(t))) for t in ts]
                assert complex_hexes(mirrored) == complex_hexes(np.conj(points))
            for t in ts.tolist():
                z, mirrored = (eval_symmetric(Argument(sigma, x)).value for x in (t, -t))
                assert complex_hexes(mirrored) == complex_hexes(z.conjugate())
        empty = Argument(0.5, np.array([]))
        assert eval_em_paper(empty).value.shape == symmetric_parts(empty)[1].shape == (0,)


class TestLoopsZerosHistogram:
    def test_single_sample_equals_evaluator(self):
        rows = list(export_loops([0.5], 2000.0, 2010.0, 1))
        assert len(rows) == 1
        want = eval_em_paper(Argument(0.5, 2000.0)).value
        assert complex(rows[0][2], rows[0][3]) == want

    def test_block_per_sigma(self):
        rows = list(export_loops([0.5, 0.505], 2000.0, 2001.0, 5))
        assert [r[0] for r in rows] == [0.5] * 5 + [0.505] * 5

    def test_first_three_zero_rows(self):
        rows = list(export_zeros(count=3))
        assert [round(r[1], 6) for r in rows] == [14.134725, 21.022040, 25.010858]
        for r in rows:
            assert r[4] < 1e-5  # oracle residual column

    def test_count_starts_at_t_lo(self):
        rows = list(export_zeros(count=2, t_lo=100.0))
        assert [r[0] for r in rows] == [30, 31]
        assert abs(rows[0][1] - 101.317851) < 1e-6

    def test_histogram_single_bin(self):
        rows = list(export_histogram(count=12, bins=1))
        assert len(rows) == 1
        # zeros below the first Gram ordinate carry no offset
        assert rows[0][1] in (11, 12)


class TestGram:
    def test_high_range_starts_near_t_lo(self, gram_recorder, monkeypatch):
        import mpmath

        monkeypatch.setattr(ex, "gram_point", zetasteps.zeros.gram_point)
        rows = list(export_gram(20000.0, 20010.0))
        # the listing starts at the Gram index below t_lo, not at g_0; the
        # rows' Gram points are counted too
        assert sum(np.size(n) for n in gram_recorder) <= 20
        assert [r[0] for r in rows] == list(range(22491, 22504))
        for n, t in rows:
            assert abs(t - float(mpmath.grampoint(n))) < 1e-6

    def test_above_two_to_the_19(self, capsys):
        # N*pi > 2**19 here, where one ulp of theta exceeds 1e-10
        assert main(["gram", "--t-lo", "200000", "--t-hi", "200010"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(298199, 298216))
        assert all(200000 <= float(r[1]) <= 200010 for r in rows)

    def test_indices_past_1e15_print_exactly(self, capsys):
        # %.15g would print every index here as 1.45612098162986e+15
        assert main(["gram", "--t-lo", "3e14", "--t-hi", "300000000000000.5"]) == 0
        idx = [int(line.split(",")[0]) for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(idx) >= 2 and idx[0] > 10**15
        assert idx == list(range(idx[0], idx[0] + len(idx)))

    def test_range_ends(self):
        g = [gram_point(n) for n in range(6)]
        assert list(export_gram(1.0, 17.0)) == []
        assert [r[0] for r in export_gram(g[1], g[4])] == [1, 2, 3, 4]
        assert [r[0] for r in export_gram(g[1] + 1e-9, g[4] - 1e-9)] == [2, 3]
        assert list(export_gram(g[3], g[2])) == []

    @pytest.mark.parametrize("argv", [
        ("gram", "--t-lo", "1e299", "--t-hi", "1e300"),
        ("limacon", "--t-lo", "1e299", "--t-hi", "1e300", "--samples", "2"),
    ])
    def test_spacing_below_ulp_refused(self, argv, gram_recorder, capsys):
        # from t = 1.1e15 the Gram spacing 2pi/log(t/2pi) is below ulp(t):
        # neighbouring Gram points round to one float, and a walk to the
        # Gram index of t would never end (gram_recorder fails it instead)
        start = time.perf_counter()
        assert main(list(argv)) == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert "below ulp" in captured.err and captured.out == ""
        assert list(ex.gram_indices(1e15, 1e15 + 0.5))
        with pytest.raises(DomainError):
            ex.gram_indices(1.2e15, 1.3e15)

    def test_row_guard_before_first_row(self, gram_recorder, monkeypatch, capsys):
        # 2.85e9 Gram points up to t = 1e9: refused before the header; the
        # rows' Gram points are counted too
        monkeypatch.setattr(ex, "gram_point", zetasteps.zeros.gram_point)
        assert main(["gram", "--t-lo", "10", "--t-hi", "1e9"]) == 3
        captured = capsys.readouterr()
        assert "resource guard: gram of 2.85e+09 rows" in captured.err
        assert captured.out == ""


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_eval_exit_zero(self, capsys):
        assert self.run("eval", "--sigma", "0.5", "--t", "100") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("sigma,t,algorithm")
        assert len(out) == 2
        assert self.run("eval", "--sigma", "0.5", "--t", "100", "--algorithm", "symmetric") == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and out[1].split(",")[2] == "symmetric"

    def test_domain_error_exit_two(self, capsys):
        assert self.run("eval", "--sigma", "2.5", "--t", "100",
                        "--algorithm", "em_paper") == 2
        assert self.run("eval", "--sigma", "0.3", "--t", "100", "--algorithm", "rs_line") == 2
        assert "rs_line is defined on sigma = 1/2 only" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "missing/dir/x.csv"])
    def test_unwritable_out_exit_two(self, where, tmp_path, capsys):
        # the message names --out, not the temporary file, and none is left
        out = tmp_path if where == "directory" else tmp_path / where
        assert self.run("gram", "--t-lo", "10", "--t-hi", "30", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"cannot write {out}: ")
        assert ".tmp" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_guard_exit_three(self, capsys):
        assert self.run("stepplot", "--t", "100000000", "--decimation", "1") == 3

    @pytest.mark.parametrize("argv", [
        ("limacon", "--t-lo", "10", "--t-hi", "1e7", "--samples", "2"),
        ("limacon", "--t-lo", "10", "--t-hi", "11", "--samples", "100000000"),
        ("loops", "--t-lo", "2000", "--t-hi", "2010", "--samples", "100000000"),
        ("loops", "--sigma", "0.5,0.6", "--t-lo", "2000", "--t-hi", "2010",
         "--samples", "600000"),
        ("surface", "--t-lo", "100", "--t-hi", "200", "--n-sigma", "2000", "--n-t", "2000"),
    ])
    def test_figure_row_guard_exit_three(self, argv, monkeypatch, capsys):
        # the row count comes before the sample grid and the Gram points:
        # limacon to t = 1e7 would list 2.1e7 of them, loops with 1e8
        # samples would hold a 3 GB grid
        grids = []
        monkeypatch.setattr(ex, "_grid", lambda *a: grids.append(a))
        start = time.perf_counter()
        assert self.run(*argv) == 3
        assert time.perf_counter() - start < 2.0
        out, err = capsys.readouterr()
        assert out == "" and "rows exceeds 1000000" in err
        assert grids == []

    def test_table_guard_exit_three(self, table_recorder, tmp_path, capsys):
        # each needs a log table past 1e8 entries (5-11 GB at t = 1e9)
        for argv in (
            ("eval", "--t", "1e9", "--algorithm", "reference"),
            ("conjugate", "--t", "1e9"),
            ("stepplot", "--t", "1e9", "--decimation", "1000"),
        ):
            out = tmp_path / f"{argv[0]}.csv"
            assert self.run(*argv, "--out", str(out)) == 3
            assert "resource guard" in capsys.readouterr().err
            assert not out.exists()
        assert table_recorder == []

    def test_table_guard_message_is_short(self, table_recorder, capsys):
        # a 3.2e307-entry request reads as %.3g, not as a 308-digit integer
        assert self.run("loops", "--t-lo=1e308", "--t-hi=1.7e308", "--samples", "1") == 3
        err = capsys.readouterr().err
        assert "resource guard: log table of 3.18e+307 entries" in err
        assert not re.search(r"\d{10}", err)
        assert table_recorder == []

    @pytest.mark.parametrize("argv", [
        ("eval", "--t", "nan"),
        ("eval", "--t", "1e400"),
        ("gram", "--t-lo", "nan", "--t-hi", "30"),
        ("gram", "--t-lo", "10", "--t-hi", "inf"),
        ("zeros", "--t-lo", "10", "--t-hi", "nan"),
        ("loops", "--sigma", "0.5,abc", "--t-lo", "100", "--t-hi", "101"),
        ("loops", "--sigma", ",", "--t-lo", "100", "--t-hi", "101"),
        ("surface", "--t-lo", "100", "--t-hi", "101", "--sigma-lo", "inf"),
    ])
    def test_bad_numbers_exit_two(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            self.run(*argv, "--out", str(out))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("argv, header", [
        (("eval", "--t", "100"), EVAL_HEADER),
        (("zeros", "--t-lo", "10", "--t-hi", "30"), ZEROS_HEADER),
        (("gram", "--t-lo", "10", "--t-hi", "30"), GRAM_HEADER),
        (("conjugate", "--t", "1000", "--n-hi", "2"), CONJUGATE_HEADER),
        (("stepplot", "--t", "100", "--decimation", "5"), STEPPLOT_HEADER),
        (("limacon", "--t-lo", "100", "--t-hi", "101", "--samples", "3"), LIMACON_HEADER),
        (("surface", "--t-lo", "100", "--t-hi", "101", "--n-sigma", "2", "--n-t", "2"),
         SURFACE_HEADER),
        (("loops", "--sigma", "0.5,0.6", "--t-lo", "100", "--t-hi", "101", "--samples", "2"),
         LOOPS_HEADER),
        (("histogram", "--count", "5", "--bins", "3"), HISTOGRAM_HEADER),
    ])
    def test_each_subcommand_writes_its_header(self, argv, header, fmt, capsys):
        assert self.run(*argv, "--format", fmt) == 0
        lines = capsys.readouterr().out.splitlines()
        if fmt == "csv":
            assert lines[0] == ",".join(header)
            lines = lines[1:]
        else:
            assert all(list(json.loads(line)) == list(header) for line in lines)
        assert lines

    def test_rs_line_reports_main_sum_length(self, capsys):
        assert self.run("eval", "--algorithm", "rs_line", "--t", "1000.5") == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == "rs_line"
        assert int(row[5]) == frame_of(1000.5).n_p == 12

    def test_rs_line_below_domain_exit_two(self, capsys):
        for t in ("-5", "0"):
            assert self.run("eval", "--algorithm", "rs_line", "--t", t) == 2
            assert "domain error" in capsys.readouterr().err

    def test_zeros_honours_t_lo(self, capsys):
        assert self.run("zeros", "--t-lo", "100", "--t-hi", "110",
                        "--workers", "1") == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [30, 31, 32, 33]
        assert abs(float(rows[0][1]) - 101.317851) < 1e-6

    def test_count_below_one_exit_two(self, capsys):
        for argv in (
            ("zeros", "--t-lo", "10", "--t-hi", "40", "--count", "-2"),
            ("zeros", "--t-lo", "10", "--t-hi", "40", "--count", "0"),
            ("histogram", "--count", "-3"),
            ("histogram", "--count", "0"),
        ):
            assert self.run(*argv, "--workers", "1") == 2
            assert "zero count must be >= 1" in capsys.readouterr().err

    def test_argument_errors_write_nothing(self, tmp_path, capsys):
        for argv in (
            ("stepplot", "--t", "1000", "--decimation", "0"),
            ("histogram", "--count", "5", "--bins", "0", "--workers", "1"),
            ("limacon", "--t-lo", "20", "--t-hi", "10", "--samples", "5"),
            ("surface", "--t-lo", "20", "--t-hi", "30", "--n-sigma", "1"),
            ("loops", "--t-lo", "20", "--t-hi", "30", "--samples", "0"),
            ("conjugate", "--t", "1000", "--n-lo", "1", "--n-hi", "50"),  # n_p = 12
            ("loops", "--sigma", "0.5,2.0", "--t-lo", "100", "--t-hi", "101", "--samples", "3"),
            ("loops", "--t-lo", "60", "--t-hi", "40", "--samples", "3"),
            ("loops", "--t-lo", "-100", "--t-hi", "100", "--samples", "3"),
        ):
            assert self.run(*argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "domain error" in captured.err
            out = tmp_path / f"{argv[0]}.csv"
            assert self.run(*argv, "--out", str(out)) == 2
            assert not out.exists()
        empty = tmp_path / "gram.csv"
        assert self.run("gram", "--t-lo", "20", "--t-hi", "20.1", "--out", str(empty)) == 0
        assert empty.read_text() == "index,t\n"

    @pytest.mark.parametrize("argv, kwargs", [
        (("--t-lo", "10", "--count", "3"), dict(count=3)),
        (("--t-lo", "100", "--count", "2"), dict(count=2, t_lo=100.0)),
    ])
    def test_zeros_count_without_t_hi(self, argv, kwargs, capsys):
        assert self.run("zeros", *argv) == 0
        assert capsys.readouterr().out == render(ZEROS_HEADER, export_zeros(**kwargs))

    def test_zeros_without_t_hi_or_count_exit_two(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        assert self.run("zeros", "--t-lo", "10", "--out", str(out)) == 2
        assert "need a t_hi or a zero count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("limacon", "--t-lo", "100", "--t-hi", "101", "--samples", "3"),
        ("surface", "--t-lo", "100", "--t-hi", "101", "--n-sigma", "2", "--n-t", "2"),
        ("loops", "--t-lo", "100", "--t-hi", "101", "--samples", "3"),
    ])
    def test_late_domain_error_leaves_no_file(self, argv, tmp_path, monkeypatch, capsys):
        # every argument passes the exporters' checks, so the exporter is
        # made to raise when its second block is asked for: after the first
        # block, which is written
        name = f"{argv[0]}_blocks"
        real, calls = getattr(ex, name), []

        def fails_late(*args):
            for block in real(*args):
                calls.append(block)
                yield block
                raise DomainError("injected after the first block")

        monkeypatch.setattr(ex, name, fails_late)
        out = tmp_path / "out.csv"
        assert self.run(*argv, "--out", str(out)) == 2
        assert len(calls) == 1
        assert list(tmp_path.iterdir()) == []
        out.write_bytes(b"kept\n")
        calls.clear()
        assert self.run(*argv, "--out", str(out)) == 2
        assert len(calls) == 1
        assert out.read_bytes() == b"kept\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        argv = ("loops", "--sigma", "0.5,0.6", "--t-lo", "100", "--t-hi", "101",
                "--samples", "3")
        assert self.run(*argv) == 0
        want = capsys.readouterr().out
        out = tmp_path / "out.csv"
        out.write_text("old contents that are longer than the new ones\n" * 20)
        assert self.run(*argv, "--out", str(out)) == 0
        assert out.read_text() == want
        assert list(tmp_path.iterdir()) == [out]

    def test_symlink_out_written_in_place(self, tmp_path, capsys):
        # a symlink (like /dev/stdout) is written through, not replaced
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert self.run("gram", "--t-lo", "10", "--t-hi", "30", "--out", str(link)) == 0
        assert link.is_symlink()
        assert target.read_text().splitlines()[0] == "index,t"
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_zeros_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        assert self.run("zeros", "--t-lo", "10", "--t-hi", "30",
                        "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ordinal,t,gram_index,scaled_offset,residual"
        assert len(lines) == 4

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, workers in ((a, "1"), (b, "3")):
            assert self.run("zeros", "--t-lo", "10", "--t-hi", "60",
                            "--workers", workers, "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cli_bytes_identical_across_processes(self, tmp_path):
        # three fresh interpreters under a 1 us switch interval must write
        # the same bytes; the CLI starts no thread, so this checks
        # cross-process determinism (the log table's thread safety is
        # test_ddmath's test_log_table_growth_from_threads)
        code = ("import sys; sys.setswitchinterval(1e-6); "
                "from zetasteps.cli import main; sys.exit(main(sys.argv[1:]))")
        outs = [tmp_path / f"h{k}.csv" for k in range(3)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, "histogram", "--count", "60",
                 "--workers", "2", "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                env=CHILD_ENV,
            )
            for out in outs
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        first = outs[0].read_bytes()
        assert all(out.read_bytes() == first for out in outs[1:])

    def test_gram_listing(self, capsys):
        assert self.run("gram", "--t-lo", "10", "--t-hi", "30") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,t"
        assert len(lines) == 4  # g_0, g_1, g_2

    def test_conjugate_report(self, capsys):
        assert self.run("conjugate", "--t", str(TWOPI * 1e4), "--n-lo", "2",
                        "--n-hi", "5") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            rel = float(line.split(",")[9])
            assert abs(rel) < 0.1

    def test_conjugate_underflowed_prediction(self, capsys):
        # at sigma = 200, n_p**(1 - 2 sigma) underflows: the predicted sum is
        # 0 and its relative error prints nan instead of dividing by zero
        assert self.run("conjugate", "--sigma", "200", "--t", "1000", "--n-hi", "2") == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[9] for r in rows] == ["nan", "nan"]

    @pytest.mark.parametrize("sigma", ["1000", "-1000", "-150"])
    def test_conjugate_overflowed_prediction_exit_two(self, sigma, tmp_path, capsys):
        # n**(sigma - 1) overflows at n_hi = 3 for sigma = 1000, and
        # n_p**(1 - 2 sigma) at every n for the negative sigmas; every row's
        # sums are taken before the first row, so nothing is written
        argv = ("conjugate", f"--sigma={sigma}", "--t", "1000", "--n-hi", "3")
        assert self.run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "overflows" in err
        assert self.run(*argv, "--out", str(tmp_path / "c.csv")) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("conjugate", "--sigma=-1000", "--t", "20"),
        ("limacon", "--sigma=-400", "--t-lo", "1419", "--t-hi", "1420", "--samples", "2"),
        ("limacon", "--sigma=-200", "--t-lo", "1419", "--t-hi", "1420", "--samples", "2"),
    ])
    def test_overflowing_step_or_q_exit_two(self, argv, capsys):
        # the longest step n**(-sigma) (or |Q| at sigma = -200) overflows a
        # float: refused before the first block, so nothing is written
        assert self.run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "overflows" in err

    def test_json_lines_format(self, capsys):
        assert self.run("limacon", "--t-lo", "100", "--t-hi", "101",
                        "--samples", "3", "--format", "json-lines") == 0
        out = capsys.readouterr().out.splitlines()
        objs = [json.loads(line) for line in out]
        assert all(set(o) == set(LIMACON_HEADER) for o in objs)

    def test_python_dash_m_runs_the_cli(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "zetasteps", "eval", "--t", "1000"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert self.run("eval", "--t", "1000") == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    def test_parser_built_once_per_process(self):
        # build_parser (nine subparsers, about 2.4 ms) runs on the first
        # main call, not at import, and not again
        code = ("import os, zetasteps.cli as cli\n"
                "built, build = [], cli.build_parser\n"
                "cli.build_parser = lambda: built.append(1) or build()\n"
                "print(cli._parser.cache_info().currsize)\n"
                "for argv in (['gram', '--t-lo', '10', '--t-hi', '25'], ['eval', '--t', '100']):\n"
                "    assert cli.main([*argv, '--out', os.devnull]) == 0, argv\n"
                "print(len(built))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]

    def test_subcommands_leave_numpy_ma_unimported(self):
        # np.unique and np.union1d import numpy.ma on first use: 13-24 ms
        # and about 1.2 MB of RSS on a cold CLI run (2-CPU VM)
        runs = [
            ["eval", "--t", "1000"],
            ["zeros", "--t-lo", "10", "--t-hi", "100"],
            ["gram", "--t-lo", "10", "--t-hi", "100"],
            ["conjugate", "--t", "62831.85", "--n-lo", "2", "--n-hi", "5"],
            ["stepplot", "--t", "62831.85", "--decimation", "10"],
            ["limacon", "--t-lo", "1419", "--t-hi", "1424", "--samples", "50"],
            ["surface", "--t-lo", "124", "--t-hi", "129", "--n-sigma", "5", "--n-t", "11"],
            ["loops", "--sigma", "0.5,0.505", "--t-lo", "2000", "--t-hi", "2010",
             "--samples", "50"],
            ["histogram", "--count", "100"],
        ]
        code = ("import os, sys; from zetasteps.cli import main\n"
                f"for argv in {runs!r}:\n"
                "    assert main([*argv, '--out', os.devnull]) == 0, argv\n"
                "    print(argv[0], 'numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [w for argv in runs for w in (argv[0], "False")]

    @pytest.mark.parametrize("argv", [
        ["zeros", "--t-lo", "100000", "--t-hi", "100003"],
        ["histogram", "--count", "100"],
    ], ids=["zeros-past-the-table", "histogram"])
    def test_cold_zero_search_leaves_numpy_ma_unimported(self, argv):
        # each in a fresh interpreter, so the first theta batch past the log
        # table runs the memo of whole-number logs cold; np.unique or
        # np.union1d there would import numpy.ma (13-24 ms)
        code = ("import os, sys; from zetasteps.cli import main\n"
                f"assert main([*{argv!r}, '--out', os.devnull]) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from zetasteps.cli import main; raise SystemExit(main(['gram','--t-lo','10','--t-hi','25']))"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "index,t"
