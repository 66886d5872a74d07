"""Exporters and the command-line front end: formats, row counts,
determinism, exit codes."""

import io
import json
import math
import os
import subprocess
import sys

import pytest

import zetasteps
from zetasteps import (
    Argument,
    DomainError,
    ResourceGuardError,
    eval_em_paper,
    eval_reference,
    frame_of,
    gram_point,
    partial_sum,
    write_rows,
)
from zetasteps.cli import main
from zetasteps.export import (
    LIMACON_HEADER,
    STEPPLOT_HEADER,
    export_histogram,
    export_limacon,
    export_loops,
    export_stepplot,
    export_surface,
    export_zeros,
)

TWOPI = 2.0 * math.pi
# child interpreters import the same zetasteps as this process, installed or not
SRC_DIR = os.path.dirname(os.path.dirname(zetasteps.__file__))
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC_DIR, os.environ.get("PYTHONPATH")))),
}


def render(header, rows, fmt="csv"):
    buf = io.StringIO()
    write_rows(buf, header, rows, fmt)
    return buf.getvalue()


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
        # n_max = 65537: the first kernel block ends at 65536
        s = Argument(0.5, math.pi * 65537.5)
        rows = {r[0]: r for r in export_stepplot(s, 65535)}
        for n in (65536, 65537):
            got = complex(rows[n][1], rows[n][2])
            assert abs(got - partial_sum(1, n, s)) < 1e-12

    def test_pendant_window_survives_decimation(self):
        t = TWOPI * 1e4
        rows = list(export_stepplot(Argument(0.5, t), 997))
        present = {r[0] for r in rows}
        n_p = frame_of(t).n_p
        assert all(n in present for n in range(max(1, n_p - 2 * n_p), 3 * n_p + 1))

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
        lo = gram_point(1000).t - 0.05
        hi = gram_point(1004).t + 0.05
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


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_eval_exit_zero(self, capsys):
        assert self.run("eval", "--sigma", "0.5", "--t", "100") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("sigma,t,algorithm")
        assert len(out) == 2

    def test_domain_error_exit_two(self, capsys):
        assert self.run("eval", "--sigma", "2.5", "--t", "100",
                        "--algorithm", "em_paper") == 2

    def test_guard_exit_three(self, capsys):
        assert self.run("stepplot", "--t", "100000000", "--decimation", "1") == 3

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

    def test_worker_pool_race_free(self, tmp_path):
        # a 1 us switch interval makes threads interleave inside the shared
        # log table's growth; every run must finish with the same bytes
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

    def test_json_lines_format(self, capsys):
        assert self.run("limacon", "--t-lo", "100", "--t-hi", "101",
                        "--samples", "3", "--format", "json-lines") == 0
        out = capsys.readouterr().out.splitlines()
        objs = [json.loads(line) for line in out]
        assert all(set(o) == set(LIMACON_HEADER) for o in objs)

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from zetasteps.cli import main; raise SystemExit(main(['gram','--t-lo','10','--t-hi','25']))"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "index,t"
