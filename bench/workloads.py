"""The four benchmark workloads.

Each workload has three parts:

* ``inputs(seed, index)`` runs in the parent and returns the (cold, warm)
  inputs of child process ``index``; the same seed gives the same inputs.
* ``run_pass(zs, inp, out_dir)`` is the timed pass in the child; it calls
  the CLI entry point in-process (or the library where the CLI cannot
  express the request) and returns what the check needs.
* ``check(inp, out)`` runs in the child after timing stops and compares
  the output with an independent mpmath reference; it returns
  ``(attempted, failures)``.

Why these four: see BENCHMARK.json and NOTES.md.  They split the package
along the axes later changes pull on: many cheap zero-finding calls
(zeros-first), few expensive oracle-bound zeros (zeros-high), one huge step
sum with its table and exporter (stepplot), and the small-n figure paths
that alone reach partial_sum, big_q and center_point (figures).
"""

from __future__ import annotations

import csv
import math
import os
import random

ZEROS_FIRST_COUNT = 100
ZEROS_FIRST_BINS = 21
ZEROS_TOL = 1e-8
ZEROS_HIGH_BASE = 1.0e5
ZEROS_HIGH_WIDTH = 1.3  # two zeros on average at t = 1e5 (mean gap 0.649)
ZEROS_HIGH_ZEROS = 2
STEPPLOT_BASE = 1.5e6
STEPPLOT_DECIMATION = 10

# Tolerances the tier-1 tests state for each route.
TOL_ZERO = 1e-6          # zero ordinates (acceptance criterion 1) and Gram points
TOL_RESIDUAL = 1e-5      # oracle residual column of `zeros` rows
TOL_EM_PAPER = 1e-3      # eval_em_paper vs the oracle (criterion 2)
TOL_SYMMETRIC = 5e-2     # symmetric route / limacon zeta columns
TOL_PHASE = 1e-9         # phase contract; bounds stepplot cumulative error
TOL_IDENTITY = 1e-12     # row identities (limacon P + QP = zeta, |P| = |QP| on sigma = 1/2)
SAMPLES_PER_OUTPUT = 4


def _rng(name, seed, index, salt):
    return random.Random(f"{name}:{seed}:{index}:{salt}")


def _read_rows(path):
    """Data rows of a CSV output (header dropped)."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _cli(zs, argv):
    rc = zs.cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"zetasteps {argv[0]} exited with {rc}")


class _Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def result(self):
        return self.attempted, self.failures


# -- zeros-first -----------------------------------------------------------

def zeros_first_inputs(seed, index):
    inp = {"count": ZEROS_FIRST_COUNT, "bins": ZEROS_FIRST_BINS}
    return inp, dict(inp)  # fixed problem: the warm pass repeats the call


def zeros_first_pass(zs, inp, out_dir):
    path = os.path.join(out_dir, "histogram.csv")
    _cli(zs, ["histogram", "--count", inp["count"], "--bins", inp["bins"],
              "--workers", 1, "--tol", ZEROS_TOL, "--out", path])
    return path


def zeros_first_check(inp, path):
    import reference

    c = _Checks()
    centers, counts = reference.zeros_first_histogram(inp["count"], inp["bins"])
    rows = _read_rows(path)
    c.expect(len(rows) == inp["bins"], f"histogram: {len(rows)} bins, want {inp['bins']}")
    for row, ref_c, ref_k in zip(rows, centers, counts):
        c.expect(abs(float(row[0]) - ref_c) <= TOL_ZERO and int(row[1]) == int(ref_k),
                 f"histogram bin {row} vs reference ({ref_c:.9g}, {int(ref_k)})")
    return c.result()


# -- zeros-high ------------------------------------------------------------

def zeros_high_inputs(seed, index):
    import reference

    rnd = _rng("zeros-high", seed, index, 0)
    out = []
    while len(out) < 2:
        lo = ZEROS_HIGH_BASE + rnd.uniform(0.0, 2000.0)
        hi = lo + ZEROS_HIGH_WIDTH
        n = reference.nzeros(hi) - reference.nzeros(lo)
        if n == ZEROS_HIGH_ZEROS:  # fixed work per pass; the count is checked again
            out.append({"t_lo": lo, "t_hi": hi, "zeros": n})
    return out[0], out[1]


def zeros_high_pass(zs, inp, out_dir):
    # Library call: the CLI `zeros` command ignores --t-lo (defect (a)).
    records = zs.find_zeros(inp["t_lo"], inp["t_hi"], tol=ZEROS_TOL, workers=1)
    rows = [
        (r.ordinal, r.t, r.gram_index, r.scaled_offset,
         abs(zs.eval_reference(zs.Argument(0.5, r.t)).value))
        for r in records
    ]
    path = os.path.join(out_dir, "zeros.csv")
    with open(path, "w") as fh:
        zs.write_rows(fh, zs.export.ZEROS_HEADER, rows)
    return path


def zeros_high_check(inp, path):
    import reference

    c = _Checks()
    rows = _read_rows(path)
    c.expect(len(rows) == inp["zeros"],
             f"[{inp['t_lo']:.6f}, {inp['t_hi']:.6f}]: {len(rows)} zeros, "
             f"mpmath.nzeros counts {inp['zeros']}")
    for row in rows:
        t = float(row[1])
        lo, hi = reference.siegelz(t - TOL_ZERO), reference.siegelz(t + TOL_ZERO)
        c.expect(lo * hi < 0.0 and inp["t_lo"] <= t <= inp["t_hi"],
                 f"zero t={t!r}: Z(t-{TOL_ZERO:g})={lo:.3g}, Z(t+{TOL_ZERO:g})={hi:.3g}")
        c.expect(float(row[4]) < TOL_RESIDUAL, f"zero t={t!r}: residual {row[4]}")
    return c.result()


# -- stepplot --------------------------------------------------------------

def stepplot_inputs(seed, index):
    rnd = _rng("stepplot", seed, index, 0)
    return tuple({"t": STEPPLOT_BASE + rnd.uniform(0.0, 2.0e4), "sample_seed": rnd.random()}
                 for _ in range(2))


def stepplot_pass(zs, inp, out_dir):
    path = os.path.join(out_dir, "stepplot.csv")
    _cli(zs, ["stepplot", "--t", repr(inp["t"]), "--decimation", STEPPLOT_DECIMATION,
              "--out", path])
    return path


def _stepplot_expected_ns(t, decimation):
    """The row indices n the exporter documents: every decimation-th step,
    the pendant window |n - n_p| <= 2 n_p and the last step."""
    n_max = int(math.floor(t / math.pi))
    n_p = int(math.floor(math.sqrt(t / (2.0 * math.pi))))
    window = set(range(1, min(n_max, 3 * n_p) + 1))
    return sorted(set(range(1, n_max + 1, decimation)) | window | {n_max})


def stepplot_check(inp, path):
    import mpmath
    import reference

    c = _Checks()
    t = inp["t"]
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    want = _stepplot_expected_ns(t, STEPPLOT_DECIMATION)
    c.expect(len(lines) == len(want), f"stepplot t={t!r}: {len(lines)} rows, want {len(want)}")
    if len(lines) != len(want):
        return c.result()
    n_max = want[-1]
    rnd = random.Random(inp["sample_seed"])
    small = [i for i, n in enumerate(want) if n <= 2000]
    large = [i for i, n in enumerate(want) if n >= 0.75 * n_max]
    picks = rnd.sample(small, SAMPLES_PER_OUTPUT // 2) + rnd.sample(large, SAMPLES_PER_OUTPUT // 2)
    zeta_s = mpmath.zeta(mpmath.mpc(0.5, t))
    for i in picks + [len(want) - 1]:
        n = want[i]
        row = lines[i].split(",")
        if int(row[0]) != n:
            c.expect(False, f"stepplot t={t!r}: row {i} is n={row[0]}, want n={n}")
            continue
        got = complex(float(row[1]), float(row[2]))
        if n <= 2000:
            ref = reference.direct_sum(0.5, t, n)
        else:
            ref = reference.cumulative(0.5, t, n, zeta_s)
        c.expect(abs(got - ref) <= TOL_PHASE,
                 f"stepplot t={t!r} n={n}: cumulative off by {abs(got - ref):.3g}")
    return c.result()


# -- figures ---------------------------------------------------------------

def figures_inputs(seed, index):
    rnd = _rng("figures", seed, index, 0)
    return tuple({"shift": rnd.uniform(0.0, 5.0), "sample_seed": rnd.random()}
                 for _ in range(2))


def _figure_args(shift):
    return {
        "limacon": ["--t-lo", 1419.0 + shift, "--t-hi", 1424.0 + shift, "--samples", 500],
        "surface": ["--t-lo", 124.0 + shift, "--t-hi", 129.0 + shift,
                    "--n-sigma", 21, "--n-t", 101],
        "loops": ["--sigma", "0.5,0.505", "--t-lo", 2000.0 + shift,
                  "--t-hi", 2010.0 + shift, "--samples", 2000],
    }


def figures_pass(zs, inp, out_dir):
    paths = {}
    for cmd, args in _figure_args(inp["shift"]).items():
        paths[cmd] = os.path.join(out_dir, f"{cmd}.csv")
        _cli(zs, [cmd] + args + ["--out", paths[cmd]])
    return paths


def figures_check(inp, paths):
    import reference

    c = _Checks()
    rnd = random.Random(inp["sample_seed"])

    rows = _read_rows(paths["limacon"])
    _, t_lo, _, t_hi, _, samples = _figure_args(inp["shift"])["limacon"]
    grams = reference.gram_points(t_lo, t_hi)
    got = [float(r[0]) for r in rows if r[7] == "gram"]
    c.expect(len(rows) == samples + len(grams) and len(got) == len(grams),
             f"limacon: {len(rows)} rows with {len(got)} Gram rows, want {samples} samples "
             f"and the {len(grams)} Gram points in [{t_lo!r}, {t_hi!r}]")
    for g, ref in zip(got, grams):
        c.expect(abs(g - ref) <= TOL_ZERO, f"limacon Gram row t={g!r} vs mpmath {ref!r}")
    for r in rnd.sample(rows, SAMPLES_PER_OUTPUT):
        t, p, qp, z = float(r[0]), complex(float(r[1]), float(r[2])), \
            complex(float(r[3]), float(r[4])), complex(float(r[5]), float(r[6]))
        ref = reference.zeta(0.5, t)
        rendering = TOL_IDENTITY * (1.0 + abs(p) + abs(qp))
        c.expect(abs(z - ref) <= TOL_SYMMETRIC and abs(z - (p + qp)) <= rendering,
                 f"limacon t={t!r}: zeta {z} vs mpmath {ref}")

    rows = _read_rows(paths["surface"])
    c.expect(len(rows) == 21 * 101, f"surface: {len(rows)} rows, want {21 * 101}")
    for r in rows:
        if float(r[0]) == 0.5:
            c.expect(abs(float(r[2]) - float(r[3])) <= TOL_IDENTITY,
                     f"surface t={r[1]}: |P| != |QP(1-s)| on sigma = 1/2")
    for r in rnd.sample(rows, SAMPLES_PER_OUTPUT):
        sigma, t = float(r[0]), float(r[1])
        p, l_mag = reference.center(sigma, t)
        pm, lm_mag = reference.center(1.0 - sigma, t)
        qp = reference.q_magnitude(sigma, t) * abs(pm)
        scale = 1.0 + l_mag + lm_mag
        c.expect(abs(float(r[2]) - abs(p)) <= TOL_PHASE * scale
                 and abs(float(r[3]) - qp) <= TOL_PHASE * scale,
                 f"surface sigma={sigma} t={t!r}: |P|={r[2]}, |QP|={r[3]} "
                 f"vs mpmath {abs(p)!r}, {qp!r}")

    rows = _read_rows(paths["loops"])
    c.expect(len(rows) == 2 * 2000, f"loops: {len(rows)} rows, want 4000")
    for r in rnd.sample(rows, SAMPLES_PER_OUTPUT):
        sigma, t = float(r[0]), float(r[1])
        z = complex(float(r[2]), float(r[3]))
        ref = reference.zeta(sigma, t)
        c.expect(abs(z - ref) <= TOL_EM_PAPER,
                 f"loops sigma={sigma} t={t!r}: zeta {z} vs mpmath {ref}")
    return c.result()


WORKLOADS = {
    "zeros-first": (zeros_first_inputs, zeros_first_pass, zeros_first_check),
    "zeros-high": (zeros_high_inputs, zeros_high_pass, zeros_high_check),
    "stepplot": (stepplot_inputs, stepplot_pass, stepplot_check),
    "figures": (figures_inputs, figures_pass, figures_check),
}
