"""File emitters reproducing the paper-style figures as machine-readable
rows (CSV or JSON-lines).

Every export is a deterministic generator of tuples; the writers render
numbers with 15 significant digits so identical inputs give byte-identical
files.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .errors import DomainError, ResourceGuardError
from .evaluators import eval_em_paper, eval_reference
from .steps import Argument, phase_blocks
from .symmetry import (
    TWOPI,
    big_q,
    center_point,
    conj_region,
    conj_sum_direct,
    conj_sum_predicted,
    frame_of,
)
from .zeros import (
    ZeroRecord,
    find_zeros,
    gram_offsets,
    gram_point,
    histogram,
    zero_count_main,
)

STEPPLOT_HEADER = ("n", "re_cumulative", "im_cumulative", "delta1_mod", "delta2_mod")
LIMACON_HEADER = (
    "t",
    "P_re",
    "P_im",
    "QP1s_re",
    "QP1s_im",
    "zeta_re",
    "zeta_im",
    "tag",
)
SURFACE_HEADER = ("sigma", "t", "abs_P", "abs_QP1s")
LOOPS_HEADER = ("sigma", "t", "zeta_re", "zeta_im")
ZEROS_HEADER = ("ordinal", "t", "gram_index", "scaled_offset", "residual")
HISTOGRAM_HEADER = ("bin_center", "count")
GRAM_HEADER = ("index", "t")
CONJUGATE_HEADER = (
    "n",
    "N_lo",
    "N_center",
    "N_hi",
    "width",
    "direct_re",
    "direct_im",
    "predicted_re",
    "predicted_im",
    "modulus_rel_err",
    "accuracy_unguaranteed",
)

STEPPLOT_ROW_GUARD = 10_000_000
SURFACE_GRID_GUARD = 1_000_000


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return f"{float(v):.15g}"


def _json_token(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return '"' + v + '"'
    x = float(v)
    if math.isnan(x):
        return "null"
    return f"{x:.15g}"


def write_rows(
    stream: TextIO,
    header: Sequence[str],
    rows: Iterable[Tuple],
    fmt: str = "csv",
) -> int:
    """Stream rows out; returns the number of data rows written."""
    count = 0
    if fmt == "csv":
        stream.write(",".join(header) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")
            count += 1
    elif fmt == "json-lines":
        for row in rows:
            body = ",".join(
                f'"{k}":{_json_token(v)}' for k, v in zip(header, row)
            )
            stream.write("{" + body + "}\n")
            count += 1
    else:
        raise DomainError(f"unknown format {fmt!r} (csv or json-lines)")
    return count


def export_stepplot(s: Argument, decimation: int = 1) -> Iterator[Tuple]:
    """Rows (n, cumulative sum, angle differences) for n = 1..[t/pi].

    Every decimation-th row is emitted, plus the whole pendant window
    |n - n_p| <= 2*n_p and the final row, so the symmetry center never
    decimates away.
    """
    if decimation < 1:
        raise DomainError("decimation must be >= 1")
    frame = frame_of(s.t)
    n_max = int(math.floor(s.t / math.pi))
    if n_max // decimation > STEPPLOT_ROW_GUARD:
        raise ResourceGuardError(
            f"stepplot would emit > {STEPPLOT_ROW_GUARD} rows; "
            "increase --decimation"
        )
    carry_parts_re: List[float] = []
    carry_parts_im: List[float] = []
    for a, b, phases in phase_blocks(s.t, 1, n_max, lookahead=2):
        lengths = np.arange(a, b + 1, dtype=float) ** (-s.sigma)
        terms_re = lengths * np.cos(phases[: b - a + 1])
        terms_im = lengths * np.sin(phases[: b - a + 1])
        cum_re = np.cumsum(terms_re) + math.fsum(carry_parts_re)
        cum_im = np.cumsum(terms_im) + math.fsum(carry_parts_im)
        d1 = np.mod(phases[1:] - phases[:-1], TWOPI)
        d1 = np.where(d1 > 0.0, d1 - TWOPI, 0.0)
        d2 = np.mod(phases[2:] - 2.0 * phases[1:-1] + phases[:-2], TWOPI)
        for n in range(a, b + 1):
            i = n - a
            if (
                (n - 1) % decimation == 0
                or abs(n - frame.n_p) <= 2 * frame.n_p
                or n == n_max
            ):
                yield (n, cum_re[i], cum_im[i], d1[i], d2[i])
        carry_parts_re.append(math.fsum(terms_re))
        carry_parts_im.append(math.fsum(terms_im))


def _symmetric_parts(sigma: float, t: float):
    s = Argument(sigma, t)
    p_s = center_point(s)
    qp = big_q(s) * center_point(Argument(1.0 - sigma, t)).conjugate()
    return p_s, qp


def _gram_indices_between(t_lo: float, t_hi: float) -> List[int]:
    out = []
    if t_hi < gram_point(0).t:
        return out
    n = 0
    while gram_point(n).t < t_lo:
        n += 1
    while gram_point(n).t <= t_hi:
        out.append(n)
        n += 1
    return out


def export_limacon(
    sigma: float, t_lo: float, t_hi: float, samples: int
) -> Iterator[Tuple]:
    """The double-pendulum construction O -> P(s) -> zeta(s) along a
    t range; Gram points inside the range are emitted as tagged rows."""
    if samples < 2:
        raise DomainError("limacon needs samples >= 2")
    if not t_lo < t_hi:
        raise DomainError("need t_lo < t_hi")
    grid = [t_lo + (t_hi - t_lo) * i / (samples - 1) for i in range(samples)]
    tagged = [(t, "sample") for t in grid]
    tagged += [(gram_point(n).t, "gram") for n in _gram_indices_between(t_lo, t_hi)]
    tagged.sort(key=lambda item: (item[0], item[1] == "sample"))
    for t, tag in tagged:
        p_s, qp = _symmetric_parts(sigma, t)
        z = p_s + qp
        yield (t, p_s.real, p_s.imag, qp.real, qp.imag, z.real, z.imag, tag)


def export_surface(
    sigma_lo: float,
    sigma_hi: float,
    t_lo: float,
    t_hi: float,
    n_sigma: int,
    n_t: int,
) -> Iterator[Tuple]:
    """|P(s)| and |Q(s)P(1-s)| on a rectangular critical-strip grid."""
    if n_sigma < 2 or n_t < 2:
        raise DomainError("surface grid counts must be >= 2")
    if n_sigma * n_t > SURFACE_GRID_GUARD:
        raise ResourceGuardError(
            f"surface grid exceeds {SURFACE_GRID_GUARD} points"
        )
    for i in range(n_sigma):
        sigma = sigma_lo + (sigma_hi - sigma_lo) * i / (n_sigma - 1)
        for j in range(n_t):
            t = t_lo + (t_hi - t_lo) * j / (n_t - 1)
            p_s, qp = _symmetric_parts(sigma, t)
            yield (sigma, t, abs(p_s), abs(qp))


def export_loops(
    sigma_list: Sequence[float], t_lo: float, t_hi: float, samples: int
) -> Iterator[Tuple]:
    """zeta trajectories via the first (Euler-Maclaurin) algorithm, one
    block of rows per sigma."""
    if samples < 1:
        raise DomainError("loops needs samples >= 1")
    for sigma in sigma_list:
        for i in range(samples):
            if samples == 1:
                t = t_lo
            else:
                t = t_lo + (t_hi - t_lo) * i / (samples - 1)
            z = eval_em_paper(Argument(sigma, t)).value
            yield (sigma, t, z.real, z.imag)


def _zero_rows(records: Sequence[ZeroRecord]) -> Iterator[Tuple]:
    for rec in records:
        residual = abs(eval_reference(Argument(0.5, rec.t)).value)
        yield (rec.ordinal, rec.t, rec.gram_index, rec.scaled_offset, residual)


def export_zeros(
    t_hi: Optional[float] = None,
    count: Optional[int] = None,
    tol: float = 1e-8,
    workers: int = 1,
    t_lo: float = 10.0,
) -> Iterator[Tuple]:
    """Located zeros in [t_lo, t_hi] with Gram offsets and oracle residuals."""
    records = _collect_zeros(t_hi, count, tol, workers, t_lo)
    return _zero_rows(records)


def _collect_zeros(
    t_hi: Optional[float],
    count: Optional[int],
    tol: float,
    workers: int = 1,
    t_lo: float = 10.0,
) -> List[ZeroRecord]:
    if t_hi is None and count is None:
        raise DomainError("need a t_hi or a zero count")
    if t_hi is None:
        # one zero per Gram interval on average; pad a little
        first = int(zero_count_main(max(t_lo, 10.0)))
        t_hi = gram_point(first + count + max(5, count // 20)).t
    records = find_zeros(t_lo, t_hi, tol=tol, workers=workers)
    if count is not None:
        records = records[:count]
    return records


def export_histogram(
    count: int, bins: int, tol: float = 1e-8, workers: int = 1
) -> Iterator[Tuple]:
    """Gram-offset histogram of the first `count` zeros."""
    if bins < 1:
        raise DomainError("bins must be >= 1")
    records = _collect_zeros(None, count, tol, workers)
    offsets = gram_offsets(records)
    centers, counts = histogram(offsets, bins)
    for c, k in zip(centers, counts):
        yield (float(c), int(k))


def export_gram(t_lo: float, t_hi: float) -> Iterator[Tuple]:
    for n in _gram_indices_between(t_lo, t_hi):
        yield (n, gram_point(n).t)


def export_conjugate(
    s: Argument, n_lo: int = 1, n_hi: Optional[int] = None
) -> Iterator[Tuple]:
    """Conjugate-region report: boundaries, direct and predicted sums."""
    frame = frame_of(s.t)
    if n_hi is None:
        n_hi = min(frame.n_p, 10)
    for n in range(n_lo, n_hi + 1):
        region = conj_region(n, s.t)
        direct = conj_sum_direct(n, s)
        pred = conj_sum_predicted(n, s)
        rel = abs(direct) / abs(pred.value) - 1.0 if pred.value != 0 else math.nan
        yield (
            n,
            region.N_lo,
            region.N_center,
            region.N_hi,
            region.width,
            direct.real,
            direct.imag,
            pred.value.real,
            pred.value.imag,
            rel,
            int(pred.accuracy_unguaranteed),
        )
