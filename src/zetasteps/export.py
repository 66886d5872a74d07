"""File emitters reproducing the paper-style figures as machine-readable
rows (CSV or JSON-lines).

Every export is a deterministic generator of tuples; `write_rows` renders
them with one printf template (%d for ints, %.15g for other numbers) so
identical inputs give byte-identical files.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .errors import DomainError, ResourceGuardError
from .evaluators import em_paper_domain, em_paper_grid
from .steps import Argument, phase_blocks, phase_diffs
from .symmetry import (
    conj_region,
    conj_sum_direct,
    conj_sum_predicted,
    frame_of,
    symmetric_grid,
)
from .zeros import (
    ZeroRecord,
    find_zeros,
    gram_indices,
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
FIGURE_ROW_GUARD = 1_000_000  # rows of one limacon, surface, loops or gram export
_SLICE = 1 << 14  # values per batched call of a figure, and per tolist()


def _guard_rows(figure: str, rows: int, limit: int = FIGURE_ROW_GUARD) -> None:
    """ResourceGuardError past `limit` rows, raised before any row."""
    if rows > limit:
        raise ResourceGuardError(f"{figure} of {rows:.3g} rows exceeds {limit}")


def write_rows(
    stream: TextIO,
    header: Sequence[str],
    rows: Iterable[Tuple],
    fmt: str = "csv",
) -> int:
    """Stream rows out; returns the number of data rows written.

    One printf template, built from the header and the first row, renders
    every row: a str value is %s (quoted in JSON), an int (bool included)
    %d, any other value %.15g, which prints -0, inf, nan, subnormals and
    numpy scalars as f"{float(v):.15g}" does.  Every row must be a tuple
    with its first row's column types (str, int or other number).
    JSON lines write NaN as null; CSV writes its header even for zero rows.
    """
    if fmt not in ("csv", "json-lines"):
        raise DomainError(f"unknown format {fmt!r} (csv or json-lines)")
    json = fmt == "json-lines"
    if not json:
        stream.write(",".join(header) + "\n")
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return 0
    quote = '"' if json else ""
    cells = [quote + "%s" + quote if isinstance(v, str) else "%d" if isinstance(v, int) else "%.15g"
             for v in first]
    if json:
        cells = ['"%s":%s' % (k.replace("%", "%%"), c) for k, c in zip(header, cells)]
    template = ("{%s}\n" if json else "%s\n") % ",".join(cells)
    rows, count = itertools.chain((first,), rows), 0
    for chunk in iter(lambda: list(itertools.islice(rows, 256)), []):  # ~25 KB a write
        text = "".join(map(template.__mod__, chunk))
        stream.write(text.replace('":nan', '":null') if json else text)  # no match spans two rows
        count += len(chunk)
    return count


def _grid(lo: float, hi: float, k: int) -> List[float]:
    """k evenly spaced points from lo to hi (lo alone when k = 1)."""
    return [lo + (hi - lo) * i / max(k - 1, 1) for i in range(k)]


def _batched(grid, sigmas: Sequence[float], ts: Sequence[float]) -> np.ndarray:
    """em_paper_grid or symmetric_grid over ts, _SLICE values a call (which
    bounds their temporaries) into one array of 16 B a value, all before
    the figure's first row."""
    t, step, out = np.array(ts), max(1, _SLICE // len(sigmas)), None
    for i in range(0, t.size, step):
        part = grid(sigmas, t[i : i + step])
        out = np.empty(part.shape[:-1] + t.shape, dtype=complex) if out is None else out
        out[..., i : i + step] = part
    return out


def _python(values: np.ndarray) -> Iterator[complex]:
    """values.tolist() _SLICE at a time: few Python objects live at once."""
    for i in range(0, values.size, _SLICE):
        yield from values[i : i + _SLICE].tolist()


def export_stepplot(s: Argument, decimation: int = 1) -> Iterator[Tuple]:
    """Rows (n, cumulative sum, angle differences) for n = 1..[t/pi].

    Every decimation-th row is emitted, plus the whole pendant window
    |n - n_p| <= 2*n_p and the final row, so the symmetry center never
    decimates away.
    """
    if decimation < 1:
        raise DomainError("decimation must be >= 1")
    n_p = frame_of(s.t).n_p
    n_max = int(math.floor(s.t / math.pi))
    _guard_rows("stepplot", n_max // decimation, STEPPLOT_ROW_GUARD)
    carry = np.zeros((2, 1))  # the real and imaginary sums of the blocks before
    for a, b, phases in phase_blocks(s.t, 1, n_max, lookahead=2):
        n, theta = np.arange(a, b + 1), phases[: b - a + 1]
        terms = n.astype(float) ** (-s.sigma) * np.array([np.cos(theta), np.sin(theta)])
        cums = np.cumsum(terms, axis=1) + carry
        keep = np.flatnonzero(((n - 1) % decimation == 0) | (np.abs(n - n_p) <= 2 * n_p) | (n == n_max))
        d1, d2 = phase_diffs(phases[np.add.outer(np.arange(3), keep)])  # at the kept rows only
        yield from zip(*(col.tolist() for col in (n[keep], *cums[:, keep], d1[0], d2[0])))
        carry = carry + np.sum(terms, axis=1, keepdims=True)


def export_limacon(
    sigma: float, t_lo: float, t_hi: float, samples: int
) -> Iterator[Tuple]:
    """The double-pendulum construction O -> P(s) -> zeta(s) along a
    t range; Gram points inside the range are emitted as tagged rows."""
    if samples < 2:
        raise DomainError("limacon needs samples >= 2")
    if not t_lo < t_hi:
        raise DomainError("need t_lo < t_hi")
    grams = gram_indices(t_lo, t_hi)
    _guard_rows("limacon", samples + grams.stop - grams.start)  # len() overflows past 2**63
    tagged = [(t, "sample") for t in _grid(t_lo, t_hi, samples)]
    tagged += [(g, "gram") for _, g in _gram_rows(grams)]
    tagged.sort(key=lambda item: (item[0], item[1] == "sample"))
    p, qp = _batched(symmetric_grid, (sigma,), [t for t, _ in tagged])[:, 0]
    for (t, tag), a, b, z in zip(tagged, _python(p), _python(qp), _python(p + qp)):
        yield (t, a.real, a.imag, b.real, b.imag, z.real, z.imag, tag)


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
    _guard_rows("surface", n_sigma * n_t)
    ts, sigmas = _grid(t_lo, t_hi, n_t), _grid(sigma_lo, sigma_hi, n_sigma)
    p, qp = _batched(symmetric_grid, sigmas, ts)
    for sigma, row_p, row_qp in zip(sigmas, p, qp):
        for t, a, b in zip(ts, _python(row_p), _python(row_qp)):
            yield (sigma, t, abs(a), abs(b))  # Python's abs: numpy's rounds apart


def export_loops(
    sigma_list: Sequence[float], t_lo: float, t_hi: float, samples: int
) -> Iterator[Tuple]:
    """zeta trajectories via the first (Euler-Maclaurin) algorithm, one
    block of rows per sigma.  Every sigma is checked at both ends of the
    grid first; ends of one sign bound every point between them."""
    if samples < 1:
        raise DomainError("loops needs samples >= 1")
    if t_lo * t_hi < 0.0:
        raise DomainError("loops needs t_lo and t_hi of one sign")
    _guard_rows("loops", len(sigma_list) * samples)
    ts = _grid(t_lo, t_hi, samples)
    for sigma, t in itertools.product(sigma_list, (ts[0], ts[-1])):
        em_paper_domain(Argument(sigma, t))
    for sigma, row in zip(sigma_list, _batched(em_paper_grid, sigma_list, ts)):
        for t, z in zip(ts, _python(row)):
            yield (sigma, t, z.real, z.imag)


def export_zeros(
    t_hi: Optional[float] = None,
    count: Optional[int] = None,
    tol: float = 1e-8,
    t_lo: float = 10.0,
) -> Iterator[Tuple]:
    """Located zeros in [t_lo, t_hi], Gram offsets and certificate residuals |Z|."""
    for rec in _collect_zeros(t_hi, count, tol, t_lo):
        yield (rec.ordinal, rec.t, rec.gram_index, rec.scaled_offset, rec.residual)


def _collect_zeros(
    t_hi: Optional[float],
    count: Optional[int],
    tol: float,
    t_lo: float = 10.0,
) -> List[ZeroRecord]:
    if t_hi is None and count is None:
        raise DomainError("need a t_hi or a zero count")
    if count is not None and count < 1:
        raise DomainError(f"zero count must be >= 1, got {count}")
    if t_hi is None:
        # one zero per Gram interval on average; pad a little
        first = int(zero_count_main(max(t_lo, 10.0)))
        t_hi = gram_point(first + count + max(5, count // 20))
    return find_zeros(t_lo, t_hi, tol=tol)[:count]


def export_histogram(count: int, bins: int, tol: float = 1e-8) -> Iterator[Tuple]:
    """Gram-offset histogram of the first `count` zeros."""
    if bins < 1:
        raise DomainError("bins must be >= 1")
    offsets = gram_offsets(_collect_zeros(None, count, tol))
    centers, counts = histogram(offsets, bins)
    for c, k in zip(centers, counts):
        yield (float(c), int(k))


def export_gram(t_lo: float, t_hi: float) -> Iterator[Tuple]:
    """Rows (n, g_n) for the Gram points in [t_lo, t_hi]."""
    grams = gram_indices(t_lo, t_hi)
    _guard_rows("gram", grams.stop - grams.start)
    yield from _gram_rows(grams)


def _gram_rows(grams: range) -> Iterator[Tuple[int, float]]:
    """(n, g_n) for n in grams, solved _SLICE Gram points a call."""
    for start in range(grams.start, grams.stop, _SLICE):
        n = np.arange(start, min(start + _SLICE, grams.stop))
        yield from zip(n.tolist(), gram_point(n).tolist())


def export_conjugate(
    s: Argument, n_lo: int = 1, n_hi: Optional[int] = None
) -> Iterator[Tuple]:
    """Conjugate-region report: boundaries, direct and predicted sums."""
    if n_hi is None:
        n_hi = min(frame_of(s.t).n_p, 10)
    conj_region(n_lo, s.t)  # both ends are checked before any sum
    conj_region(n_hi, s.t)
    # All sums before the first row: an overflowing prediction leaves nothing
    # written.  The direct sum's log-table guard outranks the phase limit.
    sums = [(n, conj_sum_direct(n, s), conj_sum_predicted(n, s)) for n in range(n_lo, n_hi + 1)]
    for n, direct, pred in sums:
        region = conj_region(n, s.t)
        rel = abs(direct) / abs(pred.value) - 1.0 if pred.value != 0 else math.nan
        yield (n, region.N_lo, region.N_center, region.N_hi, region.width,
               direct.real, direct.imag, pred.value.real, pred.value.imag,
               rel, int(pred.accuracy_unguaranteed))
