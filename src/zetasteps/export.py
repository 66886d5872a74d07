"""File emitters reproducing the paper-style figures as machine-readable
rows (CSV or JSON-lines).

Every export is a deterministic generator of tuples.  The array figures
(stepplot, limacon, surface, loops, gram) also have generators of column
blocks, which the `zetasteps` command writes as they come, with no tuple
built.  Each value prints as `%d` (an int, a bool included), `%.15g`
(another number) or `%s` (a str) prints it, so identical inputs give
byte-identical files; `_render` prints a block's numbers with numpy.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .ddmath import BLOCK, two_prod
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
_SLICE = 2 * BLOCK  # values per batched call of a figure, rows per column block


def _guard_rows(figure: str, rows: int, limit: int = FIGURE_ROW_GUARD) -> None:
    """ResourceGuardError past `limit` rows, raised before any row."""
    if rows > limit:
        raise ResourceGuardError(f"{figure} of {rows:.3g} rows exceeds {limit}")


# The renderer.  A rendered cell is its column's prefix bytes, 48 value
# slots and its suffix bytes.  The value slots hold, in print order, every
# byte a %.15g layout of a number in [1e-8, 1e15) can take: 0 the sign, 1-2
# "0.", 3-5 the zeros of 0.000d, 6-20 the 15 digits, 21 a point, 22-36 the
# digits again, 37-46 "e-05678+15" (every exponent out of the fixed range
# is e-05 ... e-08 or e+15), and 47 a 0xff placeholder for a cell formatted
# alone.  _MASKS[((X + 8) * 15 + k - 1) * 2 + negative] picks the bytes of
# decimal exponent X (after rounding) with k digits left once trailing
# zeros go: the digits before the point from the first copy, those after
# it from the second.  _MASKS[_SLOW] picks the placeholder alone.
_VALUE = np.frombuffer(b"-0.000" + b"0" * 15 + b"." + b"0" * 15 + b"e-05678+15\xff", np.uint8)
# Tables from bytes, with no numpy temporaries: 3-digit groups, and how many
# of a group's digits are left once trailing zeros go ("120": 2, "000": 0).
_DIGITS = np.frombuffer(bytes(48 + g // 10**i % 10 for g in range(1000) for i in (2, 1, 0)), "V3")
_KEPT = np.frombuffer(bytes(3 - (g % 10 == 0) - (g % 100 == 0) - (g == 0) for g in range(1000)), np.uint8)
_THOUSANDS = np.array([[1e12], [1e9], [1e6], [1e3], [1.0]])  # 15 digits as 5 groups of 3
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles


def _tens() -> np.ndarray:
    """The least double >= 10**j for j = -8..14: a search gives a double's
    decimal exponent exactly."""
    out = []
    for j in range(-8, 15):
        t = float(f"1e{j}")
        n, d = t.as_integer_ratio()
        out.append(t if n * 10 ** max(-j, 0) >= d * 10 ** max(j, 0) else math.nextafter(t, 1.0))
    return np.array(out)


def _masks() -> np.ndarray:
    rows = bytearray()
    for x in range(-8, 16):
        fixed = -4 <= x < 15
        lead = max(x + 1, 0) if fixed else 1  # digits before the point
        for k in range(1, 16):
            m = bytearray(48)
            if fixed and x < 0:
                m[1 : 2 - x] = bytes([1]) * (1 - x)  # "0." and -x - 1 zeros
            m[6 : 6 + (lead or k)] = bytes([1]) * (lead or k)
            if 0 < lead < k:
                m[21] = 1
                m[22 + lead : 22 + k] = bytes([1]) * (k - lead)
            if not fixed:
                for slot in (37, 38, 39, 35 - x) if x < 0 else (37, 44, 45, 46):
                    m[slot] = 1
            rows += m
            m[0] = 1
            rows += m
    return np.frombuffer(bytes(rows) + bytes(47) + bytes([1]), "V48")


_TENS, _MASKS = _tens(), _masks()
_SLOW = len(_MASKS) - 1


def _layout(header: Sequence[str], json: bool) -> Tuple[np.ndarray, np.ndarray, int]:
    """Every cell's bytes and the mask of those always printed, as (columns,
    width) arrays, and where the value slots start in a cell."""
    last = len(header) - 1
    if json:
        fix = [(("{" if c == 0 else ",") + '"%s":' % k, "}\n" if c == last else "")
               for c, k in enumerate(header)]
    else:
        fix = [("", "\n" if c == last else ",") for c in range(len(header))]
    fix = [(p.encode(), s.encode()) for p, s in fix]
    pre = max(len(p) for p, _ in fix)
    cells = np.zeros((len(fix), pre + 48 + max(len(s) for _, s in fix)), np.uint8)
    shown = np.zeros(cells.shape, bool)
    for cell, on, (p, s) in zip(cells, shown, fix):
        cell[: len(p)] = np.frombuffer(p, np.uint8)
        cell[pre : pre + 48] = _VALUE
        cell[pre + 48 : pre + 48 + len(s)] = np.frombuffer(s, np.uint8)
        on[: len(p)] = on[pre + 48 : pre + 48 + len(s)] = True
    return cells, shown, pre


def _digits(columns: Sequence, kinds: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """The digits (V15) and _MASKS keys (int16) of the cells, row-major, for _render: its temporaries die."""
    x = np.full((len(columns[0]), len(columns)), math.nan)
    for c, kind in enumerate(kinds):
        if kind == "f":
            x[:, c] = columns[c]
        elif kind != "U":
            x[:, c] = np.where(np.abs(columns[c]) < 1e15, columns[c], 0)
    a = np.abs(x).ravel()
    fast = (a >= 1e-8) & (a < 1e15)
    a[~fast] = 1.0
    e = np.searchsorted(_TENS, a, "right") - 9
    p = a * _POW10[14 - e]
    q = np.rint(p)
    tie = np.flatnonzero(np.abs(q - p) == 0.5)
    if tie.size:  # p is a half: the exact product's side of it rounds it
        err = two_prod(a[tie], _POW10[14 - e[tie]])[1]
        q[tie] = np.where(err == 0, q[tie], p[tie] + np.copysign(0.5, err))
    carry = q == 1e15
    e += carry
    groups = np.floor(np.where(carry, 1e14, q) / _THOUSANDS)  # exact: q < 2**53
    groups[1:] -= 1000.0 * groups[:-1]
    groups = groups.astype(np.int16)
    kept = _KEPT.take(groups)  # k = 3j + kept[j] for the last group j that is not 000
    k = ((kept + np.arange(0, 15, 3, dtype=np.uint8)[:, None]) * (kept > 0)).max(axis=0)
    digits = _DIGITS.take(groups.T).view("V15").reshape(-1)
    key = np.where(fast, ((e + 8) * 15 + k - 1) * 2 + (x.ravel() < 0), _SLOW).astype(np.int16)
    return digits, key


def _render(columns: Sequence, layout: Tuple[np.ndarray, np.ndarray, int], json: bool) -> str:
    """The text of the rows of equal-length ndarray columns under `layout`:
    floats print as %.15g, strs (a str array, or an object array of strs) as
    %s, quoted in JSON, and ints, bools or an object array of ints as %d.

    The kernel prints each number x with 1e-8 <= |x| < 1e15.  For its
    decimal exponent e, p = fl(|x| * 10**(14 - e)) (10**k is a double for
    k <= 22) is in [2**46, 2**50), where ulp(p) <= 1/8 puts every half-integer
    on p's grid; the exact product, within ulp(p)/2 of p, is on p's side of
    every half but p.  So np.rint(p) rounds it half-even to 15 digits as
    %.15g does, save where p is a half: there the product's error word
    (two_prod) rounds it, up if > 0, down if < 0, half-even if 0.  An int
    that small prints as its float: %d of n is %.15g of float(n).  Every
    other cell (0, inf, NaN, a float out of the range, a larger int, a str)
    is formatted alone; NaN is null in JSON.
    """
    cells, shown, pre = layout
    rows, width = len(columns[0]), len(columns)
    kinds = ["U" if isinstance(c[0], str) else c.dtype.kind for c in columns]
    digits, key = _digits(columns, kinds)
    text = np.empty((rows,) + cells.shape, np.uint8)
    text[...] = cells
    text[..., pre + 6 : pre + 21].view("V15")[..., 0] = digits.reshape(rows, width)
    text[..., pre + 22 : pre + 37].view("V15")[..., 0] = digits.reshape(rows, width)
    del digits  # each temporary goes before the next is made: a lower peak
    keep = np.empty(text.shape, bool)
    keep[...] = shown
    _MASKS.take(key.reshape(rows, width), out=keep[..., pre : pre + 48].view("V48")[..., 0], mode="clip")
    out = text.reshape(-1)[keep.reshape(-1)]
    del text, keep
    out = out.tobytes()
    slow = np.flatnonzero(key == _SLOW)
    if slow.size:
        fmts = [{"f": "%.15g", "U": '"%s"' if json else "%s"}.get(kind, "%d") for kind in kinds]
        texts = [fmts[c] % columns[c][r] for r, c in zip(*(i.tolist() for i in np.divmod(slow, width)))]
        texts = [("null" if json and t == "nan" else t).encode() for t in texts] + [b""]
        out = b"".join(itertools.chain.from_iterable(zip(out.split(b"\xff"), texts)))
    return out.decode()


def write_blocks(
    stream: TextIO,
    header: Sequence[str],
    blocks: Iterable[Sequence],
    fmt: str = "csv",
) -> int:
    """Stream column blocks out; returns the number of data rows written.

    A block is a list of equal-length ndarray columns, one per header name,
    as `_render` takes them; each goes out in the fewest writes, one row apart,
    of at most 16 * BLOCK cell bytes (about 50 KB of text).  JSON lines write
    NaN as null; CSV writes its header even for zero rows.
    """
    if fmt not in ("csv", "json-lines"):
        raise DomainError(f"unknown format {fmt!r} (csv or json-lines)")
    json = fmt == "json-lines"
    if not json:
        stream.write(",".join(header) + "\n")
    layout = _layout(header, json)
    piece, count = max(1, 16 * BLOCK // layout[0].size), 0
    for columns in blocks:
        rows = len(columns[0])
        k = -(-rows // piece)  # 0 for an empty block: nothing is written
        for i in range(k):
            stream.write(_render([c[rows * i // k : rows * (i + 1) // k] for c in columns], layout, json))
        count += rows
    return count


def row_blocks(rows: Iterable[Tuple]) -> Iterator[List]:
    """Column blocks of _SLICE tuple rows, typed by the first row: a str or
    int column (bools included) becomes an object ndarray, any other a float
    ndarray.  Every row must have the first row's column types."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    kinds = [object if isinstance(v, (str, int)) else float for v in first]
    rows = itertools.chain((first,), rows)
    for chunk in iter(lambda: list(itertools.islice(rows, _SLICE)), []):
        yield [np.array(col, dtype=k) for k, col in zip(kinds, zip(*chunk))]


def write_rows(
    stream: TextIO,
    header: Sequence[str],
    rows: Iterable[Tuple],
    fmt: str = "csv",
) -> int:
    """Stream rows out; returns the number of data rows written.

    A str value prints as %s (quoted in JSON), an int (bool included) as
    %d, any other value as %.15g, which prints -0, inf, nan, subnormals and
    numpy scalars as f"{float(v):.15g}" does.  Every row must be a tuple
    with its first row's column types (str, int or other number).  JSON
    lines write NaN as null; CSV writes its header even for zero rows.
    """
    return write_blocks(stream, header, row_blocks(rows), fmt)


def _rows(blocks: Iterable[Sequence]) -> Iterator[Tuple]:
    """The tuple rows of column blocks, of Python values."""
    for columns in blocks:
        yield from zip(*(c.tolist() for c in columns))


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


def _grid_blocks(sigmas: Sequence[float], ts: Sequence[float], values) -> Iterator[List]:
    """Blocks of rows (sigma, t, *values(j)) over the sigma-major grid, where
    j slices the flat grid, _SLICE rows a block."""
    sigmas, ts = np.asarray(sigmas), np.asarray(ts)
    for i in range(0, sigmas.size * ts.size, _SLICE):
        k = np.arange(i, min(i + _SLICE, sigmas.size * ts.size))
        yield [sigmas[k // ts.size], ts[k % ts.size], *values(slice(i, i + _SLICE))]


def export_stepplot(s: Argument, decimation: int = 1) -> Iterator[Tuple]:
    """Rows of `stepplot_blocks`."""
    return _rows(stepplot_blocks(s, decimation))


def stepplot_blocks(s: Argument, decimation: int = 1) -> Iterator[List]:
    """Column blocks of rows (n, cumulative sum, angle differences) for
    n = 1..[t/pi], one per kernel block.

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
        terms = np.empty((2, b - a + 1))
        np.cos(phases[: b - a + 1], out=terms[0])
        np.sin(phases[: b - a + 1], out=terms[1])
        terms *= np.arange(a, b + 1, dtype=float) ** (-s.sigma)
        cums = np.cumsum(terms, axis=1) + carry
        keep = np.zeros(b - a + 1, bool)  # n - a for n = 1 mod decimation, n <= 3*n_p or n = n_max
        keep[(1 - a) % decimation :: decimation] = keep[: max(0, 3 * n_p - a + 1)] = keep[n_max - a :] = True
        keep = np.flatnonzero(keep)
        d1, d2 = phase_diffs(phases[np.add.outer(np.arange(3), keep)])  # at the kept rows only
        yield [keep + a, *cums[:, keep], d1, d2]
        carry = carry + np.sum(terms, axis=1, keepdims=True)


def export_limacon(
    sigma: float, t_lo: float, t_hi: float, samples: int
) -> Iterator[Tuple]:
    """Rows of `limacon_blocks`."""
    return _rows(limacon_blocks(sigma, t_lo, t_hi, samples))


def limacon_blocks(
    sigma: float, t_lo: float, t_hi: float, samples: int
) -> Iterator[List]:
    """The double-pendulum construction O -> P(s) -> zeta(s) along a
    t range; Gram points inside the range are emitted as tagged rows."""
    if samples < 2:
        raise DomainError("limacon needs samples >= 2")
    if not t_lo < t_hi:
        raise DomainError("need t_lo < t_hi")
    grams = gram_indices(t_lo, t_hi)
    _guard_rows("limacon", samples + grams.stop - grams.start)  # len() overflows past 2**63
    tagged = [(t, "sample") for t in _grid(t_lo, t_hi, samples)]
    tagged += [(g, "gram") for _, gs in _gram_blocks(grams) for g in gs.tolist()]
    tagged.sort(key=lambda item: (item[0], item[1] == "sample"))
    ts, tags = np.array([t for t, _ in tagged]), np.array([tag for _, tag in tagged])
    p, qp = _batched(symmetric_grid, (sigma,), ts)[:, 0]
    z = p + qp
    for i in range(0, ts.size, _SLICE):
        j = slice(i, i + _SLICE)
        yield [ts[j], p.real[j], p.imag[j], qp.real[j], qp.imag[j], z.real[j], z.imag[j], tags[j]]


def export_surface(
    sigma_lo: float,
    sigma_hi: float,
    t_lo: float,
    t_hi: float,
    n_sigma: int,
    n_t: int,
) -> Iterator[Tuple]:
    """Rows of `surface_blocks`."""
    return _rows(surface_blocks(sigma_lo, sigma_hi, t_lo, t_hi, n_sigma, n_t))


def surface_blocks(
    sigma_lo: float,
    sigma_hi: float,
    t_lo: float,
    t_hi: float,
    n_sigma: int,
    n_t: int,
) -> Iterator[List]:
    """|P(s)| and |Q(s)P(1-s)| on a rectangular critical-strip grid.  The
    moduli are np.hypot of the parts, which rounds as Python's abs of a
    complex does (np.abs rounds apart)."""
    if n_sigma < 2 or n_t < 2:
        raise DomainError("surface grid counts must be >= 2")
    _guard_rows("surface", n_sigma * n_t)
    ts, sigmas = _grid(t_lo, t_hi, n_t), _grid(sigma_lo, sigma_hi, n_sigma)
    p, qp = (v.reshape(-1) for v in _batched(symmetric_grid, sigmas, ts))
    yield from _grid_blocks(sigmas, ts, lambda j: (np.hypot(p[j].real, p[j].imag),
                                                   np.hypot(qp[j].real, qp[j].imag)))


def export_loops(
    sigma_list: Sequence[float], t_lo: float, t_hi: float, samples: int
) -> Iterator[Tuple]:
    """Rows of `loops_blocks`."""
    return _rows(loops_blocks(sigma_list, t_lo, t_hi, samples))


def loops_blocks(
    sigma_list: Sequence[float], t_lo: float, t_hi: float, samples: int
) -> Iterator[List]:
    """zeta trajectories via the first (Euler-Maclaurin) algorithm, one
    run of rows per sigma.  Every sigma is checked at both ends of the
    grid first; ends of one sign bound every point between them."""
    if samples < 1:
        raise DomainError("loops needs samples >= 1")
    if t_lo * t_hi < 0.0:
        raise DomainError("loops needs t_lo and t_hi of one sign")
    _guard_rows("loops", len(sigma_list) * samples)
    ts = _grid(t_lo, t_hi, samples)
    for sigma, t in itertools.product(sigma_list, (ts[0], ts[-1])):
        em_paper_domain(Argument(sigma, t))
    z = _batched(em_paper_grid, sigma_list, ts).reshape(-1)
    yield from _grid_blocks(sigma_list, ts, lambda j: (z[j].real, z[j].imag))


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
    """Rows of `gram_blocks`."""
    return _rows(gram_blocks(t_lo, t_hi))


def gram_blocks(t_lo: float, t_hi: float) -> Iterator[List]:
    """Column blocks of rows (n, g_n) for the Gram points in [t_lo, t_hi]."""
    grams = gram_indices(t_lo, t_hi)
    _guard_rows("gram", grams.stop - grams.start)
    yield from _gram_blocks(grams)


def _gram_blocks(grams: range) -> Iterator[List]:
    """[n, g_n] for n in grams, solved _SLICE Gram points a call."""
    for start in range(grams.start, grams.stop, _SLICE):
        n = np.arange(start, min(start + _SLICE, grams.stop))
        yield [n, gram_point(n)]


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
