"""Command-line front end.

Each subcommand names its header and column-block function with
`set_defaults`; all but `eval`, which runs one point through a chosen
algorithm, are exporters.  The array figures hand their numpy blocks to the
writer as they are; the other commands' tuple rows go through
`export.row_blocks`.
Exit codes: 0 success, 2 domain error, an unparsable or non-finite
number or an --out path that cannot be written, 3 resource-guard error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from typing import Iterator, List, Optional, Tuple

from .errors import DomainError, ResourceGuardError
from .evaluators import EvalResult, eval_em_paper, eval_reference, eval_symmetric, zeta_on_line
from .steps import Argument
from .symmetry import frame_of
from . import export as ex

_ALGORITHMS = ("em_paper", "symmetric", "rs_line", "reference")

EVAL_HEADER = ("sigma", "t", "algorithm", "zeta_re", "zeta_im", "terms_used", "flags")


def _finite(text: str) -> float:
    """A finite float option value; argparse exits 2 on anything else."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _finite_list(text: str) -> List[float]:
    values = [_finite(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one sigma")
    return values


def _eval_rows(args) -> Iterator[Tuple]:
    s = Argument(args.sigma, args.t)
    if args.algorithm == "em_paper":
        res = eval_em_paper(s)
    elif args.algorithm == "symmetric":
        res = eval_symmetric(s)
    elif args.algorithm == "rs_line":
        if args.sigma != 0.5:
            raise DomainError("rs_line is defined on sigma = 1/2 only")
        # terms_used is n_p, the main-sum length
        res = EvalResult(zeta_on_line(args.t), "rs_line", frame_of(args.t).n_p)
    else:
        res = eval_reference(s, target_abs_error=args.tol)
    yield (
        args.sigma,
        args.t,
        res.algorithm,
        res.value.real,
        res.value.imag,
        res.terms_used,
        "|".join(sorted(res.flags)),
    )


def _add_common(p: argparse.ArgumentParser, header, blocks, *names: str) -> None:
    """Options `names`, --format and --out; `blocks(args)` yields column
    blocks under `header`.  "t-range" requires --t-lo and --t-hi; "t-lo"
    requires --t-lo only."""
    p.set_defaults(header=header, blocks=blocks)
    if "sigma" in names:
        p.add_argument("--sigma", type=_finite, default=0.5)
    if "t" in names:
        p.add_argument("--t", type=_finite, required=True)
    if "t-range" in names or "t-lo" in names:
        p.add_argument("--t-lo", type=_finite, required=True)
        p.add_argument("--t-hi", type=_finite, required="t-range" in names)
    if "tol" in names:
        p.add_argument("--tol", type=_finite, default=1e-8)
    if "samples" in names:
        p.add_argument("--samples", type=int, default=1000)
    if "workers" in names:
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored: the zero search runs in one thread")
    p.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetasteps",
        description="Step-sum symmetry analysis of zeta partial sums: "
        "evaluation, zero scanning, and figure data export.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate zeta at one point")
    p.add_argument("--algorithm", choices=_ALGORITHMS, default="reference")
    _add_common(p, EVAL_HEADER, lambda a: ex.row_blocks(_eval_rows(a)), "sigma", "t", "tol")

    p = sub.add_parser("zeros", help="locate critical-line zeros in a t range")
    _add_common(p, ex.ZEROS_HEADER, lambda a: ex.row_blocks(ex.export_zeros(
        t_hi=a.t_hi, count=a.count, tol=a.tol, t_lo=a.t_lo
    )), "t-lo", "tol", "workers")
    p.add_argument("--count", type=int, default=None,
                   help="stop after this many zeros (t-hi then optional)")

    p = sub.add_parser("gram", help="list Gram points in a t range")
    _add_common(p, ex.GRAM_HEADER, lambda a: ex.gram_blocks(a.t_lo, a.t_hi), "t-range")

    p = sub.add_parser("conjugate", help="conjugate-region report at one ordinate")
    _add_common(p, ex.CONJUGATE_HEADER, lambda a: ex.row_blocks(ex.export_conjugate(
        Argument(a.sigma, a.t), a.n_lo, a.n_hi
    )), "sigma", "t")
    p.add_argument("--n-lo", type=int, default=1)
    p.add_argument("--n-hi", type=int, default=None)

    p = sub.add_parser("stepplot", help="cumulative step rows for one ordinate")
    _add_common(p, ex.STEPPLOT_HEADER, lambda a: ex.stepplot_blocks(
        Argument(a.sigma, a.t), a.decimation
    ), "sigma", "t")
    p.add_argument("--decimation", type=int, default=1)

    p = sub.add_parser("limacon", help="double-pendulum trajectory rows")
    _add_common(p, ex.LIMACON_HEADER, lambda a: ex.limacon_blocks(
        a.sigma, a.t_lo, a.t_hi, a.samples
    ), "sigma", "t-range", "samples")

    p = sub.add_parser("surface", help="|P| and |QP(1-s)| on a strip grid")
    _add_common(p, ex.SURFACE_HEADER, lambda a: ex.surface_blocks(
        a.sigma_lo, a.sigma_hi, a.t_lo, a.t_hi, a.n_sigma, a.n_t
    ), "t-range")
    p.add_argument("--sigma-lo", type=_finite, default=0.0)
    p.add_argument("--sigma-hi", type=_finite, default=1.0)
    p.add_argument("--n-sigma", type=int, default=21)
    p.add_argument("--n-t", type=int, default=101)

    p = sub.add_parser("loops", help="zeta trajectories for several sigma")
    _add_common(p, ex.LOOPS_HEADER, lambda a: ex.loops_blocks(
        a.sigma, a.t_lo, a.t_hi, a.samples
    ), "t-range", "samples")
    p.add_argument("--sigma", type=_finite_list, default="0.5",
                   help="comma-separated list of sigma values")

    p = sub.add_parser("histogram", help="Gram-offset histogram of leading zeros")
    _add_common(p, ex.HISTOGRAM_HEADER, lambda a: ex.row_blocks(ex.export_histogram(
        a.count, a.bins, tol=a.tol
    )), "tol", "workers")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--bins", type=int, default=21)
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call and kept for the process."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # A new or regular --out file is written to a temporary file beside it
    # and renamed onto it only on success, so a failed run leaves no
    # partial file; a symlink, device or pipe (/dev/null) is written in place.
    tmp = None
    if args.out is not None and not os.path.islink(args.out) and (
        os.path.isfile(args.out) or not os.path.exists(args.out)
    ):
        tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        # Exporters are generators that check their arguments on the first
        # block; take it before anything is written or a file is created.
        blocks = iter(args.blocks(args))
        blocks = itertools.chain(list(itertools.islice(blocks, 1)), blocks)
        with contextlib.ExitStack() as stack:
            out = tmp or args.out
            stream = sys.stdout if out is None else stack.enter_context(open(out, "w"))
            ex.write_blocks(stream, args.header, blocks, args.format)
        if tmp is not None:
            os.replace(tmp, args.out)
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 2
    except ResourceGuardError as err:
        print(f"resource guard: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"cannot write {args.out or 'stdout'}: {err.strerror or err}", file=sys.stderr)
        return 2
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
