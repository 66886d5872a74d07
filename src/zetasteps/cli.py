"""Command-line front end.

Subcommands map one-to-one onto the exporters; `eval` runs a single point
through a chosen algorithm.  Exit codes: 0 success, 2 domain error,
3 resource-guard error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError, ResourceGuardError
from .evaluators import eval_em_paper, eval_reference, eval_symmetric, zeta_on_line
from .steps import Argument
from .symmetry import frame_of
from . import export as ex

_ALGORITHMS = ("em_paper", "symmetric", "rs_line", "reference")

EVAL_HEADER = ("sigma", "t", "algorithm", "zeta_re", "zeta_im", "terms_used", "flags")


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "sigma" in names:
        p.add_argument("--sigma", type=float, default=0.5)
    if "t" in names:
        p.add_argument("--t", type=float, required=True)
    if "t-range" in names:
        p.add_argument("--t-lo", type=float, required=True)
        p.add_argument("--t-hi", type=float, required=True)
    if "tol" in names:
        p.add_argument("--tol", type=float, default=1e-8)
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
    _add_common(p, "sigma", "t", "tol")

    p = sub.add_parser("zeros", help="locate critical-line zeros in a t range")
    _add_common(p, "t-range", "tol", "workers")
    p.add_argument("--count", type=int, default=None,
                   help="stop after this many zeros (t-hi then optional)")

    p = sub.add_parser("gram", help="list Gram points in a t range")
    _add_common(p, "t-range")

    p = sub.add_parser("conjugate", help="conjugate-region report at one ordinate")
    _add_common(p, "sigma", "t")
    p.add_argument("--n-lo", type=int, default=1)
    p.add_argument("--n-hi", type=int, default=None)

    p = sub.add_parser("stepplot", help="cumulative step rows for one ordinate")
    _add_common(p, "sigma", "t")
    p.add_argument("--decimation", type=int, default=1)

    p = sub.add_parser("limacon", help="double-pendulum trajectory rows")
    _add_common(p, "sigma", "t-range", "samples")

    p = sub.add_parser("surface", help="|P| and |QP(1-s)| on a strip grid")
    _add_common(p, "t-range")
    p.add_argument("--sigma-lo", type=float, default=0.0)
    p.add_argument("--sigma-hi", type=float, default=1.0)
    p.add_argument("--n-sigma", type=int, default=21)
    p.add_argument("--n-t", type=int, default=101)

    p = sub.add_parser("loops", help="zeta trajectories for several sigma")
    _add_common(p, "t-range", "samples")
    p.add_argument("--sigma", type=str, default="0.5",
                   help="comma-separated list of sigma values")

    p = sub.add_parser("histogram", help="Gram-offset histogram of leading zeros")
    _add_common(p, "tol", "workers")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--bins", type=int, default=21)
    return ap


def _eval_rows(args) -> Tuple[Sequence[str], Iterator[Tuple]]:
    s = Argument(args.sigma, args.t)
    if args.algorithm == "em_paper":
        res = eval_em_paper(s)
    elif args.algorithm == "symmetric":
        res = eval_symmetric(s)
    elif args.algorithm == "rs_line":
        if args.sigma != 0.5:
            raise DomainError("rs_line is defined on sigma = 1/2 only")
        z = zeta_on_line(args.t)
        n_p = frame_of(args.t).n_p  # the main-sum length
        return EVAL_HEADER, iter(
            [(args.sigma, args.t, "rs_line", z.real, z.imag, n_p, "")]
        )
    else:
        res = eval_reference(s, target_abs_error=args.tol)
    row = (
        args.sigma,
        args.t,
        res.algorithm,
        res.value.real,
        res.value.imag,
        res.terms_used,
        "|".join(sorted(res.flags)),
    )
    return EVAL_HEADER, iter([row])


def _dispatch(args) -> Tuple[Sequence[str], Iterator[Tuple]]:
    if args.command == "eval":
        return _eval_rows(args)
    if args.command == "zeros":
        return ex.ZEROS_HEADER, ex.export_zeros(
            t_hi=args.t_hi, count=args.count, tol=args.tol, t_lo=args.t_lo
        )
    if args.command == "gram":
        return ex.GRAM_HEADER, ex.export_gram(args.t_lo, args.t_hi)
    if args.command == "conjugate":
        return ex.CONJUGATE_HEADER, ex.export_conjugate(
            Argument(args.sigma, args.t), args.n_lo, args.n_hi
        )
    if args.command == "stepplot":
        return ex.STEPPLOT_HEADER, ex.export_stepplot(
            Argument(args.sigma, args.t), args.decimation
        )
    if args.command == "limacon":
        return ex.LIMACON_HEADER, ex.export_limacon(
            args.sigma, args.t_lo, args.t_hi, args.samples
        )
    if args.command == "surface":
        return ex.SURFACE_HEADER, ex.export_surface(
            args.sigma_lo, args.sigma_hi, args.t_lo, args.t_hi,
            args.n_sigma, args.n_t,
        )
    if args.command == "loops":
        sigmas = [float(x) for x in args.sigma.split(",") if x.strip()]
        if not sigmas:
            raise DomainError("loops needs at least one sigma")
        return ex.LOOPS_HEADER, ex.export_loops(
            sigmas, args.t_lo, args.t_hi, args.samples
        )
    if args.command == "histogram":
        return ex.HISTOGRAM_HEADER, ex.export_histogram(
            args.count, args.bins, tol=args.tol
        )
    raise DomainError(f"unknown command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        header, rows = _dispatch(args)
        # Exporters are generators that check their arguments on the first
        # row; take it before anything is written or --out is created.
        rows = iter(rows)
        rows = itertools.chain(list(itertools.islice(rows, 1)), rows)
        with contextlib.ExitStack() as stack:
            if args.out is None:
                stream = sys.stdout
            else:
                stream = stack.enter_context(open(args.out, "w"))
            ex.write_rows(stream, header, rows, args.format)
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 2
    except ResourceGuardError as err:
        print(f"resource guard: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
