"""Regenerate zeros_first_ref.txt: the first ZEROS_FIRST_COUNT ordinates of
zeta zeros on the critical line, from mpmath.zetazero (independent of
zetasteps).  Run from the repository root:

    python3 bench/make_reference.py
"""

import os

import mpmath

from workloads import ZEROS_FIRST_COUNT

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "zeros_first_ref.txt")


def main() -> None:
    mpmath.mp.dps = 25
    with open(OUT, "w") as fh:
        fh.write(f"# first {ZEROS_FIRST_COUNT} zeta zero ordinates, mpmath.zetazero, 20 digits\n")
        for n in range(1, ZEROS_FIRST_COUNT + 1):
            fh.write(mpmath.nstr(mpmath.zetazero(n).imag, 20) + "\n")


if __name__ == "__main__":
    main()
