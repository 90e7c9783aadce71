"""Tabulate the product rule against its polynomial shadow.

For each cell 1 <= n <= m <= MAX the splitting T_m (x) T_n = T_(m+n) +
e_(m,n) decategorifies to L_m L_n = L_(m+n) + L_(m-n); the table prints
the weight-map ranks (4 = 2 + 2) next to the polynomial identity.

Usage: python3 scripts/decategorify.py [--max M]
"""

import argparse

from atlq import cheb_l, poly_str
from atlq.cheb import poly_add, poly_mul
from atlq.projectors import WEIGHTS, phi_extremal


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max", type=int, default=3)
    args = parser.parse_args()

    for m in range(1, args.max + 1):
        for n in range(1, m + 1):
            ranks = (
                WEIGHTS.weight_tensor(m, n).rank(),
                phi_extremal(m + n).rank(),
                WEIGHTS.split(m, n).rank(),
            )
            lhs = poly_mul(cheb_l(m), cheb_l(n))
            rhs = poly_add(cheb_l(m + n), cheb_l(m - n))
            mark = "ok" if lhs == rhs and ranks == (4, 2, 2) else "MISMATCH"
            print(
                f"T_{m} (x) T_{n}: ranks {ranks[0]} = {ranks[1]} + {ranks[2]}"
                f"   L_{m} L_{n} = {poly_str(lhs)}   [{mark}]"
            )


if __name__ == "__main__":
    main()
