"""Why the exponent scale matters: project t^(3/5) onto two temporal bases.

With the matched scale (lambda = 1/5 makes t^(3/5) the third member) the
projection is exact almost immediately.  With the classical polynomial scale
(lambda = 1) the fractional power is approximated only algebraically, so the
error crawls down as the basis grows.
"""

import numpy as np

from muntzspec import MuntzBasis, muntz_project


def target(t):
    return t ** (3.0 / 5.0)


def main():
    print("matched scale (lambda = 1/5)")
    print(f"{'N':>4s} {'projection error':>18s}")
    for nmax in (1, 2, 3, 4, 5):
        basis = MuntzBasis(0.2, nmax)
        _, err = muntz_project(target, basis, 64)
        print(f"{nmax:4d} {err:18.3e}")

    print()
    print("classical scale (lambda = 1)")
    print(f"{'N':>4s} {'projection error':>18s}")
    for nmax in (4, 8, 16, 32):
        basis = MuntzBasis(1.0, nmax)
        _, err = muntz_project(target, basis, 400)
        print(f"{nmax:4d} {err:18.3e}")

    print()
    print("the matched basis hits machine precision by N = 2; the classical")
    print("basis loses less than a decade for every doubling of N")


if __name__ == "__main__":
    main()
