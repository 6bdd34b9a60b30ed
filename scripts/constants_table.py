#!/usr/bin/env python3
"""Tabulate the superfidelity-measure normalization constant by every route.

Exact closed forms exist for N = 2, 3; the quadrature column (a fixed Gauss
rule, N <= 5) cross-checks them and extends them to N = 4, 5; Jensen gives a guaranteed upper bound for all N; Monte Carlo works for
any N.  The series column shows the k_max = 20 value: the partial sum plus
an estimate of its omitted tail from the known k^(-(N-1)^2 - 1/2) decay of
the terms.  Without that tail the value overshoots badly for small N, where
purity is not concentrated near zero (~28% at N = 2).
"""
import argparse

from superfid import (RngStream, c_g_exact, c_g_jensen_bound, c_g_monte_carlo,
                      c_g_quadrature, c_g_series, c_hs)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--k-max", type=int, default=20)
    parser.add_argument("--max-dim", type=int, default=6)
    args = parser.parse_args()

    print(f"{'N':>2} {'C_HS':>12} {'exact':>12} {'quadrature':>12} "
          f"{'jensen bound':>13} {'monte carlo':>22} {'series(k<=%d)' % args.k_max:>14}")
    for dim in range(2, args.max_dim + 1):
        exact = f"{c_g_exact(dim).value:12.5g}" if dim in (2, 3) else " " * 12
        quad = f"{c_g_quadrature(dim).value:12.5g}" if dim <= 5 else " " * 12
        mc = c_g_monte_carlo(dim, args.samples, RngStream(args.seed, dim))
        series = c_g_series(dim, args.k_max, RngStream(args.seed, 100 + dim),
                            samples=args.samples)
        print(f"{dim:>2} {c_hs(dim).value:12.5g} {exact} {quad} "
              f"{c_g_jensen_bound(dim).value:13.5g} "
              f"{mc.value:12.5g} +- {mc.std_error:8.2g} {series.value:14.5g}")


if __name__ == "__main__":
    main()
