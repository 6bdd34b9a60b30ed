#!/usr/bin/env python3
"""Sample random states under all three measures and summarize purity.

Shows the mean-purity ordering E_G >= E_HS at each dimension, the qubit
coincidence of the superfidelity and Bures measures, and the rejection
sampler's acceptance rate at N >= 3 (about 0.48 at every N, since it proposes
from the induced measure).
"""
import argparse

import numpy as np

from superfid import (Measure, RngStream, ks_test_two_sample, mc_mean,
                      purity_mean_hs, sample_batch)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=50_000)
    parser.add_argument("--max-dim", type=int, default=4)
    args = parser.parse_args()

    print(f"{'N':>2} {'measure':>7} {'mean purity':>12} {'3*SE':>9} "
          f"{'HS mean':>8} {'accept rate':>12}")
    for dim in range(2, args.max_dim + 1):
        for measure in (Measure.HILBERT_SCHMIDT, Measure.BURES, Measure.SUPERFIDELITY):
            _, eigs, report = sample_batch(measure, dim, args.count, RngStream(args.seed, dim))
            mean, se = mc_mean(np.sum(eigs ** 2, axis=-1))
            rate = f"{report.empirical_rate:12.4f}" if report else " " * 12
            print(f"{dim:>2} {measure.value:>7} {mean:12.5f} {3 * se:9.1e} "
                  f"{purity_mean_hs(dim):8.4f} {rate}")

    _, g, _ = sample_batch(Measure.SUPERFIDELITY, 2, args.count, RngStream(args.seed, 50))
    _, b, _ = sample_batch(Measure.BURES, 2, args.count, RngStream(args.seed, 51))
    res = ks_test_two_sample(g[:, 0], b[:, 0])
    print(f"\nqubit superfidelity vs Bures eigenvalue law: "
          f"two-sample KS D = {res.statistic:.4f}, p = {res.p_value:.3f} "
          f"(the two qubit measures coincide)")


if __name__ == "__main__":
    main()
