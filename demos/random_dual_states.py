"""Replace the exact dual matrix with N random pure states.

The mean of the sampled projectors converges to the exact dual at the
1/sqrt(N) rate, so a handful of vectors stand in for a matrix whose rank
can be exponentially larger.
"""

import numpy as np

from randual.channels import UnitaryChannel
from randual.dual import distance_report, dual_ensemble, exact_dual
from randual.rng import haar_unitary


def main():
    ch = UnitaryChannel(haar_unitary(32, seed=3), d_b=2)
    exact = exact_dual(ch)
    print(f"exact dual: rank {ch.d_c}, dimension {exact.shape[0]}")
    print(f"\n{'N':>6} {'hs distance':>12} {'1/sqrt(N)':>10} {'trace dist':>11}")
    for n in (10, 50, 100, 500, 2000):
        ens = dual_ensemble(ch, n, master_seed=4)
        rep = distance_report(ens)
        print(f"{n:6d} {rep.hs_distance:12.5f} {rep.bound:10.5f} {rep.trace_distance:11.5f}")
    # every row stores only N vectors; the N = 50 ensemble is already a
    # rank-50 approximation of a 64 x 64 matrix to ~2 digits. The ensemble
    # keeps the N Haar draws on the traced factor, d_b^2 times smaller than
    # the rows they fix (the rows are multiplied out on first use).
    ens = dual_ensemble(ch, 50, master_seed=4)
    print(f"\nensemble storage: draws {ens.draws.shape} (N, d_env) vs rows {ens.states.shape} (N, d_b*d_a) complex")
    print(f"samples are unit vectors: max |norm - 1| = "
          f"{np.abs(np.linalg.norm(ens.states, axis=1) - 1).max():.2e}")


if __name__ == "__main__":
    main()
