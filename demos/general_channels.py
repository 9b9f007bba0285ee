"""Non-unitary channels through dilation and post-selection.

A Kraus channel is first embedded into a unitary on a larger space; random
dual states of that unitary are then projected onto the block where the
dilation ancilla sits in its reference state. The projected states are
normalized only on average, and their mean still converges to the exact
dual at the usual rate.
"""

import numpy as np

from randual.channels import (
    KrausChannel,
    stinespring_dilate,
    validate_channel,
)
from randual.dual import dual_ensemble, dual_estimate, exact_dual
from randual.linalg import hs_distance, sigma_x, sigma_y, sigma_z


def depolarizing(p):
    s0 = np.sqrt(1 - p) * np.eye(2, dtype=complex)
    paulis = (sigma_x, sigma_y, sigma_z)
    return KrausChannel(np.stack([s0, *(np.sqrt(p / 3) * s for s in paulis)]))


def main():
    ch = depolarizing(0.6)
    diag = validate_channel(ch)
    print(f"depolarizing channel: kind {diag.kind}, kraus rank {diag.kraus_rank}, "
          f"tp residual {diag.tp_residual:.1e}")

    dil = stinespring_dilate(ch)
    print(f"dilation: {dil.d_u} x {dil.d_u} unitary, ancilla {dil.ancilla_dim}, "
          f"environment {dil.d_c}")

    exact = exact_dual(ch)
    print(f"\n{'N':>6} {'hs to exact dual':>17} {'1/sqrt(N)':>10} {'mean |Phi|^2':>13}")
    for n in (100, 1000, 10000):
        ens = dual_ensemble(ch, n, master_seed=9)
        est = dual_estimate(ens)
        sq = float(np.mean(np.sum(np.abs(ens.states) ** 2, axis=1)))
        print(f"{n:6d} {hs_distance(est, exact):17.5f} {1 / np.sqrt(n):10.5f} {sq:13.5f}")


if __name__ == "__main__":
    main()
