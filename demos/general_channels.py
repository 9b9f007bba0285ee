"""Non-unitary channels through their minimal Stinespring isometry.

A Kraus channel's operators, stacked, are an isometry V from the input to
output (x) environment, one environment dimension per operator. Random dual
states draw a Haar vector on that environment and contract it with V; no
unitary is built around the stack. Unless V is square the states are
normalized only on average, and their mean still converges to the exact
dual at the usual rate.
"""

import numpy as np

from randual.channels import (
    KrausChannel,
    stinespring_dilate,
    validate_channel,
)
from randual.dual import distance_report, dual_ensemble
from randual.linalg import sigma_x, sigma_y, sigma_z


def depolarizing(p):
    s0 = np.sqrt(1 - p) * np.eye(2, dtype=complex)
    paulis = (sigma_x, sigma_y, sigma_z)
    return KrausChannel(np.stack([s0, *(np.sqrt(p / 3) * s for s in paulis)]))


def main():
    ch = depolarizing(0.6)
    diag = validate_channel(ch)
    print(f"depolarizing channel: kind {diag.kind}, kraus rank {diag.kraus_rank}, "
          f"tp residual {diag.tp_residual:.1e}")

    d_b, d_env, d_a = stinespring_dilate(ch).shape
    print(f"stinespring isometry: {d_b} x {d_env} x {d_a} (output x environment x input), "
          f"draws of {d_env} entries")

    print(f"\n{'N':>6} {'hs to exact dual':>17} {'1/sqrt(N)':>10} {'mean |Phi|^2':>13}")
    for n in (100, 1000, 10000):
        ens = dual_ensemble(ch, n, master_seed=9)
        sq = float(np.mean(np.sum(np.abs(ens.states) ** 2, axis=1)))
        print(f"{n:6d} {distance_report(ens).hs_distance:17.5f} {1 / np.sqrt(n):10.5f} {sq:13.5f}")


if __name__ == "__main__":
    main()
