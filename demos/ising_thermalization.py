"""Weak and strong thermalization of a chaotic Ising chain.

The first-site magnetization after a quench is tracked two ways: exact
state-vector evolution, and the randomized dual-state estimate with N = 200
samples per time point. Z-polarized initial states relax with persistent
oscillations (weak); Y-polarized states relax fast (strong). The estimate
rides inside its 3 sigma_N band the whole way.
"""

import numpy as np

from randual.spinchain import thermalization_experiment


def show(axis, rows, every=4):
    print(f"\n{axis}-polarized quench, observable sigma^{axis} on site 1")
    print(f"{'t':>6} {'exact':>8} {'estimate':>9} {'3 sigma_N':>9} {'inside':>6}")
    misses = 0
    for row in rows:
        inside = abs(row["estimate"] - row["exact"]) <= row["bound"]
        misses += not inside
        if int(round(row["time"] / 0.25)) % every == 0:
            print(f"{row['time']:6.2f} {row['exact']:8.4f} {row['estimate']:9.4f} "
                  f"{row['bound']:9.4f} {'yes' if inside else 'NO':>6}")
    print(f"covered {len(rows) - misses}/{len(rows)} time points")


def main():
    times = np.arange(0.0, 10.0 + 1e-9, 0.25)
    for axis, seed in (("z", 31), ("y", 32)):
        rows = thermalization_experiment(
            n=8, polarization=axis, times=times, n_samples=200, seed=seed, g=1.05, h=0.5
        )
        show(axis, rows)


if __name__ == "__main__":
    main()
