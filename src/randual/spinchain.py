"""Chaotic Ising-chain experiments driven by the dual-state estimator.

The model is the mixed-field Ising chain on n spins with open boundaries,

    H = - sum_{i=1}^{n-1} sigma^z_i sigma^z_{i+1}
        - g sum_i sigma^x_i - h sum_i sigma^z_i,

site 1 on the slowest index. At g = 1.05, h = 0.5 the chain is strongly
nonintegrable; quenching a fully polarized product state then shows weak
(Y-polarized) or strong (Z-polarized) relaxation of the first spin.

thermalization_experiment tracks a single-spin expectation through the
quench two ways at once: exact evolution of the state, and the randomized
dual-state estimate of the channel that evolves the full chain and keeps
the first spin. distance_scaling_experiment instead measures how fast the
rank-N dual estimator approaches the exact dual as N grows, for the
UnitaryChannel of U(t): unitary-induced when the whole chain is the input,
dilated when the input is restricted to the first n_a spins.

One bit loop, _ising_block, builds the dense H or its mirror-even block,
without a size check; the caller budgets them. Defaults target
interactive runs (n = 8, d = 256). The quench evolves the state, not the
operator, in the mirror-even sector: H commutes with the mirror R
(site j <-> n+1-j), which fixes both polarized states, so psi_t stays in
the R = +1 sector of dimension m = (2^n + 2^ceil(n/2))/2.
Its one eigensolve, the only O(m^3) step, is about 1/7 of the dense one;
each time point costs O(d^2) plus its Haar draws. At n = 10 the default
41-point grid (`thermalize --n 10 --pol z`, 200 samples per point) takes
0.7-1.0 s as a whole command on one BLAS thread of a 2-core Xeon box; each
added spin multiplies the eigensolve's work by about 8.
"""
from __future__ import annotations

import numpy as np

from .channels import UnitaryChannel
from .dual import distance_table, dual_ensemble, estimate_observable
from .linalg import hermitian_eig, kron, sigma_y, sigma_z, unitary_evolution
from .rng import child_seed

DEFAULT_G = 1.05
DEFAULT_H = 0.5

_PAULI_1 = {"z": sigma_z, "y": sigma_y}


def ising_hamiltonian(n: int, g: float, h: float) -> np.ndarray:
    """Dense mixed-field Ising Hamiltonian, open boundary, site 1 slowest.

    Real symmetric float64, 2^n x 2^n, built without a size check.
    """
    return _ising_block(n, g, h, mirror=False)[0]


def _ising_block(n: int, g: float, h: float, mirror: bool):
    """P^T H P built from the bits, and the map back; refuses chains under 2 spins.

    Column j of the isometry P is (e_x + e_R(x))/c_j for an orbit {x, R(x)},
    c_j = sqrt(2) for a pair and 2 for a palindrome. With mirror, R is the
    site mirror and P spans its even sector; without, R is the identity, so
    P = I and the block is the dense H. Also returns each basis index's
    column and P's entry there.
    """
    if n < 2:
        raise ValueError("need at least 2 spins")
    idx = np.arange(2**n)
    rev = sum(((idx >> k) & 1) << (n - 1 - k) for k in range(n)) if mirror else idx
    reps = np.flatnonzero(idx <= rev)
    j_of = np.searchsorted(reps, np.minimum(idx, rev))
    c = np.where(reps == rev[reps], 2.0, np.sqrt(2.0))
    # z_j = +1/-1 for bit j of the basis index, site j on bit n-1-j
    z = 1.0 - 2.0 * ((reps[np.newaxis, :] >> (n - 1 - np.arange(n)[:, np.newaxis])) & 1)
    block = np.diag(-np.sum(z[:-1] * z[1:], axis=0) - h * np.sum(z, axis=0))
    cols = np.arange(reps.size)
    for k in range(n):  # a bit flip never stays inside its orbit
        i = j_of[reps ^ (1 << k)]
        block[i, cols] -= g * c[i] / c
    return block, j_of, c[j_of] / 2


def polarized_state(n: int, axis: str) -> np.ndarray:
    """Product state fully polarized along +z or +y.

    Per site: |z+> = |0>, |y+> = (|0> + i|1>)/sqrt(2).
    """
    if axis == "z":
        site = np.array([1.0, 0.0], dtype=complex)
    elif axis == "y":
        site = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
    else:
        raise ValueError(f"axis must be one of {sorted(_PAULI_1)}")
    return kron(*[site] * n)


def thermalization_experiment(
    n: int,
    polarization: str,
    times,
    n_samples: int,
    seed: int,
    observable: str | None = None,
    g: float = DEFAULT_G,
    h: float = DEFAULT_H,
) -> list[dict]:
    """Exact and randomized first-spin expectation through the quench.

    The n-spin chain with fields g, h (not both zero: that chain is
    classical and never relaxes) starts polarized along polarization and
    tracks observable on the first spin, by default the polarization axis.
    times must be a nonempty, finite, nonnegative, strictly increasing 1-d
    grid. Every argument is checked before the eigensolve.

    Per time point the state, not U(t), is evolved, inside the mirror-even
    sector that holds psi_0: with that sector's isometry P and block
    P^T H P = W diag(w) W^T (W real) from _ising_block, c_0 = W^T P^T psi_0,
    psi_t = P W (e^{-iwt} c_0) costs two real m-dimensional mat-vecs and a
    gather, and gives the exact value <psi_t| B (x) I |psi_t>. The
    randomized value is the dual-state estimate of tr[X_t(|psi_0><psi_0|) B]
    for the U(t) channel X_t, from a fresh ensemble of n_samples states
    seeded by (seed, time index). X_t's dual samples are those of the
    partial trace keeping spin 1 rotated by U(t)^dag, so every time point
    samples that one channel with the vector A = psi_t, draw by draw the
    same values. Rows carry time, exact, estimate, sigma_n and the
    3 sigma_n half-width under the key "bound".
    """
    if polarization not in _PAULI_1:
        raise ValueError(f"polarization must be one of {sorted(_PAULI_1)}")
    observable = polarization if observable is None else observable
    if observable not in _PAULI_1:
        raise ValueError(f"observable must be one of {sorted(_PAULI_1)}")
    if g == 0.0 and h == 0.0:
        raise ValueError("g and h must not vanish simultaneously")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a nonempty 1-d grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be nonnegative and strictly increasing")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    block, j_of, scale = _ising_block(n, g, h, mirror=True)
    w, v = hermitian_eig(block)
    psi0 = scale * polarized_state(n, polarization)
    c0 = _real_matvec(v.T, np.bincount(j_of, psi0.real) + 1j * np.bincount(j_of, psi0.imag))
    keep = UnitaryChannel(np.eye(2**n, dtype=complex), d_b=2)
    b = _PAULI_1[observable]
    rows = []
    for i, t in enumerate(times):
        psi_t = scale * _real_matvec(v, np.exp(-1j * w * t) * c0)[j_of]
        pt = psi_t.reshape(2, -1)
        exact = float(np.einsum("bi,bc,ci->", pt.conj(), b, pt).real)
        ens = dual_ensemble(keep, n_samples, child_seed(seed, i))
        rep = estimate_observable(ens, psi_t, b)
        rows.append(
            {
                "time": float(t),
                "exact": exact,
                "estimate": rep.estimate,
                "sigma_n": rep.sigma_n,
                "bound": 3.0 * rep.sigma_n,
            }
        )
    return rows


def _real_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real matrix m and a complex vector x as two real mat-vecs,
    so m is never cast to complex."""
    return m @ x.real + 1j * (m @ x.imag)


def distance_scaling_experiment(
    n: int,
    n_a: int,
    n_b: int,
    t: float,
    n_values: list[int],
    trials: int,
    seed: int,
    g: float = DEFAULT_G,
    h: float = DEFAULT_H,
) -> list[dict]:
    """Estimator-to-exact-dual distances across ensemble sizes.

    The channel evolves the n-spin chain to time t and keeps the first n_b
    spins, as UnitaryChannel(U(t), d_b=2^n_b, d_a=2^n_a). With n_a = n the
    ancilla is one-dimensional and the channel is unitary-induced; with
    n_a < n the input is restricted to the first n_a spins (the rest start
    in |0>), the channel is dilated and its samples are unnormalized
    post-selected states. With n_a = 0 it prepares the first n_b spins' reduced state
    rho_S(t) of the z-polarized chain, the exact dual is rho_S(t)^T, and N
    samples compress it. Rows and seeding are those of dual.distance_table.
    """
    if not (0 <= n_a <= n and 1 <= n_b <= n):
        raise ValueError(f"need 0 <= n_a <= n and 1 <= n_b <= n, got n_a={n_a}, n_b={n_b}, n={n}")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    ham = ising_hamiltonian(n, g, h)
    u = unitary_evolution(ham, t)
    ch = UnitaryChannel(u, d_b=2**n_b, d_a=2**n_a)
    return distance_table(ch, n_values, trials, seed)
