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
unitary channel of the full chain or, restricting the input to the first
n_a spins, for the induced general channel.

Default sizes target interactive runs (n = 8, d = 256). The same code runs
at n = 12 when the cap is raised, but dense eigendecomposition and per-time
unitaries at d = 4096 cost minutes, not seconds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import DilatedChannel, UnitaryChannel
from .dual import distance_table, dual_ensemble, estimate_observable
from .linalg import evolution_from_eig, hermitian_eig, kron, sigma_y, sigma_z, unitary_evolution
from .rng import child_seed

DEFAULT_G = 1.05
DEFAULT_H = 0.5
# dense 2^n x 2^n matrices; 12 sites = 4096 dims = 268 MB per complex matrix
DEFAULT_MAX_SITES = 12

_PAULI_1 = {"z": sigma_z, "y": sigma_y}


class ResourceCapError(RuntimeError):
    """Requested system size exceeds the configured memory budget."""


@dataclass(frozen=True)
class IsingConfig:
    """Chain parameters; fields must not both vanish (the g = h = 0 chain is
    classical and never relaxes, which defeats the experiments here)."""

    n: int
    g: float = DEFAULT_G
    h: float = DEFAULT_H

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 spins")
        if self.g == 0.0 and self.h == 0.0:
            raise ValueError("g and h must not vanish simultaneously")


@dataclass(frozen=True)
class ThermalizationRun:
    """One quench: initial polarization axis, tracked first-spin observable,
    time grid, samples per time point.

    observable defaults to the polarization axis, matching the quench
    protocol. times must be strictly increasing and nonnegative.
    """

    config: IsingConfig
    polarization: str
    observable: str | None = None
    times: np.ndarray | None = None
    n_samples: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.polarization not in _PAULI_1:
            raise ValueError(f"polarization must be one of {sorted(_PAULI_1)}")
        if self.observable is not None and self.observable not in _PAULI_1:
            raise ValueError(f"observable must be one of {sorted(_PAULI_1)}")
        t = default_time_grid() if self.times is None else np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("times must be a nonempty 1-d grid")
        if t[0] < 0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be nonnegative and strictly increasing")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        object.__setattr__(self, "times", t)

    @property
    def resolved_observable(self) -> str:
        return self.observable if self.observable is not None else self.polarization


def default_time_grid() -> np.ndarray:
    """t in [0, 10] in steps of 0.25."""
    return np.arange(0.0, 10.0 + 1e-9, 0.25)


def ising_hamiltonian(n: int, g: float, h: float, max_sites: int = DEFAULT_MAX_SITES) -> np.ndarray:
    """Dense mixed-field Ising Hamiltonian, open boundary, site 1 slowest.

    Real symmetric float64. Refuses n > max_sites with a memory estimate;
    raise the cap explicitly for larger chains.
    """
    if n < 2:
        raise ValueError("need at least 2 spins")
    if n > max_sites:
        need = (2**n) ** 2 * 16 / 2**20
        raise ResourceCapError(
            f"n={n} exceeds the cap of {max_sites} sites "
            f"(a dense complex matrix at this size is {need:.0f} MiB)"
        )
    dim = 2**n
    idx = np.arange(dim)
    # z_j = +1/-1 for bit j of the basis index, site j on bit n-1-j
    z = 1.0 - 2.0 * ((idx[np.newaxis, :] >> (n - 1 - np.arange(n)[:, np.newaxis])) & 1)
    diag = -np.sum(z[:-1] * z[1:], axis=0) - h * np.sum(z, axis=0)
    ham = np.diag(diag)
    for j in range(n):
        ham[idx, idx ^ (1 << (n - 1 - j))] -= g
    return ham


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
    run: ThermalizationRun, max_sites: int = DEFAULT_MAX_SITES
) -> list[dict]:
    """Exact and randomized first-spin expectation through the quench.

    Per time point: diagonal evolution gives U(t) and the exact value
    <psi_t| B (x) I |psi_t>; the randomized value pairs A = |psi_0><psi_0|
    with B through a fresh dual ensemble of the U(t) channel, seeded by
    (run.seed, time index). Rows carry time, exact, estimate, sigma_n and
    the 3 sigma_n half-width under the key "bound".
    """
    cfg = run.config
    ham = ising_hamiltonian(cfg.n, cfg.g, cfg.h, max_sites=max_sites)
    w, v = hermitian_eig(ham)
    psi0 = polarized_state(cfg.n, run.polarization)
    a = np.outer(psi0, psi0.conj())
    b = _PAULI_1[run.resolved_observable]
    rows = []
    for i, t in enumerate(run.times):
        u = evolution_from_eig(w, v, float(t))
        psi_t = u @ psi0
        pt = psi_t.reshape(2, -1)
        exact = float(np.einsum("bi,bc,ci->", pt.conj(), b, pt).real)
        ens = dual_ensemble(UnitaryChannel(u, d_b=2), run.n_samples, child_seed(run.seed, i))
        rep = estimate_observable(ens, a, b)
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
    max_sites: int = DEFAULT_MAX_SITES,
) -> list[dict]:
    """Estimator-to-exact-dual distances across ensemble sizes.

    The channel evolves the n-spin chain to time t and keeps the first n_b
    spins. With n_a = n the channel is unitary-induced; with n_a < n the
    input is restricted to the first n_a spins (the rest start in |0>) and
    sampling goes through the dilated path with unnormalized post-selected
    states. Rows and seeding are those of dual.distance_table.
    """
    if not 1 <= n_b <= n:
        raise ValueError(f"need 1 <= n_b <= n, got n_b={n_b}, n={n}")
    if not 1 <= n_a <= n:
        raise ValueError(f"need 1 <= n_a <= n, got n_a={n_a}, n={n}")
    ham = ising_hamiltonian(n, g, h, max_sites=max_sites)
    u = unitary_evolution(ham, t)
    if n_a == n:
        ch = UnitaryChannel(u, d_b=2**n_b)
    else:
        ch = DilatedChannel(u, d_a=2**n_a, d_b=2**n_b)
    return distance_table(ch, n_values, trials, seed)
