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

One bit loop, _ising_block, gives the dense H or its mirror-even block as
a diagonal and one flip map per spin, for 2 to MAX_SITES spins; the caller
budgets them. Defaults target interactive runs (n = 8, d = 256). The quench
evolves the state, not the operator, in the mirror-even sector: H commutes
with the mirror R (site j <-> n+1-j), which fixes both polarized states, so
psi_t stays in the R = +1 sector of dimension m = (2^n + 2^ceil(n/2))/2.
There it runs one short-iterative Lanczos propagator from psi_0: k steps
of a matrix-free H v (the diagonal plus one gather per spin) with full
reorthogonalization, O(m k^2) work, and one eigensolve of the k x k
tridiagonal; no m x m or d x d matrix is formed. k grows from 64 until the
a posteriori error bound holds over the whole grid (k = 64 for t <= 0.5,
about 160 at n = 10 and 256 at n = 16 for t <= 10). Each time point then
costs one O(m k) product plus its Haar draws, which dominate from n = 12
on. The default 41-point grid (`thermalize --pol z`, 200 samples per
point) takes about 0.5 s at n = 10, 1.2 s at n = 12 and 18 s at n = 16 as
a whole command on one BLAS thread of a 2-core Xeon box.
"""
from __future__ import annotations

import numpy as np

from .channels import PartialTrace, UnitaryChannel
from .dual import distance_table, dual_ensemble, estimate_observable
from .linalg import hermitian_eig, kron, sigma_y, sigma_z, unitary_evolution
from .rng import child_seed

DEFAULT_G = 1.05
DEFAULT_H = 0.5

# the longest chain: 2^n basis indices form an int64 range, which np.arange(2**63) is not
MAX_SITES = 62

# Lanczos steps of the quench: the first run, each growth and the cap on the
# basis, which the CLI budget prices; the error bound, relative to the state
KRYLOV_START, KRYLOV_STEP, KRYLOV_MAX = 64, 32, 480
KRYLOV_TOL = 1e-12

_PAULI_1 = {"z": sigma_z, "y": sigma_y}


def ising_hamiltonian(n: int, g: float, h: float) -> np.ndarray:
    """Dense mixed-field Ising Hamiltonian, open boundary, site 1 slowest.

    Real symmetric float64, 2^n x 2^n, built without a budget check.
    """
    diag, flips, weights, _, _ = _ising_block(n, g, h, mirror=False)
    ham = np.diag(diag)
    cols = np.arange(diag.size)
    for i, w in zip(flips, weights):
        ham[i, cols] += w
    return ham


def sector_dim(n: int) -> int:
    """Dimension (2^n + 2^ceil(n/2)) / 2 of the mirror-even sector of n spins."""
    return 2 ** (n - 1) + 2 ** ((n + 1) // 2 - 1)


def _ising_block(n: int, g: float, h: float, mirror: bool):
    """P^T H P from the bits, as its diagonal and flip maps, and the map back;
    refuses chains outside 2 to MAX_SITES spins.

    Column j of the isometry P is (e_x + e_R(x))/c_j for an orbit {x, R(x)},
    c_j = sqrt(2) for a pair and 2 for a palindrome. With mirror, R is the
    site mirror and P spans its even sector; without, R is the identity, so
    P = I and the block is the dense H. Flipping spin k of column j's orbit
    lands in column flips[k, j], and the block holds weights[k, j] there,
    summed over k; the block is symmetric, so these are also row j's entries
    and (P^T H P v)_j = diag_j v_j + sum_k weights[k, j] v[flips[k, j]].
    Also returns each basis index's column and P's entry there.
    """
    if not 2 <= n <= MAX_SITES:
        raise ValueError(f"need at least 2 spins and at most {MAX_SITES}, got {n}")
    idx = np.arange(2**n)
    rev = sum(((idx >> k) & 1) << (n - 1 - k) for k in range(n)) if mirror else idx
    reps = np.flatnonzero(idx <= rev)
    j_of = np.searchsorted(reps, np.minimum(idx, rev))
    c = np.where(reps == rev[reps], 2.0, np.sqrt(2.0))
    # z_j = +1/-1 for bit j of the basis index, site j on bit n-1-j
    z = 1.0 - 2.0 * ((reps[np.newaxis, :] >> (n - 1 - np.arange(n)[:, np.newaxis])) & 1)
    diag = -np.sum(z[:-1] * z[1:], axis=0) - h * np.sum(z, axis=0)
    # a bit flip never stays inside its orbit
    flips = j_of[reps[np.newaxis, :] ^ (1 << np.arange(n))[:, np.newaxis]]
    return diag, flips, -g * c[flips] / c, j_of, c[j_of] / 2


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
    grid. Every argument is checked before the Lanczos run.

    The state, not U(t), is evolved, inside the mirror-even sector that
    holds psi_0: with that sector's isometry P and the flip maps of
    P^T H P from _ising_block, _propagate gives every phi(t) = e^{-iHt} P^T
    psi_0 from one Lanczos basis; psi_t = P phi(t) is a gather and gives the
    exact value <psi_t| B (x) I |psi_t>. The randomized value is the
    dual-state estimate of tr[X_t(|psi_0><psi_0|) B] for the U(t) channel
    X_t, from a fresh ensemble of n_samples states seeded by (seed, time
    index). X_t's dual samples are those of the partial trace keeping spin
    1 rotated by U(t)^dag, so every time point samples that one channel, a
    PartialTrace whose identity is never formed, with the vector A = psi_t,
    draw by draw the same values. Rows carry time, exact, estimate, sigma_n
    and the 3 sigma_n half-width under the key "bound".
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
    diag, flips, weights, j_of, scale = _ising_block(n, g, h, mirror=True)
    psi0 = scale * polarized_state(n, polarization)
    v0 = np.bincount(j_of, psi0.real) + 1j * np.bincount(j_of, psi0.imag)
    states = _propagate(lambda v: diag * v + (weights * v[flips]).sum(0), v0, times)
    keep = PartialTrace(2**n, d_b=2)
    b = _PAULI_1[observable]
    rows = []
    for i, (t, phi) in enumerate(zip(times, states)):
        psi_t = scale * phi[j_of]
        pt = psi_t.reshape(2, -1)
        exact = float(np.einsum("bi,bc,ci->", pt.conj(), b, pt).real)
        # one ensemble alive at a time: at n = 16 its draws take 100 MiB
        rep = estimate_observable(dual_ensemble(keep, n_samples, child_seed(seed, i)), psi_t, b)
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


def _propagate(hv, v: np.ndarray, times: np.ndarray):
    """Yield e^{-iHt} v for each t of the increasing grid times, H Hermitian
    and applied by hv: the short-iterative Lanczos propagator.

    k Lanczos steps from v, fully reorthogonalized, give the basis Q_k (rows
    q) and the real tridiagonal T_k = W diag(w) W^T, from one hermitian_eig;
    then e^{-iHt} v ~ ||v|| Q_k^T W (e^{-iwt} W[0, :]), with the a posteriori
    error estimate ||v|| beta_k |e_k^T e^{-iT_k t} e_1| (Park and Light, J.
    Chem. Phys. 85, 5870, 1986; Hochbruck and Lubich, SIAM J. Numer. Anal.
    34, 1911, 1997). k starts at KRYLOV_START and grows by KRYLOV_STEP until
    the estimate is at most KRYLOV_TOL ||v|| at every time, or k reaches
    min(m, KRYLOV_MAX). A breakdown, beta_k <= KRYLOV_TOL, ends the run
    early and meets the bound; k = m spans the whole space and is exact.
    Past the cap the run restarts from the last time it reached, or from the
    longest halving of the next step that meets the bound.
    """
    m = v.size
    cap = min(m, KRYLOV_MAX)
    q = np.empty((cap + 1, m), dtype=complex)
    a, beta = np.zeros(cap), np.zeros(cap)
    t0 = 0.0
    while times.size:
        norm = np.linalg.norm(v)
        q[0] = v / norm
        k, size = 0, min(KRYLOV_START, cap)
        while True:
            for j in range(k, size):
                r = hv(q[j])
                if j:
                    r -= beta[j - 1] * q[j - 1]
                a[j] = np.vdot(q[j], r).real
                r -= a[j] * q[j]
                for _ in range(2):  # twice is enough
                    r -= q[: j + 1].T @ (q[: j + 1] @ r.conj()).conj()
                beta[j] = np.linalg.norm(r)
                if beta[j] <= KRYLOV_TOL:
                    size = j + 1
                    break
                q[j + 1] = r / beta[j]
            k = size
            w, wv = hermitian_eig(np.diag(a[:k]) + np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1))
            end = 0.0 if k == m else beta[k - 1]
            p = np.exp(-1j * np.outer(times - t0, w)) * wv[0]  # rows e^{-iwt} W[0, :]
            err = end * np.abs(p @ wv[k - 1])  # relative to ||v||
            if err.max() <= KRYLOV_TOL or k == cap:
                break
            size = min(k + KRYLOV_STEP, cap)
        done = times.size if err.max() <= KRYLOV_TOL else int(np.argmax(err > KRYLOV_TOL))
        for row in p[:done] @ wv.T:
            v = norm * (row @ q[:k])
            yield v
        if done:
            t0, times = times[done - 1], times[done:]
            continue
        step = times[0] - t0
        while end * abs(np.exp(-1j * step * w) * wv[0] @ wv[k - 1]) > KRYLOV_TOL:
            step /= 2
        v = norm * (np.exp(-1j * step * w) * wv[0] @ wv.T @ q[:k])
        t0 += step


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
