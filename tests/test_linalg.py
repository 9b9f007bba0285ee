"""Dense linear-algebra primitives against brute-force oracles."""
import numpy as np
import pytest

from randual.linalg import (
    evolution_from_eig,
    hermitian_eig,
    hs_distance,
    hs_norm,
    kron,
    max_entangled_state,
    partial_trace,
    sigma_x,
    sigma_y,
    sigma_z,
    trace_distance,
    trace_norm,
    unitary_evolution,
)
from randual.rng import haar_unitary

from helpers import random_hermitian


def kron_bruteforce(a, b):
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def partial_trace_bruteforce(m, dims, keep):
    """Index-sum definition, one flat loop over all row/column multi-indices."""
    dims = list(dims)
    keep = sorted(keep)
    kept = [dims[i] for i in keep]
    out_dim = int(np.prod(kept))
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for row in range(m.shape[0]):
        for col in range(m.shape[1]):
            ridx = np.unravel_index(row, dims)
            cidx = np.unravel_index(col, dims)
            traced = [i for i in range(len(dims)) if i not in keep]
            if any(ridx[i] != cidx[i] for i in traced):
                continue
            r_out = np.ravel_multi_index([ridx[i] for i in keep], kept) if kept else 0
            c_out = np.ravel_multi_index([cidx[i] for i in keep], kept) if kept else 0
            out[r_out, c_out] += m[row, col]
    return out


def test_kron_matches_bruteforce():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    assert np.allclose(kron(a, b), kron_bruteforce(a, b), atol=1e-14)


def test_kron_three_factors_associative():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(d, d)) for d in (2, 3, 2)]
    direct = kron(*mats)
    nested = kron_bruteforce(kron_bruteforce(mats[0], mats[1]), mats[2])
    assert np.allclose(direct, nested, atol=1e-14)
    with pytest.raises(ValueError):
        kron()


def test_partial_trace_matches_bruteforce():
    rng = np.random.default_rng(2)
    dims = (2, 3, 2)
    d = int(np.prod(dims))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for keep in ([0], [1], [2], [0, 1], [1, 2], [0, 2], [0, 1, 2]):
        got = partial_trace(m, dims, keep)
        want = partial_trace_bruteforce(m, dims, keep)
        assert np.allclose(got, want, atol=1e-13), keep


def test_partial_trace_full_trace_consistency():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    reduced = partial_trace(m, (2, 3), [0])
    assert np.isclose(np.trace(reduced), np.trace(m), atol=1e-13)


def test_product_state_partial_trace():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(partial_trace(kron(a, b), (2, 3), [0]), a * np.trace(b), atol=1e-13)
    assert np.allclose(partial_trace(kron(a, b), (2, 3), [1]), b * np.trace(a), atol=1e-13)


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 7)
    w, v = hermitian_eig(m)
    assert np.allclose((v * w) @ v.conj().T, m, atol=1e-9 * hs_norm(m))
    assert np.all(np.diff(w) >= 0)


def test_hermitian_eig_rejects_nonhermitian():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError):
        hermitian_eig(m)


def test_norms_against_definitions():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.isclose(hs_norm(m), np.sqrt(np.sum(np.abs(m) ** 2)), atol=1e-12)
    assert np.isclose(trace_norm(m), np.sum(np.linalg.svd(m, compute_uv=False)), atol=1e-12)
    n = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.isclose(hs_distance(m, n), hs_norm(m - n), atol=1e-12)


def test_trace_distance_extremes():
    # orthogonal pure states are perfectly distinguishable
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert np.isclose(trace_distance(p0, p1), 1.0, atol=1e-12)
    assert trace_distance(p0, p0) == 0.0


def test_max_entangled_state():
    for d in (2, 3, 5):
        v = max_entangled_state(d)
        assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-12)
        # reduced state on either half is maximally mixed
        rho = np.outer(v, v.conj())
        assert np.allclose(partial_trace(rho, (d, d), [0]), np.eye(d) / d, atol=1e-12)


def test_max_entangled_transpose_trick():
    # (U (x) I)|phi+> = (I (x) U^t)|phi+>, the identity behind channel duality
    rng = np.random.default_rng(8)
    d = 4
    u = haar_unitary(d, rng)
    v = max_entangled_state(d)
    left = kron(u, np.eye(d)) @ v
    right = kron(np.eye(d), u.T) @ v
    assert np.allclose(left, right, atol=1e-12)


def test_unitary_evolution_basics():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 6)
    assert np.allclose(unitary_evolution(h, 0.0), np.eye(6), atol=1e-12)
    u = unitary_evolution(h, 0.7)
    assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)


def test_unitary_evolution_group_property():
    rng = np.random.default_rng(10)
    h = random_hermitian(rng, 5)
    u1 = unitary_evolution(h, 0.3)
    u2 = unitary_evolution(h, 0.9)
    u3 = unitary_evolution(h, 1.2)
    assert np.allclose(u1 @ u2, u3, atol=1e-11)


def test_unitary_evolution_pauli_z():
    u = unitary_evolution(sigma_z, 0.5)
    want = np.diag([np.exp(-0.5j), np.exp(0.5j)])
    assert np.allclose(u, want, atol=1e-12)


def test_evolution_from_eig_matches():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 6)
    w, v = hermitian_eig(h)
    assert np.allclose(evolution_from_eig(w, v, 1.3), unitary_evolution(h, 1.3), atol=1e-12)


def test_pauli_algebra():
    assert np.allclose(sigma_x @ sigma_y, 1j * sigma_z, atol=1e-15)
    for s in (sigma_x, sigma_y, sigma_z):
        assert np.allclose(s @ s, np.eye(2), atol=1e-15)
        assert np.isclose(np.trace(s), 0.0, atol=1e-15)
