"""Dense linear algebra helpers.

Conventions used throughout the package: matrices are numpy arrays in
row-major layout, and the left factor of a tensor product is the slowest
varying index, so kron(A, B)[i*dB + k, j*dB + l] = A[i, j] * B[k, l].
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

# max |M - M^dag| tolerated where a Hermitian input is required
HERMITIAN_ATOL = 1e-10

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor slowest."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f))
    return out


def assert_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL, name: str = "matrix") -> None:
    """Raise ValueError unless m is square and Hermitian within atol."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    resid = np.abs(m - m.conj().T).max()
    if resid > atol:
        raise ValueError(f"{name} is not Hermitian: residual {resid:.3e} > {atol:.1e}")


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in keep.

    dims lists the factor dimensions slowest first; keep lists the factor
    positions that survive, in increasing order. The result is a matrix on
    the kept factors in their original relative order.
    """
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    if not keep or keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep {keep} out of range for {len(dims)} factors")
    k = len(dims)
    t = m.reshape(dims + dims)
    row = list(range(k))
    col = [i + k if i in keep else i for i in range(k)]
    out = [i for i in keep] + [i + k for i in keep]
    kept_dim = int(np.prod([dims[i] for i in keep]))
    return np.einsum(t, row + col, out).reshape(kept_dim, kept_dim)


def hermitian_eig(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    assert_hermitian(m, atol)
    return np.linalg.eigh(m)


def hs_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(m)))


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt distance ||a - b||_2."""
    return hs_norm(np.asarray(a) - np.asarray(b))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||a - b||_1."""
    return 0.5 * trace_norm(np.asarray(a) - np.asarray(b))


def max_entangled_state(d: int) -> np.ndarray:
    """Maximally entangled vector sum_i |ii> / sqrt(d) on a d*d space."""
    if d < 1:
        raise ValueError("dimension must be positive")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def unitary_evolution(h: np.ndarray, t: float, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via full eigendecomposition."""
    w, v = hermitian_eig(h, atol)
    return evolution_from_eig(w, v, t)


def evolution_from_eig(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) from a precomputed eigensystem h = v diag(w) v^dag."""
    return (v * np.exp(-1j * np.asarray(w) * t)) @ v.conj().T
