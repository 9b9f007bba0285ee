"""Dense linear algebra helpers.

Conventions used throughout the package: matrices are numpy arrays in
row-major layout, and the left factor of a tensor product is the slowest
varying index, so kron(A, B)[i*dB + k, j*dB + l] = A[i, j] * B[k, l].
"""
from __future__ import annotations

import numpy as np

# max |M - M^dag| tolerated where a Hermitian input is required
HERMITIAN_ATOL = 1e-10
# rows per band of assert_hermitian's single pass
_BAND = 64

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
    """Raise ValueError unless m is square, nonempty, finite and Hermitian within atol.

    One banded pass: each band of rows m[i:i+b, i:] on and above the
    diagonal is compared with the matching columns m[i:, i:i+b] below it,
    so no d x d temporary is built and no full transpose is read. The
    residual max |m - m^dag| is the same set of moduli as the dense
    difference, hence the same number; a non-finite entry makes it
    non-finite.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    d = m.shape[0]
    if d == 0:
        raise ValueError(f"{name} must be nonempty")
    with np.errstate(invalid="ignore"):  # inf - inf: caught as non-finite below
        resid = np.max(
            [
                np.abs(m[i : i + _BAND, i:] - m[i:, i : i + _BAND].T.conj()).max()
                for i in range(0, d, _BAND)
            ]
        )
    if not np.isfinite(resid):
        raise ValueError(f"{name} has non-finite entries")
    if resid > atol:
        raise ValueError(f"{name} is not Hermitian: residual {resid:.3e} > {atol:.1e}")


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a matrix Hermitian within HERMITIAN_ATOL, eigenvalues ascending."""
    assert_hermitian(m)
    return np.linalg.eigh(m)


def hs_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(m)))


def unitary_evolution(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for h Hermitian within HERMITIAN_ATOL, via full eigendecomposition."""
    w, v = hermitian_eig(h)
    return evolution_from_eig(w, v, t)


def evolution_from_eig(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) from a precomputed eigensystem h = v diag(w) v^dag.

    A real v (a real symmetric h, such as the Ising chain) gives
    U = C - iS with C = v diag(cos wt) v^T and S = v diag(sin wt) v^T: two
    real GEMMs written straight into the real and imaginary parts, half the
    arithmetic of one complex GEMM. A complex v takes the complex product.
    """
    if np.iscomplexobj(v):
        return (v * np.exp(-1j * np.asarray(w) * t)) @ v.conj().T
    wt = np.asarray(w) * t
    out = np.empty(v.shape, dtype=complex)
    np.matmul(v * np.cos(wt), v.T, out=out.real)
    np.matmul(v * -np.sin(wt), v.T, out=out.imag)
    return out
