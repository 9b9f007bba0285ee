"""Shared builders for the test suite."""
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

import randual
from randual import KrausChannel, SeedSpec, UnitaryChannel, haar_state, haar_unitary
from randual.channels import KRAUS_TOL_SCALE
from randual.dual import DualStateEnsemble, dual_ensemble, estimate_observable
from randual.linalg import (
    assert_hermitian,
    evolution_from_eig,
    hermitian_eig,
    hs_norm,
    sigma_y,
    sigma_z,
)
from randual.rng import child_seed
from randual.spinchain import ising_hamiltonian, polarized_state

# directory holding the imported package: src/ for a checkout, site-packages
# for an install; a relative PYTHONPATH would not survive a changed cwd
_PACKAGE_ROOT = str(Path(randual.__file__).resolve().parent.parent)


def run_python(args, cwd, env=None):
    """Run `python *args` in cwd with the package under test importable.

    env, if given, overrides entries of the inherited environment.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(args, cwd, env=None):
    """Run `python -m randual *args` in cwd against the package under test."""
    return run_python(["-m", "randual", *args], cwd, env)


def seedsequence_rng(master_seed, sample_index):
    """The stream at (master_seed, sample_index) by numpy's own SeedSequence:
    the reference for SeedSpec.rng()."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(sample_index,))
    return np.random.Generator(np.random.Philox(seq))


def assert_same_stream(got, want):
    """Two Philox Generators hold the same key, counter and buffer, then
    make the same draws."""
    gs, ws = got.bit_generator.state, want.bit_generator.state
    assert gs["bit_generator"] == ws["bit_generator"] == "Philox"
    for name in ("key", "counter"):
        assert gs["state"][name].dtype == ws["state"][name].dtype == np.uint64
        assert np.array_equal(gs["state"][name], ws["state"][name])
    assert np.array_equal(gs["buffer"], ws["buffer"])
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert gs[name] == ws[name]
    assert got.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()
    assert np.array_equal(got.integers(0, 2**64, 5, dtype=np.uint64), want.integers(0, 2**64, 5, dtype=np.uint64))


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


def random_unitary_channel(d_a, d_b, seed):
    return UnitaryChannel(haar_unitary(d_a, seed), d_b=d_b)


def depolarizing(p):
    """Qubit depolarizing channel with Pauli error weight p."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = np.array(
        [
            np.sqrt(1 - p) * np.eye(2, dtype=complex),
            np.sqrt(p / 3) * sx,
            np.sqrt(p / 3) * sy,
            np.sqrt(p / 3) * sz,
        ]
    )
    return KrausChannel(ops)


def amplitude_damping(gamma):
    ops = np.array(
        [
            [[1, 0], [0, np.sqrt(1 - gamma)]],
            [[0, np.sqrt(gamma)], [0, 0]],
        ],
        dtype=complex,
    )
    return KrausChannel(ops)


def random_kraus_channel(rng, d_a, d_b, r):
    """Random CPTP map: r Kraus operators sliced from a Haar isometry."""
    z = rng.normal(size=(d_b * r, d_a)) + 1j * rng.normal(size=(d_b * r, d_a))
    q = np.linalg.qr(z)[0]
    return KrausChannel(q.reshape(r, d_b, d_a))


def all_test_channels(seed=0):
    """One small channel of every kind and construction the suite covers."""
    rng = np.random.default_rng(seed)
    return [
        random_unitary_channel(8, 2, rng),
        random_unitary_channel(6, 3, rng),
        depolarizing(0.3),
        amplitude_damping(0.4),
        random_kraus_channel(rng, 3, 2, 3),
        complete_dilation(depolarizing(0.6)),
    ]


def _dilation_ancilla(r, d_a, d_b):
    # smallest ancilla >= r whose dilated space carries the (d_b, d_c) layout
    # with room for r orthogonal environment records; r * d_b always works
    nu = r
    while (d_a * nu) % d_b != 0 or (d_a * nu) // d_b < r:
        nu += 1
    return nu


def complete_dilation(ch):
    """A unitary dilation of a channel, the ancilla in its first basis vector.

    For a KrausChannel with r operators the ancilla dimension is the smallest
    nu >= r such that d_b divides d_a * nu and the traced factor can hold r
    orthogonal records. Columns U(|j> (x) |0>) = sum_k (M_k |j>) (x) |k> fix
    the action, with the environment zero-padded from r to d_a * nu / d_b
    slots; the remaining columns are the complete QR's orthonormal
    completion, which does not affect the channel. A UnitaryChannel is
    returned unchanged. The reference for the minimal Stinespring isometry
    and the oracle wherever a test needs a dilated UnitaryChannel.
    """
    if isinstance(ch, UnitaryChannel):
        return ch
    ops = ch.operators
    r, d_b, d_a = ops.shape
    nu = _dilation_ancilla(r, d_a, d_b)
    d_u = d_a * nu
    cols = np.zeros((d_b, d_u // d_b, d_a), dtype=complex)
    cols[:, :r] = ops.transpose(1, 0, 2)  # operator k in environment slot k
    cols = cols.reshape(d_u, d_a)
    # cols already has orthonormal columns (trace preservation); QR is used
    # only for the orthogonal complement, the constructed columns go in as is.
    q = np.linalg.qr(cols, mode="complete")[0]
    # column (j, a) of U is input j with ancilla a: a = 0 holds cols, the rest the complement
    u = np.empty((d_u, d_u), dtype=complex)
    u.reshape(d_u, d_a, nu)[..., 0] = cols
    u.reshape(d_u, d_a, nu)[..., 1:] = q[:, d_a:].reshape(d_u, d_a, nu - 1)
    return UnitaryChannel(u, d_b=d_b, d_a=d_a)


def random_density_matrix(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def max_entangled_state(d):
    """Maximally entangled vector sum_i |ii> / sqrt(d) on a d*d space."""
    if d < 1:
        raise ValueError("dimension must be positive")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def sample_dual_state(ch, seed):
    """One dual state of a unitary-induced channel, drawn alone from its
    seed address: (I (x) U^dag)(|phi+> (x) |psi>), psi Haar on the traced
    factor, as the one row of an ensemble of that single draw. An int seed
    means sample 0 of that master seed."""
    if isinstance(seed, int):
        seed = SeedSpec(seed)
    psi = haar_state(ch.d_c, seed.rng())
    return DualStateEnsemble(psi[np.newaxis, :], seed.master_seed, ch).states[0]


def batch_states_oracle(u, d_b, psis):
    """Dual rows by the contraction psi . conj(U) over the traced factor,
    with conj(U) formed in full: the reference for DualStateEnsemble.states."""
    d_a = u.shape[0]
    uc = u.conj().reshape(d_b, d_a // d_b, d_a)
    out = np.tensordot(psis, uc, axes=([1], [1])) / np.sqrt(d_b)
    return out.reshape(psis.shape[0], d_b * d_a)


def full_dilation_rows_oracle(u, d_b, nu, psis):
    """Dual rows of a dilated unitary u by the full product: every
    amplitude (I (x) U^dag)(|phi+> (x) |psi>) is computed, then the ancilla-0
    component is kept and scaled by sqrt(nu). The reference for the
    kept-column product in dual_ensemble."""
    n, d_env = psis.shape
    d_u = u.shape[0]
    prod = np.matmul(psis.conj(), u.reshape(d_b, d_env, d_u))
    out = np.empty((n, d_b, d_u), dtype=complex)
    np.divide(np.conjugate(prod, out=prod).transpose(1, 0, 2), np.sqrt(d_b), out=out)
    states = out.reshape(n, d_b, d_u // nu, nu)[..., 0]
    if nu > 1:
        states = states * np.sqrt(nu)
    return states.reshape(n, d_b * (d_u // nu))


class ChoiMatrix(NamedTuple):
    """Choi matrix on (input copy, output), input copy slowest."""

    matrix: np.ndarray
    d_a: int
    d_b: int


def choi_matrix(ch):
    """Choi matrix (1/d_a) sum_ij |i><j| (x) X(|i><j|), built from that
    definition: one channel action per matrix unit, each by its kind's own
    definition (apply_channel_oracle). The Choi-side reference for
    validate_channel and, through dual_from_choi, for exact_dual."""
    d_a, d_b = ch.d_a, ch.d_b
    s = np.zeros((d_a, d_b, d_a, d_b), dtype=complex)
    for i in range(d_a):
        for j in range(d_a):
            unit = np.zeros((d_a, d_a), dtype=complex)
            unit[i, j] = 1.0
            s[i, :, j, :] = apply_channel_oracle(ch, unit)
    return ChoiMatrix(s.reshape(d_a * d_b, d_a * d_b) / d_a, d_a, d_b)


def kraus_from_choi(choi, tol=None):
    """Kraus operators read off a Choi matrix.

    Eigendecomposes d_a * sigma; every eigenpair (lam, v) with lam > tol
    contributes the operator sqrt(lam) * reshape(v), where v on the
    (input copy, output) layout reshapes to a (d_a, d_b) table whose
    transpose is the operator. Eigenvalues below -tol mean the matrix is not
    a Choi matrix of a completely positive map.
    """
    if tol is None:
        tol = KRAUS_TOL_SCALE * choi.d_a
    assert_hermitian(choi.matrix, name="Choi matrix")
    w, v = np.linalg.eigh(choi.d_a * choi.matrix)
    if w[0] < -tol:
        raise ValueError(f"Choi matrix has negative eigenvalue {w[0]:.3e}; not completely positive")
    ops = [
        np.sqrt(lam) * vec.reshape(choi.d_a, choi.d_b).T
        for lam, vec in zip(w, v.T)
        if lam > tol
    ]
    if not ops:
        raise ValueError("Choi matrix has no eigenvalue above tolerance")
    return KrausChannel(np.array(ops))


def haar_second_moment(x, y, z):
    """Closed form of the Haar average of V^dag X V Y V^dag Z V over V.

    Second-moment (Weingarten) formula for the unitary group on dimension
    D >= 2:

        [tr X tr Z / (D^2-1) - tr(XZ) / (D (D^2-1))] Y
      + [tr(XZ) tr Y / (D^2-1) - tr X tr Z tr Y / (D (D^2-1))] I

    The analytic oracle for the Monte Carlo second-moment tests. The same
    expression gives the average of V X V^dag Y V Z V^dag because the Haar
    measure is inverse invariant.
    """
    x, y, z = np.asarray(x), np.asarray(y), np.asarray(z)
    d = x.shape[0]
    if x.shape != (d, d) or y.shape != (d, d) or z.shape != (d, d):
        raise ValueError("x, y, z must be square matrices of equal dimension")
    if d < 2:
        raise ValueError("formula is singular at dimension 1")
    tx, tz, ty = np.trace(x), np.trace(z), np.trace(y)
    txz = np.trace(x @ z)
    c1 = tx * tz / (d**2 - 1) - txz / (d * (d**2 - 1))
    c2 = txz * ty / (d**2 - 1) - tx * tz * ty / (d * (d**2 - 1))
    return c1 * y + c2 * np.eye(d, dtype=complex)


def dual_from_choi(choi):
    """Dual state from the Choi matrix: global transpose, then swap the
    (input copy, output) factors into the dual's (output copy, input) order.
    The Choi-side reference for exact_dual."""
    d_a, d_b = choi.d_a, choi.d_b
    t = choi.matrix.T.reshape(d_a, d_b, d_a, d_b)
    d = d_a * d_b
    return np.ascontiguousarray(t.transpose(1, 0, 3, 2)).reshape(d, d)


def apply_channel_oracle(ch, rho):
    """Channel action by each kind's own definition: the Kraus sum, the
    partial trace of U rho U^dag over the traced factor, or the same for the
    dilation acting on rho (x) |0><0|. The reference for apply_channel."""
    rho = np.asarray(rho, dtype=complex)
    if isinstance(ch, KrausChannel):
        return np.einsum("kmi,ij,knj->mn", ch.operators, rho, ch.operators.conj())
    u = ch.unitary
    if ch.ancilla_dim > 1:
        anc = np.zeros((ch.ancilla_dim, ch.ancilla_dim), dtype=complex)
        anc[0, 0] = 1.0
        rho = np.kron(rho, anc)
    return partial_trace(u @ rho @ u.conj().T, (ch.d_b, u.shape[0] // ch.d_b), [0])


def thermalization_dense_oracle(n, polarization, times, n_samples, seed, observable=None, g=1.05, h=0.5):
    """thermalization_experiment's rows with A = |psi_0><psi_0| formed as a
    dense d x d matrix: the reference for the vector form of A."""
    w, v = hermitian_eig(ising_hamiltonian(n, g, h))
    psi0 = polarized_state(n, polarization)
    a = np.outer(psi0, psi0.conj())
    b = {"z": sigma_z, "y": sigma_y}[polarization if observable is None else observable]
    rows = []
    for i, t in enumerate(times):
        u = evolution_from_eig(w, v, float(t))
        pt = (u @ psi0).reshape(2, -1)
        exact = float(np.einsum("bi,bc,ci->", pt.conj(), b, pt).real)
        ens = dual_ensemble(UnitaryChannel(u, d_b=2), n_samples, child_seed(seed, i))
        rep = estimate_observable(ens, a, b)
        rows.append({"time": float(t), "exact": exact, "estimate": rep.estimate, "sigma_n": rep.sigma_n})
    return rows


def partial_trace(m, dims, keep):
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


def _difference(a, b):
    # a - b without broadcasting: operands of different shapes are an error
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} differ")
    return a - b


def hs_distance(a, b):
    """Hilbert-Schmidt distance ||a - b||_2 of two dense matrices; raises
    ValueError when their shapes differ. The dense reference for
    distance_report's hs_distance."""
    return hs_norm(_difference(a, b))


def trace_distance(a, b):
    """Trace distance (1/2)||a - b||_1 of Hermitian a and b, from the moduli
    of the eigenvalues of a - b; raises ValueError when the shapes differ or
    a - b is not Hermitian within HERMITIAN_ATOL. The dense reference for
    distance_report's trace_distance."""
    diff = _difference(a, b)
    assert_hermitian(diff, name="a - b")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def otoc_exact_oracle(spec):
    """tr[G^2] with G = tr_b[(B (x) I_c) U A U^dag], through the full
    product U A U^dag and a partial trace: the reference for otoc_exact."""
    ch = spec.channel
    u = ch.unitary
    w = u @ spec.a @ u.conj().T
    bw = np.einsum("bd,dcj->bcj", spec.b, w.reshape(ch.d_b, ch.d_c, ch.d_a))
    g = partial_trace(bw.reshape(ch.d_a, ch.d_a), (ch.d_b, ch.d_c), [1])
    return float(np.trace(g @ g).real)


def otoc_overlaps_oracle(spec, ens):
    """N x N pair values d_a^2 |<Psi_k|(B^t (x) A)|Psi_k'>|^2 over the full
    rows ens.states, with B^t (x) A formed by kron: the reference for the
    draw reading of otoc_estimate through G. Forms the rows."""
    o = np.kron(spec.b.T, spec.a)
    s = ens.states
    return spec.channel.d_a**2 * np.abs(s.conj() @ o @ s.T) ** 2


def dense_values_oracle(ens, a, b):
    """Per-sample values d_a <Psi_k|(B^t (x) A)|Psi_k> of a dense A over the
    full rows ens.states, one einsum: the reference for the draw reading of
    sample_values. Forms the rows."""
    s = ens.states.reshape(ens.n_samples, ens.d_b, ens.d_a)
    vals = np.einsum("kri,sr,ij,ksj->k", s.conj(), b, a, s, optimize=True)
    return ens.d_a * vals.real


def rows_estimate_oracle(ens):
    """Rank-N estimator (1/N) sum_k |Psi_k><Psi_k| as one GEMM over the full
    rows ens.states: the reference for dual_estimate, which reads the
    draws. Forms the rows."""
    s = ens.states
    return s.T @ s.conj() / ens.n_samples
