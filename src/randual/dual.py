"""Random pure-state duals of quantum channels.

Every channel X from a d_a-dimensional input to a d_b-dimensional output has
an exact dual state rho_X on the ancilla (x) input space, with the ancilla a
copy of the output space held slowest in memory. The dual reproduces every
channel pairing through

    tr[X(A) B] = d_a * tr[rho_X (B^t (x) A)],

with B transposed on the ancilla factor. For a channel induced by a unitary
U on the input space read as (d_b, d_c), the dual is the rank-d_c projector

    rho_X = (1/d_c) (I (x) U^dag) (|phi+><phi+| (x) I_c) (I (x) U),

|phi+> the normalized maximally entangled state pairing the ancilla with the
output factor. The same matrix is obtained from the Choi matrix by a global
transpose followed by the (input copy, output) -> (output copy, input)
factor swap, which is how the dual of a general channel is computed here.

Sampling replaces the projector average with random pure states: each draw
applies I (x) U^dag to |phi+> (x) |psi> with |psi> Haar on the traced
factor, and the rank-N estimator

    rho_est = (1/N) sum_k |Psi_k><Psi_k|

converges to rho_X with Hilbert-Schmidt error bounded by 1/sqrt(N) in
expectation, independent of dimension. Observables never need the matrix
estimator: the per-sample values x_k = d_a <Psi_k|(B^t (x) A)|Psi_k> average
to tr[X(A) B] with a variance that carries its own computable bound.

dual_ensemble samples every channel kind. General channels go through a
unitary dilation: sampling the dilated unitary's dual and projecting the
dilation ancilla of the input copy onto its reference vector (with a
compensating sqrt factor) yields states that are normalized only in
expectation but whose mean is again the exact dual.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    ChoiMatrix,
    UnitaryChannel,
    choi_matrix,
    choi_pairing,
    stinespring_dilate,
)
from .linalg import assert_hermitian, hs_distance, trace_distance
from .rng import SeedSpec, child_seed, haar_state

# A^2 = A and tr A = 1 are enforced to this tolerance in rank1_variance_bound.
PROJECTOR_ATOL = 1e-10

KIND_UNITARY = "unitary_induced"
KIND_POSTSELECTED = "general_postselected"


@dataclass(frozen=True)
class DualStateEnsemble:
    """Random dual states stacked row-wise, each of dimension d_b * d_a.

    unitary_induced rows are unit vectors; general_postselected rows are
    normalized in expectation only.
    """

    states: np.ndarray
    master_seed: int
    channel: Channel
    kind: str
    d_a: int
    d_b: int

    def __post_init__(self) -> None:
        s = np.asarray(self.states, dtype=complex)
        if s.ndim != 2 or s.shape[0] < 1:
            raise ValueError("states must be a nonempty row stack")
        if s.shape[1] != self.d_b * self.d_a:
            raise ValueError(f"state dimension {s.shape[1]} != d_b*d_a = {self.d_b * self.d_a}")
        if self.kind not in (KIND_UNITARY, KIND_POSTSELECTED):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        object.__setattr__(self, "states", s)

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class EstimatorReport:
    """Observable estimate with its statistical error scales.

    sigma_n is the standard error of the mean, from the empirical sigma when
    at least two samples exist and from the analytic bound otherwise.
    """

    estimate: float
    empirical_sigma: float
    analytic_sigma_bound: float | None
    sigma_n: float
    n_samples: int


@dataclass(frozen=True)
class DistanceReport:
    """Estimator-to-exact distances next to the 1/sqrt(N) mean bound."""

    hs_distance: float
    trace_distance: float
    bound: float
    n_samples: int


def _require_unitary_kind(ch: Channel) -> UnitaryChannel:
    if not isinstance(ch, UnitaryChannel):
        raise TypeError(f"operation needs a unitary-induced channel, got {type(ch).__name__}")
    return ch


def _batch_states(u: np.ndarray, d_b: int, psis: np.ndarray) -> np.ndarray:
    """Rows (I (x) U^dag)(|phi+> (x) |psi_k>) for a stack of traced-factor states.

    |phi+> (x) |psi> viewed as an (ancilla, d_a) table is delta_{rs}
    psi[c] / sqrt(d_b) at column (s, c), so applying U^dag collapses to a
    single contraction against conj(U).
    """
    d_a = u.shape[0]
    d_c = d_a // d_b
    uc = u.conj().reshape(d_b, d_c, d_a)
    out = np.tensordot(psis, uc, axes=([1], [1])) / np.sqrt(d_b)
    return out.reshape(psis.shape[0], d_b * d_a)


def sample_dual_state(ch: UnitaryChannel, seed: SeedSpec | int) -> np.ndarray:
    """One random dual state of a unitary-induced channel.

    Draws |psi> Haar on the traced factor and returns the unit vector
    (I (x) U^dag)(|phi+> (x) |psi>) on the (ancilla, output, traced) layout,
    ancilla slowest.
    """
    ch = _require_unitary_kind(ch)
    if isinstance(seed, int):
        seed = SeedSpec(seed)
    psi = haar_state(ch.d_c, seed.rng())
    return _batch_states(ch.unitary, ch.d_b, psi[np.newaxis, :])[0]


def dual_ensemble(ch: Channel, n_samples: int, master_seed: int) -> DualStateEnsemble:
    """N independent dual states of any channel; sample k is seeded by (master_seed, k).

    A unitary-induced channel gives unit rows, and
    sample_dual_state(ch, SeedSpec(master_seed, k)) equals row k bitwise.
    Any other channel goes through its unitary dilation: each sample draws
    the dilated unitary's dual state and keeps the component with the
    dilation ancilla in its reference vector, scaled by sqrt(ancilla dim) so
    norms are 1 in expectation. The ensemble mean converges to
    exact_dual(ch). A trivial dilation (ancilla dim 1) gives the same rows
    bitwise as the unitary-induced channel it dilates.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if isinstance(ch, UnitaryChannel):
        u, d_a, d_b, nu, kind = ch.unitary, ch.d_a, ch.d_b, 1, KIND_UNITARY
    else:
        dil = stinespring_dilate(ch)
        u, d_a, d_b, nu, kind = dil.unitary, dil.d_a, dil.d_b, dil.ancilla_dim, KIND_POSTSELECTED
    d_env = u.shape[0] // d_b
    psis = np.empty((n_samples, d_env), dtype=complex)
    for k in range(n_samples):
        psis[k] = haar_state(d_env, SeedSpec(master_seed, k).rng())
    states = _batch_states(u, d_b, psis).reshape(n_samples, d_b, d_a, nu)[..., 0]
    if nu > 1:
        states = states * np.sqrt(nu)
    return DualStateEnsemble(
        states.reshape(n_samples, d_b * d_a), master_seed, ch, kind, d_a, d_b
    )


def exact_dual_state(ch: UnitaryChannel) -> np.ndarray:
    """Closed-form dual of a unitary-induced channel.

    Equals (1/d_c) sum_c |w_c><w_c| with w_c = (I (x) U^dag)(|phi+> (x) |c>),
    an orthogonal decomposition, so the result is PSD with unit trace, rank
    d_c, and satisfies rho^2 = rho / d_c.
    """
    ch = _require_unitary_kind(ch)
    d_b, d_c = ch.d_b, ch.d_c
    # w[r, i, c] = conj(U[(r, c), i]) / sqrt(d_b)
    w = ch.unitary.conj().reshape(d_b, d_c, ch.d_a).transpose(0, 2, 1) / np.sqrt(d_b)
    rho = np.einsum("ric,sjc->risj", w, w.conj()) / d_c
    d = d_b * ch.d_a
    return rho.reshape(d, d)


def dual_from_choi(choi: ChoiMatrix) -> np.ndarray:
    """Dual state from the Choi matrix: global transpose, then swap the
    (input copy, output) factors into the dual's (output copy, input) order."""
    d_a, d_b = choi.d_a, choi.d_b
    t = choi.matrix.T.reshape(d_a, d_b, d_a, d_b)
    d = d_a * d_b
    return np.ascontiguousarray(t.transpose(1, 0, 3, 2)).reshape(d, d)


def exact_dual(ch: Channel) -> np.ndarray:
    """Exact dual state of any channel variant."""
    if isinstance(ch, UnitaryChannel):
        return exact_dual_state(ch)
    return dual_from_choi(choi_matrix(ch))


def dual_estimate(ens: DualStateEnsemble) -> np.ndarray:
    """Rank-N estimator (1/N) sum_k |Psi_k><Psi_k|.

    Summed in fixed index order so results are bitwise reproducible for a
    given seed regardless of BLAS threading.
    """
    s = ens.states
    return np.einsum("ki,kj->ij", s, s.conj()) / ens.n_samples


def duality_pairing(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Channel pairing tr[X(A) B] read off a dual state as d_a tr[rho (B^t (x) A)].

    rho lives on the (ancilla, input) layout with the d_b ancilla slowest;
    A and B must be Hermitian.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert_hermitian(a, name="A")
    assert_hermitian(b, name="B")
    d_a, d_b = a.shape[0], b.shape[0]
    d = d_b * d_a
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"dual state shape {rho.shape} does not match d_b*d_a = {d}")
    val = d_a * np.einsum("risj,rs,ji->", rho.reshape(d_b, d_a, d_b, d_a), b, a)
    return float(val.real)


def sample_values(ens: DualStateEnsemble, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample estimates x_k = d_a <Psi_k|(B^t (x) A)|Psi_k>, as reals.

    Their mean estimates tr[X(A) B]; their spread is the ensemble's
    intrinsic statistical error for this observable pair.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert_hermitian(a, name="A")
    assert_hermitian(b, name="B")
    if a.shape[0] != ens.d_a or b.shape[0] != ens.d_b:
        raise ValueError("observable dimensions do not match the ensemble")
    s = ens.states.reshape(ens.n_samples, ens.d_b, ens.d_a)
    vals = np.einsum("kri,sr,ij,ksj->k", s.conj(), b, a, s, optimize=True)
    return ens.d_a * vals.real


def estimate_observable(ens: DualStateEnsemble, a: np.ndarray, b: np.ndarray) -> EstimatorReport:
    """Monte-Carlo estimate of tr[X(A) B] with error scales.

    empirical_sigma is the ddof=1 sample deviation (nan for a single
    sample); analytic_sigma_bound is the intrinsic-variance bound, available
    for unitary-induced ensembles only. sigma_n divides whichever of the two
    is usable by sqrt(N).
    """
    vals = sample_values(ens, a, b)
    n = vals.size
    estimate = float(vals.mean())
    empirical = float(vals.std(ddof=1)) if n > 1 else float("nan")
    bound = None
    if isinstance(ens.channel, UnitaryChannel) and ens.kind == KIND_UNITARY:
        bound = float(np.sqrt(variance_bound(ens.channel, a, b)))
    sigma = empirical if n > 1 else (bound if bound is not None else float("nan"))
    return EstimatorReport(
        estimate=estimate,
        empirical_sigma=empirical,
        analytic_sigma_bound=bound,
        sigma_n=float(sigma / np.sqrt(n)),
        n_samples=n,
    )


def variance_bound(ch: UnitaryChannel, a: np.ndarray, b: np.ndarray) -> float:
    """Intrinsic-variance bound for the d_a-scaled per-sample values.

    With X = U A U^dag (B (x) I_c) on the input space, the single-sample
    variance obeys

        sigma^2 <= (d_a tr[X X^dag] - |tr X|^2) / (d_c + 1),

    i.e. 1/(d_c+1) times the d_a^2-scaled variance of X with respect to the
    maximally mixed state. B enters through its lift to the (d_b, d_c)
    layout, which is what the per-sample quadratic form reduces to after
    tracing the ancilla; the bound then follows from the second moment of
    Haar states and a norm inequality on the partial trace. Vanishes when A
    and B are both the identity.
    """
    ch = _require_unitary_kind(ch)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert_hermitian(a, name="A")
    assert_hermitian(b, name="B")
    if a.shape[0] != ch.d_a or b.shape[0] != ch.d_b:
        raise ValueError("observable dimensions do not match the channel")
    u = ch.unitary
    w = u @ a @ u.conj().T
    x = np.einsum("ibc,bd->idc", w.reshape(ch.d_a, ch.d_b, ch.d_c), b).reshape(ch.d_a, ch.d_a)
    tr_xx = float(np.vdot(x, x).real)
    tr_x = np.trace(x)
    val = (ch.d_a * tr_xx - abs(tr_x) ** 2) / (ch.d_c + 1)
    return max(val, 0.0)


def rank1_variance_bound(ch: Channel, a: np.ndarray, b: np.ndarray) -> float:
    """Variance bound mu_1^2 for a rank-1 projector A and PSD B.

    For this observable class the single-sample variance never exceeds the
    squared mean mu_1 = tr[X(A) B], so N samples reach precision
    |mu_1| / sqrt(N) regardless of dimensions.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert_hermitian(a, name="A")
    assert_hermitian(b, name="B")
    if np.abs(a @ a - a).max() > PROJECTOR_ATOL or abs(np.trace(a) - 1.0) > PROJECTOR_ATOL:
        raise ValueError("A must be a rank-1 projector (A^2 = A, tr A = 1)")
    if np.linalg.eigvalsh(b)[0] < -PROJECTOR_ATOL:
        raise ValueError("B must be positive semidefinite")
    mu1 = choi_pairing(choi_matrix(ch), a, b)
    return mu1 ** 2


def distance_report(ens: DualStateEnsemble, exact: np.ndarray | None = None) -> DistanceReport:
    """Distances from the rank-N estimator to the exact dual, with the
    1/sqrt(N) expected Hilbert-Schmidt bound for context."""
    est = dual_estimate(ens)
    if exact is None:
        exact = exact_dual(ens.channel)
    exact = np.asarray(exact, dtype=complex)
    if exact.shape != est.shape:
        raise ValueError(f"reference shape {exact.shape} does not match estimator {est.shape}")
    return DistanceReport(
        hs_distance=float(hs_distance(est, exact)),
        trace_distance=float(trace_distance(est, exact)),
        bound=float(1.0 / np.sqrt(ens.n_samples)),
        n_samples=ens.n_samples,
    )


def distance_table(ch: Channel, n_values: list[int], trials: int, seed: int) -> list[dict]:
    """Estimator-to-exact-dual distances across ensemble sizes.

    Each (N, trial) cell draws a fresh ensemble seeded by
    child_seed(seed, N index, trial) and measures it against one exact dual;
    rows carry N, trial, hs_distance, trace_distance and the 1/sqrt(N) mean
    bound.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n_values = [int(n) for n in n_values]
    if not n_values or min(n_values) < 1:
        raise ValueError("n_values must be positive sample counts")
    exact = exact_dual(ch)
    rows = []
    for i, n_samples in enumerate(n_values):
        for trial in range(trials):
            rep = distance_report(dual_ensemble(ch, n_samples, child_seed(seed, i, trial)), exact)
            rows.append(
                {
                    "N": n_samples,
                    "trial": trial,
                    "hs_distance": rep.hs_distance,
                    "trace_distance": rep.trace_distance,
                    "bound": rep.bound,
                }
            )
    return rows
