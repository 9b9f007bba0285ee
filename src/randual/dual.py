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
output factor. Every channel's dual, this one included, is built from its
operator-sum form {K_k} = kraus_operators(ch) as rho_X = W W^dag, with
column k of W the conjugated operator conj(K_k) / sqrt(d_a) on the dual
layout. (The Choi matrix holds the same entries: a global transpose and the
(input copy, output) -> (output copy, input) factor swap turn one into the
other.)

Sampling replaces the projector average with random pure states: each draw
applies I (x) U^dag to |phi+> (x) |psi> with |psi> Haar on the traced
factor, and the rank-N estimator

    rho_est = (1/N) sum_k |Psi_k><Psi_k|

converges to rho_X with Hilbert-Schmidt error bounded by 1/sqrt(N) in
expectation, independent of dimension. Observables never need the matrix
estimator: the per-sample values x_k = d_a <Psi_k|(B^t (x) A)|Psi_k> are a
Haar quadratic form m psi_k^dag M psi_k in the draws, which average to
tr[X(A) B] with an exact variance, (m tr M^2 - (tr M)^2) / (m + 1), for
every channel kind.

Distances to the exact dual need it only when it is small. With
rho_X = W W^dag (exact_dual_factor, r = d_env columns), row k is
sqrt(r) W psi_k, so

    rho_est - rho_X = W (r Q - I) W^dag,   Q = (1/N) sum_k psi_k psi_k^dag.

When N + r < d_b d_a, its nonzero eigenvalues are those of the r-square
R (r Q - I) R^dag, R the triangular factor of a QR of W: O(N r^2 + r^3)
work on the draws; otherwise the d x d difference is formed, its
estimator from the draws too.

dual_ensemble samples every channel kind through its minimal Stinespring
isometry V, (d_b, d_e, d_a) (channels.stinespring_dilate): psi is Haar on
the d_e-dimensional environment and the row is
sqrt(nu / d_b) conj(psi^dag V), nu = d_e d_b / d_a. A UnitaryChannel's V is
its ancilla-0 columns (d_e = d_c); a KrausChannel's is its own stack
(d_e = r), with no unitary completed around it. Unless V is square
(nu = 1, a unitary-induced channel or a Kraus stack of r d_b = d_a), the
rows are normalized only in expectation but average to the exact dual.
Ensembles keep the Haar draws, and every reading starts from them: the
rank-N estimator is (nu / (d_b N)) V^dag (P^T conj(P)) V for the draws P,
observables read the draws through their quadratic form M, and the OTOC
through its d_c x d_c matrix G (randual.otoc), which is M for
B = |m><m|. The rows themselves are formed only when ens.states is read.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, KrausChannel, PartialTrace, _isometry, dilation_dim, kind_of, kraus_operators
from .channels import stinespring_dilate
from .linalg import assert_hermitian
from .rng import SeedSpec, child_seed, haar_state

# A^2 = A and tr A = 1 (for a vector, ||v||^2 = 1) are enforced to this
# tolerance in rank1_variance_bound, and on the OTOC's B.
PROJECTOR_ATOL = 1e-10

KIND_UNITARY = "unitary_induced"
KIND_POSTSELECTED = "general_postselected"


@dataclass(frozen=True, eq=False)
class DualStateEnsemble:
    """Random dual states of a channel as their Haar draws on the
    environment of its minimal Stinespring isometry V, (N, d_env) with
    d_env = dilation_dim(channel) // d_b.

    Construction reads V off the channel, for a KrausChannel by one
    stinespring_dilate; states, the (N, d_b * d_a) rows, is formed on first
    access and kept, for reference: the estimators read the draws. A
    unitary-induced channel gives unitary_induced unit rows; any other
    channel general_postselected rows, normalized in expectation only. d_a,
    d_b and kind are read off the channel.
    """

    draws: np.ndarray
    master_seed: int
    channel: Channel
    kind: str = field(init=False)
    _cols: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ch, p = self.channel, np.asarray(self.draws, dtype=complex)
        d_env = dilation_dim(ch) // ch.d_b
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] != d_env:
            raise ValueError(f"draws must be a nonempty (N, d_env = {d_env}) stack, got shape {p.shape}")
        object.__setattr__(self, "draws", p)
        object.__setattr__(self, "kind", KIND_UNITARY if kind_of(ch) == KIND_UNITARY else KIND_POSTSELECTED)
        # V, (d_b, d_env, d_a); None for a PartialTrace. Pin: the benchmark counts
        # one stinespring_dilate per KrausChannel ensemble and none for any other
        # channel, so this follows the class: a square stack looks unitary by shape
        cols = stinespring_dilate(ch) if isinstance(ch, KrausChannel) else _isometry(ch)
        object.__setattr__(self, "_cols", cols)

    @property
    def d_a(self) -> int:
        return self.channel.d_a

    @property
    def d_b(self) -> int:
        return self.channel.d_b

    @property
    def n_samples(self) -> int:
        return self.draws.shape[0]

    @property
    def _nu(self) -> float:  # d_env d_b / d_a: 1 for a square V, a UnitaryChannel's ancilla dimension
        return self.draws.shape[1] * self.d_b / self.d_a

    def _columns(self) -> np.ndarray:
        """V, (d_b, d_env, d_a): _cols, or a PartialTrace's identity columns, formed here."""
        return np.eye(self.d_a, dtype=complex).reshape(self.d_b, -1, self.d_a) if self._cols is None else self._cols

    @functools.cached_property
    def states(self) -> np.ndarray:
        """Rows (I (x) V^dag)(|phi+> (x) |psi_k>), V = _columns() read as (d_b, d_env, d_a).

        |phi+> (x) |psi> is delta_{rs} psi[e] / sqrt(d_b) at column (s, e), so
        row block r is sum_e psi[e] conj(V[r, e, :]) / sqrt(d_b): one GEMM per
        output index, N d_env d_a work each. Rows of a V that is not square
        get sqrt(nu).
        """
        blocks = np.matmul(self.draws.conj(), self._columns())
        np.conjugate(blocks, out=blocks)
        blocks /= np.sqrt(self.d_b)
        if self._nu != 1:
            blocks *= np.sqrt(self._nu)
        return blocks.transpose(1, 0, 2).reshape(self.n_samples, -1)


@dataclass(frozen=True)
class EstimatorReport:
    """Observable estimate with its statistical error scales.

    sigma_n is the standard error of the mean, from the empirical sigma when
    at least two samples exist and from analytic_sigma_bound otherwise.
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


def dual_ensemble(ch: Channel, n_samples: int, master_seed: int) -> DualStateEnsemble:
    """N independent dual states of any channel; sample k is seeded by (master_seed, k).

    Sample k is the kept draw haar_state(d_env, SeedSpec(master_seed, k).rng())
    on the environment of the channel's minimal Stinespring isometry V:
    d_env = d_c for a UnitaryChannel, r for a KrausChannel, whose V is read
    once, here. A unitary-induced channel gives unit rows; any other
    channel's rows are scaled by sqrt(nu), nu = d_env d_b / d_a, so norms
    are 1 in expectation. The mean converges to exact_dual(ch).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    d_env = dilation_dim(ch) // ch.d_b
    draws = np.empty((n_samples, d_env), dtype=complex)
    for k in range(n_samples):
        draws[k] = haar_state(d_env, SeedSpec(master_seed, k).rng())
    return DualStateEnsemble(draws, master_seed, ch)


def exact_dual_factor(ch: Channel) -> np.ndarray:
    """Factor W of the exact dual, exact_dual(ch) = W W^dag, shape (d_b*d_a, r).

    Column k is conj(K_k) / sqrt(d_a) on the dual layout,
    W[(r, i), k] = conj(K_k[r, i]) / sqrt(d_a), for the operator-sum form
    {K_k} = kraus_operators(ch). A unitary-induced channel has the d_c
    operators (I (x) <c|) U, so its W has orthogonal columns of equal norm,
    w_c / sqrt(d_c), and r = d_c.
    """
    ops = kraus_operators(ch)
    return ops.conj().reshape(ops.shape[0], ch.d_b * ch.d_a).T / np.sqrt(ch.d_a)


def exact_dual(ch: Channel) -> np.ndarray:
    """Exact dual state W W^dag of any channel, W = exact_dual_factor(ch).

    PSD with unit trace. For a unitary-induced channel it equals
    (1/d_c) sum_c |w_c><w_c| with w_c = (I (x) U^dag)(|phi+> (x) |c>), an
    orthogonal decomposition, so it has rank d_c and rho^2 = rho / d_c.
    """
    w = exact_dual_factor(ch)
    return w @ w.conj().T


def dual_estimate(ens: DualStateEnsemble) -> np.ndarray:
    """Rank-N estimator (1/N) sum_k |Psi_k><Psi_k|, read off the draws.

    Row k is sqrt(nu / d_b) P_k conj(V), P = ens.draws and V the isometry
    read as (d_env, d_b d_a), so the estimator is
    (nu / (d_b N)) V^dag (P^T conj(P)) V. One multi_dot picks the
    association with fewer flops: through the d_env-square Gram of the
    draws once N >= d_env, through the N rows when N is well below d_env;
    ens.states is never formed.
    Bitwise reproducible for a given seed in a fixed environment, including
    the BLAS thread count: the summation order is the BLAS kernel's.
    """
    p = ens.draws
    v = ens._columns().transpose(1, 0, 2).reshape(p.shape[1], -1)
    est = np.linalg.multi_dot([v.conj().T, p.T, p.conj(), v])
    est *= ens._nu / (ens.d_b * ens.n_samples)
    return est


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


def _observables(a: np.ndarray, b: np.ndarray, d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """A and B as complex arrays, checked against (d_a, d_b).

    B must be a Hermitian d_b x d_b matrix. A is either a Hermitian
    d_a x d_a matrix or a finite vector v of length d_a standing for the
    rank-1 operator |v><v|, which is never formed.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim == 1:
        if not np.isfinite(a).all():
            raise ValueError("A vector has non-finite entries")
    elif a.ndim == 2:
        assert_hermitian(a, name="A")
    else:
        raise ValueError(f"A must be a vector or a square matrix, got {a.ndim} dimensions")
    assert_hermitian(b, name="B")
    if a.shape[0] != d_a or b.shape[0] != d_b:
        raise ValueError(f"observable dimensions ({a.shape[0]}, {b.shape[0]}) != (d_a, d_b) = ({d_a}, {d_b})")
    return a, b


def _check_projector(p: np.ndarray, name: str) -> None:
    """Raise ValueError unless P^2 = P and tr P = 1 within PROJECTOR_ATOL."""
    if np.abs(p @ p - p).max() > PROJECTOR_ATOL or abs(np.trace(p) - 1.0) > PROJECTOR_ATOL:
        raise ValueError(f"{name} must be a rank-1 projector ({name}^2 = {name}, tr {name} = 1)")


def _quadratic_form(ch: Channel, cols: np.ndarray | None, a: np.ndarray, b: np.ndarray):
    """A and B checked against ch and V = cols, (d_b, r, d_a), with Phi = V a as
    (d_b, r) for a vector A, else conj(M) for the r x r M[e, f] = sum V[r,e,i]
    B[s,r] A[i,j] conj(V[s,f,j]), formed from X = B (V A), conjugated in place.
    cols None is the identity (r = d_a / d_b): V a is a reshape of a, and M
    sums the diagonal blocks X[s, (e, s, f)]."""
    d_b, d_a = ch.d_b, ch.d_a
    a, b = _observables(a, b, d_a, d_b)
    va = (a if cols is None else cols.reshape(-1, d_a) @ a).reshape(d_b, -1)
    if a.ndim == 1:
        return a, b, va
    x = b @ va
    np.conjugate(x, out=x)
    if cols is None:
        return a, b, np.einsum("sesf->ef", x.reshape(d_b, d_a // d_b, d_b, d_a // d_b))
    return a, b, np.matmul(x.reshape(cols.shape), cols.transpose(0, 2, 1)).sum(0)


def sample_values(ens: DualStateEnsemble, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample estimates x_k = d_a <Psi_k|(B^t (x) A)|Psi_k>, as reals.

    Their mean estimates tr[X(A) B]; their spread is the ensemble's
    intrinsic statistical error for this observable pair. A is a Hermitian
    d_a x d_a matrix, or a length-d_a vector v meaning A = |v><v|, read
    against the draws psi_k, never the rows; V are the kept isometry
    columns, (d_b, d_env, d_a), and x_k = m psi_k^dag M psi_k with
    m = d_env = d_a nu / d_b and M as in _quadratic_form. For a vector,
    y = sqrt(nu / d_b) psi conj(Phi)^T and x_k = d_a sum_rs conj(y_kr) B_sr
    y_ks: one mat-vec plus O(N d_env d_b). For a matrix, M is formed once:
    O(N d_env^2) plus that one-off product.
    """
    a, b, form = _quadratic_form(ens.channel, ens._cols, a, b)
    if a.ndim == 1:
        y = ens.draws @ form.conj().T
        y *= np.sqrt(ens._nu / ens.d_b)
        vals = np.einsum("kr,kr->k", y.conj(), y @ b)
    else:
        y = ens.draws @ form  # y[k, f] = conj(psi_k^dag M)[f]
        vals = np.einsum("kf,kf->k", np.conjugate(y, out=y), ens.draws) * (ens._nu / ens.d_b)
    return ens.d_a * vals.real


def estimate_observable(ens: DualStateEnsemble, a: np.ndarray, b: np.ndarray) -> EstimatorReport:
    """Monte-Carlo estimate of tr[X(A) B] with error scales.

    A is a Hermitian matrix or a vector v meaning A = |v><v|, as in
    sample_values and variance_bound. empirical_sigma is the ddof=1 sample
    deviation (nan for a single sample); analytic_sigma_bound is the exact
    single-sample sigma, sqrt(variance_bound). sigma_n divides the first
    that is usable by sqrt(N).
    """
    return _mean_report(sample_values(ens, a, b), float(np.sqrt(variance_bound(ens.channel, a, b))))


def _mean_report(vals: np.ndarray, bound: float | None = None) -> EstimatorReport:
    """Mean, ddof=1 sigma and sigma / sqrt(n) of independent values; bound stands in for one value."""
    n = vals.size
    empirical = float(vals.std(ddof=1)) if n > 1 else float("nan")
    sigma = empirical if n > 1 else (bound if bound is not None else float("nan"))
    return EstimatorReport(
        estimate=float(vals.mean()),
        empirical_sigma=empirical,
        analytic_sigma_bound=bound,
        sigma_n=float(sigma / np.sqrt(n)),
        n_samples=n,
    )


def variance_bound(ch: Channel, a: np.ndarray, b: np.ndarray) -> float:
    """Exact variance of one sample value x = m psi^dag M psi, any channel kind.

    With psi Haar in m = dilation_dim(ch) // d_b dimensions and M the
    Hermitian matrix of sample_values, E[psi psi^dag (x) psi psi^dag] =
    (I + SWAP) / (m (m + 1)) gives Var x = (m tr M^2 - (tr M)^2) / (m + 1),
    read as m ||M - c I||^2 / (m + 1), c = tr M / m: no cancellation when M
    is close to c I (identities A, B on a unitary-induced channel), exactly
    0 at m = 1 (a draw is a phase), clamped at 0 against rounding. The
    formed p x p matrix stands for M with m - p more zero eigenvalues, each
    adding |c|^2: M itself off V = _isometry(ch) (p = m), or for a vector A
    the smaller of M = Phi^T B^T conj(Phi) and the d_b x d_b
    B^T conj(Phi) Phi^T, which has M's nonzero spectrum. A vector costs one
    mat-vec V a (a reshape on a PartialTrace) plus O(m d_b min(m, d_b)).
    """
    a, b, form = _quadratic_form(ch, _isometry(ch), a, b)
    m = dilation_dim(ch) // ch.d_b
    if a.ndim == 1:
        form = form.T @ (b.T @ form.conj()) if form.shape[1] <= ch.d_b else b.T @ (form.conj() @ form.T)
    p = form.shape[0]
    c = np.trace(form) / m
    form.flat[:: p + 1] -= c
    num = np.einsum("ij,ji->", form, form).real + (m - p) * abs(c) ** 2
    return m * max(float(num), 0.0) / (m + 1)


def rank1_variance_bound(ch: Channel, a: np.ndarray, b: np.ndarray) -> float:
    """Variance bound mu_1^2 for a rank-1 projector A and PSD B.

    For this observable class the single-sample variance never exceeds the
    squared mean mu_1 = tr[X(A) B], so N samples reach precision
    |mu_1| / sqrt(N) regardless of dimensions. A is a projector matrix or a
    unit vector v meaning A = |v><v|, a matrix read as its vector
    A[:, j] / sqrt(A_jj) (j its largest diagonal entry; v up to a phase);
    mu_1 is sum_k <K_k v|B|K_k v>, K_k v the columns of Phi = V v.
    """
    a, b = _observables(a, b, ch.d_a, ch.d_b)
    if np.linalg.eigvalsh(b)[0] < -PROJECTOR_ATOL:
        raise ValueError("B must be positive semidefinite")
    if a.ndim == 2:
        _check_projector(a, "A")
        j = int(np.argmax(np.diag(a).real))
        a = a[:, j] / np.sqrt(a[j, j].real)
    elif abs(np.vdot(a, a).real - 1.0) > PROJECTOR_ATOL:
        raise ValueError("A vector must have unit norm (tr |v><v| = 1)")
    phi = _quadratic_form(ch, _isometry(ch), a, b)[2]
    mu1 = np.einsum("mk,mn,nk->", phi.conj(), b, phi, optimize=True)
    return float(mu1.real) ** 2


def distance_report(ens: DualStateEnsemble) -> DistanceReport:
    """Distances from the rank-N estimator to the exact dual W W^dag, with
    the 1/sqrt(N) expected Hilbert-Schmidt bound for context.

    W = exact_dual_factor(ens.channel) has r = d_env columns and row k is
    sqrt(r) W psi_k, so the difference is W (r Q - I) W^dag with Q the
    r x r Gram (1/N) draws^T conj(draws); both distances are norms of its
    eigenvalues. When N + r < d_b d_a they are those of R (r Q - I) R^dag,
    R the r x r factor of a QR of W (a Cholesky of W^dag W would fail on a
    rank-deficient W); otherwise the d x d difference
    dual_estimate(ens) - W W^dag is formed, from the draws too. ens.states
    is never read.
    """
    ch = ens.channel
    if _dense_cell(ens.n_samples, ch):
        return _distance_report(ens, None, exact_dual(ch))
    return _distance_report(ens, _triangular_factor(ch), None)


def _triangular_factor(ch: Channel) -> np.ndarray | float:
    """R, the r x r factor of a QR of W = exact_dual_factor(ch). A PartialTrace's
    W has orthogonal columns of norm sqrt(d_b / d_a): R is that number times
    signs, which leave every distance as it is, so no W or identity is formed."""
    if isinstance(ch, PartialTrace):
        return float(np.sqrt(ch.d_b / ch.d_a))
    return np.linalg.qr(exact_dual_factor(ch), mode="r")


def _dense_cell(n_samples: int, ch: Channel) -> bool:
    """Whether a distance cell of n_samples forms the d x d difference:
    N + r >= d_b d_a, when the r-square form no longer saves work."""
    return n_samples + dilation_dim(ch) // ch.d_b >= ch.d_b * ch.d_a


def _distance_report(
    ens: DualStateEnsemble, tri: np.ndarray | float | None, exact: np.ndarray | None
) -> DistanceReport:
    """distance_report given tri = _triangular_factor, R or the number that
    stands for it, for a cell below the split, or exact = W W^dag for a
    dense cell. Both are only read, so one of each can serve every cell of
    a table."""
    n = ens.n_samples
    if _dense_cell(n, ens.channel):
        diff = dual_estimate(ens)
        diff -= exact
    else:
        p = ens.draws
        gram = p.T @ p.conj()
        gram *= p.shape[1] / n
        gram.flat[:: p.shape[1] + 1] -= 1.0
        diff = tri @ gram @ tri.conj().T if np.ndim(tri) else np.multiply(gram, tri * tri, out=gram)
    lam = np.linalg.eigvalsh(diff)
    return DistanceReport(
        hs_distance=float(np.linalg.norm(lam)),
        trace_distance=0.5 * float(np.abs(lam).sum()),
        bound=float(1.0 / np.sqrt(n)),
        n_samples=n,
    )


def distance_table(ch: Channel, n_values: list[int], trials: int, seed: int) -> list[dict]:
    """Estimator-to-exact-dual distances across ensemble sizes.

    Each (N, trial) cell draws a fresh ensemble seeded by
    child_seed(seed, N index, trial) and measures it as distance_report
    does, from one R and one W W^dag formed before the first cell: R, the
    r x r factor of exact_dual_factor(ch), when some cell lies below the
    split (N + r < d_b d_a), and W W^dag when some cell does not. Rows carry
    N, trial, hs_distance, trace_distance and the 1/sqrt(N) mean bound.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n_values = [operator.index(n) for n in n_values]
    if not n_values or min(n_values) < 1:
        raise ValueError("n_values must be positive sample counts")
    exact = exact_dual(ch) if _dense_cell(max(n_values), ch) else None
    tri = None if _dense_cell(min(n_values), ch) else _triangular_factor(ch)
    rows = []
    for i, n_samples in enumerate(n_values):
        for trial in range(trials):
            ens = dual_ensemble(ch, n_samples, child_seed(seed, i, trial))
            rep = _distance_report(ens, tri, exact)
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
