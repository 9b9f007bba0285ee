"""Second-moment estimation: out-of-time-order correlators from dual samples.

For a unitary-induced channel with W = U A U^dag and a rank-1 computational
projector B = |m><m| lifted to the input space as B (x) I_c, the
squared-overlap average over two independent dual samples recovers

    F = tr[(W (B (x) I_c))^2] = d_a^2 tr[(O rho_X)^2] = ||G||_F^2,

with O = B^t (x) A on the dual layout and G = U_m A U_m^dag, U_m the
d_c x d_a row block m of U. Two dual rows with Haar draws psi_k, psi_k'
overlap through O as psi_k^dag G psi_k' / d_b, so the exact value and every
pair estimate read the one d_c x d_c matrix G: the estimates off the Haar
draws of the same random states used for observable estimation, with no
rows and no separate forward and backward evolutions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import UnitaryChannel, _isometry, kind_of
from .dual import (
    KIND_UNITARY,
    PROJECTOR_ATOL,
    DualStateEnsemble,
    EstimatorReport,
    _check_projector,
    _mean_report,
    _observables,
)


@dataclass(frozen=True, eq=False)
class OtocSpec:
    """Correlator specification: channel, input observable A, output B.

    A and B pass the estimators' observable checks, A as a matrix; B must be
    a rank-1 projector |m><m| diagonal in the computational basis, kept as m.
    g is G = U_m A U_m^dag, the d_c x d_c block (m, m) of U A U^dag, which is
    tr_b[(B (x) I_c) U A U^dag]: d_c d_a^2 work, once, U_m read off the
    channel's isometry; for a PartialTrace, U = I and G is A's block (m, m).
    """

    channel: UnitaryChannel
    a: np.ndarray
    b: np.ndarray
    m: int = field(init=False)
    g: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if kind_of(self.channel) != KIND_UNITARY:
            raise TypeError("OtocSpec needs a unitary-induced channel")
        a, b = _observables(self.a, self.b, self.channel.d_a, self.channel.d_b)
        if a.ndim != 2:
            raise ValueError("OTOC A must be a matrix")
        off = b - np.diag(np.diag(b))
        if np.abs(off).max() > PROJECTOR_ATOL:
            raise ValueError("projector B must be diagonal in the computational basis")
        _check_projector(b, "B")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", int(np.argmax(np.diag(b).real)))
        ch, m, v = self.channel, self.m, _isometry(self.channel)
        g = a.reshape(ch.d_b, ch.d_c, ch.d_b, ch.d_c)[m, :, m] if v is None else v[m] @ a @ v[m].conj().T
        object.__setattr__(self, "g", g)


def otoc_exact(spec: OtocSpec) -> float:
    """Closed-form correlator tr[G^2] = ||G||_F^2, real and nonnegative."""
    return float(np.vdot(spec.g, spec.g).real)


def otoc_estimate(
    spec: OtocSpec, ens: DualStateEnsemble, pairing: str = "disjoint"
) -> EstimatorReport:
    """Correlator estimate from pair overlaps of dual samples.

    Averages d_c^2 |psi_k^dag G psi_k'|^2 over sample pairs, psi_k the Haar
    draws of an ensemble of spec.channel itself. The default disjoint
    pairing uses (0,1), (2,3), ... so the averaged values are independent
    and the reported sigma is a valid standard error; pairing="all"
    averages every unordered pair instead (a lower-variance U-statistic
    whose terms are dependent, so no sigma is reported). n_samples on the
    report counts averaged pairs, not states.
    """
    if ens.n_samples < 2:
        raise ValueError("need at least 2 samples to form a pair")
    if ens.channel is not spec.channel:
        raise ValueError("the ensemble must sample the correlator spec's own channel")
    psi, d_c = ens.draws, spec.g.shape[0]
    if pairing == "disjoint":
        n_pairs = psi.shape[0] // 2
        # conj(G psi_k') against psi_k: the conjugate overlap, same modulus,
        # with no copy of the even draws
        t = psi[1 : 2 * n_pairs : 2] @ spec.g.T
        inner = np.einsum("pi,pi->p", psi[0 : 2 * n_pairs : 2], np.conjugate(t, out=t))
        return _mean_report(d_c**2 * np.abs(inner) ** 2)
    if pairing == "all":
        n = psi.shape[0]
        y = psi @ spec.g.T
        np.conjugate(y, out=y)  # row k is conj(G psi_k)
        # Q = Psi Y^T holds every overlap psi_k^dag G psi_k', conjugated, and is
        # Hermitian, so the sum of |Q_kk'|^2 off the diagonal is
        # tr[Q^2] - sum_k |q_k|^2 with q its diagonal (sample_values / d_c,
        # conjugated); tr[(Psi Y^T)^2] = tr[(Y^T Psi)^2], so the smaller
        # product serves
        p = psi @ y.T if n <= d_c else y.T @ psi
        q = np.einsum("ki,ki->k", psi, y)
        total = np.einsum("ij,ji->", p, p).real - np.vdot(q, q).real
        # symmetric in (k, k'): the ordered sum counts each of the pairs twice
        return EstimatorReport(
            estimate=float(d_c**2 * total / (n * (n - 1))),
            empirical_sigma=float("nan"),
            analytic_sigma_bound=None,
            sigma_n=float("nan"),
            n_samples=n * (n - 1) // 2,
        )
    raise ValueError(f"unknown pairing {pairing!r}; use 'disjoint' or 'all'")
