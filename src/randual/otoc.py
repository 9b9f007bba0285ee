"""Second-moment estimation: out-of-time-order correlators from dual samples.

For a unitary-induced channel with W = U A U^dag and a rank-1 computational
projector B = |m><m| lifted to the input space as B (x) I_c, the
squared-overlap average over two independent dual samples recovers

    F = tr[(W (B (x) I_c))^2] = d_a^2 tr[(O rho_X)^2] = ||U_m A U_m^dag||_F^2,

with O = B^t (x) A on the dual layout and U_m the d_c x d_a row block m of U.
O touches only block m of each dual row, so F comes from overlaps of those
d_a entries, read off the Haar draws of the same random states used for
observable estimation, with no separate forward and backward evolutions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import UnitaryChannel, kind_of
from .dual import (
    KIND_UNITARY,
    PROJECTOR_ATOL,
    DualStateEnsemble,
    EstimatorReport,
    _check_projector,
    _mean_report,
    _observables,
    _row_block,
)


@dataclass(frozen=True)
class OtocSpec:
    """Correlator specification: channel, input observable A, output B.

    A and B pass the estimators' observable checks, A as a matrix; B must be
    a rank-1 projector |m><m| diagonal in the computational basis, kept as m.
    """

    channel: UnitaryChannel
    a: np.ndarray
    b: np.ndarray
    m: int = field(init=False)

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


def otoc_exact(spec: OtocSpec) -> float:
    """Closed-form correlator tr[G^2] = ||G||_F^2, real and nonnegative, with
    G = U_m A U_m^dag the block (m, m) of U A U^dag, which is
    tr_b[(B (x) I_c) U A U^dag] for B = |m><m|: d_c d_a^2 work.
    """
    ch = spec.channel
    u_m = ch.unitary.reshape(ch.d_b, ch.d_c, ch.d_a)[spec.m]
    g = u_m @ spec.a @ u_m.conj().T
    return float(np.vdot(g, g).real)


def otoc_estimate(
    spec: OtocSpec, ens: DualStateEnsemble, pairing: str = "disjoint"
) -> EstimatorReport:
    """Correlator estimate from pair overlaps of dual samples.

    Averages d_a^2 |conj(s_k) A s_k'|^2 over sample pairs, s_k block m of
    row k read off its Haar draw. The default disjoint pairing uses (0,1),
    (2,3), ... so the averaged values are independent and the reported
    sigma is a valid standard error; pairing="all" averages every unordered
    pair instead (a lower-variance U-statistic whose terms are dependent,
    so no sigma is reported). n_samples on the report counts averaged
    pairs, not states.
    """
    if ens.n_samples < 2:
        raise ValueError("need at least 2 samples to form a pair")
    if ens.d_a != spec.channel.d_a or ens.d_b != spec.channel.d_b:
        raise ValueError("ensemble dimensions do not match the correlator spec")
    d_a = spec.channel.d_a
    s = _row_block(ens, spec.m)
    if pairing == "disjoint":
        n_pairs = s.shape[0] // 2
        # conj(A s_k') against s_k: the conjugate overlap, same modulus,
        # with no copy of the even blocks
        t = s[1 : 2 * n_pairs : 2] @ spec.a.T
        inner = np.einsum("pi,pi->p", s[0 : 2 * n_pairs : 2], np.conjugate(t, out=t))
        return _mean_report(d_a**2 * np.abs(inner) ** 2)
    if pairing == "all":
        n = s.shape[0]
        t = s @ spec.a.T  # Y = A s^T, held as its transpose
        x = np.conjugate(s, out=s)
        # Q = X Y holds every overlap conj(s_k) A s_k' and is Hermitian, so the
        # sum of |Q_kk'|^2 off the diagonal is tr[Q^2] - sum_k |q_k|^2 with q
        # its diagonal; tr[(X Y)^2] = tr[(Y X)^2], so the smaller product serves
        p = x @ t.T if n <= d_a else t.T @ x
        q = np.einsum("ki,ki->k", x, t)
        total = np.einsum("ij,ji->", p, p).real - np.vdot(q, q).real
        # symmetric in (k, k'): the ordered sum counts each of the pairs twice
        return EstimatorReport(
            estimate=float(d_a**2 * total / (n * (n - 1))),
            empirical_sigma=float("nan"),
            analytic_sigma_bound=None,
            sigma_n=float("nan"),
            n_samples=n * (n - 1) // 2,
        )
    raise ValueError(f"unknown pairing {pairing!r}; use 'disjoint' or 'all'")
