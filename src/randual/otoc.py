"""Second-moment estimation: out-of-time-order correlators from dual samples.

For a unitary-induced channel with W = U A U^dag and B lifted to the input
space as B (x) I_c, the squared-overlap average over two independent dual
samples recovers

    F = d_a^2 tr[(O rho_X)^2] = tr[G^2],   G = tr_b[(B (x) I_c) W],

with O = B^t (x) A on the dual layout. When B is a rank-1 computational
projector this is the standard four-point correlator tr[(W (B (x) I_c))^2],
so F can be estimated from pair overlaps of the same random states used for
observable estimation, with no separate forward and backward evolutions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import UnitaryChannel
from .dual import PROJECTOR_ATOL, DualStateEnsemble, EstimatorReport
from .linalg import assert_hermitian, partial_trace

#: chunk height for the all-pairs overlap matrix, bounds memory at ~chunk*N
_ALL_PAIRS_CHUNK = 512


@dataclass(frozen=True)
class OtocSpec:
    """Correlator specification: channel, input observable A, output B.

    With b_is_projector set, B must be a rank-1 projector diagonal in the
    computational basis; that is the case with a pair-sampling estimator.
    """

    channel: UnitaryChannel
    a: np.ndarray
    b: np.ndarray
    b_is_projector: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.channel, UnitaryChannel):
            raise TypeError("OtocSpec needs a unitary-induced channel")
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if a.shape != (self.channel.d_a,) * 2:
            raise ValueError(f"A shape {a.shape} does not match d_a={self.channel.d_a}")
        if b.shape != (self.channel.d_b,) * 2:
            raise ValueError(f"B shape {b.shape} does not match d_b={self.channel.d_b}")
        assert_hermitian(a, name="A")
        assert_hermitian(b, name="B")
        if self.b_is_projector:
            off = b - np.diag(np.diag(b))
            if np.abs(off).max() > PROJECTOR_ATOL:
                raise ValueError("projector B must be diagonal in the computational basis")
            if np.abs(b @ b - b).max() > PROJECTOR_ATOL or abs(np.trace(b) - 1.0) > PROJECTOR_ATOL:
                raise ValueError("projector B must satisfy B^2 = B and tr B = 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def otoc_exact(spec: OtocSpec) -> float:
    """Closed-form correlator tr[G^2] with G = tr_b[(B (x) I_c) U A U^dag].

    Covers Hermitian B generally; for a computational rank-1 projector it
    equals tr[(U A U^dag (B (x) I_c))^2]. G is Hermitian, so the value is
    real and, for projector B, nonnegative.
    """
    ch = spec.channel
    u = ch.unitary
    w = u @ spec.a @ u.conj().T
    bw = np.einsum("bd,dcj->bcj", spec.b, w.reshape(ch.d_b, ch.d_c, ch.d_a))
    g = partial_trace(bw.reshape(ch.d_a, ch.d_a), (ch.d_b, ch.d_c), [1])
    return float(np.trace(g @ g).real)


def otoc_estimate(
    spec: OtocSpec, ens: DualStateEnsemble, pairing: str = "disjoint"
) -> EstimatorReport:
    """Correlator estimate from pair overlaps of dual samples.

    Averages d_a^2 |<Psi_k|(B^t (x) A)|Psi_k'>|^2 over sample pairs. The
    default disjoint pairing uses (0,1), (2,3), ... so the averaged values
    are independent and the reported sigma is a valid standard error;
    pairing="all" averages every unordered pair instead (a lower-variance
    U-statistic whose terms are dependent, so no sigma is reported).
    n_samples on the report counts averaged pairs, not states.
    """
    if not spec.b_is_projector:
        raise ValueError("pair-sampling estimation needs the projector form of B")
    if ens.n_samples < 2:
        raise ValueError("need at least 2 samples to form a pair")
    if ens.d_a != spec.channel.d_a or ens.d_b != spec.channel.d_b:
        raise ValueError("ensemble dimensions do not match the correlator spec")
    d_a = spec.channel.d_a
    o = np.kron(spec.b.T, spec.a)
    states = ens.states
    if pairing == "disjoint":
        n_pairs = states.shape[0] // 2
        even = states[0 : 2 * n_pairs : 2]
        odd = states[1 : 2 * n_pairs : 2]
        inner = np.einsum("pi,pi->p", even.conj(), odd @ o.T)
        vals = d_a**2 * np.abs(inner) ** 2
        estimate = float(vals.mean())
        sigma = float(vals.std(ddof=1)) if n_pairs > 1 else float("nan")
        return EstimatorReport(
            estimate=estimate,
            empirical_sigma=sigma,
            analytic_sigma_bound=None,
            sigma_n=float(sigma / np.sqrt(n_pairs)),
            n_samples=n_pairs,
        )
    if pairing == "all":
        n = states.shape[0]
        ot = o @ states.T  # (d, N), small d so this dominates nothing
        total = 0.0
        for lo in range(0, n, _ALL_PAIRS_CHUNK):
            block = states[lo : lo + _ALL_PAIRS_CHUNK].conj() @ ot
            sq = np.abs(block) ** 2
            total += sq.sum() - np.trace(sq, offset=lo)
        # symmetric in (k, k') for Hermitian O: ordered sum / 2 per pair
        n_pairs = n * (n - 1) // 2
        estimate = d_a**2 * total / (n * (n - 1))
        return EstimatorReport(
            estimate=float(estimate),
            empirical_sigma=float("nan"),
            analytic_sigma_bound=None,
            sigma_n=float("nan"),
            n_samples=n_pairs,
        )
    raise ValueError(f"unknown pairing {pairing!r}; use 'disjoint' or 'all'")
