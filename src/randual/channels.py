"""Quantum channel representations, Stinespring isometries, validation and JSON specs.

A channel X maps density matrices on a d_a-dimensional input space to
density matrices on a d_b-dimensional output space. Two presentations are
supported:

* KrausChannel: operators M_k (each d_b x d_a) with sum_k M_k^dag M_k = I.
* UnitaryChannel: X(rho) = tr_c[U (rho (x) |0><0|) U^dag] for a unitary U
  on input (x) ancilla, the ancilla prepared in its first basis vector and
  the same space read as (d_b, d_c) with the output factor slowest when the
  traced factor c is traced out. d_a defaults to U's dimension, a
  one-dimensional ancilla: the channel U induces on its own space, which
  kind_of calls unitary_induced. A larger ancilla makes it dilated.

Either carries a minimal Stinespring isometry V, (d_b, d_e, d_a), with
X(rho) = tr_e[V rho V^dag]: a KrausChannel's stack transposed (d_e = r) or
a UnitaryChannel's ancilla-0 columns (d_e = d_c). stinespring_dilate returns
it; no unitary is completed around a Kraus stack.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import hs_norm

# Construction-time tolerance on U^dag U = I and sum M^dag M = I.
UNITARY_ATOL = 1e-9
# Choi eigenvalues above KRAUS_TOL_SCALE * d_a count towards the Kraus rank.
KRAUS_TOL_SCALE = 1e-10


def _as_complex(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(m, dtype=complex))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Channel in operator-sum form; operators stacked as (r, d_b, d_a)."""

    operators: np.ndarray

    def __post_init__(self) -> None:
        ops = _as_complex(self.operators)
        if ops.ndim != 3 or ops.shape[0] < 1:
            raise ValueError("operators must be a nonempty stack of matrices")
        if ops.shape[1] < 1 or ops.shape[2] < 1:
            raise ValueError(f"d_a={ops.shape[2]} and d_b={ops.shape[1]} must be at least 1")
        object.__setattr__(self, "operators", ops)

    @property
    def d_a(self) -> int:
        return self.operators.shape[2]

    @property
    def d_b(self) -> int:
        return self.operators.shape[1]


@dataclass(frozen=True, eq=False)
class UnitaryChannel:
    """Channel carried by a unitary on input (x) ancilla, tracing down to the
    slowest factor of the (d_b, d_c) layout; d_a defaults to the unitary's
    dimension, which makes the ancilla one-dimensional."""

    unitary: np.ndarray
    d_b: int
    d_a: int | None = None

    def __post_init__(self) -> None:
        u = _as_complex(self.unitary)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("unitary must be square")
        d_a = u.shape[0] if self.d_a is None else self.d_a
        for name, d in (("d_a", d_a), ("d_b", self.d_b)):
            if d < 1 or u.shape[0] % d != 0:
                raise ValueError(f"{name}={d} must divide the unitary dimension {u.shape[0]}")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "d_a", d_a)

    @property
    def d_u(self) -> int:
        return self.unitary.shape[0]

    @property
    def ancilla_dim(self) -> int:
        return self.d_u // self.d_a

    @property
    def d_c(self) -> int:
        return self.d_u // self.d_b


class PartialTrace(UnitaryChannel):
    """UnitaryChannel(I, d_b) on d_a dimensions: the partial trace that keeps
    the slowest d_b factor. The identity is formed only when .unitary is
    read; sampling and observables read its isometry as a reshape."""

    def __init__(self, d_a: int, d_b: int) -> None:
        if d_a < 1 or d_b < 1 or d_a % d_b != 0:
            raise ValueError(f"d_b={d_b} must divide d_a={d_a}")
        object.__setattr__(self, "d_a", d_a)
        object.__setattr__(self, "d_b", d_b)

    def __repr__(self) -> str:  # the dataclass repr would read .unitary, forming the identity
        return f"PartialTrace(d_a={self.d_a}, d_b={self.d_b})"

    @property
    def unitary(self) -> np.ndarray:
        return np.eye(self.d_a, dtype=complex)

    @property
    def d_u(self) -> int:
        return self.d_a


Channel = KrausChannel | UnitaryChannel


@dataclass(frozen=True)
class ChannelDiagnostics:
    """Validation report; residuals are Hilbert-Schmidt norms."""

    kind: str
    d_a: int
    d_b: int
    tp_residual: float
    choi_min_eigenvalue: float
    choi_trace: float
    unitarity_residual: float | None
    kraus_rank: int
    choi_spectrum: np.ndarray

    @property
    def is_valid(self) -> bool:
        ok = self.tp_residual <= UNITARY_ATOL and self.choi_min_eigenvalue >= -UNITARY_ATOL
        if self.unitarity_residual is not None:
            ok = ok and self.unitarity_residual <= UNITARY_ATOL
        return ok


def kind_of(ch: Channel) -> str:
    """kraus, unitary_induced (a UnitaryChannel with a one-dimensional
    ancilla) or dilated (any larger ancilla)."""
    if isinstance(ch, KrausChannel):
        return "kraus"
    if isinstance(ch, UnitaryChannel):
        return "unitary_induced" if ch.ancilla_dim == 1 else "dilated"
    raise TypeError(f"not a channel: {type(ch)!r}")


def kraus_operators(ch: Channel) -> np.ndarray:
    """Operator-sum form of any channel variant, stacked as (r, d_b, d_a).

    A UnitaryChannel has M_c = (I (x) <c|) U (I (x) |0>), one per basis
    vector of the traced factor (some may vanish); with a one-dimensional
    ancilla they are the row blocks M_c = (I (x) <c|) U.
    """
    if isinstance(ch, KrausChannel):
        return ch.operators
    if isinstance(ch, UnitaryChannel):
        v = _isometry(ch)
        if v is None:  # a PartialTrace: V is its identity, formed here
            v = ch.unitary.reshape(ch.d_b, ch.d_c, ch.d_a)
        return v.transpose(1, 0, 2).copy()
    raise TypeError(f"not a channel: {type(ch)!r}")


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a d_a x d_a matrix as sum_k M_k rho M_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.d_a, ch.d_a):
        raise ValueError(f"input shape {rho.shape} does not match d_a={ch.d_a}")
    ops = kraus_operators(ch)
    x = (ops.reshape(-1, ch.d_a) @ rho).reshape(ops.shape)  # every M_k rho in one GEMM
    return np.tensordot(x, ops.conj(), axes=([0, 2], [0, 2]))


def _isometry(ch: Channel) -> np.ndarray | None:
    """The minimal Stinespring isometry V, (d_b, d_e, d_a): a KrausChannel's
    stack transposed (d_e = r) or a UnitaryChannel's ancilla-0 columns
    (d_e = d_c). Contiguous, a copy for a stack or a larger ancilla, so
    matmul stays on BLAS. None for a PartialTrace, whose V is the identity
    and never formed."""
    if isinstance(ch, PartialTrace):
        return None
    if isinstance(ch, KrausChannel):
        return np.ascontiguousarray(ch.operators.transpose(1, 0, 2))
    return np.ascontiguousarray(ch.unitary.reshape(ch.d_b, ch.d_c, ch.d_a, ch.ancilla_dim)[..., 0])


def dilation_dim(ch: Channel) -> int:
    """d_b * d_e, the output (x) environment dimension of the channel's
    minimal Stinespring isometry: Haar draws have d_e entries."""
    if isinstance(ch, KrausChannel):
        return ch.d_b * ch.operators.shape[0]
    return ch.d_u


def stinespring_dilate(ch: Channel) -> np.ndarray | None:
    """The channel's minimal Stinespring isometry V, (d_b, d_e, d_a), with
    X(rho) = tr_e[V rho V^dag] and V(|j>) = sum_k (M_k |j>) (x) |k>: a
    KrausChannel's stack transposed (d_e = r, no completion to a unitary), a
    UnitaryChannel's ancilla-0 columns (d_e = d_c), None for a PartialTrace.
    """
    return _isometry(ch)


def validate_channel(ch: Channel) -> ChannelDiagnostics:
    """Numerical diagnostics: trace preservation, Choi positivity, unitarity.

    All are read off the Kraus stack. Stacked as an (r * d_b) x d_a matrix m,
    the operators preserve the trace when m^dag m = I. As r rows vec(M_k),
    scaled by 1/sqrt(d_a), they form an X whose X^dag X is the Choi matrix
    (1/d_a) sum_ij |i><j| (x) X(|i><j|) up to a permutation of its basis, so
    the Choi spectrum is the squared singular values of X, padded with exact
    zeros to d_a * d_b entries.
    """
    ops = kraus_operators(ch)
    r, d_b, d_a = ops.shape
    # an overflowing spec is invalid as it stands: the overflow is the
    # result, so it raises no warning, skips the SVD and reports a NaN spectrum
    with np.errstate(over="ignore", invalid="ignore"):
        m = ops.reshape(r * d_b, d_a)
        tp = hs_norm(m.conj().T @ m - np.eye(d_a))
        w = np.zeros(d_a * d_b)
        if np.isfinite(tp):
            s = np.linalg.svd(ops.reshape(r, d_b * d_a) / np.sqrt(d_a), compute_uv=False)
            w[w.size - s.size :] = s[::-1] ** 2
        else:
            w[:] = np.nan
        unit = None
        if isinstance(ch, UnitaryChannel):
            u = ch.unitary
            unit = hs_norm(u.conj().T @ u - np.eye(u.shape[0]))
    rank = int(np.sum(w > KRAUS_TOL_SCALE * d_a))
    return ChannelDiagnostics(
        kind=kind_of(ch),
        d_a=d_a,
        d_b=d_b,
        tp_residual=float(tp),
        choi_min_eigenvalue=float(w[0]),
        choi_trace=float(w.sum()),
        unitarity_residual=None if unit is None else float(unit),
        kraus_rank=rank,
        choi_spectrum=w,
    )


# ---------------------------------------------------------------------------
# JSON channel specs
#
# {"kind": "kraus" | "unitary_induced" | "dilated",
#  "d_a": int, "d_b": int,
#  "matrices": [matrix, ...]}
#
# where each matrix is a list of rows and each entry is a [re, im] pair.
# kraus: one matrix per operator, each d_b x d_a. unitary_induced: a single
# d_a x d_a unitary. dilated: a single d_u x d_u unitary with d_a | d_u.
# ---------------------------------------------------------------------------


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows: list) -> np.ndarray:
    try:
        arr = np.array([[complex(re, im) for re, im in row] for row in rows])
        # complex() takes JSON's true and false as 1 and 0
        if any(isinstance(x, bool) for row in rows for pair in row for x in pair):
            raise ValueError("entries must be numbers, not true or false")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from exc
    if arr.ndim != 2:
        raise ValueError("matrix entries must form a rectangular table")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def channel_to_dict(ch: Channel) -> dict:
    kind = kind_of(ch)
    if isinstance(ch, KrausChannel):
        matrices = [_matrix_to_json(m) for m in ch.operators]
    else:
        matrices = [_matrix_to_json(ch.unitary)]
    return {"kind": kind, "d_a": ch.d_a, "d_b": ch.d_b, "matrices": matrices}


def channel_from_dict(spec: dict) -> Channel:
    try:
        kind = spec["kind"]
        d_a = spec["d_a"]
        d_b = spec["d_b"]
        if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) for d in (d_a, d_b)):
            raise ValueError(f"d_a and d_b must be integers, got {d_a!r} and {d_b!r}")
        matrices = [_matrix_from_json(m) for m in spec["matrices"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed channel spec: {exc}") from exc
    if not matrices:
        raise ValueError("channel spec contains no matrices")
    if kind == "kraus":
        ops = np.array(matrices)
        if ops.shape[1:] != (d_b, d_a):
            raise ValueError(f"kraus operators must be d_b x d_a = {d_b} x {d_a}")
        return KrausChannel(ops)
    if kind == "unitary_induced":
        if len(matrices) != 1 or matrices[0].shape != (d_a, d_a):
            raise ValueError(f"unitary_induced spec needs a single {d_a} x {d_a} matrix")
        return UnitaryChannel(matrices[0], d_b=d_b)
    if kind == "dilated":
        if len(matrices) != 1:
            raise ValueError("dilated spec needs a single matrix")
        return UnitaryChannel(matrices[0], d_b=d_b, d_a=d_a)
    raise ValueError(f"unknown channel kind {kind!r}")


def save_channel(ch: Channel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(channel_to_dict(ch), f, sort_keys=True)
        f.write("\n")


def load_channel(path: str) -> Channel:
    with open(path, "r", encoding="utf-8") as f:
        try:
            spec = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"channel spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValueError("channel spec must be a JSON object")
    return channel_from_dict(spec)
