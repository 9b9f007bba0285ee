"""Seeded randomness with independent per-sample streams.

Every Monte Carlo draw in the package is keyed by a SeedSpec: a master seed
plus the index of the sample inside its ensemble. The stream for index k is
produced by a Philox bit generator (counter based, 128-bit key, 256-bit
counter) keyed through numpy's SeedSequence with spawn key (k,). Sample k is
therefore a pure function of (master_seed, k): it does not depend on how many
other samples were drawn or in which order, so ensembles can be generated in
parallel and still reproduce bit for bit. The construction is pinned to
numpy >= 1.26, whose Generator streams are covered by the numpy stream
compatibility policy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Domain separation for derived experiment seeds, so child_seed paths can
# never collide with the per-sample spawn keys used by SeedSpec.rng().
_CHILD_TAG = 0x5EED


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus sample index, addressing one random stream."""

    master_seed: int
    sample_index: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.sample_index < 0:
            raise ValueError("sample_index must be nonnegative")

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.sample_index,))
        return np.random.Generator(np.random.Philox(seq))


def _as_generator(seed) -> np.random.Generator:
    """Normalize the accepted seed forms; a Generator passes through so one
    stream can serve several consecutive draws."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, SeedSpec):
        return seed.rng()
    if isinstance(seed, (int, np.integer)):
        return SeedSpec(int(seed)).rng()
    raise TypeError(f"seed must be SeedSpec, int or Generator, got {type(seed).__name__}")


def child_seed(master_seed: int, *path: int) -> int:
    """Derive an independent 64-bit master seed for a sub-experiment.

    path is a tuple of nonnegative integers naming the sub-experiment, e.g.
    (time_index,) or (n_index, trial). Deterministic and collision-resistant
    against the per-sample streams of the same master seed.
    """
    if any(p < 0 for p in path):
        raise ValueError("path entries must be nonnegative")
    seq = np.random.SeedSequence(master_seed, spawn_key=(_CHILD_TAG, *path))
    return int(seq.generate_state(1, np.uint64)[0])


def haar_state(d: int, seed) -> np.ndarray:
    """Haar-random pure state on a d-dimensional space.

    d independent standard complex Gaussian amplitudes, normalized. The
    distribution is exactly unitarily invariant, hence in particular a state
    2-design. seed may be a SeedSpec, an int master seed, or a Generator.
    The 2d Gaussians come from one draw, the first d as real parts and the
    last d as imaginary parts: the stream order of two d-wide draws.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    g = _as_generator(seed).standard_normal(2 * d)
    v = np.empty(d, dtype=complex)
    v.real = g[:d]
    v.imag = g[d:]
    v /= np.linalg.norm(v)
    return v


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary on a d-dimensional space.

    QR decomposition of a complex Ginibre matrix; each Q column is divided
    by the phase of the corresponding R diagonal entry, which makes the
    factorization canonical and the result exactly Haar. seed may be a
    SeedSpec, an int master seed, or a Generator.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    r = _as_generator(seed)
    z = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
    q, rr = np.linalg.qr(z)
    diag = np.diagonal(rr)
    return q / (diag / np.abs(diag))
