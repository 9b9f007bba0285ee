"""Seeded randomness with independent per-sample streams.

Every Monte Carlo draw in the package is keyed by a SeedSpec: a master seed
plus the index of the sample inside its ensemble. The stream for index k is
produced by a Philox bit generator (counter based, 128-bit key, 256-bit
counter) whose key is the one numpy's SeedSequence(master_seed,
spawn_key=(k,)) generates. Sample k is therefore a pure function of
(master_seed, k): it does not depend on how many other samples were drawn or
in which order, so ensembles can be generated in parallel and still
reproduce bit for bit. The construction is pinned to numpy >= 1.26, whose
Generator streams are covered by the numpy stream compatibility policy.

The master-seed pool is numpy's SeedSequence(master_seed).pool, read once
per master seed; only the index words are mixed in-house, for the keys of
4096 consecutive indices in one vectorized uint32 pass, so no SeedSequence
object is built per sample. The Philox behind SeedSpec.rng() therefore
holds only its key as seed_seq, and spawning from it is unsupported.
child_seed, which runs a handful of times per command, stays on numpy's
SeedSequence.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

# Domain separation for derived experiment seeds, so child_seed paths can
# never collide with the per-sample spawn keys used by SeedSpec.rng().
_CHILD_TAG = 0x5EED

# numpy's SeedSequence hash on a pool of 4 uint32 words: hashmix constants
# for mixing entropy (A) and for generate_state (B), then the pool-mix
# multipliers. Keys are cached in blocks of 4096 sample indices (64 KiB);
# ensembles walk their indices in order, so two cached blocks suffice, and
# more long-lived blocks churned per master seed fragment the heap.
_MASK32, _POOL, _BLOCK = 0xFFFFFFFF, 4, 4096
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus sample index, addressing one random stream.

    rng() returns the Generator(Philox(SeedSequence(master_seed,
    spawn_key=(sample_index,)))) stream bit for bit, with the key read from
    a cached table of SeedSequence's hash; its seed_seq holds only that key,
    so spawning from it is unsupported.
    """

    master_seed: int
    sample_index: int = 0

    def __post_init__(self) -> None:
        if operator.index(self.master_seed) < 0:
            raise ValueError("master_seed must be nonnegative")
        if operator.index(self.sample_index) < 0:
            raise ValueError("sample_index must be nonnegative")

    def rng(self) -> np.random.Generator:
        block, j = divmod(self.sample_index, _BLOCK)
        key = _key_block(self.master_seed, block)[j]
        return np.random.Generator(np.random.Philox(_philox_key_type()(key)))


def _words(n: int) -> list[int]:
    """n as little-endian uint32 words, the way SeedSequence reads an int."""
    return [(n >> shift) & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hash of value (an int or a uint32 array) and the next
    hash constant, which depends only on how many hashes came before."""
    value = value ^ const
    const = (const * mult) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> 16), const


def _absorb(pool: list, const: int, word) -> int:
    """Mix hashmix(word) into every pool word; returns the next hash constant."""
    for i in range(_POOL):
        h, const = _hashmix(word, const)
        mixed = (_MIX_L * pool[i] - _MIX_R * h) & _MASK32
        pool[i] = mixed ^ (mixed >> 16)
    return const


@functools.lru_cache(maxsize=8)
def _master_pool(master_seed: int) -> tuple[tuple[int, ...], int]:
    """numpy's SeedSequence(master_seed).pool, into which a spawn key is
    mixed, and the hash constant after it: _INIT_A times _MULT_A once per
    hashmix, of which n master-seed words take 4 max(n, 4)."""
    pool = tuple(int(w) for w in np.random.SeedSequence(master_seed).pool)
    n_hashes = _POOL * max(len(_words(master_seed)), _POOL)
    return pool, _INIT_A * pow(_MULT_A, n_hashes, _MASK32 + 1) & _MASK32


@functools.lru_cache(maxsize=2)
def _key_block(master_seed: int, block: int) -> np.ndarray:
    """Read-only (4096, 2) uint64 table whose row j is the Philox key
    SeedSequence(master_seed, spawn_key=(block*4096 + j,)) generates. A
    block never straddles a multiple of 2**32, so only the low index word
    varies inside it."""
    pool, const = _master_pool(int(master_seed))
    pool = [np.full(_BLOCK, p, dtype=np.uint32) for p in pool]
    low, *high = _words(int(block) * _BLOCK)
    const = _absorb(pool, const, low + np.arange(_BLOCK, dtype=np.uint32))
    for w in high:
        const = _absorb(pool, const, np.full(_BLOCK, w, dtype=np.uint32))
    words, const = np.empty((_BLOCK, _POOL), dtype="<u4"), _INIT_B
    for i in range(_POOL):
        words[:, i], const = _hashmix(pool[i], const, _MULT_B)
    keys = words.view("<u8").astype(np.uint64)
    keys.flags.writeable = False
    return keys


@functools.cache
def _philox_key_type() -> type:
    """ISeedSequence handing Philox one precomputed key. Defined on first use:
    a module-level import of numpy.random.bit_generator would load
    numpy.random, hashlib and secrets on `import randual`."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds one Philox key: generate_state(2, np.uint64) only")
            return self.key

    return PhiloxKey


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
    # np.linalg.norm's own expression for a complex vector, minus its dispatch
    v /= np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
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
