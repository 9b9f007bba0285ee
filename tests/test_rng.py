"""Seeding, Haar sampling, and the second-moment closed form."""
import numpy as np
import pytest

from randual.rng import SeedSpec, _key_block, _master_pool, child_seed, haar_state, haar_unitary

from helpers import assert_same_stream, haar_second_moment, random_hermitian, seedsequence_rng

# master seeds of 1, 1, 2, 2, 3, 4 and 5 uint32 entropy words
ORACLE_MASTERS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**127, 2**130 + 3]
# both edges of the first key block, and one- and two-word indices
ORACLE_INDICES = [0, 4095, 4096, 2**32 - 1, 2**32, 2**33 + 7]


def test_seedspec_streams_are_reproducible_and_distinct():
    a = SeedSpec(12, 3).rng().standard_normal(8)
    b = SeedSpec(12, 3).rng().standard_normal(8)
    c = SeedSpec(12, 4).rng().standard_normal(8)
    d = SeedSpec(13, 3).rng().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("master", ORACLE_MASTERS)
@pytest.mark.parametrize("index", ORACLE_INDICES)
def test_seedspec_stream_matches_seedsequence_oracle(master, index):
    assert_same_stream(SeedSpec(master, index).rng(), seedsequence_rng(master, index))


def test_seedspec_stream_holds_only_its_key():
    g = SeedSpec(3, 4097).rng()
    want = np.random.SeedSequence(3, spawn_key=(4097,)).generate_state(2, np.uint64)
    assert np.array_equal(g.bit_generator.seed_seq.generate_state(2, np.uint64), want)
    with pytest.raises(ValueError):
        g.bit_generator.seed_seq.generate_state(4, np.uint32)
    with pytest.raises(TypeError):
        g.spawn(1)


def test_key_table_is_read_only_and_cache_is_bounded():
    keys = _key_block(5, 1)
    assert keys.shape == (4096, 2) and keys.dtype == np.uint64
    with pytest.raises(ValueError):
        keys[0, 0] = 0
    with pytest.raises(ValueError):
        keys[7][1] = 0
    for j in (0, 7, 4095):
        want = np.random.SeedSequence(5, spawn_key=(4096 + j,)).generate_state(2, np.uint64)
        assert np.array_equal(keys[j], want)
    for block in range(20):
        _key_block(6, block)
    for cached in (_key_block, _master_pool):
        info = cached.cache_info()
        assert info.maxsize is not None and info.maxsize <= 8
        assert info.currsize <= info.maxsize


def test_seedspec_rejects_negative():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(0, -2)
    with pytest.raises(TypeError):
        SeedSpec(1.5)
    with pytest.raises(TypeError):
        SeedSpec(1, 2.0)


def test_child_seed_deterministic_and_separated():
    assert child_seed(7, 0) == child_seed(7, 0)
    assert child_seed(7, 0) != child_seed(7, 1)
    assert child_seed(7, 0, 1) != child_seed(7, 1, 0)
    assert child_seed(7) != 7
    s = child_seed(3, 5, 9)
    assert isinstance(s, int) and 0 <= s < 2**64
    with pytest.raises(ValueError):
        child_seed(3, -1)


def test_child_seed_does_not_collide_with_sample_streams():
    # the derived master seed feeds fresh SeedSpec streams; spot-check that
    # (master, k) and (child(master, k'), 0) never alias on a small grid
    draws = set()
    for k in range(20):
        draws.add(tuple(SeedSpec(11, k).rng().integers(0, 2**32, 4).tolist()))
    for k in range(20):
        child = child_seed(11, k)
        assert tuple(SeedSpec(child, 0).rng().integers(0, 2**32, 4).tolist()) not in draws


def test_haar_state_norm_and_determinism():
    v1 = haar_state(6, SeedSpec(5, 2))
    v2 = haar_state(6, SeedSpec(5, 2))
    assert np.array_equal(v1, v2)
    assert np.isclose(np.linalg.norm(v1), 1.0, atol=1e-12)
    # int and Generator forms
    v3 = haar_state(6, 5)
    assert np.array_equal(v3, haar_state(6, SeedSpec(5)))
    g = SeedSpec(5).rng()
    v4 = haar_state(6, g)
    v5 = haar_state(6, g)  # same generator advances
    assert not np.array_equal(v4, v5)
    with pytest.raises(ValueError):
        haar_state(0, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 16, 17, 64, 255, 512, 1024, 4096])
def test_haar_state_bits_match_two_draw_form(d):
    # real parts then imaginary parts, as two consecutive d-wide draws
    for k in range(5):
        r = SeedSpec(31, k).rng()
        v = r.standard_normal(d) + 1j * r.standard_normal(d)
        want = v / np.linalg.norm(v)
        assert haar_state(d, SeedSpec(31, k)).tobytes() == want.tobytes()


def test_haar_state_d1_is_phase():
    v = haar_state(1, SeedSpec(9))
    assert v.shape == (1,)
    assert np.isclose(abs(v[0]), 1.0, atol=1e-12)


def test_haar_unitary_is_unitary_and_deterministic():
    u1 = haar_unitary(5, SeedSpec(4))
    u2 = haar_unitary(5, SeedSpec(4))
    assert np.array_equal(u1, u2)
    assert np.allclose(u1.conj().T @ u1, np.eye(5), atol=1e-12)
    assert haar_unitary(1, SeedSpec(0)).shape == (1, 1)


def test_haar_unitary_mean_vanishes():
    # without the R-diagonal phase fix plain QR biases E[U] far from zero
    rng = np.random.default_rng(100)
    total = np.zeros((3, 3), dtype=complex)
    n = 4000
    for _ in range(n):
        total += haar_unitary(3, rng)
    mean = total / n
    # entry variance is 1/d, so the mean's sd is 1/sqrt(n d)
    assert np.abs(mean).max() < 5 / np.sqrt(n * 3)


def test_haar_unitary_first_moment_of_projector():
    # E[U |0><0| U^dag] = I/d
    rng = np.random.default_rng(101)
    d, n = 4, 10000
    total = np.zeros((d, d), dtype=complex)
    for _ in range(n):
        u = haar_unitary(d, rng)
        total += np.outer(u[:, 0], u[:, 0].conj())
    assert np.abs(total / n - np.eye(d) / d).max() < 0.02


def test_haar_state_second_moment_matches_closed_form():
    # E[|psi><psi| M |psi><psi|] = (M + tr(M) I) / (d (d + 1)),
    # the X = Z = |0><0| instance of the second-moment formula applied to
    # states drawn as U|0>
    rng = np.random.default_rng(102)
    d, n = 3, 20000
    m = random_hermitian(rng, d)
    total = np.zeros((d, d), dtype=complex)
    for _ in range(n):
        psi = haar_state(d, rng)
        total += np.vdot(psi, m @ psi) * np.outer(psi, psi.conj())
    want = (m + np.trace(m) * np.eye(d)) / (d * (d + 1))
    assert np.abs(total / n - want).max() < 0.02


def test_second_moment_formula_special_cases():
    rng = np.random.default_rng(103)
    d = 4
    x = random_hermitian(rng, d)
    y = random_hermitian(rng, d)
    z = random_hermitian(rng, d)
    eye = np.eye(d, dtype=complex)
    # X = Z = I collapses to Y itself
    assert np.allclose(haar_second_moment(eye, y, eye), y, atol=1e-12)
    # Y = I averages V^dag X Z V to tr(XZ) I / d
    want = np.trace(x @ z) / d * eye
    assert np.allclose(haar_second_moment(x, eye, z), want, atol=1e-12)
    with pytest.raises(ValueError):
        haar_second_moment(np.eye(1), np.eye(1), np.eye(1))


def test_second_moment_formula_against_monte_carlo():
    rng = np.random.default_rng(104)
    d, n = 3, 30000
    x = random_hermitian(rng, d)
    y = random_hermitian(rng, d)
    z = random_hermitian(rng, d)
    total = np.zeros((d, d), dtype=complex)
    for _ in range(n):
        v = haar_unitary(d, rng)
        total += v.conj().T @ x @ v @ y @ v.conj().T @ z @ v
    want = haar_second_moment(x, y, z)
    scale = max(np.abs(want).max(), 1.0)
    assert np.abs(total / n - want).max() < 0.15 * scale
