"""Out-of-time-order correlators: exact values and pair-overlap estimates."""
import tracemalloc

import numpy as np
import pytest

from randual.channels import PartialTrace, UnitaryChannel
from randual.dual import dual_ensemble, exact_dual, sample_values
from randual.linalg import kron
from randual.otoc import OtocSpec, otoc_estimate, otoc_exact

from helpers import (
    complete_dilation,
    depolarizing,
    otoc_exact_oracle,
    otoc_overlaps_oracle,
    random_hermitian,
    random_kraus_channel,
    random_unitary_channel,
)


def proj0(d):
    p = np.zeros((d, d), dtype=complex)
    p[0, 0] = 1.0
    return p


def default_spec(seed=0, d_a=8, d_b=2):
    rng = np.random.default_rng(seed)
    ch = random_unitary_channel(d_a, d_b, rng)
    return OtocSpec(ch, random_hermitian(rng, d_a), proj0(d_b))


def test_exact_value_three_routes_agree():
    spec = default_spec(1)
    ch = spec.channel
    d_a, d_b, d_c = ch.d_a, ch.d_b, ch.d_c
    f = otoc_exact(spec)
    # via the exact dual state and the doubled observable
    o = np.kron(spec.b.T, spec.a)
    rho = exact_dual(ch)
    f_dual = d_a**2 * np.trace(o @ rho @ o @ rho).real
    # via the four-point form with the lifted projector
    w = ch.unitary @ spec.a @ ch.unitary.conj().T
    lift = kron(spec.b, np.eye(d_c))
    f_four = np.trace(w @ lift @ w @ lift).real
    assert np.isclose(f, f_dual, atol=1e-10 * max(1.0, abs(f)))
    assert np.isclose(f, f_four, atol=1e-10 * max(1.0, abs(f)))


def test_trivial_evolution_counts_traced_dimension():
    # U = I and A = I: the reduced observable is the identity on the traced
    # factor, so the correlator equals d_c
    ch = UnitaryChannel(np.eye(8, dtype=complex), d_b=2)
    spec = OtocSpec(ch, np.eye(8), proj0(2))
    assert np.isclose(otoc_exact(spec), 4.0, atol=1e-12)


def test_commuting_operators_reduce_to_time_ordered_value():
    # diagonal evolution commutes with diagonal A: no scrambling, the value
    # collapses to the static expression with W replaced by A
    rng = np.random.default_rng(2)
    u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=8)))
    a = np.diag(rng.normal(size=8)).astype(complex)
    ch = UnitaryChannel(u, d_b=2)
    spec = OtocSpec(ch, a, proj0(2))
    lift = kron(proj0(2), np.eye(4))
    static = np.trace(a @ lift @ a @ lift).real
    assert np.isclose(otoc_exact(spec), static, atol=1e-10)


def test_exact_value_is_nonnegative():
    # tr[G^2] with Hermitian G, for either output projector
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        ch = random_unitary_channel(8, 2, rng)
        a = random_hermitian(rng, 8)
        b = np.diag(np.eye(2)[seed % 2])
        assert otoc_exact(OtocSpec(ch, a, b)) >= 0.0


def test_spec_validation():
    rng = np.random.default_rng(4)
    ch = random_unitary_channel(4, 2, rng)
    a = random_hermitian(rng, 4)
    with pytest.raises(TypeError):
        OtocSpec(depolarizing(0.2), np.eye(2), proj0(2))
    with pytest.raises(ValueError):
        OtocSpec(ch, random_hermitian(rng, 3), proj0(2))  # wrong A shape
    with pytest.raises(ValueError):
        OtocSpec(ch, a, proj0(4))  # wrong B shape
    with pytest.raises(ValueError):
        OtocSpec(ch, np.triu(np.ones((4, 4))), proj0(2))  # A not Hermitian
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError):
        OtocSpec(ch, a, plus)  # projector but not diagonal
    with pytest.raises(ValueError):
        OtocSpec(ch, a, np.diag([0.7, 0.0]))  # diagonal but not a projector
    with pytest.raises(ValueError):
        OtocSpec(ch, a, np.eye(2))  # rank 2


def test_disjoint_estimate_covers_exact():
    spec = default_spec(5)
    want = otoc_exact(spec)
    ens = dual_ensemble(spec.channel, 20000, master_seed=50)
    rep = otoc_estimate(spec, ens)
    assert rep.n_samples == 10000
    assert abs(rep.estimate - want) <= 3 * rep.sigma_n
    assert rep.analytic_sigma_bound is None


def test_two_seeds_agree_within_combined_error():
    spec = default_spec(6)
    r1 = otoc_estimate(spec, dual_ensemble(spec.channel, 8000, master_seed=51))
    r2 = otoc_estimate(spec, dual_ensemble(spec.channel, 8000, master_seed=52))
    gap = abs(r1.estimate - r2.estimate)
    assert gap <= 3 * np.hypot(r1.sigma_n, r2.sigma_n)


def test_all_pairs_estimate():
    spec = default_spec(7)
    want = otoc_exact(spec)
    ens = dual_ensemble(spec.channel, 2000, master_seed=53)
    disjoint = otoc_estimate(spec, ens)
    allp = otoc_estimate(spec, ens, pairing="all")
    assert allp.n_samples == 2000 * 1999 // 2
    assert np.isnan(allp.sigma_n) and np.isnan(allp.empirical_sigma)
    # the U-statistic reuses every overlap; same data, tighter value
    assert abs(allp.estimate - want) <= 4 * disjoint.sigma_n
    # a tiny ensemble against the pair sum written out
    small = dual_ensemble(spec.channel, 3, master_seed=54)
    rep = otoc_estimate(spec, small, pairing="all")
    o = np.kron(spec.b.T, spec.a)
    s = small.states
    want_small = 0.0
    for k in range(3):
        for kp in range(3):
            if k != kp:
                want_small += abs(s[k].conj() @ o @ s[kp]) ** 2
    want_small *= spec.channel.d_a ** 2 / 6
    assert np.isclose(rep.estimate, want_small, rtol=1e-12)


def test_error_scales_as_inverse_sqrt_pairs():
    spec = default_spec(8)
    want = otoc_exact(spec)
    pair_counts = np.array([50, 200, 800, 3200])
    means = []
    for pairs in pair_counts:
        errs = [
            abs(
                otoc_estimate(
                    spec, dual_ensemble(spec.channel, 2 * int(pairs), master_seed=900 + 10 * t + int(pairs))
                ).estimate
                - want
            )
            for t in range(12)
        ]
        means.append(np.mean(errs))
    slope = np.polyfit(np.log(pair_counts), np.log(means), 1)[0]
    assert abs(slope + 0.5) < 0.15


def test_estimate_input_checks():
    spec = default_spec(9)
    ens = dual_ensemble(spec.channel, 10, master_seed=55)
    with pytest.raises(ValueError):
        otoc_estimate(spec, dual_ensemble(spec.channel, 1, master_seed=56))
    other = random_unitary_channel(8, 4, np.random.default_rng(10))
    with pytest.raises(ValueError):
        otoc_estimate(spec, dual_ensemble(other, 10, master_seed=57))
    with pytest.raises(ValueError):
        otoc_estimate(spec, ens, pairing="ring")


def _block_case(name):
    """(spec, ensemble of spec.channel) for one reading of G, the block
    (m, m) of U A U^dag. The 64/2 cases (d_c = 32) span N > d_c (41),
    N = d_a and N = 2; 8/1 (d_c = 8) and 12/3 (d_c = 4) have N > d_c."""
    rng = np.random.default_rng(60)
    if name.startswith("64/2"):
        spec = OtocSpec(random_unitary_channel(64, 2, rng), random_hermitian(rng, 64), proj0(2))
    elif name == "8/1":
        spec = OtocSpec(random_unitary_channel(8, 1, rng), random_hermitian(rng, 8), np.eye(1))
    else:
        spec = OtocSpec(random_unitary_channel(12, 3, rng), random_hermitian(rng, 12), np.diag([0.0, 0.0, 1.0]))
    n = {"64/2 N=d_a": 64, "64/2 N=2": 2}.get(name, 41)
    return spec, dual_ensemble(spec.channel, n, master_seed=61)


@pytest.mark.parametrize("name", ["64/2", "64/2 N=d_a", "64/2 N=2", "8/1", "12/3 m=2"])
def test_block_reading_matches_dense_oracle(name):
    spec, ens = _block_case(name)
    disjoint = otoc_estimate(spec, ens)
    allp = otoc_estimate(spec, ens, pairing="all")
    assert spec.m == (2 if name.startswith("12/3") else 0)
    # the oracle reads the full rows through kron(B^t, A)
    vals = otoc_overlaps_oracle(spec, ens)
    n = ens.n_samples
    pairs = vals[np.arange(0, n - 1, 2), np.arange(1, n, 2)]
    assert disjoint.n_samples == pairs.size == n // 2
    assert np.isclose(disjoint.estimate, pairs.mean(), rtol=1e-12, atol=0)
    if pairs.size > 1:
        assert np.isclose(disjoint.empirical_sigma, pairs.std(ddof=1), rtol=1e-12, atol=0)
        assert np.isclose(disjoint.sigma_n, pairs.std(ddof=1) / np.sqrt(pairs.size), rtol=1e-12, atol=0)
    else:
        assert np.isnan(disjoint.empirical_sigma) and np.isnan(disjoint.sigma_n)
    want_all = (vals.sum() - np.trace(vals)) / (n * (n - 1))
    assert allp.n_samples == n * (n - 1) // 2
    assert np.isclose(allp.estimate, want_all, rtol=1e-12, atol=0)
    assert np.isclose(otoc_exact(spec), otoc_exact_oracle(spec), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["64/2", "8/1", "12/3 m=2"])
def test_pair_diagonal_is_sample_values(name):
    # the all-pairs trace drops the k = k' terms d_c psi_k^dag G psi_k: G is
    # the quadratic form of sample_values for this (A, B)
    spec, ens = _block_case(name)
    d_c = spec.g.shape[0]
    diag = d_c * np.einsum("ki,ij,kj->k", ens.draws.conj(), spec.g, ens.draws).real
    vals = sample_values(ens, spec.a, spec.b)
    assert np.allclose(diag, vals, rtol=1e-12, atol=1e-12 * np.abs(vals).max())


def test_estimate_refuses_a_foreign_ensemble():
    # a 12 -> 3 Kraus channel dilated with nu = 5 has the spec's dimensions,
    # but its pair average is not the spec's correlator; nor does a second
    # channel object of the same unitary pass as the spec's own
    spec, ens = _block_case("12/3 m=2")
    dilated = complete_dilation(random_kraus_channel(np.random.default_rng(60), 12, 3, 5))
    assert (dilated.d_a, dilated.d_b) == (spec.channel.d_a, spec.channel.d_b) and dilated.ancilla_dim > 1
    twin = UnitaryChannel(spec.channel.unitary, d_b=3)
    for ch in (dilated, twin):
        foreign = dual_ensemble(ch, ens.n_samples, master_seed=61)
        for pairing in ("disjoint", "all"):
            with pytest.raises(ValueError, match="own channel"):
                otoc_estimate(spec, foreign, pairing=pairing)
    otoc_estimate(spec, ens)


def test_otoc_estimate_never_forms_rows():
    # 64 -> 4 unitary channel, N = 2000: the rows would take 8.2 MB; the
    # pair estimates hold G times the draws, a sixteenth of that, at most a
    # d_c-square product and the N-entry diagonal
    rng = np.random.default_rng(62)
    spec = OtocSpec(random_unitary_channel(64, 4, rng), random_hermitian(rng, 64), proj0(4))
    ens = dual_ensemble(spec.channel, 2000, master_seed=63)
    d_c, n = spec.channel.d_c, ens.n_samples
    for pairing in ("disjoint", "all"):
        tracemalloc.start()
        try:
            otoc_estimate(spec, ens, pairing=pairing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ens.draws.nbytes + 16 * (d_c**2 + n) + 2**15, pairing
    assert "states" not in vars(ens)


def test_partial_trace_spec_reads_a_block_of_a():
    # 2^10 -> 2 partial trace: G is A's (m, m) block, where slicing U_m out of
    # .unitary formed the 16 MiB identity; values are those of the explicit identity
    rng = np.random.default_rng(71)
    a = random_hermitian(rng, 2**10)
    b = np.diag([0.0, 1.0])
    tracemalloc.start()
    try:
        spec = OtocSpec(PartialTrace(2**10, 2), a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    dense = OtocSpec(UnitaryChannel(np.eye(2**10), d_b=2), a, b)
    assert np.abs(spec.g - dense.g).max() <= 1e-12
    assert abs(otoc_exact(spec) - otoc_exact(dense)) <= 1e-12 * otoc_exact(dense)
