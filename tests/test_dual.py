"""Random dual states, exact duals, estimators, variance bounds."""
import tracemalloc

import numpy as np
import pytest

from randual.channels import (
    KrausChannel,
    PartialTrace,
    UnitaryChannel,
    apply_channel,
    dilation_dim,
    kind_of,
    kraus_operators,
    stinespring_dilate,
    validate_channel,
)
from randual import dual
from randual.dual import (
    KIND_POSTSELECTED,
    KIND_UNITARY,
    DualStateEnsemble,
    distance_report,
    distance_table,
    dual_ensemble,
    dual_estimate,
    duality_pairing,
    estimate_observable,
    exact_dual,
    exact_dual_factor,
    rank1_variance_bound,
    sample_values,
    variance_bound,
)
from randual.linalg import kron
from randual.rng import SeedSpec, child_seed, haar_state, haar_unitary

from helpers import (
    amplitude_damping,
    apply_channel_oracle,
    batch_states_oracle,
    choi_matrix,
    complete_dilation,
    dense_values_oracle,
    depolarizing,
    dual_from_choi,
    full_dilation_rows_oracle,
    hs_distance,
    max_entangled_state,
    partial_trace,
    random_hermitian,
    random_kraus_channel,
    random_unitary_channel,
    sample_dual_state,
    seedsequence_rng,
    trace_distance,
)


def exact_value(ch, a, b):
    return np.trace(apply_channel_oracle(ch, a) @ b).real


def exact_sample_variance(ch, a, b):
    # variance of one d_a-scaled sample: reduce the lifted observable onto the
    # traced factor and apply the Haar state moment formulas there
    d_b, d_c = ch.d_b, ch.d_c
    u = ch.unitary
    lift = kron(np.asarray(b, dtype=complex), np.eye(d_c)) @ u @ np.asarray(a, dtype=complex) @ u.conj().T
    g = partial_trace(lift, (d_b, d_c), [1])
    second = d_c * np.trace(g @ g.conj().T).real - abs(np.trace(g)) ** 2
    return second / (d_c + 1)


def test_sample_norm_and_per_sample_seeding():
    ch = random_unitary_channel(8, 2, np.random.default_rng(0))
    ens = dual_ensemble(ch, 6, master_seed=123)
    norms = np.linalg.norm(ens.states, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert ens.kind == KIND_UNITARY
    assert ens.states.shape == (6, ch.d_b * ch.d_a)
    # row k is reproducible in isolation from (master, k)
    for k in (0, 3, 5):
        row = sample_dual_state(ch, SeedSpec(123, k))
        assert np.array_equal(ens.states[k], row)
    # int seed means stream 0 of that master seed
    assert np.array_equal(sample_dual_state(ch, 123), ens.states[0])


def test_identity_channel_gives_maximally_entangled_dual():
    d = 4
    ch = UnitaryChannel(np.eye(d, dtype=complex), d_b=d)  # d_c = 1, nothing traced
    psi = sample_dual_state(ch, 7)
    phi = max_entangled_state(d)
    assert np.isclose(abs(np.vdot(phi, psi)), 1.0, atol=1e-12)


def test_exact_dual_invariants():
    rng = np.random.default_rng(1)
    for d_a, d_b in [(4, 2), (8, 2), (6, 3), (9, 3)]:
        ch = random_unitary_channel(d_a, d_b, rng)
        rho = exact_dual(ch)
        d_c = ch.d_c
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)
        w = np.linalg.eigvalsh(rho)
        assert w[0] > -1e-12
        assert np.sum(w > 1e-9) == d_c
        # projector structure scaled by the traced dimension
        assert np.allclose(rho @ rho, rho / d_c, atol=1e-11)
        # agreement with the transposed-and-swapped Choi matrix
        assert np.allclose(rho, dual_from_choi(choi_matrix(ch)), atol=1e-12)


def test_exact_dual_reproduces_channel_pairing():
    rng = np.random.default_rng(2)
    for ch in [
        random_unitary_channel(8, 2, rng),
        depolarizing(0.35),
        amplitude_damping(0.5),
    ]:
        rho = exact_dual(ch)
        for _ in range(4):
            a = random_hermitian(rng, ch.d_a)
            b = random_hermitian(rng, ch.d_b)
            assert np.isclose(
                duality_pairing(rho, a, b), exact_value(ch, a, b), atol=1e-10
            )


def test_duality_pairing_identity_normalization():
    ch = random_unitary_channel(6, 2, np.random.default_rng(3))
    rho = exact_dual(ch)
    val = duality_pairing(rho, np.eye(6), np.eye(2))
    assert np.isclose(val, 6.0, atol=1e-10)


def test_duality_pairing_input_checks():
    ch = random_unitary_channel(4, 2, np.random.default_rng(4))
    rho = exact_dual(ch)
    herm = np.eye(2)
    with pytest.raises(ValueError):
        duality_pairing(rho, np.array([[0.0, 1.0], [0.0, 0.0]]), herm)  # not Hermitian
    with pytest.raises(ValueError):
        duality_pairing(rho, np.eye(3), herm)  # 3 * 2 != 8


def test_estimator_mean_matches_pairing_identity():
    # algebraic identity: mean of per-sample values equals the pairing of the
    # rank-N estimator, independent of N
    ch = random_unitary_channel(8, 4, np.random.default_rng(5))
    ens = dual_ensemble(ch, 17, master_seed=9)
    rng = np.random.default_rng(6)
    a = random_hermitian(rng, 8)
    b = random_hermitian(rng, 4)
    vals = sample_values(ens, a, b)
    lhs = float(np.mean(vals))
    rhs = duality_pairing(dual_estimate(ens), a, b)
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_identity_observables_have_zero_spread():
    ch = random_unitary_channel(8, 2, np.random.default_rng(7))
    ens = dual_ensemble(ch, 50, master_seed=11)
    rep = estimate_observable(ens, np.eye(8), np.eye(2))
    assert np.isclose(rep.estimate, 8.0, atol=1e-10)
    assert rep.empirical_sigma < 1e-10
    assert variance_bound(ch, np.eye(8), np.eye(2)) < 1e-18


def test_variance_bound_is_never_negative():
    # identity observables on unitary channels: the variance is 0 and the
    # sum over M - c I is rounding, which for some of these channels falls
    # below zero on one BLAS thread; a negative variance would give a nan sigma
    for seed, d_a, d_b in [(56, 4, 2), (109, 4, 2), (196, 8, 4)]:
        ch = random_unitary_channel(d_a, d_b, np.random.default_rng(seed))
        for b in (np.eye(d_b), 3 * np.eye(d_b)):
            assert 0.0 <= variance_bound(ch, np.eye(d_a), b) < 1e-28
            assert np.isfinite(estimate_observable(dual_ensemble(ch, 1, master_seed=1), np.eye(d_a), b).sigma_n)


def test_variance_bound_has_no_cancellation_near_the_identity():
    # B = I: the values of A = I are all equal, so Var x(I + eps H) is
    # eps^2 Var x(H); m tr M^2 - (tr M)^2 taken as it stands would lose the
    # eps^2 part to rounding of its two O(1) terms
    ch = random_unitary_channel(16, 2, np.random.default_rng(65))
    h, eps = random_hermitian(np.random.default_rng(66), 16), 1e-6
    want = eps**2 * variance_bound(ch, h, np.eye(2))
    assert _rel_err(variance_bound(ch, np.eye(16) + eps * h, np.eye(2)), want) <= 1e-6


def test_estimator_report_fields_and_bound_usage():
    ch = random_unitary_channel(8, 2, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 8)
    b = random_hermitian(rng, 2)
    rep = estimate_observable(dual_ensemble(ch, 40, master_seed=13), a, b)
    assert rep.n_samples == 40
    assert rep.analytic_sigma_bound is not None
    assert np.isclose(rep.sigma_n, rep.empirical_sigma / np.sqrt(40), atol=1e-15)
    # a single sample has no empirical spread: the analytic bound steps in
    one = estimate_observable(dual_ensemble(ch, 1, master_seed=13), a, b)
    assert np.isnan(one.empirical_sigma)
    assert np.isclose(one.sigma_n, one.analytic_sigma_bound, atol=1e-15)


def test_estimator_coverage_at_three_sigma():
    # 40 independent configurations; at 3 sigma_N essentially all must cover
    hits = 0
    for trial in range(40):
        rng = np.random.default_rng(100 + trial)
        d_b = [2, 4][trial % 2]
        ch = random_unitary_channel(16, d_b, rng)
        a = random_hermitian(rng, 16)
        b = random_hermitian(rng, d_b)
        ens = dual_ensemble(ch, 400, master_seed=200 + trial)
        rep = estimate_observable(ens, a, b)
        if abs(rep.estimate - exact_value(ch, a, b)) <= 3 * rep.sigma_n:
            hits += 1
    assert hits >= 38


def _variance_z(vals, want):
    # (sample variance - want) over its standard error, taken from the
    # sample's fourth central moment: Var s^2 ~ (mu_4 - sigma^4) / N
    dev = vals - vals.mean()
    emp = float(np.mean(dev**2))
    return (float(np.var(vals, ddof=1)) - want) / np.sqrt((np.mean(dev**4) - emp**2) / vals.size)


def test_variance_bound_dominates_empirical():
    # the bound is the exact variance: the empirical one scatters around it
    for trial in range(6):
        rng = np.random.default_rng(300 + trial)
        ch = random_unitary_channel(8, 2, rng)
        a = random_hermitian(rng, 8)
        b = random_hermitian(rng, 2)
        ens = dual_ensemble(ch, 4000, master_seed=400 + trial)
        assert abs(_variance_z(sample_values(ens, a, b), variance_bound(ch, a, b))) <= 4


def test_exact_variance_formula():
    # the empirical spread matches the closed-form single-sample variance
    rng = np.random.default_rng(10)
    ch = random_unitary_channel(8, 2, rng)
    a = random_hermitian(rng, 8)
    b = random_hermitian(rng, 2)
    want = exact_sample_variance(ch, a, b)
    ens = dual_ensemble(ch, 20000, master_seed=15)
    emp = float(np.var(sample_values(ens, a, b), ddof=1))
    assert abs(emp - want) < 0.1 * want
    assert want <= variance_bound(ch, a, b) * (1 + 1e-9)


def _rel_err(got, want):
    # an exact match is no error, also where both are 0
    err = np.abs(np.asarray(got) - want).max()
    return err / np.abs(want).max() if err else 0.0


@pytest.mark.parametrize("d_a, d_b", [(16, 2), (16, 4), (64, 4)])
def test_variance_bound_matches_dense_oracle(d_a, d_b):
    # the exact single-sample variance, and never above the older unitary
    # bound: X = U A U^dag (B (x) I_c) built densely
    for trial in range(4):
        rng = np.random.default_rng(30 + 7 * trial + d_a + d_b)
        ch = random_unitary_channel(d_a, d_b, rng)
        a = random_hermitian(rng, d_a)
        b = random_hermitian(rng, d_b)
        u = ch.unitary
        w = u @ a @ u.conj().T
        x = np.einsum("ibc,bd->idc", w.reshape(d_a, d_b, ch.d_c), b).reshape(d_a, d_a)
        old_bound = (d_a * np.vdot(x, x).real - abs(np.trace(x)) ** 2) / (ch.d_c + 1)
        got = variance_bound(ch, a, b)
        assert _rel_err(got, exact_sample_variance(ch, a, b)) <= 1e-12
        assert got <= old_bound


def _random_vector(rng, d, normalized):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v) if normalized else 3.7 * v


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (4, 4), (8, 2), (16, 4), (64, 8), (256, 2)])
@pytest.mark.parametrize("normalized", [True, False])
def test_vector_observable_matches_dense_oracle(d_a, d_b, normalized):
    # A given as v means |v><v|; the dense outer product is the oracle
    rng = np.random.default_rng(d_a * 10 + d_b + normalized)
    ch = random_unitary_channel(d_a, d_b, rng)
    v = _random_vector(rng, d_a, normalized)
    dense = np.outer(v, v.conj())
    b = random_hermitian(rng, d_b)
    ens = dual_ensemble(ch, 30, master_seed=31)
    vals = sample_values(ens, dense, b)
    assert _rel_err(sample_values(ens, v, b), vals) <= 1e-12
    assert _rel_err(variance_bound(ch, v, b), variance_bound(ch, dense, b)) <= 1e-12
    got, want = estimate_observable(ens, v, b), estimate_observable(ens, dense, b)
    assert _rel_err(got.estimate, want.estimate) <= 1e-12
    assert _rel_err(got.analytic_sigma_bound, want.analytic_sigma_bound) <= 1e-12
    # relative to the values' scale: at d_c = 1 every sample is equal and the
    # spread is rounding
    for field in ("empirical_sigma", "sigma_n"):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12 * np.abs(vals).max()
    assert got.n_samples == want.n_samples


@pytest.mark.parametrize("kind", ["kraus", "dilated", "depolarizing"])
def test_vector_observable_on_postselected_ensembles(kind):
    ch = _every_channel_kind()[kind]
    rng = np.random.default_rng(32)
    v = _random_vector(rng, ch.d_a, False)
    b = random_hermitian(rng, ch.d_b)
    ens = dual_ensemble(ch, 25, master_seed=33)
    got = sample_values(ens, v, b)
    assert _rel_err(got, sample_values(ens, np.outer(v, v.conj()), b)) <= 1e-12


@pytest.mark.parametrize("d, d_b", [(16, 2), (16, 4), (64, 2), (64, 4)])
def test_unitary_channel_values_are_the_partial_trace_values_of_the_rotated_vector(d, d_b):
    # the dual samples of U's channel are those of the identity channel (the
    # partial trace keeping d_b) rotated by U^dag, so at one seed the values
    # for v are, draw by draw, the trace's values for U v
    rng = np.random.default_rng(d + d_b)
    u = haar_unitary(d, rng)
    v = _random_vector(rng, d, True)
    b = random_hermitian(rng, d_b)
    ch, keep = UnitaryChannel(u, d_b), UnitaryChannel(np.eye(d, dtype=complex), d_b)
    got = sample_values(dual_ensemble(keep, 40, master_seed=35), u @ v, b)
    want = sample_values(dual_ensemble(ch, 40, master_seed=35), v, b)
    assert np.abs(got - want).max() <= 1e-12
    assert abs(variance_bound(keep, u @ v, b) - variance_bound(ch, v, b)) <= 1e-12



@pytest.mark.parametrize("d_b", [2, 4])
def test_partial_trace_reads_its_identity_as_the_dense_unitary(d_b):
    # PartialTrace(256, d_b) never forms its identity for observables; draw by
    # draw it gives the values, variances and rows of UnitaryChannel(I, d_b)
    rng = np.random.default_rng(70 + d_b)
    keep, dense = PartialTrace(256, d_b), UnitaryChannel(np.eye(256), d_b=d_b)
    assert kind_of(keep) == "unitary_induced" and dilation_dim(keep) == 256 and keep.d_c == 256 // d_b
    assert stinespring_dilate(keep) is None
    assert np.array_equal(kraus_operators(keep), kraus_operators(dense))
    assert validate_channel(keep).is_valid
    fast, slow = dual_ensemble(keep, 30, master_seed=71), dual_ensemble(dense, 30, master_seed=71)
    assert np.array_equal(fast.draws, slow.draws)
    b = random_hermitian(rng, d_b)
    for a in (_random_vector(rng, 256, False), random_hermitian(rng, 256)):
        assert np.abs(sample_values(fast, a, b) - sample_values(slow, a, b)).max() <= 1e-12
        assert abs(variance_bound(keep, a, b) - variance_bound(dense, a, b)) <= 1e-12
    assert np.array_equal(fast.states, slow.states)
    with pytest.raises(ValueError, match="must divide"):
        PartialTrace(6, 4)


def test_partial_trace_vector_values_allocate_no_identity():
    # d_a = 1024: the identity would take 16 MiB; the values and the variance
    # of a vector read its reshape
    keep, rng = PartialTrace(1024, 2), np.random.default_rng(72)
    v, b = _random_vector(rng, 1024, True), random_hermitian(rng, 2)
    ens = dual_ensemble(keep, 50, master_seed=73)
    tracemalloc.start()
    try:
        sample_values(ens, v, b)
        variance_bound(keep, v, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20

def _sampling_kinds():
    rng = np.random.default_rng(51)
    unitary = random_unitary_channel(16, 4, rng)
    return {
        "unitary": unitary,
        "kraus r<d": random_kraus_channel(rng, 8, 4, 3),  # r = 3 < d_a = 8
        "kraus r>d": random_kraus_channel(rng, 2, 2, 6),  # r = 6 > d_b * d_a = 4, so d_env = 6 > 4 too
        "dilated": UnitaryChannel(haar_unitary(32, rng), d_a=16, d_b=4),
        "trivially dilated": complete_dilation(unitary),
        "unitary d_b=1": random_unitary_channel(8, 1, rng),
    }


@pytest.mark.parametrize("kind", ["unitary", "kraus r<d", "kraus r>d", "dilated", "trivially dilated"])
def test_rank1_values_from_draws_match_rows(kind):
    # the vector and the dense |v><v| branch both read the draws; the rows
    # oracle is the reference for each
    ch = _sampling_kinds()[kind]
    rng = np.random.default_rng(52)
    v = _random_vector(rng, ch.d_a, True)
    b = random_hermitian(rng, ch.d_b)
    b /= np.abs(np.linalg.eigvalsh(b)).max()
    ens = dual_ensemble(ch, 40, master_seed=53)
    got = sample_values(ens, v, b)
    dense = sample_values(ens, np.outer(v, v.conj()), b)
    assert "states" not in vars(ens)
    want = dense_values_oracle(ens, np.outer(v, v.conj()), b)
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(dense - want).max() <= 1e-12


@pytest.mark.parametrize("kind", list(_sampling_kinds()))
def test_dense_values_from_draws_match_rows_oracle(kind):
    # x_k = d_a (nu / d_b) psi_k^dag M psi_k with the d_env-square M formed
    # once: the rows' einsum to rounding, and no rows are formed
    ch = _sampling_kinds()[kind]
    rng = np.random.default_rng(58)
    a, b = random_hermitian(rng, ch.d_a), random_hermitian(rng, ch.d_b)
    ens = dual_ensemble(ch, 60, master_seed=59)
    got = sample_values(ens, a, b)
    assert "states" not in vars(ens)
    want = dense_values_oracle(ens, a, b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", list(_sampling_kinds()))
def test_variance_bound_is_the_exact_variance_on_every_kind(kind):
    # one ensemble of 20,000 draws per kind: for a dense A and for a vector,
    # the empirical variance lies within 4 standard errors of the formula
    ch = _sampling_kinds()[kind]
    rng = np.random.default_rng(63)
    a, b = random_hermitian(rng, ch.d_a), random_hermitian(rng, ch.d_b)
    v = _random_vector(rng, ch.d_a, False)
    ens = dual_ensemble(ch, 20_000, master_seed=64)
    for obs in (a, v):
        want = variance_bound(ch, obs, b)
        assert want > 0
        assert abs(_variance_z(sample_values(ens, obs, b), want)) <= 4


def test_dense_values_peak_is_a_fraction_of_the_rows():
    # unitary 256/4, N = 5000: the rows would take N d_b d_a 16 bytes, 78 MiB;
    # the draw reading holds N x d_env = 64 products and the isometry-sized X
    ch = random_unitary_channel(256, 4, np.random.default_rng(60))
    rng = np.random.default_rng(61)
    a, b = random_hermitian(rng, ch.d_a), random_hermitian(rng, ch.d_b)
    ens = dual_ensemble(ch, 5000, master_seed=62)
    tracemalloc.start()
    try:
        sample_values(ens, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "states" not in vars(ens)
    assert peak < 5000 * ch.d_b * ch.d_a * 16 / 4


def test_rank1_estimate_never_forms_rows():
    # 256-dimensional unitary channel, d_b = 2: the draws are (500, 128),
    # d_b^2 = 4 times fewer bytes than the (500, 512) rows, and the estimate
    # runs on them alone
    ch = random_unitary_channel(256, 2, np.random.default_rng(54))
    v = _random_vector(np.random.default_rng(55), ch.d_a, True)
    b = np.diag([1.0, -1.0])
    rows_bytes = 500 * ch.d_b * ch.d_a * 16
    tracemalloc.start()
    try:
        ens = dual_ensemble(ch, 500, master_seed=56)
        rep = estimate_observable(ens, v, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "states" not in vars(ens)
    assert peak < rows_bytes
    assert rep.estimate == float(sample_values(ens, v, b).mean())


def test_vector_variance_bound_clamps_at_zero():
    # d_a = d_b = 1: the two terms of the rank-1 numerator are equal, so
    # rounding alone decides the sign of their difference on this grid
    ch = UnitaryChannel(np.array([[np.exp(0.3j)]]), d_b=1)
    b = np.array([[1.7]])
    for x in np.linspace(0.1, 9.0, 60):
        v = np.array([x * (1 - 0.37j) + 0.1])
        bound = variance_bound(ch, v, b)
        assert 0.0 <= bound <= 1e-14 * (1.7 * abs(v[0]) ** 2) ** 2
        rep = estimate_observable(dual_ensemble(ch, 1, master_seed=34), v, b)
        assert rep.sigma_n == rep.analytic_sigma_bound == np.sqrt(bound)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_variance_is_exactly_zero_for_one_dimensional_draws(d):
    # d_env = 1: every draw is a phase and every value the same, so the
    # exact variance is 0.0, not rounding, for a unitary and a one-operator
    # Kraus channel, with a dense A and a vector
    rng = np.random.default_rng(70 + d)
    u = haar_unitary(d, rng)
    b = random_hermitian(rng, d)
    v = _random_vector(rng, d, False)
    for ch in (UnitaryChannel(u, d_b=d), KrausChannel(u[None])):
        for a in (random_hermitian(rng, d), v, np.outer(v, v.conj())):
            assert variance_bound(ch, a, b) == 0.0
            assert estimate_observable(dual_ensemble(ch, 1, master_seed=71), a, b).sigma_n == 0.0


def test_vector_observable_rejections():
    ch = random_unitary_channel(8, 2, np.random.default_rng(35))
    ens = dual_ensemble(ch, 5, master_seed=36)
    b = np.diag([1.0, -1.0])
    bad = [
        np.ones(7),  # wrong length
        np.ones(16),  # d_b * d_a is not d_a
        np.array([1.0, np.nan, 0, 0, 0, 0, 0, 0]),
        np.array([1.0, 0, 0, np.inf, 0, 0, 0, 0]),
        np.array(1.0),  # ndim 0
        np.ones((8, 8, 1)),  # ndim 3
    ]
    for a in bad:
        for fn in (lambda a: sample_values(ens, a, b), lambda a: variance_bound(ch, a, b),
                   lambda a: estimate_observable(ens, a, b)):  # fmt: skip
            with pytest.raises(ValueError):
                fn(a)


@pytest.mark.parametrize("kind", ["unitary", "kraus", "dilated", "depolarizing"])
def test_rank1_bound_matches_choi_pairing(kind):
    ch = _every_channel_kind()[kind]
    rng = np.random.default_rng(37)
    v = _random_vector(rng, ch.d_a, True)
    a = np.outer(v, v.conj())
    c = rng.normal(size=(ch.d_b, ch.d_b)) + 1j * rng.normal(size=(ch.d_b, ch.d_b))
    b = c @ c.conj().T
    want = duality_pairing(exact_dual(ch), a, b) ** 2
    assert _rel_err(rank1_variance_bound(ch, v, b), want) <= 1e-12
    assert _rel_err(rank1_variance_bound(ch, a, b), want) <= 1e-12


def test_rank1_bound_of_a_partial_trace_forms_no_identity():
    # kraus_operators of a 2^10 -> 2 partial trace is its 16 MiB identity, and a copy
    rng = np.random.default_rng(41)
    ch = PartialTrace(2**10, 2)
    v = _random_vector(rng, ch.d_a, True)
    b = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    tracemalloc.start()
    try:
        got = rank1_variance_bound(ch, v, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    kv = kraus_operators(ch) @ v
    want = float(np.einsum("km,kn,mn->", kv.conj(), kv, b).real) ** 2
    assert _rel_err(got, want) <= 1e-12


def test_rank1_bound_vector_validation():
    ch = depolarizing(0.3)
    psd = np.array([[0.7, 0.1], [0.1, 0.4]], dtype=complex)
    assert rank1_variance_bound(ch, np.array([0.6, 0.8j]), psd) >= 0.0
    for v in (np.array([1.0, 1.0]), np.array([0.0, 0.0]), np.array([1.0]), np.array([np.nan, 1.0])):
        with pytest.raises(ValueError):
            rank1_variance_bound(ch, v, psd)
    with pytest.raises(ValueError):
        rank1_variance_bound(ch, np.array([1.0, 0.0]), np.diag([1.0, -0.2]))  # not PSD


@pytest.mark.parametrize("d_a, d_b", [(8, 2), (16, 4), (32, 2)])
def test_exact_dual_state_matches_einsum_oracle(d_a, d_b):
    ch = random_unitary_channel(d_a, d_b, np.random.default_rng(d_a + d_b))
    w = ch.unitary.conj().reshape(d_b, ch.d_c, d_a).transpose(0, 2, 1) / np.sqrt(d_b)
    d = d_b * d_a
    want = (np.einsum("ric,sjc->risj", w, w.conj()) / ch.d_c).reshape(d, d)
    assert _rel_err(exact_dual(ch), want) <= 1e-12


@pytest.mark.parametrize("channel", ["unitary", "kraus"])
def test_dual_estimate_matches_einsum_oracle(channel):
    ch = random_unitary_channel(32, 4, np.random.default_rng(5)) if channel == "unitary" else depolarizing(0.4)
    ens = dual_ensemble(ch, 300, master_seed=9)
    s = ens.states
    want = np.einsum("ki,kj->ij", s, s.conj()) / ens.n_samples
    assert _rel_err(dual_estimate(ens), want) <= 1e-12


def test_rank1_bound_validation():
    ch = depolarizing(0.3)
    proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    psd = np.array([[0.7, 0.1], [0.1, 0.4]], dtype=complex)
    assert rank1_variance_bound(ch, proj, psd) >= 0.0
    with pytest.raises(ValueError):
        rank1_variance_bound(ch, np.eye(2), psd)  # trace 2, not rank 1
    with pytest.raises(ValueError):
        rank1_variance_bound(ch, proj, np.diag([1.0, -0.2]))  # not PSD


def test_rank1_bound_dominates_empirical():
    rng = np.random.default_rng(11)
    for trial in range(4):
        ch = random_unitary_channel(8, 2, rng)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        a = np.outer(v, v.conj())
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = c @ c.conj().T
        mu1sq = rank1_variance_bound(ch, a, b)
        ens = dual_ensemble(ch, 4000, master_seed=500 + trial)
        vals = sample_values(ens, a, b)
        assert float(np.var(vals, ddof=1)) <= mu1sq * (1 + 1e-9)
        assert abs(float(np.mean(vals)) - exact_value(ch, a, b)) <= 3 * np.sqrt(
            mu1sq / len(vals)
        )


def test_mean_distance_law():
    # mean of hs_distance^2 over repeated ensembles follows (1/N)(1 - 1/d_c)
    ch = random_unitary_channel(32, 2, np.random.default_rng(12))  # d_c = 16
    exact = exact_dual(ch)
    n = 50
    vals = [
        hs_distance(dual_estimate(dual_ensemble(ch, n, master_seed=600 + t)), exact) ** 2
        for t in range(30)
    ]
    want = (1 - 1 / ch.d_c) / n
    assert abs(np.mean(vals) - want) < 0.2 * want


def test_distance_scaling_slope():
    ch = random_unitary_channel(8, 2, np.random.default_rng(13))
    exact = exact_dual(ch)
    ns = np.array([10, 50, 100, 500])
    means = []
    for n in ns:
        ds = [
            hs_distance(dual_estimate(dual_ensemble(ch, int(n), master_seed=700 + 10 * t + int(n))), exact)
            for t in range(6)
        ]
        means.append(np.mean(ds))
    slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
    assert abs(slope + 0.5) < 0.1
    assert np.all(np.array(means) < 1 / np.sqrt(ns))


def test_distance_report_contents():
    ch = random_unitary_channel(8, 2, np.random.default_rng(14))
    ens = dual_ensemble(ch, 100, master_seed=16)
    rep = distance_report(ens)
    assert rep.n_samples == 100
    assert np.isclose(rep.bound, 0.1, atol=1e-15)
    # trace distance carries the conventional 1/2: hs <= |..|_1 = 2 T
    assert rep.hs_distance <= 2 * rep.trace_distance + 1e-12


def test_estimator_rank_is_at_most_n():
    ch = random_unitary_channel(8, 2, np.random.default_rng(15))
    est = dual_estimate(dual_ensemble(ch, 3, master_seed=17))
    w = np.linalg.eigvalsh(est)
    assert np.sum(w > 1e-12) <= 3
    assert np.isclose(np.trace(est).real, 1.0, atol=1e-12)


def test_general_ensemble_trivial_dilation_matches_unitary_path():
    ch = random_unitary_channel(8, 2, np.random.default_rng(16))
    direct = dual_ensemble(ch, 5, master_seed=21)
    via_dilation = dual_ensemble(complete_dilation(ch), 5, master_seed=21)
    assert np.array_equal(direct.states, via_dilation.states)
    assert direct.kind == KIND_UNITARY
    assert via_dilation.kind == KIND_UNITARY


def test_general_ensemble_converges_to_exact_dual():
    ch = depolarizing(0.6)
    n = 4000
    ens = dual_ensemble(ch, n, master_seed=22)
    est = dual_estimate(ens)
    # postselected rows are normalized in expectation only
    sqnorms = np.sum(np.abs(ens.states) ** 2, axis=1)
    assert abs(np.mean(sqnorms) - 1.0) < 5 / np.sqrt(n)
    assert abs(np.trace(est).real - 1.0) < 5 / np.sqrt(n)
    assert hs_distance(est, exact_dual(ch)) < 1 / np.sqrt(n)
    rep = estimate_observable(ens, np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    want = exact_value(ch, np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    assert abs(rep.estimate - want) <= 3 * rep.sigma_n
    assert np.isfinite(rep.analytic_sigma_bound)
    assert rep.analytic_sigma_bound == np.sqrt(variance_bound(ch, np.diag([1.0, -1.0]), np.diag([1.0, -1.0])))


def test_ensemble_construction_checks():
    ch = random_unitary_channel(4, 2, np.random.default_rng(17))
    with pytest.raises(ValueError):
        dual_ensemble(ch, 0, master_seed=1)
    assert dual_ensemble(depolarizing(0.1), 3, master_seed=1).kind == KIND_POSTSELECTED
    draws = dual_ensemble(ch, 2, master_seed=1).draws
    assert draws.shape == (2, ch.d_c)
    # a row-wide stack, one draw as a 1-D array, an empty stack
    for bad in (np.ones((2, ch.d_b * ch.d_a)), draws[0], draws[:0]):
        with pytest.raises(ValueError):
            DualStateEnsemble(bad, 1, ch)


@pytest.mark.parametrize("kind", ["unitary", "dilated", "kraus"])
def test_ensemble_prefix_property_every_channel_kind(kind):
    unitary = random_unitary_channel(8, 2, np.random.default_rng(18))
    ch = {
        "unitary": unitary,
        "dilated": UnitaryChannel(unitary.unitary, d_a=4, d_b=2),
        "kraus": amplitude_damping(0.3),
    }[kind]
    short = dual_ensemble(ch, 7, master_seed=23)
    long = dual_ensemble(ch, 7 + 5, master_seed=23)
    assert np.array_equal(short.states, long.states[:7])
    want = KIND_UNITARY if kind == "unitary" else KIND_POSTSELECTED
    assert short.kind == long.kind == want


@pytest.mark.parametrize("kind", ["unitary", "kraus"])
def test_ensemble_rows_across_a_key_block_match_seedsequence_draws(kind):
    # rows on both sides of the first 4096-index key block are the single
    # draws at their (master_seed, k) address, keyed by numpy's SeedSequence;
    # both isometries are square (16 -> 4 with r = 4), so V read as a d_a x d_a
    # unitary is the full dilation
    rng = np.random.default_rng(48)
    ch = random_unitary_channel(8, 2, rng) if kind == "unitary" else random_kraus_channel(rng, 16, 4, 4)
    ens = dual_ensemble(ch, 4097, master_seed=49)
    v = stinespring_dilate(ch)
    for k in (0, 4095, 4096):
        psi = haar_state(v.shape[1], seedsequence_rng(49, k))
        want = full_dilation_rows_oracle(v.reshape(ch.d_a, ch.d_a), ch.d_b, 1, psi[np.newaxis])
        assert np.array_equal(ens.states[k], want[0])


@pytest.mark.parametrize("kind", ["unitary", "dilated", "kraus"])
def test_ensemble_rows_match_tensordot_oracle(kind):
    unitary = random_unitary_channel(16, 2, np.random.default_rng(25))
    ch = {
        "unitary": unitary,
        "dilated": UnitaryChannel(unitary.unitary, d_a=4, d_b=2),
        "kraus": depolarizing(0.3),
    }[kind]
    n = 9
    ens = dual_ensemble(ch, n, master_seed=26)
    dil = complete_dilation(ch)  # depolarizing: r = 4 fills the completion's environment, d_c = 4
    nu = dil.ancilla_dim
    assert (nu > 1) == (kind != "unitary")
    psis = np.array([haar_state(dil.d_c, SeedSpec(26, k).rng()) for k in range(n)])
    want = batch_states_oracle(dil.unitary, ch.d_b, psis).reshape(n, ch.d_b, ch.d_a, nu)[..., 0]
    want = (want * np.sqrt(nu) if nu > 1 else want).reshape(n, ch.d_b * ch.d_a)
    assert _rel_err(ens.states, want) <= 1e-14


def test_distance_table_cells_and_checks():
    ch = amplitude_damping(0.3)
    rows = distance_table(ch, [4, 9], trials=2, seed=24)
    assert [(r["N"], r["trial"]) for r in rows] == [(4, 0), (4, 1), (9, 0), (9, 1)]
    for i, n in enumerate([4, 9]):
        for trial in range(2):
            rep = distance_report(dual_ensemble(ch, n, child_seed(24, i, trial)))
            row = rows[2 * i + trial]
            assert row["hs_distance"] == rep.hs_distance
            assert row["trace_distance"] == rep.trace_distance
            assert row["bound"] == rep.bound
    for n_values, trials in (([4], 0), ([], 1), ([0], 1)):
        with pytest.raises(ValueError):
            distance_table(ch, n_values, trials, seed=24)
    # sizes are read as integers, never truncated: floats raise, numpy integers pass
    for n_values in ([10.7], [np.float64(3.9)], [4.0]):
        with pytest.raises(TypeError):
            distance_table(ch, n_values, 1, seed=24)
    assert distance_table(ch, [np.int64(4), np.int32(9)], 2, seed=24) == rows


@pytest.mark.parametrize("n_values, dense_cells", [([5, 20], 0), ([5, 40, 60], 4)])
def test_distance_table_forms_exact_dual_once(monkeypatch, n_values, dense_cells):
    # unitary 16 -> 2: d = 32, r = 8, so N = 5 and 20 take the QR branch
    ch = random_unitary_channel(16, 2, np.random.default_rng(38))
    formed = []
    real = dual._distance_report

    def spy(ens, w, exact):
        def counted():
            formed.append(exact())
            return formed[-1]

        return real(ens, w, counted)

    monkeypatch.setattr(dual, "_distance_report", spy)
    rows = distance_table(ch, n_values, trials=2, seed=39)
    assert len(formed) == dense_cells
    assert all(m is formed[0] for m in formed)
    monkeypatch.undo()
    for row in rows:
        i = n_values.index(row["N"])
        rep = distance_report(dual_ensemble(ch, row["N"], child_seed(39, i, row["trial"])))
        assert (row["hs_distance"], row["trace_distance"]) == (rep.hs_distance, rep.trace_distance)


def _every_channel_kind():
    """One channel of each kind; r is the column count of its exact-dual factor."""
    rng = np.random.default_rng(40)
    return {
        "unitary": random_unitary_channel(16, 2, rng),  # r = d_c = 8 < d = 32
        "kraus": random_kraus_channel(rng, 8, 4, 3),  # r = 3 < d = 32
        "dilated": UnitaryChannel(haar_unitary(32, rng), d_a=16, d_b=4),  # r = env = 8 < d = 64
        "depolarizing": depolarizing(0.4),  # r = d = 4: always the dense branch
    }


@pytest.mark.parametrize("kind", ["unitary", "kraus", "dilated", "depolarizing"])
def test_exact_dual_factor_reproduces_exact_dual(kind):
    ch = _every_channel_kind()[kind]
    w = exact_dual_factor(ch)
    assert w.shape[0] == ch.d_b * ch.d_a
    assert np.array_equal(exact_dual(ch), w @ w.conj().T)
    assert np.abs(exact_dual(ch) - dual_from_choi(choi_matrix(ch))).max() <= 1e-14


@pytest.mark.parametrize("kind", ["unitary", "kraus", "dilated", "depolarizing", "unitary 64->4"])
def test_apply_channel_matches_kind_oracle(kind):
    # 64 -> 4 unitary-induced: r = 16 operators, where a three-operand
    # einsum loop took about 5 ms per call
    channels = {**_every_channel_kind(), "unitary 64->4": random_unitary_channel(64, 4, np.random.default_rng(50))}
    ch = channels[kind]
    rng = np.random.default_rng(48)
    for rho in (random_hermitian(rng, ch.d_a), np.eye(ch.d_a)):
        assert np.abs(apply_channel(ch, rho) - apply_channel_oracle(ch, rho)).max() <= 1e-13


@pytest.mark.parametrize("kind", ["unitary", "kraus", "dilated", "depolarizing"])
def test_ensemble_metadata_is_read_off_the_channel(kind):
    ch = _every_channel_kind()[kind]
    drawn = dual_ensemble(ch, 3, master_seed=49)
    ens = DualStateEnsemble(drawn.draws, 49, ch)
    assert (ens.d_a, ens.d_b) == (ch.d_a, ch.d_b)
    assert ens.kind == (KIND_UNITARY if kind == "unitary" else KIND_POSTSELECTED)
    d_env = stinespring_dilate(ch).shape[1]
    assert ens.draws.shape == (3, d_env)
    assert np.array_equal(ens.states, drawn.states)
    for width in (d_env - 1, d_env + 1, ch.d_a, ch.d_b):
        assert width != d_env
        with pytest.raises(ValueError):
            DualStateEnsemble(np.ones((3, width)), 49, ch)


def test_exact_dual_state_bits_unchanged():
    ch = random_unitary_channel(32, 4, np.random.default_rng(42))
    d_b, d_c, d_a = ch.d_b, ch.d_c, ch.d_a
    w = ch.unitary.conj().reshape(d_b, d_c, d_a).transpose(0, 2, 1) / np.sqrt(d_b * d_c)
    w = w.reshape(d_b * d_a, d_c)
    assert np.array_equal(exact_dual(ch), w @ w.conj().T)


@pytest.mark.parametrize("kind", ["unitary", "kraus", "dilated", "depolarizing"])
def test_distance_report_matches_dense_distances(kind):
    ch = _every_channel_kind()[kind]
    exact = dual_from_choi(choi_matrix(ch))
    d, r = exact.shape[0], exact_dual_factor(ch).shape[1]
    # N + r on both sides of d picks the QR and the dense branch in turn
    for n in sorted({1, *(m - r for m in (d - 1, d, d + 1) if m > r)}):
        ens = dual_ensemble(ch, n, master_seed=43 + n)
        rep = distance_report(ens)
        est = dual_estimate(ens)
        hs, td = hs_distance(est, exact), trace_distance(est, exact)
        assert abs(rep.hs_distance - hs) <= 1e-12 * hs
        assert abs(rep.trace_distance - td) <= 1e-12 * td
        assert rep.bound == 1.0 / np.sqrt(n) and rep.n_samples == n


def test_distance_report_vanishes_for_rank_one_dual():
    # d_c = 1: every sample is the exact dual's one vector up to a phase
    ch = random_unitary_channel(4, 4, np.random.default_rng(44))
    d = ch.d_b * ch.d_a
    for n in (1, 5, d - 1, d, 40):
        rep = distance_report(dual_ensemble(ch, n, master_seed=45))
        assert rep.hs_distance <= 1e-14
        assert rep.trace_distance <= 1e-14


@pytest.mark.parametrize(
    "kind", ["kraus 16->4 r=4", "kraus 32->8 r=4", "kraus 64->4 r=16", "dilated 64 d_a=16 d_b=2"]
)
@pytest.mark.parametrize("n", [1, 9, 200])
def test_postselected_rows_bits_match_full_dilation_product(kind, n):
    rng = np.random.default_rng(46)
    ch = {
        "kraus 16->4 r=4": lambda: random_kraus_channel(rng, 16, 4, 4),
        "kraus 32->8 r=4": lambda: random_kraus_channel(rng, 32, 8, 4),
        "kraus 64->4 r=16": lambda: random_kraus_channel(rng, 64, 4, 16),
        "dilated 64 d_a=16 d_b=2": lambda: UnitaryChannel(haar_unitary(64, rng), d_a=16, d_b=2),
    }[kind]()
    # each Kraus stack is square, r d_b = d_a: its minimal isometry, read as a
    # d_a x d_a unitary with no ancilla, is its full dilation
    if isinstance(ch, KrausChannel):
        u, nu, d_env = stinespring_dilate(ch).reshape(ch.d_a, ch.d_a), 1, ch.operators.shape[0]
    else:
        u, nu, d_env = ch.unitary, ch.ancilla_dim, ch.d_c
        assert nu > 1
    psis = np.array([haar_state(d_env, SeedSpec(47, k).rng()) for k in range(n)])
    want = full_dilation_rows_oracle(u, ch.d_b, nu, psis)
    assert np.array_equal(dual_ensemble(ch, n, master_seed=47).states, want)


@pytest.mark.parametrize("kind", ["unitary 64/4", "kraus 12->3 r=5", "dilated 32 d_a=8 d_b=4"])
def test_rows_are_the_exact_dual_factor_applied_to_the_draws(kind):
    # row k = sqrt(d_env) W draws[k, :r] for W = exact_dual_factor(ch); a
    # Kraus draw is as long as W (d_env = r = 5): no padding entry is drawn
    rng = np.random.default_rng(51)
    ch, r, d_env = {
        "unitary 64/4": lambda: (random_unitary_channel(64, 4, rng), 16, 16),
        "kraus 12->3 r=5": lambda: (random_kraus_channel(rng, 12, 3, 5), 5, 5),
        "dilated 32 d_a=8 d_b=4": lambda: (UnitaryChannel(haar_unitary(32, rng), d_a=8, d_b=4), 8, 8),
    }[kind]()
    ens = dual_ensemble(ch, 30, master_seed=52)
    w = exact_dual_factor(ch)
    assert w.shape[1] == r and ens.draws.shape[1] == d_env
    assert _rel_err(ens.states, np.sqrt(d_env) * ens.draws[:, :r] @ w.T) <= 1e-12


@pytest.mark.parametrize("kind", ["unitary 16/2", "dilated 32 d_a=16 d_b=4", "kraus 32->8 r=4", "kraus 8->4 r=3"])
def test_mean_squared_hs_distance_is_the_haar_prediction(kind):
    # with psi Haar in m = d_env dimensions, N E[HS^2] = m (1 + p) / (m + 1) - p
    # for p = tr rho_X^2: a square isometry (unitary-induced, or a Kraus stack
    # with r d_b = d_a) gives 1 - p; 32 -> 8 with r = 4 predicts 0.75, where
    # draws padded to the 16 slots of a completed unitary predicted 0.926
    rng = np.random.default_rng(80)
    ch = {
        "unitary 16/2": lambda: random_unitary_channel(16, 2, rng),
        "dilated 32 d_a=16 d_b=4": lambda: UnitaryChannel(haar_unitary(32, rng), d_a=16, d_b=4),
        "kraus 32->8 r=4": lambda: random_kraus_channel(rng, 32, 8, 4),
        "kraus 8->4 r=3": lambda: random_kraus_channel(rng, 8, 4, 3),
    }[kind]()
    m = dilation_dim(ch) // ch.d_b
    p = np.vdot(exact_dual(ch), exact_dual(ch)).real
    predicted = m * (1 + p) / (m + 1) - p
    if kind == "kraus 32->8 r=4":
        assert m == 4 and abs(predicted - 0.75) <= 1e-12
    n, trials = 16, 400
    scaled = np.array([n * row["hs_distance"] ** 2 for row in distance_table(ch, [n], trials, seed=81)])
    assert abs(scaled.mean() - predicted) <= 4 * scaled.std(ddof=1) / np.sqrt(trials)
