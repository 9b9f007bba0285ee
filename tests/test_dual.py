"""Random dual states, exact duals, estimators, variance bounds."""
import numpy as np
import pytest

from randual.channels import (
    DilatedChannel,
    KrausChannel,
    UnitaryChannel,
    apply_channel,
    choi_matrix,
    stinespring_dilate,
)
from randual.dual import (
    KIND_POSTSELECTED,
    KIND_UNITARY,
    DualStateEnsemble,
    distance_report,
    distance_table,
    dual_ensemble,
    dual_estimate,
    dual_from_choi,
    duality_pairing,
    estimate_observable,
    exact_dual,
    exact_dual_state,
    rank1_variance_bound,
    sample_dual_state,
    sample_values,
    variance_bound,
)
from randual.linalg import hs_distance, kron, max_entangled_state, partial_trace
from randual.rng import SeedSpec, child_seed

from helpers import (
    amplitude_damping,
    depolarizing,
    random_hermitian,
    random_unitary_channel,
)


def exact_value(ch, a, b):
    return np.trace(apply_channel(ch, a) @ b).real


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
        rho = exact_dual_state(ch)
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
    rho = exact_dual_state(ch)
    val = duality_pairing(rho, np.eye(6), np.eye(2))
    assert np.isclose(val, 6.0, atol=1e-10)


def test_duality_pairing_input_checks():
    ch = random_unitary_channel(4, 2, np.random.default_rng(4))
    rho = exact_dual_state(ch)
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


def test_variance_bound_dominates_empirical():
    for trial in range(6):
        rng = np.random.default_rng(300 + trial)
        ch = random_unitary_channel(8, 2, rng)
        a = random_hermitian(rng, 8)
        b = random_hermitian(rng, 2)
        ens = dual_ensemble(ch, 4000, master_seed=400 + trial)
        emp = float(np.var(sample_values(ens, a, b), ddof=1))
        assert emp <= variance_bound(ch, a, b) * (1 + 1e-9)


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
    exact = exact_dual_state(ch)
    n = 50
    vals = [
        hs_distance(dual_estimate(dual_ensemble(ch, n, master_seed=600 + t)), exact) ** 2
        for t in range(30)
    ]
    want = (1 - 1 / ch.d_c) / n
    assert abs(np.mean(vals) - want) < 0.2 * want


def test_distance_scaling_slope():
    ch = random_unitary_channel(8, 2, np.random.default_rng(13))
    exact = exact_dual_state(ch)
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
    explicit = distance_report(ens, exact_dual_state(ch))
    assert rep.hs_distance == explicit.hs_distance
    assert rep.trace_distance == explicit.trace_distance
    # trace distance carries the conventional 1/2: hs <= |..|_1 = 2 T
    assert rep.hs_distance <= 2 * rep.trace_distance + 1e-12
    with pytest.raises(ValueError):
        distance_report(ens, np.eye(3))


def test_estimator_rank_is_at_most_n():
    ch = random_unitary_channel(8, 2, np.random.default_rng(15))
    est = dual_estimate(dual_ensemble(ch, 3, master_seed=17))
    w = np.linalg.eigvalsh(est)
    assert np.sum(w > 1e-12) <= 3
    assert np.isclose(np.trace(est).real, 1.0, atol=1e-12)


def test_general_ensemble_trivial_dilation_matches_unitary_path():
    ch = random_unitary_channel(8, 2, np.random.default_rng(16))
    direct = dual_ensemble(ch, 5, master_seed=21)
    via_dilation = dual_ensemble(stinespring_dilate(ch), 5, master_seed=21)
    assert np.array_equal(direct.states, via_dilation.states)
    assert direct.kind == KIND_UNITARY
    assert via_dilation.kind == KIND_POSTSELECTED


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
    assert rep.analytic_sigma_bound is None


def test_ensemble_construction_checks():
    ch = random_unitary_channel(4, 2, np.random.default_rng(17))
    with pytest.raises(ValueError):
        dual_ensemble(ch, 0, master_seed=1)
    assert dual_ensemble(depolarizing(0.1), 3, master_seed=1).kind == KIND_POSTSELECTED
    states = dual_ensemble(ch, 2, master_seed=1).states
    with pytest.raises(ValueError):
        DualStateEnsemble(states, 1, ch, "mystery_kind", 4, 2)
    with pytest.raises(ValueError):
        DualStateEnsemble(states[:, :4], 1, ch, "unitary_induced", 4, 2)


@pytest.mark.parametrize("kind", [UnitaryChannel, DilatedChannel, KrausChannel])
def test_ensemble_prefix_property_every_channel_kind(kind):
    unitary = random_unitary_channel(8, 2, np.random.default_rng(18))
    ch = {
        UnitaryChannel: unitary,
        DilatedChannel: DilatedChannel(unitary.unitary, d_a=4, d_b=2),
        KrausChannel: amplitude_damping(0.3),
    }[kind]
    short = dual_ensemble(ch, 7, master_seed=23)
    long = dual_ensemble(ch, 7 + 5, master_seed=23)
    assert np.array_equal(short.states, long.states[:7])
    want = KIND_UNITARY if kind is UnitaryChannel else KIND_POSTSELECTED
    assert short.kind == long.kind == want


def test_distance_table_cells_and_checks():
    ch = amplitude_damping(0.3)
    rows = distance_table(ch, [4, 9], trials=2, seed=24)
    assert [(r["N"], r["trial"]) for r in rows] == [(4, 0), (4, 1), (9, 0), (9, 1)]
    exact = exact_dual(ch)
    for i, n in enumerate([4, 9]):
        for trial in range(2):
            rep = distance_report(dual_ensemble(ch, n, child_seed(24, i, trial)), exact)
            row = rows[2 * i + trial]
            assert row["hs_distance"] == rep.hs_distance
            assert row["trace_distance"] == rep.trace_distance
            assert row["bound"] == rep.bound
    for n_values, trials in (([4], 0), ([], 1), ([0], 1)):
        with pytest.raises(ValueError):
            distance_table(ch, n_values, trials, seed=24)
