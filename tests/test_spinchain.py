"""Ising chain builder, quench experiments, and their resource caps."""
import numpy as np
import pytest

from randual.channels import UnitaryChannel
from randual.dual import dual_ensemble, dual_estimate, exact_dual_state
from randual.linalg import hs_distance, kron, sigma_x, sigma_y, sigma_z, unitary_evolution
from randual.spinchain import (
    IsingConfig,
    ResourceCapError,
    ThermalizationRun,
    default_time_grid,
    distance_scaling_experiment,
    ising_hamiltonian,
    polarized_state,
    thermalization_experiment,
)

THERMALIZE_KEYS = {"time", "exact", "estimate", "sigma_n", "bound"}
DISTANCE_KEYS = {"N", "trial", "hs_distance", "trace_distance", "bound"}


def ising_bruteforce(n, g, h):
    # literal kron chain, site 1 slowest
    def site_op(op, j):
        factors = [np.eye(2, dtype=complex)] * n
        factors[j] = op
        return kron(*factors)

    ham = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(n - 1):
        ham -= site_op(sigma_z, j) @ site_op(sigma_z, j + 1)
    for j in range(n):
        ham -= g * site_op(sigma_x, j) + h * site_op(sigma_z, j)
    return ham


def test_two_site_classical_limit():
    ham = ising_hamiltonian(2, 0.0, 0.0)
    assert np.array_equal(ham, np.diag([-1.0, 1.0, 1.0, -1.0]))


def test_matches_bruteforce_kron_build():
    for n, g, h in [(2, 1.0, 0.0), (3, 1.05, 0.5), (4, 0.3, 1.7)]:
        fast = ising_hamiltonian(n, g, h)
        slow = ising_bruteforce(n, g, h)
        assert np.allclose(fast, slow.real, atol=1e-12)
        assert np.abs(slow.imag).max() < 1e-15
        assert fast.dtype == np.float64
        assert np.array_equal(fast, fast.T)


def test_hand_checked_diagonal_entry():
    # basis index 4 = |down up up>: the two bonds cancel, fields leave -h
    ham = ising_hamiltonian(3, 0.7, 0.5)
    assert np.isclose(ham[4, 4], -0.5, atol=1e-15)


def test_spectrum_symmetric_without_longitudinal_field():
    # sigma_y (x) sigma_z anticommutes with every term when h = 0
    w = np.linalg.eigvalsh(ising_hamiltonian(2, 1.0, 0.0))
    assert np.allclose(w, -w[::-1], atol=1e-12)


def test_evolution_unitarity_and_energy_conservation():
    ham = ising_hamiltonian(3, 1.05, 0.5)
    assert np.allclose(unitary_evolution(ham, 0.0), np.eye(8), atol=1e-12)
    psi = polarized_state(3, "y")
    e0 = (psi.conj() @ ham @ psi).real
    for t in (0.7, 2.3):
        u = unitary_evolution(ham, t)
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
        pt = u @ psi
        assert np.isclose((pt.conj() @ ham @ pt).real, e0, atol=1e-9)


def test_polarized_states():
    z = polarized_state(3, "z")
    want = np.zeros(8)
    want[0] = 1.0
    assert np.allclose(z, want, atol=1e-15)
    y = polarized_state(2, "y")
    # per site (|0> + i|1>)/sqrt(2): amplitude i^(number of down spins)/2
    assert np.allclose(y, np.array([1.0, 1.0j, 1.0j, -1.0]) / 2.0, atol=1e-15)
    # it is the +1 eigenstate of sigma_y on each site
    first = kron(sigma_y, np.eye(2))
    assert np.isclose((y.conj() @ first @ y).real, 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        polarized_state(2, "x")


def test_config_validation():
    with pytest.raises(ValueError):
        IsingConfig(1)
    with pytest.raises(ValueError):
        IsingConfig(4, g=0.0, h=0.0)
    cfg = IsingConfig(4)
    assert cfg.g == 1.05 and cfg.h == 0.5


def test_run_validation():
    cfg = IsingConfig(3)
    with pytest.raises(ValueError):
        ThermalizationRun(cfg, "x")
    with pytest.raises(ValueError):
        ThermalizationRun(cfg, "z", observable="q")
    with pytest.raises(ValueError):
        ThermalizationRun(cfg, "z", times=np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        ThermalizationRun(cfg, "z", times=np.array([-1.0, 0.5]))
    with pytest.raises(ValueError):
        ThermalizationRun(cfg, "z", n_samples=0)
    run = ThermalizationRun(cfg, "y")
    assert run.resolved_observable == "y"
    assert np.array_equal(run.times, default_time_grid())
    assert len(default_time_grid()) == 41
    named = ThermalizationRun(cfg, "y", observable="z")
    assert named.resolved_observable == "z"


def test_thermalization_rows():
    run = ThermalizationRun(
        IsingConfig(4), "z", times=np.array([0.0, 0.5, 1.0]), n_samples=80, seed=3
    )
    rows = thermalization_experiment(run)
    assert len(rows) == 3
    assert set(rows[0]) == THERMALIZE_KEYS
    # the z-polarized chain starts at <sigma_z> = 1 exactly
    assert np.isclose(rows[0]["exact"], 1.0, atol=1e-12)
    for row in rows:
        assert -1.0 - 1e-9 <= row["exact"] <= 1.0 + 1e-9
        assert row["bound"] == 3.0 * row["sigma_n"]
        assert abs(row["estimate"] - row["exact"]) <= row["bound"]
        # single-site Pauli output on a rank-1 input keeps sigma below sqrt(2)
        assert row["sigma_n"] * np.sqrt(80) <= np.sqrt(2.0) * 1.05


def test_thermalization_y_polarization_tracks_y_observable():
    run = ThermalizationRun(
        IsingConfig(3), "y", times=np.array([0.0, 0.4]), n_samples=60, seed=4
    )
    rows = thermalization_experiment(run)
    assert np.isclose(rows[0]["exact"], 1.0, atol=1e-12)
    assert abs(rows[0]["estimate"] - 1.0) <= rows[0]["bound"] + 1e-12


def test_thermalization_determinism():
    run = ThermalizationRun(
        IsingConfig(3), "z", times=np.array([0.3, 0.9]), n_samples=40, seed=5
    )
    assert thermalization_experiment(run) == thermalization_experiment(run)


def test_distance_scaling_unitary_path():
    rows = distance_scaling_experiment(
        n=4, n_a=4, n_b=1, t=1.0, n_values=[10, 40], trials=2, seed=6
    )
    assert len(rows) == 4
    assert set(rows[0]) == DISTANCE_KEYS
    for row in rows:
        assert np.isclose(row["bound"], 1.0 / np.sqrt(row["N"]), atol=1e-12)
        assert 0.0 <= row["hs_distance"] <= 2.0
    # larger ensembles come closer on average
    d10 = np.mean([r["hs_distance"] for r in rows if r["N"] == 10])
    d40 = np.mean([r["hs_distance"] for r in rows if r["N"] == 40])
    assert d40 < d10
    again = distance_scaling_experiment(
        n=4, n_a=4, n_b=1, t=1.0, n_values=[10, 40], trials=2, seed=6
    )
    assert rows == again


def test_distance_scaling_dilated_path():
    rows = distance_scaling_experiment(
        n=4, n_a=2, n_b=1, t=1.0, n_values=[200], trials=2, seed=7
    )
    assert len(rows) == 2
    for row in rows:
        # postselected sampling still converges at the same rate, just with a
        # larger constant; stay within a loose multiple of the mean bound
        assert row["hs_distance"] <= 5.0 * row["bound"]


def test_distance_scaling_validation():
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 4, 0, 1.0, [10], 1, 0)
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 5, 1, 1.0, [10], 1, 0)
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 4, 1, 1.0, [10], 0, 0)
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 4, 1, 1.0, [], 1, 0)
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 4, 1, 1.0, [0], 1, 0)


def test_site_cap_guards_memory():
    with pytest.raises(ResourceCapError):
        ising_hamiltonian(13, 1.05, 0.5)
    run = ThermalizationRun(IsingConfig(13), "z", n_samples=2)
    with pytest.raises(ResourceCapError):
        thermalization_experiment(run)
    with pytest.raises(ResourceCapError):
        distance_scaling_experiment(13, 13, 1, 1.0, [5], 1, 0)
    # an explicit opt-in lifts the cap; n stays small here to keep this cheap
    assert ising_hamiltonian(5, 1.0, 0.5, max_sites=5).shape == (32, 32)


def test_mean_squared_distance_chain_channel():
    # whole-chain evolution viewed as a channel onto the first spin:
    # n = 6 sites, one output spin, so the conserved dimension is d_c = 32
    # and the mean squared distance should land on (1/N)(1 - 1/32).
    ham = ising_hamiltonian(6, 1.05, 0.5)
    u = unitary_evolution(ham, 1.0)
    ch = UnitaryChannel(u, d_b=2)
    exact = exact_dual_state(ch)
    n = 50
    vals = []
    for t in range(20):
        est = dual_estimate(dual_ensemble(ch, n, master_seed=500 + t))
        vals.append(hs_distance(est, exact) ** 2)
    want = (1.0 - 1.0 / 32.0) / n
    assert abs(np.mean(vals) - want) < 0.2 * want
