"""Ising chain builder and the quench experiments."""
import warnings

import numpy as np
import pytest

from randual import spinchain
from randual.channels import UnitaryChannel, validate_channel
from randual.dual import dual_ensemble, dual_estimate, exact_dual
from randual.linalg import hermitian_eig, kron, sigma_x, sigma_y, sigma_z, unitary_evolution
from randual.spinchain import (
    distance_scaling_experiment,
    ising_hamiltonian,
    polarized_state,
    thermalization_experiment,
)

from helpers import hs_distance, partial_trace, thermalization_dense_oracle

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


def quench(**kwargs):
    """thermalization_experiment at a small default size, overridden by kwargs."""
    run = {"n": 3, "polarization": "z", "times": [0.0], "n_samples": 10, "seed": 0}
    return thermalization_experiment(**{**run, **kwargs})


def refuse_eigensolve(*args, **kwargs):
    raise AssertionError("eigensolve ran before the argument checks")


def test_config_validation(monkeypatch):
    monkeypatch.setattr(spinchain, "hermitian_eig", refuse_eigensolve)
    with pytest.raises(ValueError, match="at least 2 spins"):
        quench(n=1)
    with pytest.raises(ValueError, match="must not vanish"):
        quench(n=4, g=0.0, h=0.0)
    monkeypatch.undo()
    assert quench(n=4) == quench(n=4, g=1.05, h=0.5)


def test_run_validation(monkeypatch):
    monkeypatch.setattr(spinchain, "hermitian_eig", refuse_eigensolve)
    for kwargs, message in [
        ({"polarization": "x"}, "polarization must be"),
        ({"observable": "q"}, "observable must be"),
        ({"times": [0.0, 0.5, 0.5]}, "strictly increasing"),
        ({"times": [-1.0, 0.5]}, "nonnegative"),
        ({"times": []}, "nonempty"),
        ({"times": [0.0, np.nan]}, "finite"),
        ({"times": [0.0, np.inf]}, "finite"),
        ({"n_samples": 0}, "n_samples must be at least 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            quench(**kwargs)
    monkeypatch.undo()
    # the observable defaults to the polarization axis: <y+|sigma_y|y+> = 1, <y+|sigma_z|y+> = 0
    assert np.isclose(quench(polarization="y")[0]["exact"], 1.0, atol=1e-12)
    assert np.isclose(quench(polarization="y", observable="z")[0]["exact"], 0.0, atol=1e-12)


def test_thermalization_rows():
    rows = thermalization_experiment(
        n=4, polarization="z", times=np.array([0.0, 0.5, 1.0]), n_samples=80, seed=3
    )
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
    rows = thermalization_experiment(
        n=3, polarization="y", times=np.array([0.0, 0.4]), n_samples=60, seed=4
    )
    assert np.isclose(rows[0]["exact"], 1.0, atol=1e-12)
    assert abs(rows[0]["estimate"] - 1.0) <= rows[0]["bound"] + 1e-12


@pytest.mark.parametrize(
    "n, pol, extra",
    [pytest.param(n, pol, {}, id=f"{n}-{pol}") for n in (3, 4, 5, 6, 8, 9, 10) for pol in ("z", "y")]
    + [
        pytest.param(7, "y", {"g": 0.6, "h": -1.3}, id="7-y-g0.6-h-1.3"),
        pytest.param(6, "y", {"observable": "z"}, id="6-y-obs-z"),
    ],
)
def test_thermalization_vector_observable_matches_dense_reference(n, pol, extra):
    # the experiment evolves psi_0 on the mirror-even sector and samples the
    # partial trace with psi_t; the reference diagonalizes the dense H, forms
    # U(t), samples its channel and the dense |psi_0><psi_0|
    times = np.array([0.0, 0.75, 2.5])
    _matches_oracle({"n": n, "polarization": pol, "times": times, "n_samples": 50, "seed": 21, **extra})


def _matches_oracle(run):
    rows = thermalization_experiment(**run)
    want = thermalization_dense_oracle(**run)
    assert [r["time"] for r in rows] == [r["time"] for r in want]
    for row, ref in zip(rows, want):
        for key in ("exact", "estimate", "sigma_n"):
            assert abs(row[key] - ref[key]) <= 1e-12, (row["time"], key)


def sector_dim(n):
    return (2**n + 2 ** ((n + 1) // 2)) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_mirror_even_block_is_the_dense_hamiltonian_on_its_sector(n):
    # R maps basis index x to the index with its n bits reversed (site j <-> n+1-j)
    mirror = np.zeros((2**n, 2**n))
    for x in range(2**n):
        mirror[int(format(x, f"0{n}b")[::-1], 2), x] = 1.0
    for g, h in np.random.default_rng(n).uniform(-2.0, 2.0, size=(2, 2)):
        ham = ising_bruteforce(n, g, h).real
        diag, flips, weights, j_of, scale = spinchain._ising_block(n, g, h, mirror=True)
        assert diag.size == spinchain.sector_dim(n) == sector_dim(n)
        block = sector_block(diag, flips, weights)
        # the dense isometry B: column j_of[x] holds scale[x] at row x
        b = np.zeros((2**n, sector_dim(n)))
        b[np.arange(2**n), j_of] = scale
        assert np.allclose(b.T @ b, np.eye(sector_dim(n)), atol=1e-15, rtol=0)
        assert np.array_equal(mirror @ b, b)
        assert np.abs(block - b.T @ ham @ b).max() <= 1e-13
        for pol in ("z", "y"):
            psi = polarized_state(n, pol)
            assert np.allclose(b @ (b.T @ psi), psi, atol=1e-14, rtol=0)
        # without the mirror every index is its own column, P = I and the block is H
        diag, flips, weights, j_of, scale = spinchain._ising_block(n, g, h, mirror=False)
        assert np.array_equal(j_of, np.arange(2**n))
        assert np.array_equal(scale, np.ones(2**n))
        assert np.abs(sector_block(diag, flips, weights) - ham).max() <= 1e-13


def sector_block(diag, flips, weights):
    """The block as the matrix-free product reads it: row j holds diag[j]
    and weights[k, j] at column flips[k, j]."""
    block = np.diag(diag)
    for f, w in zip(flips, weights):
        np.add.at(block, (np.arange(diag.size), f), w)
    return block


@pytest.fixture
def eig_sizes(monkeypatch):
    """The side of each matrix the quench passes to hermitian_eig."""
    seen = []

    def spy(m):
        seen.append(m.shape[0])
        return hermitian_eig(m)

    monkeypatch.setattr(spinchain, "hermitian_eig", spy)
    return seen


@pytest.mark.parametrize("n", [4, 5, 10])
def test_quench_solves_one_mirror_sector_block(eig_sizes, n):
    # the one eigensolve is of the mirror-even block projected on the Krylov
    # space of psi_0: a t = 0 grid needs no growth past the first
    # min(KRYLOV_START, m) Lanczos steps
    quench(n=n)
    assert eig_sizes == [min(spinchain.KRYLOV_START, sector_dim(n))]


@pytest.mark.parametrize(
    "n, pol, times, steps",
    [
        # m = 3 and 6 lie below KRYLOV_START: the run ends on beta ~ 0 at k = m
        pytest.param(2, "z", [0.0, 1.0, 7.5], [3], id="2-z"),
        pytest.param(3, "y", [0.0, 1.0, 7.5], [6], id="3-y"),
        # t up to 200 with m = 36: k reaches its cap m, where the basis spans the sector
        pytest.param(6, "z", [0.0, 50.0, 100.0, 150.0, 200.0], [36], id="6-z-t200"),
        # m = 136: the estimate at t = 40 grows k by KRYLOV_STEP up to m
        pytest.param(8, "y", [0.0, 10.0, 40.0], [64, 96, 128, 136], id="8-y-t40"),
    ],
)
def test_lanczos_rows_match_dense_oracle(eig_sizes, n, pol, times, steps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a division by beta = 0 would warn
        _matches_oracle({"n": n, "polarization": pol, "times": np.array(times), "n_samples": 30, "seed": 8})
    assert eig_sizes == steps


def test_lanczos_breaks_down_on_an_eigenstate(eig_sizes):
    # g = 0: H is diagonal and |0...0> an eigenstate, so beta_1 = 0 and k = 1
    run = {"n": 5, "polarization": "z", "times": np.array([0.0, 3.0]), "n_samples": 20, "seed": 2, "g": 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _matches_oracle(run)
    assert eig_sizes == [1]
    assert [r["exact"] for r in thermalization_experiment(**run)] == [1.0, 1.0]


@pytest.mark.parametrize("pol", ["z", "y"])
def test_lanczos_restarts_past_its_cap(eig_sizes, monkeypatch, pol):
    # a 24-step cap on m = 136: the grid is reached in restarts, from grid
    # points and from halved steps, each within the bound
    monkeypatch.setattr(spinchain, "KRYLOV_MAX", 24)
    times = np.array([0.0, 0.5, 1.0, 5.0, 6.0, 20.0])
    _matches_oracle({"n": 8, "polarization": pol, "times": times, "n_samples": 30, "seed": 8})
    assert len(eig_sizes) > 5 and set(eig_sizes) == {24}


def test_thermalization_determinism():
    run = {"n": 3, "polarization": "z", "times": np.array([0.3, 0.9]), "n_samples": 40, "seed": 5}
    assert thermalization_experiment(**run) == thermalization_experiment(**run)


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


def test_distance_scaling_validation(monkeypatch):
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 4, 0, 1.0, [10], 1, 0)
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 5, 1, 1.0, [10], 1, 0)
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, -1, 1, 1.0, [10], 1, 0)
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 4, 1, 1.0, [10], 0, 0)
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 4, 1, 1.0, [], 1, 0)
    with pytest.raises(ValueError):
        distance_scaling_experiment(4, 4, 1, 1.0, [0], 1, 0)
    monkeypatch.setattr(spinchain, "unitary_evolution", refuse_eigensolve)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            distance_scaling_experiment(4, 4, 1, t, [10], 1, 0)


def test_chain_entry_points_refuse_sites_past_the_bound():
    # 2^63 basis indices overflow int64, where np.arange(2**63) is an empty float range
    n = spinchain.MAX_SITES + 1
    for run in (
        lambda: ising_hamiltonian(n, 1.05, 0.5),
        lambda: quench(n=n),
        lambda: distance_scaling_experiment(n, n, 1, 1.0, [10], 1, 0),
    ):
        with pytest.raises(ValueError, match=f"at most {spinchain.MAX_SITES}, got {n}"):
            run()


def _reduced_state(n, n_b, t):
    """rho_S(t) of the first n_b spins of the z-polarized chain."""
    psi = unitary_evolution(ising_hamiltonian(n, 1.05, 0.5), t) @ polarized_state(n, "z")
    return partial_trace(np.outer(psi, psi.conj()), (2**n_b, 2 ** (n - n_b)), [0])


def test_compression_channel_dual_is_the_reduced_state_transposed():
    # n_a = 0: the chain channel has a one-dimensional input and prepares
    # rho_S(t); its exact dual is rho_S(t)^T
    u = unitary_evolution(ising_hamiltonian(6, 1.05, 0.5), 1.0)
    ch = UnitaryChannel(u, d_a=1, d_b=4)
    assert validate_channel(ch).is_valid
    assert np.allclose(exact_dual(ch), _reduced_state(6, 2, 1.0).T, atol=1e-13, rtol=0)


def test_compression_distance_matches_its_prediction():
    # N E[HS^2] = m (1 + p) / (m + 1) - p for Haar draws on the m = 2^(n - n_b)
    # dimensional environment, p = tr rho_S^2: the trial mean of N HS^2 over
    # 300 trials must land within 3 of its standard errors
    n, n_b, n_samples, trials = 6, 2, 16, 300
    rows = distance_scaling_experiment(
        n=n, n_a=0, n_b=n_b, t=1.0, n_values=[n_samples], trials=trials, seed=0
    )
    assert len(rows) == trials
    x = n_samples * np.array([r["hs_distance"] for r in rows]) ** 2
    rho = _reduced_state(n, n_b, 1.0)
    p, m = np.trace(rho @ rho).real, 2 ** (n - n_b)
    want = m * (1 + p) / (m + 1) - p
    assert abs(x.mean() - want) <= 3 * x.std(ddof=1) / np.sqrt(trials)


def test_mean_squared_distance_chain_channel():
    # whole-chain evolution viewed as a channel onto the first spin:
    # n = 6 sites, one output spin, so the conserved dimension is d_c = 32
    # and the mean squared distance should land on (1/N)(1 - 1/32).
    ham = ising_hamiltonian(6, 1.05, 0.5)
    u = unitary_evolution(ham, 1.0)
    ch = UnitaryChannel(u, d_b=2)
    exact = exact_dual(ch)
    n = 50
    vals = []
    for t in range(20):
        est = dual_estimate(dual_ensemble(ch, n, master_seed=500 + t))
        vals.append(hs_distance(est, exact) ** 2)
    want = (1.0 - 1.0 / 32.0) / n
    assert abs(np.mean(vals) - want) < 0.2 * want
