"""End-to-end CLI runs through subprocess: exit codes, files, determinism."""
import csv
import json
import tracemalloc

import numpy as np
import pytest

from randual import cli
from randual.channels import KrausChannel, UnitaryChannel, channel_to_dict, save_channel
from randual.dual import EstimatorReport, variance_bound
from randual.rng import haar_unitary

from helpers import complete_dilation, depolarizing, random_hermitian, random_kraus_channel, run_cli, run_python

SIGMA_Z_JSON = "[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[-1.0,0.0]]]"
PROJ0_JSON = "[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]"


def mat_json(m):
    m = np.asarray(m, dtype=complex)
    return json.dumps([[[x.real, x.imag] for x in row] for row in m])


@pytest.fixture
def identity_qubit(tmp_path):
    path = tmp_path / "identity.json"
    save_channel(UnitaryChannel(np.eye(2, dtype=complex), d_b=2), str(path))
    return str(path)


@pytest.fixture
def depol_file(tmp_path):
    path = tmp_path / "depol.json"
    save_channel(depolarizing(0.3), str(path))
    return str(path)


@pytest.fixture
def scrambler(tmp_path):
    # 8 -> 2 unitary-induced channel with a nontrivial traced factor
    path = tmp_path / "scrambler.json"
    save_channel(UnitaryChannel(haar_unitary(8, 42), d_b=2), str(path))
    return str(path)


def test_inspect_valid_unitary(identity_qubit, tmp_path):
    res = run_cli(["inspect", identity_qubit], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["kind"] == "unitary_induced"
    assert report["is_valid"] is True
    assert report["tp_residual"] <= 1e-9
    assert report["kraus_rank"] == 1


def test_inspect_kraus_rank(depol_file, tmp_path):
    res = run_cli(["inspect", depol_file], cwd=tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["kind"] == "kraus"
    assert report["kraus_rank"] == 4
    assert report["unitarity_residual"] is None


@pytest.mark.parametrize("kind", ["kraus", "unitary"])
def test_inspect_report_format(kind, tmp_path, capsys):
    # both have rank r = 3 or 4, below d_a * d_b = 32 or 16
    if kind == "kraus":
        ch, r = random_kraus_channel(np.random.default_rng(3), 8, 4, 3), 3
    else:
        ch, r = UnitaryChannel(haar_unitary(8, 3), d_b=2), 4
    path = tmp_path / "channel.json"
    save_channel(ch, str(path))
    assert cli.main(["inspect", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "kind", "d_a", "d_b", "tp_residual", "choi_min_eigenvalue", "choi_trace",
        "unitarity_residual", "kraus_rank", "choi_spectrum", "is_valid",
    }  # fmt: skip
    spectrum = report["choi_spectrum"]
    d = ch.d_a * ch.d_b
    assert len(spectrum) == d and spectrum == sorted(spectrum)
    assert spectrum[: d - r] == [0.0] * (d - r) and min(spectrum[d - r :]) > 0
    assert report["choi_min_eigenvalue"] == 0.0
    assert report["kraus_rank"] == r


def test_inspect_rejects_broken_channel(tmp_path):
    bad = KrausChannel(depolarizing(0.3).operators * 1.01)
    path = tmp_path / "bad.json"
    save_channel(bad, str(path))
    res = run_cli(["inspect", str(path)], cwd=tmp_path)
    assert res.returncode == 2
    assert "validation failure" in res.stderr
    assert json.loads(res.stdout)["is_valid"] is False


def test_estimate_identity_channel_is_deterministic_value(identity_qubit, tmp_path):
    # d_c = 1: the single dual state is exact, so the estimate is tr[A B]
    res = run_cli(
        [
            "estimate",
            identity_qubit,
            "--observable-a",
            SIGMA_Z_JSON,
            "--observable-b",
            SIGMA_Z_JSON,
            "--n-samples",
            "50",
            "--output-dir",
            "out",
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    data = json.loads((tmp_path / "out" / "estimate.json").read_text())
    assert set(data) == {
        "estimate",
        "empirical_sigma",
        "analytic_sigma_bound",
        "sigma_n",
        "n_samples",
    }
    assert abs(data["estimate"] - 2.0) < 1e-9
    assert data["n_samples"] == 50
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert "estimate.json" in manifest["outputs"]


def test_estimate_covers_exact_for_random_channel(scrambler, tmp_path):
    res = run_cli(
        [
            "estimate",
            scrambler,
            "--observable-a",
            mat_json(np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])),
            "--observable-b",
            SIGMA_Z_JSON,
            "--n-samples",
            "2000",
            "--seed",
            "7",
            "--output-dir",
            "out",
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    data = json.loads((tmp_path / "out" / "estimate.json").read_text())
    # exact value via the library against the same channel file
    from randual.channels import apply_channel, load_channel

    ch = load_channel(scrambler)
    a = np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]).astype(complex)
    want = np.trace(apply_channel(ch, a) @ np.diag([1.0, -1.0])).real
    assert abs(data["estimate"] - want) <= 4 * data["sigma_n"]


def test_estimate_config_errors(identity_qubit, tmp_path):
    missing = run_cli(
        [
            "estimate",
            str(tmp_path / "nope.json"),
            "--observable-a",
            SIGMA_Z_JSON,
            "--observable-b",
            SIGMA_Z_JSON,
        ],
        cwd=tmp_path,
    )
    assert missing.returncode == 1
    assert "config error" in missing.stderr
    zero = run_cli(
        [
            "estimate",
            identity_qubit,
            "--observable-a",
            SIGMA_Z_JSON,
            "--observable-b",
            SIGMA_Z_JSON,
            "--n-samples",
            "0",
        ],
        cwd=tmp_path,
    )
    assert zero.returncode == 1
    assert "config error" in zero.stderr


@pytest.mark.parametrize("kind", ["kraus", "dilated"])
def test_overflowing_channel_is_invalid_not_a_lapack_error(kind, tmp_path, capsys):
    # entries of 1e200 overflow the Choi matrix; validation must still report
    if kind == "kraus":
        ch = KrausChannel(depolarizing(0.3).operators * 1e200)
    else:
        ch = complete_dilation(depolarizing(0.3))
        ch = UnitaryChannel(ch.unitary * 1e200, d_a=ch.d_a, d_b=ch.d_b)
    path = tmp_path / "overflow.json"
    save_channel(ch, str(path))
    assert cli.main(["inspect", str(path)]) == 2
    out, err = capsys.readouterr()
    report = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-standard JSON constant {token}"))
    assert report["is_valid"] is False
    assert err.startswith("validation failure: channel fails validation") and err.count("\n") == 1
    # the overflow is the reported result: a real stderr holds that line and no numpy warning
    assert run_cli(["inspect", str(path)], cwd=tmp_path).stderr == err
    argv = ["estimate", str(path), "--observable-a", SIGMA_Z_JSON, "--observable-b", SIGMA_Z_JSON]
    assert cli.main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
    assert "channel fails validation" in capsys.readouterr().err


def test_estimate_dimension_mismatch_is_validation_error(identity_qubit, tmp_path):
    res = run_cli(
        [
            "estimate",
            identity_qubit,
            "--observable-a",
            mat_json(np.eye(3)),
            "--observable-b",
            SIGMA_Z_JSON,
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 2


def test_otoc_command(scrambler, tmp_path):
    res = run_cli(
        [
            "otoc",
            scrambler,
            "--observable-a",
            mat_json(np.diag([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])),
            "--observable-b",
            PROJ0_JSON,
            "--pairs",
            "400",
            "--seed",
            "3",
            "--output-dir",
            "out",
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    data = json.loads((tmp_path / "out" / "otoc.json").read_text())
    assert set(data) == {"estimate", "exact", "sigma", "pairs"}
    assert data["pairs"] == 400
    assert abs(data["estimate"] - data["exact"]) <= 5 * data["sigma"]


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_single_sample_estimate_writes_null_sigma(scrambler, tmp_path):
    res = run_cli(
        [
            "estimate",
            scrambler,
            "--observable-a",
            mat_json(np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])),
            "--observable-b",
            SIGMA_Z_JSON,
            "--n-samples",
            "1",
            "--output-dir",
            "out",
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    data = _strict_json(tmp_path / "out" / "estimate.json")
    assert data["empirical_sigma"] is None
    assert np.isfinite(data["sigma_n"])


@pytest.mark.parametrize("kind", ["kraus", "dilated"])
def test_single_sample_estimate_uses_the_exact_sigma_on_every_kind(kind, tmp_path):
    # one sample has no spread of its own: sigma_n is the exact single-sample
    # sigma, which Kraus and dilated channels have as well
    ch = {
        "kraus": random_kraus_channel(np.random.default_rng(56), 4, 2, 3),
        "dilated": UnitaryChannel(haar_unitary(8, 57), d_a=4, d_b=2),
    }[kind]
    save_channel(ch, str(tmp_path / "ch.json"))
    a = random_hermitian(np.random.default_rng(58), 4)
    argv = ["estimate", "ch.json", "--observable-a", mat_json(a), "--observable-b", SIGMA_Z_JSON]
    res = run_cli(argv + ["--n-samples", "1", "--output-dir", "out"], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "nan" not in res.stdout
    data = _strict_json(tmp_path / "out" / "estimate.json")
    assert data["empirical_sigma"] is None
    assert data["sigma_n"] == data["analytic_sigma_bound"]
    want = np.sqrt(variance_bound(ch, a, np.diag([1.0, -1.0])))
    assert want > 0 and abs(data["sigma_n"] - want) <= 1e-12 * want


def test_all_pairs_otoc_writes_null_sigma(scrambler, tmp_path):
    res = run_cli(
        [
            "otoc",
            scrambler,
            "--observable-a",
            mat_json(np.diag([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])),
            "--observable-b",
            PROJ0_JSON,
            "--pairs",
            "50",
            "--pairing",
            "all",
            "--output-dir",
            "out",
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    data = _strict_json(tmp_path / "out" / "otoc.json")
    assert data["sigma"] is None
    assert np.isfinite(data["estimate"])
    _strict_json(tmp_path / "out" / "manifest.json")


def test_all_pairs_otoc_peak_is_priced(tmp_path, monkeypatch):
    # 8000 states: the N x d_a row blocks are the largest array priced, and
    # the all-pairs trace holds nothing wider than them; the 8000 x 8000
    # overlap table it never forms would take 1 GB
    unitary = tmp_path / "unitary.json"
    save_channel(UnitaryChannel(haar_unitary(4, 5), d_b=2), str(unitary))
    priced = {}
    check_budget = cli._check_budget

    def recording(force, **elements):
        priced.update(elements)
        check_budget(force, **elements)

    monkeypatch.setattr(cli, "_check_budget", recording)
    argv = ["otoc", str(unitary), "--observable-a", mat_json(np.eye(4)), "--observable-b", PROJ0_JSON,
            "--pairs", "4000", "--pairing", "all", "--output-dir", str(tmp_path / "out")]  # fmt: skip
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert priced == {"unitary": 16, "haar_draws": 8000 * 2, "row_blocks": 8000 * 4}
    assert peak <= 16 * sum(priced.values()) + 3 * 2**20


def test_otoc_rejects_nonprojector_b(scrambler, tmp_path):
    res = run_cli(
        [
            "otoc",
            scrambler,
            "--observable-a",
            mat_json(np.eye(8)),
            "--observable-b",
            mat_json(np.diag([0.6, 0.4])),
            "--pairs",
            "10",
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 2


def test_dual_distance_command(depol_file, tmp_path):
    res = run_cli(
        [
            "dual-distance",
            depol_file,
            "--n-values",
            "10,20",
            "--trials",
            "2",
            "--output-dir",
            "out",
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "out" / "distances.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["N", "trial", "hs_distance", "trace_distance", "bound"]
    assert len(rows) == 1 + 4
    assert {r[0] for r in rows[1:]} == {"10", "20"}


def test_dual_distance_rejects_bad_sizes(depol_file, tmp_path):
    res = run_cli(
        ["dual-distance", depol_file, "--n-values", "10,zero"], cwd=tmp_path
    )
    assert res.returncode == 1
    assert "config error" in res.stderr
    res = run_cli(["dual-distance", depol_file, "--n-values", "0,10"], cwd=tmp_path)
    assert res.returncode == 1
    assert "config error" in res.stderr


def test_thermalize_command(tmp_path):
    res = run_cli(
        [
            "thermalize",
            "--n",
            "3",
            "--pol",
            "z",
            "--n-samples",
            "40",
            "--t-max",
            "1.0",
            "--t-step",
            "0.5",
            "--output-dir",
            "out",
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "out" / "thermalize.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["time", "exact", "estimate", "sigma_n", "bound"]
    assert len(rows) == 1 + 3
    assert abs(float(rows[1][1]) - 1.0) < 1e-12  # z start, exact <sigma_z> = 1


def test_thermalize_manifest_records_the_share_of_rows_within_bound(tmp_path):
    # three samples per point make sigma_n a poor error scale, so some rows
    # miss their bound; the manifest's share is the CSV's, recomputed
    argv = ["thermalize", "--n", "4", "--pol", "z", "--n-samples", "3", "--t-max", "5", "--seed", "2"]
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 0
    with open(tmp_path / "thermalize.csv", newline="") as f:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]
    within = [abs(r["estimate"] - r["exact"]) <= r["bound"] for r in rows]
    share = _strict_json(tmp_path / "manifest.json")["within_bound_share"]
    assert share == sum(within) / len(rows)
    assert 0.0 < share < 1.0


def test_thermalize_site_cap(tmp_path):
    # 17 sites: 481 Krylov vectors of 65,792 amplitudes take 2^28.9 bytes
    res = run_cli(["thermalize", "--n", "17", "--pol", "z"], cwd=tmp_path)
    assert res.returncode == 3
    assert "exceeds" in res.stderr


def test_thermalize_bad_axis_is_config_error(tmp_path):
    res = run_cli(["thermalize", "--n", "3", "--pol", "x"], cwd=tmp_path)
    assert res.returncode == 1
    assert "config error" in res.stderr


def test_scaling_command(tmp_path):
    res = run_cli(
        [
            "scaling",
            "--n",
            "3",
            "--na",
            "2",
            "--nb",
            "1",
            "--n-values",
            "10,30",
            "--trials",
            "2",
            "--output-dir",
            "out",
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "out" / "scaling.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["N", "trial", "hs_distance", "trace_distance", "bound"]
    assert len(rows) == 1 + 4


def test_scaling_compresses_the_reduced_state(tmp_path):
    # --na 0: the channel prepares the first nb spins' reduced state
    code = cli.main(["scaling", "--n", "4", "--na", "0", "--nb", "2", "--n-values", "10,30", "--trials", "2",
                     "--output-dir", str(tmp_path)])  # fmt: skip
    assert code == 0
    with open(tmp_path / "scaling.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 4
    assert cli.main(["scaling", "--n", "4", "--na", "-1", "--output-dir", str(tmp_path)]) == 2


def test_trivially_dilated_spec_is_the_unitary_induced_channel(tmp_path):
    # a dilated spec whose d_a is its matrix dimension has a one-dimensional
    # ancilla: it is the unitary-induced channel of the same matrix
    unitary = UnitaryChannel(haar_unitary(8, 54), d_b=2)
    a = tmp_path / "a.json"
    a.write_text(mat_json(random_hermitian(np.random.default_rng(55), 8)))
    outputs = {}
    for kind in ("unitary_induced", "dilated"):
        spec = tmp_path / f"{kind}.json"
        spec.write_text(json.dumps({**channel_to_dict(unitary), "kind": kind}))
        observables = ["--observable-a", str(a), "--observable-b"]
        runs = {
            "report.json": ["inspect", str(spec)],
            "estimate.json": ["estimate", str(spec), *observables, SIGMA_Z_JSON, "--n-samples", "50"],
            "otoc.json": ["otoc", str(spec), *observables, PROJ0_JSON, "--pairs", "20"],
        }
        for produced, argv in runs.items():
            out = tmp_path / kind / produced
            assert cli.main(argv + ["--seed", "6", "--output-dir", str(out.parent)]) == 0
            outputs[kind, produced] = out.read_bytes()
        assert json.loads(outputs[kind, "report.json"])["kind"] == "unitary_induced"
        assert json.loads(outputs[kind, "estimate.json"])["analytic_sigma_bound"] is not None
    for produced in runs:
        assert outputs["dilated", produced] == outputs["unitary_induced", produced]


def test_usage_errors(tmp_path):
    negative_seed = ["thermalize", "--n", "3", "--pol", "z", "--seed", "-1"]
    nan_channel = tmp_path / "nan.json"
    nan_channel.write_text('{"kind": "kraus", "d_a": 1, "d_b": 1, "matrices": [[[[NaN, 0.0]]]]}')
    # int() would read d_b = 1.7 as 1, a valid split of this 2 x 2 unitary
    float_dims = tmp_path / "float_dims.json"
    float_dims.write_text(
        '{"kind": "unitary_induced", "d_a": 2.0, "d_b": 1.7,'
        ' "matrices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}'
    )
    identity = tmp_path / "identity.json"
    identity.write_text(
        '{"kind": "unitary_induced", "d_a": 2, "d_b": 1,'
        ' "matrices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}'
    )
    # complex() would read true as 1, which makes this A the identity
    bool_a = tmp_path / "bool_a.json"
    bool_a.write_text("[[[true, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]")
    for args in (
        [],
        ["frobnicate"],
        negative_seed,
        ["scaling", "--n", "3", "--t", "nan"],
        ["thermalize", "--n", "3", "--pol", "z", "--t-step", "nan"],
        ["thermalize", "--n", "3", "--pol", "z", "--h", "inf", "--t-max", "0.5"],
        ["inspect", str(nan_channel)],
        ["inspect", str(float_dims)],
        ["estimate", str(identity), "--observable-a", str(bool_a), "--observable-b", "[[[1.0, 0.0]]]"],
    ):
        res = run_cli(args, cwd=tmp_path)
        assert res.returncode == 1, (args, res.stderr)
        assert "config error" in res.stderr


def test_programming_errors_propagate(monkeypatch):
    # a TypeError left after the call-site conversions is a bug, not bad input
    def broken(args):
        raise TypeError("bug")

    monkeypatch.setattr(cli, "cmd_inspect", broken)
    with pytest.raises(TypeError, match="bug"):
        cli.main(["inspect", "channel.json"])


@pytest.fixture
def no_allocation(monkeypatch):
    """Replace every size-dependent library call of the CLI with a failure."""

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the budget refused")

    for name in (
        "validate_channel",
        "dual_ensemble",
        "distance_table",
        "thermalization_experiment",
        "distance_scaling_experiment",
    ):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["thermalize", "--n", "17", "--pol", "z"],
        ["thermalize", "--n", "600", "--pol", "z"],
        ["scaling", "--n", "12"],
        ["thermalize", "--n", "4", "--pol", "z", "--t-step", "1e-9"],
        ["estimate", "{depol}", "--observable-a", SIGMA_Z_JSON, "--observable-b",
         SIGMA_Z_JSON, "--n-samples", "100000000"],
        ["dual-distance", "{isometry}"],
        ["inspect", "{row}"],
    ],
    ids=["17-sites", "600-sites", "scaling-12-sites", "tiny-t-step", "1e8-samples",
         "128x64-isometry", "1x8192-kraus-row"],
)  # fmt: skip
def test_budget_refuses_before_allocating(argv, no_allocation, depol_file, tmp_path, capsys):
    isometry = tmp_path / "isometry.json"
    # d_a = 64, d_b = 128: dilation dimension only 128, but an 8192^2 exact dual
    save_channel(KrausChannel(np.eye(128, 64)[np.newaxis]), str(isometry))
    # one 1 x 8192 operator: a 128 KiB stack, but validation's Gram is 8192^2
    row = tmp_path / "row.json"
    save_channel(KrausChannel(np.ones((1, 1, 8192))), str(row))
    argv = [a.format(depol=depol_file, isometry=isometry, row=row) for a in argv]
    assert cli.main(argv + ["--output-dir", str(tmp_path / "out")]) == 3
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        # the Krylov basis, min(m, 480) + 1 vectors of the m-dimensional
        # mirror-even sector: 2^23.9 bytes at 12 sites, 2^27.9 at 16, 2^28.9 at 17
        (["thermalize", "--n", "12", "--pol", "z"], 0),
        (["thermalize", "--n", "13", "--pol", "z", "--force"], 0),
        (["thermalize", "--n", "13", "--pol", "z"], 0),
        (["thermalize", "--n", "16", "--pol", "z"], 0),
        (["thermalize", "--n", "17", "--pol", "z"], 3),
        (["thermalize", "--n", "17", "--pol", "z", "--force"], 0),
        (["scaling", "--n", "11"], 0),
        (["scaling", "--n", "13"], 3),
        (["scaling", "--n", "13", "--force"], 0),
        (["scaling", "--n", "4", "--nb", "5"], 2),
        # exactly the budget in Haar draws: 2^15 x 2^9 and 2^13 x 2^11 entries
        (["thermalize", "--n", "10", "--pol", "z", "--n-samples", "32768", "--t-max", "0"], 0),
        (["scaling", "--n", "12", "--na", "1", "--nb", "1", "--n-values", "8192"], 0),
    ],
    ids=["12-sites", "13-sites-forced", "13-sites", "16-sites", "17-sites", "17-sites-forced",
         "scaling-11-sites", "scaling-13-sites",
         "scaling-13-sites-forced", "split-out-of-range", "thermalize-draws-at-budget",
         "scaling-draws-at-budget"],
)  # fmt: skip
def test_budget_prices_chain_sizes(argv, code, monkeypatch, tmp_path):
    # the experiments are stubbed, so only the pricing runs at these sizes
    monkeypatch.setattr(cli, "thermalization_experiment", lambda **kwargs: [])
    monkeypatch.setattr(cli, "distance_scaling_experiment", lambda **kwargs: [])
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == code


@pytest.mark.parametrize(
    "argv",
    [
        ["thermalize", "--n", "10", "--pol", "z", "--n-samples", "32769", "--t-max", "0"],
        ["scaling", "--n", "12", "--na", "1", "--nb", "1", "--n-values", "8193"],
    ],
    ids=["thermalize", "scaling"],
)
def test_chain_draws_past_the_budget_are_refused(argv, monkeypatch, tmp_path, capsys):
    # one sample past the budget: the draws, N x 2^(n - nb), are the largest array
    monkeypatch.setattr(cli, "thermalization_experiment", lambda **kwargs: [])
    monkeypatch.setattr(cli, "distance_scaling_experiment", lambda **kwargs: [])
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 3
    assert "the haar draws needs" in capsys.readouterr().err


def test_thermalize_holds_draws_not_rows(tmp_path):
    # 10000 draws of 2^9 entries take 78 MiB; the 2^11-wide rows, never
    # formed, would take 312 MiB, past the budget
    tracemalloc.start()
    try:
        code = cli.main(["thermalize", "--n", "10", "--pol", "z", "--n-samples", "10000", "--t-max", "0",
                         "--output-dir", str(tmp_path)])  # fmt: skip
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < cli.MAX_UNFORCED_BYTES



def test_thermalize_prices_the_krylov_basis(monkeypatch, tmp_path):
    priced = {}
    check_budget = cli._check_budget

    def recording(force, **elements):
        priced.update(elements)
        check_budget(force, **elements)

    monkeypatch.setattr(cli, "_check_budget", recording)
    monkeypatch.setattr(cli, "thermalization_experiment", lambda **kwargs: [])
    for n, m in [(3, 6), (10, 528), (16, 32896)]:
        assert cli.main(["thermalize", "--n", str(n), "--pol", "z", "--output-dir", str(tmp_path)]) == 0
        assert priced == {"krylov_basis": (min(m, 480) + 1) * m, "haar_draws": (200, n - 1), "time_grid": 41}
    assert cli.main(["thermalize", "--n", "63", "--pol", "z", "--output-dir", str(tmp_path), "--force"]) == 0
    assert priced["krylov_basis"] == (481, 63)


def test_thermalize_holds_no_identity(tmp_path):
    # 12 sites: the partial trace's 4096 x 4096 identity would take 256 MiB
    tracemalloc.start()
    try:
        code = cli.main(["thermalize", "--n", "12", "--pol", "z", "--n-samples", "50", "--t-max", "0",
                         "--output-dir", str(tmp_path)])  # fmt: skip
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20

def test_budget_boundary_and_force():
    # 64 Kraus operators 64 -> 64: draws of r = 64 entries, no unitary, and
    # 4096 rows of d_b * d_a = 4096 entries, exactly MAX_UNFORCED_BYTES
    ch = KrausChannel(np.zeros((64, 64, 64)))
    elements = cli._channel_elements(ch, 4096, "state_rows")
    assert elements == {"kraus_stack": 64**3, "kraus_gram": 64**2,
                        "haar_draws": 4096 * 64, "state_rows": 4096 * 64 * 64}  # fmt: skip
    cli._check_budget(False, **elements)
    with pytest.raises(cli.ResourceCapError, match="state rows"):
        cli._check_budget(False, **cli._channel_elements(ch, 4097, "state_rows"))
    # validation alone: a Kraus channel copies its stack and forms its Gram,
    # a unitary-carrying one forms U^dag U; no dilation is built
    assert cli._channel_elements(ch) == {"kraus_stack": 64**3, "kraus_gram": 64**2}
    assert cli._channel_elements(UnitaryChannel(np.eye(8), d_b=2)) == {"unitary": 64}
    # otoc's blocks are d_a wide; dual-distance adds the (d_b * d_a)^2 exact dual
    blocks = cli._channel_elements(UnitaryChannel(np.eye(8), d_b=2), 10, "row_blocks", "exact_dual")
    assert blocks == {"unitary": 64, "haar_draws": 40, "row_blocks": 80, "exact_dual": 256}
    # 4 -> 1 with r = 4: the environment draws are r = 4 wide, as the rows are
    draws = cli._channel_elements(KrausChannel(np.zeros((4, 1, 4))), 10, "state_rows")
    assert draws["haar_draws"] == draws["state_rows"] == 40
    # a dense A sums d_b x r x r products into its r-square form
    assert cli._channel_elements(KrausChannel(np.zeros((6, 2, 3))), 1, "quadratic_form")["quadratic_form"] == 72
    with pytest.raises(cli.ResourceCapError, match="dense matrix"):
        cli._check_budget(False, dense_matrix=4096**2 + 1, time_grid=3)
    with pytest.raises(cli.ResourceCapError, match="time grid"):
        cli._check_budget(False, dense_matrix=4, time_grid=2**40)
    cli._check_budget(True, dense_matrix=1 << 1200)  # --n 600 --force


@pytest.fixture(scope="module")
def priced_inputs(tmp_path_factory):
    """Channels and observables for the commands whose old prices refused
    them: a 256 -> 8 Kraus channel with r = 32 (once completed to an 8192 x
    8192 unitary), 256 -> 32 and 256 -> 16 unitaries (exact duals 8192 and
    4096 square), and a 4 -> 2 unitary."""
    d = tmp_path_factory.mktemp("priced")
    save_channel(random_kraus_channel(np.random.default_rng(70), 256, 8, 32), str(d / "kraus256.json"))
    for d_a, d_b in ((256, 32), (256, 16), (4, 2)):
        save_channel(UnitaryChannel(haar_unitary(d_a, d_b), d_b=d_b), str(d / f"unitary{d_a}-{d_b}.json"))
        (d / f"a{d_a}.json").write_text(mat_json(random_hermitian(np.random.default_rng(d_a), d_a)))
        (d / f"b{d_b}.json").write_text(mat_json(np.diag(np.eye(d_b)[0])))
    return d


@pytest.mark.parametrize(
    "argv",
    [
        ["inspect", "kraus256.json"],
        ["dual-distance", "kraus256.json", "--n-values", "200", "--trials", "1"],
        ["estimate", "unitary256-32.json", "--observable-a", "a256.json", "--observable-b", "b32.json",
         "--n-samples", "200"],
        ["estimate", "unitary256-32.json", "--observable-a", "a256.json", "--observable-b", "b32.json",
         "--n-samples", "2049"],
        ["otoc", "unitary256-16.json", "--observable-a", "a256.json", "--observable-b", "b16.json",
         "--pairs", "2049"],
        # 40000 states are 2.4 MiB of rows; the all-pairs trace holds no pair table
        ["otoc", "unitary4-2.json", "--observable-a", "a4.json", "--observable-b", "b2.json",
         "--pairs", "20000", "--pairing", "all"],
    ],
    ids=["inspect-dilation", "dual-distance-kraus", "estimate-exact-dual", "estimate-rows", "otoc-rows",
         "all-pairs-overlaps"],
)  # fmt: skip
def test_channel_commands_run_where_the_old_price_refused(argv, priced_inputs, tmp_path):
    # each exited 3 while its command priced an array it never builds: the
    # 8192^2 dilation (twice: to inspect, and to sample draws of r = 32
    # entries), the 8192^2 exact dual, 2049 rows of 8192 entries (one row
    # past the budget), 4098 rows of 4096 entries (2^28.0 bytes, one pair
    # past the budget) and the pair-overlap block
    argv = [str(priced_inputs / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 0


def _unbuilt(cls, name, shape, **fields):
    """A channel whose matrix is a zero-stride view of the given shape: it
    prices like the real one, and nothing is allocated behind it."""
    ch = object.__new__(cls)
    object.__setattr__(ch, name, np.broadcast_to(np.complex128(0), shape))
    for key, value in fields.items():
        object.__setattr__(ch, key, value)
    return ch


@pytest.mark.parametrize(
    "argv, channel, entry",
    [
        # 4097 x 64 x 64 operators: the stack validation copies is 2^24 + 4096 elements
        (["inspect", "CH"], _unbuilt(KrausChannel, "operators", (4097, 64, 64)), "kraus stack"),
        # one 1 x 4097 operator: its d_a x d_a Gram is one row past the budget
        (["inspect", "CH"], _unbuilt(KrausChannel, "operators", (1, 1, 4097)), "kraus gram"),
        (["inspect", "CH"], _unbuilt(UnitaryChannel, "unitary", (4097, 4097), d_b=1, d_a=4097), "unitary"),
        # 2^20 + 1 draws of r = 16 entries from a 1024 -> 128 stack: one draw
        # past the budget, where a completed 2^14-square unitary would be the
        # largest array; the budget refuses before the observables are sized
        (["estimate", "CH", "--observable-a", SIGMA_Z_JSON, "--observable-b", SIGMA_Z_JSON, "--n-samples", "1048577"],
         _unbuilt(KrausChannel, "operators", (16, 128, 1024)), "haar draws"),
        # 4097 operators 1 -> 1: a dense A sums 4097 x 4097 products into M
        (["estimate", "CH", "--observable-a", SIGMA_Z_JSON, "--observable-b", SIGMA_Z_JSON, "--n-samples", "1"],
         _unbuilt(KrausChannel, "operators", (4097, 1, 1)), "quadratic form"),
        # 2^21 + 1 draws of d_env = 256 / 32 = 8 entries: one draw past the budget
        (["estimate", "CH", "--observable-a", "a256.json", "--observable-b", "b32.json", "--n-samples", "2097153"],
         _unbuilt(UnitaryChannel, "unitary", (256, 256), d_b=32, d_a=256), "haar draws"),
        # 2^16 + 2 blocks of 256 entries: one pair past the budget
        (["otoc", "CH", "--observable-a", "a256.json", "--observable-b", "b16.json", "--pairs", "32769"],
         _unbuilt(UnitaryChannel, "unitary", (256, 256), d_b=16, d_a=256), "row blocks"),
    ],
    ids=["inspect-kraus", "inspect-kraus-gram", "inspect-unitary", "estimate-kraus", "estimate-kraus-form", "estimate",
         "otoc"],
)  # fmt: skip
def test_channel_commands_refuse_one_past_their_largest_entry(
    argv, channel, entry, priced_inputs, no_allocation, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(cli, "load_channel", lambda path: channel)
    argv = [str(priced_inputs / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 3
    assert f"the {entry} needs" in capsys.readouterr().err


def test_estimate_rows_are_priced_at_the_width_sampled(tmp_path, monkeypatch, capsys):
    # 16 -> 4, r = 4: the draws are d_env = r = 4 wide, so 2^22 of them take
    # exactly the budget and one more is refused; no rows are priced, though
    # 2^22 rows of d_b * d_a = 64 entries would take sixteen times the
    # budget. Sampling is stubbed so nothing is built
    path = tmp_path / "kraus.json"
    save_channel(random_kraus_channel(np.random.default_rng(0), 16, 4, 4), str(path))
    sampled = []
    monkeypatch.setattr(cli, "dual_ensemble", lambda ch, n, seed: sampled.append(n))
    monkeypatch.setattr(cli, "estimate_observable", lambda ens, a, b: EstimatorReport(0.0, 0.0, None, 0.0, 2**22))
    codes = [
        cli.main([
            "estimate", str(path),
            "--observable-a", mat_json(np.eye(16)),
            "--observable-b", mat_json(np.eye(4)),
            "--n-samples", str(n),
            "--output-dir", str(tmp_path / "out"),
        ])
        for n in (2**22, 2**22 + 1)
    ]  # fmt: skip
    assert codes == [0, 3]
    assert sampled == [2**22]
    assert "the haar draws needs" in capsys.readouterr().err


def test_budget_prices_absurd_site_counts_without_big_ints(tmp_path):
    # 2^(2n) elements for n = 10^7 is priced by its exponent, not built as an int
    tracemalloc.start()
    try:
        code = cli.main(["thermalize", "--n", "10000000", "--pol", "z", "--output-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "argv, config",
    [
        (["inspect", "CH", "--output-dir", "."], {"channel": "CH", "output_dir": "."}),
        (["estimate", "CH", "--observable-a", SIGMA_Z_JSON, "--observable-b", SIGMA_Z_JSON],
         {"channel": "CH", "observable_a": SIGMA_Z_JSON, "observable_b": SIGMA_Z_JSON, "n_samples": 1000}),
        (["dual-distance", "CH"], {"channel": "CH", "n_values": [10, 50, 100, 500], "trials": 20}),
        (["otoc", "CH", "--observable-a", SIGMA_Z_JSON, "--observable-b", PROJ0_JSON],
         {"channel": "CH", "observable_a": SIGMA_Z_JSON, "observable_b": PROJ0_JSON, "pairs": 1000,
          "pairing": "disjoint"}),
        (["thermalize", "--n", "2", "--pol", "z"],
         {"n": 2, "g": 1.05, "h": 0.5, "pol": "z", "obs": None, "n_samples": 200, "t_max": 10.0,
          "t_step": 0.25}),
        (["scaling", "--n", "2"],
         {"n": 2, "na": None, "nb": 1, "t": 1.0, "n_values": [10, 50, 100, 500], "trials": 20, "g": 1.05,
          "h": 0.5}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)  # fmt: skip
def test_manifest_config_keys_and_defaults(argv, config, identity_qubit, tmp_path, monkeypatch):
    # the manifest records every parsed flag under its dest, defaults included
    monkeypatch.chdir(tmp_path)
    argv = [identity_qubit if a == "CH" else a for a in argv]
    assert cli.main(argv) == 0
    want = {"seed": 0, "output_dir": ".", "force": False, **config}
    want = {k: identity_qubit if v == "CH" else v for k, v in want.items()}
    manifest = _strict_json(tmp_path / "manifest.json")
    assert manifest["command"] == argv[0]
    assert manifest["config"] == want
    assert manifest["seed"] == 0


def _strip_clock(path):
    data = json.loads(path.read_text())
    data.pop("wall_clock_s")
    return data


@pytest.mark.parametrize("which", ["estimate", "thermalize"])
def test_reruns_are_byte_identical(which, tmp_path, scrambler):
    if which == "estimate":
        args = [
            "estimate",
            scrambler,
            "--observable-a",
            mat_json(np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])),
            "--observable-b",
            SIGMA_Z_JSON,
            "--n-samples",
            "300",
            "--seed",
            "11",
            "--output-dir",
            "out",
        ]
        produced = "estimate.json"
    else:
        args = [
            "thermalize",
            "--n",
            "3",
            "--pol",
            "y",
            "--n-samples",
            "30",
            "--t-max",
            "0.5",
            "--t-step",
            "0.25",
            "--seed",
            "11",
            "--output-dir",
            "out",
        ]
        produced = "thermalize.csv"
    cwd_a = tmp_path / "a"
    cwd_b = tmp_path / "b"
    cwd_a.mkdir()
    cwd_b.mkdir()
    res_a = run_cli(args, cwd=cwd_a)
    res_b = run_cli(args, cwd=cwd_b)
    assert res_a.returncode == 0 and res_b.returncode == 0
    bytes_a = (cwd_a / "out" / produced).read_bytes()
    bytes_b = (cwd_b / "out" / produced).read_bytes()
    assert bytes_a == bytes_b
    assert _strip_clock(cwd_a / "out" / "manifest.json") == _strip_clock(
        cwd_b / "out" / "manifest.json"
    )


# every BLAS pool pinned, so an inherited OMP_NUM_THREADS cannot shadow the setting
TWO_THREADS = {var: "2" for var in ("RANDUAL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize("which", ["scaling", "dual-distance", "otoc", "otoc-all"])
def test_reruns_at_two_threads_are_byte_identical(which, tmp_path):
    # the determinism contract: a fixed environment, thread count included
    if which == "scaling":
        args, produced = ["scaling", "--n", "6"], "scaling.csv"
    elif which.startswith("otoc"):
        # 64 -> 2 unitary channel: block GEMMs of 64 columns; with 600
        # states the all-pairs trace takes the 64-square product
        channel, a = tmp_path / "unitary.json", tmp_path / "a.json"
        save_channel(UnitaryChannel(haar_unitary(64, 7), d_b=2), str(channel))
        a.write_text(mat_json(random_hermitian(np.random.default_rng(8), 64)))
        pairing = ["--pairs", "300", "--pairing", "all"] if which == "otoc-all" else ["--pairs", "2000"]
        args = ["otoc", str(channel), "--observable-a", str(a), "--observable-b", PROJ0_JSON, *pairing]
        produced = "otoc.json"
    else:
        channel = tmp_path / "kraus.json"
        save_channel(random_kraus_channel(np.random.default_rng(3), 16, 4, 4), str(channel))
        args, produced = ["dual-distance", str(channel)], "distances.csv"
    outputs = []
    for run in ("a", "b"):
        cwd = tmp_path / run
        cwd.mkdir()
        res = run_cli(args + ["--seed", "4", "--output-dir", "out"], cwd=cwd, env=TWO_THREADS)
        assert res.returncode == 0, res.stderr
        outputs.append(((cwd / "out" / produced).read_bytes(), _strip_clock(cwd / "out" / "manifest.json")))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]["environment"]["threads"] == TWO_THREADS


def test_importing_the_package_loads_no_cli_machinery(tmp_path):
    # `import randual` is on every command's start-up path: the CLI, its
    # argument parsing, CSV and hashing, and numpy's random module stay unloaded
    heavy = ["argparse", "csv", "hashlib", "secrets", "numpy.random", "randual.cli"]
    code = f"import sys, randual; print([m for m in {heavy!r} if m in sys.modules])"
    res = run_python(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
