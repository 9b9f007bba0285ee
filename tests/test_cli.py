"""End-to-end CLI runs through subprocess: exit codes, files, determinism."""
import csv
import json

import numpy as np
import pytest

from randual.channels import KrausChannel, UnitaryChannel, save_channel
from randual.rng import haar_unitary

from helpers import depolarizing, run_cli

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


def test_thermalize_site_cap(tmp_path):
    res = run_cli(["thermalize", "--n", "13", "--pol", "z"], cwd=tmp_path)
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


def test_usage_errors(tmp_path):
    negative_seed = ["thermalize", "--n", "3", "--pol", "z", "--seed", "-1"]
    for args in ([], ["frobnicate"], negative_seed):
        res = run_cli(args, cwd=tmp_path)
        assert res.returncode == 1
        assert "config error" in res.stderr


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
