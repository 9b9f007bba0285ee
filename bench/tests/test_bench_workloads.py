"""Workload runs: layer counts against the configuration, output checks and
the failure accounting."""
import json

import numpy as np
import pytest

import metrics
import workloads
from spans import Tracer
from worker import check_rep, layer_metrics, run_rep


def _traced(name, tmp_path, reps=1):
    wl = workloads.build(name, 5, tmp_path)
    wl.reference()
    tracer = Tracer()
    runs = [run_rep(wl, tracer) for _ in range(reps)]
    return wl, tracer, runs


@pytest.mark.parametrize("name", ["quench", "distance"])
def test_traced_rep_counts_and_checks(name, tmp_path):
    reps = 2 if name == "distance" else 1
    wl, tracer, runs = _traced(name, tmp_path, reps)
    first_sha = {}
    for rep in runs:
        failures, zs, _ = check_rep(wl, rep, first_sha)
        assert failures == []
        assert all(z < workloads.Z_FAIL for z in zs)
    values, errors = layer_metrics(tracer, runs, [r["wall_s"] for r in runs])
    assert errors == []
    assert set(values) == set(metrics.per_layer())
    assert values["rng.seed_stream.calls"] == wl.samples_per_rep
    assert values["rng.haar_state.calls"] == wl.samples_per_rep
    cells = len(workloads.N_VALUES) * workloads.DISTANCE_TRIALS
    expected_dilations = {"quench": 0, "distance": cells + 1}[name]  # + estimate
    assert values["channels.stinespring_dilate.calls"] == expected_dilations
    selfs = tracer.rep_self_times(0)
    assert sum(selfs.values()) <= runs[0]["wall_s"]
    if name == "distance":
        assert metrics.rep_counts(tracer, 0) == metrics.rep_counts(tracer, 1)
        assert values["xcheck.dual_estimate_N500_d512.per_call_s"] > 0
    if name == "quench":
        assert values["linalg.hermitian_eig.calls"] == 1
        assert values["xcheck.variance_bound_n10.per_call_s"] > 0


def _small_estimate(tmp_path):
    rng = np.random.default_rng(0)
    ch = workloads.write_kraus(tmp_path / "ch.json", workloads.random_kraus(rng, 4, 2, 2))
    a = workloads._write_json(tmp_path / "a.json", workloads._matrix_json(np.eye(4)))
    b = workloads._write_json(tmp_path / "b.json", workloads._matrix_json(np.diag([1.0, -1.0])))
    out = tmp_path / "est"
    argv = ["estimate", ch, "--observable-a", a, "--observable-b", b,
            "--n-samples", "20", "--output-dir", str(out)]  # fmt: skip
    cmd = workloads.Command("estimate", argv, out, "estimate.json", lambda _: workloads.CheckResult())
    return workloads.Workload("small", [cmd], 20), out / "estimate.json"


def test_corrupted_result_file_is_a_failed_op(tmp_path):
    wl, path = _small_estimate(tmp_path)
    first_sha = {}
    assert check_rep(wl, run_rep(wl), first_sha)[0] == []
    path.write_text(path.read_text() + " ", encoding="utf-8")
    failures = check_rep(wl, {"codes": [0]}, first_sha)[0]
    assert len(failures) == 1 and "manifest sha256" in failures[0]


def test_result_differing_from_first_rep_is_a_failed_op(tmp_path):
    wl, path = _small_estimate(tmp_path)
    first_sha = {}
    assert check_rep(wl, run_rep(wl), first_sha)[0] == []
    wl.commands[0].argv += ["--seed", "9"]
    failures = check_rep(wl, run_rep(wl), first_sha)[0]
    assert len(failures) == 1 and "first rep" in failures[0]


def test_nonzero_exit_is_a_failed_op(tmp_path):
    wl, _ = _small_estimate(tmp_path)
    wl.commands[0].argv[1] = str(tmp_path / "missing.json")
    rep = run_rep(wl)
    assert rep["codes"] == [1]
    assert len(check_rep(wl, rep, {})[0]) == 1


def test_distance_check_rejects_broken_rows():
    n_values, trials = workloads.N_VALUES, 1
    good = [{"N": n, "trial": 0, "hs_distance": 0.9 / np.sqrt(n),
             "trace_distance": 0.6 / np.sqrt(n), "bound": 1 / np.sqrt(n)} for n in n_values]  # fmt: skip
    assert workloads.check_distance_rows(good, n_values, trials).errors == []
    flat = [dict(r, hs_distance=0.3, trace_distance=0.3) for r in good]
    assert workloads.check_distance_rows(flat, n_values, trials).errors
    swapped = [dict(r, trace_distance=r["hs_distance"] / 3) for r in good]
    assert workloads.check_distance_rows(swapped, n_values, trials).errors


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("distance", 3, tmp_path / "a")
    b = workloads.build("distance", 3, tmp_path / "b")
    inputs = ("kraus.json", "estimate_kraus.json", "a.json", "b.json", "unitary.json", "otoc_a.json", "otoc_b.json")
    for name in inputs:
        assert json.loads((tmp_path / "a" / name).read_text()) == json.loads((tmp_path / "b" / name).read_text())
    strip = lambda argv: [x for x in argv if not x.startswith(str(tmp_path))]  # noqa: E731
    assert [strip(c.argv) for c in a.commands] == [strip(c.argv) for c in b.commands]
