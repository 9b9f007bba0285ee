"""Workload definitions: input generation, CLI command lines, output checks.

Every input file is generated from the workload seed, and the CLI seeds are
derived from it, so one seed fixes everything a run computes. References for
the output checks are computed here with plain numpy, never through the
randual code path being timed.

Workloads
    quench    thermalize --n 10: dense d=1024 eigensolve, per-time evolution
              and the d^3 product in dual.variance_bound dominate.
    distance  scaling --n 8 (unitary, dual dimension 512) and dual-distance
              on a random Kraus channel, where the rank-N estimator and the
              distances dominate and dilation reruns in every Kraus cell;
              then estimate (N=10,000, Kraus channel) and a disjoint-pair
              otoc (4,000 pairs), where per-sample seeding and Haar draws
              dominate. Every ensemble path and the otoc layer run.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# An estimate further than this many of its own standard errors from the
# reference fails its command. Estimates here are means of >= 200 samples,
# so a correct run reaches this with negligible probability.
Z_FAIL = 6.0
# Tolerance on deterministic columns against the independent references.
EXACT_RTOL = 1e-9
# A distance row fails when hs_distance exceeds this multiple of 1/sqrt(N):
# E[HS^2] <= c/N with c of order one for both ensemble paths.
HS_ROW_FACTOR = 4.0
# |slope + 1/2| above this fails the distance table's slope check.
SLOPE_FAIL = 0.2

N_VALUES = (10, 50, 100, 500)

QUENCH_SITES = 10
QUENCH_SAMPLES = 200
QUENCH_T_MAX = 0.5
QUENCH_T_STEP = 0.25
QUENCH_G = 1.05  # the CLI defaults; the command line leaves them implicit
QUENCH_H = 0.5

DISTANCE_SITES = 8
DISTANCE_TRIALS = 2
DISTANCE_KRAUS = (32, 8, 4)  # d_a, d_b, operators

ESTIMATE_KRAUS = (16, 4, 4)
ESTIMATE_SAMPLES = 10_000
OTOC_DIMS = (64, 2)  # d_a, d_b
OTOC_PAIRS = 4_000


@dataclass
class Command:
    """One CLI call of a workload and the check its output must pass."""

    name: str
    argv: list[str]
    outdir: Path
    result_file: str
    check: Callable[[Path], "CheckResult"]


@dataclass
class CheckResult:
    errors: list[str] = field(default_factory=list)
    z_values: list[float] = field(default_factory=list)
    slope_err: float | None = None


@dataclass
class Workload:
    name: str
    commands: list[Command]
    samples_per_rep: int
    reference: Callable[[], None] = lambda: None


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def derived_seed(seed: int, stream: int) -> int:
    """CLI master seed for stream `stream` of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint32)[0])


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def random_kraus(rng: np.random.Generator, d_a: int, d_b: int, r: int) -> np.ndarray:
    """r Kraus operators (r, d_b, d_a) sliced from a Haar isometry."""
    z = rng.normal(size=(d_b * r, d_a)) + 1j * rng.normal(size=(d_b * r, d_a))
    return np.linalg.qr(z)[0].reshape(r, d_b, d_a)


def random_observable(rng: np.random.Generator, d: int) -> np.ndarray:
    """Hermitian matrix with spectral norm 1."""
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = m + m.conj().T
    return m / np.abs(np.linalg.eigvalsh(m)).max()


def write_kraus(path: Path, ops: np.ndarray) -> str:
    r, d_b, d_a = ops.shape
    spec = {"kind": "kraus", "d_a": d_a, "d_b": d_b, "matrices": [_matrix_json(k) for k in ops]}
    return _write_json(path, spec)


def write_unitary(path: Path, u: np.ndarray, d_b: int) -> str:
    spec = {"kind": "unitary_induced", "d_a": u.shape[0], "d_b": d_b, "matrices": [_matrix_json(u)]}
    return _write_json(path, spec)


# ---------------------------------------------------------------------------
# output readers and shared checks
# ---------------------------------------------------------------------------


def read_manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def _z(estimate: float, reference: float, sigma: float) -> float:
    diff = abs(estimate - reference)
    if sigma > 0:
        return diff / sigma
    return 0.0 if diff <= EXACT_RTOL * max(1.0, abs(reference)) else math.inf


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_RTOL * max(1.0, abs(b))


def check_distance_rows(rows: list[dict], n_values, trials: int) -> CheckResult:
    """The 1/sqrt(N) HS law per row, ||.||_2 <= ||.||_1 between the columns,
    and the slope of log(mean HS) against log N."""
    res = CheckResult()
    if len(rows) != len(n_values) * trials:
        res.errors.append(f"{len(rows)} rows, expected {len(n_values) * trials}")
        return res
    for row in rows:
        n, hs, td = row["N"], row["hs_distance"], row["trace_distance"]
        if not _close(row["bound"], 1.0 / math.sqrt(n)):
            res.errors.append(f"N={n:g}: bound {row['bound']!r} is not 1/sqrt(N)")
        if not 0.0 <= hs <= HS_ROW_FACTOR / math.sqrt(n):
            res.errors.append(f"N={n:g}: hs_distance {hs!r} breaks the 1/sqrt(N) law")
        # hs = ||D||_2 <= ||D||_1 = 2 * trace_distance
        if hs > 2.0 * td * (1.0 + 1e-12):
            res.errors.append(f"N={n:g}: hs_distance {hs!r} > 2 * trace_distance {td!r}")
    means = [np.mean([r["hs_distance"] for r in rows if r["N"] == n]) for n in n_values]
    slope = float(np.polyfit(np.log(n_values), np.log(means), 1)[0])
    res.slope_err = abs(slope + 0.5)
    if res.slope_err > SLOPE_FAIL:
        res.errors.append(f"log-log HS slope {slope:.3f} is not -1/2")
    return res


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _quench_exact(times: np.ndarray) -> np.ndarray:
    """<psi_t| Z_1 |psi_t> for the polarized quench, from Pauli Kronecker
    products and numpy's eigensolver."""
    n = QUENCH_SITES
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])

    def site_op(ops: dict) -> np.ndarray:
        out = np.ones((1, 1))
        for j in range(n):
            out = np.kron(out, ops.get(j, np.eye(2)))
        return out

    ham = np.zeros((2**n, 2**n))
    for j in range(n - 1):
        ham -= site_op({j: z, j + 1: z})
    for j in range(n):
        ham -= QUENCH_G * site_op({j: x}) + QUENCH_H * site_op({j: z})
    w, v = np.linalg.eigh(ham)
    c0 = v[0].conj()  # <k|psi_0> with psi_0 = |0...0>
    z1 = np.repeat([1.0, -1.0], 2 ** (n - 1))
    out = []
    for t in times:
        psi = v @ (np.exp(-1j * w * t) * c0)
        out.append(float(np.sum(z1 * np.abs(psi) ** 2)))
    return np.array(out)


def quench(seed: int, workdir: Path) -> Workload:
    times = np.arange(0.0, QUENCH_T_MAX + 1e-9, QUENCH_T_STEP)
    outdir = workdir / "thermalize"
    ref: dict = {}

    def reference() -> None:
        ref["exact"] = _quench_exact(times)

    def check(out: Path) -> CheckResult:
        res = CheckResult()
        rows = read_csv(out / "thermalize.csv")
        if len(rows) != len(times):
            res.errors.append(f"{len(rows)} rows, expected {len(times)}")
            return res
        for row, t, exact in zip(rows, times, ref["exact"]):
            if not _close(row["time"], t) or not _close(row["exact"], exact):
                res.errors.append(f"t={t}: exact {row['exact']!r} != reference {exact!r}")
            res.z_values.append(_z(row["estimate"], exact, row["sigma_n"]))
        return res

    argv = [
        "thermalize", "--n", str(QUENCH_SITES), "--pol", "z",
        "--n-samples", str(QUENCH_SAMPLES),
        "--t-max", str(QUENCH_T_MAX), "--t-step", str(QUENCH_T_STEP),
        "--seed", str(derived_seed(seed, 0)), "--output-dir", str(outdir),
    ]  # fmt: skip
    cmd = Command("thermalize", argv, outdir, "thermalize.csv", check)
    return Workload("quench", [cmd], QUENCH_SAMPLES * len(times), reference)


def distance(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    kraus_path = write_kraus(workdir / "kraus.json", random_kraus(rng, *DISTANCE_KRAUS))
    n_values = ",".join(map(str, N_VALUES))
    trials = str(DISTANCE_TRIALS)

    def check_table(filename: str) -> Callable[[Path], CheckResult]:
        return lambda out: check_distance_rows(read_csv(out / filename), N_VALUES, DISTANCE_TRIALS)

    scaling_out, dd_out = workdir / "scaling", workdir / "dual-distance"
    commands = [
        Command(
            "scaling",
            ["scaling", "--n", str(DISTANCE_SITES), "--nb", "1", "--n-values", n_values,
             "--trials", trials, "--seed", str(derived_seed(seed, 0)),
             "--output-dir", str(scaling_out)],
            scaling_out, "scaling.csv", check_table("scaling.csv"),
        ),
        Command(
            "dual-distance",
            ["dual-distance", kraus_path, "--n-values", n_values, "--trials", trials,
             "--seed", str(derived_seed(seed, 1)), "--output-dir", str(dd_out)],
            dd_out, "distances.csv", check_table("distances.csv"),
        ),
    ]  # fmt: skip
    sampling, reference = sampling_commands(seed, workdir, rng)
    samples = 2 * DISTANCE_TRIALS * sum(N_VALUES) + ESTIMATE_SAMPLES + 2 * OTOC_PAIRS
    return Workload("distance", commands + sampling, samples, reference)


def sampling_commands(seed: int, workdir: Path, rng: np.random.Generator):
    """The per-sample commands of `distance`: `estimate` on a random Kraus
    channel (postselected ensemble) and a disjoint-pair `otoc` on a Haar
    unitary-induced channel (unitary ensemble), with their check reference."""
    from randual.rng import haar_unitary

    d_a, d_b, r = ESTIMATE_KRAUS
    ops = random_kraus(rng, d_a, d_b, r)
    a, b = random_observable(rng, d_a), random_observable(rng, d_b)
    kraus_path = write_kraus(workdir / "estimate_kraus.json", ops)
    a_path = _write_json(workdir / "a.json", _matrix_json(a))
    b_path = _write_json(workdir / "b.json", _matrix_json(b))

    u_dim, u_db = OTOC_DIMS
    u = haar_unitary(u_dim, derived_seed(seed, 4))
    oa = random_observable(rng, u_dim)
    proj = np.zeros((u_db, u_db))  # rank-1 computational projector
    k = int(rng.integers(u_db))
    proj[k, k] = 1.0
    unitary_path = write_unitary(workdir / "unitary.json", u, u_db)
    oa_path = _write_json(workdir / "otoc_a.json", _matrix_json(oa))
    proj_path = _write_json(workdir / "otoc_b.json", _matrix_json(proj))
    ref: dict = {}

    def reference() -> None:
        # tr[X(A) B] = sum_k tr[K_k A K_k^dag B]
        ref["estimate"] = float(np.einsum("kmi,ij,knj,nm->", ops, a, ops.conj(), b).real)
        # G = tr_b[(B (x) I_c) U A U^dag], F = tr[G^2]
        d_c = u_dim // u_db
        w = (u @ oa @ u.conj().T).reshape(u_db, d_c, u_db, d_c)
        g = np.einsum("xy,ycxe->ce", proj, w)
        ref["otoc"] = float(np.trace(g @ g).real)

    def check_estimate(out: Path) -> CheckResult:
        res = CheckResult()
        got = json.loads((out / "estimate.json").read_text(encoding="utf-8"))
        if got["n_samples"] != ESTIMATE_SAMPLES:
            res.errors.append(f"n_samples {got['n_samples']} != {ESTIMATE_SAMPLES}")
        res.z_values.append(_z(got["estimate"], ref["estimate"], got["sigma_n"]))
        return res

    def check_otoc(out: Path) -> CheckResult:
        res = CheckResult()
        got = json.loads((out / "otoc.json").read_text(encoding="utf-8"))
        if got["pairs"] != OTOC_PAIRS:
            res.errors.append(f"pairs {got['pairs']} != {OTOC_PAIRS}")
        if not _close(got["exact"], ref["otoc"]):
            res.errors.append(f"exact {got['exact']!r} != reference tr[G^2] {ref['otoc']!r}")
        res.z_values.append(_z(got["estimate"], ref["otoc"], got["sigma"]))
        return res

    est_out, otoc_out = workdir / "estimate", workdir / "otoc"
    commands = [
        Command(
            "estimate",
            ["estimate", kraus_path, "--observable-a", a_path, "--observable-b", b_path,
             "--n-samples", str(ESTIMATE_SAMPLES), "--seed", str(derived_seed(seed, 2)),
             "--output-dir", str(est_out)],
            est_out, "estimate.json", check_estimate,
        ),
        Command(
            "otoc",
            ["otoc", unitary_path, "--observable-a", oa_path, "--observable-b", proj_path,
             "--pairs", str(OTOC_PAIRS), "--pairing", "disjoint",
             "--seed", str(derived_seed(seed, 3)), "--output-dir", str(otoc_out)],
            otoc_out, "otoc.json", check_otoc,
        ),
    ]  # fmt: skip
    return commands, reference


BY_NAME = {"quench": quench, "distance": distance}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's inputs under workdir and return its commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BY_NAME[name](seed, workdir)
