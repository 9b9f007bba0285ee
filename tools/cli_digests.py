"""Digests of the CLI result files at one seed, to show a refactor kept them.

    python3 tools/cli_digests.py SEED

Builds the inputs of the benchmark's `quench` and `distance` workloads for
SEED (bench/workloads.py, read only) in a temporary directory, runs every
workload command there, plus two all-pairs `otoc` runs (500 pairs at seed 5,
where N = 1000 exceeds d_c = 32, and 8 pairs at seed SEED, where N = 16 does
not, so both branches of the pair trace run), an
`estimate` on the unitary input with the otoc observables as a dense A and
B (2000 samples, seed SEED), a one-sample `estimate` of the `estimate`
command's Kraus input and observables (seed SEED), whose sigma is the exact
one, `inspect` of the Kraus and the unitary input, a `dual-distance` of a
rectangular 8 -> 4 Kraus channel with 3 operators (workloads.random_kraus
at SEED; both workload Kraus inputs are square, r d_b = d_a, so this is
the one whose rows are normalized only in expectation; N = 10, 50, two
trials, seed SEED),
two `scaling` runs of the dilated chain (8 spins, input on the first 4 or
on none, output on the first 2), a `scaling` run of an odd chain at
non-default fields (7 spins, input on the first 3, output on the first 2,
g = 0.6, h = -1.3), a y-polarized `thermalize` of an odd chain (9 spins,
observable sigma_z, t up to 2) and one of 10 spins on the default 41-point
grid (the one run whose Lanczos basis grows past its first 64 steps), the
last five with SEED as their master seed, each as
`python -m randual` from this checkout's src with RANDUAL_THREADS=1 and the
BLAS thread variables unset. Prints one `name sha256[:16]` line per result
file; two checkouts print the same lines exactly when their result files
are byte-identical.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(name: str, argv: list[str], result: Path) -> None:
    subprocess.run([sys.executable, "-m", "randual", *argv], check=True, stdout=subprocess.DEVNULL)
    print(name, hashlib.sha256(result.read_bytes()).hexdigest()[:16])


def main(seed: int) -> None:
    # set before numpy loads, so the inputs are built on one BLAS thread too
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)
    os.environ.update(RANDUAL_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files beside the bench modules
    import numpy as np
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("quench", "distance"):
            for cmd in workloads.build(name, seed, work).commands:
                run(cmd.name, cmd.argv, cmd.outdir / cmd.result_file)
        rect = workloads.random_kraus(np.random.default_rng(seed), 8, 4, 3)
        out = work / "dual-distance-rect"
        argv = [
            "dual-distance", workloads.write_kraus(work / "kraus_rect.json", rect),
            "--n-values", "10,50", "--trials", "2", "--seed", str(seed), "--output-dir", str(out),
        ]  # fmt: skip
        run("dual-distance-rect", argv, out / "distances.csv")
        out = work / "otoc-all"
        argv = [
            "otoc", str(work / "unitary.json"),
            "--observable-a", str(work / "otoc_a.json"), "--observable-b", str(work / "otoc_b.json"),
            "--pairing", "all", "--pairs", "500", "--seed", "5", "--output-dir", str(out),
        ]  # fmt: skip
        run("otoc-all", argv, out / "otoc.json")
        out = work / "otoc-all-few"
        argv = [
            "otoc", str(work / "unitary.json"),
            "--observable-a", str(work / "otoc_a.json"), "--observable-b", str(work / "otoc_b.json"),
            "--pairing", "all", "--pairs", "8", "--seed", str(seed), "--output-dir", str(out),
        ]  # fmt: skip
        run("otoc-all-few", argv, out / "otoc.json")
        out = work / "estimate-unitary"
        argv = [
            "estimate", str(work / "unitary.json"),
            "--observable-a", str(work / "otoc_a.json"), "--observable-b", str(work / "otoc_b.json"),
            "--n-samples", "2000", "--seed", str(seed), "--output-dir", str(out),
        ]  # fmt: skip
        run("estimate-unitary", argv, out / "estimate.json")
        out = work / "estimate-kraus-n1"
        argv = [
            "estimate", str(work / "estimate_kraus.json"),
            "--observable-a", str(work / "a.json"), "--observable-b", str(work / "b.json"),
            "--n-samples", "1", "--seed", str(seed), "--output-dir", str(out),
        ]  # fmt: skip
        run("estimate-kraus-n1", argv, out / "estimate.json")
        for name, spec in (("inspect-kraus", "kraus.json"), ("inspect-unitary", "unitary.json")):
            run(name, ["inspect", str(work / spec), "--output-dir", str(work / name)], work / name / "report.json")
        for na in ("4", "0"):
            out = work / f"scaling-na{na}"
            argv = [
                "scaling", "--n", "8", "--na", na, "--nb", "2", "--n-values", "10,50", "--trials", "2",
                "--seed", str(seed), "--output-dir", str(out),
            ]  # fmt: skip
            run(f"scaling-na{na}", argv, out / "scaling.csv")
        out = work / "scaling-n7"
        argv = [
            "scaling", "--n", "7", "--na", "3", "--nb", "2", "--g", "0.6", "--h", "-1.3", "--n-values", "10,50",
            "--trials", "2", "--seed", str(seed), "--output-dir", str(out),
        ]  # fmt: skip
        run("scaling-n7", argv, out / "scaling.csv")
        out = work / "thermalize-n9"
        argv = [
            "thermalize", "--n", "9", "--pol", "y", "--obs", "z", "--t-max", "2",
            "--seed", str(seed), "--output-dir", str(out),
        ]  # fmt: skip
        run("thermalize-n9", argv, out / "thermalize.csv")
        out = work / "thermalize-n10-y"
        argv = ["thermalize", "--n", "10", "--pol", "y", "--seed", str(seed), "--output-dir", str(out)]
        run("thermalize-n10-y", argv, out / "thermalize.csv")


if __name__ == "__main__":
    main(int(sys.argv[1]))
