"""One benchmark run: a fresh process that sets up a workload and runs its
CLI commands in a closed loop with one client.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT SPAWNED [--setup-only]

SPAWNED is the launcher's time.monotonic() just before it started this
process, so set-up time counts from process start. The run imports randual,
writes the workload's inputs and records set-up time; with --setup-only it
stops there. Otherwise it computes the check references, then repeats the
workload (one rep = every command of the workload, one after another, each
starting when the previous one returned) until SECONDS are used. With TRACE
set, every second rep runs with the tracer installed. Results go to RESULT
as JSON; the launcher reads them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

MIN_REPS = 3

THREAD_VARS = ("RANDUAL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    import randual

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "randual": randual.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(Path.cwd()),
    }


def run_rep(wl, tracer=None) -> dict:
    """Run every command of the workload once; the clock covers the first
    call to the last return and nothing else."""
    from randual import cli

    codes, cmd_s = [], []
    if tracer is not None:
        tracer.begin_rep()
    t0 = time.perf_counter()
    try:
        for cmd in wl.commands:
            c0 = time.perf_counter()
            try:
                code = cli.main(cmd.argv)
            except Exception as exc:  # a crash fails the command, not the run
                code = f"{type(exc).__name__}: {exc}"
            codes.append(code)
            cmd_s.append(time.perf_counter() - c0)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_rep()
    return {"wall_s": wall, "cmd_s": cmd_s, "codes": codes, "traced": tracer is not None}


def check_rep(wl, rep: dict, first_sha: dict) -> tuple[list[str], list[float], list[float]]:
    """Errors (one string per failed command), z-scores and slope errors.

    A command fails when it exits nonzero, when its output fails the
    workload check, when its result file does not match the sha256 its
    manifest records, or when that sha256 differs from the first rep's.
    """
    from workloads import read_manifest, sha256_file

    failures, zs, slopes = [], [], []
    for cmd, code in zip(wl.commands, rep["codes"]):
        errors = []
        if code != 0:
            errors.append(f"exit {code}")
        else:
            try:
                sha = read_manifest(cmd.outdir)["outputs"][cmd.result_file]
                if sha != sha256_file(cmd.outdir / cmd.result_file):
                    errors.append("result file does not match its manifest sha256")
                elif first_sha.setdefault(cmd.name, sha) != sha:
                    errors.append("result sha256 differs from the first rep with this seed")
                res = cmd.check(cmd.outdir)
                errors += res.errors
                zs += res.z_values
                if res.slope_err is not None:
                    slopes.append(res.slope_err)
            except (OSError, ValueError, KeyError) as exc:
                errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if errors:
            failures.append(f"{cmd.name}: " + "; ".join(errors))
    return failures, zs, slopes


def layer_metrics(tracer, traced_reps: list[dict], untraced_walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced rep with the median wall time.

    All self times come from that one rep, so they add up to no more than
    the traced wall_s reported next to them. Counts must repeat exactly in
    every traced rep; a count that does not is returned as an error.
    """
    from statistics import median

    import metrics

    errors = []
    walls = [r["wall_s"] for r in traced_reps]
    pick = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    counts = [metrics.rep_counts(tracer, i) for i in range(len(walls))]
    for i, c in enumerate(counts[1:], 1):
        if c != counts[0]:
            diff = sorted(k for k in c.keys() | counts[0].keys() if c.get(k) != counts[0].get(k))
            errors.append(f"traced rep {i}: counts differ from rep 0 in {diff}")
    out = metrics.layer_values(tracer, pick)
    out["trace.wall_s"] = walls[pick]
    out["trace.overhead_s"] = median(walls) - median(untraced_walls)
    total_self = sum(tracer.rep_self_times(pick).values())
    if total_self > walls[pick] * (1 + 1e-9):
        errors.append(f"self times add up to {total_self} s > traced wall {walls[pick]} s")
    return out, errors


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("trace", type=int)
    p.add_argument("workdir", type=Path)
    p.add_argument("result", type=Path)
    p.add_argument("spawned", type=float)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import randual  # noqa: F401  (maps RANDUAL_THREADS onto the BLAS pools)

    import workloads

    wl = workloads.build(args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(wl, args.seconds, bool(args.trace)))
        result["environment"] = environment()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def measure(wl, seconds: float, trace: bool) -> dict:
    from statistics import median

    wl.reference()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    reps, failures, zs, slopes, first_sha = [], [], [], [], {}
    t_begin = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(wl, tracer if traced else None)
        reps.append(rep)
        f, z, s = check_rep(wl, rep, first_sha)
        failures += f
        zs += z
        slopes += s
        elapsed = time.perf_counter() - t_begin
        n_traced = sum(r["traced"] for r in reps)
        enough = len(reps) >= MIN_REPS and (not trace or 0 < n_traced < len(reps))
        if enough and elapsed + median(r["wall_s"] for r in reps) > seconds:
            break
    out = {
        "reps": reps,
        "attempted": len(reps) * len(wl.commands),
        "failures": failures,
        "samples_per_rep": wl.samples_per_rep,
        "commands": [cmd.argv for cmd in wl.commands],
        "max_abs_z": max(zs) if zs else None,
        "hs_slope_err": max(slopes) if slopes else None,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        untraced = [r["wall_s"] for r in reps if not r["traced"]]
        layers, errors = layer_metrics(tracer, [r for r in reps if r["traced"]], untraced)
        out["layers"] = layers
        out["trace_errors"] = errors
    return out


if __name__ == "__main__":
    sys.exit(main())
