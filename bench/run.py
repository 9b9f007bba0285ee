"""Benchmark of the randual CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload quench|distance --seed N \\
        --seconds S --trace 0|1

Run it from the repository root; nothing needs installing. Each run starts
fresh Python processes with PYTHONPATH set to this checkout's absolute `src`
directory and RANDUAL_THREADS=1, which pins BLAS to one thread. Set-up is
measured in SETUP_RUNS processes, half before and half after the measuring
one, and reported as their median; the measuring process runs the
workload's CLI commands in a closed loop (one client, each command starting
when the previous one returned) for S seconds and checks every output.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. attempted and failed count CLI commands; a
command fails when it exits nonzero, when its output fails its check, or
when its result file's sha256 differs from the first rep with the same seed.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The lines before it give every metric with its unit and
sample count, the command lines, and the environment record.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("quench", "distance")
SETUP_RUNS = 7
# Every run, set-up processes included, ends within this many seconds.
RUN_BUDGET_S = 170.0


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    k = len(v) - 10
    if k < 1:
        return f"no tail percentile (n={len(v)} < 11)"
    return f"p{100 * k / len(v):.0f} {v[k - 1]:.6g}"


def spawn(args, workdir: Path, result: Path, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)  # so RANDUAL_THREADS decides for every pool
    env["RANDUAL_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    argv = [
        sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
        str(args.seconds), str(args.trace), str(workdir), str(result),
    ]  # fmt: skip
    if setup_only:
        argv.append("--setup-only")
    argv.append(repr(time.monotonic()))  # last, so it is as late as possible
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("benchmark process ran out of time") from None
    if code != 0:
        raise RuntimeError(f"benchmark process exited with code {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "randual" / "__init__.py").is_file():
        print(f"error: no randual sources at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    base = Path.cwd() / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_RUNS - 1):
            if i == (SETUP_RUNS - 1) // 2:
                res = spawn(args, base / "run", base / "run.json", False, deadline)
            d = base / f"setup{i}"
            setups.append(spawn(args, d, base / f"setup{i}.json", True, deadline)["setup_s"])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    setups.append(res["setup_s"])
    report(args, res, setups)
    return 0


def report(args, res: dict, setups: list[float]) -> None:
    import metrics  # beside this file, first on sys.path when run as a script

    untraced = [r["wall_s"] for r in res["reps"] if not r["traced"]]
    rates = [res["samples_per_rep"] / w for w in untraced]
    failed = len(res["failures"])
    attempted = res["attempted"]
    e2e = {
        "wall_s": median(untraced),
        "samples_per_s": median(rates),
        "setup_s": median(setups),
        "peak_rss_mb": res["peak_rss_kib"] / 1024,
    }
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for argv in res["commands"]:
        print("# command: randual " + " ".join(argv))
    print("# environment " + json.dumps(res["environment"], sort_keys=True))
    for msg in res["failures"] + res.get("trace_errors", []):
        print(f"FAILED {msg}", file=sys.stderr)
    n = len(untraced)
    print(f"wall_s         median {e2e['wall_s']:.6g} s     {tail(untraced)}   n={n} reps")
    print(f"samples_per_s  median {e2e['samples_per_s']:.6g} 1/s   {tail(rates)}   n={n} reps, "
          f"{res['samples_per_rep']} samples per rep")  # fmt: skip
    print(f"setup_s        median {e2e['setup_s']:.6g} s     n={len(setups)} processes")
    print(f"peak_rss_mb    {e2e['peak_rss_mb']:.6g} MiB   n=1 process")
    print(f"failed_ops     {failed}/{attempted} = {failed / attempted:.6g} share   n={attempted} commands")
    if res["max_abs_z"] is not None:
        print(f"max_abs_z      {res['max_abs_z']:.6g} sigma   deterministic for the seed")
    if res["hs_slope_err"] is not None:
        print(f"hs_slope_err   {res['hs_slope_err']:.6g}   |slope + 1/2| of the worse distance table")

    if args.trace:
        units = {k: unit for k, (unit, _) in metrics.per_layer().items()}
        values = res["layers"]
        for name, value in values.items():
            print(f"{name:45s} {value:.6g} {units[name]}")
    else:
        units, values = metrics.END_TO_END, e2e
    metrics_out = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = failed == 0 and not res.get("trace_errors")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics_out}))


if __name__ == "__main__":
    sys.exit(main())
