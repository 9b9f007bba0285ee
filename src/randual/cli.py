"""Command-line driver for channel inspection and the randomized experiments.

Subcommands
    inspect        validate a channel spec and print its diagnostics
    estimate       Monte-Carlo estimate of tr[X(A) B] from dual samples
    dual-distance  estimator-to-exact-dual distances across ensemble sizes
    otoc           pair-sampled out-of-time-order correlator
    thermalize     Ising-chain quench, exact vs randomized single-spin track
    scaling        Ising-chain estimator distance scaling in N

Exit codes: 0 success, 1 config error (bad flags, unreadable inputs),
2 validation failure (well-formed inputs that fail the math's checks),
3 resource cap (an array over MAX_UNFORCED_BYTES, refused without --force).
Every subcommand checks in that order: config, then budget, then validation.

File outputs land in --output-dir next to a manifest.json recording the
command, resolved config, seed, library version, environment (Python,
numpy, BLAS, thread variables) and sha256 of every file. Outputs are
deterministic per seed in a fixed environment, BLAS thread count included;
the manifest's wall_clock_s field is the one value that varies between
identical runs. CSV floats use 17 significant digits, JSON floats shortest
round-trip decimals; both parse back to the exact binary value. Non-finite
JSON floats are written as null.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import _BLAS_THREAD_VARS, __version__
from .channels import _matrix_from_json, dilation_dim, load_channel, validate_channel
from .dual import distance_table, dual_ensemble, estimate_observable
from .otoc import OtocSpec, otoc_estimate, otoc_exact
from .spinchain import (
    DEFAULT_G,
    DEFAULT_H,
    IsingConfig,
    ThermalizationRun,
    distance_scaling_experiment,
    thermalization_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

# one 4096 x 4096 complex matrix: the dense operators of a 12-site chain
MAX_UNFORCED_BYTES = 2**28
_BUDGET_LOG2 = MAX_UNFORCED_BYTES.bit_length() - 1

DISTANCE_COLUMNS = ["N", "trial", "hs_distance", "trace_distance", "bound"]
THERMALIZE_COLUMNS = ["time", "exact", "estimate", "sigma_n", "bound"]


class ConfigError(Exception):
    """Bad flags or unreadable input files; maps to exit code 1."""


class ValidationFailure(Exception):
    """Inputs parsed but failed a mathematical check; maps to exit code 2."""


class ResourceCapError(Exception):
    """A request over the memory budget without --force; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # validation-failure code; surface them as ConfigError instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_finite_or_null(obj), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _environment() -> dict:
    """What the byte-identity of reruns depends on: interpreter, numpy, BLAS
    and the thread variables (null when unset)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in ("RANDUAL_THREADS", *_BLAS_THREAD_VARS)},
    }


def _write_manifest(outdir: Path, args: argparse.Namespace, t0: float, files: list[Path]) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "environment": _environment(),
        "wall_clock_s": time.monotonic() - t0,
        "outputs": {f.name: _sha256(f) for f in files},
    }
    _write_json(outdir / "manifest.json", manifest)


def _outdir(args: argparse.Namespace) -> Path:
    path = Path(args.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_channel(path: str):
    try:
        return load_channel(path)
    except OSError as exc:
        raise ConfigError(f"cannot read channel spec: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad channel spec {path}: {exc}") from exc


def _require_valid(diag) -> None:
    if not diag.is_valid:
        unitarity = diag.unitarity_residual
        raise ValidationFailure(
            f"channel fails validation: tp_residual={diag.tp_residual:.3e}, "
            f"choi_min_eigenvalue={diag.choi_min_eigenvalue:.3e}"
            + ("" if unitarity is None else f", unitarity_residual={unitarity:.3e}")
        )


def _check_budget(force: bool, **elements: int | tuple[int, int]) -> None:
    """Refuse, unless forced, a command whose largest array exceeds MAX_UNFORCED_BYTES.

    elements names each array the command is about to allocate with its
    element count at 16 bytes each (complex128): an exact int m, or a pair
    (m, e) for m * 2^e. Pairs are compared by exponent, so pricing 2^(2n)
    elements costs nothing even when n is absurd.
    """

    def log2_bytes(m: int, e: int) -> float:
        return math.log2(m) + e + 4 if m else -math.inf

    sizes = {k: v if isinstance(v, tuple) else (v, 0) for k, v in elements.items()}
    name, (m, e) = max(sizes.items(), key=lambda item: log2_bytes(*item[1]))
    # with m >= 1, 2^(e+4) bytes past the budget settles it without building m << e
    over = m > 0 and (e + 4 > _BUDGET_LOG2 or 16 * m << e > MAX_UNFORCED_BYTES)
    if over and not force:
        raise ResourceCapError(
            f"the {name.replace('_', ' ')} needs 2^{log2_bytes(m, e):.1f} bytes, "
            f"which exceeds the budget of 2^{_BUDGET_LOG2} bytes; "
            "pass --force to proceed"
        )


def _channel_elements(ch, n_rows: int = 0) -> dict[str, int]:
    # dense: Choi matrix, dilation, exact dual, estimator, otoc's kron(B^t, A);
    # rows: the sampled dual states, d_b * d_a wide; draws: one Haar vector on
    # the dilation's environment per row, wider than a row when d_b^2 < ancilla
    d_u = dilation_dim(ch)
    dense = max(d_u, ch.d_a * ch.d_b)
    return {
        "dense_matrix": dense * dense,
        "state_rows": n_rows * ch.d_b * ch.d_a,
        "haar_draws": n_rows * (d_u // ch.d_b),
    }


def _load_observable(text: str) -> np.ndarray:
    """Observable matrix from inline JSON or a JSON file path.

    Uses the channel-spec matrix encoding: rows of [re, im] pairs.
    """
    try:
        if text.lstrip().startswith("["):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as f:
                data = json.load(f)
        return _matrix_from_json(data)
    except OSError as exc:
        raise ConfigError(f"cannot read observable: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad observable matrix: {exc}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}: {exc}") from exc
    if not values or min(values) < 1:
        raise ConfigError(f"need a nonempty list of positive integers, got {text!r}")
    return values


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _require_at_least(value: int, minimum: int, flag: str) -> None:
    if value < minimum:
        raise ConfigError(f"{flag} must be at least {minimum}, got {value}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_inspect(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    ch = _load_channel(args.channel)
    _check_budget(args.force, **_channel_elements(ch))
    diag = validate_channel(ch)
    report = {
        "kind": diag.kind,
        "d_a": diag.d_a,
        "d_b": diag.d_b,
        "tp_residual": diag.tp_residual,
        "choi_min_eigenvalue": diag.choi_min_eigenvalue,
        "choi_trace": diag.choi_trace,
        "unitarity_residual": diag.unitarity_residual,
        "kraus_rank": diag.kraus_rank,
        "choi_spectrum": [float(x) for x in diag.choi_spectrum],
        "is_valid": diag.is_valid,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output_dir is not None:
        outdir = _outdir(args)
        path = outdir / "report.json"
        _write_json(path, report)
        _write_manifest(outdir, args, t0, [path])
    _require_valid(diag)
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    _require_at_least(args.n_samples, 1, "--n-samples")
    ch = _load_channel(args.channel)
    a = _load_observable(args.observable_a)
    b = _load_observable(args.observable_b)
    _check_budget(args.force, **_channel_elements(ch, args.n_samples))
    _require_valid(validate_channel(ch))
    ens = dual_ensemble(ch, args.n_samples, args.seed)
    rep = estimate_observable(ens, a, b)
    out = {
        "estimate": rep.estimate,
        "empirical_sigma": rep.empirical_sigma,
        "analytic_sigma_bound": rep.analytic_sigma_bound,
        "sigma_n": rep.sigma_n,
        "n_samples": rep.n_samples,
    }
    outdir = _outdir(args)
    path = outdir / "estimate.json"
    _write_json(path, out)
    _write_manifest(outdir, args, t0, [path])
    print(f"estimate {_fmt(rep.estimate)} +- {_fmt(rep.sigma_n)} -> {path}")
    return EXIT_OK


def cmd_dual_distance(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    _require_at_least(args.trials, 1, "--trials")
    ch = _load_channel(args.channel)
    _check_budget(args.force, **_channel_elements(ch, max(args.n_values)))
    _require_valid(validate_channel(ch))
    rows = distance_table(ch, args.n_values, args.trials, args.seed)
    outdir = _outdir(args)
    path = outdir / "distances.csv"
    _write_csv(path, DISTANCE_COLUMNS, rows)
    _write_manifest(outdir, args, t0, [path])
    print(f"{len(rows)} rows -> {path}")
    return EXIT_OK


def cmd_otoc(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    _require_at_least(args.pairs, 1, "--pairs")
    ch = _load_channel(args.channel)
    a = _load_observable(args.observable_a)
    b = _load_observable(args.observable_b)
    _check_budget(args.force, **_channel_elements(ch, 2 * args.pairs))
    _require_valid(validate_channel(ch))
    try:
        spec = OtocSpec(ch, a, b)
    except TypeError as exc:
        raise ValidationFailure(str(exc)) from exc
    ens = dual_ensemble(spec.channel, 2 * args.pairs, args.seed)
    rep = otoc_estimate(spec, ens, pairing=args.pairing)
    out = {
        "estimate": rep.estimate,
        "exact": otoc_exact(spec),
        "sigma": rep.sigma_n,
        "pairs": rep.n_samples,
    }
    outdir = _outdir(args)
    path = outdir / "otoc.json"
    _write_json(path, out)
    _write_manifest(outdir, args, t0, [path])
    print(f"otoc estimate {_fmt(out['estimate'])} (exact {_fmt(out['exact'])}) -> {path}")
    return EXIT_OK


def cmd_thermalize(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    _require_at_least(args.n, 2, "--n")
    _require_at_least(args.n_samples, 1, "--n-samples")
    if args.t_step <= 0 or args.t_max < 0:
        raise ConfigError("need t_step > 0 and t_max >= 0")
    # exact in rationals: t_max / t_step can overflow a float
    n_times = math.floor(Fraction(args.t_max + 1e-9) / Fraction(args.t_step)) + 1
    _check_budget(
        args.force,
        dense_matrix=(1, 2 * args.n),
        state_rows=(args.n_samples, args.n + 1),
        time_grid=n_times,
    )
    times = np.arange(0.0, args.t_max + 1e-9, args.t_step)
    run = ThermalizationRun(
        config=IsingConfig(args.n, args.g, args.h),
        polarization=args.pol,
        observable=args.obs,
        times=times,
        n_samples=args.n_samples,
        seed=args.seed,
    )
    rows = thermalization_experiment(run)
    outdir = _outdir(args)
    path = outdir / "thermalize.csv"
    _write_csv(path, THERMALIZE_COLUMNS, rows)
    _write_manifest(outdir, args, t0, [path])
    print(f"{len(rows)} time points -> {path}")
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    _require_at_least(args.n, 2, "--n")
    _require_at_least(args.trials, 1, "--trials")
    n_a = args.n if args.na is None else args.na
    # the split sets the sizes, so it is checked before they are priced
    if not (1 <= n_a <= args.n and 1 <= args.nb <= args.n):
        raise ValidationFailure(f"need 1 <= na, nb <= n, got na={n_a}, nb={args.nb}, n={args.n}")
    _check_budget(
        args.force,
        dense_matrix=(1, 2 * max(args.n, n_a + args.nb)),
        state_rows=(max(args.n_values), args.n + args.nb),
    )
    rows = distance_scaling_experiment(
        n=args.n,
        n_a=n_a,
        n_b=args.nb,
        t=args.t,
        n_values=args.n_values,
        trials=args.trials,
        seed=args.seed,
        g=args.g,
        h=args.h,
    )
    outdir = _outdir(args)
    path = outdir / "scaling.csv"
    _write_csv(path, DISTANCE_COLUMNS, rows)
    _write_manifest(outdir, args, t0, [path])
    print(f"{len(rows)} rows -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="randual", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, output_dir: str | None = ".") -> None:
        p.add_argument("--seed", type=_non_negative_int, default=0, help="master seed (default 0)")
        p.add_argument(
            "--output-dir",
            default=output_dir,
            help="directory for output files" + ("" if output_dir else " (default: none)"),
        )
        p.add_argument("--force", action="store_true", help="run past the memory budget")

    p = sub.add_parser("inspect", help="validate a channel spec and print diagnostics")
    p.add_argument("channel", help="channel spec JSON file")
    common(p, output_dir=None)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("estimate", help="estimate tr[X(A)B] from random dual states")
    p.add_argument("channel", help="channel spec JSON file")
    p.add_argument("--observable-a", required=True, help="input observable (JSON or path)")
    p.add_argument("--observable-b", required=True, help="output observable (JSON or path)")
    p.add_argument("--n-samples", type=int, default=1000, help="ensemble size (default 1000)")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("dual-distance", help="estimator-to-exact-dual distance table")
    p.add_argument("channel", help="channel spec JSON file")
    p.add_argument(
        "--n-values",
        type=_parse_int_list,
        default=[10, 50, 100, 500],
        help="comma-separated ensemble sizes (default 10,50,100,500)",
    )
    p.add_argument("--trials", type=int, default=20, help="trials per size (default 20)")
    common(p)
    p.set_defaults(func=cmd_dual_distance)

    p = sub.add_parser("otoc", help="pair-sampled out-of-time-order correlator")
    p.add_argument("channel", help="channel spec JSON file (unitary_induced)")
    p.add_argument("--observable-a", required=True, help="input observable (JSON or path)")
    p.add_argument(
        "--observable-b", required=True, help="rank-1 computational projector (JSON or path)"
    )
    p.add_argument("--pairs", type=int, default=1000, help="sample pairs (default 1000)")
    p.add_argument(
        "--pairing",
        choices=["disjoint", "all"],
        default="disjoint",
        help="disjoint pairs carry a valid sigma; all-pairs is lower variance, no sigma",
    )
    common(p)
    p.set_defaults(func=cmd_otoc)

    p = sub.add_parser("thermalize", help="Ising quench, exact vs randomized estimate")
    p.add_argument("--n", type=int, required=True, help="spins in the chain")
    p.add_argument("--g", type=_finite_float, default=DEFAULT_G, help=f"transverse field (default {DEFAULT_G})")
    p.add_argument("--h", type=_finite_float, default=DEFAULT_H, help=f"longitudinal field (default {DEFAULT_H})")
    p.add_argument("--pol", choices=["z", "y"], required=True, help="initial polarization axis")
    p.add_argument(
        "--obs",
        choices=["z", "y"],
        default=None,
        help="first-spin observable (default: same as --pol)",
    )
    p.add_argument("--n-samples", type=int, default=200, help="samples per time point (default 200)")
    p.add_argument("--t-max", type=_finite_float, default=10.0, help="end of the time grid (default 10)")
    p.add_argument("--t-step", type=_finite_float, default=0.25, help="time step (default 0.25)")
    common(p)
    p.set_defaults(func=cmd_thermalize)

    p = sub.add_parser("scaling", help="estimator distance scaling in ensemble size")
    p.add_argument("--n", type=int, required=True, help="spins in the chain")
    p.add_argument("--na", type=int, default=None, help="input spins (default: n)")
    p.add_argument("--nb", type=int, default=1, help="output spins (default 1)")
    p.add_argument("--t", type=_finite_float, default=1.0, help="evolution time (default 1)")
    p.add_argument(
        "--n-values",
        type=_parse_int_list,
        default=[10, 50, 100, 500],
        help="comma-separated ensemble sizes (default 10,50,100,500)",
    )
    p.add_argument("--trials", type=int, default=20, help="trials per size (default 20)")
    p.add_argument("--g", type=_finite_float, default=DEFAULT_G, help=f"transverse field (default {DEFAULT_G})")
    p.add_argument("--h", type=_finite_float, default=DEFAULT_H, help=f"longitudinal field (default {DEFAULT_H})")
    common(p)
    p.set_defaults(func=cmd_scaling)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValidationFailure, ValueError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
