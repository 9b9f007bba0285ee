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
3 resource cap (size refused without --force).

File outputs land in --output-dir next to a manifest.json recording the
command, resolved config, seed, library version and sha256 of every file.
Outputs are deterministic per seed; the manifest's wall_clock_s field is
the one value that varies between identical runs. CSV floats use 17
significant digits, JSON floats shortest round-trip decimals; both parse
back to the exact binary value. Non-finite JSON floats are written as null.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channels import _matrix_from_json, dilation_dim, load_channel, validate_channel
from .dual import distance_table, dual_ensemble, estimate_observable
from .otoc import OtocSpec, otoc_estimate, otoc_exact
from .spinchain import (
    DEFAULT_G,
    DEFAULT_H,
    DEFAULT_MAX_SITES,
    ResourceCapError,
    IsingConfig,
    ThermalizationRun,
    distance_scaling_experiment,
    thermalization_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

MAX_DILATION_UNFORCED = 8192

DISTANCE_COLUMNS = ["N", "trial", "hs_distance", "trace_distance", "bound"]
THERMALIZE_COLUMNS = ["time", "exact", "estimate", "sigma_n", "bound"]


class ConfigError(Exception):
    """Bad flags or unreadable input files; maps to exit code 1."""


class ValidationFailure(Exception):
    """Inputs parsed but failed a mathematical check; maps to exit code 2."""


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


def _write_manifest(outdir: Path, args: argparse.Namespace, t0: float, files: list[Path]) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
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


def _check_channel(ch) -> None:
    diag = validate_channel(ch)
    if not diag.is_valid:
        raise ValidationFailure(
            f"channel fails validation: tp_residual={diag.tp_residual:.3e}, "
            f"choi_min_eigenvalue={diag.choi_min_eigenvalue:.3e}"
            + (
                f", unitarity_residual={diag.unitarity_residual:.3e}"
                if diag.unitarity_residual is not None
                else ""
            )
        )


def _check_dilation_cap(ch, force: bool) -> None:
    d_u = dilation_dim(ch)
    if d_u > MAX_DILATION_UNFORCED and not force:
        need = d_u * d_u * 16 / 2**20
        raise ResourceCapError(
            f"dilated unitary dimension {d_u} exceeds {MAX_DILATION_UNFORCED} "
            f"(one dense complex matrix at this size is {need:.0f} MiB); "
            f"pass --force to proceed"
        )


def _check_sites_cap(n: int, force: bool) -> int:
    """Returns the max_sites budget to hand the library."""
    if n > DEFAULT_MAX_SITES and not force:
        need = (2**n) ** 2 * 16 / 2**20
        raise ResourceCapError(
            f"n={n} exceeds {DEFAULT_MAX_SITES} sites "
            f"(one dense complex matrix at this size is {need:.0f} MiB); "
            f"pass --force to proceed"
        )
    return max(n, DEFAULT_MAX_SITES)


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


def _require_at_least(value: int, minimum: int, flag: str) -> None:
    if value < minimum:
        raise ConfigError(f"{flag} must be at least {minimum}, got {value}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_inspect(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    ch = _load_channel(args.channel)
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
    if not diag.is_valid:
        print(
            f"validation failure: tp_residual={diag.tp_residual:.3e}, "
            f"choi_min_eigenvalue={diag.choi_min_eigenvalue:.3e}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    _require_at_least(args.n_samples, 1, "--n-samples")
    ch = _load_channel(args.channel)
    _check_channel(ch)
    _check_dilation_cap(ch, args.force)
    a = _load_observable(args.observable_a)
    b = _load_observable(args.observable_b)
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
    _check_channel(ch)
    _check_dilation_cap(ch, args.force)
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
    _check_channel(ch)
    _check_dilation_cap(ch, args.force)
    a = _load_observable(args.observable_a)
    b = _load_observable(args.observable_b)
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
    max_sites = _check_sites_cap(args.n, args.force)
    if args.t_step <= 0 or args.t_max < 0:
        raise ConfigError("need t_step > 0 and t_max >= 0")
    times = np.arange(0.0, args.t_max + 1e-9, args.t_step)
    run = ThermalizationRun(
        config=IsingConfig(args.n, args.g, args.h),
        polarization=args.pol,
        observable=args.obs,
        times=times,
        n_samples=args.n_samples,
        seed=args.seed,
    )
    rows = thermalization_experiment(run, max_sites=max_sites)
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
    max_sites = _check_sites_cap(args.n, args.force)
    n_a = args.n if args.na is None else args.na
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
        max_sites=max_sites,
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
        p.add_argument("--force", action="store_true", help="override the resource caps")

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
    p.add_argument("--g", type=float, default=DEFAULT_G, help=f"transverse field (default {DEFAULT_G})")
    p.add_argument("--h", type=float, default=DEFAULT_H, help=f"longitudinal field (default {DEFAULT_H})")
    p.add_argument("--pol", choices=["z", "y"], required=True, help="initial polarization axis")
    p.add_argument(
        "--obs",
        choices=["z", "y"],
        default=None,
        help="first-spin observable (default: same as --pol)",
    )
    p.add_argument("--n-samples", type=int, default=200, help="samples per time point (default 200)")
    p.add_argument("--t-max", type=float, default=10.0, help="end of the time grid (default 10)")
    p.add_argument("--t-step", type=float, default=0.25, help="time step (default 0.25)")
    common(p)
    p.set_defaults(func=cmd_thermalize)

    p = sub.add_parser("scaling", help="estimator distance scaling in ensemble size")
    p.add_argument("--n", type=int, required=True, help="spins in the chain")
    p.add_argument("--na", type=int, default=None, help="input spins (default: n)")
    p.add_argument("--nb", type=int, default=1, help="output spins (default 1)")
    p.add_argument("--t", type=float, default=1.0, help="evolution time (default 1)")
    p.add_argument(
        "--n-values",
        type=_parse_int_list,
        default=[10, 50, 100, 500],
        help="comma-separated ensemble sizes (default 10,50,100,500)",
    )
    p.add_argument("--trials", type=int, default=20, help="trials per size (default 20)")
    p.add_argument("--g", type=float, default=DEFAULT_G, help=f"transverse field (default {DEFAULT_G})")
    p.add_argument("--h", type=float, default=DEFAULT_H, help=f"longitudinal field (default {DEFAULT_H})")
    common(p)
    p.set_defaults(func=cmd_scaling)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, TypeError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
