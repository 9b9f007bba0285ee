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
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import _BLAS_THREAD_VARS, __version__
from .channels import KrausChannel, _matrix_from_json, dilation_dim, load_channel, validate_channel
from .dual import distance_table, dual_ensemble, estimate_observable
from .otoc import OtocSpec, otoc_estimate, otoc_exact
from .spinchain import (
    DEFAULT_G,
    DEFAULT_H,
    KRYLOV_MAX,
    distance_scaling_experiment,
    sector_dim,
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


def _write_result(args: argparse.Namespace, t0: float, name: str, result, columns=None, **fields) -> Path:
    """Write result to --output-dir/name, then the manifest that hashes it.

    With columns, result is a list of rows written as CSV under that header;
    otherwise it is written as strict JSON. fields are added to the manifest.
    """
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    if columns is None:
        _write_json(path, result)
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_fmt(row[c]) for c in columns] for row in result)
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "seed": args.seed,
        "version": __version__,
        "environment": _environment(),
        "wall_clock_s": time.monotonic() - t0,
        "outputs": {name: hashlib.sha256(path.read_bytes()).hexdigest()},
        **fields,
    }
    _write_json(outdir / "manifest.json", manifest)
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


def _channel_elements(ch, n_rows: int = 0, *formed: str) -> dict[str, int]:
    """Elements of the arrays a channel command holds, for the budget.

    Validation copies a Kraus stack (its SVD fits inside) and forms its
    d_a x d_a Gram, or U^dag U for a channel that carries a unitary. Sampling
    draws n_rows vectors on the environment of the channel's minimal
    Stinespring isometry, d_env = r entries for a Kraus stack; formed names
    what the command builds from them: state_rows, row_blocks (block m of
    every row), exact_dual or quadratic_form (the d_b x d_env x d_env
    products a dense A sums into its d_env-square form).
    """
    d_env, d = dilation_dim(ch) // ch.d_b, ch.d_b * ch.d_a
    if isinstance(ch, KrausChannel):
        elements = {"kraus_stack": ch.operators.size, "kraus_gram": ch.d_a * ch.d_a}
    else:
        elements = {"unitary": ch.d_u * ch.d_u}
    if n_rows:
        elements["haar_draws"] = n_rows * d_env
    sizes = {"state_rows": n_rows * d, "row_blocks": n_rows * ch.d_a, "exact_dual": d * d}
    sizes["quadratic_form"] = ch.d_b * d_env * d_env
    return elements | {name: sizes[name] for name in formed}


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


def _channel_inputs(args: argparse.Namespace, n_rows: int, *formed: str):
    """The channel and, if the command takes them, observables A and B:
    loaded (config), priced with n_rows samples and the formed arrays
    (budget), then validated, in that order."""
    ch = _load_channel(args.channel)
    observables = [_load_observable(getattr(args, k)) for k in ("observable_a", "observable_b") if k in args]
    _check_budget(args.force, **_channel_elements(ch, n_rows, *formed))
    _require_valid(validate_channel(ch))
    return ch, *observables


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}: {exc}") from exc
    if not values or min(values) < 1:
        raise ConfigError(f"need a nonempty list of positive integers, got {text!r}")
    return values


def _at_least(minimum: int):
    """argparse type for an integer count flag of at least minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_inspect(args: argparse.Namespace) -> None:
    t0 = time.monotonic()
    ch = _load_channel(args.channel)
    _check_budget(args.force, **_channel_elements(ch))
    diag = validate_channel(ch)
    report = {**asdict(diag), "choi_spectrum": [float(x) for x in diag.choi_spectrum], "is_valid": diag.is_valid}
    print(json.dumps(_finite_or_null(report), indent=2, sort_keys=True, allow_nan=False))
    if args.output_dir is not None:
        _write_result(args, t0, "report.json", report)
    _require_valid(diag)


def cmd_estimate(args: argparse.Namespace) -> None:
    t0 = time.monotonic()
    # no rows: X = B(VA) is the size of V, which fits in the stack or the unitary
    ch, a, b = _channel_inputs(args, args.n_samples, "quadratic_form")
    ens = dual_ensemble(ch, args.n_samples, args.seed)
    rep = estimate_observable(ens, a, b)
    path = _write_result(args, t0, "estimate.json", asdict(rep))
    print(f"estimate {_fmt(rep.estimate)} +- {_fmt(rep.sigma_n)} -> {path}")


def cmd_dual_distance(args: argparse.Namespace) -> None:
    t0 = time.monotonic()
    (ch,) = _channel_inputs(args, max(args.n_values), "state_rows", "exact_dual")
    rows = distance_table(ch, args.n_values, args.trials, args.seed)
    path = _write_result(args, t0, "distances.csv", rows, DISTANCE_COLUMNS)
    print(f"{len(rows)} rows -> {path}")


def cmd_otoc(args: argparse.Namespace) -> None:
    t0 = time.monotonic()
    n = 2 * args.pairs
    # the all-pairs A s^T and min(N, d_a)-square product fit in the row blocks
    ch, a, b = _channel_inputs(args, n, "row_blocks")
    try:
        spec = OtocSpec(ch, a, b)
    except TypeError as exc:
        raise ValidationFailure(str(exc)) from exc
    ens = dual_ensemble(spec.channel, n, args.seed)
    rep = otoc_estimate(spec, ens, pairing=args.pairing)
    out = {
        "estimate": rep.estimate,
        "exact": otoc_exact(spec),
        "sigma": rep.sigma_n,
        "pairs": rep.n_samples,
    }
    path = _write_result(args, t0, "otoc.json", out)
    print(f"otoc estimate {_fmt(out['estimate'])} (exact {_fmt(out['exact'])}) -> {path}")


def cmd_thermalize(args: argparse.Namespace) -> None:
    t0 = time.monotonic()
    if args.t_step <= 0 or args.t_max < 0:
        raise ConfigError("need t_step > 0 and t_max >= 0")
    # exact in rationals: t_max / t_step can overflow a float
    n_times = math.floor(Fraction(args.t_max + 1e-9) / Fraction(args.t_step)) + 1
    # the Krylov basis: min(m, KRYLOV_MAX) + 1 vectors on the m-dimensional
    # mirror-even sector; past 62 sites its bound (KRYLOV_MAX + 1) 2^n, priced as a pair
    m = sector_dim(args.n) if args.n <= 62 else 0
    _check_budget(
        args.force,
        krylov_basis=(min(m, KRYLOV_MAX) + 1) * m if m else (KRYLOV_MAX + 1, args.n),
        haar_draws=(args.n_samples, args.n - 1),
        time_grid=n_times,
    )
    rows = thermalization_experiment(
        n=args.n,
        polarization=args.pol,
        times=np.arange(0.0, args.t_max + 1e-9, args.t_step),
        n_samples=args.n_samples,
        seed=args.seed,
        observable=args.obs,
        g=args.g,
        h=args.h,
    )
    within = sum(abs(row["estimate"] - row["exact"]) <= row["bound"] for row in rows)
    share = within / len(rows) if rows else None
    path = _write_result(args, t0, "thermalize.csv", rows, THERMALIZE_COLUMNS, within_bound_share=share)
    print(f"{len(rows)} time points -> {path}")


def cmd_scaling(args: argparse.Namespace) -> None:
    t0 = time.monotonic()
    n_a = args.n if args.na is None else args.na
    # the split sets the sizes, so it is checked before they are priced
    if not (0 <= n_a <= args.n and 1 <= args.nb <= args.n):
        raise ValidationFailure(f"need 0 <= na <= n and 1 <= nb <= n, got na={n_a}, nb={args.nb}, n={args.n}")
    _check_budget(
        args.force,
        dense_matrix=(1, 2 * max(args.n, n_a + args.nb)),
        state_rows=(max(args.n_values), n_a + args.nb),
        haar_draws=(max(args.n_values), args.n - args.nb),
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
    path = _write_result(args, t0, "scaling.csv", rows, DISTANCE_COLUMNS)
    print(f"{len(rows)} rows -> {path}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="randual", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def channel(p, help: str = "channel spec JSON file", b_help: str | None = None) -> None:
        p.add_argument("channel", help=help)
        if b_help is not None:
            p.add_argument("--observable-a", required=True, help="input observable (JSON or path)")
            p.add_argument("--observable-b", required=True, help=b_help)

    def sizes(p) -> None:
        p.add_argument(
            "--n-values",
            type=_parse_int_list,
            default=[10, 50, 100, 500],
            help="comma-separated ensemble sizes (default 10,50,100,500)",
        )
        p.add_argument("--trials", type=_at_least(1), default=20, help="trials per size (default 20)")

    def chain(p) -> None:
        p.add_argument("--n", type=_at_least(2), required=True, help="spins in the chain")
        p.add_argument("--g", type=_finite_float, default=DEFAULT_G, help=f"transverse field (default {DEFAULT_G})")
        p.add_argument("--h", type=_finite_float, default=DEFAULT_H, help=f"longitudinal field (default {DEFAULT_H})")

    p = command("inspect", cmd_inspect, "validate a channel spec and print diagnostics")
    channel(p)

    p = command("estimate", cmd_estimate, "estimate tr[X(A)B] from random dual states")
    channel(p, b_help="output observable (JSON or path)")
    p.add_argument("--n-samples", type=_at_least(1), default=1000, help="ensemble size (default 1000)")

    p = command("dual-distance", cmd_dual_distance, "estimator-to-exact-dual distance table")
    channel(p)
    sizes(p)

    p = command("otoc", cmd_otoc, "pair-sampled out-of-time-order correlator")
    channel(p, "channel spec JSON file (unitary_induced)", "rank-1 computational projector (JSON or path)")
    p.add_argument("--pairs", type=_at_least(1), default=1000, help="sample pairs (default 1000)")
    p.add_argument(
        "--pairing",
        choices=["disjoint", "all"],
        default="disjoint",
        help="disjoint pairs carry a valid sigma; all-pairs is lower variance, no sigma",
    )

    p = command("thermalize", cmd_thermalize, "Ising quench, exact vs randomized estimate")
    chain(p)
    p.add_argument("--pol", choices=["z", "y"], required=True, help="initial polarization axis")
    p.add_argument(
        "--obs",
        choices=["z", "y"],
        default=None,
        help="first-spin observable (default: same as --pol)",
    )
    p.add_argument("--n-samples", type=_at_least(1), default=200, help="samples per time point (default 200)")
    p.add_argument("--t-max", type=_finite_float, default=10.0, help="end of the time grid (default 10)")
    p.add_argument("--t-step", type=_finite_float, default=0.25, help="time step (default 0.25)")

    p = command("scaling", cmd_scaling, "estimator distance scaling in ensemble size")
    chain(p)
    p.add_argument("--na", type=int, default=None, help="input spins (default: n; 0 compresses the first nb spins' state)")
    p.add_argument("--nb", type=int, default=1, help="output spins (default 1)")
    p.add_argument("--t", type=_finite_float, default=1.0, help="evolution time (default 1)")
    sizes(p)

    # flags every subcommand shares, after its own; only inspect writes no files by default
    for name, p in sub.choices.items():
        output_dir = None if name == "inspect" else "."
        p.add_argument("--seed", type=_at_least(0), default=0, help="master seed (default 0)")
        p.add_argument(
            "--output-dir",
            default=output_dir,
            help="directory for output files" + ("" if output_dir else " (default: none)"),
        )
        p.add_argument("--force", action="store_true", help="run past the memory budget")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValidationFailure, ValueError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK
