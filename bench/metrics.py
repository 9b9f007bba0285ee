"""Metric catalog: the end-to-end metrics of an untraced run and the
per-layer metrics of a traced one, with how each is computed.

Per-layer metrics, and the end-to-end metric each should move:
  rng.*                 wall_s, samples_per_s on distance; ~nothing on quench
  dual.*ensemble.self_s state construction without the rng spans;
                        wall_s, peak_rss_mb on distance
  dual.postselect_*     useful work of the postselected path (distance)
  dual.sample_values, variance_bound, estimate_observable   wall_s on quench
  dual.dual_estimate, distance_report, exact_dual*, dense_bytes
                        wall_s, peak_rss_mb on distance
  linalg eigensolve and evolution                           wall_s on quench
  linalg distances                                          wall_s on distance
  spinchain.*           wall_s on quench and distance
  channels.*            wall_s on distance (dilation per Kraus cell)
  otoc.*                wall_s on distance
  cli.main.self_s       wall_s everywhere; small
  trace.*               the cost of the measurement itself
  xcheck.*              per-call times at the sizes of the re-anchor baseline
"""
from __future__ import annotations

from statistics import median

END_TO_END = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

SELF_S = (
    "rng.seed_stream", "rng.haar_state",
    "dual.dual_ensemble", "dual.general_dual_ensemble",
    "dual.sample_values", "dual.variance_bound", "dual.estimate_observable",
    "dual.dual_estimate", "dual.distance_report",
    "dual.exact_dual", "dual.exact_dual_state", "dual.dual_from_choi",
    "linalg.hermitian_eig", "linalg.evolution_from_eig", "linalg.unitary_evolution",
    "linalg.trace_distance", "linalg.trace_norm", "linalg.hs_distance", "linalg.hs_norm",
    "spinchain.ising_hamiltonian", "spinchain.thermalization_experiment",
    "spinchain.distance_scaling_experiment",
    "channels.stinespring_dilate", "channels.choi_matrix", "channels.validate_channel",
    "channels.load_channel",
    "otoc.otoc_estimate", "otoc.otoc_exact",
    "cli.main",
)  # fmt: skip

CALLS = (
    "rng.seed_stream", "rng.haar_state", "rng.child_seed",
    "linalg.hermitian_eig", "linalg.evolution_from_eig",
    "channels.stinespring_dilate",
)  # fmt: skip

BYTES = ("dual.state_bytes", "dual.dense_bytes")

RATIOS = {
    # metric: (numerator counter, denominator counter); 0 when nothing was drawn
    "dual.postselect_kept_ratio": ("postselect.kept", "postselect.drawn"),
    "dual.postselect_ess_ratio": ("postselect.ess", "postselect.n"),
}

# Per-call times at the sizes of the ROADMAP baseline table; 0 on a workload
# that never makes the call at that size.
XCHECK = {
    "xcheck.variance_bound_n10.per_call_s": "variance_bound_d1024",
    "xcheck.hermitian_eig_n10.per_call_s": "hermitian_eig_d1024",
    "xcheck.dual_estimate_N500_d512.per_call_s": "dual_estimate_N500_d512",
}

TRACE = ("trace.overhead_s", "trace.wall_s")


def per_layer() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction."""
    out = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = ("s", "lower")
    for name in CALLS:
        out[f"{name}.calls"] = ("count", "lower")
    for name in BYTES:
        out[name] = ("bytes", "lower")
    for name in RATIOS:
        out[name] = ("ratio", "higher")
    for name in XCHECK:
        out[name] = ("s", "lower")
    for name in TRACE:
        out[name] = ("s", "lower")
    return out


def rep_counts(tracer, rep: int) -> dict:
    """Call counts of every span and the computed byte counts of one traced rep."""
    counts = {f"{k}.calls": v for k, v in tracer.rep_calls(rep).items()}
    counters = tracer.counters[rep]
    counts.update({k: counters[k] for k in BYTES})
    return counts


def layer_values(tracer, rep: int) -> dict[str, float]:
    """Per-layer metrics of one traced rep, trace.* excepted."""
    selfs = tracer.rep_self_times(rep)
    calls = tracer.rep_calls(rep)
    counters = tracer.counters[rep]
    per_call = tracer.rep_per_call(rep)
    out: dict[str, float] = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in BYTES:
        out[name] = counters[name]
    for name, (num, den) in RATIOS.items():
        out[name] = counters[num] / counters[den] if counters[den] else 0.0
    for name, key in XCHECK.items():
        out[name] = median(per_call[key]) if key in per_call else 0.0
    return out
