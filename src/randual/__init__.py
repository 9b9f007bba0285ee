"""randual: random pure-state duals of quantum channels.

A channel from a d_a-dimensional input space to a d_b-dimensional output
space is encoded in an ensemble of random pure states on a (d_b * d_a)-
dimensional space. The ensemble mean is an exact dual state that pairs
linearly with observables, so channel evaluations, two-point functions and
out-of-time-order correlators become Monte Carlo averages over N samples
with errors decaying as 1/sqrt(N).
"""

import os as _os

# Opt-in thread control: translate RANDUAL_THREADS into the BLAS pool vars
# before numpy is first imported. Only acts when the variable is set and the
# BLAS vars are not already pinned by the caller.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_threads = _os.environ.get("RANDUAL_THREADS")
if _threads:
    for _var in _BLAS_THREAD_VARS:
        _os.environ.setdefault(_var, _threads)
del _os, _threads

__version__ = "0.1.0"

from . import channels, dual, linalg, otoc, rng, spinchain
from .channels import (
    ChannelDiagnostics,
    KrausChannel,
    PartialTrace,
    UnitaryChannel,
    apply_channel,
    channel_from_dict,
    channel_to_dict,
    kraus_operators,
    load_channel,
    save_channel,
    stinespring_dilate,
    validate_channel,
)
from .dual import (
    DistanceReport,
    DualStateEnsemble,
    EstimatorReport,
    distance_report,
    distance_table,
    dual_ensemble,
    dual_estimate,
    duality_pairing,
    estimate_observable,
    exact_dual,
    exact_dual_factor,
    rank1_variance_bound,
    sample_values,
    variance_bound,
)
from .otoc import OtocSpec, otoc_estimate, otoc_exact
from .rng import SeedSpec, child_seed, haar_state, haar_unitary
from .spinchain import (
    distance_scaling_experiment,
    ising_hamiltonian,
    thermalization_experiment,
)
