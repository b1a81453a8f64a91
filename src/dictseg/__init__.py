"""Bayesian multiple change-point detection in signals corrupted by a
dictionary-expanded functional disturbance.

The model search integrates the coefficients and the noise variance
out of the posterior and samples the two inclusion vectors by
Metropolis-Hastings; given the selected model, the coefficients and
the noise level have a conjugate Normal-Inverse-Gamma posterior whose
means are computed in closed form.
"""

from .benchmark import BenchmarkReport, ReplicateRow, run_benchmark
from .config import RunConfig, derive_seeds, load_config, parse_config, sensitivity_presets, serialize_config
from .dictionary import (
    DesignMatrix,
    exchange_design,
    fourier_design,
    load_design_matrix,
    resolve_design,
    simulation_design,
)
from .errors import ComputeError, DataError, DictsegError, ValidationError
from .gibbs import (
    FitResult,
    GibbsConfig,
    GibbsSampler,
    GibbsTrace,
    run_gibbs,
)
from .io import (
    EventPriorFile,
    apply_event_priors,
    load_event_priors,
    load_selection,
    load_series,
    write_results,
    write_selection,
)
from .metrics import functional_metrics, segmentation_metrics
from .mh import (
    InclusionProbabilities,
    MHConfig,
    MHTrace,
    inclusion_probabilities,
    intersect_selections,
    run_metropolis_hastings,
    select_median_probability_model,
)
from .pipeline import FitOutput, build_context, fit_series
from .posterior import (
    MODE_P,
    MODE_SP,
    Hyperparameters,
    LatentState,
    PosteriorContext,
    log_integrated_posterior,
)
from .simulate import SeriesTruth, disturbance, make_series, simulate_series, true_atom_indices
from .stepmodel import Segmentation, TimeSeries

__version__ = "0.1.0"
