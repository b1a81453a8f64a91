"""Two-stage fit: model search first, coefficients second.

Stage one runs the Metropolis-Hastings chain over inclusion vectors
and keeps the components whose posterior inclusion probability exceeds
1/2.  Stage two computes the exact conjugate posterior of the
coefficients and the noise level given that selected model, with
optional independent draws.  Both stages are resumable separately
through the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dictionary import DesignMatrix
from .gibbs import FitResult, GibbsConfig, run_gibbs
from .mh import (
    InclusionProbabilities,
    MHConfig,
    MHTrace,
    inclusion_probabilities,
    run_metropolis_hastings,
    select_median_probability_model,
)
from .posterior import MODE_P, MODE_SP, Hyperparameters, LatentState, PosteriorContext
from .stepmodel import TimeSeries


@dataclass(frozen=True)
class FitOutput:
    fit: FitResult
    mh_trace: MHTrace
    selection: LatentState


def build_context(series: TimeSeries, hyper: Hyperparameters,
                  design: DesignMatrix | None, mode: str) -> PosteriorContext:
    return PosteriorContext(series, hyper, design, mode)


def search(ctx: PosteriorContext, mh_config: MHConfig
           ) -> tuple[MHTrace, InclusionProbabilities, LatentState]:
    """Stage one: the chain, its post-burn-in inclusion probabilities and
    the median-probability model they select."""
    trace = run_metropolis_hastings(ctx, mh_config)
    incl = inclusion_probabilities(trace, mh_config.burn_in)
    return trace, incl, select_median_probability_model(incl)


def fit_series(series: TimeSeries, hyper: Hyperparameters,
               mh_config: MHConfig, gibbs_config: GibbsConfig,
               design: DesignMatrix | None = None) -> FitOutput:
    """Both stages on one series: mode sp with the given design, mode p
    without one.  ``out.fit.inclusion`` holds the search's inclusion
    probabilities."""
    ctx = build_context(series, hyper, design, MODE_P if design is None else MODE_SP)
    trace, incl, selection = search(ctx, mh_config)
    fit = run_gibbs(ctx, selection, gibbs_config, inclusion=incl)
    return FitOutput(fit=fit, mh_trace=trace, selection=selection)
