"""Context-aware local privacy: optimal perturbation channels, posterior-mean
aggregation, privacy-notion audits, a trusted-curator baseline, and a
Monte-Carlo harness emitting utility-privacy tradeoff curves."""

from .analysis import (
    CurveRow,
    TradeoffCurve,
    mae,
    mse_binary,
    mse_binary_ldp_opt,
    mse_binary_lip_opt,
    mse_histogram,
    mse_mimo,
    mse_survey,
    tradeoff_curve,
)
from .cip import (
    CipInstance,
    CipSearchResult,
    EstimatorBand,
    cip_band,
    cip_mse_lower_bound,
    cip_search,
    lip_seed_mechanism,
    posterior_means_in_band,
)
from .core import (
    AggregationTask,
    Channel,
    Domain,
    Histogram,
    Population,
    Prior,
    Summation,
    Survey,
    WeightedSum,
    output_distribution,
    validate_channel,
)
from .estimators import (
    AggregateEstimate,
    PerUserPosterior,
    context_free_estimate,
    estimate,
    oue_count_estimate,
    oue_histogram_estimate,
    posterior,
)
from .harness import (
    ExperimentConfig,
    IngestResult,
    IngestSpec,
    generate_population,
    ingest,
    load_population,
    run_experiment,
    save_population,
)
from .mechanisms import (
    MechanismFamily,
    OUEChannel,
    budget_feasible_prior_floor,
    closed_form_lip_level,
    opt_binary_ldp,
    opt_binary_lip,
    opt_mimo_ldp,
    opt_mimo_lip,
    oue_channel,
    oue_counts,
    oue_perturb,
    perturb,
    perturb_indices,
    symmetric_rr,
)
from .notions import PrivacyAudit, audit, measure_ldp, measure_lip, measure_mip
from .oracles import (
    binary_mse_oracle,
    histogram_mse_oracle,
    mimo_mse_oracle,
    output_range_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
