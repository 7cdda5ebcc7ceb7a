"""Heavy-tailed model for the largest daily precipitation within a wet spell.

Evaluation of the limit law and its component distributions, seedable
samplers for all of its product representations, quantile / least-squares /
maximum-likelihood estimators, wet-period segmentation of daily series, and
uniform-distance goodness-of-fit machinery.
"""

from .distributions import (
    GammaParams,
    GGParams,
    ModelParams,
    MomentNotDefinedError,
    NegBinParams,
    gamma_pdf,
    gg_pdf,
    limit_cdf,
    limit_log_pdf,
    limit_moment,
    limit_pdf,
    limit_quantile,
    negbin_odds_mixing_density,
    negbin_pmf,
    negbin_prob_mixing_density,
    snedecor_fisher_density,
    stable_moment,
    stable_ratio_density,
    weibull_cdf,
)
from .estimation import (
    EstimationError,
    FitReport,
    MaximaSample,
    QuantileTriple,
    fit_least_squares,
    fit_mle,
    fit_negbin,
    fit_quantile,
    fit_quantile_tau_scan,
)
from .gof import GofResult, emit_plot_data, ks_model, tail_index
from .pipeline import (
    CensoringSpec,
    CsvFormatError,
    EmptySampleError,
    PrecipSeries,
    WetPeriods,
    build_maxima,
    durations,
    ingest_csv,
    segment,
)
from .samplers import (
    Representation,
    RepresentationDomainError,
    make_rng,
    sample_gamma,
    sample_limit,
    sample_negbin,
    sample_negbin_odds,
    sample_stable_onesided,
    sample_stable_ratio,
    sample_weibull,
    simulate_prelimit_max,
)

__version__ = "0.1.0"
