"""Bayesian inference through relative belief.

The package computes how observing data changes belief in each value of a
marginal parameter, and builds estimators (LRSE, MAP, Bayes rules under
prior-driven losses), credible regions (highest posterior density,
relative surprise, lowest posterior loss), discretization experiments for
continuous parameters, and a seeded misclassification-risk simulator on top
of that single quantity.
"""

__version__ = "0.1.0"

from .errors import (
    HypothesisViolated,
    InfiniteSampleSpace,
    InvariantViolation,
    ModelSpecError,
    NonStochasticKernel,
    QuadratureFailure,
    RelBeliefError,
    SingularDesign,
    TooLargeForBruteForce,
    UnknownPsi,
    ZeroBinMass,
    ZeroEvidence,
)
from .model import (
    BeliefTables,
    FiniteModel,
    PredictiveTables,
    SampleSpaceTables,
    belief_tables,
    compute_posterior,
    marginalize,
    normalized,
    posterior_predictive,
    prior_predictive,
    sample_space_tables,
)
from .losses import (
    LossSpec,
    RiskReport,
    loss_value,
    parse_loss,
    posterior_risk,
    prior_risk,
)
from .estimators import (
    EstimateResult,
    bayes_rule,
    lrse,
    lrse_rule,
    map_estimate,
    map_rule,
    predict_lrse,
    unbiasedness_gap,
    uniform_unbiasedness_check,
)
from .regions import (
    CredibleRegion,
    attainable_gammas,
    eta_sweep,
    hpd_region,
    lpl_region,
    minimal_prior_size_check,
    region_distance,
    rs_region,
    tail_probability,
)
from .discretize import (
    ContinuousModel1D,
    RegularGrid,
    build_grid,
    capped_rule_refinement,
    eta_schedule,
    grid_lrse_refinement,
    grid_tables,
    region_refinement,
)
from .closed_form import (
    BetaBernoulliPredictor,
    BinomialClassifier,
    GaussianRegression,
    NormalNormalTestbed,
    classifier_risks,
    classify,
    gaussian_likelihood_ratio,
    predict_class,
    regression_estimates,
    regression_predict,
)
from .simulate import SimConfig, conditional_risk_mc, risk_table
from .modelfile import load_model, save_model

__all__ = [name for name in dir() if not name.startswith("_")]
