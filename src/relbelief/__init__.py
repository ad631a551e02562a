"""Bayesian inference through relative belief.

The package computes how observing data changes belief in each value of a
marginal parameter, and builds estimators (LRSE, MAP, Bayes rules under
prior-driven losses), credible regions (highest posterior density,
relative surprise, lowest posterior loss), discretization experiments for
continuous parameters, and a seeded misclassification-risk simulator on top
of that single quantity.

Every public name is resolved on first use: ``relbelief.X`` imports the one
submodule that defines ``X`` and then keeps ``X`` as a plain attribute, so a
process loads only the submodules it touches.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the public names it defines.  The submodule's own name
# is exported too, so ``relbelief.simulate`` works without importing it first.
_SUBMODULE_NAMES = {
    "errors": (
        "HypothesisViolated", "InfiniteSampleSpace", "InvariantViolation", "ModelSpecError",
        "QuadratureFailure", "RelBeliefError", "SingularDesign", "UnknownPsi", "ZeroBinMass",
        "ZeroEvidence",
    ),
    "model": (
        "BeliefTables", "FiniteModel", "SampleSpaceTables", "belief_tables", "normalized",
        "sample_space_tables",
    ),
    "losses": ("LossSpec", "RiskReport", "parse_loss", "prior_risk"),
    "estimators": (
        "EstimateResult", "bayes_rule", "lrse", "lrse_rule", "map_estimate", "map_rule",
        "unbiasedness_gap", "uniform_unbiasedness_check",
    ),
    "regions": (
        "CredibleRegion", "attainable_gammas", "eta_sweep", "hpd_region", "lpl_region",
        "rs_region", "tail_probability",
    ),
    "discretize": (
        "ContinuousModel1D", "RegularGrid", "build_grid", "capped_rule_refinement",
        "eta_schedule", "grid_lrse_refinement", "grid_tables", "refinement_experiments",
        "region_refinement",
    ),
    "quadrature": (),
    "closed_form": (
        "BetaBernoulliPredictor", "BinomialClassifier", "GaussianRegression",
        "NormalNormalTestbed", "classifier_risks", "classify", "gaussian_likelihood_ratio",
        "predict_class", "regression_estimates", "regression_predict",
    ),
    "simulate": ("SimConfig", "conditional_risk_mc", "exact_conditional_risk", "risk_table"),
    "modelfile": ("load_model", "save_model"),
}
_HOME = {
    name: module
    for module, names in _SUBMODULE_NAMES.items()
    for name in (module, *names)
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = module if name in _SUBMODULE_NAMES else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
