"""The package's public names: the export list and their resolution on first use."""

import importlib
import inspect

import pytest

import relbelief
from conftest import fresh_python

PUBLIC_NAMES = [
    "BeliefTables", "BetaBernoulliPredictor", "BinomialClassifier", "ContinuousModel1D",
    "CredibleRegion", "EstimateResult", "FiniteModel", "GaussianRegression", "HypothesisViolated",
    "InfiniteSampleSpace", "InvariantViolation", "LossSpec", "ModelSpecError",
    "NormalNormalTestbed", "QuadratureFailure", "RegularGrid", "RelBeliefError", "RiskReport",
    "SampleSpaceTables", "SimConfig", "SingularDesign", "UnknownPsi", "ZeroBinMass",
    "ZeroEvidence", "attainable_gammas", "bayes_rule", "belief_tables",
    "build_grid", "capped_rule_refinement", "classifier_risks", "classify", "closed_form",
    "conditional_risk_mc", "discretize", "errors", "estimators",
    "eta_schedule", "eta_sweep", "exact_conditional_risk", "gaussian_likelihood_ratio",
    "grid_lrse_refinement", "grid_tables", "hpd_region", "load_model", "losses", "lpl_region",
    "lrse", "lrse_rule", "map_estimate", "map_rule", "model", "modelfile", "normalized",
    "parse_loss", "predict_class", "prior_risk", "quadrature",
    "refinement_experiments", "region_refinement", "regions", "regression_estimates",
    "regression_predict", "risk_table", "rs_region", "sample_space_tables", "save_model",
    "simulate", "tail_probability", "unbiasedness_gap", "uniform_unbiasedness_check",
]
SUBMODULES = ["closed_form", "discretize", "errors", "estimators", "losses", "model", "modelfile",
              "quadrature", "regions", "simulate"]


def test_export_list_is_unchanged():
    assert len(PUBLIC_NAMES) == 70
    assert relbelief.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_the_object_its_submodule_defines(name):
    value = getattr(relbelief, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"relbelief.{name}")
        return
    home = inspect.getmodule(value)
    assert home.__name__ in {f"relbelief.{m}" for m in SUBMODULES}
    assert value.__qualname__ == name and getattr(home, name) is value
    # Once resolved, the name is a plain attribute of the package.
    assert vars(relbelief)[name] is value


def test_dir_lists_every_export():
    assert set(PUBLIC_NAMES) <= set(dir(relbelief))
    assert "__version__" in dir(relbelief)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        relbelief.not_a_name
    assert not hasattr(relbelief, "cli_main")
    with pytest.raises(ImportError):
        exec("from relbelief import not_a_name", {})


def test_import_loads_no_submodule_and_star_binds_every_name():
    script = (
        "import sys, relbelief\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('relbelief.'))\n"
        "from relbelief import *\n"
        "print(loaded, len([n for n in relbelief.__all__ if n in globals()]))\n"
    )
    assert fresh_python(script) == "[] 70"
