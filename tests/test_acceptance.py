"""Acceptance gate: one test per criterion, tolerances pinned inline.

Each test prints a single PASS line with its measured quantities; run with
``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the lines inline).
"""

import time

import numpy as np
import pytest

from relbelief import (
    BinomialClassifier,
    GaussianRegression,
    LossSpec,
    SimConfig,
    attainable_gammas,
    bayes_rule,
    belief_tables,
    classifier_risks,
    conditional_risk_mc,
    grid_tables,
    lpl_region,
    regression_estimates,
    regression_predict,
    rs_region,
    unbiasedness_gap,
    uniform_unbiasedness_check,
)
from relbelief.closed_form import NormalNormalTestbed
from relbelief.discretize import capped_rule_refinement, grid_lrse_refinement, region_refinement
from relbelief.estimators import lrse, lrse_rule
from conftest import anti_lrse_rule, geometric_testbed, model_corpus
from region_oracle import minimal_prior_size_check

# Conditional misclassification risk sums for the four Beta configurations
# at alpha=1, mu=1, n=10 (reference values reproduced at +-0.01).
REFERENCE_RISK_SUMS = {
    1.0: (0.776, 0.776),
    14.0: (0.977, 0.665),
    32.0: (0.997, 0.641),
    100.0: (1.000, 0.624),
}

ACCEPT_REPS = 1_000_000


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def accept_corpus():
    return model_corpus(200, seed=424242)


def test_criterion_01_exhaustive_bayes_search_finds_ratio_argmax(accept_corpus):
    started = time.perf_counter()
    loss = LossSpec.prior_based()
    checked = 0
    for model in accept_corpus:
        for x in range(model.n_x):
            tables = belief_tables(model, x)
            assert bayes_rule(loss, tables).psi_index in lrse(tables).argmax_set
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"{checked} decision points over 200 models, exact, {elapsed:.2f}s")


def test_criterion_02_loss_region_equals_ratio_region(accept_corpus):
    started = time.perf_counter()
    loss = LossSpec.prior_based()
    checked = 0
    for model in accept_corpus:
        for x in range(model.n_x):
            tables = belief_tables(model, x)
            for gamma in attainable_gammas(tables, "rs"):
                assert (
                    lpl_region(loss, tables, float(gamma)).members
                    == rs_region(tables, float(gamma)).members
                )
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, f"{checked} attainable levels matched exactly, {elapsed:.2f}s")


def test_criterion_03_capped_rule_stabilizes_on_countable_testbed():
    started = time.perf_counter()
    model = geometric_testbed()
    tables = belief_tables(model, 1)
    target = lrse(tables)
    bound = float(tables.marg_prior[target.psi_index])
    below = bound * np.array([0.99, 0.5, 0.1, 1e-3, 1e-6])
    for eta in below:
        assert bayes_rule(LossSpec.capped(float(eta)), tables).psi_index == target.psi_index
    above = [1.0, 1e-1, 1e-2]
    diverged = any(
        bayes_rule(LossSpec.capped(eta), tables).psi_index != target.psi_index
        for eta in above
    )
    assert diverged
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(3, f"stable below eta={bound:.3e}, diverges above, {elapsed:.2f}s")


def test_criterion_04_unbiasedness_signs(accept_corpus):
    started = time.perf_counter()
    loss = LossSpec.prior_based()
    for model in accept_corpus:
        rule = lrse_rule(model)
        assert unbiasedness_gap(loss, rule, model) >= -1e-12
        assert uniform_unbiasedness_check(rule, model).all()
    control_model = BinomialClassifier(
        psi1=0.01, psi2=0.99, epsilon=0.1
    ).to_finite_model()
    control_rule = anti_lrse_rule(control_model)
    control_gap = unbiasedness_gap(LossSpec.zero_one(), control_rule, control_model)
    assert control_gap < 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, f"200 models nonnegative, control gap {control_gap:.3f} < 0, {elapsed:.2f}s")


def test_criterion_05_risk_table_reproduction():
    started = time.perf_counter()
    sums = {}
    for beta_val, expected in REFERENCE_RISK_SUMS.items():
        cfg = SimConfig(alpha=1.0, beta=beta_val, mu=1.0, n=10,
                        reps=ACCEPT_REPS, seed=20120718)
        reports = conditional_risk_mc(cfg)
        got = (reports["map"].unweighted_sum, reports["lrse"].unweighted_sum)
        sums[beta_val] = got
        assert got[0] == pytest.approx(expected[0], abs=0.01)
        assert got[1] == pytest.approx(expected[1], abs=0.01)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    detail = "; ".join(
        f"beta={b:g}: {m:.3f}/{l:.3f}" for b, (m, l) in sums.items()
    )
    report(5, f"{detail} at reps={ACCEPT_REPS}, {elapsed:.1f}s")


def test_criterion_06_classifier_closed_forms_exact():
    model = BinomialClassifier(psi1=0.05, psi2=0.80, epsilon=0.05)
    lrse_sum = classifier_risks(model, "lrse").unweighted_sum
    map_sum = classifier_risks(model, "map").unweighted_sum
    assert lrse_sum == pytest.approx(0.25, abs=1e-15)
    assert map_sum == pytest.approx(1.0, abs=1e-15)
    report(6, f"lrse risk {lrse_sum}, map risk {map_sum}, exact")


def test_criterion_07_regression_identities():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n, k = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        n = max(n, k)
        w = rng.normal(size=k)
        w /= np.linalg.norm(w)
        model = GaussianRegression(
            X=rng.normal(size=(n, k)), y=rng.normal(size=n), w=w,
            sigma2=float(rng.uniform(0.1, 4.0)), tau2=float(rng.uniform(0.1, 4.0)),
        )
        est = regression_estimates(model)
        pred = regression_predict(model)
        scale = 1.0 + model.sigma2 / model.tau2
        assert pred.z_lrse == pytest.approx(scale * est.psi_lrse, rel=1e-10)

    diffuse = GaussianRegression(
        X=rng.normal(size=(10, 3)), y=rng.normal(size=10),
        w=rng.normal(size=3), sigma2=1.0, tau2=1e8,
    )
    est = regression_estimates(diffuse)
    plugin = float(diffuse.w @ est.mle)
    assert est.psi_lrse == pytest.approx(plugin, rel=1e-6)

    testbed = NormalNormalTestbed(tau=1.0, sigma=1.0)
    tables, grid = grid_tables(testbed.continuous_model(), 1.0, 0.05)
    best = lrse(tables)
    grid_err = abs(float(grid.representatives[best.psi_index]) - testbed.psi_lrse(1.0))
    assert grid_err <= grid.lam
    report(7, f"scale identity on 100 instances at 1e-10; diffuse-prior match at 1e-6; "
              f"grid error {grid_err:.4f} <= {grid.lam}")


def test_criterion_08_refinement_convergence():
    started = time.perf_counter()
    testbed = NormalNormalTestbed(tau=1.0, sigma=1.0)
    cmodel = testbed.continuous_model()
    lambdas = [0.2, 0.1, 0.05, 0.025]
    target = testbed.psi_lrse(1.0)

    capped_rows = capped_rule_refinement(cmodel, 1.0, lambdas, target)
    lrse_rows = grid_lrse_refinement(cmodel, 1.0, lambdas, target)
    assert all(r.within_lambda for r in capped_rows)
    assert all(r.within_lambda for r in lrse_rows)

    region_rows = region_refinement(cmodel, 1.0, 0.9, lambdas, [1e-2, 1e-4])
    finest = region_rows[-1]
    assert finest.rs_distance <= 0.01
    smallest_eta_distance = finest.capped_distances[-1][1]
    assert smallest_eta_distance <= 0.01

    rerun = region_refinement(cmodel, 1.0, 0.9, lambdas, [1e-2, 1e-4])
    assert rerun == region_rows  # deterministic

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(8, f"rule errors within bin width on {lambdas}; region distances "
              f"{finest.rs_distance:.4f}/{smallest_eta_distance:.4f} <= 0.01, {elapsed:.1f}s")


def test_criterion_09_prior_size_minimality_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    from relbelief.model import BeliefTables

    for _ in range(50):
        prior = rng.dirichlet(np.ones(10))
        post = rng.dirichlet(np.ones(10))
        tables = BeliefTables(
            marg_prior=prior, marg_post=post, rb=post / prior,
            psi_labels=tuple(f"p{i}" for i in range(10)),
        )
        levels = attainable_gammas(tables, "rs")
        gamma = float(levels[min(5, len(levels) - 1)])
        assert minimal_prior_size_check(tables, gamma)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(9, f"50 ten-point models, all 1024 subsets each, exact, {elapsed:.1f}s")


def test_criterion_10_scale_caveat():
    # The limit statements behind criteria 1-4 and 8-9 are checked through
    # property and oracle substitutes at desk scale; only criteria 5-7
    # reproduce quantitative published values.
    report(10, "criteria 1-4, 8-9 are property/oracle checks; 5-7 quantitative")
