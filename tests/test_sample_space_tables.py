"""Whole-sample-space tables and the sweeps built on them, against scalar oracles.

The oracles below are the per-x and cell-by-cell implementations the
vectorised sweeps replaced: one ``belief_tables`` call per sample point, one
scalar loss evaluation per (theta, x) cell.  Rules and the uniform
check must match them element for element; sums must match within 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    FiniteModel,
    InvariantViolation,
    LossSpec,
    belief_tables,
    prior_risk,
    sample_space_tables,
    unbiasedness_gap,
    uniform_unbiasedness_check,
)
from relbelief.estimators import TIE_RTOL, lrse_rule, map_rule
from relbelief.losses import conditional_sampling_table, h_vector
from conftest import anti_lrse_rule, fiber

ABS_TOL = 1e-12


# -- scalar oracles ---------------------------------------------------------


def oracle_first_tied_argmax(values) -> int:
    vals = np.asarray(values, dtype=float)
    best = float(vals.max())
    tol = TIE_RTOL * float(vals.max() - vals.min())
    return int(np.flatnonzero(vals >= best - tol)[0])


def oracle_rule(model, criterion) -> np.ndarray:
    return np.array(
        [oracle_first_tied_argmax(criterion(belief_tables(model, x))) for x in range(model.n_x)],
        dtype=np.intp,
    )


def oracle_conditional_sampling_table(model) -> np.ndarray:
    marg_prior = model.marginal_prior()
    out = np.zeros((model.n_psi, model.n_x))
    for j in range(model.n_psi):
        members = fiber(model, j)
        cond = model.prior[members] / marg_prior[j]
        out[j] = cond @ model.likelihood[members]
    return out


def oracle_unbiasedness_gap(loss, rule, model) -> float:
    marg_prior = model.marginal_prior()
    h = h_vector(loss, marg_prior)
    terms = []
    for x in range(model.n_x):
        tab = belief_tables(model, x)
        j = int(rule[x])
        evidence = sample_space_tables(model).evidence[x]
        terms.append(evidence * h[j] * (tab.marg_post[j] - marg_prior[j]))
    return math.fsum(terms)


def oracle_uniform_unbiasedness_check(rule, model) -> np.ndarray:
    marg_prior = model.marginal_prior()
    out = np.zeros(model.n_x, dtype=bool)
    for x in range(model.n_x):
        j = int(rule[x])
        out[x] = belief_tables(model, x).marg_post[j] >= marg_prior[j] * (1.0 - 1e-12)
    return out


def oracle_loss_value(loss, theta_index, psi_index, model) -> float:
    true_psi = int(model.psi_map[theta_index])
    if loss.kind == "ball":
        coords = model.psi_coords
        dist = float(np.linalg.norm(np.atleast_1d(coords[true_psi] - coords[psi_index])))
        return 0.0 if dist <= loss.radius else 1.0
    if true_psi == psi_index:
        return 0.0
    marg_prior = model.marginal_prior()
    if loss.kind == "zero-one":
        return 1.0
    if loss.kind == "prior-based":
        return 1.0 / float(marg_prior[true_psi])
    if loss.kind == "capped":
        return 1.0 / max(loss.eta, float(marg_prior[true_psi]))
    return float(loss.weights[true_psi])


def oracle_prior_risk(loss, rule, model):
    """(risk, per-class errors, unweighted sum, prior-weighted sum), cell by cell."""
    sampling = oracle_conditional_sampling_table(model)
    marg_prior = model.marginal_prior()
    per_class = np.array(
        [math.fsum(sampling[j, rule != j]) for j in range(model.n_psi)]
    )
    risk = math.fsum(
        model.prior[i] * model.likelihood[i, x] * oracle_loss_value(loss, i, int(rule[x]), model)
        for i in range(model.n_theta)
        for x in range(model.n_x)
    )
    return risk, per_class, math.fsum(per_class), math.fsum(per_class * marg_prior)


# -- model strategy -----------------------------------------------------------


@st.composite
def finite_models(draw):
    """Small row-stochastic models with exact ties, skewed priors and coordinates.

    Likelihood rows are drawn from a few integer templates, so fibers often
    share identical rows and the ratio or the posterior ties exactly.  Prior
    weights span up to twelve orders of magnitude.
    """
    n_psi = draw(st.integers(1, 4))
    n_theta = draw(st.integers(n_psi, 12))
    n_x = draw(st.integers(1, 5))
    extra = draw(st.lists(st.integers(0, n_psi - 1), min_size=n_theta - n_psi, max_size=n_theta - n_psi))
    psi_map = draw(st.permutations(list(range(n_psi)) + extra))
    exponents = draw(st.lists(st.sampled_from([0, 0, 1, 3, 12]), min_size=n_theta, max_size=n_theta))
    prior = 10.0 ** -np.asarray(exponents, dtype=float)
    row = st.lists(st.integers(0, 3), min_size=n_x, max_size=n_x)
    templates = np.asarray(draw(st.lists(row, min_size=1, max_size=3)), dtype=float)
    picks = draw(st.lists(st.integers(0, len(templates) - 1), min_size=n_theta, max_size=n_theta))
    lik = templates[picks]
    lik[lik.sum(axis=1) == 0.0, 0] = 1.0
    lik[0, lik.sum(axis=0) == 0.0] = 1.0
    lik /= lik.sum(axis=1, keepdims=True)
    dim = draw(st.sampled_from([1, 2]))
    coords = np.asarray(
        draw(st.lists(st.integers(-2, 2), min_size=n_psi * dim, max_size=n_psi * dim)),
        dtype=float,
    )
    return FiniteModel(
        theta_labels=tuple(f"t{i}" for i in range(n_theta)),
        prior=prior,
        likelihood=lik,
        psi_map=psi_map,
        psi_labels=tuple(f"p{j}" for j in range(n_psi)),
        psi_coords=coords if dim == 1 else coords.reshape(n_psi, dim),
    )


def losses_for(model):
    weights = st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=model.n_psi, max_size=model.n_psi
    )
    return st.one_of(
        st.just(LossSpec.zero_one()),
        st.just(LossSpec.prior_based()),
        st.sampled_from([1e-13, 1e-3, 0.2, 1.0]).map(LossSpec.capped),
        weights.map(LossSpec.weighted),
        st.sampled_from([0.5, 1.0, 1.5, 2.0]).map(LossSpec.ball),
    )


def rules_for(data, model):
    kind = data.draw(st.sampled_from(["lrse", "map", "anti", "any"]))
    if kind == "lrse":
        return oracle_rule(model, lambda tab: tab.rb)
    if kind == "map":
        return oracle_rule(model, lambda tab: tab.marg_post)
    if kind == "anti":
        return anti_lrse_rule(model)
    picks = st.lists(st.integers(0, model.n_psi - 1), min_size=model.n_x, max_size=model.n_x)
    return np.asarray(data.draw(picks), dtype=np.intp)


PROPERTY = settings(max_examples=150, deadline=None)


# -- properties -----------------------------------------------------------------


@given(model=finite_models())
@PROPERTY
def test_columns_reproduce_single_point_tables(model):
    tabs = sample_space_tables(model)
    for x in range(model.n_x):
        point = belief_tables(model, x)
        np.testing.assert_array_equal(tabs.marg_prior, point.marg_prior)
        np.testing.assert_array_equal(tabs.marg_post[:, x], point.marg_post)
        np.testing.assert_array_equal(tabs.rb[:, x], point.rb)
        joint = np.bincount(
            model.psi_map, weights=model.prior * model.likelihood[:, x], minlength=model.n_psi
        )
        np.testing.assert_array_equal(tabs.marg_joint[:, x], joint)
        assert tabs.evidence[x] == (model.prior * model.likelihood[:, x]).sum()


@given(model=finite_models())
@PROPERTY
def test_rules_match_oracle_element_for_element(model):
    np.testing.assert_array_equal(lrse_rule(model), oracle_rule(model, lambda tab: tab.rb))
    np.testing.assert_array_equal(map_rule(model), oracle_rule(model, lambda tab: tab.marg_post))


@given(model=finite_models())
@PROPERTY
def test_conditional_sampling_table_matches_oracle(model):
    np.testing.assert_allclose(
        conditional_sampling_table(model),
        oracle_conditional_sampling_table(model),
        rtol=0.0,
        atol=ABS_TOL,
    )


@given(model=finite_models(), data=st.data())
@PROPERTY
def test_unbiasedness_matches_oracle(model, data):
    rule = rules_for(data, model)
    loss = data.draw(losses_for(model))
    np.testing.assert_array_equal(
        uniform_unbiasedness_check(rule, model), oracle_uniform_unbiasedness_check(rule, model)
    )
    if loss.kind == "ball":
        with pytest.raises(InvariantViolation):
            unbiasedness_gap(loss, rule, model)
        return
    gap = unbiasedness_gap(loss, rule, model)
    assert abs(gap - oracle_unbiasedness_gap(loss, rule, model)) <= ABS_TOL


@given(model=finite_models(), data=st.data())
@PROPERTY
def test_prior_risk_matches_cell_by_cell_oracle(model, data):
    rule = rules_for(data, model)
    loss = data.draw(losses_for(model))
    report = prior_risk(loss, rule, model)
    risk, per_class, unweighted, weighted = oracle_prior_risk(loss, rule, model)
    assert abs(report.prior_risk - risk) <= ABS_TOL
    np.testing.assert_allclose(report.per_class_error, per_class, rtol=0.0, atol=ABS_TOL)
    assert abs(report.unweighted_sum - unweighted) <= ABS_TOL
    assert abs(report.prior_weighted_sum - weighted) <= ABS_TOL


def test_subnormal_column_gets_its_tables():
    model = FiniteModel(
        theta_labels=("a", "b"),
        prior=[0.5, 0.5],
        likelihood=[[0.7, 5e-324], [0.2, 5e-324]],
        psi_map=[0, 1],
        psi_labels=("a", "b"),
    )
    tabs = sample_space_tables(model)
    joint = model.prior * model.likelihood[:, 0]
    np.testing.assert_array_equal(tabs.marg_post[:, 0], joint / joint.sum())
    np.testing.assert_array_equal(tabs.marg_post[:, 1], [0.5, 0.5])
    np.testing.assert_array_equal(tabs.rb[:, 1], [1.0, 1.0])
    assert belief_tables(model, 1).marg_post.tolist() == [0.5, 0.5]


def test_underflowing_evidence_leaves_the_tables_exact():
    # Column 1's evidence, 1e-300 * 1e-30, underflows to 0.0 unscaled.
    model = FiniteModel(
        theta_labels=("a", "b"),
        prior=[1.0, 1e-300],
        likelihood=[[1.0, 0.0], [1.0 - 1e-30, 1e-30]],
        psi_map=[0, 1],
        psi_labels=("a", "b"),
    )
    point = belief_tables(model, 1)
    assert point.marg_post.tolist() == [0.0, 1.0]
    assert point.rb[1] == 1.0 / model.prior[1]
    tabs = sample_space_tables(model)
    assert tabs.evidence[1] == 0.0
    zero = belief_tables(model, 0)
    post = model.prior * model.likelihood[:, 0]
    np.testing.assert_array_equal(zero.marg_post, post / post.sum())
    np.testing.assert_array_equal(tabs.marg_joint[:, 0], post)
