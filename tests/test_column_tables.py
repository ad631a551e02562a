"""Per-point answers on tables cached for every column, against the per-point code.

``lrse`` and ``map_estimate`` read one row of a tie mask built once for
every column of their source: the model's cached sample-space tables, a
callback's one-column tables, or a public ``BeliefTables`` itself.  Bayes
rules, LPL regions and posterior risks of interleaved losses are checked on
the same sources.  The oracles below compute each answer from one column
alone, and every field must be exactly equal.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    BeliefTables,
    LossSpec,
    bayes_rule,
    belief_tables,
    lpl_region,
    lrse,
    lrse_rule,
    map_estimate,
    map_rule,
    sample_space_tables,
)
from relbelief.estimators import _ties, _tie_mask
from relbelief.losses import posterior_risk_vector
from relbelief.model import _source_column
from conftest import oracle_h
from test_per_point_path import (
    assert_identical,
    oracle_bayes_rule,
    oracle_belief_tables,
    oracle_dense_ball_inside,
    oracle_estimate,
    oracle_lpl_region,
    small_model,
)
from test_sample_space_tables import finite_models


def oracle_gain(loss, tables) -> tuple[np.ndarray, float]:
    """The posterior gains of one column and their total, from that column alone."""
    post, prior = tables.marg_post, tables.marg_prior
    if loss.kind == "ball":
        return oracle_dense_ball_inside(loss.radius, tables) @ post, 1.0
    if loss.kind == "prior-based":
        w = post / prior
    elif loss.kind == "capped":
        w = post / np.maximum(loss.eta, prior)
    else:
        w = oracle_h(loss, prior) * post
    return w, w.sum()


@given(model=finite_models())
@settings(max_examples=150, deadline=None)
def test_point_estimates_are_columns_of_the_rules(model):
    lrse_at, map_at = lrse_rule(model), map_rule(model)
    for x in range(model.n_x):
        tables = belief_tables(model, x)
        assert lrse(tables).psi_index == lrse_at[x]
        assert map_estimate(tables).psi_index == map_at[x]


@given(model=finite_models(), data=st.data(),
       gamma=st.sampled_from([0.0, 0.5, 0.9, 1.0]), eta=st.sampled_from([1e-13, 0.2]))
@settings(max_examples=150, deadline=None)
def test_interleaved_losses_equal_the_oracle(model, data, gamma, eta):
    weights = data.draw(st.lists(st.floats(0.0, 10.0), min_size=model.n_psi, max_size=model.n_psi))
    losses = [LossSpec.prior_based(), LossSpec.capped(eta), LossSpec.weighted(weights),
              LossSpec.ball(1.0)]
    wants = [oracle_belief_tables(model, x) for x in range(model.n_x)]
    pairs = [(x, k) for x in range(model.n_x) for k in range(len(losses))]
    for x, k in data.draw(st.permutations(pairs)):
        loss, want = losses[k], wants[x]
        gain, total = oracle_gain(loss, want)
        for tables in (belief_tables(model, x), want):  # a kernel column; its own source
            assert posterior_risk_vector(loss, tables).tobytes() == (total - gain).tobytes()
            assert_identical(bayes_rule(loss, tables), oracle_bayes_rule(want, gain, total))
            assert_identical(lpl_region(loss, tables, gamma),
                             oracle_lpl_region(gain, total, want.marg_post, gamma))


def test_derived_tables_are_read_only_and_built_once():
    model = small_model()
    tabs = sample_space_tables(model)
    assert _source_column(belief_tables(model, 1)) == (tabs, 1)
    masks = {name: _ties(tabs, name) for name in ("rb", "marg_post")}
    lrse(belief_tables(model, 0))
    map_estimate(belief_tables(model, 1))
    lrse_rule(model)
    for name, ties in masks.items():
        assert _ties(tabs, name) is ties
        np.testing.assert_array_equal(ties, _tie_mask(getattr(tabs, name).T))  # one row per point
        assert not ties.flags.writeable
        with pytest.raises(ValueError):
            ties[0, 0] = not ties[0, 0]


def test_replaced_model_and_tables_get_fresh_derived_tables():
    model = small_model()
    ties = _ties(sample_space_tables(model), "rb")

    other = dataclasses.replace(model, prior=[0.6, 0.2, 0.2])
    other_tabs = sample_space_tables(other)
    assert _ties(other_tabs, "rb") is not ties
    np.testing.assert_array_equal(_ties(other_tabs, "rb"), _tie_mask(other_tabs.rb.T))
    assert_identical(lrse(belief_tables(other, 0)), oracle_estimate(
        oracle_belief_tables(other, 0), oracle_belief_tables(other, 0).rb))

    tables = belief_tables(model, 0)
    copy = dataclasses.replace(tables)
    assert _source_column(copy) == (copy, 0)  # the public constructor: its own source
    assert _ties(copy, "rb") is not ties
    assert_identical(lrse(copy), lrse(tables))


def test_public_tables_are_their_own_one_column_source():
    tables = BeliefTables(marg_prior=[0.5, 0.25, 0.25], marg_post=[0.25, 0.5, 0.25],
                          rb=[0.5, 2.0, 1.0], psi_labels=("a", "b", "c"))
    assert _source_column(tables) == (tables, 0)
    assert lrse(tables).argmax_set == (1,)
    assert _ties(tables, "rb").shape == (1, 3)
    assert bayes_rule(LossSpec.prior_based(), tables).argmax_set == (1,)
