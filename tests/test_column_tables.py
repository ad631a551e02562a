"""Per-point answers on tables derived a block of points at a time, against the per-point code.

Per-point answers read one row of a tie mask or a ranking derived from
their source: the model's cached sample-space tables, a callback's
one-column tables, or a public ``BeliefTables`` itself.  The derived tables
are built a block of points at a time; the properties below shrink the
block so that the points span several blocks, the last maybe partial.
Bayes rules, LPL regions and posterior risks of interleaved losses are
checked on the same sources.  The oracles below compute each answer from
one column alone, and every field must be exactly equal.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relbelief.model
from relbelief import (
    BeliefTables,
    FiniteModel,
    LossSpec,
    attainable_gammas,
    bayes_rule,
    belief_tables,
    hpd_region,
    lpl_region,
    lrse,
    lrse_rule,
    map_estimate,
    map_rule,
    rs_region,
    sample_space_tables,
    tail_probability,
)
from relbelief.estimators import TIE_RTOL, _block, _tie_mask
from relbelief.losses import posterior_risk_vector
from relbelief.model import _rows_per_block, _source_column
from conftest import oracle_h
from test_per_point_path import (
    assert_identical,
    oracle_bayes_rule,
    oracle_belief_tables,
    oracle_dense_ball_inside,
    oracle_estimate,
    oracle_lpl_region,
    oracle_ranked_region,
    small_model,
)
from test_regions import oracle_attainable_gammas
from test_sample_space_tables import finite_models

DERIVED = [(name, kind) for name in ("rb", "marg_post") for kind in ("ties", "ranking")]


def oracle_gain(loss, tables) -> tuple[np.ndarray, float]:
    """The posterior gains of one column and their total, from that column alone.

    The ball's dense test is multiplied in the row blocks the library uses,
    since BLAS may round a row differently with the block's row count.
    """
    post, prior = tables.marg_post, tables.marg_prior
    if loss.kind == "ball":
        inside = oracle_dense_ball_inside(loss.radius, tables)
        step = _rows_per_block(tables.psi_coords.size)  # n_psi * dim differences a row
        return np.concatenate([inside[i:i + step] @ post for i in range(0, post.size, step)]), 1.0
    if loss.kind == "prior-based":
        w = post / prior
    elif loss.kind == "capped":
        w = post / np.maximum(loss.eta, prior)
    else:
        w = oracle_h(loss, prior) * post
    return w, w.sum()


def oracle_ranking(values, post) -> tuple[np.ndarray, np.ndarray]:
    """One point's values in stable descending order, and the posterior summed down it."""
    order = np.argsort(-values, kind="stable")
    return values[order], np.cumsum(post[order])


def oracle_tail(tables, psi0) -> float:
    rb = tables.rb
    return math.fsum(tables.marg_post[rb <= rb[psi0] + TIE_RTOL * (rb.max() - rb.min())])


def block_cells(data, model) -> int:
    """A block size at which ``model``'s points span one block or several.

    The cell count need not be a multiple of ``n_psi``, and the last block
    may hold fewer points than the others.
    """
    rows = data.draw(st.integers(1, model.n_x), label="points per block")
    return rows * model.n_psi + data.draw(st.integers(0, model.n_psi - 1), label="spare cells")


def blocks_of(cells):
    """The package's block size set to ``cells`` for the duration of a ``with``."""
    return mock.patch.object(relbelief.model, "BLOCK_CELLS", cells)


def assert_loss_free_answers(tables, want, gamma):
    """LRSE, MAP, tail probabilities, RS and HPD regions and attainable levels of one point."""
    assert_identical(lrse(tables), oracle_estimate(want, want.rb))
    assert_identical(map_estimate(tables), oracle_estimate(want, want.marg_post))
    for j in range(want.n_psi):
        assert tail_probability(tables, j) == oracle_tail(want, j)
    assert_identical(rs_region(tables, gamma), oracle_ranked_region(want.rb, want.marg_post, gamma))
    assert_identical(hpd_region(tables, gamma),
                     oracle_ranked_region(want.marg_post, want.marg_post, gamma))
    for family in ("rs", "hpd"):
        got = attainable_gammas(tables, family)
        assert got.tobytes() == oracle_attainable_gammas(want, family).tobytes()


@given(model=finite_models(psi=(2, 6), points=(1, 12)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_point_estimates_are_columns_of_the_rules(model, data):
    with blocks_of(block_cells(data, model)):
        lrse_at, map_at = lrse_rule(model), map_rule(model)
        for x in data.draw(st.permutations(range(model.n_x))):
            want = oracle_belief_tables(model, x)
            assert lrse_at[x] == oracle_estimate(want, want.rb).psi_index
            assert map_at[x] == oracle_estimate(want, want.marg_post).psi_index
            tables = belief_tables(model, x)
            assert lrse(tables).psi_index == lrse_at[x]
            assert map_estimate(tables).psi_index == map_at[x]


@given(model=finite_models(psi=(2, 6), points=(1, 12)), data=st.data(),
       gamma=st.sampled_from([0.0, 0.5, 0.9, 1.0]), eta=st.sampled_from([1e-13, 0.2]))
@settings(max_examples=150, deadline=None)
def test_interleaved_losses_equal_the_oracle(model, data, gamma, eta):
    weights = data.draw(st.lists(st.floats(0.0, 10.0), min_size=model.n_psi, max_size=model.n_psi))
    losses = [LossSpec.prior_based(), LossSpec.zero_one(), LossSpec.capped(eta),
              LossSpec.weighted(weights), LossSpec.ball(1.0), None]  # None: the loss-free answers
    wants = [oracle_belief_tables(model, x) for x in range(model.n_x)]
    pairs = [(x, k) for x in range(model.n_x) for k in range(len(losses))]
    with blocks_of(block_cells(data, model)):
        for x, k in data.draw(st.permutations(pairs)):
            loss, want = losses[k], wants[x]
            for tables in (belief_tables(model, x), want):  # a kernel column; its own source
                if loss is None:
                    assert_loss_free_answers(tables, want, gamma)
                    continue
                gain, total = oracle_gain(loss, want)
                assert posterior_risk_vector(loss, tables).tobytes() == (total - gain).tobytes()
                assert_identical(bayes_rule(loss, tables), oracle_bayes_rule(want, gain, total))
                assert_identical(lpl_region(loss, tables, gamma),
                                 oracle_lpl_region(gain, total, want.marg_post, gamma))


@pytest.mark.parametrize("weight", [1e-310, 7e-311])
def test_prior_based_answers_are_the_ratio_answers_at_a_subnormal_fiber(weight):
    # Fiber q's posterior is near ``weight`` at every point, so its digits
    # are lost to the subnormal range; its ratio, M / m(x), is exactly p's.
    # Ranked by post / prior, as before, the tie of p and q broke at one point.
    model = FiniteModel(theta_labels=("a", "b"), prior=[1.0, weight],
                        likelihood=[[0.3, 0.7], [0.3, 0.7]], psi_map=[0, 1], psi_labels=("p", "q"))
    pb = LossSpec.prior_based()
    for x in range(model.n_x):
        tables = belief_tables(model, x)
        assert 0.0 < tables.marg_post[1] < np.finfo(float).tiny
        assert tables.rb[0] == tables.rb[1]
        assert bayes_rule(pb, tables).argmax_set == lrse(tables).argmax_set == (0, 1)
        for gamma in (0.0, 0.3, 0.5, 0.9, 1.0, *attainable_gammas(tables, "rs")):
            assert lpl_region(pb, tables, gamma).members == rs_region(tables, gamma).members


def derived_blocks(source) -> dict:
    """The start point of every derived block kept on ``source``, by table."""
    return {key: sorted(blocks) for key, blocks in vars(source).items()
            if key in {f"_{name}_{kind}" for name, kind in DERIVED}}


def test_a_one_point_query_builds_one_block_of_each_table():
    model = FiniteModel(
        theta_labels=tuple(f"t{i}" for i in range(4)),
        prior=[0.1, 0.2, 0.3, 0.4],
        likelihood=np.arange(1.0, 41.0).reshape(4, 10) % 7 + 1,
        psi_map=[0, 1, 2, 2],
        psi_labels=("a", "b", "c"),
    )
    with blocks_of(2 * model.n_psi):  # five blocks of two points
        tables = belief_tables(model, 5)
        lrse(tables)
        rs_region(tables, 0.5)
        source = sample_space_tables(model)
        assert derived_blocks(source) == {"_rb_ties": [4], "_rb_ranking": [4]}
        assert source._rb_ties[4].shape == (2, 3)
        assert [a.shape for a in source._rb_ranking[4]] == [(2, 3), (2, 3)]
        lrse_rule(model)
        assert derived_blocks(source) == {"_rb_ties": [0, 2, 4, 6, 8], "_rb_ranking": [4]}


def assert_derived_tables(source):
    """Every derived block of ``source``, as one block, equals the oracle and is read-only."""
    rows = _rows_per_block(len(source.marg_prior))
    rb, post = (np.reshape(getattr(source, name), (len(source.marg_prior), -1)).T
                for name in ("rb", "marg_post"))
    for name, kind in DERIVED:
        block = _block(source, name, kind, 0, rows)
        values = rb if name == "rb" else post
        if kind == "ties":
            np.testing.assert_array_equal(block, _tie_mask(values))  # one row per point
            arrays = [block]
        else:
            ranked, cum = zip(*(oracle_ranking(v, p) for v, p in zip(values, post)))
            assert block[0].tobytes() == np.array(ranked).tobytes()
            assert block[1].tobytes() == np.array(cum).tobytes()
            arrays = list(block)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0


def read_every_table(tables):
    pb = LossSpec.prior_based()
    lrse(tables), map_estimate(tables), bayes_rule(pb, tables)
    rs_region(tables, 0.5), hpd_region(tables, 0.5), lpl_region(pb, tables, 0.5)


def test_derived_tables_are_read_only_and_built_once():
    model = small_model()
    tabs = sample_space_tables(model)
    assert _source_column(belief_tables(model, 1)) == (tabs, 1)
    rows = _rows_per_block(model.n_psi)
    blocks = {key: _block(tabs, *key, 0, rows) for key in DERIVED}
    for x in range(model.n_x):
        read_every_table(belief_tables(model, x))
    lrse_rule(model), map_rule(model), attainable_gammas(belief_tables(model, 0), "hpd")
    for key, block in blocks.items():
        assert _block(tabs, *key, 0, rows) is block
    assert derived_blocks(tabs) == {f"_{name}_{kind}": [0] for name, kind in DERIVED}
    assert_derived_tables(tabs)


def test_replaced_model_and_tables_get_fresh_derived_tables():
    model = small_model()
    tabs = sample_space_tables(model)
    read_every_table(belief_tables(model, 0))

    other = dataclasses.replace(model, prior=[0.6, 0.2, 0.2])
    other_tabs = sample_space_tables(other)
    read_every_table(belief_tables(other, 0))
    for name, kind in DERIVED:
        key = f"_{name}_{kind}"
        assert getattr(other_tabs, key)[0] is not getattr(tabs, key)[0]
    assert_derived_tables(other_tabs)
    assert_identical(lrse(belief_tables(other, 0)), oracle_estimate(
        oracle_belief_tables(other, 0), oracle_belief_tables(other, 0).rb))

    tables = belief_tables(model, 0)
    copy = dataclasses.replace(tables)
    assert _source_column(copy) == (copy, 0)  # the public constructor: its own source
    assert derived_blocks(copy) == {}
    read_every_table(copy)
    assert derived_blocks(copy) == {f"_{name}_{kind}": [0] for name, kind in DERIVED}
    assert copy._rb_ties[0] is not tabs._rb_ties[0]
    assert_derived_tables(copy)
    assert_identical(lrse(copy), lrse(tables))
    assert_identical(rs_region(copy, 0.5), rs_region(tables, 0.5))


def test_public_tables_are_their_own_one_column_source():
    tables = BeliefTables(marg_prior=[0.5, 0.25, 0.25], marg_post=[0.25, 0.5, 0.25],
                          rb=[0.5, 2.0, 1.0], psi_labels=("a", "b", "c"))
    assert _source_column(tables) == (tables, 0)
    assert lrse(tables).argmax_set == (1,)
    assert tables._rb_ties[0].shape == (1, 3)
    ties = tables._rb_ties[0]
    assert bayes_rule(LossSpec.prior_based(), tables).argmax_set == (1,)  # the LRSE's tie row
    assert rs_region(tables, 0.5).members == (1,)
    assert derived_blocks(tables) == {"_rb_ties": [0], "_rb_ranking": [0]}
    assert tables._rb_ties[0] is ties
    assert_derived_tables(tables)
