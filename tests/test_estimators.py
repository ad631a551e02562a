"""LRSE, MAP, Bayes rules, and the unbiasedness diagnostics."""

import numpy as np
import pytest

from relbelief import (
    BeliefTables,
    BinomialClassifier,
    FiniteModel,
    LossSpec,
    bayes_rule,
    belief_tables,
    lrse,
    map_estimate,
    unbiasedness_gap,
    uniform_unbiasedness_check,
)
from relbelief.estimators import lrse_rule, map_rule
from conftest import anti_lrse_rule, fiber
from predictive_oracle import PredictiveTables, predict_lrse, predictive_tables_for


def make_tables(marg_prior, marg_post):
    prior = np.asarray(marg_prior, dtype=float)
    post = np.asarray(marg_post, dtype=float)
    return BeliefTables(
        marg_prior=prior,
        marg_post=post,
        rb=post / prior,
        psi_labels=tuple(f"p{i}" for i in range(prior.size)),
    )


def separating_model():
    return FiniteModel(
        theta_labels=("heavy", "rare"),
        prior=[0.9, 0.1],
        likelihood=[[0.99, 0.01], [0.01, 0.99]],
        psi_map=[0, 1],
        psi_labels=("heavy", "rare"),
    )


class TestPointEstimators:
    def test_lrse_prefers_larger_rate_class(self):
        model = BinomialClassifier(psi1=0.05, psi2=0.80, epsilon=0.05).to_finite_model()
        assert lrse(belief_tables(model, 1)).psi_label == "psi2"

    def test_no_update_ties_everything(self):
        tables = make_tables([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        result = lrse(tables)
        assert result.tie and result.argmax_set == (0, 1, 2)
        assert result.psi_index == 0

    def test_lrse_by_elementwise_quotient(self):
        tables = make_tables([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        result = lrse(tables)
        assert result.psi_index == 0
        assert result.criterion_value == pytest.approx(2.5)

    def test_map_positive_test_still_heavy_class(self):
        model = BinomialClassifier(psi1=0.05, psi2=0.80, epsilon=0.05).to_finite_model()
        assert map_estimate(belief_tables(model, 1)).psi_label == "psi1"

    def test_map_equals_lrse_under_uniform_prior(self, corpus):
        for base in corpus[:20]:
            uniform = FiniteModel(
                theta_labels=base.psi_labels,
                prior=np.full(base.n_psi, 1.0 / base.n_psi),
                likelihood=np.vstack(
                    [base.likelihood[fiber(base, j)[0]] for j in range(base.n_psi)]
                ),
                psi_map=np.arange(base.n_psi),
                psi_labels=base.psi_labels,
            )
            for x in range(uniform.n_x):
                tables = belief_tables(uniform, x)
                assert set(lrse(tables).argmax_set) == set(map_estimate(tables).argmax_set)

    def test_map_point_mass(self):
        tables = make_tables([0.5, 0.5], [0.0, 1.0])
        result = map_estimate(tables)
        assert result.psi_index == 1 and not result.tie

    def test_criterion_matches_recomputation(self):
        tables = make_tables([0.2, 0.8], [0.5, 0.5])
        result = lrse(tables)
        assert result.criterion_value == pytest.approx(
            float(tables.rb[result.psi_index]), abs=1e-12
        )


class TestBayesRules:
    def test_prior_based_recovers_lrse_everywhere(self, corpus):
        loss = LossSpec.prior_based()
        for model in corpus:
            for x in range(model.n_x):
                tables = belief_tables(model, x)
                assert bayes_rule(loss, tables).psi_index in lrse(tables).argmax_set

    def test_zero_one_recovers_map_everywhere(self, corpus):
        loss = LossSpec.zero_one()
        for model in corpus[:50]:
            for x in range(model.n_x):
                tables = belief_tables(model, x)
                assert bayes_rule(loss, tables).psi_index in map_estimate(tables).argmax_set

    def test_dominating_cap_on_uniform_prior(self):
        tables = make_tables([0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4])
        result = bayes_rule(LossSpec.capped(1.0), tables)
        assert result.psi_index == map_estimate(tables).psi_index
        assert result.psi_index == lrse(tables).psi_index

    def test_small_cap_recovers_lrse(self, corpus):
        for model in corpus[:50]:
            for x in range(model.n_x):
                tables = belief_tables(model, x)
                best = lrse(tables)
                bound = float(tables.marg_prior[list(best.argmax_set)].min())
                chosen = bayes_rule(LossSpec.capped(bound * 0.99), tables)
                assert chosen.psi_index in best.argmax_set

    def test_countable_rule_stabilizes_below_threshold(self, countable_model):
        tables = belief_tables(countable_model, 1)
        target = lrse(tables)
        assert not target.tie
        threshold = float(tables.marg_prior[target.psi_index])
        diverged = False
        for eta in np.geomspace(1.0, threshold * 1e-3, 12):
            chosen = bayes_rule(LossSpec.capped(float(eta)), tables)
            if eta <= threshold:
                assert chosen.psi_index == target.psi_index
            elif chosen.psi_index != target.psi_index:
                diverged = True
        assert diverged, "some large cap should have moved the rule off the LRSE"


class TestPredictLrse:
    def test_symmetric_prior_matches_posterior_argmax(self):
        from relbelief.closed_form import BetaBernoulliPredictor

        pred = BetaBernoulliPredictor(alpha=2.0, beta=2.0, n=6, cbar=0.5, f_ratio=1.7)
        tables = predictive_tables_for(pred)
        assert predict_lrse(tables).psi_index == int(np.argmax(tables.post_pred))

    def test_flat_ratio_ties(self):
        tables = PredictiveTables(
            y_labels=("0", "1"),
            prior_pred=[0.5, 0.5],
            post_pred=[0.5, 0.5],
            rb_pred=[1.0, 1.0],
        )
        assert predict_lrse(tables).tie

    def test_gaussian_threshold_for_rare_class(self):
        # alpha=1, beta=14, n=10, cbar=0, unit shift: predict class 1 exactly
        # when the new point exceeds 0.5 + log(24/14).
        from relbelief.closed_form import (
            BetaBernoulliPredictor,
            gaussian_likelihood_ratio,
            predict_class,
        )

        cut = 0.5 + np.log(24.0 / 14.0)
        for x_next, expected in ((cut + 1e-9, 1), (cut - 1e-9, 0)):
            pred = BetaBernoulliPredictor(
                alpha=1.0,
                beta=14.0,
                n=10,
                cbar=0.0,
                f_ratio=gaussian_likelihood_ratio(1.0, x_next),
            )
            assert predict_class(pred, "lrse") == expected
        # boundary convention: ties go to class 1 (checked with the exact
        # ratio, since the exp/log roundtrip is not bit-exact)
        boundary = BetaBernoulliPredictor(
            alpha=1.0, beta=14.0, n=10, cbar=0.0, f_ratio=24.0 / 14.0
        )
        assert predict_class(boundary, "lrse") == 1


class TestUnbiasedness:
    @pytest.mark.parametrize(
        "loss_factory",
        [LossSpec.prior_based, LossSpec.zero_one, lambda: LossSpec.capped(0.05)],
    )
    def test_lrse_rule_gap_nonnegative(self, corpus, loss_factory):
        for model in corpus[:60]:
            gap = unbiasedness_gap(loss_factory(), lrse_rule(model), model)
            assert gap >= -1e-12

    def test_no_update_makes_any_rule_neutral(self):
        # identical likelihood rows leave the posterior equal to the prior
        model = FiniteModel(
            theta_labels=("a", "b"),
            prior=[0.3, 0.7],
            likelihood=[[0.4, 0.6], [0.4, 0.6]],
            psi_map=[0, 1],
            psi_labels=("a", "b"),
        )
        for rule in ([0, 0], [1, 1], [0, 1], [1, 0]):
            gap = unbiasedness_gap(LossSpec.prior_based(), rule, model)
            assert gap == pytest.approx(0.0, abs=1e-14)

    def test_constant_rule_gap_is_exactly_zero(self):
        # Choosing the same value regardless of the data integrates the
        # posterior back to the prior, so the gap vanishes identically;
        # a negative gap needs a data-dependent (here: belief-minimizing)
        # rule.
        model = separating_model()
        for j in (0, 1):
            gap = unbiasedness_gap(LossSpec.zero_one(), [j, j], model)
            assert gap == pytest.approx(0.0, abs=1e-14)

    def test_anti_lrse_rule_gap_strictly_negative(self):
        model = separating_model()
        rule = anti_lrse_rule(model)
        for loss in (LossSpec.zero_one(), LossSpec.prior_based()):
            assert unbiasedness_gap(loss, rule, model) < -1e-3

    def test_uniform_check_lrse_all_true(self, corpus):
        for model in corpus[:60]:
            assert uniform_unbiasedness_check(lrse_rule(model), model).all()

    def test_uniform_check_map_under_uniform_prior(self):
        model = FiniteModel(
            theta_labels=("a", "b", "c"),
            prior=[1 / 3, 1 / 3, 1 / 3],
            likelihood=[[0.7, 0.3], [0.5, 0.5], [0.1, 0.9]],
            psi_map=[0, 1, 2],
            psi_labels=("a", "b", "c"),
        )
        assert uniform_unbiasedness_check(map_rule(model), model).all()

    def test_uniform_check_flags_bad_constant_rule(self):
        model = separating_model()
        assert not uniform_unbiasedness_check([0, 0], model).all()

    def test_map_zero_one_unbiasedness_search_is_reported(self, corpus, capsys):
        # Whether the posterior-mode rule is always Bayesian unbiased under
        # the plain error loss is an open question; we search and report,
        # asserting nothing about the sign.
        worst = min(
            unbiasedness_gap(LossSpec.zero_one(), map_rule(model), model)
            for model in corpus[:80]
        )
        print(f"\nsmallest MAP/zero-one unbiasedness gap over 80 models: {worst:.3e}")
        assert np.isfinite(worst)


class TestReparameterization:
    def test_relabeling_bijection_moves_argmax(self, corpus, rng):
        for model in corpus[:20]:
            perm = rng.permutation(model.n_psi)
            inverse = np.empty_like(perm)
            inverse[perm] = np.arange(model.n_psi)
            relabeled = FiniteModel(
                theta_labels=model.theta_labels,
                prior=model.prior,
                likelihood=model.likelihood,
                psi_map=perm[model.psi_map],
                psi_labels=tuple(model.psi_labels[i] for i in inverse),
                psi_coords=None,
            )
            for x in range(model.n_x):
                before = lrse(belief_tables(model, x))
                after = lrse(belief_tables(relabeled, x))
                assert set(after.argmax_set) == {int(perm[i]) for i in before.argmax_set}
