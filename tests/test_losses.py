"""Loss values, posterior risks, and exact prior-risk identities."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from relbelief import (
    BeliefTables,
    FiniteModel,
    InfiniteSampleSpace,
    InvariantViolation,
    LossSpec,
    UnknownPsi,
    belief_tables,
    parse_loss,
    prior_risk,
    sample_space_tables,
    unbiasedness_gap,
)
from relbelief.estimators import lrse_rule, map_rule
from relbelief.losses import (WEIGHTED, RiskReport, check_rule, conditional_sampling_table,
                              loss_matrix, posterior_risk_vector)
from conftest import model_corpus


def make_tables(marg_prior, marg_post, coords=None):
    prior = np.asarray(marg_prior, dtype=float)
    post = np.asarray(marg_post, dtype=float)
    return BeliefTables(
        marg_prior=prior,
        marg_post=post,
        rb=post / prior,
        psi_labels=tuple(f"p{i}" for i in range(prior.size)),
        psi_coords=coords,
    )


class TestLossSpec:
    def test_parameters_validated(self):
        with pytest.raises(InvariantViolation):
            LossSpec.capped(0.0)
        with pytest.raises(InvariantViolation):
            LossSpec.ball(-1.0)
        with pytest.raises(InvariantViolation):
            LossSpec.weighted([-0.5, 1.0])

    def test_parsing(self, tmp_path):
        assert parse_loss("zero-one").kind == "zero-one"
        assert parse_loss("prior-based").kind == "prior-based"
        assert parse_loss("capped:0.25").eta == 0.25
        assert parse_loss("ball:1.5").radius == 1.5
        weights = tmp_path / "h.txt"
        weights.write_text("1.0\n2.0\n")
        spec = parse_loss(f"weighted:{weights}")
        np.testing.assert_allclose(spec.weights, [1.0, 2.0])

    @pytest.mark.parametrize("name", ["missing.txt", "."])
    def test_unreadable_weights_file_is_named(self, tmp_path, name):
        with pytest.raises(InvariantViolation, match="^weights file "):
            parse_loss(f"weighted:{tmp_path / name}")


class TestLossValue:
    def setup_method(self):
        self.model = FiniteModel(
            theta_labels=("a", "b", "c"),
            prior=[0.1, 0.1, 0.8],
            likelihood=[[1.0], [1.0], [1.0]],
            psi_map=[0, 0, 1],
            psi_labels=("A", "B"),
            psi_coords=[0.0, 1.0],
        )

    def loss_value(self, loss, theta_index, psi_index):
        """Loss of acting with ``psi_index`` when ``theta_index`` is true."""
        table = loss_matrix(loss, self.model, [psi_index])
        return float(table[self.model.psi_map[theta_index], 0])

    def test_correct_action_is_free_for_every_kind(self):
        for loss in (
            LossSpec.zero_one(),
            LossSpec.prior_based(),
            LossSpec.capped(0.5),
            LossSpec.weighted([2.0, 3.0]),
            LossSpec.ball(0.5),
        ):
            assert self.loss_value(loss, 0, 0) == 0.0
            assert self.loss_value(loss, 2, 1) == 0.0

    def test_prior_based_is_reciprocal_prior(self):
        # marginal prior of A is 0.2
        assert self.loss_value(LossSpec.prior_based(), 0, 1) == pytest.approx(5.0)

    def test_cap_bounds_the_penalty(self):
        assert self.loss_value(LossSpec.capped(0.5), 0, 1) == pytest.approx(2.0)
        # inactive cap reduces to the prior-based penalty
        assert self.loss_value(LossSpec.capped(0.05), 0, 1) == pytest.approx(5.0)

    def test_ball_uses_coordinates(self):
        assert self.loss_value(LossSpec.ball(1.5), 0, 1) == 0.0
        assert self.loss_value(LossSpec.ball(0.5), 0, 1) == 1.0

    def test_unknown_candidate_rejected(self):
        with pytest.raises(UnknownPsi):
            loss_matrix(LossSpec.zero_one(), self.model, [7])
        with pytest.raises(UnknownPsi):
            loss_matrix(LossSpec.ball(0.5), self.model, [0, -1])


class TestPosteriorRisk:
    def test_prior_based_from_ratio_total(self):
        tables = make_tables([0.5, 0.5], [0.25, 0.75])
        assert posterior_risk_vector(LossSpec.prior_based(), tables)[1] == pytest.approx(0.5)

    def test_point_mass_posterior_costs_nothing(self):
        tables = make_tables([0.5, 0.5], [0.0, 1.0])
        assert posterior_risk_vector(LossSpec.zero_one(), tables)[1] == 0.0

    def test_huge_cap_scales_zero_one(self):
        tables = make_tables([0.5, 0.5], [0.25, 0.75])
        eta = 1.0
        for cand in (0, 1):
            capped = posterior_risk_vector(LossSpec.capped(eta), tables)[cand]
            zero_one = posterior_risk_vector(LossSpec.zero_one(), tables)[cand]
            assert capped == pytest.approx(zero_one / eta)

    def test_ball_risk_is_outside_mass(self):
        tables = make_tables(
            [0.25, 0.25, 0.5], [0.5, 0.3, 0.2], coords=np.array([0.0, 1.0, 3.0])
        )
        risk = posterior_risk_vector(LossSpec.ball(1.0), tables)[0]
        assert risk == pytest.approx(0.2)

    def test_capped_risk_increases_toward_prior_based_as_eta_shrinks(self, corpus):
        for model in corpus[:40]:
            tables = belief_tables(model, 0)
            target = posterior_risk_vector(LossSpec.prior_based(), tables)[0]
            etas = np.geomspace(1.0, float(tables.marg_prior.min()) / 2, 8)
            risks = [posterior_risk_vector(LossSpec.capped(e), tables)[0] for e in etas]
            assert all(a <= b + 1e-12 for a, b in zip(risks, risks[1:]))
            assert risks[-1] == pytest.approx(target, rel=1e-12)
            assert all(r <= target + 1e-12 for r in risks)


class TestPriorRisk:
    def test_separating_channel_has_zero_error(self):
        model = FiniteModel(
            theta_labels=("a", "b"),
            prior=[0.5, 0.5],
            likelihood=[[1.0, 0.0], [0.0, 1.0]],
            psi_map=[0, 1],
            psi_labels=("a", "b"),
            x_labels=("xa", "xb"),
        )
        report = prior_risk(LossSpec.prior_based(), [0, 1], model)
        np.testing.assert_allclose(report.per_class_error, 0.0)
        assert report.unweighted_sum == 0.0
        assert report.prior_risk == 0.0

    def test_constant_map_rule_misses_rare_class(self):
        from relbelief import BinomialClassifier

        model = BinomialClassifier(psi1=0.05, psi2=0.80, epsilon=0.05).to_finite_model()
        report = prior_risk(LossSpec.prior_based(), map_rule(model), model)
        assert report.unweighted_sum == pytest.approx(1.0)

    def test_lrse_rule_spreads_errors(self):
        from relbelief import BinomialClassifier

        model = BinomialClassifier(psi1=0.05, psi2=0.80, epsilon=0.05).to_finite_model()
        report = prior_risk(LossSpec.prior_based(), lrse_rule(model), model)
        assert report.unweighted_sum == pytest.approx(0.25)
        np.testing.assert_allclose(report.per_class_error, [0.05, 0.20])

    def test_identities_on_random_corpus(self, corpus):
        for model in corpus[:60]:
            rule = lrse_rule(model)
            by_prior = prior_risk(LossSpec.prior_based(), rule, model)
            assert by_prior.prior_risk == pytest.approx(
                by_prior.unweighted_sum, abs=1e-10
            )
            by_zero_one = prior_risk(LossSpec.zero_one(), rule, model)
            assert by_zero_one.prior_risk == pytest.approx(
                by_zero_one.prior_weighted_sum, abs=1e-10
            )
            assert by_zero_one.prior_weighted_sum <= by_zero_one.unweighted_sum + 1e-12

    def test_density_callback_rejected(self):
        model = FiniteModel(
            theta_labels=("a", "b"),
            prior=[0.5, 0.5],
            likelihood=lambda x: np.zeros(2),
            psi_map=[0, 1],
            psi_labels=("a", "b"),
        )
        with pytest.raises(InfiniteSampleSpace):
            prior_risk(LossSpec.zero_one(), [0], model)

    @pytest.mark.parametrize(
        "form", ["matrix", "overflowing matrix", "log source", "overflowing log source"])
    def test_rows_that_are_not_distributions_are_rejected(self, form):
        # Theta b's row sums to 0.9, so it is no sampling distribution over x.
        table = np.array([[0.6, 0.4], [0.5, 0.4]])
        logs = np.log(table)
        if form == "overflowing matrix":
            # Theta a's row sums to 2e308, past the largest double.
            table = np.array([[1e308, 1e308], [0.5, 0.5]])
        if form == "overflowing log source":
            # Theta b's row sums to exp(5000), past the largest double.
            logs[1] = [5000.0, -np.inf]
        model = FiniteModel(
            theta_labels=("a", "b"),
            prior=[0.5, 0.5],
            likelihood=table if form.endswith("matrix") else lambda k: logs[:, k],
            psi_map=[0, 1],
            psi_labels=("a", "b"),
            x_labels=("x0", "x1"),
            n_x=2,
        )
        with pytest.raises(InvariantViolation, match="row-stochastic"):
            conditional_sampling_table(model)
        with pytest.raises(InvariantViolation, match="row-stochastic"):
            prior_risk(LossSpec.zero_one(), [0, 1], model)

    def test_chunking_invariance_of_error_sums(self):
        # fsum aggregation must make the report independent of any chunking
        # of the sample space; emulate chunked evaluation by permuting and
        # re-summing the conditional error contributions.
        model = model_corpus(1, seed=99)[0]
        rule = lrse_rule(model)
        report = prior_risk(LossSpec.prior_based(), rule, model)
        sampling = conditional_sampling_table(model)
        rng = np.random.default_rng(0)
        for j in range(model.n_psi):
            wrong = [x for x in range(model.n_x) if rule[x] != j]
            for _ in range(5):
                perm = rng.permutation(len(wrong))
                chunked = math.fsum(sampling[j, wrong][perm])
                assert chunked == report.per_class_error[j]


def test_prior_risk_checks_the_risk_against_the_kernel_ratio():
    """``n_psi - E[rb(rule(x))]`` reads the kernel's ratio, not the risk's cells."""
    model = FiniteModel(theta_labels=("a", "b", "c"), prior=[0.5, 0.3, 0.2],
                        likelihood=[[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]],
                        psi_map=[0, 1, 2], psi_labels=("a", "b", "c"))
    prior_risk(LossSpec.prior_based(), lrse_rule(model), model)  # the true tables pass
    tabs = sample_space_tables(model)
    model.__dict__["_sample_space_tables"] = dataclasses.replace(tabs, rb=tabs.rb * 1.001)
    with pytest.raises(InvariantViolation, match="expected chosen ratio"):
        prior_risk(LossSpec.prior_based(), lrse_rule(model), model)


class TestPriorBelowTheReciprocalRange:
    """A marginal prior whose reciprocal overflows: ``1 / 5e-324`` is inf.

    Theta ``c`` is impossible at ``x0`` and certain at ``x1``, so the LRSE
    picks it at ``x1``.  Every prior-based quantity is a quotient by the
    prior there, which is finite: ``P(x1 | c) = 1``.
    """

    model = FiniteModel(
        theta_labels=("a", "b", "c"),
        prior=[0.5, 0.5, 5e-324],
        likelihood=[[0.4, 0.6], [0.7, 0.3], [0.0, 1.0]],
        psi_map=[0, 1, 2],
        psi_labels=("a", "b", "c"),
    )

    def test_prior_risk_is_finite_and_checked(self):
        rule = lrse_rule(self.model)
        assert rule.tolist() == [1, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for loss in (LossSpec.prior_based(), LossSpec.capped(1e-320)):
                report = prior_risk(loss, rule, self.model)
                # Class a errs at both points, b at x1 (0.3), c never.
                np.testing.assert_array_equal(report.per_class_error, [1.0, 0.3, 0.0])
                assert report.prior_risk == pytest.approx(1.3, abs=1e-15)

    def test_unbiasedness_gap_is_finite(self):
        # sum_x M[rule(x), x] - m(x): (0.7 - 0.55) + (1 - 0.45).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = unbiasedness_gap(LossSpec.prior_based(), lrse_rule(self.model), self.model)
        assert gap == pytest.approx(0.7, abs=1e-15)

    def test_kernel_ratio_keeps_its_digits_at_a_subnormal_posterior(self):
        # The posterior of c at x1 is 5e-324 / 0.45, two subnormal steps.
        ratio = 1.0 / 0.45
        assert sample_space_tables(self.model).rb[2, 1] == pytest.approx(ratio, rel=1e-15)
        assert belief_tables(self.model, 1).rb[2] == pytest.approx(ratio, rel=1e-15)

    def test_kernel_ratio_of_an_underflowed_posterior_is_its_likelihood_ratio(self):
        # b's joint cell at x0, 5e-324 * 0.4, rounds to 0, and so does its
        # posterior; its ratio is M / m(x) = 0.4 / 0.6.
        model = FiniteModel(theta_labels=("a", "b"), prior=[1.0, 5e-324],
                            likelihood=[[0.6, 0.4], [0.4, 0.6]],
                            psi_map=[0, 1], psi_labels=("a", "b"))
        tables = sample_space_tables(model)
        assert tables.marg_post[1, 0] == 0.0
        assert tables.rb[1, 0] == belief_tables(model, 0).rb[1] == 0.4 / 0.6

    def test_a_ratio_past_the_largest_double_is_refused_by_name(self):
        # b's posterior at x0 is 0.5, its prior 5e-324: the ratio is about 1e323.
        model = FiniteModel(theta_labels=("a", "b"), prior=[1.0, 5e-324],
                            likelihood=[[5e-324, 1.0], [1.0, 0.0]],
                            psi_map=[0, 1], psi_labels=("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (0, 1):  # a query at either point builds every column
                with pytest.raises(InvariantViolation, match=r"psi 'b' at sample point 0 is past"
                                   r" the largest double \(1\.79769e\+308\)"):
                    belief_tables(model, x)

    def test_sampling_row_of_a_subnormal_fiber_is_its_likelihood(self):
        # b's joint cells, 5e-324 times 0.6 and 0.4, round to 5e-324 and 0;
        # divided by b's prior they would read (1, 0), not b's likelihood row.
        model = FiniteModel(theta_labels=("a", "b"), prior=[1.0, 5e-324],
                            likelihood=[[0.5, 0.5], [0.6, 0.4]],
                            psi_map=[0, 1], psi_labels=("a", "b"))
        np.testing.assert_array_equal(conditional_sampling_table(model), model.likelihood)
        report = prior_risk(LossSpec.zero_one(), [0, 1], model)
        np.testing.assert_array_equal(report.per_class_error, [0.5, 0.6])
        # The LRSE picks b at x0 (ratio 0.6 / 0.5) and a at x1: a errs at x0, b at x1.
        rule = lrse_rule(model)
        assert rule.tolist() == [1, 0]
        report = prior_risk(LossSpec.prior_based(), rule, model)
        assert report.prior_risk == pytest.approx(0.9, abs=1e-15)
        np.testing.assert_array_equal(report.per_class_error, [0.5, 0.4])

    subnormal_fiber = dict(theta_labels=("a", "b"), prior=[1.0, 5e-324],
                           psi_map=[0, 1], psi_labels=("a", "b"))
    subnormal_fiber_likelihood = np.array([[0.5, 0.5], [0.6, 0.4]])

    def test_unbiasedness_gap_of_a_subnormal_fiber(self):
        # sum_x M[rule(x), x] - m(x) = (0.6 - 0.5) + (0.5 - 0.5); the joint
        # 5e-324 * 0.6 rounds to 5e-324, which read over the prior gives 0.5.
        model = FiniteModel(likelihood=self.subnormal_fiber_likelihood, **self.subnormal_fiber)
        gap = unbiasedness_gap(LossSpec.prior_based(), [1, 0], model)
        assert gap == pytest.approx(0.1, abs=1e-15)

    def test_finite_log_source_is_read_once(self):
        logs, calls = np.log(self.subnormal_fiber_likelihood), []

        def source(k):
            calls.append(k)
            return logs[:, k]

        model = FiniteModel(likelihood=source, n_x=2, **self.subnormal_fiber)
        report = prior_risk(LossSpec.prior_based(), [1, 0], model)
        gap = unbiasedness_gap(LossSpec.prior_based(), [1, 0], model)
        assert len(calls) == 1
        assert report.prior_risk == pytest.approx(0.9, abs=1e-15)
        assert gap == pytest.approx(0.1, abs=1e-15)

    def test_loss_matrix_charges_nothing_for_the_correct_action(self):
        with np.errstate(over="ignore"):  # 1 / 5e-324 is past the largest double
            table = loss_matrix(LossSpec.prior_based(), self.model, [0, 1, 2])
        assert not np.isnan(table).any()
        np.testing.assert_array_equal(np.diag(table), 0.0)
        assert table[2, 0] == table[2, 1] == np.inf


def two_point_model() -> FiniteModel:
    return FiniteModel(theta_labels=("a", "b"), prior=[0.5, 0.5],
                       likelihood=[[0.7, 0.3], [0.2, 0.8]], psi_map=[0, 1], psi_labels=("a", "b"))


@pytest.mark.parametrize("call,error,match", [
    (lambda: check_rule([0], two_point_model()), InvariantViolation, "one psi per sample point"),
    (lambda: check_rule([0, 2], two_point_model()), UnknownPsi, "outside the psi support"),
    (lambda: LossSpec("nope"), InvariantViolation, "unknown loss kind 'nope'"),
    (lambda: LossSpec(WEIGHTED), InvariantViolation, "weighted losses need a weight vector"),
    (lambda: RiskReport(np.array([0.5, 1.5]), 2.0, 1.0, 1.0), InvariantViolation,
     r"per-class errors must lie in \[0, 1\]"),
    (lambda: RiskReport(np.array([0.5, 0.25]), 0.75, 0.8, 0.8), InvariantViolation,
     "prior-weighted error cannot exceed the plain sum"),
], ids=["rule-shape", "rule-index", "unknown-kind", "weighted-without-weights",
        "error-above-one", "weighted-sum-above-plain-sum"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
