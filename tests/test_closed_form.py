"""Closed-form families against the generic pipeline."""

import numpy as np
import pytest
from scipy.stats import norm

from relbelief import (
    BetaBernoulliPredictor,
    BinomialClassifier,
    ContinuousModel1D,
    GaussianRegression,
    InvariantViolation,
    SingularDesign,
    belief_tables,
    classifier_risks,
    classify,
    gaussian_likelihood_ratio,
    predict_class,
    regression_estimates,
    regression_predict,
)
from relbelief.closed_form import NormalNormalTestbed
from relbelief.discretize import grid_tables
from relbelief.estimators import lrse, map_estimate
from relbelief.quadrature import integrate_bins
from posterior_oracle import normal_posterior
from predictive_oracle import predict_lrse, predictive_tables_for


class TestClassifier:
    def test_positive_test_decisions(self):
        model = BinomialClassifier(psi1=0.05, psi2=0.80, epsilon=0.05)
        assert classify(model, 1, "lrse").psi_label == "psi2"
        # epsilon sits below the psi1/(psi1+psi2) crossover, so the
        # posterior still favors the heavy class
        assert classify(model, 1, "map").psi_label == "psi1"

    def test_equal_rates_tie(self):
        model = BinomialClassifier(psi1=0.4, psi2=0.4, epsilon=0.3)
        for method in ("map", "lrse"):
            result = classify(model, 1, method)
            if method == "lrse":
                assert result.tie
        # the map rule ties only when the posterior weights match exactly
        balanced = BinomialClassifier(psi1=0.4, psi2=0.4, epsilon=0.5)
        assert classify(balanced, 1, "map").tie

    def test_agrees_with_generic_pipeline_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            model = BinomialClassifier(
                psi1=float(rng.uniform(0.01, 0.99)),
                psi2=float(rng.uniform(0.01, 0.99)),
                epsilon=float(rng.uniform(0.01, 0.99)),
            )
            finite = model.to_finite_model()
            for x in (0, 1):
                tables = belief_tables(finite, x)
                assert classify(model, x, "lrse").psi_label == lrse(tables).psi_label
                assert (
                    classify(model, x, "map").psi_label
                    == map_estimate(tables).psi_label
                )

    def test_map_constant_regime_risk_sum_one(self):
        model = BinomialClassifier(psi1=0.05, psi2=0.80, epsilon=0.05)
        report = classifier_risks(model, "map")
        np.testing.assert_allclose(report.per_class_error, [0.0, 1.0])
        assert report.unweighted_sum == pytest.approx(1.0)

    def test_lrse_risk_sum(self):
        model = BinomialClassifier(psi1=0.05, psi2=0.80, epsilon=0.05)
        report = classifier_risks(model, "lrse")
        np.testing.assert_allclose(report.per_class_error, [0.05, 0.20])
        assert report.unweighted_sum == pytest.approx(0.25)

    def test_near_perfect_separation(self):
        model = BinomialClassifier(psi1=1e-12, psi2=1 - 1e-12, epsilon=0.05)
        for method in ("map", "lrse"):
            report = classifier_risks(model, method)
            assert report.unweighted_sum == pytest.approx(0.0, abs=1e-11)


class TestRegressionEstimates:
    def test_single_observation_hand_values(self):
        model = GaussianRegression(X=[[1.0]], y=[1.0], w=[1.0], sigma2=1.0, tau2=1.0)
        est = regression_estimates(model)
        assert est.psi_map == pytest.approx(0.5)
        assert est.psi_post_var == pytest.approx(0.5)
        assert est.psi_prior_var == pytest.approx(1.0)
        assert est.psi_lrse == pytest.approx(1.0)
        np.testing.assert_allclose(est.mle, [1.0])

    def test_diffuse_prior_recovers_plugin_mle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        w = rng.normal(size=3)
        model = GaussianRegression(X=X, y=y, w=w, sigma2=1.3, tau2=1e8)
        est = regression_estimates(model)
        assert est.psi_lrse == pytest.approx(float(w @ est.mle), rel=1e-6)

    def test_zero_response_zero_estimates(self):
        model = GaussianRegression(
            X=[[1.0, 0.0], [0.0, 1.0]], y=[0.0, 0.0], w=[1.0, 2.0], sigma2=1.0, tau2=2.0
        )
        est = regression_estimates(model)
        assert est.psi_map == 0.0 and est.psi_lrse == 0.0

    def test_rank_deficient_design_rejected(self):
        with pytest.raises(SingularDesign):
            GaussianRegression(
                X=[[1.0, 1.0], [2.0, 2.0]], y=[1.0, 2.0], w=[1.0, 0.0],
                sigma2=1.0, tau2=1.0,
            )

    @pytest.mark.parametrize("field,bad", [
        ("X", [[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]]),
        ("y", [np.nan, 2.0, 3.0]),
        ("w", [np.nan, 1.0]),
        ("sigma2", np.inf),
        ("tau2", np.inf),
        ("tau2", np.nan),
    ])
    def test_non_finite_input_is_named(self, field, bad):
        kwargs = dict(X=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], y=[1.0, 2.0, 3.0],
                      w=[1.0, 1.0], sigma2=1.0, tau2=1.0)
        kwargs[field] = bad
        with pytest.raises(InvariantViolation, match=f"^{field} contains non-finite"):
            GaussianRegression(**kwargs)

    def test_posterior_variance_always_shrinks(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n, k = int(rng.integers(3, 10)), int(rng.integers(1, 4))
            model = GaussianRegression(
                X=rng.normal(size=(n, k)),
                y=rng.normal(size=n),
                w=rng.normal(size=k),
                sigma2=float(rng.uniform(0.2, 3.0)),
                tau2=float(rng.uniform(0.2, 3.0)),
            )
            est = regression_estimates(model)
            assert est.psi_prior_var > est.psi_post_var


class TestRegressionPrediction:
    def test_single_observation_doubles_lrse(self):
        model = GaussianRegression(X=[[1.0]], y=[1.0], w=[1.0], sigma2=1.0, tau2=1.0)
        pred = regression_predict(model)
        assert pred.z_lrse == pytest.approx(2.0)
        assert pred.z_map == pytest.approx(0.5)

    def test_zero_response(self):
        model = GaussianRegression(X=[[1.0]], y=[0.0], w=[1.0], sigma2=1.0, tau2=1.0)
        assert regression_predict(model).z_lrse == 0.0

    def test_predictor_more_dispersed_than_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, k = int(rng.integers(3, 10)), int(rng.integers(1, 4))
            model = GaussianRegression(
                X=rng.normal(size=(n, k)),
                y=rng.normal(size=n),
                w=rng.normal(size=k),
                sigma2=float(rng.uniform(0.2, 3.0)),
                tau2=float(rng.uniform(0.2, 3.0)),
            )
            pred = regression_predict(model)
            assert abs(pred.z_lrse) >= abs(pred.z_map)

    def test_scale_identity_with_unit_predictor(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n, k = int(rng.integers(3, 10)), int(rng.integers(1, 4))
            w = rng.normal(size=k)
            w /= np.linalg.norm(w)
            model = GaussianRegression(
                X=rng.normal(size=(n, k)),
                y=rng.normal(size=n),
                w=w,
                sigma2=float(rng.uniform(0.2, 3.0)),
                tau2=float(rng.uniform(0.2, 3.0)),
            )
            est = regression_estimates(model)
            pred = regression_predict(model)
            scale = 1.0 + model.sigma2 / model.tau2
            assert pred.z_lrse == pytest.approx(scale * est.psi_lrse, rel=1e-10)

    def test_grid_parity_for_linear_functional(self):
        # Lay a grid over the scalar functional using its exact prior and
        # posterior normal densities; the grid ratio argmax must land within
        # one bin of the closed-form LRSE.
        rng = np.random.default_rng(17)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        w = np.array([0.8, -0.6])
        model = GaussianRegression(X=X, y=y, w=w, sigma2=0.7, tau2=1.5)
        est = regression_estimates(model)
        prior_sd = np.sqrt(est.psi_prior_var)
        post_sd = np.sqrt(est.psi_post_var)
        half = 8.5 * prior_sd

        cmodel = ContinuousModel1D(
            prior_density=lambda t: norm.pdf(t, 0.0, prior_sd),
            likelihood=lambda t, x: norm.logpdf(t, est.psi_map, post_sd)
            - norm.logpdf(t, 0.0, prior_sd),
            support=(-half, half),
        )
        lam = prior_sd / 20
        tables, grid = grid_tables(cmodel, 0.0, lam)
        best = lrse(tables)
        assert abs(grid.representatives[best.psi_index] - est.psi_lrse) <= grid.lam


class TestClassPrediction:
    def test_symmetric_prior_makes_methods_identical(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            model = BetaBernoulliPredictor(
                alpha=2.5,
                beta=2.5,
                n=int(rng.integers(0, 12)),
                cbar=float(rng.integers(0, 2)),
                f_ratio=float(rng.uniform(0.1, 5.0)),
            )
            assert predict_class(model, "map") == predict_class(model, "lrse")

    def test_rare_class_lrse_dominates_map(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            model = BetaBernoulliPredictor(
                alpha=1.0,
                beta=float(rng.uniform(5.0, 60.0)),
                n=10,
                cbar=float(rng.integers(0, 11)) / 10,
                f_ratio=float(rng.uniform(0.1, 8.0)),
            )
            assert predict_class(model, "lrse") >= predict_class(model, "map")

    def test_prior_predictive_rate(self):
        # the class-1 weight of the prior predictive is alpha/(alpha+beta);
        # cross-checked by quadrature against the Beta density
        alpha, beta = 1.0, 14.0
        tables = predictive_tables_for(
            BetaBernoulliPredictor(alpha=alpha, beta=beta, n=0, cbar=0.0, f_ratio=1.0)
        )
        assert tables.prior_pred[1] == pytest.approx(alpha / (alpha + beta), rel=1e-12)
        from scipy.stats import beta as beta_dist

        by_quadrature = integrate_bins(
            lambda e: e * beta_dist.pdf(e, alpha, beta), [0.0, 1.0]
        )[0]
        assert tables.prior_pred[1] == pytest.approx(by_quadrature, rel=1e-9)

    def test_generic_argmax_matches_threshold_rule(self):
        rng = np.random.default_rng(9)
        for _ in range(80):
            model = BetaBernoulliPredictor(
                alpha=float(rng.uniform(0.5, 4.0)),
                beta=float(rng.uniform(0.5, 40.0)),
                n=10,
                cbar=float(rng.integers(0, 11)) / 10,
                f_ratio=float(rng.uniform(0.05, 10.0)),
            )
            tables = predictive_tables_for(model)
            result = predict_lrse(tables)
            if not result.tie:
                assert int(result.psi_label) == predict_class(model, "lrse")

    def test_gaussian_ratio_helper(self):
        assert gaussian_likelihood_ratio(1.0, 0.5) == pytest.approx(1.0)
        assert gaussian_likelihood_ratio(0.0, 3.2) == 1.0

    @pytest.mark.parametrize("method", ["map", "lrse"])
    def test_far_observation_saturates_the_ratio(self, method):
        far, near = gaussian_likelihood_ratio(1.0, 1000.0), gaussian_likelihood_ratio(1.0, -1000.0)
        assert (far, near) == (np.inf, 0.0)
        for f_ratio, expected in ((far, 1), (near, 0)):
            model = BetaBernoulliPredictor(alpha=1.0, beta=14.0, n=5, cbar=0.2, f_ratio=f_ratio)
            assert predict_class(model, method) == expected
        for f_ratio in (np.nan, -1.0, -np.inf):
            with pytest.raises(InvariantViolation, match="likelihood ratio"):
                BetaBernoulliPredictor(alpha=1.0, beta=14.0, n=5, cbar=0.2, f_ratio=f_ratio)

    @pytest.mark.parametrize("field,bad", [("alpha", np.inf), ("beta", np.inf), ("alpha", np.nan)])
    def test_non_finite_beta_parameters_rejected(self, field, bad):
        kwargs = dict(alpha=1.0, beta=14.0, n=5, cbar=0.2, f_ratio=1.0)
        kwargs[field] = bad
        with pytest.raises(InvariantViolation, match="alpha and beta must be finite"):
            BetaBernoulliPredictor(**kwargs)


class TestNormalNormalTestbed:
    def test_closed_forms(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        assert tb.psi_lrse(1.0) == 1.0
        mean, var = normal_posterior(tb, 1.0)
        assert (mean, var) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_matches_single_point_regression(self):
        tb = NormalNormalTestbed(tau=2.0, sigma=0.5)
        x = 1.7
        reg = GaussianRegression(
            X=[[1.0]], y=[x], w=[1.0], sigma2=0.25, tau2=4.0
        )
        est = regression_estimates(reg)
        assert normal_posterior(tb, x)[0] == pytest.approx(est.psi_map, rel=1e-12)
        assert tb.psi_lrse(x) == pytest.approx(est.psi_lrse, rel=1e-12)

    def test_interval_validates(self):
        cmodel = NormalNormalTestbed().continuous_model()
        mass = integrate_bins(cmodel.prior_density, cmodel.support)[0]
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_parameters_validated(self):
        with pytest.raises(InvariantViolation):
            NormalNormalTestbed(tau=-1.0)
