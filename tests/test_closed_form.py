"""Closed-form families against the generic pipeline."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from relbelief.closed_form import NormalNormalTestbed, decision_statistic
from relbelief.discretize import grid_tables
from relbelief.estimators import lrse, map_estimate
from relbelief.quadrature import integrate_bins
from posterior_oracle import normal_posterior
from predictive_oracle import predict_lrse, predictive_tables_for
from regression_oracle import exact_regression


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


@st.composite
def regression_problems(draw):
    """A random design scaled by 10**-150 to 10**150, with data and variances.

    Some designs have two near-collinear rows or columns, equal up to a
    relative perturbation ``delta``.  A direction the data fix only to
    ``delta`` costs any floating-point answer digits in proportion to a power
    of ``1 / delta`` (4e-11 relative at 1e-3, 1e-9 at 1e-5, on 2,000 designs
    each), so ``delta`` stays at or above 1e-3.
    """
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, min(n, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p))
    delta = 10.0 ** draw(st.floats(-3, -1))
    collinear = draw(st.sampled_from(["none", "rows", "columns"]))
    if collinear == "rows" and n >= 2:
        X[1] = X[0] * rng.uniform(0.5, 2.0) + delta * rng.normal(size=p)
    if collinear == "columns" and p >= 2:
        X[:, -1] = X[:, 0] + delta * rng.normal(size=n)
    X *= 10.0 ** draw(st.integers(-150, 150))
    y = rng.normal(size=n) * 10.0 ** draw(st.integers(-5, 5))
    return dict(X=X, y=y, w=rng.normal(size=p), sigma2=draw(st.floats(0.1, 10.0)),
                tau2=draw(st.floats(0.1, 10.0)))


def assert_matches_exact(got, exact, size):
    """``got`` lies within ``1e-10 * size`` of the exact rational ``exact``."""
    assert abs(Fraction(got) - exact) <= Fraction(1e-10) * size, (got, float(exact))


class TestRegressionOracle:
    """The one-SVD regression against exact rational arithmetic."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(problem=regression_problems())
    def test_matches_the_rational_oracle(self, problem):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = GaussianRegression(**problem)
            est, pred = regression_estimates(model), regression_predict(model)
        exact = exact_regression(**problem)
        # A mean summed from terms of mixed sign is judged against the size
        # of those terms, so a cancelling sum is not asked for digits it lacks.
        gap = exact["psi_prior_var"] - exact["psi_post_var"]
        assert_matches_exact(est.psi_map, exact["psi_map"], exact["scale"])
        assert_matches_exact(est.psi_post_var, exact["psi_post_var"], exact["psi_post_var"])
        assert_matches_exact(est.psi_lrse, exact["psi_lrse"],
                             exact["scale"] * exact["psi_prior_var"] / gap)
        z_prior_var = Fraction(problem["sigma2"]) + exact["psi_prior_var"]
        assert_matches_exact(pred.z_lrse, exact["z_lrse"], exact["scale"] * z_prior_var / gap)

    @pytest.mark.parametrize("X,y,w", [
        ([[1e160]], [1.0], [1.0]),
        ([[1e-160]], [1.0], [1.0]),
        ([[1.0, 1.0], [1.0, 1.000000001]], [1.0, 1.0], [1.0, 1.0]),
        ([[1.0, 2.0], [3.0, -1.0], [1.0, 1.0]], [1.0, 2.0, 3.0], [1e-170, 2e-170]),
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0], [1e200, 1.0]),
    ])
    def test_extreme_scales_answer_without_warnings(self, X, y, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = GaussianRegression(X=X, y=y, w=w, sigma2=1.0, tau2=1.0)
            est, pred = regression_estimates(model), regression_predict(model)
        exact = exact_regression(X, y, w, 1.0, 1.0)
        for got, key in ((est.psi_map, "psi_map"), (est.psi_lrse, "psi_lrse"),
                         (pred.z_lrse, "z_lrse")):
            assert_matches_exact(got, exact[key], abs(exact[key]))

    @pytest.mark.parametrize("problem", [
        # The least-squares fit, 2e343, overflows.
        dict(X=[[5e-324]], y=[1e20], w=[1.0], sigma2=1e-20, tau2=5e-324),
        # The LRSE per unit of prior variance underflows to 0 where
        # sigma2 / (tau2 t) overflows; their product is about 1.7e136.
        dict(X=[[2.5], [0.0], [-5e-324]], y=[5e-324, 1e160, 0.3], w=[1e-160], sigma2=1.0,
             tau2=1e-300),
        # U'y / S passes the largest double, next to exact zeros of V: the fit's
        # terms of 1e310 cancel in psi, and the LRSE of 2.6e308 overflows.
        dict(X=[[1.0, 0.0, 0.0], [0.0, 1e-10, 0.0], [0.0, 0.0, 1e-10]], y=[0.0, 1e300, -1e300],
             w=[1.0, 1.0, 1.0], sigma2=1.0, tau2=1.0),
        dict(X=[[1.0, 0.0], [0.0, 0.5]], y=[1e308, 1e308], w=[1.0, 1.0], sigma2=1.0, tau2=1.0),
    ])
    def test_results_past_the_double_range_read_inf_or_a_number(self, problem):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = GaussianRegression(**problem)
            est, pred = regression_estimates(model), regression_predict(model)
        values = [*est.mle, est.psi_map, est.psi_lrse, pred.z_map, pred.z_lrse]
        assert not any(np.isnan(values))
        exact = exact_regression(**problem)["z_lrse"]
        if exact > Fraction(np.finfo(float).max):
            assert pred.z_lrse == np.inf
        elif exact:
            # The design's subnormal entry rounds away in the SVD, so only the
            # magnitude is asked for.
            assert 0.5 < pred.z_lrse / float(exact) < 2.0

    def test_one_svd_per_model_and_no_other_solver(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for name in ("inv", "solve", "matrix_rank", "lstsq", "pinv", "qr", "cholesky", "eigh"):
            monkeypatch.setattr(np.linalg, name, None)
        model = GaussianRegression(X=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], y=[1.0, 2.0, 3.0],
                                   w=[1.0, 1.0], sigma2=1.0, tau2=1.0)
        regression_estimates(model), regression_predict(model), regression_estimates(model)
        assert len(calls) == 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5), p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from([0.0, 1e-20, 1e-13, 1e-6]),
           exponent=st.integers(-150, 150))
    def test_refuses_what_matrix_rank_refuses(self, n, p, seed, spread, exponent):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        if p >= 2:
            X[:, -1] = X[:, 0] + spread * rng.normal(size=n)
        X *= 10.0 ** exponent
        kwargs = dict(X=X, y=rng.normal(size=n), w=np.ones(p), sigma2=1.0, tau2=1.0)
        if np.linalg.matrix_rank(X) < p:
            with pytest.raises(SingularDesign):
                GaussianRegression(**kwargs)
        else:
            GaussianRegression(**kwargs)

    def test_badly_scaled_columns_stay_refused(self):
        with pytest.raises(SingularDesign):
            GaussianRegression(X=[[1e200, 0.0], [0.0, 1.0]], y=[1.0, 2.0], w=[1.0, 0.0],
                               sigma2=1.0, tau2=1.0)

    def test_all_zero_w_is_refused_by_name(self):
        with pytest.raises(InvariantViolation, match="^w must have a nonzero entry"):
            GaussianRegression(X=[[1.0, 0.0], [0.0, 1.0]], y=[1.0, 2.0], w=[0.0, -0.0],
                               sigma2=1.0, tau2=1.0)


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


def exact_statistic(method, alpha, beta, n, k):
    """The decision statistic in rational arithmetic."""
    a, b = Fraction(alpha), Fraction(beta)
    stat = (a + k) / (b + n - k)
    return stat * b / a if method == "lrse" else stat


EXTREME_BETA_PARAMETERS = [5e-324, 1e-310, 1e-300, 1e-20, 2.0**-21, 0.5, 3.0, 2.0**21, 1e16, 1e308]


class TestClassCountsAndExtremes:
    @pytest.mark.parametrize("n,cbar", [(5, 0.3), (10, 0.25), (3, 0.333333)])
    def test_cbar_must_be_a_count(self, n, cbar):
        with pytest.raises(InvariantViolation, match="^cbar must be a count over n"):
            BetaBernoulliPredictor(alpha=1.0, beta=1.0, n=n, cbar=cbar, f_ratio=1.0)

    @pytest.mark.parametrize("n,match", [
        (2.5, "n must be an integer"), (np.inf, "n must be an integer"),
        (-1, "cannot be negative"), (10**400, "n must be finite"),
    ])
    def test_training_count_is_checked(self, n, match):
        with pytest.raises(InvariantViolation, match=match):
            BetaBernoulliPredictor(alpha=1.0, beta=1.0, n=n, cbar=0.0, f_ratio=1.0)

    def test_an_integral_float_count_is_read_as_an_int(self):
        model = BetaBernoulliPredictor(alpha=1, beta=2, n=10.0, cbar=0.3, f_ratio=1.0)
        assert (model.alpha, model.beta, model.n) == (1.0, 2.0, 10) and type(model.n) is int

    def test_every_rounded_count_is_accepted(self):
        BetaBernoulliPredictor(alpha=1.0, beta=1.0, n=10, cbar=0.3, f_ratio=1.0)
        for n in range(1, 300):
            for j in range(n + 1):
                BetaBernoulliPredictor(alpha=1.0, beta=1.0, n=n, cbar=j / n, f_ratio=1.0)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(2.0**-20, 2.0**20), beta=st.floats(2.0**-20, 2.0**20),
           n=st.integers(0, 60), method=st.sampled_from(["map", "lrse"]))
    def test_moderate_parameters_keep_the_single_fraction(self, alpha, beta, n, method):
        k = np.arange(n + 1, dtype=float)
        if method == "map":
            want = (alpha + k) / (beta + n - k)
        else:
            want = (beta * (alpha + k)) / (alpha * (beta + n - k))
        assert decision_statistic(method, alpha, beta, n, k).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.sampled_from(EXTREME_BETA_PARAMETERS),
           beta=st.sampled_from(EXTREME_BETA_PARAMETERS), n=st.integers(0, 30),
           method=st.sampled_from(["map", "lrse"]))
    def test_extreme_parameters_give_the_nearest_normal_float(self, alpha, beta, n, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stat = decision_statistic(method, alpha, beta, n, np.arange(n + 1))
        tiny, huge = Fraction(np.finfo(float).tiny), Fraction(np.finfo(float).max)
        for k, got in enumerate(stat):
            want = min(max(exact_statistic(method, alpha, beta, n, k), tiny), huge)
            assert abs(Fraction(float(got)) - want) <= Fraction(1e-12) * want

    @pytest.mark.parametrize("cbar,f_ratio,expected", [(0.0, 20.0, 1), (0.2, 0.5, 1),
                                                      (0.0, 10.0, 0)])
    def test_tiny_alpha_decisions(self, cbar, f_ratio, expected):
        # At k = 0 the exact statistic is beta / (beta + n) = 1 / 11.
        model = BetaBernoulliPredictor(alpha=5e-324, beta=0.5, n=5, cbar=cbar, f_ratio=f_ratio)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict_class(model, "lrse") == expected


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


@pytest.mark.parametrize("call,match", [
    (lambda: classify(BinomialClassifier(0.2, 0.7, 0.1), 2, "lrse"), "observation must be 0 or 1"),
    (lambda: classify(BinomialClassifier(0.2, 0.7, 0.1), 1, "mle"), "unknown method 'mle'"),
    (lambda: decision_statistic("mle", 1.0, 1.0, 5, 2), "unknown method 'mle'"),
], ids=["classify-x-2", "classify-method", "statistic-method"])
def test_refusals(call, match):
    with pytest.raises(InvariantViolation, match=match):
        call()
