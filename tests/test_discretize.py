"""Quadrature, grid construction, and refinement experiments."""

import dataclasses
import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import norm

from relbelief import (
    ContinuousModel1D,
    FiniteModel,
    HypothesisViolated,
    InvariantViolation,
    LossSpec,
    NormalNormalTestbed,
    QuadratureFailure,
    ZeroBinMass,
    belief_tables,
    build_grid,
    capped_rule_refinement,
    eta_schedule,
    grid_lrse_refinement,
    grid_tables,
    region_refinement,
)
from relbelief.estimators import lrse, map_estimate
import relbelief.discretize as discretize
import relbelief.quadrature as quadrature
from relbelief.cli import run
from relbelief.discretize import RegularGrid, check_peak_separation
from relbelief.quadrature import integrate_bins
from relbelief.regions import lpl_region, rs_region
from posterior_oracle import normal_posterior


def uniform_model():
    return ContinuousModel1D(
        prior_density=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        likelihood=lambda t, x: np.zeros_like(np.asarray(t, dtype=float)),
        support=(0.0, 1.0),
    )


class TestQuadrature:
    def test_polynomial_is_exact(self):
        val = integrate_bins(lambda t: 3 * t**2, [0.0, 2.0])[0]
        assert val == pytest.approx(8.0, rel=1e-12)

    def test_normal_cdf_difference(self):
        val = integrate_bins(lambda t: norm.pdf(t), [-1.0, 2.0])[0]
        assert val == pytest.approx(norm.cdf(2.0) - norm.cdf(-1.0), rel=1e-10)

    def test_oscillatory_integrand(self):
        val = integrate_bins(lambda t: np.sin(40 * t), [0.0, np.pi])[0]
        exact = (1 - math.cos(40 * math.pi)) / 40
        assert val == pytest.approx(exact, abs=1e-10)

    def test_depth_limit_failure(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 3)
        with pytest.raises(QuadratureFailure):
            integrate_bins(lambda t: 1.0 / np.sqrt(np.abs(t) + 1e-300), [0.0, 1.0])


class TestBuildGrid:
    def test_uniform_quarters(self):
        _, grid = build_grid(uniform_model(), 0.0, 0.25)
        np.testing.assert_allclose(grid.bin_prior, 0.25, rtol=1e-10)
        np.testing.assert_allclose(grid.representatives, [0.125, 0.375, 0.625, 0.875])

    def test_standard_normal_center_bins(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        _, grid = build_grid(tb.continuous_model(), 1.0, 1.0)
        # bins [-1,0] and [0,1] each hold about 0.3413 of the prior
        center = grid.bin_index_of([-0.5, 0.5])
        expected = norm.cdf(1.0) - norm.cdf(0.0)
        for idx in center:
            assert grid.bin_prior[idx] == pytest.approx(expected, rel=1e-9)

    def test_grid_model_reproduces_bin_posteriors(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        tables, grid = grid_tables(tb.continuous_model(), 1.0, 0.5)
        mean, var = normal_posterior(tb, 1.0)
        sd = math.sqrt(var)
        lo, hi = grid.edges[10], grid.edges[11]
        expected = norm.cdf((hi - mean) / sd) - norm.cdf((lo - mean) / sd)
        assert tables.marg_post[10] == pytest.approx(expected, rel=1e-9)

    def test_discretized_ratio_argmax_near_mle(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        tables, grid = grid_tables(tb.continuous_model(), 1.0, 0.1)
        best = lrse(tables)
        assert abs(grid.representatives[best.psi_index] - 1.0) <= 0.1

    def test_totals_within_truncation_budget(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        tables, grid = grid_tables(tb.continuous_model(), 1.0, 0.25)
        assert 1.0 - 1e-6 <= grid.bin_prior.sum() <= 1.0 + 1e-9
        assert tables.marg_post.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_mass_bin_rejected(self):
        model = ContinuousModel1D(
            prior_density=lambda t: np.where(np.asarray(t) < 0.5, 2.0, 0.0),
            likelihood=lambda t, x: np.zeros_like(np.asarray(t, dtype=float)),
            support=(0.0, 1.0),
        )
        with pytest.raises(ZeroBinMass):
            build_grid(model, 0.0, 0.1)

    def test_wide_bins_rejected(self):
        with pytest.raises(InvariantViolation):
            build_grid(uniform_model(), 0.0, 0.3)

    def test_refinement_recovers_density(self):
        # bin_prior / width at the representative converges to the density
        # with order >= 1 (log-log slope over the schedule)
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        cm = tb.continuous_model()
        lams, errors = [], []
        for lam in (0.4, 0.2, 0.1, 0.05):
            _, grid = build_grid(cm, 1.0, lam)
            idx = int(grid.bin_index_of([0.3])[0])
            approx = grid.bin_prior[idx] / grid.lam
            truth = float(norm.pdf(grid.representatives[idx]))
            lams.append(grid.lam)
            errors.append(abs(approx - truth))
        slope = np.polyfit(np.log(lams), np.log(errors), 1)[0]
        assert slope >= 1.0

    def test_grid_arrays_are_read_only(self):
        _, grid = build_grid(NormalNormalTestbed(tau=1.0, sigma=1.0).continuous_model(), 1.0, 0.2)
        eta = eta_schedule(grid, 40)
        for name in ("edges", "representatives", "bin_prior"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[40] = 1.0
        assert eta_schedule(grid, 40) == eta

    def test_rebinning_is_partition_inverse(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        tables, grid = grid_tables(tb.continuous_model(), 1.0, 0.2)
        region = rs_region(tables, 0.9)
        recovered = grid.bin_index_of(grid.representatives[list(region.members)])
        assert tuple(int(i) for i in recovered) == region.members


class TestEtaSchedule:
    def test_uniform_half_bin(self):
        _, grid = build_grid(uniform_model(), 0.0, 0.25)
        assert eta_schedule(grid, 2) == pytest.approx(0.125, rel=1e-10)

    def test_half_winning_bin_mass(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        tables, grid = grid_tables(tb.continuous_model(), 1.0, 0.25)
        bin_idx = lrse(tables).psi_index
        assert eta_schedule(grid, bin_idx) == pytest.approx(
            grid.bin_prior[bin_idx] / 2, rel=1e-12
        )

    def test_vanishes_with_bin_width(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        cm = tb.continuous_model()
        etas = []
        for lam in (0.4, 0.2, 0.1):
            tables, grid = grid_tables(cm, 1.0, lam)
            etas.append(eta_schedule(grid, lrse(tables).psi_index))
        assert etas[0] > etas[1] > etas[2] > 0


class TestRuleRefinement:
    def test_capped_bayes_error_within_bin_width(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        rows = capped_rule_refinement(
            tb.continuous_model(), 1.0, [0.2, 0.1, 0.05, 0.025], tb.psi_lrse(1.0)
        )
        assert all(r.within_lambda for r in rows)
        assert [r.lam for r in rows] == [0.2, 0.1, 0.05, 0.025]

    def test_grid_lrse_error_within_bin_width(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        rows = grid_lrse_refinement(
            tb.continuous_model(), 1.0, [0.2, 0.1, 0.05, 0.025], 1.0
        )
        assert all(r.within_lambda for r in rows)

    def test_single_step_schedule(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        rows = grid_lrse_refinement(tb.continuous_model(), 1.0, [0.1], 1.0)
        assert len(rows) == 1

    def test_equal_twin_peaks_violate_hypotheses(self):
        # the ratio equals the likelihood here, and the likelihood has two
        # exactly equal bumps
        model = ContinuousModel1D(
            prior_density=lambda t: norm.pdf(t),
            likelihood=lambda t, x: -0.5 * (np.abs(np.asarray(t)) - 4.0) ** 2,
            support=(-8.0, 8.0),
        )
        with pytest.raises(HypothesisViolated):
            grid_lrse_refinement(model, 0.0, [0.1], 4.0)


class TestEdgePeaks:
    def test_edge_bin_peak_violates_hypotheses(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        tables, _ = grid_tables(tb.continuous_model(), 30.0, 0.1)
        with pytest.raises(HypothesisViolated, match="edge bin"):
            check_peak_separation(tables)

    @pytest.mark.parametrize(
        "args",
        [["--x", "10"], ["--x", "30"], ["--x", "50"], ["--sigma", "10", "--x", "20"]],
        ids=["x10", "x30", "x50", "sigma10-x20"],
    )
    def test_converge_exits_1_naming_the_edge_bin(self, tmp_path, capsys, args):
        assert run(["--output-dir", str(tmp_path), "converge", *args]) == 1
        err = capsys.readouterr().err
        assert "peaks in an edge bin" in err and "7.9875" in err

    @pytest.mark.parametrize("x", ["7.9", "4", "-1.5"])
    def test_interior_peaks_still_converge(self, tmp_path, capsys, x):
        assert run(["--output-dir", str(tmp_path), "converge", "--x", x]) == 0


class TestLogLikelihoodProtocol:
    def test_many_observations_do_not_underflow(self):
        # 2,000 N(theta, 1) observations: the largest likelihood on the
        # interval is about exp(-2,800), which a linear density cannot hold.
        data = np.random.default_rng(2000).normal(0.5, 1.0, 2000)
        n, total, squares = data.size, data.sum(), float(data @ data)

        def log_lik(t, x):
            t = np.asarray(t, dtype=float)
            return -0.5 * (squares - 2.0 * t * total + n * t * t) - n * math.log(
                math.sqrt(2 * math.pi)
            )

        cmodel = ContinuousModel1D(
            prior_density=norm.pdf, likelihood=log_lik, support=(-8.0, 8.0)
        )
        tables, grid = grid_tables(cmodel, data.mean(), 0.01)
        assert abs(grid.representatives[lrse(tables).psi_index] - data.mean()) <= grid.lam

    def test_impossible_data_has_zero_evidence(self):
        cmodel = ContinuousModel1D(
            prior_density=norm.pdf,
            likelihood=lambda t, x: np.full(np.shape(t), -np.inf),
            support=(-8.0, 8.0),
        )
        with pytest.raises(InvariantViolation, match="zero evidence"):
            build_grid(cmodel, 0.0, 0.5)

    @pytest.mark.parametrize("argv", [["--x", "1e308"], ["--x", "-1e308"], ["--sigma", "1e-300"]])
    def test_log_likelihood_past_the_double_range_exits_2_naming_it(self, tmp_path, capsys, argv):
        # -z*z/2 overflows at every node: the evidence is positive, but
        # only differences of log-likelihoods past the double range hold it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(tmp_path), "converge", *argv]) == 2
        err = capsys.readouterr().err
        assert "passes the double range" in err and "zero evidence" not in err

    def test_spike_between_first_nodes_exits_2_naming_it(self, tmp_path, capsys):
        # At sigma = 1e-6 the likelihood's peak at theta = x = 1 is far
        # narrower than a bin.  On the default schedule a K15 node of the
        # first pass lands close enough to it, and the answer must be the
        # closed form's: the posterior is N(x / (1 + s^2), s^2 / (1 + s^2)).
        # A lone 0.2-wide grid, or sigma = 1e-8, leaves the peak between the
        # first nodes, and a later node finds it past the float range.
        x, sigma = 1.0, 1e-6
        cmodel = NormalNormalTestbed(sigma=sigma).continuous_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(tmp_path / "answer"), "converge",
                        "--sigma", str(sigma)]) == 0
            lams = [0.2, 0.1, 0.05, 0.025]
            widths = discretize._tables(cmodel, x, [*lams, lams[-1] / 4])
            with pytest.raises(InvariantViolation, match="a spike the grid's first nodes missed"):
                build_grid(cmodel, x, 0.2)
            assert run(["--output-dir", str(tmp_path), "converge", "--sigma", "1e-8"]) == 2
        rows = (tmp_path / "answer" / "converge.csv").read_text().splitlines()
        lrse_rows = [row.split(",") for row in rows if row.startswith("grid-lrse,")]
        assert [float(row[1]) for row in lrse_rows] == lams
        assert all(abs(float(row[3]) - x) <= float(row[1]) for row in lrse_rows)
        mean, sd = x / (1 + sigma**2), sigma / math.sqrt(1 + sigma**2)
        for tables, grid in widths:
            exact = np.diff(norm.cdf((grid.edges - mean) / sd))
            np.testing.assert_allclose(tables.marg_post, exact, rtol=0, atol=5e-11)
        err = capsys.readouterr().err
        assert "log-likelihood of x = 1.0 at theta = 1.00001335" in err and "by 2.67373e+06" in err
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "validation-error"

    def test_nan_observation_is_named(self):
        cmodel = NormalNormalTestbed().continuous_model()
        with pytest.raises(InvariantViolation, match="observation nan gives a NaN"):
            build_grid(cmodel, math.nan, 0.5)


# Smooth monotone maps g of theta, with the inverse and its derivative.
MAPS = {
    "exp-quarter": (lambda th: np.exp(th / 4.0), lambda u: 4.0 * np.log(u), lambda u: 4.0 / u),
    "sinh": (np.sinh, np.arcsinh, lambda u: 1.0 / np.sqrt(1.0 + u * u)),
}


def mapped_model(g, g_inv, g_inv_slope, tau, sigma, half_width):
    """The normal-normal testbed in the parameter g(theta), Jacobian in the prior."""
    return ContinuousModel1D(
        prior_density=lambda u: norm.pdf(g_inv(u), 0.0, tau) * g_inv_slope(u),
        likelihood=lambda u, x: norm.logpdf(x, g_inv(u), sigma),
        support=(float(g(-half_width)), float(g(half_width))),
    )


class TestReparameterizationDemo:
    def test_lrse_migrates_with_monotone_transform_map_does_not(self):
        # Work in t = exp(psi/4) with the correct density Jacobian.  The
        # ratio argmax is parameterization-free, so the grid LRSE must land
        # within one bin of the transformed value; the posterior-density
        # argmax picks up the Jacobian and demonstrably does not.
        x_obs = 1.0
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        psi_lrse, (psi_map, _) = tb.psi_lrse(x_obs), normal_posterior(tb, x_obs)
        transformed = mapped_model(*MAPS["exp-quarter"], tau=1.0, sigma=1.0, half_width=8.0)
        lo, hi = transformed.support
        lam = (hi - lo) / 512
        tables, grid = grid_tables(transformed, x_obs, lam)

        t_lrse = float(grid.representatives[lrse(tables).psi_index])
        assert abs(t_lrse - np.exp(psi_lrse / 4.0)) <= grid.lam

        t_map = float(grid.representatives[map_estimate(tables).psi_index])
        # the t-space mode solves a shifted stationarity condition
        continuous_t_map = float(np.exp(3.0 / 32.0))
        assert abs(t_map - continuous_t_map) <= grid.lam
        assert abs(t_map - np.exp(psi_map / 4.0)) > 2 * grid.lam

    @pytest.mark.parametrize("name", sorted(MAPS))
    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-1.2, 1.2))
    def test_lrse_and_rs_region_follow_the_map(self, name, x):
        # Prior N(0, 0.5^2) on +-5 sd and x ~ N(theta, 0.25^2), so 512 bins
        # resolve the posterior wherever g is steep or flat.  The belief
        # ratio is a density ratio, so the Jacobian cancels from it: the
        # grid LRSE in g lands within one bin of g(x), and the ends of the
        # RS region in g land near the images of the theta-region's ends.
        g, g_inv, _ = MAPS[name]
        tau, sigma, gamma = 0.5, 0.25, 0.9
        cmodel = mapped_model(*MAPS[name], tau=tau, sigma=sigma, half_width=5 * tau)
        lo, hi = cmodel.support
        tables, grid = grid_tables(cmodel, x, (hi - lo) / 512)
        assert abs(grid.representatives[lrse(tables).psi_index] - g(x)) <= grid.lam

        # In theta the ratio is the likelihood, so the RS region is x +- r
        # with posterior mass gamma.
        tb = NormalNormalTestbed(tau=tau, sigma=sigma)
        mean, var = normal_posterior(tb, x)
        sd = math.sqrt(var)
        r = brentq(
            lambda r: norm.cdf(x + r, mean, sd) - norm.cdf(x - r, mean, sd) - gamma, 0.0, 5.0,
            xtol=1e-14,
        )
        ends = np.array([x - r, x + r])
        # Compared in theta.  The region's bins overshoot gamma by at most
        # one boundary bin, which moves both ends, so each end is allowed
        # the theta-width of one bin at each end.
        end_bins = grid.bin_index_of(g(ends))
        one_bin_each = float(np.sum(g_inv(grid.edges[end_bins + 1]) - g_inv(grid.edges[end_bins])))
        members = rs_region(tables, gamma).members
        got = g_inv(grid.edges[[members[0], members[-1] + 1]])
        assert np.all(np.abs(got - ends) <= one_bin_each)


class TestRegionRefinement:
    def test_distances_shrink_and_pass_threshold(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        rows = region_refinement(
            tb.continuous_model(), 1.0, 0.9, [0.2, 0.1, 0.05, 0.025], [0.01, 0.0001]
        )
        assert rows[-1].rs_distance <= 0.01
        smallest_eta_final = rows[-1].capped_distances[-1][1]
        assert smallest_eta_final <= 0.01
        assert rows[-1].rs_distance <= rows[0].rs_distance

    def test_distances_are_reference_mass_of_symmetric_difference(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        cm, gamma, lambdas, etas = tb.continuous_model(), 0.9, [0.2, 0.1], [0.01, 0.0001]
        ref_tables, ref_grid = grid_tables(cm, 1.0, 0.1 / 4)
        ref = set(rs_region(ref_tables, gamma).members)

        def distance(grid, region):
            owner = grid.bin_index_of(ref_grid.representatives)
            covered = {i for i in range(ref_grid.n_bins) if owner[i] in region.members}
            return math.fsum(ref_tables.marg_post[sorted(ref ^ covered)])

        rows = region_refinement(cm, 1.0, gamma, lambdas, etas)
        for row, lam in zip(rows, lambdas):
            tables, grid = grid_tables(cm, 1.0, lam)
            assert row.rs_distance == distance(grid, rs_region(tables, gamma))
            assert row.capped_distances == tuple(
                (eta, distance(grid, lpl_region(LossSpec.capped(eta), tables, gamma)))
                for eta in etas
            )

    def test_full_credibility_distance_zero(self):
        tb = NormalNormalTestbed(tau=1.0, sigma=1.0)
        rows = region_refinement(
            tb.continuous_model(), 1.0, 1.0, [0.2, 0.1], [0.01]
        )
        for row in rows:
            assert row.rs_distance == 0.0
            assert all(d == 0.0 for _, d in row.capped_distances)


# Bin counts on [-8 tau, 8 tau]: a chain of multiples, whose reference grid
# (four times the finest count) holds every edge, or any increasing counts.
nested_counts = st.builds(
    lambda base, factors: [base * math.prod(factors[:i]) for i in range(len(factors) + 1)],
    st.integers(4, 40), st.lists(st.sampled_from([2, 3]), max_size=2),
)
any_counts = st.lists(st.integers(4, 300), min_size=1, max_size=4, unique=True).map(sorted)


class TestCommonRefinement:
    """The widths of a refinement run, read from one quadrature of their union."""

    @settings(max_examples=60, deadline=None)
    @given(counts=st.one_of(nested_counts, any_counts), tau=st.floats(0.5, 2.0),
           sigma=st.floats(0.3, 2.0), where=st.floats(-0.25, 0.25), gamma=st.floats(0.5, 0.95))
    def test_each_width_matches_its_own_grid(self, counts, tau, sigma, where, gamma):
        cmodel = NormalNormalTestbed(tau=tau, sigma=sigma).continuous_model()
        lo, hi = cmodel.support
        x = where * (hi - lo)
        lams = [(hi - lo) / n for n in counts]
        lams.append(lams[-1] / 4)
        widths = discretize._tables(cmodel, x, lams)
        for lam, (tables, grid) in zip(lams, widths):
            own_tables, own_grid = grid_tables(cmodel, x, lam)
            assert grid.lam == own_grid.lam
            assert grid.representatives.tobytes() == own_grid.representatives.tobytes()
            np.testing.assert_allclose(grid.bin_prior, own_grid.bin_prior, rtol=1e-12, atol=0)
            # Each side shifts its likelihood by its own first pass, so masses
            # near the underflow threshold may differ in more than rounding.
            np.testing.assert_allclose(tables.marg_post, own_tables.marg_post,
                                       rtol=1e-12, atol=1e-300)
            assert rs_region(tables, gamma).members == rs_region(own_tables, gamma).members
        finest = widths[-1][1].n_bins
        if all(finest % n == 0 for n in counts):  # the reference holds every edge
            tables, grid = widths[-1]
            own_tables, own_grid = grid_tables(cmodel, x, lams[-1])
            assert grid.bin_prior.tobytes() == own_grid.bin_prior.tobytes()
            assert tables.marg_post.tobytes() == own_tables.marg_post.tobytes()

    def test_one_quadrature_per_experiment(self, monkeypatch):
        calls = []

        def counted(f, edges):
            calls.append(len(edges) - 1)
            return integrate_bins(f, edges)

        monkeypatch.setattr(discretize, "integrate_bins", counted)
        cm = NormalNormalTestbed(tau=1.0, sigma=1.0).continuous_model()
        # 16 / 0.3 and 16 / 0.07 round to 53 and 229 bins, the reference to
        # 914; the three counts are pairwise coprime, so no inner edge is
        # shared.  0.2 and 0.1 nest: 160 bins.
        capped_rule_refinement(cm, 1.0, [0.3, 0.07], 1.0)
        grid_lrse_refinement(cm, 1.0, [0.2, 0.1], 1.0)
        region_refinement(cm, 1.0, 0.9, [0.3, 0.07], [0.01])
        assert calls == [53 + 229 - 1, 160, 53 + 229 + 914 - 2]


def public_grid_model(labels, prior_mass, likelihood, coords) -> FiniteModel:
    """A grid's model through the public constructor, with every check it makes."""
    return FiniteModel(theta_labels=labels, prior=prior_mass, likelihood=likelihood,
                       psi_map=np.arange(len(labels)), psi_labels=labels, psi_coords=coords)


def assert_same_model(model: FiniteModel, oracle: FiniteModel) -> None:
    """Equal fields: arrays by bits, dtype, shape and read-only flag, the rest by value and type."""
    for field in dataclasses.fields(FiniteModel):
        got, want = getattr(model, field.name), getattr(oracle, field.name)
        assert type(got) is type(want), field.name
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert not got.flags.writeable and not want.flags.writeable, field.name
        else:
            assert got == want, field.name


class TestTrustedGridModels:
    """Each width's model skips only the public constructor's checks its grid implies."""

    @settings(max_examples=40, deadline=None)
    @given(counts=st.one_of(nested_counts, any_counts), tau=st.floats(0.5, 2.0),
           sigma=st.floats(0.3, 2.0), where=st.floats(-0.25, 0.25))
    def test_each_width_equals_the_public_constructors_model(self, counts, tau, sigma, where):
        cmodel = NormalNormalTestbed(tau=tau, sigma=sigma).continuous_model()
        lo, hi = cmodel.support
        lams, x = [(hi - lo) / n for n in counts], where * (hi - lo)
        trusted = discretize._build_grids(cmodel, x, lams)
        with mock.patch.object(discretize, "_grid_model", public_grid_model):
            public = discretize._build_grids(cmodel, x, lams)
        for (model, grid), (oracle, oracle_grid) in zip(trusted, public):
            assert_same_model(model, oracle)
            assert model.n_x == 1
            # replace runs the public constructor, which renormalizes the prior.
            assert_same_model(dataclasses.replace(model), dataclasses.replace(oracle))
            assert grid.bin_prior.tobytes() == oracle_grid.bin_prior.tobytes()
            assert belief_tables(model, 0).rb.tobytes() == belief_tables(oracle, 0).rb.tobytes()

    @pytest.mark.parametrize("joint, message", [
        ([0.25, np.nan, 0.25, 0.25], "likelihood entries must be finite and >= 0"),
        ([0.25, np.inf, 0.25, 0.25], "likelihood entries must be finite and >= 0"),
        ([0.25, 0.25, -np.inf, 0.25], "likelihood entries must be finite and >= 0"),
        ([0.25, 0.25, 0.25, -1e-300], "likelihood entries must be finite and >= 0"),
        ([0.0, -0.0, 0.0, 0.0], "every sample-space column needs at least one positive likelihood"),
    ], ids=["nan", "inf", "minus-inf", "negative", "all-zero"])
    def test_each_likelihood_refusal_still_fires(self, monkeypatch, joint, message):
        pieces = np.array([np.full(4, 0.25), joint])
        monkeypatch.setattr(discretize, "integrate_bins", lambda f, edges: pieces)
        with mock.patch.object(discretize, "_grid_model", public_grid_model):
            with pytest.raises(InvariantViolation) as public:
                build_grid(uniform_model(), 0.0, 0.25)
        with pytest.raises(InvariantViolation) as trusted:
            build_grid(uniform_model(), 0.0, 0.25)
        assert type(trusted.value) is type(public.value)
        assert str(trusted.value) == str(public.value) == message


def merged_edges(a, b, counts):
    """The union of the counts' edges as exact fractions of ``[a, b]``, sorted,
    each valued as the finest count that holds it computes it."""
    value = {}
    for n in sorted(counts):  # finer counts overwrite
        value.update((Fraction(j, n), a + ((b - a) / n) * j) for j in range(n + 1))
    return sorted(value), value


class TestEdgeMerge:
    """The union of a run's edges and each width's place in it, with no quadrature."""

    @settings(max_examples=100, deadline=None)
    @given(counts=st.one_of(nested_counts,
                            st.lists(st.integers(4, 3000), min_size=1, max_size=4, unique=True)),
           a=st.floats(-10.0, 10.0), span=st.floats(0.5, 20.0))
    def test_union_and_positions_match_the_fraction_oracle(self, counts, a, span):
        b = a + span
        seen = []

        def pieces(f, edges):  # piece k of N: prior 1 / N, joint k / N
            seen.append(edges)
            return np.stack([np.full(edges.size - 1, 1.0 / (edges.size - 1)),
                             np.arange(edges.size - 1) / (edges.size - 1)])

        def never(*args):
            raise AssertionError("the integrand was called")

        cmodel = ContinuousModel1D(prior_density=never, likelihood=never, support=(a, b))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(discretize, "integrate_bins", pieces)
            grids = discretize._build_grids(cmodel, 0.0, [span / n for n in counts])
        fractions, value = merged_edges(cmodel.support[0], cmodel.support[1], counts)
        (edges,) = seen
        assert edges.tobytes() == np.array([value[q] for q in fractions]).tobytes()
        index = {q: i for i, q in enumerate(fractions)}
        pieces_total = len(fractions) - 1
        for n, (model, grid) in zip(counts, grids):
            position = np.array([index[Fraction(j, n)] for j in range(n + 1)])
            # A bin's prior counts its pieces; its likelihood is their mean index.
            np.testing.assert_array_equal(np.rint(grid.bin_prior * pieces_total), np.diff(position))
            np.testing.assert_allclose(model.likelihood[:, 0],
                                       (position[:-1] + position[1:] - 1) / 2, rtol=1e-12)


class TestGridSizeLimit:
    """Grids above MAX_BINS bins are refused before anything is integrated."""

    @pytest.fixture
    def no_quadrature(self, monkeypatch):
        def never(f, edges):
            raise AssertionError("a refused grid was integrated")

        monkeypatch.setattr(discretize, "integrate_bins", never)

    @pytest.mark.parametrize("argv, message", [
        (["--lambdas", "1e-9"], "bin width 1e-09 on [-8.0, 8.0] needs 1.6e+10 bins"),
        (["--tau", "1e4"], "bin width 0.1 on [-80000.0, 80000.0] needs 1.6e+06 bins"),
        (["--lambdas", "5e-324"], "bin width 5e-324 on [-8.0, 8.0] needs inf bins"),
        # 160,000, 177,778 and 711,111 bins, each allowed alone.
        (["--lambdas", "0.0001,0.00009"], "need 1048886 bins together"),
    ])
    def test_converge_exits_2(self, tmp_path, capsys, no_quadrature, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(tmp_path), "converge", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(discretize, "MAX_BINS", 100)
        _, grid = build_grid(uniform_model(), 0.0, 0.01)
        assert grid.n_bins == 100
        monkeypatch.setattr(discretize, "integrate_bins", None)
        with pytest.raises(InvariantViolation, match="needs 101 bins, more than 100$"):
            build_grid(uniform_model(), 0.0, 1 / 101)
        with pytest.raises(InvariantViolation, match="need 103 bins together, more than 100$"):
            discretize._build_grids(uniform_model(), 0.0, [1 / 51, 1 / 53])

    def test_union_is_refused_at_the_width_that_passes_the_limit(self, monkeypatch):
        # Merged coarsest first: 49 bins, then 49 and 53 give 101 together,
        # refused before 59 and 61 are merged or anything is integrated.
        monkeypatch.setattr(discretize, "MAX_BINS", 100)
        monkeypatch.setattr(discretize, "integrate_bins", None)
        with pytest.raises(InvariantViolation, match="need 101 bins together, more than 100$"):
            discretize._build_grids(uniform_model(), 0.0, [1 / 61, 1 / 53, 1 / 59, 1 / 49])


def unit_grid() -> RegularGrid:
    return RegularGrid(lam=0.5, edges=np.array([0.0, 0.5, 1.0]),
                       representatives=np.array([0.25, 0.75]), bin_prior=np.array([0.5, 0.5]))


@pytest.mark.parametrize("call,match", [
    (lambda: ContinuousModel1D(prior_density=np.ones_like, likelihood=lambda t, x: t * 0.0,
                               support=(1.0, 1.0)), "support must be a finite interval"),
    (lambda: eta_schedule(unit_grid(), 2), "lrse_bin out of range"),
    (lambda: eta_schedule(unit_grid(), -1), "lrse_bin out of range"),
], ids=["empty-support", "bin-past-the-end", "negative-bin"])
def test_refusals(call, match):
    with pytest.raises(InvariantViolation, match=match):
        call()
