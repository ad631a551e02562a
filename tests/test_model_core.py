"""Posterior, marginalization, and predictive table behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    BeliefTables,
    FiniteModel,
    InvariantViolation,
    ZeroEvidence,
    belief_tables,
    normalized,
)
from conftest import model_corpus
from posterior_oracle import compute_posterior, marginalize
from predictive_oracle import (
    NonStochasticKernel,
    PredictiveTables,
    posterior_predictive,
    prior_predictive,
)


def two_point_model(prior, lik_column):
    """Two parameter points, one observable column (plus its complement)."""
    lik = np.column_stack([1.0 - np.asarray(lik_column), lik_column])
    return FiniteModel(
        theta_labels=("a", "b"),
        prior=prior,
        likelihood=lik,
        psi_map=[0, 1],
        psi_labels=("a", "b"),
    )


def triangle_log_density(x):
    """Log of a unit triangle density centred on theta = 0 and theta = 1."""
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(0.0, 1.0 - np.abs(float(x) - np.arange(2))))


class TestComputePosterior:
    def test_uniform_prior_tracks_likelihood(self):
        model = two_point_model([0.5, 0.5], [0.2, 0.8])
        post, evidence = compute_posterior(model, 1)
        np.testing.assert_allclose(post, [0.2, 0.8])
        assert evidence == pytest.approx(0.5)

    def test_point_mass_prior_is_fixed(self):
        model = FiniteModel(
            theta_labels=("only",),
            prior=[1.0],
            likelihood=[[0.3, 0.7]],
            psi_map=[0],
            psi_labels=("only",),
        )
        post, _ = compute_posterior(model, 0)
        np.testing.assert_allclose(post, [1.0])

    def test_two_class_positive_result(self):
        # psi1=0.05, psi2=0.80 with a 5% weight on the second class at x=1:
        # joint weights (0.0475, 0.04).
        model = two_point_model([0.95, 0.05], [0.05, 0.80])
        post, evidence = compute_posterior(model, 1)
        np.testing.assert_allclose(post, [0.542857142857, 0.457142857143], atol=1e-4)
        assert evidence == pytest.approx(0.0875)

    def test_zero_evidence_raises(self):
        # Only reachable through a density callback: table models reject
        # all-zero columns at construction.
        model = FiniteModel(
            theta_labels=("a", "b"),
            prior=[0.5, 0.5],
            likelihood=triangle_log_density,
            psi_map=[0, 1],
            psi_labels=("a", "b"),
        )
        with pytest.raises(ZeroEvidence):
            compute_posterior(model, 100.0)

    def test_density_callback(self):
        model = FiniteModel(
            theta_labels=("lo", "hi"),
            prior=[0.5, 0.5],
            likelihood=lambda x: -0.5 * (x - (np.arange(2) + 1.0)) ** 2,
            psi_map=[0, 1],
            psi_labels=("lo", "hi"),
        )
        post, _ = compute_posterior(model, 2.0)
        assert post[1] > post[0]


class TestMarginalize:
    def test_identity_map_returns_full_vectors(self):
        model = two_point_model([0.3, 0.7], [0.2, 0.9])
        post, _ = compute_posterior(model, 1)
        tables = marginalize(post, model)
        np.testing.assert_allclose(tables.marg_post, post)
        np.testing.assert_allclose(tables.marg_prior, model.prior)

    def test_no_update_gives_unit_ratio(self):
        model = two_point_model([0.3, 0.7], [0.2, 0.9])
        tables = marginalize(model.prior, model)
        np.testing.assert_allclose(tables.rb, 1.0)

    def test_three_to_two_collapse(self):
        model = FiniteModel(
            theta_labels=("1", "2", "3"),
            prior=[0.2, 0.3, 0.5],
            likelihood=[[1.0], [1.0], [1.0]],
            psi_map=[0, 0, 1],
            psi_labels=("A", "B"),
        )
        tables = marginalize([0.5, 0.3, 0.2], model)
        np.testing.assert_allclose(tables.marg_prior, [0.5, 0.5])
        np.testing.assert_allclose(tables.marg_post, [0.8, 0.2])
        np.testing.assert_allclose(tables.rb, [1.6, 0.4])


class TestBeliefInvariants:
    def test_ratio_averages_to_one_and_max_at_least_one(self, corpus):
        for model in corpus:
            for x in range(model.n_x):
                t = belief_tables(model, x)
                assert abs(float(t.rb @ t.marg_prior) - 1.0) <= 1e-12
                assert t.rb.max() >= 1.0 - 1e-12

    def test_marginalization_commutes_with_update(self, rng):
        # Collapsing theta onto psi with the fiber-averaged likelihood, then
        # updating, must match updating first and collapsing afterwards.
        from relbelief.losses import conditional_sampling_table

        for model in model_corpus(25, seed=7):
            collapsed = FiniteModel(
                theta_labels=model.psi_labels,
                prior=model.marginal_prior(),
                likelihood=conditional_sampling_table(model),
                psi_map=np.arange(model.n_psi),
                psi_labels=model.psi_labels,
            )
            for x in range(model.n_x):
                direct = belief_tables(model, x)
                via_psi = belief_tables(collapsed, x)
                np.testing.assert_allclose(
                    direct.marg_post, via_psi.marg_post, atol=1e-12
                )

    def test_tables_reject_inconsistent_ratio(self):
        with pytest.raises(InvariantViolation):
            BeliefTables(
                marg_prior=[0.5, 0.5],
                marg_post=[0.9, 0.1],
                rb=[1.0, 1.0],
                psi_labels=("a", "b"),
            )

    def test_tables_reject_all_diminished_beliefs(self):
        with pytest.raises(InvariantViolation):
            BeliefTables(
                marg_prior=[0.5, 0.5],
                marg_post=[0.45, 0.45],
                rb=[0.9, 0.9],
                psi_labels=("a", "b"),
            )


def unique_psi_map_check(psi_map, n_psi):
    """Oracle: the range and surjectivity checks as written with ``np.unique``."""
    psi_map = np.asarray(psi_map, dtype=np.intp)
    if psi_map.min() < 0 or psi_map.max() >= n_psi:
        raise InvariantViolation("psi_map points outside the psi support")
    if len(np.unique(psi_map)) != n_psi:
        raise InvariantViolation("psi_map must be surjective: every psi needs a preimage")


def build_with_psi_map(psi_map, n_psi):
    FiniteModel(
        theta_labels=tuple(f"t{i}" for i in range(len(psi_map))),
        prior=np.ones(len(psi_map)),
        likelihood=np.ones((len(psi_map), 2)),
        psi_map=psi_map,
        psi_labels=tuple(f"p{j}" for j in range(n_psi)),
    )


@st.composite
def psi_maps(draw):
    """(n_psi, psi_map): one psi, each psi once, one psi missing, heavy
    repeats (surjective or not) and entries outside ``0..n_psi - 1``."""
    kind = draw(st.sampled_from(["one-psi", "each-once", "one-missing", "repeats", "out-of-range"]))
    n_psi = 1 if kind == "one-psi" else draw(st.integers(2, 12))
    if kind == "one-psi":
        psi_map = [0] * draw(st.integers(1, 20))
    elif kind == "each-once":
        psi_map = list(range(n_psi))
    elif kind == "one-missing":
        gone = draw(st.integers(0, n_psi - 1))
        kept = [j for j in range(n_psi) if j != gone]
        psi_map = kept + draw(st.lists(st.sampled_from(kept), max_size=20))
    elif kind == "repeats":
        hit = draw(st.lists(st.integers(0, n_psi - 1), min_size=1, max_size=n_psi, unique=True))
        psi_map = hit + draw(st.lists(st.sampled_from(hit), min_size=50, max_size=300))
    else:
        bad = draw(st.lists(st.sampled_from([-(2**40), -1, n_psi, n_psi + 1, 2**40]),
                            min_size=1, max_size=3))
        psi_map = bad + draw(st.lists(st.integers(0, n_psi - 1), max_size=2 * n_psi))
    return n_psi, draw(st.permutations(psi_map))


class TestModelValidation:
    def test_prior_must_be_positive(self):
        with pytest.raises(InvariantViolation):
            two_point_model([1.0, 0.0], [0.2, 0.8])

    def test_psi_map_must_be_surjective(self):
        with pytest.raises(InvariantViolation):
            FiniteModel(
                theta_labels=("a", "b"),
                prior=[0.5, 0.5],
                likelihood=[[1.0], [1.0]],
                psi_map=[0, 0],
                psi_labels=("A", "B"),
            )

    @given(case=psi_maps())
    @settings(max_examples=300, deadline=None)
    def test_surjectivity_check_matches_unique_oracle(self, case):
        n_psi, psi_map = case
        outcomes = []
        for check in (unique_psi_map_check, build_with_psi_map):
            try:
                check(psi_map, n_psi)
                outcomes.append(None)
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_likelihood_column_needs_positive_entry(self):
        with pytest.raises(InvariantViolation):
            FiniteModel(
                theta_labels=("a", "b"),
                prior=[0.5, 0.5],
                likelihood=[[1.0, 0.0], [1.0, 0.0]],
                psi_map=[0, 1],
                psi_labels=("a", "b"),
            )

    @pytest.mark.parametrize("x", [
        1.9, np.float64(0.9), 1.0, True, np.bool_(True), "+1", " 1", "01", "1_0", "1.5", None,
    ])
    def test_sample_point_must_be_an_index(self, x):
        # An unlabelled 3-theta, 2-column matrix: a number resolves only when
        # it is an integer, and text only when it is the decimal form of one.
        model = FiniteModel(
            theta_labels=("a", "b", "c"),
            prior=[0.5, 0.3, 0.2],
            likelihood=[[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]],
            psi_map=[0, 1, 2],
            psi_labels=("a", "b", "c"),
        )
        with pytest.raises(InvariantViolation, match="is not a sample-space index"):
            belief_tables(model, x)
        assert [model.x_index(i) for i in (1, np.int64(1), "1", 0, np.uint8(0), "0")] == [
            1, 1, 1, 0, 0, 0,
        ]

    @given(
        weights=st.lists(
            st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=30
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_normalized_sums_to_one(self, weights):
        out = normalized(weights)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= 0)


class TestPredictives:
    def test_theta_independent_future(self):
        model = two_point_model([0.4, 0.6], [0.2, 0.8])
        kernel = np.array([[0.3, 0.7], [0.3, 0.7]])
        np.testing.assert_allclose(prior_predictive(model, kernel), [0.3, 0.7])

    def test_two_point_rate_mixture(self):
        model = two_point_model([0.5, 0.5], [0.5, 0.5])
        kernel = np.array([[0.9, 0.1], [0.7, 0.3]])
        np.testing.assert_allclose(prior_predictive(model, kernel), [0.8, 0.2])

    def test_non_stochastic_kernel_rejected(self):
        model = two_point_model([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(NonStochasticKernel):
            prior_predictive(model, np.array([[0.9, 0.2], [0.7, 0.3]]))

    def test_posterior_equals_prior_gives_unit_ratio(self):
        model = two_point_model([0.4, 0.6], [0.2, 0.8])
        kernel = np.array([[0.9, 0.1], [0.2, 0.8]])
        tables = posterior_predictive(model, model.prior, kernel)
        np.testing.assert_allclose(tables.rb_pred, 1.0)

    def test_singleton_support_returns_kernel_row(self):
        model = FiniteModel(
            theta_labels=("only",),
            prior=[1.0],
            likelihood=[[1.0]],
            psi_map=[0],
            psi_labels=("only",),
        )
        kernel = np.array([[0.25, 0.75]])
        tables = posterior_predictive(model, [1.0], kernel)
        np.testing.assert_allclose(tables.post_pred, [0.25, 0.75])

    def test_two_stage_matches_joint_enumeration(self, rng):
        # Full (theta, x, y) enumeration against the staged computation.
        for _ in range(20):
            n_theta, n_x, n_y = rng.integers(2, 6, size=3)
            prior = rng.dirichlet(np.ones(n_theta))
            lik = rng.dirichlet(np.ones(n_x), size=n_theta)
            kernel = rng.dirichlet(np.ones(n_y), size=(n_theta, n_x))
            model = FiniteModel(
                theta_labels=tuple(f"t{i}" for i in range(n_theta)),
                prior=prior,
                likelihood=lik,
                psi_map=np.arange(n_theta),
                psi_labels=tuple(f"t{i}" for i in range(n_theta)),
            )
            joint = prior[:, None, None] * lik[:, :, None] * kernel
            q_prior = joint.sum(axis=(0, 1))
            x_obs = int(rng.integers(0, n_x))
            post, m = compute_posterior(model, x_obs)
            q_post = joint[:, x_obs, :].sum(axis=0) / m
            staged = posterior_predictive(model, post, kernel, x_obs)
            np.testing.assert_allclose(staged.prior_pred, q_prior, atol=1e-12)
            np.testing.assert_allclose(staged.post_pred, q_post, atol=1e-12)

    def test_predictive_tables_validate_sums(self):
        with pytest.raises(InvariantViolation):
            PredictiveTables(
                y_labels=("0", "1"),
                prior_pred=[0.5, 0.5],
                post_pred=[0.9, 0.3],
                rb_pred=[1.8, 0.6],
            )
