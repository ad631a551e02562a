"""Region construction, tail probabilities, sweeps, and brute-force checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    BeliefTables,
    InvariantViolation,
    LossSpec,
    UnknownPsi,
    attainable_gammas,
    belief_tables,
    eta_sweep,
    hpd_region,
    lpl_region,
    rs_region,
    tail_probability,
)
from relbelief.discretize import RegularGrid, _region_rows
from relbelief.estimators import TIE_RTOL, lrse
from relbelief.regions import CredibleRegion
from region_oracle import TooLargeForBruteForce, minimal_prior_size_check
from test_sample_space_tables import finite_models


def oracle_attainable_gammas(tables, family):
    """The loop ``attainable_gammas`` replaced: one tie-class check per ranked position."""
    values = tables.rb if family == "rs" else tables.marg_post
    order = np.argsort(-values, kind="stable")
    cum = np.cumsum(tables.marg_post[order])
    ranked = values[order]
    tol = TIE_RTOL * float(values.max() - values.min())
    out = []
    for pos in range(ranked.size):
        if pos == ranked.size - 1 or ranked[pos + 1] < ranked[pos] - tol:
            out.append(float(cum[pos]))
    return np.array(out)


def make_tables(marg_prior, marg_post):
    prior = np.asarray(marg_prior, dtype=float)
    post = np.asarray(marg_post, dtype=float)
    return BeliefTables(
        marg_prior=prior,
        marg_post=post,
        rb=post / prior,
        psi_labels=tuple(f"p{i}" for i in range(prior.size)),
    )


class TestHpdRegion:
    def test_full_credibility_is_full_support(self):
        tables = make_tables([0.25] * 4, [0.4, 0.3, 0.2, 0.1])
        region = hpd_region(tables, 1.0)
        assert region.members == (0, 1, 2, 3)
        assert region.attained_mass == pytest.approx(1.0)

    def test_greedy_by_posterior_mass(self):
        tables = make_tables([1 / 3] * 3, [0.7, 0.2, 0.1])
        region = hpd_region(tables, 0.8)
        assert region.members == (0, 1)
        assert region.attained_mass == pytest.approx(0.9)

    def test_zero_credibility_shrinks_to_mode_set(self):
        tables = make_tables([0.25] * 4, [0.4, 0.4, 0.1, 0.1])
        region = hpd_region(tables, 0.0)
        assert region.members == (0, 1)

    def test_minimality_of_threshold_class(self, corpus):
        # dropping the entire boundary tie class must fall below gamma
        for model in corpus[:30]:
            tables = belief_tables(model, 0)
            for gamma in (0.3, 0.6, 0.9):
                region = hpd_region(tables, gamma)
                strict = [
                    i
                    for i in region.members
                    if tables.marg_post[i] > region.threshold * (1 + 1e-12)
                ]
                assert float(tables.marg_post[strict].sum()) < gamma


class TestRsRegion:
    def test_uniform_prior_matches_hpd(self):
        tables = make_tables([0.25] * 4, [0.4, 0.3, 0.2, 0.1])
        for gamma in (0.0, 0.3, 0.65, 1.0):
            assert rs_region(tables, gamma).members == hpd_region(tables, gamma).members

    def test_three_point_example(self):
        tables = make_tables([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        region = rs_region(tables, 0.5)
        assert region.members == (0,)
        assert region.attained_mass == pytest.approx(0.5)

    def test_zero_credibility_is_lrse_set(self, corpus):
        for model in corpus[:30]:
            tables = belief_tables(model, 0)
            assert set(rs_region(tables, 0.0).members) == set(lrse(tables).argmax_set)

    def test_nesting_across_gammas(self, corpus):
        for model in corpus[:30]:
            tables = belief_tables(model, 1 % model.n_x)
            gammas = np.linspace(0.0, 1.0, 7)
            for build in (rs_region, hpd_region):
                regions = [build(tables, g) for g in gammas]
                for small, large in zip(regions, regions[1:]):
                    assert set(small.members) <= set(large.members)


class TestTailProbability:
    def test_lrse_is_least_surprising(self, corpus):
        for model in corpus[:30]:
            tables = belief_tables(model, 0)
            best = lrse(tables).psi_index
            assert tail_probability(tables, best) == pytest.approx(1.0)

    def test_three_point_value(self):
        tables = make_tables([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        assert tail_probability(tables, 1) == pytest.approx(0.5)

    def test_flat_ratio_everywhere_one(self):
        tables = make_tables([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        for j in range(3):
            assert tail_probability(tables, j) == pytest.approx(1.0)

    def test_unknown_index_rejected(self):
        tables = make_tables([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(UnknownPsi):
            tail_probability(tables, 5)

    def test_duality_with_region_membership(self, corpus):
        # tail probability = 1 - (smallest credibility whose region contains
        # the value), up to one ranking step
        for model in corpus[:20]:
            tables = belief_tables(model, 0)
            levels = attainable_gammas(tables, "rs")
            for j in range(tables.n_psi):
                tail = tail_probability(tables, j)
                containing = [
                    g for g in levels if j in rs_region(tables, float(g)).members
                ]
                inf_gamma = min(containing)
                # the region reaching down to j holds exactly the mass of
                # ratios >= rb[j], which is 1 - tail + mass of the tie class
                assert 1.0 - inf_gamma <= tail + 1e-12
                below = [g for g in levels if g < inf_gamma - 1e-12]
                if below:
                    assert 1.0 - max(below) >= tail - 1e-12


class TestLplRegion:
    def test_prior_based_members_match_rs(self, corpus):
        loss = LossSpec.prior_based()
        for model in corpus[:40]:
            for x in range(model.n_x):
                tables = belief_tables(model, x)
                for gamma in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
                    assert (
                        lpl_region(loss, tables, gamma).members
                        == rs_region(tables, gamma).members
                    )

    def test_zero_one_members_match_hpd(self, corpus):
        loss = LossSpec.zero_one()
        for model in corpus[:20]:
            tables = belief_tables(model, 0)
            for gamma in (0.2, 0.5, 0.8):
                assert (
                    lpl_region(loss, tables, gamma).members
                    == hpd_region(tables, gamma).members
                )

    def test_full_credibility_is_full_support(self):
        tables = make_tables([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        region = lpl_region(LossSpec.prior_based(), tables, 1.0)
        assert region.members == (0, 1, 2)


class TestRegionDistance:
    """The posterior mass between two regions, as the refinement experiments measure it.

    ``_region_rows`` is driven by stub grids: the reference grid and the
    tested grid share one three-bin partition, so reference bin ``i`` lies in
    tested bin ``i`` and the tested tables alone decide the region compared.
    """

    PARTITION = RegularGrid(
        lam=1.0,
        edges=np.array([0.0, 1.0, 2.0, 3.0]),
        representatives=np.array([0.5, 1.5, 2.5]),
        bin_prior=np.full(3, 1 / 3),
    )

    def row(self, ref_tables, tables, gamma):
        (row,) = _region_rows(
            [(tables, self.PARTITION)], (ref_tables, self.PARTITION), gamma, [0.5, 0.01]
        )
        return row

    def assert_distance(self, row, expected):
        assert row.rs_distance == pytest.approx(expected, abs=1e-15)
        # A uniform prior makes every capped region the belief-ratio region.
        assert [eta for eta, _ in row.capped_distances] == [0.5, 0.01]
        for _, d in row.capped_distances:
            assert d == pytest.approx(expected, abs=1e-15)

    def test_identical_regions_at_zero(self):
        tables = make_tables([1 / 3] * 3, [0.5, 0.3, 0.2])
        row = self.row(tables, tables, 0.75)
        assert row.lam == 1.0
        self.assert_distance(row, 0.0)

    def test_overlapping_sets(self):
        # Reference region {0, 1}, tested region {1, 2}: the mass of bins 0 and 2.
        ref = make_tables([1 / 3] * 3, [0.5, 0.3, 0.2])
        tested = make_tables([1 / 3] * 3, [0.1, 0.5, 0.4])
        assert rs_region(ref, 0.75).members == (0, 1)
        assert rs_region(tested, 0.75).members == (1, 2)
        self.assert_distance(self.row(ref, tested, 0.75), 0.7)

    def test_subset_distance_is_complement_mass(self):
        # Reference region {0}, tested region the whole support (all tied).
        ref = make_tables([1 / 3] * 3, [0.5, 0.3, 0.2])
        tested = make_tables([1 / 3] * 3, [1 / 3] * 3)
        assert rs_region(ref, 0.45).members == (0,)
        assert rs_region(tested, 0.45).members == (0, 1, 2)
        self.assert_distance(self.row(ref, tested, 0.45), 0.5)


class TestEtaSweep:
    def test_inactive_cap_reproduces_rs_exactly(self, corpus):
        for model in corpus[:20]:
            tables = belief_tables(model, 0)
            levels = attainable_gammas(tables, "rs")
            gamma = float(levels[len(levels) // 2])
            tiny = float(tables.marg_prior.min()) / 2
            report = eta_sweep(tables, gamma, [tiny * 4, tiny])
            assert report.final_equals_rs
            assert report.rows[-1].contains_rs and report.rows[-1].within_next

    def test_uniform_prior_any_eta_matches_hpd(self):
        tables = make_tables([0.25] * 4, [0.4, 0.3, 0.2, 0.1])
        report = eta_sweep(tables, 0.7, [0.9, 0.3, 0.1, 0.01])
        expected = hpd_region(tables, 0.7).members
        for row in report.rows:
            assert row.region.members == expected

    def test_three_point_reinclusion(self):
        # At eta=0.1 the capped ranking demotes the low-prior winner; by
        # eta=0.005 (below the smallest prior weight) it is re-included.
        tables = make_tables([0.01, 0.49, 0.50], [0.02, 0.49, 0.49])
        gamma = 0.02  # exactly attainable: the rb ranking puts p0 first
        report = eta_sweep(tables, gamma, [0.1, 0.005])
        assert rs_region(tables, gamma).members == (0,)
        first, last = report.rows
        assert first.eta == 0.1 and not first.contains_rs
        assert last.eta == 0.005 and last.contains_rs and last.equals_rs

    def test_schedules_must_decrease(self):
        tables = make_tables([0.5, 0.5], [0.6, 0.4])
        with pytest.raises(InvariantViolation):
            eta_sweep(tables, 0.5, [0.1, 0.2])

    def test_countable_inclusions_at_exact_levels(self, countable_model):
        tables = belief_tables(countable_model, 1)
        levels = attainable_gammas(tables, "rs")
        picks = levels[:: max(1, len(levels) // 8)]
        floor = float(tables.marg_prior.min())
        for gamma in picks:
            report = eta_sweep(tables, float(gamma), [1e-2, floor * 0.9])
            assert report.final_equals_rs
            assert report.rows[-1].contains_rs and report.rows[-1].within_next


class TestMinimalPriorSize:
    def test_three_point_exact_level(self):
        tables = make_tables([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        for gamma in attainable_gammas(tables, "rs"):
            assert minimal_prior_size_check(tables, float(gamma))

    def test_full_support_trivially_minimal(self):
        tables = make_tables([0.25] * 4, [0.4, 0.3, 0.2, 0.1])
        assert minimal_prior_size_check(tables, 1.0)

    def test_ten_point_random_models(self):
        rng = np.random.default_rng(5150)
        for _ in range(10):
            prior = rng.dirichlet(np.ones(10))
            post = rng.dirichlet(np.ones(10))
            tables = make_tables(prior, post)
            levels = attainable_gammas(tables, "rs")
            gamma = float(levels[min(5, len(levels) - 1)])
            assert minimal_prior_size_check(tables, gamma)

    def test_oversized_support_rejected(self):
        prior = np.full(25, 1 / 25)
        tables = make_tables(prior, prior)
        with pytest.raises(TooLargeForBruteForce):
            minimal_prior_size_check(tables, 1.0)

    def test_inexact_gamma_rejected(self):
        tables = make_tables([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        with pytest.raises(InvariantViolation):
            minimal_prior_size_check(tables, 0.41)


@given(
    prior=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8),
    post=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
    gamma=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80, deadline=None)
def test_region_mass_meets_request(prior, post, gamma):
    n = min(len(prior), len(post))
    prior_arr = np.asarray(prior[:n])
    post_arr = np.asarray(post[:n]) + 1e-9
    tables = make_tables(prior_arr / prior_arr.sum(), post_arr / post_arr.sum())
    for build in (rs_region, hpd_region):
        region = build(tables, gamma)
        assert region.attained_mass >= gamma - 1e-12
        assert len(region.members) >= 1


@given(model=finite_models())
@settings(max_examples=150, deadline=None)
def test_attainable_gammas_match_the_loop(model):
    for x in range(model.n_x):
        tables = belief_tables(model, x)
        for family in ("rs", "hpd"):
            got = attainable_gammas(tables, family)
            want = oracle_attainable_gammas(tables, family)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("call,match", [
    (lambda: CredibleRegion(gamma=1.5, members=(0,), threshold=1.0, attained_mass=1.0),
     r"gamma must lie in \[0, 1\]"),
    (lambda: CredibleRegion(gamma=0.9, members=(0,), threshold=1.0, attained_mass=0.5),
     "attained mass fell below the requested credibility"),
    (lambda: attainable_gammas(BeliefTables(marg_prior=[0.5, 0.5], marg_post=[0.25, 0.75],
                                            rb=[0.5, 1.5], psi_labels=("a", "b")), "lpl"),
     "unknown region family 'lpl'"),
], ids=["gamma-above-one", "mass-below-gamma", "lpl-levels"])
def test_refusals(call, match):
    with pytest.raises(InvariantViolation, match=match):
        call()
