"""The per-point path and the ball loss against the code they replaced.

The oracles below are the earlier per-point implementations: belief tables
built through the fully validating public constructor from a fresh marginal
prior, regions whose members are collected one ``int`` at a time with the
mass summed over a list index, and the LPL region wrapped a second time.
Every field of every result must be exactly equal to the oracle's.  The
posterior gains and risks themselves come from the library in both paths,
and the Bayes rule and the LPL region rank the gain; the ball
risk, which the library now computes in row blocks, is checked apart against
the dense ``(n_psi, n_psi, d)`` membership test and its ``inside @ post``.
A support whose whole test fits in one block is one product, as before, so
the risks must be equal to the bit.  Split into blocks, BLAS may round a row
differently with the block's row count (a few 1e-17 at 2000 points), so
there the risks must be within 1e-12; the Bayes-rule tie sets must equal the
dense oracle's in every case tested.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    BeliefTables,
    EstimateResult,
    FiniteModel,
    InvariantViolation,
    LossSpec,
    bayes_rule,
    belief_tables,
    hpd_region,
    lpl_region,
    lrse,
    map_estimate,
    rs_region,
    sample_space_tables,
)
import relbelief.model
from relbelief.estimators import TIE_RTOL, _tie_mask, _tie_tol
from relbelief.losses import _posterior_gain, loss_matrix, posterior_risk_vector
from relbelief.model import _build_sample_space_tables, _check_identities
from relbelief.regions import GAMMA_TOL, CredibleRegion
from posterior_oracle import compute_posterior
from test_sample_space_tables import finite_models, losses_for

# -- the earlier per-point code -------------------------------------------------


def oracle_belief_tables(model, x) -> BeliefTables:
    post, _ = compute_posterior(model, x)
    marg_prior = np.bincount(model.psi_map, weights=model.prior, minlength=model.n_psi)
    marg_post = np.bincount(model.psi_map, weights=post, minlength=model.n_psi)
    return BeliefTables(
        marg_prior=marg_prior,
        marg_post=marg_post,
        rb=marg_post / marg_prior,
        psi_labels=model.psi_labels,
        psi_coords=model.psi_coords,
    )


def oracle_ranked_region(values, masses, gamma) -> CredibleRegion:
    if not -GAMMA_TOL <= gamma <= 1.0 + GAMMA_TOL:
        raise InvariantViolation("gamma must lie in [0, 1]")
    order = np.argsort(-values, kind="stable")
    if gamma >= 1.0 - GAMMA_TOL:
        hit = values.size - 1
    else:
        cum = np.cumsum(masses[order])
        hit = int(np.searchsorted(cum, gamma - GAMMA_TOL, side="left"))
        hit = min(hit, values.size - 1)
    threshold = float(values[order[hit]])
    keep = values >= threshold - _tie_tol(values.max(), values.min())
    members = tuple(int(i) for i in np.flatnonzero(keep))
    attained = math.fsum(masses[list(members)])
    return CredibleRegion(
        gamma=float(gamma), members=members, threshold=threshold, attained_mass=attained
    )


def oracle_lpl_region(gain, total, masses, gamma) -> CredibleRegion:
    """The region ranked by the posterior gain; its threshold is the risk cutoff."""
    region = oracle_ranked_region(gain, masses, gamma)
    return dataclasses.replace(region, threshold=float(total - region.threshold))


def oracle_bayes_rule(tables, gain, total) -> EstimateResult:
    """The gain's argmax set, reporting the negative posterior risk."""
    est = oracle_estimate(tables, gain)
    return dataclasses.replace(est, criterion_value=float(-(total - gain[est.psi_index])))


def oracle_estimate(tables, values) -> EstimateResult:
    ties = tuple(int(i) for i in np.flatnonzero(_tie_mask(np.asarray(values, dtype=float))))
    return EstimateResult(
        argmax_set=ties,
        psi_label=tables.psi_labels[ties[0]],
        criterion_value=float(values[ties[0]]),
    )


def oracle_dense_ball_inside(radius, tables) -> np.ndarray:
    pts = tables.psi_coords.reshape(tables.n_psi, -1)
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1) <= radius


# -- exact comparison -------------------------------------------------------------


def assert_identical(got, want):
    """Equal field for field, with floats equal to the bit (``-0.0`` is not ``0.0``)."""
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(b, tuple):
            assert [type(v) for v in a] == [type(v) for v in b], field.name


def assert_same_tables(got: BeliefTables, want: BeliefTables):
    for name in ("marg_prior", "marg_post", "rb"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable, name
    assert got.psi_labels == want.psi_labels
    if want.psi_coords is None:
        assert got.psi_coords is None
    else:
        assert got.psi_coords.tobytes() == want.psi_coords.tobytes()


def check_point(model, x, losses_at_x, gammas):
    tables = belief_tables(model, x)
    want = oracle_belief_tables(model, x)
    assert_same_tables(tables, want)
    assert_identical(lrse(tables), oracle_estimate(want, want.rb))
    assert_identical(map_estimate(tables), oracle_estimate(want, want.marg_post))
    for gamma in gammas:
        assert_identical(rs_region(tables, gamma), oracle_ranked_region(want.rb, want.marg_post, gamma))
        assert_identical(
            hpd_region(tables, gamma), oracle_ranked_region(want.marg_post, want.marg_post, gamma)
        )
    for loss in losses_at_x:
        gain, total = _posterior_gain(loss, want)
        assert_identical(bayes_rule(loss, tables), oracle_bayes_rule(want, gain, total))
        for gamma in gammas:
            assert_identical(lpl_region(loss, tables, gamma),
                             oracle_lpl_region(gain, total, want.marg_post, gamma))


gammas = st.lists(
    st.one_of(st.sampled_from([0.0, 1e-13, 0.5, 1.0 - 1e-13, 1.0]), st.floats(0.0, 1.0)),
    min_size=1,
    max_size=3,
)


@given(model=finite_models(), data=st.data(), gamma_list=gammas)
@settings(max_examples=150, deadline=None)
def test_per_point_results_equal_the_oracle(model, data, gamma_list):
    picked = data.draw(st.lists(losses_for(model), min_size=1, max_size=3))
    for x in range(model.n_x):
        check_point(model, x, picked, gamma_list)


def benchmark_shaped_model(rng, n_theta=400, n_psi=50, n_x=100) -> FiniteModel:
    psi_map = np.concatenate([np.arange(n_psi), rng.integers(0, n_psi, size=n_theta - n_psi)])
    rng.shuffle(psi_map)
    return FiniteModel(
        theta_labels=tuple(f"t{i}" for i in range(n_theta)),
        prior=rng.dirichlet(np.ones(n_theta)),
        likelihood=rng.dirichlet(np.ones(n_x), size=n_theta),
        psi_map=psi_map,
        psi_labels=tuple(f"p{j}" for j in range(n_psi)),
    )


def test_benchmark_shaped_models_equal_the_oracle():
    rng = np.random.default_rng(20261018)
    pb, zo = LossSpec.prior_based(), LossSpec.zero_one()
    for _ in range(20):
        model = benchmark_shaped_model(rng)
        gamma = float(rng.uniform(0.5, 0.9))
        for x in range(model.n_x):
            check_point(model, x, (pb, zo), (gamma,))


# -- the write-once cache -----------------------------------------------------------


def small_model(prior=(0.2, 0.3, 0.5)) -> FiniteModel:
    return FiniteModel(
        theta_labels=("a", "b", "c"),
        prior=list(prior),
        likelihood=[[0.7, 0.3], [0.5, 0.5], [0.1, 0.9]],
        psi_map=[0, 0, 1],
        psi_labels=("low", "high"),
    )


def test_tables_are_built_once_and_read_only():
    model = small_model()
    tabs = sample_space_tables(model)
    assert sample_space_tables(model) is tabs
    assert model.marginal_prior() is model.marginal_prior()
    assert tabs.marg_prior is model.marginal_prior()
    for field in dataclasses.fields(tabs):
        arr = getattr(tabs, field.name)
        assert not arr.flags.writeable, field.name
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert not model.marginal_prior().flags.writeable
    fresh_model = small_model()
    fresh, _ = _build_sample_space_tables(fresh_model, np.arange(fresh_model.n_x))
    for field in dataclasses.fields(tabs):
        assert getattr(tabs, field.name).tobytes() == getattr(fresh, field.name).tobytes()


def test_replaced_model_gets_fresh_tables():
    model = small_model()
    tabs = sample_space_tables(model)
    other = dataclasses.replace(model, prior=[0.6, 0.2, 0.2])
    other_tabs = sample_space_tables(other)
    assert other_tabs is not tabs
    assert other.marginal_prior() is not model.marginal_prior()
    np.testing.assert_array_equal(other.marginal_prior(), [0.8, 0.2])
    want_model = small_model([0.6, 0.2, 0.2])
    want, _ = _build_sample_space_tables(want_model, np.arange(want_model.n_x))
    np.testing.assert_array_equal(other_tabs.rb, want.rb)
    np.testing.assert_array_equal(sample_space_tables(model).rb, tabs.rb)


def test_underflowing_sample_point_gets_exact_tables_on_every_call():
    # Column 1's evidence, 1e-300 * 1e-30, underflows to 0.0 unscaled.
    model = FiniteModel(
        theta_labels=("a", "b"),
        prior=[1.0, 1e-300],
        likelihood=[[1.0, 0.0], [1.0 - 1e-30, 1e-30]],
        psi_map=[0, 1],
        psi_labels=("a", "b"),
    )
    want = oracle_belief_tables(model, 0)
    for _ in range(2):
        tabs = sample_space_tables(model)
        assert tabs.marg_post[:, 1].tolist() == [0.0, 1.0]
        assert tabs.rb[1, 1] == 1.0 / model.prior[1]
        assert tabs.marg_post[:, 0].tobytes() == want.marg_post.tobytes()
        assert tabs.rb[:, 0].tobytes() == want.rb.tobytes()


# -- the public and the trusted constructors ------------------------------------------


def tables_kwargs(**override):
    base = dict(
        marg_prior=[0.5, 0.5],
        marg_post=[0.25, 0.75],
        rb=[0.5, 1.5],
        psi_labels=("a", "b"),
    )
    base.update(override)
    return base


BAD_TABLES = {
    "misaligned": tables_kwargs(psi_labels=("a", "b", "c")),
    "nonpositive prior": tables_kwargs(marg_prior=[0.0, 1.0], rb=[0.0, 0.75]),
    "prior sum": tables_kwargs(marg_prior=[0.5, 0.6], rb=[0.5, 1.25]),
    "negative posterior": tables_kwargs(marg_post=[-0.25, 1.25], rb=[-0.5, 2.5]),
    "posterior sum": tables_kwargs(marg_post=[0.25, 0.8], rb=[0.5, 1.6]),
    "quotient": tables_kwargs(rb=[1.0, 1.0]),
    # Each rb * prior - post is 0.9e-12, within tolerance; their sum is not.
    "average": tables_kwargs(
        marg_prior=[0.25] * 4,
        marg_post=[0.25] * 4,
        rb=[1.0 + 3.6e-12] * 4,
        psi_labels=("a", "b", "c", "d"),
    ),
    # A prior summing to 1 + 0.9e-12 lets the average pass below max rb.
    "max ratio": tables_kwargs(
        marg_prior=[0.5 + 0.45e-12, 0.5 + 0.45e-12],
        marg_post=[(1.0 - 1.05e-12) * (0.5 + 0.45e-12)] * 2,
        rb=[1.0 - 1.05e-12] * 2,
    ),
    "coords": tables_kwargs(psi_coords=[0.0, 1.0, 2.0]),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_public_constructor_rejects_every_bad_table(case):
    with pytest.raises(InvariantViolation):
        BeliefTables(**BAD_TABLES[case])


def test_public_constructor_accepts_the_good_table():
    BeliefTables(**tables_kwargs(psi_coords=[0.0, 1.0]))


def test_kernel_keeps_the_two_identities():
    model = small_model()
    marg_prior = model.marginal_prior()
    post = np.array([0.25, 0.75])
    rb = post / marg_prior
    tables = BeliefTables._trusted(model, post, rb)
    assert not tables.rb.flags.writeable and not tables.marg_post.flags.writeable
    _check_identities(marg_prior, rb[:, None])
    # A bad column among good ones fails the whole block.
    with pytest.raises(InvariantViolation, match="average"):
        _check_identities(marg_prior, np.column_stack([rb, rb * 1.01]))
    with pytest.raises(InvariantViolation, match=">= 1"):
        _check_identities(marg_prior, np.column_stack([np.full(2, 1.0 - 1e-11), rb]))


# -- the ball loss against the dense test ---------------------------------------------


def dense_ball_risks(radius, tables) -> np.ndarray:
    return 1.0 - oracle_dense_ball_inside(radius, tables) @ tables.marg_post


def assert_ball_matches_dense(radius, tables):
    got = posterior_risk_vector(LossSpec.ball(radius), tables)
    mass = oracle_dense_ball_inside(radius, tables) @ tables.marg_post
    want = 1.0 - mass
    if tables.psi_coords.size * tables.n_psi <= relbelief.model.BLOCK_CELLS:  # one block
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    # Bayes rules rank the gain, the mass inside each ball, so the dense ties
    # are read on the mass.  Each value and the tolerance cut move by under
    # 3 * delta between the two sums, so only a value that close to the dense
    # cut may change its tie.
    delta = 3.0 * float(np.max(np.abs(_posterior_gain(LossSpec.ball(radius), tables)[0] - mass)))
    values = mass
    cut = values.max() - TIE_RTOL * (values.max() - values.min())
    ties = set(bayes_rule(LossSpec.ball(radius), tables).argmax_set)
    assert set(np.flatnonzero(values >= cut + delta).tolist()) <= ties
    assert ties <= set(np.flatnonzero(values >= cut - delta).tolist())


@given(model=finite_models(), radius=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=200, deadline=None)
def test_ball_risk_matches_dense_on_small_models(model, radius):
    for x in range(model.n_x):
        assert_ball_matches_dense(radius, belief_tables(model, x))


def test_ball_ties_match_the_dense_mass_at_the_tolerance_edge():
    # At x2 the ball around p0 misses only p1's posterior mass, about 2.5e-13,
    # which is about the tie tolerance: the cut on the mass, ``1 - tol``,
    # rounds where the cut on the risk, ``-tol``, does not, so the two
    # rankings tie differently there, and Bayes rules rank the mass.
    model = FiniteModel(
        theta_labels=("t0", "t1", "t2", "t3"),
        prior=[1 / 3, 1 / 3, 1 / 3, 3.33333333e-13],
        likelihood=[[0.5, 0.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
        psi_map=[0, 2, 2, 1],
        psi_labels=("p0", "p1", "p2"),
        psi_coords=[[0.0, 1.0], [0.0, -1.0], [0.0, 0.0]],
    )
    assert_ball_matches_dense(1.0, belief_tables(model, 2))


def coordinate_tables(coords, post) -> BeliefTables:
    n = len(coords)
    prior = np.full(n, 1.0 / n)
    return BeliefTables(
        marg_prior=prior,
        marg_post=post,
        rb=post / prior,
        psi_labels=tuple(f"p{j}" for j in range(n)),
        psi_coords=coords,
    )


@pytest.mark.parametrize(
    "kind",
    ["integers with repeats", "tenths", "spread floats", "two-dimensional", "non-finite"],
)
def test_ball_risk_matches_dense_on_larger_supports(kind, monkeypatch):
    monkeypatch.setattr(relbelief.model, "BLOCK_CELLS", 1000)  # several row blocks
    rng = np.random.default_rng(7)
    n = 300
    coords = {
        "integers with repeats": rng.integers(-20, 20, size=n).astype(float),
        # k / 10 - j / 10 rounds on either side of 0.3, so a ± r does too.
        "tenths": np.arange(n) * 0.1,
        "spread floats": rng.normal(scale=1e3, size=n),
        "two-dimensional": rng.integers(-5, 5, size=(n, 2)).astype(float),
        "non-finite": np.where(np.arange(n) % 50 == 0, np.inf, rng.integers(0, 30, size=n) * 1.0),
    }[kind]
    if kind == "non-finite":
        # No ball holds an infinite point, not even its own, so neither the
        # tables nor the model accept such a support.
        with pytest.raises(InvariantViolation, match="psi_coords contains non-finite"):
            coordinate_tables(coords, rng.dirichlet(np.ones(n)))
        with pytest.raises(InvariantViolation, match="theta_coords contains non-finite"):
            FiniteModel(theta_labels=tuple(f"t{i}" for i in range(n)), prior=np.ones(n),
                        likelihood=np.ones((n, 1)), psi_map=np.arange(n),
                        psi_labels=tuple(f"p{j}" for j in range(n)), theta_coords=coords)
        return
    for radius in (0.3, 1.0, 2.0, 7.0, 300.0):
        for _ in range(3):
            assert_ball_matches_dense(radius, coordinate_tables(coords, rng.dirichlet(np.ones(n))))


def test_ball_loss_matrix_is_the_dense_test_in_blocks(monkeypatch):
    rng = np.random.default_rng(11)
    model = FiniteModel(
        theta_labels=tuple(f"t{i}" for i in range(60)),
        prior=np.ones(60),
        likelihood=np.ones((60, 1)),
        psi_map=np.arange(60),
        psi_labels=tuple(f"p{j}" for j in range(60)),
        psi_coords=rng.integers(-4, 4, size=(60, 2)).astype(float),
    )
    actions = rng.integers(0, 60, size=45)
    pts = model.psi_coords
    want = 1.0 - (np.linalg.norm(pts[:, None, :] - pts[actions][None, :, :], axis=-1) <= 2.0)
    monkeypatch.setattr(relbelief.model, "BLOCK_CELLS", 200)
    np.testing.assert_array_equal(loss_matrix(LossSpec.ball(2.0), model, actions), want)
    assert loss_matrix(LossSpec.ball(2.0), model, []).shape == (60, 0)


@pytest.mark.parametrize("radius", [3.0, 1e3])  # 1e3: every ball holds all the mass
def test_one_dimensional_ball_stays_small_at_two_thousand_points(radius):
    n = 2000
    rng = np.random.default_rng(3)
    tables = coordinate_tables(np.sort(rng.uniform(0.0, 50.0, size=n)), rng.dirichlet(np.ones(n)))
    tracemalloc.start()
    try:
        result = bayes_rule(LossSpec.ball(radius), tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # the dense test needs n * n * 8 = 32 MB per temporary
    want = dense_ball_risks(radius, tables)
    assert result.argmax_set == tuple(np.flatnonzero(_tie_mask(-want)).tolist())
