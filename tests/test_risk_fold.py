"""The two-form posterior risk against the five-branch code it replaced.

Every indicator loss now costs ``sum(w) - w`` with ``w = h * marg_post``.  The
oracle below is the earlier function with one branch per loss kind: the
zero-one risk as ``1 - post``, the prior-based risk from the belief ratio,
``post / max(eta, prior)`` for the capped loss.  The two round differently,
so the risks must agree within 4 ulp of the sum they are subtracted from
(bounded by twice the largest risk; when the largest risk lies just below a
power of two and the sum just above it, 4 ulp of the risk itself is too
tight: 5 were seen).

Decisions must be the same wherever that rounding cannot decide them.  A
criterion is *resolved* when any two of its values lie further apart than the
tie tolerance plus three times the risks' rounding slack: then no perturbation
within the slack changes the order of two values or makes them tie.  On resolved
criteria the Bayes-rule argmax sets and the LPL members must equal the
oracle's.  Every criterion of the shared corpus is resolved, and all but a
few at the two larger tiny spreads.  Under the prior-based loss the LPL
region must equal the RS region on every criterion, resolved or not: Bayes
rules and LPL regions rank the posterior gain ``w``, which is then the
belief ratio bit for bit.

Inputs are the shared random corpus and models with a tiny criterion spread:
likelihood columns that differ across theta only by a relative ``eps``, so the
ratio spreads over about ``eps`` around one and the spread-relative tie
tolerance is far below one ulp.  At ``eps`` = 1e-12 about one criterion in
six is unresolved: two ratios closer than the rounding of ``sum(w) - w`` can
swap or merge in the risk, and there the RS and LPL regions differed when the
regions ranked the risk.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbelief import (
    FiniteModel,
    LossSpec,
    bayes_rule,
    belief_tables,
    lpl_region,
    rs_region,
)
from relbelief.estimators import TIE_RTOL, _tie_mask
from relbelief.losses import _ball_mass, posterior_risk_vector
from relbelief.regions import _ranked_region
from conftest import model_corpus, oracle_h

GAMMAS = (0.0, 0.3, 0.6, 0.9, 1.0)


def five_branch_risk(loss: LossSpec, tables) -> np.ndarray:
    post = tables.marg_post
    if loss.kind == "zero-one":
        return 1.0 - post
    if loss.kind == "prior-based":
        return float(tables.rb.sum()) - tables.rb
    if loss.kind == "capped":
        capped = post / np.maximum(loss.eta, tables.marg_prior)
        return float(np.sum(capped)) - capped
    if loss.kind == "weighted":
        weighted = oracle_h(loss, tables.marg_prior) * post
        return float(np.sum(weighted)) - weighted
    return 1.0 - _ball_mass(loss.radius, tables.psi_coords, post)


def resolved(values: np.ndarray, slack: float) -> bool:
    gaps = np.diff(np.sort(values))
    return bool(np.all(gaps > TIE_RTOL * (values.max() - values.min()) + 3.0 * slack))


def tiny_spread_model(seed: int, eps: float) -> FiniteModel:
    rng = np.random.default_rng(seed)
    n_psi = int(rng.integers(2, 7))
    n_theta = int(rng.integers(n_psi, 13))
    n_x = int(rng.integers(2, 6))
    lik = rng.dirichlet(np.ones(n_x)) * (1.0 + eps * rng.uniform(-1.0, 1.0, (n_theta, n_x)))
    psi_map = np.concatenate([np.arange(n_psi), rng.integers(0, n_psi, n_theta - n_psi)])
    rng.shuffle(psi_map)
    return FiniteModel(
        theta_labels=tuple(f"t{i}" for i in range(n_theta)),
        prior=rng.dirichlet(np.ones(n_theta)),
        likelihood=lik / lik.sum(axis=1, keepdims=True),
        psi_map=psi_map,
        psi_labels=tuple(f"p{j}" for j in range(n_psi)),
        psi_coords=np.sort(rng.normal(size=n_psi)),
    )


models = st.one_of(
    st.sampled_from(model_corpus(200)),
    st.builds(tiny_spread_model, st.integers(0, 2**32 - 1), st.sampled_from([1e-6, 1e-9, 1e-12])),
)
LOSSES = (
    LossSpec.zero_one(),
    LossSpec.prior_based(),
    LossSpec.capped(0.1),
    LossSpec.capped(1e-3),
    LossSpec.weighted([0.5, 3.0, 1.0, 2.0, 0.25, 1.5]),
    LossSpec.ball(1.0),
)


def risks(model):
    """``(tables, loss, fold risks, five-branch risks)`` for every loss at every ``x``."""
    for x in range(model.n_x):
        tables = belief_tables(model, x)
        for loss in LOSSES:
            if loss.kind == "weighted":
                loss = LossSpec.weighted(loss.weights[: model.n_psi])
            yield tables, loss, posterior_risk_vector(loss, tables), five_branch_risk(loss, tables)


def slack_of(want: np.ndarray) -> float:
    return 4.0 * float(np.spacing(2.0 * np.abs(want).max()))


@given(model=models)
@settings(max_examples=150, deadline=None)
# Ranked by the risk, these LPL regions differed from the RS region.
@example(model=tiny_spread_model(73, 1e-12))
@example(model=tiny_spread_model(215, 1e-12))
def test_fold_matches_the_five_branch_risk(model):
    for tables, loss, got, want in risks(model):
        if loss.kind == "prior-based":  # ranked by the ratio itself, resolved or not
            for gamma in GAMMAS:
                assert lpl_region(loss, tables, gamma).members == rs_region(tables, gamma).members
        if loss.kind == "ball":  # the one form the fold left as it was
            assert got.tobytes() == want.tobytes()
            continue
        slack = slack_of(want)
        assert np.abs(got - want).max() <= slack, loss
        if not resolved(-want, slack):
            continue
        assert bayes_rule(loss, tables).argmax_set == tuple(np.flatnonzero(_tie_mask(-want)))
        for gamma in GAMMAS:
            members = tuple(_ranked_region(-want, tables.marg_post, gamma)[0])
            assert lpl_region(loss, tables, gamma).members == members, (loss, gamma)


def unresolved_share(models) -> float:
    flags = [
        not resolved(-want, slack_of(want))
        for model in models
        for _, loss, _, want in risks(model)
        if loss.kind != "ball"
    ]
    return sum(flags) / len(flags)


def test_seeded_models_are_resolved_but_at_the_smallest_spread():
    assert unresolved_share(model_corpus(200)) == 0.0
    for eps, share in ((1e-6, 0.0), (1e-9, 0.01), (1e-12, 0.25)):
        assert unresolved_share(tiny_spread_model(seed, eps) for seed in range(100)) <= share
