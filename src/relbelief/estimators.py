"""Point estimators: LRSE, MAP, Bayes rules, and unbiasedness diagnostics.

The least relative surprise estimator (LRSE) maximizes the relative belief
ratio; the MAP estimator maximizes the marginal posterior.  A Bayes rule
under a given loss minimizes posterior risk by exhaustive search over the
marginal support.  Ties are never resolved silently: results carry the whole
argmax set and a flag, because the optimality statements for these
estimators assume a unique maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .losses import LossSpec, check_rule, h_vector, posterior_risk_vector
from .model import BeliefTables, FiniteModel, PredictiveTables, sample_space_tables

TIE_RTOL = 1e-12


def _tie_mask(values: np.ndarray) -> np.ndarray:
    """Entries tied with the maximum along the first axis (per column of a table).

    The tolerance is relative to the spread of the values, so criteria that
    differ only by an additive constant (ratios versus negated risks) give
    the same tie classes.
    """
    best = values.max(axis=0)
    return values >= best - TIE_RTOL * (best - values.min(axis=0))


def tied_argmax(values: np.ndarray) -> tuple[int, tuple[int, ...], bool]:
    """Index of the maximum plus the set of ties within tolerance."""
    ties = tuple(int(i) for i in np.flatnonzero(_tie_mask(np.asarray(values, dtype=float))))
    return ties[0], ties, len(ties) > 1


@dataclass(frozen=True)
class EstimateResult:
    """A chosen marginal value with its criterion value and tie diagnostics."""

    psi_index: int
    psi_label: str
    criterion_value: float
    tie: bool
    argmax_set: tuple[int, ...]
    tail_bound: float | None = None

    def __post_init__(self):
        if self.psi_index not in self.argmax_set:
            raise InvariantViolation("chosen index must belong to the argmax set")


def _estimate(labels, values: np.ndarray, tail_bound: float | None = None) -> EstimateResult:
    idx, ties, tie = tied_argmax(values)
    return EstimateResult(
        psi_index=idx,
        psi_label=labels[idx],
        criterion_value=float(values[idx]),
        tie=tie,
        argmax_set=ties,
        tail_bound=tail_bound,
    )


def lrse(tables: BeliefTables) -> EstimateResult:
    """Least relative surprise estimator: argmax of the relative belief ratio."""
    return _estimate(tables.psi_labels, tables.rb, tables.tail_bound)


def map_estimate(tables: BeliefTables) -> EstimateResult:
    """MAP estimator: argmax of the marginal posterior."""
    return _estimate(tables.psi_labels, tables.marg_post, tables.tail_bound)


def bayes_rule(loss: LossSpec, tables: BeliefTables) -> EstimateResult:
    """Exhaustive posterior-risk minimizer over the marginal support.

    The criterion value reported is the negative posterior risk, so larger
    is better, matching the other estimators.
    """
    risks = posterior_risk_vector(loss, tables)
    return _estimate(tables.psi_labels, -risks, tables.tail_bound)


def predict_lrse(pred: PredictiveTables) -> EstimateResult:
    """Future value maximizing the predictive belief ratio."""
    return _estimate(pred.y_labels, pred.rb_pred)


# -- decision rules over a finite sample space -----------------------------


def lrse_rule(model: FiniteModel) -> np.ndarray:
    """The LRSE at every sample point: the first of its tied ratio maximizers."""
    return np.argmax(_tie_mask(sample_space_tables(model).rb), axis=0)


def map_rule(model: FiniteModel) -> np.ndarray:
    """The MAP estimate at every sample point, ties resolved as in :func:`lrse_rule`."""
    return np.argmax(_tie_mask(sample_space_tables(model).marg_post), axis=0)


def anti_lrse_rule(model: FiniteModel) -> np.ndarray:
    """Rule picking the psi whose belief dropped the most at each x.

    Serves as the negative control for the unbiasedness diagnostics: it
    deliberately chooses a value the data argues against.
    """
    return np.argmin(sample_space_tables(model).rb, axis=0)


# -- Bayesian unbiasedness --------------------------------------------------


def unbiasedness_gap(loss: LossSpec, rule, model: FiniteModel) -> float:
    """Margin by which a rule is Bayesian unbiased under an indicator loss.

    Returns the exact enumeration of

    ``sum_x m(x) * h(rule(x)) * (marg_post_x[rule(x)] - marg_prior[rule(x)])``

    where ``h`` is the weight-per-true-value form of the loss.  The rule is
    Bayesian unbiased under the loss if and only if the value is >= 0: a
    nonnegative gap means the rule's prior risk does not exceed its expected
    loss against an independently prior-drawn false value.
    """
    rule_arr = check_rule(rule, model)
    tabs = sample_space_tables(model)
    h = h_vector(loss, tabs.marg_prior)
    chosen_post = tabs.marg_post[rule_arr, np.arange(model.n_x)]
    prior = tabs.marg_prior[rule_arr]
    return math.fsum(tabs.evidence * h[rule_arr] * (chosen_post - prior))


def uniform_unbiasedness_check(rule, model: FiniteModel) -> np.ndarray:
    """Per-observation check that the chosen value gained belief.

    Entry ``x`` is true when ``marg_post_x[rule(x)] >= marg_prior[rule(x)]``
    (up to a 1e-12 relative tolerance).  A rule passing at every x is
    uniformly Bayesian unbiased; the LRSE rule always passes because the
    maximal relative belief ratio is at least one.
    """
    rule_arr = check_rule(rule, model)
    tabs = sample_space_tables(model)
    chosen_post = tabs.marg_post[rule_arr, np.arange(model.n_x)]
    return chosen_post >= tabs.marg_prior[rule_arr] * (1.0 - 1e-12)
