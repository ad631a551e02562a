"""Point estimators: LRSE, MAP, Bayes rules, and unbiasedness diagnostics.

The least relative surprise estimator (LRSE) maximizes the relative belief
ratio; the MAP estimator maximizes the marginal posterior.  A Bayes rule
under a given loss minimizes posterior risk by exhaustive search over the
marginal support.  Ties are never resolved silently: results carry the whole
argmax set and a flag, because the optimality statements for these
estimators assume a unique maximizer.

The LRSE and the MAP read their point's row of a tie mask built once for
every point of the tables they came from (their *source*): the model's
cached :class:`SampleSpaceTables` for a matrix model, the one-point tables
of a callback's point, or a public :class:`BeliefTables` itself.  So the
LRSE at ``x`` *is* entry ``x`` of :func:`lrse_rule`.  A Bayes rule ranks
its point's posterior gains, :func:`relbelief.losses._posterior_gain`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, _posterior_gain, _times_h, check_rule
from .model import (BeliefTables, FiniteModel, _cached, _frozen, _fsum, _points, _source_column,
                    sample_space_tables)

TIE_RTOL = 1e-12


def _spread_tol(values: np.ndarray, best):
    """Tie tolerance along the last axis (per row of a table); ``best`` is the maximum.

    It is relative to the spread of the values, so criteria that differ only
    by an additive constant (ratios versus negated risks) give the same tie
    classes.
    """
    return TIE_RTOL * (best - values.min(axis=-1))


def _tie_mask(values: np.ndarray) -> np.ndarray:
    """Entries tied with the maximum along the last axis (per row of a table)."""
    best = values.max(axis=-1)
    return values >= (best - _spread_tol(values, best))[..., None]


def _ties(source, name: str) -> np.ndarray:
    """Tie mask of ``source``'s ``name`` table (``rb`` or ``marg_post``), built on first read.

    Row ``x`` is point ``x``'s mask, so one point reads contiguous memory.
    """
    return _cached(source, f"_{name}_ties", lambda: _frozen(_tie_mask(_points(getattr(source, name)))))


@dataclass(frozen=True)
class EstimateResult:
    """A chosen marginal value with its criterion value and tie diagnostics.

    ``argmax_set`` holds every index tied with the maximum, in increasing
    order; the chosen index is its first.
    """

    argmax_set: tuple[int, ...]
    psi_label: str
    criterion_value: float

    @property
    def psi_index(self) -> int:
        return self.argmax_set[0]

    @property
    def tie(self) -> bool:
        return len(self.argmax_set) > 1


def _estimate(labels, values: np.ndarray, ties: np.ndarray) -> EstimateResult:
    argmax_set = tuple(ties.nonzero()[0].tolist())
    return EstimateResult(argmax_set, labels[argmax_set[0]], float(values[argmax_set[0]]))


def _column_estimate(tables: BeliefTables, name: str) -> EstimateResult:
    source, col = _source_column(tables)
    return _estimate(tables.psi_labels, getattr(tables, name), _ties(source, name)[col])


def lrse(tables: BeliefTables) -> EstimateResult:
    """Least relative surprise estimator: argmax of the relative belief ratio."""
    return _column_estimate(tables, "rb")


def map_estimate(tables: BeliefTables) -> EstimateResult:
    """MAP estimator: argmax of the marginal posterior."""
    return _column_estimate(tables, "marg_post")


def bayes_rule(loss: LossSpec, tables: BeliefTables) -> EstimateResult:
    """Exhaustive posterior-risk minimizer over the marginal support.

    The ranking is on the posterior gain, which orders the actions as the
    risk does without the rounding of forming the risk.  The criterion value
    reported is the negative posterior risk, so larger is better, matching
    the other estimators.
    """
    gain, total = _posterior_gain(loss, tables)
    return _estimate(tables.psi_labels, -(total - gain), _tie_mask(gain))


# -- decision rules over a finite sample space -----------------------------


def lrse_rule(model: FiniteModel) -> np.ndarray:
    """The LRSE at every sample point: the first of its tied ratio maximizers."""
    return np.argmax(_ties(sample_space_tables(model), "rb"), axis=1)


def map_rule(model: FiniteModel) -> np.ndarray:
    """The MAP estimate at every sample point, ties resolved as in :func:`lrse_rule`."""
    return np.argmax(_ties(sample_space_tables(model), "marg_post"), axis=1)


# -- Bayesian unbiasedness --------------------------------------------------


def unbiasedness_gap(loss: LossSpec, rule, model: FiniteModel) -> float:
    """Margin by which a rule is Bayesian unbiased under an indicator loss.

    Returns the exact enumeration of

    ``sum_x m(x) * h(rule(x)) * (marg_post_x[rule(x)] - marg_prior[rule(x)])``

    where ``h`` is the weight-per-true-value form of the loss.  The rule is
    Bayesian unbiased under the loss if and only if the value is >= 0: a
    nonnegative gap means the rule's prior risk does not exceed its expected
    loss against an independently prior-drawn false value.

    Each term is ``g[rule(x)] * (M[rule(x), x] - m(x))`` over the sampling
    table ``M``, with ``g = h * marg_prior`` formed by
    :func:`relbelief.losses._times_h`: 1 under the prior-based loss, so a
    prior whose reciprocal overflows, or whose joint underflows, costs no
    digits.
    """
    rule_arr, tabs = check_rule(rule, model)
    g = _times_h(loss, tabs.marg_prior, tabs.marg_prior)[rule_arr]
    return _fsum(g * (tabs.sampling[rule_arr, np.arange(model.n_x)] - tabs.evidence))


def uniform_unbiasedness_check(rule, model: FiniteModel) -> np.ndarray:
    """Per-observation check that the chosen value gained belief.

    Entry ``x`` is true when ``marg_post_x[rule(x)] >= marg_prior[rule(x)]``
    (up to a 1e-12 relative tolerance).  A rule passing at every x is
    uniformly Bayesian unbiased; the LRSE rule always passes because the
    maximal relative belief ratio is at least one.
    """
    rule_arr, tabs = check_rule(rule, model)
    chosen_post = tabs.marg_post[rule_arr, np.arange(model.n_x)]
    return chosen_post >= tabs.marg_prior[rule_arr] * (1.0 - 1e-12)
