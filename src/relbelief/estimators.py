"""Point estimators: LRSE, MAP, Bayes rules, and unbiasedness diagnostics.

The least relative surprise estimator (LRSE) maximizes the relative belief
ratio; the MAP estimator maximizes the marginal posterior.  A Bayes rule
under a given loss minimizes posterior risk by exhaustive search over the
marginal support.  Ties are never resolved silently: results carry the whole
argmax set and a flag, because the optimality statements for these
estimators assume a unique maximizer.

Per-point answers read their point's row of tables derived from the tables
they came from (their *source*): the model's cached
:class:`SampleSpaceTables` for a matrix model, the one-point tables of a
callback's point, or a public :class:`BeliefTables` itself.  The derived
tables are the tie masks of ``rb`` and ``marg_post`` (one byte per cell)
and their rankings (the values in stable descending order and the
posterior mass accumulated along it, 16 bytes per cell).  Each is built a
block of points at a time, at most :data:`relbelief.model.BLOCK_CELLS`
cells, on the first read of that block, and kept on the source; so a
one-point query on a large model builds one block.  The LRSE at ``x`` *is*
entry ``x`` of :func:`lrse_rule`.  A Bayes rule ranks its point's posterior
gains, :func:`relbelief.losses._posterior_gain`: under the prior-based
loss these are the ratio, so it reads the LRSE's tie row; any other gain is
ranked per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, _posterior_gain, _times_h, check_rule
from .model import (BeliefTables, FiniteModel, _cached, _frozen, _fsum, _points, _rows_per_block,
                    _source_column, sample_space_tables)

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


def _rank(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` in stable descending order along the last axis, and ``masses``
    accumulated along that order (per row of a table)."""
    order = (-values).argsort(axis=-1, kind="stable")
    if order.ndim > 1 and len(order) > 1:  # each row's order as indices into the flattened table
        order += np.arange(0, values.size, values.shape[-1])[:, None]
    return values.take(order), masses.take(order).cumsum(axis=-1)


def _block(source, name: str, kind: str, start: int, rows: int):
    """Points ``start`` to ``start + rows`` of a table derived from ``source``'s
    ``name`` table (``rb`` or ``marg_post``), built on first read.

    ``kind`` is ``"ties"``, a tie mask, or ``"ranking"``, a pair from
    :func:`_rank` accumulating the posterior.  Row ``i`` is point
    ``start + i``'s, so one point reads contiguous memory.  Blocks are kept
    write-once on ``source``, like :func:`relbelief.model._cached`.
    """
    blocks = _cached(source, f"_{name}_{kind}", dict)
    built = blocks.get(start)
    if built is None:
        values = _points(getattr(source, name))[start:start + rows]
        if kind == "ties":
            built = _frozen(_tie_mask(values))
        else:
            ranked, cum = _rank(values, _points(source.marg_post)[start:start + rows])
            built = _frozen(ranked), _frozen(cum)
        built = blocks.setdefault(start, built)
    return built


def _derived(tables: BeliefTables, name: str, kind: str):
    """``tables``'s row of the ``kind`` table derived from its source's ``name`` table."""
    source, col = _source_column(tables)
    rows = _rows_per_block(tables.n_psi)
    i = col % rows
    block = _block(source, name, kind, col - i, rows)
    return block[i] if kind == "ties" else (block[0][i], block[1][i])


def _gain_row(tables: BeliefTables, gain: np.ndarray, kind: str):
    """The ``kind`` row of a posterior gain: the cached row when the gain is
    the tables' own ratio (the prior-based loss), else built for this call."""
    if gain is tables.rb:
        return _derived(tables, "rb", kind)
    return _tie_mask(gain) if kind == "ties" else _rank(gain, tables.marg_post)


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
    return _estimate(tables.psi_labels, getattr(tables, name), _derived(tables, name, "ties"))


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
    argmax_set = tuple(_gain_row(tables, gain, "ties").nonzero()[0].tolist())
    best = argmax_set[0]
    return EstimateResult(argmax_set, tables.psi_labels[best], float(-(total - gain[best])))


# -- decision rules over a finite sample space -----------------------------


def _rule(model: FiniteModel, name: str) -> np.ndarray:
    """The first tied maximizer of ``name`` at every sample point, a block at a time."""
    source, rows = sample_space_tables(model), _rows_per_block(model.n_psi)
    return np.concatenate([_block(source, name, "ties", start, rows).argmax(axis=1)
                           for start in range(0, model.n_x, rows)])


def lrse_rule(model: FiniteModel) -> np.ndarray:
    """The LRSE at every sample point: the first of its tied ratio maximizers."""
    return _rule(model, "rb")


def map_rule(model: FiniteModel) -> np.ndarray:
    """The MAP estimate at every sample point, ties resolved as in :func:`lrse_rule`."""
    return _rule(model, "marg_post")


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
