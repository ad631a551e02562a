"""The generic predictive pipeline, kept as the oracle for ``predict_class``.

Prior and posterior predictives of a future value are built from a finite
model and a conditional kernel for that value; the future value maximizing
their ratio must be the class that the closed-form threshold rule of
:func:`relbelief.predict_class` picks.  No command or library path reads
this pipeline, so it lives with the tests that use it.
"""

from dataclasses import dataclass

import numpy as np

from relbelief import (
    BetaBernoulliPredictor,
    FiniteModel,
    InfiniteSampleSpace,
    InvariantViolation,
    RelBeliefError,
)
from relbelief.estimators import EstimateResult, _estimate, _tie_mask
from relbelief.model import SUM_TOL, _frozen

KERNEL_TOL = 1e-10


class NonStochasticKernel(RelBeliefError):
    """A future-value kernel row does not sum to one."""


@dataclass(frozen=True)
class PredictiveTables:
    """Prior predictive, posterior predictive, and their ratio for a future value."""

    y_labels: tuple[str, ...]
    prior_pred: np.ndarray
    post_pred: np.ndarray
    rb_pred: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y_labels", tuple(self.y_labels))
        prior = np.asarray(self.prior_pred, dtype=float)
        post = np.asarray(self.post_pred, dtype=float)
        rb = np.asarray(self.rb_pred, dtype=float)
        n = prior.size
        if post.size != n or rb.size != n or len(self.y_labels) != n:
            raise InvariantViolation("predictive tables must be aligned")
        if np.any(prior <= 0.0):
            raise InvariantViolation("prior predictive must be strictly positive")
        for name, vec in (("prior predictive", prior), ("posterior predictive", post)):
            if np.any(vec < 0.0) or abs(vec.sum() - 1.0) > SUM_TOL:
                raise InvariantViolation(f"{name} must be a probability vector")
        if abs(float(rb @ prior) - 1.0) > SUM_TOL:
            raise InvariantViolation("prior-weighted predictive ratio must average to one")
        object.__setattr__(self, "prior_pred", _frozen(prior))
        object.__setattr__(self, "post_pred", _frozen(post))
        object.__setattr__(self, "rb_pred", _frozen(rb))


def check_kernel(kernel) -> np.ndarray:
    g = np.asarray(kernel, dtype=float)
    if g.ndim not in (2, 3):
        raise NonStochasticKernel("future kernel must be a 2-D or 3-D table")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise NonStochasticKernel("future kernel entries must be finite and >= 0")
    worst = float(np.max(np.abs(g.sum(axis=-1) - 1.0)))
    if worst > KERNEL_TOL:
        raise NonStochasticKernel(
            f"future kernel rows must sum to one (worst deviation {worst:.3e})"
        )
    return g


def prior_predictive(model: FiniteModel, kernel) -> np.ndarray:
    """Prior predictive of a future value.

    ``kernel`` is either a ``(n_theta, n_y)`` table, when the future value
    does not depend on the data, or a ``(n_theta, n_x, n_y)`` table over a
    finite sample space.  In the data-free case the prior predictive is the
    prior mixture of the kernel rows.
    """
    g = check_kernel(kernel)
    if g.shape[0] != model.n_theta:
        raise NonStochasticKernel("kernel first axis must match theta support")
    if g.ndim == 2:
        return model.prior @ g
    if not model.is_table:
        raise InfiniteSampleSpace("data-dependent kernels need an enumerable sample space")
    if g.shape[1] != model.n_x:
        raise NonStochasticKernel("kernel second axis must match the sample space")
    joint = model.prior[:, None] * model.likelihood  # (theta, x)
    return np.einsum("tx,txy->y", joint, g)


def posterior_predictive(model: FiniteModel, posterior, kernel, x=None) -> PredictiveTables:
    """Posterior predictive of a future value, with the predictive ratio.

    ``posterior`` is a full-parameter posterior vector (from
    ``compute_posterior``).  For a data-dependent 3-D kernel, ``x`` selects
    the kernel slice of the observed data.
    """
    g = check_kernel(kernel)
    post = np.asarray(posterior, dtype=float)
    if post.shape != (model.n_theta,):
        raise InvariantViolation("posterior length does not match theta support")
    prior_pred = prior_predictive(model, g)
    if g.ndim == 3:
        if x is None:
            raise InvariantViolation("x is required with a data-dependent kernel")
        g = g[:, model.x_index(x), :]
    post_pred = post @ g
    if np.any(prior_pred <= 0.0):
        raise InvariantViolation("prior predictive must be positive on every future value")
    return PredictiveTables(
        y_labels=tuple(str(i) for i in range(g.shape[-1])),
        prior_pred=prior_pred,
        post_pred=post_pred,
        rb_pred=post_pred / prior_pred,
    )


def predict_lrse(pred: PredictiveTables) -> EstimateResult:
    """Future value maximizing the predictive belief ratio."""
    return _estimate(pred.y_labels, pred.rb_pred, _tie_mask(pred.rb_pred))


def predictive_tables_for(model: BetaBernoulliPredictor) -> PredictiveTables:
    """Conjugate prior/posterior predictive tables for the class of interest.

    The exact inputs the Beta prior implies, so the argmax of the returned
    ratio must reproduce ``predict_class`` away from exact ties.
    """
    a, b = model.alpha, model.beta
    k = model.n * model.cbar
    prior_pred = np.array([b / (a + b), a / (a + b)])
    post_odds = model.f_ratio * (a + k) / (b + model.n - k)
    post_pred = np.array([1.0, post_odds])
    post_pred /= post_pred.sum()
    return PredictiveTables(
        y_labels=("0", "1"),
        prior_pred=prior_pred,
        post_pred=post_pred,
        rb_pred=post_pred / prior_pred,
    )
