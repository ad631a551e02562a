"""Prior-driven loss families and the posterior/prior risks they induce.

The loss of taking action ``psi`` when the true marginal value is
``Psi(theta)`` is always zero for the correct action.  For a wrong action the
family members differ in how the penalty depends on the prior:

* ``zero-one``      — constant penalty 1.
* ``prior-based``   — penalty ``1 / marg_prior[Psi(theta)]``, so errors on
  prior-unlikely values are punished hard.
* ``capped``        — ``1 / max(eta, marg_prior[Psi(theta)])``; bounds the
  prior-based penalty so it stays usable on countable supports and on
  bin-discretized problems.
* ``weighted``      — ``h[Psi(theta)]`` for a user-supplied nonnegative
  weight per marginal value.
* ``ball``          — indicator that ``Psi(theta)`` falls outside the closed
  ball of a given radius around the action; needs psi coordinates.

Every kind but ``ball`` is ``I(true != action) * h(true)``, and
:func:`_times_h` is that one form; :func:`loss_matrix` gives any kind as a
``(true, action)`` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, UnknownPsi
from .model import (BeliefTables, FiniteModel, SampleSpaceTables, _fsum, _rows_per_block,
                    sample_space_tables)

ZERO_ONE = "zero-one"
PRIOR_BASED = "prior-based"
CAPPED = "capped"
WEIGHTED = "weighted"
BALL = "ball"

_KINDS = (ZERO_ONE, PRIOR_BASED, CAPPED, WEIGHTED, BALL)

IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class LossSpec:
    """Tagged description of one member of the loss family."""

    kind: str
    eta: float | None = None
    radius: float | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvariantViolation(f"unknown loss kind {self.kind!r}")
        if self.kind == CAPPED:
            if self.eta is None or not self.eta > 0:
                raise InvariantViolation("capped losses need eta > 0")
        if self.kind == BALL:
            if self.radius is None or not self.radius > 0:
                raise InvariantViolation("ball losses need a positive radius")
        if self.kind == WEIGHTED:
            if self.weights is None:
                raise InvariantViolation("weighted losses need a weight vector")
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.size == 0 or np.any(w < 0) or not np.all(np.isfinite(w)):
                raise InvariantViolation("weights must be finite and nonnegative")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)

    # Convenience constructors keep call sites readable.
    @classmethod
    def zero_one(cls) -> "LossSpec":
        return cls(ZERO_ONE)

    @classmethod
    def prior_based(cls) -> "LossSpec":
        return cls(PRIOR_BASED)

    @classmethod
    def capped(cls, eta: float) -> "LossSpec":
        return cls(CAPPED, eta=float(eta))

    @classmethod
    def weighted(cls, weights) -> "LossSpec":
        return cls(WEIGHTED, weights=np.asarray(weights, dtype=float))

    @classmethod
    def ball(cls, radius: float) -> "LossSpec":
        return cls(BALL, radius=float(radius))


def parse_number(text: str) -> float:
    """``float(text)``; text that is no number is a validation error naming it."""
    try:
        return float(text)
    except ValueError:
        raise InvariantViolation(f"cannot read {text!r} as a number") from None


def parse_loss(text: str, base_dir: str | Path | None = None) -> LossSpec:
    """Parse the command-line loss syntax.

    Accepted forms: ``zero-one``, ``prior-based``, ``capped:ETA``,
    ``ball:RADIUS``, ``weighted:FILE`` where FILE holds one weight per line.
    """
    text = text.strip()
    if text == ZERO_ONE:
        return LossSpec.zero_one()
    if text == PRIOR_BASED:
        return LossSpec.prior_based()
    if text.startswith("capped:"):
        return LossSpec.capped(parse_number(text.split(":", 1)[1]))
    if text.startswith("ball:"):
        return LossSpec.ball(parse_number(text.split(":", 1)[1]))
    if text.startswith("weighted:"):
        path = Path(text.split(":", 1)[1])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        try:
            return LossSpec.weighted(np.loadtxt(path, ndmin=1))
        except (OSError, ValueError) as exc:
            raise InvariantViolation(f"weights file {str(path)!r}: {exc}") from None
    raise InvariantViolation(f"cannot parse loss spec {text!r}")


@dataclass(frozen=True)
class RiskReport:
    """Conditional error probabilities of a decision rule and their aggregates.

    ``per_class_error[j]`` is the probability of deciding wrongly when the
    j-th marginal value is true, computed under the fiber-averaged sampling
    distribution of the data.  ``unweighted_sum`` adds these equally;
    ``prior_weighted_sum`` weighs them by the marginal prior and equals the
    prior probability of an error.  ``prior_risk`` is the expected loss of
    the rule under the given loss spec.
    """

    per_class_error: np.ndarray
    unweighted_sum: float
    prior_weighted_sum: float
    prior_risk: float
    std_err: np.ndarray | None = None

    def __post_init__(self):
        errs = np.asarray(self.per_class_error, dtype=float)
        if np.any(errs < -1e-12) or np.any(errs > 1.0 + 1e-12):
            raise InvariantViolation("per-class errors must lie in [0, 1]")
        if self.prior_weighted_sum > self.unweighted_sum + 1e-12:
            raise InvariantViolation("prior-weighted error cannot exceed the plain sum")
        errs = errs.copy()
        errs.setflags(write=False)
        object.__setattr__(self, "per_class_error", errs)


# -- loss tables -------------------------------------------------------------


def _times_h(loss: LossSpec, marg_prior: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``h * values``: an indicator loss's weight ``h`` on each true value (last axis).

    ``h`` is 1 for zero-one, ``1 / prior`` for prior-based,
    ``1 / max(eta, prior)`` for capped and the given weights for weighted.
    A reciprocal is formed as a quotient, which stays finite at a prior
    whose reciprocal would overflow: under the prior-based loss
    ``h * post`` is the belief ratio ``post / prior`` and ``h * prior`` is 1.
    """
    if loss.kind == ZERO_ONE:
        return 1.0 * values
    if loss.kind == PRIOR_BASED:
        return values / marg_prior
    if loss.kind == CAPPED:
        return values / np.maximum(loss.eta, marg_prior)
    if loss.kind == WEIGHTED:
        if loss.weights.size != marg_prior.size:
            raise InvariantViolation("weight vector length does not match psi support")
        return loss.weights * values
    raise InvariantViolation(f"{loss.kind} loss has no weight-per-true-value form")


def _ball_points(coords: np.ndarray | None) -> np.ndarray:
    if coords is None:
        raise InvariantViolation("ball loss needs psi coordinates")
    return coords.reshape(len(coords), -1)  # one row of coordinates per psi


def _within(diff: np.ndarray, radius: float) -> np.ndarray:
    """The ball test on coordinate differences whose last axis is the dimension."""
    return np.linalg.norm(diff, axis=-1) <= radius


def _ball_rows(radius: float, pts: np.ndarray, centres: np.ndarray):
    """``inside[true, k]`` (``true`` within ``radius`` of ``centres[k]``), in row blocks.

    A block holds at most :data:`relbelief.model.BLOCK_CELLS` coordinate
    differences, so its memory stays bounded however large the support is.
    """
    step = _rows_per_block(len(centres) * pts.shape[1])
    for start in range(0, len(pts), step):
        yield _within(pts[start:start + step, None, :] - centres[None, :, :], radius)


def _ball_mass(radius: float, coords: np.ndarray | None, post: np.ndarray) -> np.ndarray:
    """Posterior mass of the closed ball of ``radius`` around every psi."""
    pts = _ball_points(coords)
    return np.concatenate([inside @ post for inside in _ball_rows(radius, pts, pts)])


def loss_matrix(loss: LossSpec, model: FiniteModel, actions) -> np.ndarray:
    """``L[true, k]``: the loss of acting with ``actions[k]``, one column per action."""
    actions = np.asarray(actions, dtype=np.intp)
    if actions.size and (actions.min() < 0 or actions.max() >= model.n_psi):
        raise UnknownPsi("actions point outside the psi support")
    if loss.kind == BALL:
        pts = _ball_points(model.psi_coords)
        return 1.0 - np.concatenate(list(_ball_rows(loss.radius, pts, pts[actions])))
    wrong = np.arange(model.n_psi)[:, None] != actions
    return _times_h(loss, model.marginal_prior(), wrong.T).T


# -- posterior risk --------------------------------------------------------


def _posterior_gain(loss: LossSpec, tables: BeliefTables) -> tuple[np.ndarray, float]:
    """``(gain, total)``, each action's posterior risk being ``total - gain``.

    Bayes rules and LPL regions rank the gain, which orders the actions as
    the risk does without the rounding of the subtraction.  Under the
    prior-based loss the gain ``h * post`` is the belief ratio: the tables'
    own ``rb``, whose rows :func:`relbelief.estimators._row` reads from a source.
    """
    if loss.kind == BALL:
        return _ball_mass(loss.radius, tables.psi_coords, tables.marg_post), 1.0
    if loss.kind == PRIOR_BASED:
        return tables.rb, tables.rb.sum()
    w = _times_h(loss, tables.marg_prior, tables.marg_post)
    return w, w.sum()


def posterior_risk_vector(loss: LossSpec, tables: BeliefTables) -> np.ndarray:
    """Posterior risk of every candidate action at once.

    An indicator loss ``I(true != a) * h(true)`` costs ``sum(w) - w[a]`` with
    ``w = h * marg_post``; under the prior-based loss ``w`` is the tables'
    belief ratio, so its lowest-risk sets are the relative-surprise sets.
    The ball loss costs the posterior mass outside each ball.  Under the
    capped loss ``w`` is formed as a quotient (:func:`_times_h`), which
    stays finite at a prior whose reciprocal would overflow.
    """
    gain, total = _posterior_gain(loss, tables)
    return total - gain


# -- prior risk over the whole sample space --------------------------------


def check_rule(rule, model: FiniteModel) -> tuple[np.ndarray, SampleSpaceTables]:
    """A decision rule as one valid psi index per sample point, and the model's tables."""
    tabs = sample_space_tables(model)  # InfiniteSampleSpace for a density
    arr = np.asarray(rule, dtype=np.intp)
    if arr.shape != (model.n_x,):
        raise InvariantViolation("decision rule must assign one psi per sample point")
    if arr.min() < 0 or arr.max() >= model.n_psi:
        raise UnknownPsi("decision rule points outside the psi support")
    return arr, tabs


def conditional_sampling_table(model: FiniteModel) -> np.ndarray:
    """Fiber-averaged sampling distribution ``M[j, x]`` for each psi value.

    Row ``j`` is the distribution of the data when the j-th marginal value
    is true, averaging the per-theta sampling distributions under the prior
    conditioned on the fiber: the ``sampling`` table of the kernel's record
    (read-only), whose ``theta_sums`` must each be one.
    """
    tabs = sample_space_tables(model)  # InfiniteSampleSpace for a density
    if not np.all(np.abs(tabs.theta_sums - 1.0) <= 1e-9):
        raise InvariantViolation(
            "prior risk needs row-stochastic likelihoods (each theta a distribution over x)"
        )
    return tabs.sampling


def prior_risk(loss: LossSpec, rule, model: FiniteModel) -> RiskReport:
    """Exact prior risk of a decision rule, with per-class error probabilities.

    The risk is ``sum_{j, x} marg_prior[j] * M[j, x] * L[j, rule(x)]`` over
    the sampling table ``M``.  An indicator loss's cell is
    ``g[j] * M[j, x] * I(j != rule(x))`` with ``g = h * marg_prior`` formed
    by :func:`_times_h`, so a prior whose reciprocal overflows still gives a
    finite risk, and under the prior-based loss ``g`` is 1.  Summation uses
    :func:`math.fsum` so results are invariant to how the sample space might
    be chunked across workers.  Every call checks the identities:
    prior-based risk = sum of the conditional error probabilities =
    ``n_psi - E[rb(rule(x))]``; zero-one risk = prior-weighted error.

    Raises
    ------
    InfiniteSampleSpace
        If the model carries a density callback, not a finite sample space.
    """
    sampling = conditional_sampling_table(model)
    rule_arr, tabs = check_rule(rule, model)

    # Zeros in the right cells leave each fsum exact.
    errors = sampling * (rule_arr[None, :] != np.arange(model.n_psi)[:, None])
    per_class = np.array([_fsum(row) for row in errors])
    unweighted = _fsum(per_class)
    weighted = _fsum(per_class * tabs.marg_prior)
    if loss.kind == BALL:
        cells = sampling * tabs.marg_prior[:, None] * loss_matrix(loss, model, rule_arr)
    else:
        cells = _times_h(loss, tabs.marg_prior, tabs.marg_prior)[:, None] * errors
    risk = _fsum(cells.ravel())

    # Written as "not within", so that a NaN fails every check.
    if loss.kind == PRIOR_BASED:
        if not abs(risk - unweighted) <= IDENTITY_TOL:
            raise InvariantViolation(
                "prior risk must equal the sum of conditional error probabilities"
            )
        # The kernel's own evidence and ratio, not the risk's cells.
        chosen_rb = tabs.rb[rule_arr, np.arange(model.n_x)]
        alt = model.n_psi - _fsum(tabs.evidence * chosen_rb)
        if not abs(risk - alt) <= IDENTITY_TOL:
            raise InvariantViolation(
                "prior risk must equal n_psi minus the expected chosen ratio"
            )
    elif loss.kind == ZERO_ONE and not abs(risk - weighted) <= IDENTITY_TOL:
        raise InvariantViolation(
            "zero-one prior risk must equal the prior-weighted error probability"
        )

    return RiskReport(
        per_class_error=per_class,
        unweighted_sum=unweighted,
        prior_weighted_sum=weighted,
        prior_risk=risk,
    )
