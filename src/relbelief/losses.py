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

Every kind but ``ball`` is ``I(true != action) * h(true)`` (:func:`h_vector`);
:func:`loss_matrix` gives any kind as a ``(true, action)`` table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, UnknownPsi
from .model import BeliefTables, FiniteModel, SampleSpaceTables, _whole_sample_space

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


def h_vector(loss: LossSpec, marg_prior: np.ndarray) -> np.ndarray:
    """Weight-per-true-value form of an indicator loss.

    Every kind except ``ball`` can be written as
    ``I(true != action) * h(true)``; this returns the vector ``h``.
    """
    if loss.kind == ZERO_ONE:
        return np.ones_like(marg_prior)
    if loss.kind == PRIOR_BASED:
        return 1.0 / marg_prior
    if loss.kind == CAPPED:
        return 1.0 / np.maximum(loss.eta, marg_prior)
    if loss.kind == WEIGHTED:
        if loss.weights.size != marg_prior.size:
            raise InvariantViolation("weight vector length does not match psi support")
        return np.asarray(loss.weights, dtype=float)
    raise InvariantViolation(f"{loss.kind} loss has no weight-per-true-value form")


# Each row block of the dense ball test holds at most this many coordinate
# differences, so its memory stays bounded however large the support is.
BALL_BLOCK = 1 << 16


def _ball_points(coords: np.ndarray | None) -> np.ndarray:
    if coords is None:
        raise InvariantViolation("ball loss needs psi coordinates")
    return coords.reshape(len(coords), -1)  # one row of coordinates per psi


def _within(diff: np.ndarray, radius: float) -> np.ndarray:
    """The ball test on coordinate differences whose last axis is the dimension."""
    return np.linalg.norm(diff, axis=-1) <= radius


def _ball_rows(radius: float, pts: np.ndarray, centres: np.ndarray):
    """``inside[true, k]`` (``true`` within ``radius`` of ``centres[k]``), in row blocks."""
    step = max(1, BALL_BLOCK // max(1, len(centres) * pts.shape[1]))
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
    h = h_vector(loss, model.marginal_prior())
    return h[:, None] * (np.arange(model.n_psi)[:, None] != actions)


# -- posterior risk --------------------------------------------------------


def posterior_risk_vector(loss: LossSpec, tables: BeliefTables) -> np.ndarray:
    """Posterior risk of every candidate action at once.

    An indicator loss ``I(true != a) * h(true)`` costs ``sum(w) - w[a]`` with
    ``w = h * marg_post``; under the prior-based loss ``w`` is the belief
    ratio, so its lowest-risk sets are the relative-surprise sets.  The ball
    loss costs the posterior mass outside each ball.  Where ``h`` is a
    reciprocal, ``w`` is formed as a quotient, which stays finite at a prior
    whose reciprocal would overflow.
    """
    post, prior = tables.marg_post, tables.marg_prior
    if loss.kind == BALL:
        return 1.0 - _ball_mass(loss.radius, tables.psi_coords, post)
    if loss.kind == PRIOR_BASED:
        w = post / prior
    elif loss.kind == CAPPED:
        w = post / np.maximum(loss.eta, prior)
    else:
        w = h_vector(loss, prior) * post
    return w.sum() - w


# -- prior risk over the whole sample space --------------------------------


def check_rule(rule, model: FiniteModel) -> tuple[np.ndarray, SampleSpaceTables]:
    """A decision rule as one valid psi index per sample point, and the model's tables."""
    tabs = _whole_sample_space(model)[0]  # InfiniteSampleSpace for a density
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
    conditioned on the fiber.
    """
    tabs, theta_sums = _whole_sample_space(model)  # InfiniteSampleSpace for a density
    if not np.all(np.abs(theta_sums - 1.0) <= 1e-9):
        raise InvariantViolation(
            "prior risk needs row-stochastic likelihoods (each theta a distribution over x)"
        )
    return tabs.marg_joint / tabs.marg_prior[:, None]


def prior_risk(loss: LossSpec, rule, model: FiniteModel) -> RiskReport:
    """Exact prior risk of a decision rule, with per-class error probabilities.

    The risk is ``sum_{j, x} marg_joint[j, x] * L[j, rule(x)]``.  Summation
    uses :func:`math.fsum` so results are invariant to how the sample space
    might be chunked across workers.  Every call checks the identities:
    prior-based risk = sum of the conditional error probabilities =
    ``n_psi - E[rb(rule(x))]``; zero-one risk = prior-weighted error.

    Raises
    ------
    InfiniteSampleSpace
        If the model carries a density callback, not a finite sample space.
    """
    sampling = conditional_sampling_table(model)
    rule_arr, tabs = check_rule(rule, model)

    # Zeros in the right cells leave each fsum exact; plain floats from
    # tolist() are several times faster for fsum than numpy scalars.
    wrong = rule_arr[None, :] != np.arange(model.n_psi)[:, None]
    per_class = np.array([math.fsum(row) for row in (sampling * wrong).tolist()])
    unweighted = math.fsum(per_class)
    weighted = math.fsum(per_class * tabs.marg_prior)
    cells = tabs.marg_joint * loss_matrix(loss, model, rule_arr)
    risk = math.fsum(cells.ravel().tolist())

    if loss.kind == PRIOR_BASED:
        if abs(risk - unweighted) > IDENTITY_TOL:
            raise InvariantViolation(
                "prior risk must equal the sum of conditional error probabilities"
            )
        chosen_rb = tabs.rb[rule_arr, np.arange(model.n_x)]
        alt = model.n_psi - math.fsum(tabs.evidence * chosen_rb)
        if abs(risk - alt) > IDENTITY_TOL:
            raise InvariantViolation(
                "prior risk must equal n_psi minus the expected chosen ratio"
            )
    elif loss.kind == ZERO_ONE and abs(risk - weighted) > IDENTITY_TOL:
        raise InvariantViolation(
            "zero-one prior risk must equal the prior-weighted error probability"
        )

    return RiskReport(
        per_class_error=per_class,
        unweighted_sum=unweighted,
        prior_weighted_sum=weighted,
        prior_risk=risk,
    )
