"""Finite Bayesian models and their prior, posterior, and predictive tables.

Everything downstream works on the finite representation defined here: a
parameter support with strictly positive prior weights, a likelihood (a table
over a finite sample space, or a density callback evaluated at a single
observed point), and a surjective map from the full parameter onto the
marginal parameter of interest.  Continuous-parameter problems enter through
:mod:`relbelief.discretize`, which emits a :class:`FiniteModel` over grid
bins; this module is strictly finite.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfiniteSampleSpace,
    InvariantViolation,
    NonStochasticKernel,
    ZeroEvidence,
)

# One shared rounding policy: probability vectors are renormalized at
# construction and must then sum to one within SUM_TOL.
SUM_TOL = 1e-12
KERNEL_TOL = 1e-10

LikelihoodCallback = Callable[[int, object], float]


def normalized(
    weights,
    *,
    what: str = "probability vector",
    warn_above: float | None = None,
) -> np.ndarray:
    """Normalize nonnegative weights into a unit-sum probability vector.

    This is the single normalization routine used everywhere in the package,
    so there is one source of rounding policy.

    Parameters
    ----------
    weights : array_like
        Nonnegative finite weights with a positive sum.
    what : str
        Name used in error messages.
    warn_above : float, optional
        If given, emit a ``UserWarning`` when ``|sum - 1|`` exceeds it.

    Returns
    -------
    numpy.ndarray
        Read-only float vector summing to one within :data:`SUM_TOL`.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvariantViolation(f"{what} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation(f"{what} contains non-finite entries")
    if np.any(arr < 0):
        raise InvariantViolation(f"{what} contains negative entries")
    total = float(arr.sum())
    if total <= 0.0:
        raise InvariantViolation(f"{what} has nonpositive total mass")
    if warn_above is not None and abs(total - 1.0) > warn_above:
        warnings.warn(
            f"{what} summed to {total!r}; renormalizing", stacklevel=2
        )
    out = arr / total
    out.setflags(write=False)
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FiniteModel:
    """Discrete Bayesian model with a marginal parameter mapping.

    Parameters
    ----------
    theta_labels : tuple of str
        Labels for the points of the full parameter support.
    prior : numpy.ndarray
        Strictly positive prior weights; renormalized at construction.
    likelihood : numpy.ndarray or callable
        Either a ``(n_theta, n_x)`` table of nonnegative sampling weights
        over a finite sample space, or a callback ``f(theta_index, x)``
        returning the sampling density of the single observed ``x``.
    psi_map : numpy.ndarray
        Integer index of the marginal parameter value for each theta; must
        be surjective onto ``range(len(psi_labels))``.
    psi_labels : tuple of str
        Labels for the marginal parameter support.
    theta_coords, psi_coords : numpy.ndarray, optional
        Real coordinates for the supports; required only by geometry-aware
        operations (ball losses, refinement experiments).
    x_labels : tuple of str, optional
        Labels for the sample-space columns of a table likelihood.
    family_spec : dict, optional
        Serializable description of a named likelihood family, kept so a
        model loaded from a file can be written back field-for-field.
    tail_bound : float, optional
        Truncation tail-mass bound when the model is an explicit truncation
        of a countable support; carried through to estimator results.
    """

    theta_labels: tuple[str, ...]
    prior: np.ndarray
    likelihood: np.ndarray | LikelihoodCallback
    psi_map: np.ndarray
    psi_labels: tuple[str, ...]
    theta_coords: np.ndarray | None = None
    psi_coords: np.ndarray | None = None
    x_labels: tuple[str, ...] | None = None
    family_spec: dict | None = None
    tail_bound: float | None = None
    future_kernel: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta_labels", tuple(self.theta_labels))
        object.__setattr__(self, "psi_labels", tuple(self.psi_labels))
        n_theta = len(self.theta_labels)
        n_psi = len(self.psi_labels)
        if n_theta == 0 or n_psi == 0:
            raise InvariantViolation("empty parameter support")

        prior = normalized(self.prior, what="prior")
        if prior.size != n_theta:
            raise InvariantViolation("prior length does not match theta support")
        if np.any(prior <= 0.0):
            raise InvariantViolation("every prior weight must be strictly positive")
        object.__setattr__(self, "prior", prior)

        psi_map = np.asarray(self.psi_map, dtype=np.intp)
        if psi_map.shape != (n_theta,):
            raise InvariantViolation("psi_map length does not match theta support")
        if psi_map.min() < 0 or psi_map.max() >= n_psi:
            raise InvariantViolation("psi_map points outside the psi support")
        if len(np.unique(psi_map)) != n_psi:
            raise InvariantViolation("psi_map must be surjective: every psi needs a preimage")
        object.__setattr__(self, "psi_map", _frozen(psi_map))

        if not callable(self.likelihood):
            lik = np.asarray(self.likelihood, dtype=float)
            if lik.ndim != 2 or lik.shape[0] != n_theta:
                raise InvariantViolation("likelihood table must be (n_theta, n_x)")
            if not np.all(np.isfinite(lik)) or np.any(lik < 0):
                raise InvariantViolation("likelihood entries must be finite and >= 0")
            if np.any(lik.sum(axis=0) <= 0.0):
                raise InvariantViolation(
                    "every sample-space column needs at least one positive likelihood"
                )
            object.__setattr__(self, "likelihood", _frozen(lik))
            if self.x_labels is not None:
                x_labels = tuple(self.x_labels)
                if len(x_labels) != lik.shape[1]:
                    raise InvariantViolation("x_labels length does not match likelihood")
                object.__setattr__(self, "x_labels", x_labels)
        elif self.x_labels is not None:
            raise InvariantViolation("x_labels are meaningless with a density callback")

        for name in ("theta_coords", "psi_coords"):
            val = getattr(self, name)
            if val is not None:
                coords = np.asarray(val, dtype=float)
                expect = n_theta if name == "theta_coords" else n_psi
                if coords.shape[0] != expect:
                    raise InvariantViolation(f"{name} length does not match support")
                object.__setattr__(self, name, _frozen(coords))

        if self.future_kernel is not None:
            kernel = np.asarray(self.future_kernel, dtype=float)
            if kernel.ndim not in (2, 3) or kernel.shape[0] != n_theta:
                raise InvariantViolation("future kernel must be 2-D or 3-D over theta")
            object.__setattr__(self, "future_kernel", _frozen(kernel))

    # -- basic views ------------------------------------------------------

    @property
    def n_theta(self) -> int:
        return len(self.theta_labels)

    @property
    def n_psi(self) -> int:
        return len(self.psi_labels)

    @property
    def is_table(self) -> bool:
        """True when the likelihood is a finite table rather than a callback."""
        return not callable(self.likelihood)

    @property
    def n_x(self) -> int:
        if not self.is_table:
            raise InfiniteSampleSpace("model has a density callback, not a sample-space table")
        return self.likelihood.shape[1]

    def x_index(self, x) -> int:
        """Resolve an observed value to a sample-space column index."""
        if self.x_labels is not None and isinstance(x, str):
            try:
                return self.x_labels.index(x)
            except ValueError:
                raise InvariantViolation(f"unknown sample-space label {x!r}") from None
        idx = int(x)
        if not 0 <= idx < self.n_x:
            raise InvariantViolation(f"sample-space index {idx} out of range")
        return idx

    def likelihood_at(self, x) -> np.ndarray:
        """Likelihood of the observed ``x`` as a vector over theta."""
        if self.is_table:
            return np.asarray(self.likelihood[:, self.x_index(x)], dtype=float)
        vals = np.array(
            [float(self.likelihood(i, x)) for i in range(self.n_theta)], dtype=float
        )
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise InvariantViolation("density callback returned invalid values")
        return vals

    def marginal_prior(self) -> np.ndarray:
        """Prior weights pushed forward onto the psi support."""
        return np.bincount(self.psi_map, weights=self.prior, minlength=self.n_psi)

    def fiber(self, psi_index: int) -> np.ndarray:
        """Theta indices mapping to the given psi value."""
        return np.flatnonzero(self.psi_map == psi_index)


@dataclass(frozen=True)
class BeliefTables:
    """Aligned marginal prior, marginal posterior, and relative belief ratio.

    The relative belief ratio ``rb[j] = marg_post[j] / marg_prior[j]`` is the
    factor by which belief in the j-th marginal value changed from prior to
    posterior at the observed ``x``.  Since it is the density of the
    posterior with respect to the prior, its maximum is always at least one.
    """

    x: object
    marg_prior: np.ndarray
    marg_post: np.ndarray
    rb: np.ndarray
    evidence: float
    psi_labels: tuple[str, ...]
    psi_coords: np.ndarray | None = None
    tail_bound: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "psi_labels", tuple(self.psi_labels))
        prior = np.asarray(self.marg_prior, dtype=float)
        post = np.asarray(self.marg_post, dtype=float)
        rb = np.asarray(self.rb, dtype=float)
        n = prior.size
        if post.size != n or rb.size != n or len(self.psi_labels) != n:
            raise InvariantViolation("belief tables must be aligned over one psi support")
        if np.any(prior <= 0.0):
            raise InvariantViolation("marginal prior must be strictly positive")
        if abs(prior.sum() - 1.0) > SUM_TOL:
            raise InvariantViolation("marginal prior must sum to one")
        if np.any(post < 0.0) or abs(post.sum() - 1.0) > SUM_TOL:
            raise InvariantViolation("marginal posterior must be a probability vector")
        if np.max(np.abs(rb * prior - post)) > SUM_TOL:
            raise InvariantViolation("rb must be the posterior-to-prior quotient")
        if abs(float(rb @ prior) - 1.0) > SUM_TOL:
            raise InvariantViolation("prior-weighted rb must average to one")
        if rb.max() < 1.0 - SUM_TOL:
            raise InvariantViolation("max relative belief ratio must be >= 1")
        object.__setattr__(self, "marg_prior", _frozen(prior))
        object.__setattr__(self, "marg_post", _frozen(post))
        object.__setattr__(self, "rb", _frozen(rb))
        if self.psi_coords is not None:
            coords = np.asarray(self.psi_coords, dtype=float)
            if coords.shape[0] != n:
                raise InvariantViolation("psi_coords length does not match support")
            object.__setattr__(self, "psi_coords", _frozen(coords))

    @property
    def n_psi(self) -> int:
        return len(self.psi_labels)


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

    @property
    def n_y(self) -> int:
        return len(self.y_labels)


# -- posterior and marginal computation -----------------------------------


def compute_posterior(model: FiniteModel, x) -> tuple[np.ndarray, float]:
    """Posterior over the full parameter support at the observed ``x``.

    Returns
    -------
    posterior : numpy.ndarray
        Normalized posterior weights over ``theta``.
    evidence : float
        The normalizing constant, i.e. the prior predictive weight of ``x``.

    Raises
    ------
    ZeroEvidence
        If the observed data is impossible under every parameter value.
    """
    lik = model.likelihood_at(x)
    joint = model.prior * lik
    evidence = float(joint.sum())
    if evidence <= 0.0:
        raise ZeroEvidence(f"observed data {x!r} has zero evidence")
    return joint / evidence, evidence


def marginalize(
    posterior,
    model: FiniteModel,
    *,
    x=None,
    evidence: float = math.nan,
) -> BeliefTables:
    """Push a full posterior onto the psi support and form the belief tables.

    The ratio is computed as the elementwise quotient of the two normalized
    marginals, never through evidence-free shortcuts, so the "max rb >= 1"
    invariant stays exactly testable.
    """
    post = np.asarray(posterior, dtype=float)
    if post.shape != (model.n_theta,):
        raise InvariantViolation("posterior length does not match theta support")
    if abs(post.sum() - 1.0) > SUM_TOL or np.any(post < 0):
        raise InvariantViolation("posterior must be a normalized probability vector")
    marg_prior = model.marginal_prior()
    marg_post = np.bincount(model.psi_map, weights=post, minlength=model.n_psi)
    rb = marg_post / marg_prior
    return BeliefTables(
        x=x,
        marg_prior=marg_prior,
        marg_post=marg_post,
        rb=rb,
        evidence=evidence,
        psi_labels=model.psi_labels,
        psi_coords=model.psi_coords,
        tail_bound=model.tail_bound,
    )


def belief_tables(model: FiniteModel, x) -> BeliefTables:
    """Posterior update followed by marginalization, in one step."""
    posterior, evidence = compute_posterior(model, x)
    return marginalize(posterior, model, x=x, evidence=evidence)


@dataclass(frozen=True)
class SampleSpaceTables:
    """Belief tables at every point of a finite sample space at once.

    Column ``x`` of ``marg_post`` and ``rb`` equals that of
    ``belief_tables(model, x)`` bit for bit; ``marg_joint[j, x]`` is the prior
    probability of the j-th marginal value together with ``x``.
    """

    evidence: np.ndarray  # (n_x,)
    marg_prior: np.ndarray  # (n_psi,)
    marg_joint: np.ndarray  # (n_psi, n_x)
    marg_post: np.ndarray  # (n_psi, n_x)
    rb: np.ndarray  # (n_psi, n_x)


def sample_space_tables(model: FiniteModel) -> SampleSpaceTables:
    """Evidence, marginal joint, posterior and ratio for every ``x`` in one pass.

    The arithmetic is that of :func:`compute_posterior` then
    :func:`marginalize`, in the same order, so ties come out as they do at
    single points.  Raises :class:`InfiniteSampleSpace` for a density
    callback and :class:`ZeroEvidence` if some ``x`` is impossible.
    """
    n_psi, n_x = model.n_psi, model.n_x
    joint = model.prior[:, None] * model.likelihood
    # Summing contiguous rows makes numpy add each column pairwise, as the
    # 1-D sum in compute_posterior does; a sum over axis 0 would not.
    evidence = np.ascontiguousarray(joint.T).sum(axis=1)
    if np.any(evidence <= 0.0):
        raise ZeroEvidence(f"sample point {int(np.argmin(evidence))} has zero evidence")
    # One bincount over (psi, x) cells adds each fiber in theta order, as
    # the per-x bincount in marginalize does.
    cells = (model.psi_map[:, None] * n_x + np.arange(n_x)).ravel()

    def fiber_sums(per_theta: np.ndarray) -> np.ndarray:
        sums = np.bincount(cells, weights=per_theta.ravel(), minlength=n_psi * n_x)
        return _frozen(sums.reshape(n_psi, n_x))

    marg_prior = model.marginal_prior()
    marg_post = fiber_sums(joint / evidence)
    rb = marg_post / marg_prior[:, None]
    if np.max(np.abs(marg_post.sum(axis=0) - 1.0)) > SUM_TOL:
        raise InvariantViolation("marginal posterior must be a probability vector at every x")
    if np.any(rb.max(axis=0) < 1.0 - SUM_TOL):
        raise InvariantViolation("max relative belief ratio must be >= 1 at every x")
    return SampleSpaceTables(
        evidence=_frozen(evidence),
        marg_prior=_frozen(marg_prior),
        marg_joint=fiber_sums(joint),
        marg_post=marg_post,
        rb=_frozen(rb),
    )


# -- predictive tables -----------------------------------------------------


def _check_kernel(kernel: np.ndarray) -> np.ndarray:
    g = np.asarray(kernel, dtype=float)
    if g.ndim not in (2, 3):
        raise NonStochasticKernel("future kernel must be a 2-D or 3-D table")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise NonStochasticKernel("future kernel entries must be finite and >= 0")
    row_sums = g.sum(axis=-1)
    if np.max(np.abs(row_sums - 1.0)) > KERNEL_TOL:
        worst = float(np.max(np.abs(row_sums - 1.0)))
        raise NonStochasticKernel(
            f"future kernel rows must sum to one (worst deviation {worst:.3e})"
        )
    return g


def prior_predictive(model: FiniteModel, kernel) -> np.ndarray:
    """Prior predictive of a future value.

    ``kernel`` gives the conditional density of the future value: either a
    ``(n_theta, n_y)`` table when it does not depend on the data, or a
    ``(n_theta, n_x, n_y)`` table over a finite sample space.  In the
    data-free case the prior predictive collapses to the prior mixture of
    the kernel rows.
    """
    g = _check_kernel(kernel)
    if g.shape[0] != model.n_theta:
        raise NonStochasticKernel("kernel first axis must match theta support")
    if g.ndim == 2:
        return model.prior @ g
    lik = model.likelihood
    if callable(lik):
        raise InfiniteSampleSpace(
            "data-dependent kernels need an enumerable sample space"
        )
    if g.shape[1] != model.n_x:
        raise NonStochasticKernel("kernel second axis must match the sample space")
    joint = model.prior[:, None] * lik  # (theta, x)
    return np.einsum("tx,txy->y", joint, g)


def posterior_predictive(
    model: FiniteModel,
    posterior,
    kernel,
    x=None,
) -> PredictiveTables:
    """Posterior predictive of a future value, with the predictive ratio.

    ``posterior`` is a full-parameter posterior vector (from
    :func:`compute_posterior`).  For a data-dependent 3-D kernel, ``x``
    selects the kernel slice matching the observed data.
    """
    g = _check_kernel(kernel)
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
    rb_pred = post_pred / prior_pred
    n_y = g.shape[-1]
    labels = tuple(str(i) for i in range(n_y))
    return PredictiveTables(
        y_labels=labels, prior_pred=prior_pred, post_pred=post_pred, rb_pred=rb_pred
    )
