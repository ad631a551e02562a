"""Finite Bayesian models and their prior and posterior tables.

Everything downstream works on the finite representation defined here: a
parameter support with strictly positive prior weights, a likelihood, and a
surjective map from the full parameter onto the marginal parameter of
interest.  Continuous-parameter problems enter through
:mod:`relbelief.discretize`, which emits a :class:`FiniteModel` over grid
bins; this module is strictly finite.

A likelihood is a matrix or a callback giving log-likelihood columns (see
:class:`FiniteModel`).  One kernel scales columns so that a possible point
never underflows and turns them into belief tables: all of a matrix's
columns at once and cached, only the columns a query reads from a callback.

All values are immutable after construction and safe to share across
threads.  A :class:`FiniteModel` computes its marginal prior and its
whole-sample-space tables on first use and keeps them, read-only, in a
write-once cache on the instance; a second thread that races the first
builds the same values and gets the copy that was stored first.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteSampleSpace, InvariantViolation, ZeroEvidence

# One shared rounding policy: probability vectors are renormalized at
# construction and must then sum to one within SUM_TOL.
SUM_TOL = 1e-12


def normalized(weights, *, what: str = "probability vector") -> np.ndarray:
    """Normalize nonnegative weights into a unit-sum probability vector.

    This is the single normalization routine used everywhere in the package,
    so there is one source of rounding policy.

    Parameters
    ----------
    weights : array_like
        Nonnegative finite weights with a positive sum.
    what : str
        Name used in error messages.

    Returns
    -------
    numpy.ndarray
        Read-only float vector summing to one within :data:`SUM_TOL`.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvariantViolation(f"{what} must be a nonempty 1-D vector")
    low, high = arr.min(), arr.max()
    if not -np.inf < low <= high < np.inf:  # NaN fails every comparison
        raise InvariantViolation(f"{what} contains non-finite entries")
    if low < 0:
        raise InvariantViolation(f"{what} contains negative entries")
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if total == np.inf:  # the sum passes the largest double; the largest weight does not
        arr = arr / high
        total = float(arr.sum())
    if total <= 0.0:
        raise InvariantViolation(f"{what} has nonpositive total mass")
    out = arr / total
    out.setflags(write=False)
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _fsum(values: np.ndarray) -> float:
    """Exact sum of a 1-D float array: :func:`math.fsum` over a memoryview.

    fsum reads the same doubles in the same order as over ``values.tolist()``,
    so the sum keeps its bits, without a Python float list or numpy scalars.
    """
    return math.fsum(memoryview(values))


# A normal log-density's -z*z/2 passes the double range once |z| exceeds this.
NORMAL_Z_MAX = math.sqrt(2.0) * math.sqrt(sys.float_info.max)


def _normal_log_likelihood(x: float, centre, sd, log_norm, what: str) -> np.ndarray:
    """``-z*z/2 - log_norm`` for ``z = (x - centre) / sd`` at one observed ``x``.

    An entry whose ``z*z/2`` passes the double range is ``-inf``: it lies
    below another entry by more than any ratio can show.  If every entry
    does (``x`` finite), only their differences are finite, which ``z*z``
    cannot hold, so ``x`` is refused by that limit rather than reported as
    having zero evidence.
    """
    with np.errstate(over="ignore"):
        z = (x - centre) / sd
        out = -0.5 * z * z - log_norm
    if math.isfinite(x) and out.max() == -np.inf:
        raise InvariantViolation(
            f"x = {x!r} lies more than {NORMAL_Z_MAX:.3g} standard deviations from every "
            f"{what}: the normal log-likelihood passes the double range")
    return out


def _checked_coords(values, size: int, what: str) -> np.ndarray:
    """Read-only coordinates, one row per support point, all finite.

    A ball around an infinite or nan point holds no point, not even its
    centre, so such coordinates would give wrong risks rather than an error.
    """
    coords = np.asarray(values, dtype=float)
    if coords.shape[:1] != (size,):
        raise InvariantViolation(f"{what} length does not match support")
    if not np.all(np.isfinite(coords)):
        raise InvariantViolation(f"{what} contains non-finite entries")
    return _frozen(coords)


# Tables built in blocks of rows hold at most this many cells per block, so
# their memory stays bounded however large the support or sample space is.
BLOCK_CELLS = 1 << 16


def _rows_per_block(row_cells: int) -> int:
    """Rows of ``row_cells`` cells each in one block (at least one)."""
    return max(1, BLOCK_CELLS // max(1, row_cells))


def _cached(model: "FiniteModel", name: str, build: Callable[[], object]):
    """``build()`` computed once per model and kept on the frozen instance.

    The cache lives in the instance ``__dict__``, not in a field, so
    ``dataclasses.replace`` and equality never see it.  ``setdefault`` keeps
    whichever value was stored first, so every caller gets the same object.
    """
    value = model.__dict__.get(name)
    return model.__dict__.setdefault(name, build()) if value is None else value


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
        A matrix, an ``(n_theta, n_x)`` table of nonnegative sampling weights
        (``n_x`` is then its column count),
        or a callback of log-likelihoods (``-inf`` where impossible), checked
        when read: a density ``f(x) -> (n_theta,)`` at an observed ``x`` or,
        with ``n_x``, a finite log source ``f(k) -> (n_theta, *k.shape)`` at
        an integer index array ``k``.
    psi_map : numpy.ndarray
        Integer index of the marginal parameter value for each theta; must
        be surjective onto ``range(len(psi_labels))``.
    psi_labels : tuple of str
        Labels for the marginal parameter support.
    theta_coords, psi_coords : numpy.ndarray, optional
        Real coordinates for the supports.  ``psi_coords`` is required only
        by geometry-aware operations (ball losses, refinement experiments);
        ``theta_coords`` is kept so a model file's coordinates survive the
        ``load_model``/``save_model`` round trip.
    x_labels : tuple of str, optional
        Names for the ``n_x`` sample points; point ``k`` is otherwise ``str(k)``.
    family_spec : dict, optional
        Serializable description of a named likelihood family, kept so a
        model loaded from a file can be written back field-for-field.
    n_x : int, optional
        Number of sample points, ``None`` for a density; ``dataclasses.replace`` carries it.

    The marginal prior and :func:`sample_space_tables` are computed on first
    use and cached on the instance; both are read-only.  The cache lives as
    long as the model: the tables' three ``(n_psi, n_x)`` arrays can take up
    to three times the memory of the likelihood table.  On a matrix of more
    than one column, per-point answers add tables derived from them a block
    of points at a time, only for the blocks they read: tie masks (one byte
    per cell) and rankings (about 16 bytes per cell), see :mod:`relbelief.estimators`.
    """

    theta_labels: tuple[str, ...]
    prior: np.ndarray
    likelihood: np.ndarray | Callable[..., np.ndarray]
    psi_map: np.ndarray
    psi_labels: tuple[str, ...]
    theta_coords: np.ndarray | None = None
    psi_coords: np.ndarray | None = None
    x_labels: tuple[str, ...] | None = None
    family_spec: dict | None = None
    n_x: int | None = None

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
        if np.count_nonzero(np.bincount(psi_map, minlength=n_psi)) != n_psi:
            raise InvariantViolation("psi_map must be surjective: every psi needs a preimage")
        object.__setattr__(self, "psi_map", _frozen(psi_map))

        if not callable(self.likelihood):
            lik = np.asarray(self.likelihood, dtype=float)
            if lik.ndim != 2 or lik.shape[0] != n_theta:
                raise InvariantViolation("likelihood table must be (n_theta, n_x)")
            object.__setattr__(self, "likelihood", _checked_table(lik))
            object.__setattr__(self, "n_x", lik.shape[1])
        if self.n_x is not None and (type(self.n_x) is not int or self.n_x < 1):
            raise InvariantViolation(f"n_x must be a positive integer, got {self.n_x!r}")
        if self.x_labels is not None:
            object.__setattr__(self, "x_labels", tuple(self.x_labels))
            if len(self.x_labels) != self.n_x:
                raise InvariantViolation("x_labels must name each of the n_x sample points")

        for name, size in (("theta_coords", n_theta), ("psi_coords", n_psi)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _checked_coords(getattr(self, name), size, name))

    # -- basic views ------------------------------------------------------

    @property
    def n_theta(self) -> int:
        return len(self.theta_labels)

    @property
    def n_psi(self) -> int:
        return len(self.psi_labels)

    @property
    def is_table(self) -> bool:
        """True when the likelihood is a matrix rather than log-likelihood columns."""
        return not callable(self.likelihood)

    def x_index(self, x) -> int:
        """Resolve an observed value to a sample-space column index.

        Text is looked up among the labels when the model has them.  Any other
        value must be an integer (not a bool) or, without labels, that
        integer's decimal text, so ``1.9``, ``True``, ``"+1"`` and ``"01"``
        are rejected rather than truncated or parsed.
        """
        if self.x_labels is not None and isinstance(x, str):
            try:
                return self.x_labels.index(x)
            except ValueError:
                raise InvariantViolation(f"unknown sample-space label {x!r}") from None
        # Text longer than n_x's is out of range, and int() never sees a long one.
        if (isinstance(x, str) and x.isascii() and x.isdigit()
                and len(x) <= len(str(self.n_x)) and x == str(int(x))):
            x = int(x)
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < self.n_x:
            raise InvariantViolation(f"{x!r} is not a sample-space index (n_x = {self.n_x})")
        return int(x)

    def marginal_prior(self) -> np.ndarray:
        """Prior weights pushed forward onto the psi support (read-only)."""
        return _cached(
            self,
            "_marginal_prior",
            lambda: _frozen(np.bincount(self.psi_map, weights=self.prior, minlength=self.n_psi)),
        )


def _checked_table(lik: np.ndarray) -> np.ndarray:
    """A likelihood table, read-only, once its entries are finite, ``>= 0`` and
    each column holds a positive one.  NaN fails every comparison."""
    top = lik.max(axis=0)
    if not (lik.min(initial=0.0) >= 0.0 and top.max(initial=0.0) < np.inf):
        raise InvariantViolation("likelihood entries must be finite and >= 0")
    if not top.min(initial=1.0) > 0.0:
        raise InvariantViolation("every sample-space column needs at least one positive likelihood")
    return _frozen(lik)


def _grid_model(labels: tuple[str, ...], prior_mass: np.ndarray, likelihood: np.ndarray,
                coords: np.ndarray) -> FiniteModel:
    """The one-column model of a grid's bins (bin ``i`` is theta and psi ``i``),
    as the public constructor builds it.  The grid builder's checks of the
    bin masses imply the constructor's prior and surjectivity checks."""
    model = object.__new__(FiniteModel)
    model.__dict__.update(
        theta_labels=labels, prior=normalized(prior_mass, what="prior"),
        likelihood=_checked_table(likelihood),
        psi_map=_frozen(np.arange(len(labels), dtype=np.intp)), psi_labels=labels,
        theta_coords=None, psi_coords=_frozen(coords), x_labels=None, family_spec=None, n_x=1,
    )
    return model


@dataclass(frozen=True)
class BeliefTables:
    """Aligned marginal prior, marginal posterior, and relative belief ratio.

    The relative belief ratio ``rb[j] = marg_post[j] / marg_prior[j]`` is the
    factor by which belief in the j-th marginal value changed from prior to
    posterior at the observed ``x``.  Since it is the density of the
    posterior with respect to the prior, its maximum is always at least one.
    """

    marg_prior: np.ndarray
    marg_post: np.ndarray
    rb: np.ndarray
    psi_labels: tuple[str, ...]
    psi_coords: np.ndarray | None = None

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
        _check_identities(prior, rb[:, None])
        object.__setattr__(self, "marg_prior", _frozen(prior))
        object.__setattr__(self, "marg_post", _frozen(post))
        object.__setattr__(self, "rb", _frozen(rb))
        if self.psi_coords is not None:
            object.__setattr__(self, "psi_coords", _checked_coords(self.psi_coords, n, "psi_coords"))

    @property
    def n_psi(self) -> int:
        return len(self.psi_labels)


# -- the posterior kernel ----------------------------------------------------


def belief_tables(model: FiniteModel, x) -> BeliefTables:
    """Belief tables at the observed ``x``: one column of the kernel's record.

    On a matrix model the record is the cached :func:`sample_space_tables`
    and the column is ``model.x_index(x)``.  A callback is asked for its one
    log-likelihood column at ``x`` (at ``x``'s index on a finite sample
    space), which runs through the same kernel uncached into a one-column
    record.  The kernel has checked the paper's two identities on every
    column at once, so none of the public constructor's checks is repeated:
    the column is copied out, and the record is kept as the tables' source
    only when it holds more than one point.  Per-point answers then read the
    column's rows of the tie masks and rankings derived from the source, and
    otherwise rank each criterion per call, as each is read once.

    Raises
    ------
    ZeroEvidence
        If the log-likelihood at ``x`` is ``-inf`` everywhere; a matrix
        column is possible by construction and scaled so it cannot underflow.
    InvariantViolation
        If the callback does not return ``n_theta`` log-likelihoods, or
        returns NaN or ``+inf``; or if a ratio the tables hold is past the
        largest double (on a matrix model, at any point).
    """
    if model.is_table:
        col, tabs = model.x_index(x), sample_space_tables(model)
    else:
        at = x if model.n_x is None else model.x_index(x)
        col, tabs = 0, _build_sample_space_tables(model, at)
    tables = object.__new__(BeliefTables)
    tables.__dict__.update(
        marg_prior=model.marginal_prior(), marg_post=_frozen(tabs.marg_post[:, col]),
        rb=_frozen(tabs.rb[:, col]), psi_labels=model.psi_labels, psi_coords=model.psi_coords,
    )
    if tabs.rb.shape[1] > 1:
        tables.__dict__.update(_source=tabs, _column=col)
    return tables


@dataclass(frozen=True)
class SampleSpaceTables:
    """The kernel's one record: belief tables at every point of a finite sample space.

    Column ``x`` of ``marg_post`` and ``rb`` *is* ``belief_tables(model, x)``;
    ``sampling[j, x]`` is the fiber-averaged sampling probability of ``x``
    when the j-th marginal value is true, and ``theta_sums[i]`` is theta
    ``i``'s likelihood summed over the record's points, one for each theta
    of a row-stochastic model.  When they hold more than one point, tables
    derived from them are kept on the instance, like the model's own cache:
    the tie masks and rankings of ``rb`` and ``marg_post``, each built a
    block of columns at a time on the first read of that block (see
    :mod:`relbelief.estimators`).
    """

    evidence: np.ndarray  # (n_x,)
    marg_prior: np.ndarray  # (n_psi,)
    sampling: np.ndarray  # (n_psi, n_x)
    marg_post: np.ndarray  # (n_psi, n_x)
    rb: np.ndarray  # (n_psi, n_x)
    theta_sums: np.ndarray  # (n_theta,)


def sample_space_tables(model: FiniteModel) -> SampleSpaceTables:
    """Evidence, sampling table, posterior, ratio and theta sums for every ``x`` in one pass.

    The record is built once per model and cached on it, so every sweep,
    every single-point query and every check on the same model shares it; a
    finite log source is read in one call.  Raises
    :class:`InfiniteSampleSpace` for a density callback,
    :class:`ZeroEvidence` if some ``x`` is impossible and
    :class:`InvariantViolation` if some ratio is past the largest double.
    """
    if model.n_x is None:
        raise InfiniteSampleSpace("model has a density callback, not a finite sample space")
    return _cached(model, "_sample_space_tables",
                   lambda: _build_sample_space_tables(model, np.arange(model.n_x)))


def _build_sample_space_tables(model: FiniteModel, at) -> SampleSpaceTables:
    """The kernel: one read-only record of the belief tables of a block of columns.

    A matrix is read whole, a callback at ``at``: a density's observed point
    or a finite log source's column indices.  A matrix column below one half
    is lifted by the power of two that brings its maximum into ``[1/2, 1)``;
    a log column is exponentiated less its maximum ``top``.  The scale
    cancels in the posterior and ratio; the evidence and sampling table undo
    it as ``2**e`` times a remainder, ``e`` clipped to a range past which
    they read 0.0 or inf.
    """
    density = model.n_x is None
    if model.is_table:
        e = np.minimum(np.frexp(model.likelihood.max(axis=0))[1], 0)
        scaled, rest = np.ldexp(model.likelihood, -e), 1.0
    else:
        shape = (model.n_theta,) + (() if density else np.shape(at))
        loglik = np.asarray(model.likelihood(at), dtype=float)
        if loglik.shape != shape or np.any(np.isnan(loglik) | (loglik == np.inf)):
            raise InvariantViolation(
                "a callback must return one log-likelihood per theta and point, none NaN or +inf"
            )
        loglik = loglik.reshape(model.n_theta, -1)
        top = np.nan_to_num(loglik.max(axis=0), neginf=0.0)  # an impossible column stays 0
        scaled = np.exp(loglik - top)
        e = np.clip(np.ceil(top / np.log(2.0)), -4096, 4096).astype(np.intp)
        rest = np.exp(np.minimum(top - e * np.log(2.0), 0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN sum fails every check
        theta_sums = _frozen(model.likelihood.sum(axis=1) if model.is_table
                             else scaled @ np.ldexp(rest, e))
    n_psi, k = model.n_psi, scaled.shape[1]
    # One bincount over (psi, x) cells adds each fiber in theta order.
    cells = (model.psi_map[:, None] * k + np.arange(k)).ravel()

    def fiber_sums(per_theta: np.ndarray) -> np.ndarray:
        return np.bincount(cells, weights=per_theta.ravel(), minlength=n_psi * k).reshape(n_psi, k)

    marg_prior = model.marginal_prior()
    # M[j, x]: the likelihood averaged under each theta's prior within its fiber.
    sampling = fiber_sums(scaled * (model.prior / marg_prior[model.psi_map])[:, None])
    joint = scaled  # in place: the scaled block is a fresh array
    joint *= model.prior[:, None]
    # Summing contiguous rows makes numpy add each column pairwise, as a 1-D
    # sum over theta does; a sum over axis 0 would round differently.
    evidence = np.ascontiguousarray(joint.T).sum(axis=1)
    if np.any(evidence <= 0.0):
        bad = at if density else int(np.ravel(at)[np.argmin(evidence)])
        raise ZeroEvidence(f"sample point {bad!r} has zero evidence")
    marg_post = _frozen(fiber_sums(joint / evidence))
    with np.errstate(over="ignore"):  # a ratio past the largest double is refused below
        rb = marg_post / marg_prior[:, None]
    # A posterior below the normal range, zero included, has lost digits that
    # its ratio keeps as M / m(x), which is then below tiny / min(prior) < 2**53.
    np.divide(sampling, evidence, out=rb, where=marg_post < np.finfo(float).tiny)
    if np.isinf(rb).any():
        j, col = np.unravel_index(np.argmax(np.isinf(rb)), rb.shape)
        bad = at if density else int(np.ravel(at)[col])
        raise InvariantViolation(
            f"the relative belief ratio of psi {model.psi_labels[j]!r} at sample point {bad!r}"
            f" is past the largest double ({np.finfo(float).max:.6g})")
    _check_identities(marg_prior, rb)
    with np.errstate(over="ignore"):
        undone = [_frozen(np.ldexp(v * rest, e)) for v in (evidence, sampling)]
    return SampleSpaceTables(undone[0], marg_prior, undone[1], marg_post, _frozen(rb), theta_sums)


def _check_identities(marg_prior: np.ndarray, rb: np.ndarray) -> None:
    """The paper's two identities on every column of an ``(n_psi, k)`` ratio.

    Each column's largest ratio is at least one, and its prior-weighted
    average is one.
    """
    if np.any(rb.max(axis=0) < 1.0 - SUM_TOL):
        raise InvariantViolation("max relative belief ratio must be >= 1 at every x")
    if np.max(np.abs(marg_prior @ rb - 1.0)) > SUM_TOL:
        raise InvariantViolation("prior-weighted rb must average to one at every x")
