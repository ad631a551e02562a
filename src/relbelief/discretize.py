"""Regular discretization of one-dimensional continuous-parameter models.

A continuous model (positive prior density and a log-likelihood, both on a
truncated interval) is binned into an equal-width grid.  Each bin gets its
exact prior mass by adaptive quadrature and an integrated likelihood, so the
resulting finite model reproduces the exact bin posterior masses.  The
refinement experiments then track how the grid estimators and regions
approach their continuous counterparts as the bin width shrinks.  One run
integrates the union of its widths' bin edges once and sums each width's
bins from those pieces; a single grid is the one-width case.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from .errors import HypothesisViolated, InvariantViolation, ZeroBinMass
from .estimators import bayes_rule, lrse
from .losses import LossSpec
from .model import BeliefTables, FiniteModel, _frozen, _fsum, _grid_model, belief_tables
from .quadrature import integrate_bins
from .regions import CredibleRegion, lpl_region, rs_region, _check_schedule

TRUNCATION_TOL = 1e-6
_LOG_MAX = math.log(sys.float_info.max)
# Most bins a grid, or the union of one refinement run's grids, may have.
MAX_BINS = 1_000_000


@dataclass(frozen=True)
class ContinuousModel1D:
    """Continuous scalar-parameter model truncated to a working interval.

    ``prior_density`` must be positive and continuous on the interval, and
    the interval must carry all but ``TRUNCATION_TOL`` of the prior mass
    (:func:`build_grid` checks this on every grid).  ``likelihood(theta, x)``
    is the log of the sampling density at the observed ``x``, as for a
    :class:`FiniteModel` density callback; both callables must accept numpy
    arrays of ``theta`` values.
    """

    prior_density: Callable[[np.ndarray], np.ndarray]
    likelihood: Callable[[np.ndarray, object], np.ndarray]
    support: tuple[float, float]

    def __post_init__(self):
        a, b = self.support
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise InvariantViolation("support must be a finite interval [a, b] with a < b")
        object.__setattr__(self, "support", (float(a), float(b)))


@dataclass(frozen=True)
class RegularGrid:
    """Equal-width binning of a continuous model at one resolution.

    ``bin_prior`` holds the raw quadrature prior masses (their total is the
    interval's prior mass, slightly below one after truncation).
    Representatives are bin midpoints.  :func:`build_grid` freezes all three arrays.
    """

    lam: float
    edges: np.ndarray
    representatives: np.ndarray
    bin_prior: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.representatives.size

    def bin_index_of(self, points) -> np.ndarray:
        """Bin index containing each point (interval interior assumed)."""
        pts = np.asarray(points, dtype=float)
        idx = np.floor((pts - self.edges[0]) / self.lam).astype(np.intp)
        return np.clip(idx, 0, self.n_bins - 1)


@functools.lru_cache(maxsize=16)
def _bin_labels(n_bins: int) -> tuple[str, ...]:
    return tuple(f"bin{i}" for i in range(n_bins))


def build_grid(
    cmodel: ContinuousModel1D, x, lam: float
) -> tuple[FiniteModel, RegularGrid]:
    """Discretize a continuous model onto an equal-width grid.

    Bin prior masses and integrated likelihoods are computed by adaptive
    Gauss-Kronrod quadrature (a G7-K15 pair per interval, relative error
    1e-10 per bin, all bins together in array passes).  One quadrature
    pass serves both: its stacked integrand evaluates the prior density
    once per node and returns the prior and the prior times the likelihood
    as two columns, each with its own acceptance test.  The likelihood is
    exponentiated after one shift, the largest log-likelihood at the 15
    nodes per bin of the first pass (the only pass when no bin is
    bisected), so it is one at the first pass's best node and the joint
    column underflows only where the posterior is negligible.  The
    returned finite model reproduces the exact bin posterior masses: its
    likelihood column is the bin-averaged shifted likelihood under the
    prior conditioned on the bin.  Bin ``i`` is labelled ``bin{i}`` as both
    theta and psi; its representative, the bin midpoint, is in
    ``psi_coords``.  The model has one sample-space column, index 0, for the
    observed ``x``.

    Raises
    ------
    ZeroBinMass
        If some bin carries no prior mass (the discretization would not be
        regular).
    InvariantViolation
        If the grid would have more than ``MAX_BINS`` bins (refused before
        anything is allocated), the interval's prior mass is more than
        ``TRUNCATION_TOL`` from one, or the log-likelihood is NaN at some
        node of the first pass (``x`` is not a number, say) or ``-inf`` at
        every node of it (the observed data are impossible on the support),
        or a later pass's log-likelihood exceeds the first pass's largest by
        more than the float range (a spike the first nodes missed).
    """
    return _build_grids(cmodel, x, [lam])[0]


def _build_grids(cmodel: ContinuousModel1D, x, lams) -> list[tuple[FiniteModel, RegularGrid]]:
    """:func:`build_grid` at several widths, from one quadrature of their union.

    Edge ``j`` of an ``n``-bin grid is the fraction ``j / n`` of the
    interval.  The widths' fractions are merged coarsest first, sorted with
    repeats dropped (refused once past ``MAX_BINS``), and found again with
    ``np.searchsorted``; each union edge takes its value from the finest
    grid that holds it, so one width integrates exactly its own edges.
    Each bin's masses are the sums of the union's pieces it covers, and
    each width keeps its own checks.
    """
    a, b = cmodel.support
    counts = []
    for lam in map(float, lams):  # a Python float overflows to inf without a warning
        if not 0 < lam <= (b - a) / 4:
            raise InvariantViolation("bin width must be positive and at most a quarter span")
        count = (b - a) / lam
        if count >= MAX_BINS + 0.5:
            raise InvariantViolation(f"bin width {lam!r} on [{a!r}, {b!r}] needs {count:.6g} "
                                     f"bins, more than {MAX_BINS}")
        counts.append(int(round(count)))
    # A quotient of two integers below 2**53 is correctly rounded, so equal
    # fractions give one double and distinct fractions (at least
    # 1 / MAX_BINS**2 apart) give distinct doubles: the merge is exact.
    # Not np.union1d: numpy 2.4 imports numpy.ma for it, 20 ms of a cold process.
    sizes = sorted(set(counts))
    union = np.empty(0)
    for n in sizes:
        union = np.sort(np.concatenate([union, np.arange(n + 1) / n]))
        union = union[np.append(True, union[1:] != union[:-1])]  # each fraction once
        if union.size - 1 > MAX_BINS:
            raise InvariantViolation(f"bin widths {list(map(float, lams))} on [{a!r}, {b!r}] "
                                     f"need {union.size - 1} bins together, more than {MAX_BINS}")
    position = {n: np.searchsorted(union, np.arange(n + 1) / n) for n in sizes}
    for n in sizes:  # coarsest first, so each edge keeps the finest grid's value
        union[position[n]] = a + ((b - a) / n) * np.arange(n + 1)

    shift = None  # the first pass's largest log-likelihood

    def prior_and_joint(t):
        nonlocal shift
        p = cmodel.prior_density(t)
        log_lik = np.asarray(cmodel.likelihood(t, x), dtype=float)
        if shift is None:
            shift = np.max(log_lik)
            if np.isnan(shift):
                raise InvariantViolation(f"observation {x!r} gives a NaN log-likelihood")
            if shift == -np.inf:
                raise InvariantViolation("observed data has zero evidence on the support")
        elif np.max(log_lik) - shift > _LOG_MAX:  # exp would overflow
            raise InvariantViolation(
                f"the log-likelihood of x = {x!r} at theta = {float(t[np.argmax(log_lik)])!r} "
                f"exceeds the first pass's largest by {float(np.max(log_lik) - shift):.6g}, past "
                "the float range: a spike the grid's first nodes missed")
        return np.stack([p, p * np.exp(log_lik - shift)])

    pieces = integrate_bins(prior_and_joint, union)
    grids = []
    for n_bins in counts:
        owner = np.repeat(np.arange(n_bins), np.diff(position[n_bins]))
        prior_mass, joint_mass = (np.bincount(owner, col, n_bins) for col in pieces)
        eff_lam = (b - a) / n_bins
        edges = a + eff_lam * np.arange(n_bins + 1)
        reps = 0.5 * (edges[:-1] + edges[1:])
        if np.any(prior_mass <= 0.0):
            bad = int(np.argmin(prior_mass))
            raise ZeroBinMass(f"bin {bad} around {reps[bad]!r} has no prior mass")
        total_prior = float(prior_mass.sum())
        if not (1.0 - TRUNCATION_TOL <= total_prior <= 1.0 + 1e-9):
            raise InvariantViolation(
                f"grid prior mass {total_prior!r} outside the truncation budget"
            )
        grid = RegularGrid(lam=float(eff_lam), edges=_frozen(edges), representatives=_frozen(reps),
                           bin_prior=_frozen(prior_mass))
        likelihood = (joint_mass / prior_mass)[:, None]
        grids.append((_grid_model(_bin_labels(n_bins), prior_mass, likelihood, reps), grid))
    return grids


def grid_tables(cmodel: ContinuousModel1D, x, lam: float) -> tuple[BeliefTables, RegularGrid]:
    """Belief tables of the discretized problem at one resolution."""
    return _tables(cmodel, x, [lam])[0]


def eta_schedule(grid: RegularGrid, lrse_bin: int) -> float:
    """Cap parameter tied to the grid: half the prior mass of the LRSE bin.

    Guarantees the cap sits strictly below the prior weight of the winning
    bin, so it vanishes together with the bin width under refinement.
    """
    if not 0 <= lrse_bin < grid.n_bins:
        raise InvariantViolation("lrse_bin out of range")
    return float(grid.bin_prior[lrse_bin]) / 2.0


# -- hypothesis diagnostics --------------------------------------------------


def check_peak_separation(tables: BeliefTables):
    """Verify the belief ratio has a single well-separated interior peak on a grid.

    The bins within 1e-9 (relative) of the maximal ratio must form one
    contiguous run of at most three bins, away from both edge bins;
    otherwise the ratio either has tied separated maxima, comes arbitrarily
    close to its maximum away from it, or may peak outside the interval,
    and refinement results would be meaningless.
    """
    rb = tables.rb
    top = float(rb.max())
    near = np.flatnonzero(rb >= top * (1.0 - 1e-9))
    coords = tables.psi_coords
    where = (coords[near] if coords is not None else near).tolist()
    if near.size > 3 or (near.size > 1 and np.any(np.diff(near) != 1)):
        raise HypothesisViolated(
            f"belief ratio must have a unique separated maximum; near-maximal bins: {where}"
        )
    if near[0] == 0 or near[-1] == rb.size - 1:
        raise HypothesisViolated(
            "belief ratio peaks in an edge bin; its maximum may lie outside the "
            f"interval; near-maximal bins: {where}"
        )


# -- refinement experiments --------------------------------------------------


def _tables(cmodel: ContinuousModel1D, x, lams) -> list[tuple[BeliefTables, RegularGrid]]:
    """Belief tables and grid of one problem per bin width, from one quadrature."""
    return [(belief_tables(model, 0), grid) for model, grid in _build_grids(cmodel, x, lams)]


@dataclass(frozen=True)
class RuleConvergenceRow:
    lam: float
    eta: float | None
    estimate: float
    error: float
    within_lambda: bool


def _rule_rows(
    widths: list[tuple[BeliefTables, RegularGrid]], target: float
) -> tuple[list[RuleConvergenceRow], list[RuleConvergenceRow]]:
    """Capped-Bayes rows and grid-LRSE rows, in one pass over the widths (coarsest first)."""
    check_peak_separation(widths[-1][0])

    def row(grid: RegularGrid, chosen: int, eta: float | None) -> RuleConvergenceRow:
        estimate = float(grid.representatives[chosen])
        error = abs(estimate - target)
        return RuleConvergenceRow(
            lam=grid.lam,
            eta=eta,
            estimate=estimate,
            error=error,
            within_lambda=error <= grid.lam + 1e-12,
        )

    capped_rows, lrse_rows = [], []
    for tables, grid in widths:
        lrse_bin = lrse(tables).psi_index
        eta = eta_schedule(grid, lrse_bin)
        capped_rows.append(row(grid, bayes_rule(LossSpec.capped(eta), tables).psi_index, eta))
        lrse_rows.append(row(grid, lrse_bin, None))
    return capped_rows, lrse_rows


def capped_rule_refinement(
    cmodel: ContinuousModel1D, x, lambdas, target: float
) -> list[RuleConvergenceRow]:
    """Bayes rules under the grid-capped loss along a refining grid schedule.

    For each bin width the cap is half the prior mass of the winning bin,
    and the row records how far the chosen representative sits from the
    continuous-problem target.  Under the separation hypothesis the error
    eventually drops below the bin width.
    """
    return _rule_rows(_tables(cmodel, x, _check_schedule(lambdas, "lambda")), target)[0]


def grid_lrse_refinement(
    cmodel: ContinuousModel1D, x, lambdas, target: float
) -> list[RuleConvergenceRow]:
    """Discretized-problem LRSE along a refining grid schedule."""
    return _rule_rows(_tables(cmodel, x, _check_schedule(lambdas, "lambda")), target)[1]


@dataclass(frozen=True)
class RegionConvergenceRow:
    lam: float
    rs_distance: float
    capped_distances: tuple[tuple[float, float], ...]  # (eta, distance) pairs


def _mask(size: int, members) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[list(members)] = True
    return mask


def _region_rows(
    widths: list[tuple[BeliefTables, RegularGrid]],
    reference: tuple[BeliefTables, RegularGrid],
    gamma: float,
    etas,
) -> list[RegionConvergenceRow]:
    ref_tables, ref_grid = reference
    ref_mask = _mask(ref_grid.n_bins, rs_region(ref_tables, gamma).members)

    def distance(owner: np.ndarray, n_bins: int, region: CredibleRegion) -> float:
        # Reference posterior mass of the symmetric difference between the
        # reference region and the reference bins the region's members cover.
        covered = _mask(n_bins, region.members)[owner]
        return _fsum(ref_tables.marg_post[ref_mask ^ covered])

    rows = []
    for tables, grid in widths:
        owner = grid.bin_index_of(ref_grid.representatives)
        d_rs = distance(owner, grid.n_bins, rs_region(tables, gamma))
        capped = tuple(
            (float(eta),
             distance(owner, grid.n_bins, lpl_region(LossSpec.capped(float(eta)), tables, gamma)))
            for eta in etas
        )
        rows.append(
            RegionConvergenceRow(lam=grid.lam, rs_distance=d_rs, capped_distances=capped)
        )
    return rows


def _schedules(cmodel: ContinuousModel1D, x, lambdas, etas):
    """Checked schedules, then tables of each width and of the reference, from one quadrature."""
    lams = _check_schedule(lambdas, "lambda")
    etas = _check_schedule(etas, "eta")
    *widths, reference = _tables(cmodel, x, [*lams, float(lams[-1]) / 4.0])
    return widths, reference, etas


def region_refinement(
    cmodel: ContinuousModel1D, x, gamma: float, lambdas, etas
) -> list[RegionConvergenceRow]:
    """Distance of grid regions to a fine-grid reference under refinement.

    For each bin width, the belief-ratio region and the capped-loss regions
    (one per eta) are undiscretized into unions of bins and compared with
    the belief-ratio region of a reference grid four times finer than the
    smallest tested width.  The distance is the reference posterior mass of
    the symmetric difference.
    """
    widths, reference, etas = _schedules(cmodel, x, lambdas, etas)
    return _region_rows(widths, reference, gamma, etas)


def refinement_experiments(
    cmodel: ContinuousModel1D, x, gamma: float, lambdas, etas, target: float
) -> tuple[list[RuleConvergenceRow], list[RuleConvergenceRow], list[RegionConvergenceRow]]:
    """The capped-rule, grid-LRSE and region experiments on shared grids.

    Returns what ``capped_rule_refinement``, ``grid_lrse_refinement`` and
    ``region_refinement`` return, in that order, with every bin width, the
    reference included, discretized by one quadrature.
    """
    widths, reference, etas = _schedules(cmodel, x, lambdas, etas)
    capped_rows, lrse_rows = _rule_rows(widths, target)
    return capped_rows, lrse_rows, _region_rows(widths, reference, gamma, etas)
