"""Regular discretization of one-dimensional continuous-parameter models.

A continuous model (positive prior density and a likelihood density, both on
a truncated interval) is binned into an equal-width grid.  Each bin gets its
exact prior mass by adaptive quadrature and an integrated likelihood, so the
resulting finite model reproduces the exact bin posterior masses.  The
refinement experiments then track how the grid estimators and regions
approach their continuous counterparts as the bin width shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from .errors import HypothesisViolated, InvariantViolation, ZeroBinMass
from .estimators import bayes_rule, lrse
from .losses import LossSpec
from .model import BeliefTables, FiniteModel, belief_tables
from .quadrature import adaptive_gauss_legendre
from .regions import CredibleRegion, lpl_region, rs_region, _check_schedule

TRUNCATION_TOL = 1e-6


@dataclass(frozen=True)
class ContinuousModel1D:
    """Continuous scalar-parameter model truncated to a working interval.

    ``prior_density`` must be positive and continuous on the interval, and
    the interval must carry all but a negligible sliver (<= 1e-9 by
    construction choice) of the prior mass.  ``likelihood(theta, x)`` is the
    sampling density at the observed ``x``; both callables must accept numpy
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

    def validate(self) -> float:
        """Check the prior integrates to one over the interval; returns the mass."""
        a, b = self.support
        total = adaptive_gauss_legendre(self.prior_density, a, b)
        if not (1.0 - TRUNCATION_TOL <= total <= 1.0 + 1e-9):
            raise InvariantViolation(
                f"prior mass over the support is {total!r}; expected within "
                f"{TRUNCATION_TOL} of one"
            )
        return total


@dataclass(frozen=True)
class RegularGrid:
    """Equal-width binning of a continuous model at one resolution.

    ``bin_prior`` holds the raw quadrature prior masses (their total is the
    interval's prior mass, slightly below one after truncation) and
    ``bin_post`` the normalized posterior bin masses at the observed ``x``.
    Representatives are bin midpoints.
    """

    lam: float
    edges: np.ndarray
    representatives: np.ndarray
    bin_prior: np.ndarray
    bin_post: np.ndarray
    x: object
    evidence: float

    @property
    def n_bins(self) -> int:
        return self.representatives.size

    def bin_index_of(self, points) -> np.ndarray:
        """Bin index containing each point (interval interior assumed)."""
        pts = np.asarray(points, dtype=float)
        idx = np.floor((pts - self.edges[0]) / self.lam).astype(np.intp)
        return np.clip(idx, 0, self.n_bins - 1)


def build_grid(
    cmodel: ContinuousModel1D, x, lam: float
) -> tuple[FiniteModel, RegularGrid]:
    """Discretize a continuous model onto an equal-width grid.

    Bin prior masses and integrated likelihoods are computed by adaptive
    Gauss-Legendre quadrature (relative error 1e-10), and the returned
    finite model reproduces the exact bin posterior masses: its likelihood
    column is the bin-averaged likelihood under the prior conditioned on
    the bin.

    Raises
    ------
    ZeroBinMass
        If some bin carries no prior mass (the discretization would not be
        regular).
    """
    a, b = cmodel.support
    if not 0 < lam <= (b - a) / 4:
        raise InvariantViolation("bin width must be positive and at most a quarter span")
    n_bins = int(round((b - a) / lam))
    n_bins = max(n_bins, 4)
    eff_lam = (b - a) / n_bins
    edges = a + eff_lam * np.arange(n_bins + 1)
    reps = 0.5 * (edges[:-1] + edges[1:])

    prior_mass = np.empty(n_bins)
    joint_mass = np.empty(n_bins)
    for i in range(n_bins):
        lo, hi = float(edges[i]), float(edges[i + 1])
        prior_mass[i] = adaptive_gauss_legendre(cmodel.prior_density, lo, hi)
        joint_mass[i] = adaptive_gauss_legendre(
            lambda t: cmodel.prior_density(t) * cmodel.likelihood(t, x), lo, hi
        )
    if np.any(prior_mass <= 0.0):
        bad = int(np.argmin(prior_mass))
        raise ZeroBinMass(f"bin {bad} around {reps[bad]!r} has no prior mass")
    total_prior = float(prior_mass.sum())
    total_joint = float(joint_mass.sum())
    if total_joint <= 0.0:
        raise InvariantViolation("observed data has zero evidence on the support")
    if not (1.0 - TRUNCATION_TOL <= total_prior <= 1.0 + 1e-9):
        raise InvariantViolation(
            f"grid prior mass {total_prior!r} outside the truncation budget"
        )

    grid = RegularGrid(
        lam=float(eff_lam),
        edges=edges,
        representatives=reps,
        bin_prior=prior_mass,
        bin_post=joint_mass / total_joint,
        x=x,
        evidence=total_joint / total_prior,
    )
    labels = tuple(f"bin{i}@{reps[i]:.6g}" for i in range(n_bins))
    model = FiniteModel(
        theta_labels=labels,
        prior=prior_mass,
        likelihood=(joint_mass / prior_mass)[:, None],
        psi_map=np.arange(n_bins),
        psi_labels=labels,
        theta_coords=reps,
        psi_coords=reps,
        x_labels=(str(x),),
    )
    return model, grid


def grid_tables(cmodel: ContinuousModel1D, x, lam: float) -> tuple[BeliefTables, RegularGrid]:
    """Belief tables of the discretized problem at one resolution."""
    model, grid = build_grid(cmodel, x, lam)
    return belief_tables(model, 0), grid


def eta_schedule(grid: RegularGrid, lrse_bin: int) -> float:
    """Cap parameter tied to the grid: half the prior mass of the LRSE bin.

    Guarantees the cap sits strictly below the prior weight of the winning
    bin, so it vanishes together with the bin width under refinement.
    """
    if not 0 <= lrse_bin < grid.n_bins:
        raise InvariantViolation("lrse_bin out of range")
    return float(grid.bin_prior[lrse_bin]) / 2.0


# -- hypothesis diagnostics --------------------------------------------------


def check_peak_separation(tables: BeliefTables, *, rel_tol: float = 1e-9, max_run: int = 3):
    """Verify the belief ratio has a single well-separated peak on a grid.

    The bins within ``rel_tol`` (relative) of the maximal ratio must form
    one contiguous run of at most ``max_run`` bins; otherwise the ratio
    either has tied separated maxima or comes arbitrarily close to its
    maximum away from it, and refinement results would be meaningless.
    """
    rb = tables.rb
    top = float(rb.max())
    near = np.flatnonzero(rb >= top * (1.0 - rel_tol))
    if near.size > max_run or (near.size > 1 and np.any(np.diff(near) != 1)):
        coords = tables.psi_coords
        where = coords[near] if coords is not None else near
        raise HypothesisViolated(
            "belief ratio must have a unique separated maximum; near-maximal "
            f"bins: {list(np.atleast_1d(where))}"
        )


# -- refinement experiments --------------------------------------------------


@dataclass(frozen=True)
class RuleConvergenceRow:
    lam: float
    eta: float | None
    estimate: float
    error: float
    within_lambda: bool


def _convergence_rows(
    cmodel: ContinuousModel1D, x, lambdas, target: float, *, capped: bool
) -> list[RuleConvergenceRow]:
    lams = _check_schedule(lambdas, "lambda")
    finest_tables, _ = grid_tables(cmodel, x, float(lams.min()))
    check_peak_separation(finest_tables)

    rows = []
    for lam in lams:
        tables, grid = grid_tables(cmodel, x, float(lam))
        if capped:
            lrse_bin = lrse(tables).psi_index
            eta = eta_schedule(grid, lrse_bin)
            loss = LossSpec.capped(eta)
            chosen = bayes_rule(loss, tables).psi_index
        else:
            eta = None
            chosen = lrse(tables).psi_index
        estimate = float(grid.representatives[chosen])
        error = abs(estimate - target)
        rows.append(
            RuleConvergenceRow(
                lam=grid.lam,
                eta=eta,
                estimate=estimate,
                error=error,
                within_lambda=error <= grid.lam + 1e-12,
            )
        )
    return rows


def capped_rule_refinement(
    cmodel: ContinuousModel1D, x, lambdas, target: float
) -> list[RuleConvergenceRow]:
    """Bayes rules under the grid-capped loss along a refining grid schedule.

    For each bin width the cap is half the prior mass of the winning bin,
    and the row records how far the chosen representative sits from the
    continuous-problem target.  Under the separation hypothesis the error
    eventually drops below the bin width.
    """
    return _convergence_rows(cmodel, x, lambdas, target, capped=True)


def grid_lrse_refinement(
    cmodel: ContinuousModel1D, x, lambdas, target: float
) -> list[RuleConvergenceRow]:
    """Discretized-problem LRSE along a refining grid schedule."""
    return _convergence_rows(cmodel, x, lambdas, target, capped=False)


@dataclass(frozen=True)
class RegionConvergenceRow:
    lam: float
    rs_distance: float
    capped_distances: tuple[tuple[float, float], ...]  # (eta, distance) pairs


def _project_members(
    region: CredibleRegion, grid: RegularGrid, ref_grid: RegularGrid
) -> set[int]:
    """Reference-grid bins covered by the undiscretized union of members."""
    member_bins = set(int(m) for m in region.members)
    owner = grid.bin_index_of(ref_grid.representatives)
    return {i for i, o in enumerate(owner) if int(o) in member_bins}


def region_refinement(
    cmodel: ContinuousModel1D,
    x,
    gamma: float,
    lambdas,
    etas,
    *,
    ref_lambda: float | None = None,
) -> list[RegionConvergenceRow]:
    """Distance of grid regions to a fine-grid reference under refinement.

    For each bin width, the belief-ratio region and the capped-loss regions
    (one per eta) are undiscretized into unions of bins and compared with
    the belief-ratio region of a reference grid (four times finer than the
    smallest tested width unless overridden).  The distance is the reference
    posterior mass of the symmetric difference.
    """
    lams = _check_schedule(lambdas, "lambda")
    etas = _check_schedule(etas, "eta")
    if ref_lambda is None:
        ref_lambda = float(lams.min()) / 4.0
    ref_tables, ref_grid = grid_tables(cmodel, x, ref_lambda)
    ref_members = set(rs_region(ref_tables, gamma).members)

    def distance(projected: set[int]) -> float:
        sym = sorted(ref_members ^ projected)
        return math.fsum(ref_tables.marg_post[sym]) if sym else 0.0

    rows = []
    for lam in lams:
        tables, grid = grid_tables(cmodel, x, float(lam))
        d_rs = distance(_project_members(rs_region(tables, gamma), grid, ref_grid))
        capped = []
        for eta in etas:
            loss = LossSpec.capped(float(eta))
            reg = lpl_region(loss, tables, gamma)
            capped.append((float(eta), distance(_project_members(reg, grid, ref_grid))))
        rows.append(
            RegionConvergenceRow(
                lam=grid.lam, rs_distance=d_rs, capped_distances=tuple(capped)
            )
        )
    return rows
