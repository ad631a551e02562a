"""Credible regions ranked by posterior density, belief ratio, or risk.

Three families share one construction: rank the marginal support by a
criterion, accumulate posterior mass down the ranking until the requested
credibility is reached, and include every value tied with the boundary.
Including boundary ties can push the attained mass above the request, so the
sweep restricts itself to "attainable" credibility levels, where the
attained mass equals the request exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, UnknownPsi
from .estimators import _spread_tol
from .losses import CAPPED, LossSpec, _posterior_gain
from .model import BeliefTables, _fsum

GAMMA_TOL = 1e-12


@dataclass(frozen=True)
class CredibleRegion:
    """A credibility region over the marginal support.

    ``members`` is the index set, ``threshold`` the criterion cutoff that was
    actually attained, and ``attained_mass`` the posterior mass of the
    members, which is at least the requested ``gamma``.
    """

    gamma: float
    members: tuple[int, ...]
    threshold: float
    attained_mass: float

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        if not -GAMMA_TOL <= self.gamma <= 1.0 + GAMMA_TOL:
            raise InvariantViolation("gamma must lie in [0, 1]")
        if self.attained_mass < self.gamma - 1e-12:
            raise InvariantViolation("attained mass fell below the requested credibility")


def _ranked_region(
    values: np.ndarray, masses: np.ndarray, gamma: float
) -> tuple[list[int], float, float]:
    """Members, threshold and attained mass of the super-level region of
    ``values`` holding posterior mass >= gamma; :class:`CredibleRegion` checks gamma."""
    order = (-values).argsort(kind="stable")
    if gamma >= 1.0 - GAMMA_TOL:
        # Full credibility is the whole support; the cumulative-mass search
        # below could drop members whose posterior mass rounds away.
        hit = values.size - 1
    else:
        # First ranking position at which the accumulated mass reaches gamma.
        cum = masses[order].cumsum()
        hit = min(int(cum.searchsorted(gamma - GAMMA_TOL, side="left")), values.size - 1)
    threshold = float(values[order[hit]])
    keep = values >= threshold - _spread_tol(values, values[order[0]])  # ranked first: the max
    # fsum rounds the exact sum of the members' masses, whatever their order.
    return keep.nonzero()[0].tolist(), threshold, _fsum(masses[keep])


def hpd_region(tables: BeliefTables, gamma: float) -> CredibleRegion:
    """Highest-posterior-density region: super-level set of the posterior.

    As gamma drops to zero the region shrinks to the posterior mode set.
    """
    return CredibleRegion(float(gamma), *_ranked_region(tables.marg_post, tables.marg_post, gamma))


def rs_region(tables: BeliefTables, gamma: float) -> CredibleRegion:
    """Relative-surprise region: super-level set of the belief ratio."""
    return CredibleRegion(float(gamma), *_ranked_region(tables.rb, tables.marg_post, gamma))


def lpl_region(loss: LossSpec, tables: BeliefTables, gamma: float) -> CredibleRegion:
    """Lowest-posterior-loss region: sub-level set of posterior risk.

    The region ranks the posterior gain (:func:`relbelief.losses._posterior_gain`),
    so under the prior-based loss it is the relative-surprise region.  The
    stored threshold is the risk cutoff (smaller is better inside the
    region).
    """
    gain, total = _posterior_gain(loss, tables)
    members, threshold, attained = _ranked_region(gain, tables.marg_post, gamma)
    return CredibleRegion(float(gamma), members, float(total - threshold), attained)


def tail_probability(tables: BeliefTables, psi0: int) -> float:
    """Posterior mass of values no less surprising than ``psi0``.

    Computes the posterior probability that the relative belief ratio is at
    most the ratio at ``psi0``, ties included.  The LRSE attains 1.
    """
    if not 0 <= psi0 < tables.n_psi:
        raise UnknownPsi(f"psi index {psi0} out of range")
    cutoff = float(tables.rb[psi0])
    keep = tables.rb <= cutoff + _spread_tol(tables.rb, tables.rb.max())
    return _fsum(tables.marg_post[keep])


def attainable_gammas(tables: BeliefTables, family: str = "rs") -> np.ndarray:
    """Credibility levels attained exactly by a region family.

    These are the cumulative posterior masses at the boundaries of the
    ranking's tie classes; at any of them the constructed region holds
    exactly that much posterior mass.
    """
    if family == "rs":
        values = tables.rb
    elif family == "hpd":
        values = tables.marg_post
    else:
        raise InvariantViolation(f"unknown region family {family!r}")
    order = np.argsort(-values, kind="stable")
    cum = np.cumsum(tables.marg_post[order])
    ranked = values[order]
    # The last position of each tie class: the next value ranks strictly lower.
    return cum[np.append(ranked[1:] < ranked[:-1] - _spread_tol(values, values.max()), True)]


# -- sweep of the capped loss toward the belief-ratio region ----------------


@dataclass(frozen=True)
class EtaSweepRow:
    eta: float
    region: CredibleRegion
    contains_rs: bool
    within_next: bool
    equals_rs: bool


@dataclass(frozen=True)
class EtaSweepReport:
    """Inclusion report for capped-loss regions along a shrinking eta grid.

    ``next_gamma`` is the next exactly-attainable credibility above the
    requested gamma (one when none exists).  The final row, at the smallest
    eta, is the finite proxy for the limit: once eta falls below the
    smallest marginal prior weight the cap is inactive and the capped region
    equals the belief-ratio region outright.
    """

    next_gamma: float
    rows: tuple[EtaSweepRow, ...]

    @property
    def final_equals_rs(self) -> bool:
        return self.rows[-1].equals_rs


def _check_schedule(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvariantViolation(f"{name} schedule must be a nonempty sequence")
    if np.any(arr <= 0):
        raise InvariantViolation(f"{name} schedule must be strictly positive")
    if arr.size > 1 and np.any(np.diff(arr) >= 0):
        raise InvariantViolation(f"{name} schedule must be strictly decreasing")
    return arr


def eta_sweep(tables: BeliefTables, gamma: float, etas) -> EtaSweepReport:
    """Capped-loss regions for a decreasing eta schedule, with inclusions.

    For each eta the region is the lowest-posterior-loss region under the
    capped prior-based loss.  Each row reports whether it contains the
    belief-ratio region at ``gamma`` and whether it stays inside the
    belief-ratio region at the next exactly-attainable credibility.
    """
    etas = _check_schedule(etas, "eta")
    rs_set = set(rs_region(tables, gamma).members)
    levels = attainable_gammas(tables, "rs")
    above = levels[levels > gamma + GAMMA_TOL]
    next_gamma = float(above[0]) if above.size else 1.0
    next_set = set(rs_region(tables, next_gamma).members)

    rows = []
    for eta in etas:
        region = lpl_region(LossSpec(CAPPED, eta=float(eta)), tables, gamma)
        got = set(region.members)
        rows.append(
            EtaSweepRow(
                eta=float(eta),
                region=region,
                contains_rs=rs_set <= got,
                within_next=got <= next_set,
                equals_rs=got == rs_set,
            )
        )
    return EtaSweepReport(next_gamma=next_gamma, rows=tuple(rows))
