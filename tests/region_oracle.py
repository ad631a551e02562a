"""Brute-force prior-size optimality of belief-ratio regions, an oracle for tests.

Every subset of the support is enumerated, so the check is exact but only
usable on small supports.  No command or library path reads it, so it lives
with the tests that use it.
"""

import numpy as np

from relbelief import BeliefTables, InvariantViolation, RelBeliefError, rs_region

class TooLargeForBruteForce(RelBeliefError):
    """Support too large for exhaustive subset enumeration."""


def minimal_prior_size_check(tables: BeliefTables, gamma: float) -> bool:
    """Exhaustively verify the prior-size optimality of the belief-ratio region.

    At a credibility attained exactly, the belief-ratio region must have the
    smallest prior mass among all subsets holding at least ``gamma`` of the
    posterior, and the largest posterior-to-prior mass ratio among subsets
    of the same prior mass.  Checked against every subset of the support.

    Raises
    ------
    TooLargeForBruteForce
        If the support has more than 20 points.
    InvariantViolation
        If ``gamma`` is not attained exactly (pick one from
        :func:`relbelief.attainable_gammas`).
    """
    n = tables.n_psi
    if n > 20:
        raise TooLargeForBruteForce(f"support of {n} exceeds limit 20")
    region = rs_region(tables, gamma)
    if abs(region.attained_mass - gamma) > 1e-9:
        raise InvariantViolation(
            "prior-size optimality is only defined at exactly attained credibilities"
        )

    masks = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    masks = masks.astype(float)
    post_mass = masks @ tables.marg_post
    prior_mass = masks @ tables.marg_prior

    member_vec = np.zeros(n)
    member_vec[list(region.members)] = 1.0
    region_prior = float(member_vec @ tables.marg_prior)
    region_post = float(member_vec @ tables.marg_post)

    eligible = post_mass >= gamma - 1e-9
    best_prior = float(prior_mass[eligible].min())
    if region_prior > best_prior + 1e-9:
        return False

    same_prior = np.abs(prior_mass - region_prior) <= 1e-9
    nonzero = prior_mass[same_prior] > 0
    ratios = post_mass[same_prior][nonzero] / prior_mass[same_prior][nonzero]
    if ratios.size and region_post / region_prior < float(ratios.max()) - 1e-9:
        return False
    return True
