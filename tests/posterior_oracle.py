"""The scalar per-point posterior, kept as the oracle for the library's kernel.

``compute_posterior`` then ``marginalize`` is the one-point computation that
``relbelief.model`` replaced with a column of its sample-space tables.  It
multiplies raw likelihoods, so a callback's log-likelihood is exponentiated
here without the kernel's power-of-two scaling: far out in the tails it
underflows and raises ``ZeroEvidence``, which the library no longer does.

``normal_posterior`` is the conjugate normal posterior of the grid testbed,
in closed form.
"""

import numpy as np

from relbelief import BeliefTables, FiniteModel, InvariantViolation, ZeroEvidence
from relbelief.model import SUM_TOL


def compute_posterior(model: FiniteModel, x) -> tuple[np.ndarray, float]:
    """Posterior over the full parameter support at ``x``, and the evidence."""
    if model.is_table:
        lik = model.likelihood[:, model.x_index(x)]
    else:
        at = x if model.n_x is None else model.x_index(x)
        lik = np.exp(np.asarray(model.likelihood(at), dtype=float))
    joint = model.prior * lik
    evidence = float(joint.sum())
    if evidence <= 0.0:
        raise ZeroEvidence(f"observed data {x!r} has zero evidence")
    return joint / evidence, evidence


def marginalize(posterior, model: FiniteModel) -> BeliefTables:
    """Push a full posterior onto the psi support and form the belief tables.

    The ratio is the elementwise quotient of the two normalized marginals,
    and the tables go through the fully validating public constructor.
    """
    post = np.asarray(posterior, dtype=float)
    if post.shape != (model.n_theta,):
        raise InvariantViolation("posterior length does not match theta support")
    if abs(post.sum() - 1.0) > SUM_TOL or (post < 0).any():
        raise InvariantViolation("posterior must be a normalized probability vector")
    marg_prior = model.marginal_prior()
    marg_post = np.bincount(model.psi_map, weights=post, minlength=model.n_psi)
    return BeliefTables(
        marg_prior=marg_prior,
        marg_post=marg_post,
        rb=marg_post / marg_prior,
        psi_labels=model.psi_labels,
        psi_coords=model.psi_coords,
    )


def normal_posterior(testbed, x: float) -> tuple[float, float]:
    """Mean and variance of theta given x for an untruncated ``NormalNormalTestbed``.

    The mean is also the posterior mode, the MAP estimate of theta.
    """
    t2, s2 = testbed.tau**2, testbed.sigma**2
    return t2 * x / (t2 + s2), t2 * s2 / (t2 + s2)
