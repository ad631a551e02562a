"""Negative controls: each check must reject a deliberately wrong output.

``python perfbench/selftest.py`` exits 0 when every check accepts the right
answer and rejects the wrong one: a rule off by one psi, a region shifted one
bin, a risk 6 standard errors off and a bin mass off by one part in a
million.  ``run.py`` runs the same controls before every measurement.
"""

from __future__ import annotations

import sys

import numpy as np

import checks


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def failures() -> list[str]:
    """Names of the controls that did not behave; empty when all did."""
    bad = []
    rng = np.random.default_rng(7)

    # A rule off by one psi.
    n_theta, n_psi, n_x = 12, 5, 6
    psi_map = np.concatenate([np.arange(n_psi), rng.integers(0, n_psi, n_theta - n_psi)])
    prior = rng.dirichlet(np.ones(n_theta))
    lik = rng.dirichlet(np.ones(n_x), size=n_theta)
    marg_prior, joint, evidence, post, rb = checks.sample_space_tables(prior, lik, psi_map, n_psi)
    rule = rb.argmax(axis=0)
    if _rejects(checks.check_rule, rule, rb, "control"):
        bad.append("the ratio argmax rule was rejected")
    if not _rejects(checks.check_rule, (rule + 1) % n_psi, rb, "control"):
        bad.append("a rule off by one psi was accepted")

    # A prior risk off by 1e-9.
    risk = checks.dense_prior_risk(joint, psi_map, marg_prior, rule, "prior-based")
    if not _rejects(checks.check_close, risk + 1e-9, risk, 1e-10, "control"):
        bad.append("a prior risk off by 1e-9 was accepted")

    # A grid region shifted one bin, on the normal-normal testbed.
    x, gamma, lam = 0.37, 0.8, 0.05
    edges = -8.0 + lam * np.arange(int(round(16 / lam)) + 1)
    bin_prior, bin_post = checks.normal_bin_masses(edges, x, 1.0, 1.0)
    order = np.argsort(-bin_post / bin_prior)
    members = order[: int(np.searchsorted(np.cumsum(bin_post[order]), gamma)) + 1]
    for shift in (0, 1):
        rejected = _rejects(checks.check_grid_region, members + shift, edges, x, 1.0, 1.0,
                            gamma, "control")
        if rejected != bool(shift):
            bad.append("a region shifted one bin was accepted" if shift else
                       "the ratio region was rejected")
    if _rejects(checks.check_bin_masses, edges, bin_prior, bin_post, x, 1.0, 1.0, "control"):
        bad.append("exact bin masses were rejected")
    if not _rejects(checks.check_bin_masses, edges, bin_prior * (1 + 1e-6), bin_post,
                    x, 1.0, 1.0, "control"):
        bad.append("bin masses off by one part in a million were accepted")

    # A risk 6 standard errors off.
    reps, exact = 65536, 0.3
    se = checks.risk_cell_se(exact, reps)
    for z, wrong in ((4.0, False), (6.0, True)):
        if _rejects(checks.check_risk_cell, exact + z * se, exact, reps, "control") != wrong:
            bad.append(f"a risk {z:g} standard errors off was {'accepted' if wrong else 'rejected'}")
    return bad


if __name__ == "__main__":
    problems = failures()
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: ok" if not problems else "selftest: FAILED")
    sys.exit(1 if problems else 0)
