"""Independent oracles for the benchmark's output checks.

Every answer here is computed from the model arrays or the closed-form
problem with numpy, the standard library or scipy.stats, never by calling
relbelief.  Each check raises :class:`CheckFailed` on a wrong output.
scipy.stats is imported only inside :func:`exact_conditional_risks`, which
the harness calls in its own process, so the oracles add nothing to the
memory of the process being measured.
"""

from __future__ import annotations

import math

import numpy as np

TIE_RTOL = 1e-9  # relative to the spread, looser than the program's own 1e-12
MASS_TOL = 1e-12


class CheckFailed(AssertionError):
    """An output of the program disagreed with its oracle."""


def argmax_set(values) -> set[int]:
    """Indices within a spread-relative tolerance of the maximum."""
    vals = np.asarray(values, dtype=float)
    top = float(vals.max())
    tol = TIE_RTOL * float(top - vals.min())
    return {int(i) for i in np.flatnonzero(vals >= top - tol)}


def check_in_argmax(chosen: int, values, what: str) -> None:
    if int(chosen) not in argmax_set(values):
        raise CheckFailed(f"{what}: {chosen} is not in the argmax set {sorted(argmax_set(values))}")


def check_close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(float(got) - float(want)) <= tol:
        raise CheckFailed(f"{what}: got {got!r}, oracle {want!r} (tolerance {tol:g})")


# -- finite models --------------------------------------------------------------


def sample_space_tables(prior, lik, psi_map, n_psi):
    """Marginal prior, joint, evidence, posterior and ratio for every x at once.

    Returns ``(marg_prior, joint, evidence, post, rb)`` with ``joint`` shaped
    ``(n_theta, n_x)`` and ``post``/``rb`` shaped ``(n_psi, n_x)``.
    """
    prior = np.asarray(prior, dtype=float)
    prior = prior / prior.sum()
    lik = np.asarray(lik, dtype=float)
    psi_map = np.asarray(psi_map, dtype=np.intp)
    fiber = np.zeros((n_psi, prior.size))
    fiber[psi_map, np.arange(prior.size)] = 1.0
    marg_prior = fiber @ prior
    joint = prior[:, None] * lik
    evidence = joint.sum(axis=0)
    post = (fiber @ joint) / evidence
    rb = post / marg_prior[:, None]
    return marg_prior, joint, evidence, post, rb


def check_rule(rule, criterion, what: str) -> None:
    """Each ``rule[x]`` lies in the argmax set of column ``x`` of the criterion."""
    rule = np.asarray(rule)
    if rule.shape != (criterion.shape[1],):
        raise CheckFailed(f"{what}: rule has shape {rule.shape}, expected ({criterion.shape[1]},)")
    for x, chosen in enumerate(rule):
        check_in_argmax(int(chosen), criterion[:, x], f"{what} at x={x}")


def dense_prior_risk(joint, psi_map, marg_prior, rule, kind: str) -> float:
    """``sum(joint * L[:, rule])`` with the loss matrix built densely."""
    psi_map = np.asarray(psi_map, dtype=np.intp)
    rule = np.asarray(rule, dtype=np.intp)
    h = 1.0 / marg_prior if kind == "prior-based" else np.ones_like(marg_prior)
    loss = (psi_map[:, None] != rule[None, :]) * h[psi_map][:, None]
    return float(np.sum(joint * loss))


def unbiasedness_gap_oracle(evidence, post, marg_prior, rule) -> float:
    """Prior-based gap ``sum_x m(x) (post_x[r] - prior[r]) / prior[r]``."""
    cols = np.arange(post.shape[1])
    r = np.asarray(rule, dtype=np.intp)
    return float(np.sum(evidence * (post[r, cols] - marg_prior[r]) / marg_prior[r]))


def check_ratio_region(members, rb, post, gamma: float, what: str, mass_tol: float = MASS_TOL) -> None:
    """Members out-rank every non-member on the ratio and hold mass >= gamma."""
    members = sorted(int(m) for m in members)
    if not members:
        raise CheckFailed(f"{what}: empty region")
    inside = np.zeros(rb.size, dtype=bool)
    inside[members] = True
    mass = float(np.sum(post[inside]))
    if mass < gamma - mass_tol:
        raise CheckFailed(f"{what}: region mass {mass!r} below gamma {gamma!r}")
    if (~inside).any():
        spread = float(rb.max() - rb.min())
        if float(rb[inside].min()) < float(rb[~inside].max()) - TIE_RTOL * spread:
            raise CheckFailed(f"{what}: a non-member has a higher ratio than a member")


# -- normal-normal testbed ------------------------------------------------------


def normal_cdf_diff(lo, hi, mean: float, sd: float) -> np.ndarray:
    """``norm.cdf(hi) - norm.cdf(lo)`` in a form accurate in both tails."""
    out = np.empty(len(lo))
    for i, (a, b) in enumerate(zip(lo, hi)):
        za, zb = (a - mean) / (sd * math.sqrt(2.0)), (b - mean) / (sd * math.sqrt(2.0))
        if za >= 0.0:
            out[i] = 0.5 * (math.erfc(za) - math.erfc(zb))
        elif zb <= 0.0:
            out[i] = 0.5 * (math.erfc(-zb) - math.erfc(-za))
        else:
            out[i] = 0.5 * (math.erf(zb) - math.erf(za))
    return out


def posterior_moments(x: float, tau: float, sigma: float) -> tuple[float, float]:
    t2, s2 = tau * tau, sigma * sigma
    return t2 * x / (t2 + s2), math.sqrt(t2 * s2 / (t2 + s2))


def normal_bin_masses(edges, x: float, tau: float, sigma: float):
    """Prior and normalized posterior mass of each bin, from normal CDF differences."""
    edges = np.asarray(edges, dtype=float)
    prior = normal_cdf_diff(edges[:-1], edges[1:], 0.0, tau)
    mean, sd = posterior_moments(x, tau, sigma)
    post = normal_cdf_diff(edges[:-1], edges[1:], mean, sd)
    return prior, post / post.sum()


def check_bin_masses(edges, bin_prior, bin_post, x, tau, sigma, what: str) -> None:
    """Prior and posterior bin masses against normal CDF differences."""
    want_prior, want_post = normal_bin_masses(edges, x, tau, sigma)
    for name, got, want in (("prior", bin_prior, want_prior), ("posterior", bin_post, want_post)):
        got = np.asarray(got, dtype=float)
        err = np.abs(got - want)
        bad = err > 1e-8 * want + 1e-15
        if bad.any():
            i = int(np.argmax(bad))
            raise CheckFailed(f"{what}: {name} mass of bin {i} is {got[i]!r}, norm.cdf gives {want[i]!r}")


def rs_interval(x: float, tau: float, sigma: float, gamma: float) -> tuple[float, float]:
    """The continuous ratio region ``|theta - x| <= r`` with posterior mass gamma."""
    mean, sd = posterior_moments(x, tau, sigma)

    def mass(r):
        return float(normal_cdf_diff([x - r], [x + r], mean, sd)[0])

    lo, hi = 0.0, 1.0
    while mass(hi) < gamma:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mass(mid) < gamma else (lo, mid)
    return x - hi, x + hi


def check_grid_region(members, edges, x, tau, sigma, gamma, what: str) -> None:
    """A grid ratio region: a super-level set of the exact bin ratios, within
    one bin of the continuous region ``|theta - x| <= r``."""
    prior, post = normal_bin_masses(edges, x, tau, sigma)
    check_ratio_region(members, post / prior, post, gamma, what, mass_tol=1e-8)
    check_region_interval(members, edges, rs_interval(x, tau, sigma, gamma), what)


def check_region_interval(members, edges, interval, what: str) -> None:
    """Grid region is a run of bins whose ends lie within one bin of the interval."""
    members = sorted(int(m) for m in members)
    if not members or members != list(range(members[0], members[-1] + 1)):
        raise CheckFailed(f"{what}: region bins are not one contiguous run")
    width = float(edges[1] - edges[0])
    lo, hi = float(edges[members[0]]), float(edges[members[-1] + 1])
    if abs(lo - interval[0]) > width or abs(hi - interval[1]) > width:
        raise CheckFailed(
            f"{what}: grid region [{lo:.6g}, {hi:.6g}] is more than one bin "
            f"({width:g}) from [{interval[0]:.6g}, {interval[1]:.6g}]"
        )


# -- Monte Carlo risk table -----------------------------------------------------


def exact_conditional_risks(alpha: float, beta: float, mu: float, n: int, method: str):
    """Exact conditional misclassification risks ``(M0, M1)``.

    Given the true class, the count of class-1 training cases is
    beta-binomial and the new observation is a unit-variance normal, so each
    risk is a finite mixture of normal tails.
    """
    from scipy.stats import betabinom, norm

    k = np.arange(n + 1)
    pmf = betabinom.pmf(k, n, alpha, beta)
    if method == "map":
        stat = (alpha + k) / (beta + n - k)
    else:
        stat = beta * (alpha + k) / (alpha * (beta + n - k))
    cut = mu / 2.0 - np.log(stat) / mu
    m0 = float(pmf @ norm.sf(cut))
    m1 = float(pmf @ norm.cdf(cut - mu))
    return m0, m1


def risk_cell_se(p: float, reps: int) -> float:
    """Binomial standard error of one cell, plus one count for discreteness."""
    return math.sqrt(p * (1.0 - p) / reps) + 1.0 / reps


def check_risk_cell(got: float, exact: float, reps: int, what: str, z: float = 5.0) -> None:
    se = risk_cell_se(exact, reps)
    if abs(got - exact) > z * se:
        raise CheckFailed(
            f"{what}: {got!r} is {abs(got - exact) / se:.1f} standard errors from exact {exact!r}"
        )
