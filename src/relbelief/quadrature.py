"""Adaptive Gauss-Legendre quadrature for smooth densities on intervals.

Every interval's 10-point Gauss-Legendre panel is compared against the sum
of its two half panels; intervals where the two disagree beyond the
tolerance are bisected, the others contribute their refined value to their
bin.  The panels of all live intervals are evaluated together, one
integrand call per pass, so integrands must accept a 1-D ndarray of nodes.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

_ORDER = 10
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)

DEFAULT_REL_TOL = 1e-10
_ABS_FLOOR = 1e-300  # guards the relative test when the integral underflows
# Intervals refined per integrand call.  Bounds the memory of a pass, and
# keeps an integrand that never converges (noise) from doubling its live
# intervals at every level: the deepest intervals are refined first, so such
# an integrand reaches the depth limit after max_depth passes.
_BATCH = 4096


def _panels(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    nodes = (mid[:, None] + half[:, None] * _NODES).ravel()
    values = np.asarray(f(nodes), dtype=float).reshape(lo.size, _ORDER)
    panels = half * np.sum(values * _WEIGHTS, axis=1)
    if not np.all(np.isfinite(panels)):
        bad = int(np.argmin(np.isfinite(panels)))
        raise QuadratureFailure(f"non-finite integrand on [{lo[bad]}, {hi[bad]}]")
    return panels


def integrate_bins(
    f,
    edges,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    max_depth: int = 48,
) -> np.ndarray:
    """Integrate ``f`` over each bin ``[edges[i], edges[i + 1]]``.

    Each bin keeps its own error control: an interval is accepted when its
    two half panels sum to within ``rel_tol`` (relative) of its whole panel,
    and is bisected otherwise.

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping a 1-D ndarray of points to values.
    edges : array_like
        Strictly increasing bin edges.
    rel_tol : float
        Relative error target, judged panel against bisected panels.
    max_depth : int
        Bisection depth limit before giving up.

    Returns
    -------
    ndarray
        One integral per bin.

    Raises
    ------
    QuadratureFailure
        When the integrand is not finite at some node, or some subinterval
        cannot reach the tolerance within the depth limit.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(edges[1:] > edges[:-1]):
        raise QuadratureFailure("bin edges must be a strictly increasing sequence")
    n_bins = edges.size - 1
    lo, hi = edges[:-1], edges[1:]
    totals = np.zeros(n_bins)
    # Stack of (lo, hi, whole panel, bin, depth) batches, deepest on top.
    pending = [(lo, hi, _panels(f, lo, hi), np.arange(n_bins), 0)]
    while pending:
        lo, hi, whole, owner, depth = pending.pop()
        if lo.size > _BATCH:
            cut = lo.size - _BATCH
            pending.append((lo[:cut], hi[:cut], whole[:cut], owner[:cut], depth))
            lo, hi, whole, owner = lo[cut:], hi[cut:], whole[cut:], owner[cut:]
        mid = 0.5 * (lo + hi)
        halves = _panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = np.split(halves, 2)
        refined = left + right
        done = np.abs(refined - whole) <= rel_tol * np.abs(refined) + _ABS_FLOOR
        totals += np.bincount(owner[done], weights=refined[done], minlength=n_bins)
        if done.all():
            continue
        split = ~done
        if depth >= max_depth:
            bad = int(np.argmax(split))
            raise QuadratureFailure(
                f"no convergence on [{lo[bad]}, {hi[bad]}] after depth {depth}"
            )
        lo, mid, hi, owner = lo[split], mid[split], hi[split], owner[split]
        pending.append((
            np.concatenate([lo, mid]),
            np.concatenate([mid, hi]),
            np.concatenate([left[split], right[split]]),
            np.concatenate([owner, owner]),
            depth + 1,
        ))
    return totals


def adaptive_gauss_legendre(
    f,
    a: float,
    b: float,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    max_depth: int = 48,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to the requested relative accuracy.

    The one-bin case of :func:`integrate_bins`.

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping an ndarray of points to values.
    a, b : float
        Integration limits, ``a < b``.
    rel_tol : float
        Relative error target, judged panel against bisected panels.
    max_depth : int
        Bisection depth limit before giving up.

    Raises
    ------
    QuadratureFailure
        When some subinterval cannot reach the tolerance within the depth
        limit.
    """
    if not b > a:
        raise QuadratureFailure(f"empty interval [{a}, {b}]")
    return float(integrate_bins(f, [a, b], rel_tol, max_depth=max_depth)[0])
