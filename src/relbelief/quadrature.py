"""Adaptive Gauss-Legendre quadrature for smooth densities on intervals.

Every interval's 10-point Gauss-Legendre panel is compared against the sum
of its two half panels; intervals where the two disagree beyond the
tolerance are bisected, the others contribute their refined value to their
bin.  The panels of all live intervals are evaluated together, one
integrand call per pass, so integrands must accept a 1-D ndarray of ``m``
nodes.  An integrand returns either ``m`` values or a stacked ``(k, m)``
array of ``k`` columns integrated together; each column keeps its own
acceptance test, so one pass serves several integrands that share work
(a prior and the prior times a likelihood).
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

_ORDER = 10
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)

_REL_TOL = 1e-10  # relative error target, panel against bisected panels
_ABS_FLOOR = 1e-300  # guards the relative test when the integral underflows
# Intervals refined per integrand call.  Bounds the memory of a pass, and
# keeps an integrand that never converges (noise) from doubling its live
# intervals at every level: the deepest intervals are refined first, so such
# an integrand reaches the depth limit after max_depth passes.
_BATCH = 4096


def _panels(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Panels over each interval: shape ``(n,)``, or ``(k, n)`` when ``f`` is stacked."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    nodes = (mid[:, None] + half[:, None] * _NODES).ravel()
    values = np.asarray(f(nodes), dtype=float)
    values = values.reshape(values.shape[:-1] + (lo.size, _ORDER))
    return half * np.sum(values * _WEIGHTS, axis=-1)


def _require_finite(panels: np.ndarray, live: np.ndarray, lo, hi) -> None:
    """Reject a non-finite panel of a column still being integrated there."""
    finite = np.isfinite(panels)
    if finite.all():
        return
    bad = (live & ~finite).any(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureFailure(f"non-finite integrand on [{lo[i]}, {hi[i]}]")


def integrate_bins(f, edges, *, max_depth: int = 48) -> np.ndarray:
    """Integrate ``f`` over each bin ``[edges[i], edges[i + 1]]``.

    Each bin keeps its own error control: an interval is accepted when its
    two half panels sum to within 1e-10 (relative) of its whole panel,
    and is bisected otherwise.  A stacked integrand's columns are judged
    apart: a column stops at the interval where its own test passes and
    its later values there are ignored, so each column takes the same
    decisions, and yields the same bin masses, as its own one-column call.
    The masses are equal bit for bit while every pass fits in one batch of
    intervals; a pass cut into batches can add a bin's pieces in another
    order, which changes only the rounding.

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping a 1-D ndarray of ``m`` points to ``m``
        values, or to a stacked ``(k, m)`` array of ``k`` columns.
    edges : array_like
        Strictly increasing bin edges.
    max_depth : int
        Bisection depth limit before giving up.

    Returns
    -------
    ndarray
        One integral per bin, shape ``(n_bins,)``, or ``(k, n_bins)`` for a
        stacked integrand.

    Raises
    ------
    QuadratureFailure
        When the integrand is not finite at some node, or some subinterval
        cannot reach the tolerance within the depth limit, in any column.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(edges[1:] > edges[:-1]):
        raise QuadratureFailure("bin edges must be a strictly increasing sequence")
    n_bins = edges.size - 1
    lo, hi = edges[:-1], edges[1:]
    first = _panels(f, lo, hi)
    whole = first.reshape(-1, n_bins)
    live = np.ones(whole.shape, dtype=bool)  # columns still integrated per interval
    _require_finite(whole, live, lo, hi)
    totals = np.zeros(whole.shape)
    # Stack of (lo, hi, whole panels, live, bin, depth) batches, deepest on top.
    pending = [(lo, hi, whole, live, np.arange(n_bins), 0)]
    while pending:
        lo, hi, whole, live, owner, depth = pending.pop()
        if lo.size > _BATCH:
            cut = lo.size - _BATCH
            pending.append(
                (lo[:cut], hi[:cut], whole[:, :cut], live[:, :cut], owner[:cut], depth)
            )
            lo, hi, whole, live, owner = (
                lo[cut:], hi[cut:], whole[:, cut:], live[:, cut:], owner[cut:]
            )
        mid = 0.5 * (lo + hi)
        halves_lo, halves_hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        halves = _panels(f, halves_lo, halves_hi).reshape(whole.shape[0], -1)
        _require_finite(halves, np.hstack([live, live]), halves_lo, halves_hi)
        left, right = np.hsplit(halves, 2)
        refined = left + right
        passed = np.abs(refined - whole) <= _REL_TOL * np.abs(refined) + _ABS_FLOOR
        done = live & passed
        for column, accepted in enumerate(done):
            totals[column] += np.bincount(
                owner[accepted], weights=refined[column, accepted], minlength=n_bins
            )
        live = live & ~passed
        split = live.any(axis=0)
        if not split.any():
            continue
        if depth >= max_depth:
            bad = int(np.argmax(split))
            raise QuadratureFailure(
                f"no convergence on [{lo[bad]}, {hi[bad]}] after depth {depth}"
            )
        lo, mid, hi, owner, live = lo[split], mid[split], hi[split], owner[split], live[:, split]
        pending.append((
            np.concatenate([lo, mid]),
            np.concatenate([mid, hi]),
            np.hstack([left[:, split], right[:, split]]),
            np.hstack([live, live]),
            np.concatenate([owner, owner]),
            depth + 1,
        ))
    return totals.reshape(first.shape[:-1] + (n_bins,))
