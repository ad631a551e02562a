"""Adaptive Gauss-Kronrod quadrature for smooth densities on intervals.

Every interval gets QUADPACK's embedded G7-K15 pair: the 15 Kronrod nodes
hold the 7 Gauss-Legendre nodes, so one set of integrand values yields both
rules.  An interval whose K15 and G7 values agree within the tolerance
contributes its K15 value to its bin; the others are bisected, and each half
gets its own pair.  The nodes of all live intervals are evaluated together,
one integrand call per pass, so integrands must accept a 1-D ndarray of
``m`` nodes.  An integrand returns either ``m`` values or a stacked
``(k, m)`` array of ``k`` columns integrated together; each column keeps its
own acceptance test, so one pass serves several integrands that share work
(a prior and the prior times a likelihood).
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

# QUADPACK's qk15 table on [-1, 1]: the nonnegative Kronrod nodes, largest
# first, with their K15 weights; the G7 nodes are every other one of them,
# from 0.949..., and carry the G7 weights.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
# All 15 nodes in increasing order; the G7 nodes sit at the odd indices.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS = np.concatenate([_WG[:-1], _WG[::-1]])

_REL_TOL = 1e-10  # relative error target, K15 against G7
_ABS_FLOOR = 1e-300  # guards the relative test when the integral underflows
# Intervals refined per integrand call.  Bounds the memory of a pass, and
# keeps an integrand that never converges (noise) from doubling its live
# intervals at every level: the deepest intervals are refined first, so such
# an integrand reaches the depth limit after _MAX_DEPTH passes.
_BATCH = 4096
_MAX_DEPTH = 48  # bisections of a bin before it is given up


def _weighted_sum(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_i weights[i] * values[..., i, :]``, added in node order.

    Each interval's sum is rounded the same way however many columns and
    intervals a pass holds, so stacking and batching leave its bits alone.
    """
    total = values[..., 0, :] * weights[0]
    for i in range(1, weights.size):
        total += values[..., i, :] * weights[i]
    return total


def _pass(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 and G7 values over each interval: ``(n,)``, or ``(k, n)`` when ``f`` is stacked."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    nodes = (mid + half * _NODES[:, None]).ravel()  # node-major: node i of every interval
    values = np.asarray(f(nodes), dtype=float)
    values = values.reshape(values.shape[:-1] + (_NODES.size, lo.size))
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite values are rejected by name
        return (half * _weighted_sum(values, _KRONROD),
                half * _weighted_sum(values[..., 1::2, :], _GAUSS))


def integrate_bins(f, edges) -> np.ndarray:
    """Integrate ``f`` over each bin ``[edges[i], edges[i + 1]]``.

    Each bin keeps its own error control: an interval is accepted when its
    K15 and G7 values agree within 1e-10 (relative), and is bisected
    otherwise.  A stacked integrand's columns are judged apart: a column
    stops at the interval where its own test passes and its later values
    there are ignored, so each column takes the same decisions, and yields
    the same bin masses, as its own one-column call.  The masses are equal
    bit for bit while every pass fits in one batch of intervals; a pass cut
    into batches can add a bin's pieces in another order, which changes
    only the rounding.  The first pass covers every bin in one call.

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping a 1-D ndarray of ``m`` points to ``m``
        values, or to a stacked ``(k, m)`` array of ``k`` columns.
    edges : array_like
        Strictly increasing bin edges.

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
    lo, hi, owner, depth = edges[:-1], edges[1:], np.arange(n_bins), 0
    kronrod, gauss = _pass(f, lo, hi)
    columns = kronrod.shape[:-1]
    kronrod, gauss = kronrod.reshape(-1, n_bins), gauss.reshape(-1, n_bins)
    live = np.ones(kronrod.shape, dtype=bool)  # columns still integrated per interval
    totals = np.zeros(kronrod.shape)
    # Stack of (lo, hi, live, bin, depth) batches, deepest on top.
    pending = []
    while True:
        finite = np.isfinite(kronrod)
        if not finite.all():
            bad = (live & ~finite).any(axis=0)
            if bad.any():
                i = int(np.argmax(bad))
                raise QuadratureFailure(f"non-finite integrand on [{lo[i]}, {hi[i]}]")
        with np.errstate(invalid="ignore"):  # inf - inf in a column no longer integrated
            passed = np.abs(kronrod - gauss) <= _REL_TOL * np.abs(kronrod) + _ABS_FLOOR
        for column, accepted in enumerate(live & passed):
            totals[column] += np.bincount(
                owner[accepted], weights=kronrod[column, accepted], minlength=n_bins
            )
        live = live & ~passed
        split = live.any(axis=0)
        if split.any():
            if depth >= _MAX_DEPTH:
                bad = int(np.argmax(split))
                raise QuadratureFailure(
                    f"no convergence on [{lo[bad]}, {hi[bad]}] after depth {depth}"
                )
            lo, hi, owner, live = lo[split], hi[split], owner[split], live[:, split]
            mid = 0.5 * (lo + hi)
            pending.append((
                np.concatenate([lo, mid]),
                np.concatenate([mid, hi]),
                np.hstack([live, live]),
                np.concatenate([owner, owner]),
                depth + 1,
            ))
        if not pending:
            return totals.reshape(columns + (n_bins,))
        lo, hi, live, owner, depth = pending.pop()
        if lo.size > _BATCH:
            cut = lo.size - _BATCH
            pending.append((lo[:cut], hi[:cut], live[:, :cut], owner[:cut], depth))
            lo, hi, live, owner = lo[cut:], hi[cut:], live[:, cut:], owner[cut:]
        kronrod, gauss = (panel.reshape(live.shape) for panel in _pass(f, lo, hi))
