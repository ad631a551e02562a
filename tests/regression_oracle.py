"""Exact-rational oracle for the conjugate Gaussian regression.

Every float is an exact rational, so the posterior of ``psi = w' beta`` can
be computed with no rounding at all: Gauss-Jordan elimination on the
posterior precision ``I / tau2 + X'X / sigma2`` in ``fractions.Fraction``
arithmetic.  It shares no code with :mod:`relbelief.closed_form`, and only
tests read it.
"""

from fractions import Fraction


def _solve(A: list[list[Fraction]], columns: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve ``A z = b`` for each right-hand side ``b`` by Gauss-Jordan elimination."""
    n = len(A)
    M = [row + [b[i] for b in columns] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        M[col] = [v / M[col][col] for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [[M[i][n + j] for i in range(n)] for j in range(len(columns))]


def exact_regression(X, y, w, sigma2, tau2) -> dict[str, Fraction]:
    """Exact posterior summaries of ``psi = w' beta`` and its two LRSEs.

    ``scale`` is ``sum |w_i mean_i|``, the size of the terms whose sum is the
    posterior mean, against which a rounded mean is judged.
    """
    X = [[Fraction(float(v)) for v in row] for row in X]
    y, w = [Fraction(float(v)) for v in y], [Fraction(float(v)) for v in w]
    sigma2, tau2 = Fraction(float(sigma2)), Fraction(float(tau2))
    p = len(w)
    cols = list(zip(*X))
    precision = [[(i == j) / tau2 + sum(a * b for a, b in zip(cols[i], cols[j])) / sigma2
                  for j in range(p)] for i in range(p)]
    xty = [sum(a * b for a, b in zip(cols[i], y)) / sigma2 for i in range(p)]
    mean, cov_w = _solve(precision, [xty, w])
    psi_map = sum(a * b for a, b in zip(w, mean))
    post_var = sum(a * b for a, b in zip(w, cov_w))
    prior_var = tau2 * sum(a * a for a in w)
    gap = prior_var - post_var
    return {
        "psi_map": psi_map,
        "psi_post_var": post_var,
        "psi_prior_var": prior_var,
        "psi_lrse": psi_map * prior_var / gap,
        "z_lrse": psi_map * (sigma2 + prior_var) / gap,
        "scale": sum(abs(a * b) for a, b in zip(w, mean)),
    }
