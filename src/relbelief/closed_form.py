"""Closed-form model families used both as user-facing models and oracles.

Each family carries analytic decision rules or estimators that the generic
pipeline (finite models plus estimators) must reproduce, so they double as
independent checks of the numerical machinery: a two-class Bernoulli
classifier with known rates, a conjugate Gaussian linear regression, and a
Beta-Bernoulli class predictor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvariantViolation, SingularDesign
from .estimators import EstimateResult
from .losses import LossSpec, RiskReport, prior_risk
from .model import FiniteModel, _normal_log_likelihood

if TYPE_CHECKING:
    from .discretize import ContinuousModel1D


# -- two-class Bernoulli classification --------------------------------------


@dataclass(frozen=True)
class BinomialClassifier:
    """Single Bernoulli observation from one of two known success rates.

    The first class has success probability ``psi1`` and prior weight
    ``1 - epsilon``; the second has ``psi2`` and prior weight ``epsilon``.
    """

    psi1: float
    psi2: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.psi1 < 1.0 and 0.0 < self.psi2 < 1.0):
            raise InvariantViolation("success probabilities must lie in (0, 1)")
        if not 0.0 < self.epsilon < 1.0:
            raise InvariantViolation("epsilon must lie in (0, 1)")

    def to_finite_model(self) -> FiniteModel:
        """Equivalent two-point finite model over the sample space {0, 1}."""
        return FiniteModel(
            theta_labels=("psi1", "psi2"),
            prior=np.array([1.0 - self.epsilon, self.epsilon]),
            likelihood=np.array(
                [[1.0 - self.psi1, self.psi1], [1.0 - self.psi2, self.psi2]]
            ),
            psi_map=np.array([0, 1]),
            psi_labels=("psi1", "psi2"),
            psi_coords=np.array([self.psi1, self.psi2]),
        )


def classify(model: BinomialClassifier, x: int, method: str) -> EstimateResult:
    """Closed-form class decision for one observed Bernoulli outcome.

    The MAP rule compares posterior weights, the LRSE rule compares the
    success (or failure) rates directly; exact ties are surfaced, not
    broken silently.
    """
    if x not in (0, 1):
        raise InvariantViolation("observation must be 0 or 1")
    p1, p2 = (model.psi1, model.psi2) if x == 1 else (1 - model.psi1, 1 - model.psi2)
    if method == "map":
        s1, s2 = p1 * (1.0 - model.epsilon), p2 * model.epsilon
    elif method == "lrse":
        s1, s2 = p1, p2
    else:
        raise InvariantViolation(f"unknown method {method!r}")
    ties = (0, 1) if s1 == s2 else (0,) if s1 > s2 else (1,)
    return EstimateResult(
        argmax_set=ties,
        psi_label=("psi1", "psi2")[ties[0]],
        criterion_value=float((s1, s2)[ties[0]]),
    )


def classifier_risks(model: BinomialClassifier, method: str) -> RiskReport:
    """Exact per-class misclassification probabilities of a decision method.

    The rule is tabulated from the closed-form decisions and evaluated by
    exact enumeration over the two-point sample space under the prior-based
    loss, whose prior risk equals the plain sum of the two conditional error
    probabilities.
    """
    rule = [classify(model, x, method).psi_index for x in (0, 1)]
    return prior_risk(LossSpec.prior_based(), rule, model.to_finite_model())


# -- conjugate Gaussian linear regression ------------------------------------


@dataclass(frozen=True)
class GaussianRegression:
    """Linear model with known error variance and an isotropic normal prior.

    ``y = X beta + e`` with ``e ~ N(0, sigma2 I)`` and ``beta ~ N(0, tau2 I)``.
    The marginal parameter of interest is ``psi = w' beta`` at a predictor
    setting ``w``.
    """

    X: np.ndarray
    y: np.ndarray
    w: np.ndarray
    sigma2: float
    tau2: float

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        w = np.asarray(self.w, dtype=float).reshape(-1)
        if X.shape[0] != y.size or X.shape[1] != w.size:
            raise InvariantViolation("X, y, w dimensions are inconsistent")
        for name, value in (("X", X), ("y", y), ("w", w), ("sigma2", self.sigma2),
                            ("tau2", self.tau2)):
            if not np.all(np.isfinite(value)):
                raise InvariantViolation(f"{name} contains non-finite entries")
        if not (self.sigma2 > 0 and self.tau2 > 0):
            raise InvariantViolation("variances must be positive")
        if not np.any(w):
            raise InvariantViolation("w must have a nonzero entry")
        s = float(np.abs(X).max(initial=0.0)) or 1.0
        U, S, Vt = np.linalg.svd(X / s, full_matrices=False)  # read by every estimate
        if S.size < w.size or S[-1] <= S[0] * max(X.shape) * np.finfo(float).eps:
            raise SingularDesign("design matrix must have full column rank")  # numpy's tolerance
        for name, value in (("X", X), ("y", y), ("w", w), ("_svd", (s, U, S, Vt))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class RegressionEstimates:
    mle: np.ndarray
    psi_map: float
    psi_lrse: float
    psi_prior_var: float
    psi_post_var: float


@np.errstate(over="ignore")  # a value past the largest double reads inf
def _posterior(model: GaussianRegression) -> tuple[RegressionEstimates, float]:
    """The estimates of ``psi = w' beta`` and the LRSE of a future response.

    Direction ``i`` of ``c = V' w / t``, ``t = max |w_j|``, shrinks by ``S_i^2 /
    (g^2 + S_i^2)`` with each square taken over ``max(g, S_i)^2``; an LRSE ``mean *
    prior_var / gap`` sums the gap directly, relative to its largest shrinkage.
    ``U'y`` enters scaled by ``2**-e``, and each result that reads it by ``2**e``:
    ``e`` is 0 unless some ``|U'y| / S`` may reach ``2**999``, so ``u / S`` and
    its sums stay finite and every result in range keeps its bits.
    """
    s, U, S, Vt = model._svd
    t = float(np.abs(model.w).max())
    u = U.T @ model.y
    e = max(0, math.frexp(float(np.abs(u).max()))[1] - math.frexp(float(S[-1]))[1] - 998)
    c, u, ww = Vt @ (model.w / t), u * 2.0**-e, float(np.sum((model.w / t) ** 2))
    q = math.sqrt(model.sigma2) / math.sqrt(model.tau2)  # g * s; sigma2 / tau2 may overflow
    m = np.maximum(q / s, S)
    S2, g2 = (S / m) ** 2, np.minimum(q / s / S, 1.0) ** 2  # (g / m)^2, also at g = inf
    rel = (S2 + g2 * (S / S[0]) ** 2) / (g2 + S2)  # shrinkage over the largest one
    num, den = float(c * u / S @ rel), float(c * c @ rel)
    unit = num / s / den * 2.0**e  # psi_lrse / (t * ww)
    z_lrse = unit * (q / t * q + t * ww)
    if math.isnan(z_lrse):  # 0 * inf: unit underflowed where the bracket overflowed
        logs = (math.log(model.sigma2) - math.log(model.tau2) - math.log(t), math.log(t * ww))
        z_lrse = num and math.copysign(float(np.exp(
            np.logaddexp(*logs) + math.log(abs(num)) + e * math.log(2.0) - math.log(den)
            - math.log(s))), num)
    return RegressionEstimates(
        mle=Vt.T @ (u / S) / s * 2.0**e,
        psi_map=t * float(c * u * (S / m) / (s * m) @ (1 / (g2 + S2))) * 2.0**e,
        psi_lrse=t * unit * ww, psi_prior_var=model.tau2 * ww * t * t,
        psi_post_var=model.tau2 * float(c * c @ (g2 / (g2 + S2))) * t * t,
    ), z_lrse


def regression_estimates(model: GaussianRegression) -> RegressionEstimates:
    """Closed-form estimators and variances of the linear functional ``w' beta``.

    The MAP estimate of the linear functional is its posterior mean; the LRSE
    inflates it by ``1 / (1 - post_var / prior_var)``, toward the least-squares
    plug-in estimate, which it reaches exactly as the prior variance grows.
    """
    return _posterior(model)[0]


@dataclass(frozen=True)
class RegressionPrediction:
    z_map: float
    z_lrse: float


def regression_predict(model: GaussianRegression) -> RegressionPrediction:
    """Closed-form predictors of a future response at the setting ``w``.

    The prediction target adds the observation noise to the linear
    functional, so its LRSE is the estimation LRSE scaled up by the ratio
    of prior variances; it is asserted wherever both sides are normal floats.
    """
    est, z_lrse = _posterior(model)
    v, zv = est.psi_prior_var, z_lrse * est.psi_prior_var
    if v >= sys.float_info.min and math.isfinite(zv) and not math.isclose(
            zv, (model.sigma2 + v) * est.psi_lrse, rel_tol=1e-10):
        raise InvariantViolation("prediction and estimation LRSEs violate the scale identity")
    return RegressionPrediction(z_map=est.psi_map, z_lrse=z_lrse)


# -- Beta-Bernoulli class prediction ------------------------------------------

_LOG_NORMAL = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def gaussian_likelihood_ratio(mu: float, x_next: float) -> float:
    """Density ratio of N(mu, 1) to N(0, 1) at the new observation.

    A ratio too large for a float reads ``inf``, as one too small reads 0;
    where ``mu * mu`` overflows, the factored log ratio keeps its sign.
    """
    log_ratio = mu * (x_next - mu / 2.0) if math.isinf(mu * mu) else mu * x_next - mu * mu / 2.0
    try:
        return math.exp(log_ratio)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BetaBernoulliPredictor:
    """Predict the class of a new observation under an unknown mixing rate.

    The class rate has a Beta(alpha, beta) prior; ``n`` labelled training
    cases with class mean ``cbar`` were observed, and ``f_ratio`` is the
    evaluated density ratio of the new observation under class 1 versus
    class 0.
    """

    alpha: float
    beta: float
    n: int
    cbar: float
    f_ratio: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InvariantViolation("alpha and beta must be finite")
        if not (self.alpha > 0 and self.beta > 0):
            raise InvariantViolation("Beta parameters must be positive")
        if self.n < 0 or not 0.0 <= self.cbar <= 1.0:
            raise InvariantViolation("need n >= 0 and class mean in [0, 1]")
        k = self.n * self.cbar  # the class-1 count, up to the rounding of cbar = k / n
        if abs(k - round(k)) > 4 * math.ulp(self.n):
            raise InvariantViolation(f"cbar must be a count over n, but n * cbar = {k!r}")
        if not self.f_ratio >= 0:
            raise InvariantViolation("likelihood ratio must lie in [0, inf]")


def decision_statistic(method: str, alpha: float, beta: float, n: int, k):
    """Posterior-odds factor multiplying the likelihood ratio, vectorized in k.

    ``k`` is the number of class-1 training cases.  The decision is class 1
    when ``f_ratio * statistic >= 1``.  The LRSE statistic carries the extra
    ``beta / alpha`` factor that cancels the prior odds of the classes.  The
    statistic is a positive normal float, so its product with any ratio in
    ``[0, inf]`` is a number.
    """
    if method not in ("map", "lrse"):
        raise InvariantViolation(f"unknown method {method!r}")
    k = np.asarray(k, dtype=float)
    if 2.0**-20 <= min(alpha, beta) and max(alpha, beta) <= 2.0**20:
        if method == "map":
            return (alpha + k) / (beta + n - k)
        # single fraction, so exact-threshold inputs stay exact
        return (beta * (alpha + k)) / (alpha * (beta + n - k))
    # Farther out a product in the fraction can leave the float range, and
    # beta + n - k can lose beta to rounding, so the ratio is summed in logs.
    log_alpha, log_beta = math.log(alpha), math.log(beta)
    with np.errstate(divide="ignore"):  # log 0 = -inf at k = 0 and k = n
        log_k, log_rest = np.log(k), np.log(n - k)
    if method == "map":
        log_stat = np.logaddexp(log_alpha, log_k) - np.logaddexp(log_beta, log_rest)
    else:  # log(1 + k / alpha) - log(1 + (n - k) / beta), with nothing cancelled
        log_stat = np.logaddexp(0.0, log_k - log_alpha) - np.logaddexp(0.0, log_rest - log_beta)
    return np.exp(np.clip(log_stat, *_LOG_NORMAL))


def predicts_one(method: str, alpha: float, beta: float, n: int, k, f_ratio):
    """Vectorized class-1 decision; ties at the threshold go to class 1."""
    stat = decision_statistic(method, alpha, beta, n, k)
    return np.asarray(f_ratio) * stat >= 1.0


def predict_class(model: BetaBernoulliPredictor, method: str) -> int:
    """Closed-form class prediction (1 at the exact threshold)."""
    k = model.n * model.cbar
    return int(
        predicts_one(method, model.alpha, model.beta, model.n, k, model.f_ratio)
    )


# -- conjugate normal testbed --------------------------------------------------


@dataclass(frozen=True)
class NormalNormalTestbed:
    """Scalar normal mean with a normal prior, truncated for grid work.

    Prior ``theta ~ N(0, tau^2)``, observation ``x ~ N(theta, sigma^2)``.
    The LRSE of the full parameter is the observation itself (the maximum
    likelihood value); the MAP is the shrunk posterior mean.  The working
    interval runs eight prior standard deviations either side of zero.
    """

    tau: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (self.tau > 0 and self.sigma > 0):
            raise InvariantViolation("need positive scales")

    def continuous_model(self) -> ContinuousModel1D:
        from .discretize import ContinuousModel1D

        tau, sigma = self.tau, self.sigma

        def prior_density(t):
            return np.exp(-0.5 * (np.asarray(t) / tau) ** 2) / (
                tau * math.sqrt(2 * math.pi)
            )

        log_norm = math.log(sigma * math.sqrt(2 * math.pi))

        def likelihood(t, x):
            return _normal_log_likelihood(x, np.asarray(t), sigma, log_norm, "theta evaluated")

        half = 8.0 * tau
        return ContinuousModel1D(
            prior_density=prior_density, likelihood=likelihood, support=(-half, half)
        )

    def psi_lrse(self, x: float) -> float:
        return float(x)
