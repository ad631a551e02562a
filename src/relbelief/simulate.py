"""Seeded Monte Carlo estimation of conditional misclassification risks.

Given the conditioning class ``c``, the comparison between the class
predictors depends on the training sample only through the count ``k`` of
class-1 training cases, which is beta-binomial.  ``k`` takes only ``n + 1``
values, so a block draws how many of its replications fall on each ``k`` as
one multinomial over the beta-binomial pmf, and each method's decision is a
cutoff in ``x`` per ``k``, computed once per scenario with the pmf.  The
block then walks its replications in chunks of ``_CHUNK`` rows: each chunk
draws one standard normal ``Z`` per row for the new observation
``x = c * mu + Z``, gives each row the cutoff of its ``k``, and counts the
rows that predict class 1.  So a block never
holds a temporary with one entry per replication, and its working set stays
at a few chunk-sized arrays whatever ``BLOCK`` and ``n`` are.

Every block of ``BLOCK`` replications has its own counter-based stream keyed
by (seed, scenario, class, block index), so a block's draws do not depend on
which worker runs it or when: error counts are bit-identical for any thread
count.  Drawing a block's normals chunk by chunk reads the stream in the same
order as one draw, so the chunk size does not change the counts either.
:func:`exact_conditional_risk` gives the same risks exactly, as a
beta-binomial mixture of normal tails.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .closed_form import decision_statistic
from .errors import InvariantViolation
from .losses import RiskReport

BLOCK = 65536  # fixed logical block size; independent of worker count
_CHUNK = 16384  # rows per chunk of a block; bounds the block's working set

METHODS = ("map", "lrse")  # every scenario computes both


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario.

    The mixing rate and training labels are drawn from the prior
    independently of the conditioned class, the protocol that reproduces the
    published risk table.
    """

    alpha: float = 1.0
    beta: float = 1.0
    mu: float = 1.0
    n: int = 10
    reps: int = 1_000_000
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        # The stream key hashes the fields' text, so ``alpha=1`` and
        # ``alpha=1.0`` must be one value before anything reads them.
        for name in ("alpha", "beta", "mu"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("n", "reps", "seed"):
            value = getattr(self, name)
            try:
                as_int = int(value)
            except (TypeError, ValueError, OverflowError):
                as_int = None
            if as_int is None or as_int != value:
                raise InvariantViolation(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, as_int)
        if self.reps < 1:
            raise InvariantViolation("need at least one replication")
        if not all(math.isfinite(v) for v in (self.alpha, self.beta, self.mu)):
            raise InvariantViolation("alpha, beta and mu must be finite")
        if not (self.alpha > 0 and self.beta > 0):
            raise InvariantViolation("Beta parameters must be positive")
        if self.n < 0:
            raise InvariantViolation("training sample size cannot be negative")


def _cell_key(cfg: SimConfig, c: int) -> list[int]:
    """Stable 128-bit stream key for one (scenario, class) cell.

    The tag's text is fixed, its constant ``0`` field included: changing any
    character moves every draw.
    """
    tag = f"{cfg.seed}|{cfg.alpha!r}|{cfg.beta!r}|{cfg.mu!r}|{cfg.n}|0|{c}"
    digest = hashlib.sha256(tag.encode()).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def beta_binomial_pmf(n: int, a: float, b: float) -> np.ndarray:
    """Probabilities of ``k = 0..n`` under the beta-binomial law ``(n, a, b)``.

    Built in log space from ``P(0) = B(a, n + b) / B(a, b)`` and the ratio
    ``P(k + 1) / P(k) = (n - k)(a + k) / ((k + 1)(b + n - k - 1))``, so no
    gamma function is evaluated at large arguments and nothing underflows
    before the last step.  For ``a`` and ``b`` in ``[2**-20, 2**20]`` each
    ratio is one fraction; farther out a product in it can leave the float
    range, or ``b`` can round away in ``b + n``, so each factor's log is taken.
    """
    j = np.arange(n)
    if 2.0**-20 <= min(a, b) and max(a, b) <= 2.0**20:
        log_p0 = np.sum(np.log((b + j) / (a + b + j)))
        steps = np.log((n - j) * (a + j) / ((j + 1) * (b + n - j - 1)))
    else:
        log_p0 = np.sum(np.log(b + j) - np.log(a + b + j))
        steps = np.log(n - j) + np.log(a + j) - np.log(j + 1) - np.log(b + (n - 1 - j))
    return np.exp(log_p0 + np.concatenate(([0.0], np.cumsum(steps))))


def _draw_training_counts(rng: Generator, rows: int, pmf: np.ndarray) -> np.ndarray:
    """How many of ``rows`` replications have each training count ``k = 0..n``.

    One multinomial draw over the beta-binomial pmf.  numpy takes the last
    probability as one minus the others, so a pmf whose sum rounds below one
    still spreads exactly ``rows`` replications.  numpy rejects a pmf whose
    leading entries sum past ``1 + 1e-12`` (the log-space pmf can, at large
    ``n``) before it reads the stream, so only then is the draw repeated on
    the rescaled pmf, and every pmf numpy accepts keeps its draws.
    """
    try:
        return rng.multinomial(rows, pmf)
    except ValueError:
        return rng.multinomial(rows, pmf / pmf.sum())


@functools.lru_cache(maxsize=8)
def _scenario(cfg: SimConfig) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The pmf of ``k`` and each method's cutoff per ``k``, read-only and shared.

    Class 1 is predicted when ``f_ratio * stat >= 1``, that is when
    ``mu * x >= mu**2 / 2 - log(stat)``: when ``sign(mu) * x`` is at least
    ``sign(mu) * (mu / 2 - log(stat) / mu)``.  At ``mu == 0`` the cutoff is
    ``-inf`` where ``stat >= 1`` and ``inf`` elsewhere.
    """
    out = {}
    for method in METHODS:
        stat = decision_statistic(method, cfg.alpha, cfg.beta, cfg.n, np.arange(cfg.n + 1))
        if cfg.mu == 0.0:
            out[method] = np.where(stat >= 1.0, -np.inf, np.inf)
            continue
        with np.errstate(over="ignore"):  # a cutoff past the floats reads +-inf
            out[method] = math.copysign(1.0, cfg.mu) * (cfg.mu / 2.0 - np.log(stat) / cfg.mu)
    pmf = beta_binomial_pmf(cfg.n, cfg.alpha, cfg.beta)
    for arr in (pmf, *out.values()):
        arr.setflags(write=False)
    return pmf, out


def _block_errors(cfg: SimConfig, c: int, block_index: int, rows: int) -> dict[str, int]:
    """Exact integer error counts of one block of replications.

    The per-k training counts, then the observations' normal draws, come from
    the block's own keyed stream, so scheduling cannot change the draws.  The
    replications are taken in order of ``k``: rows ``edges[k]`` to
    ``edges[k + 1]`` have count ``k``.  The normals are independent of the
    counts, so every row is still an independent replication.  Each chunk
    draws its normals in stream order and gives each row the cutoff of its
    ``k``, so every row meets the comparison of a single pass over the
    block, with the same operands.
    """
    pmf, cutoffs = _scenario(cfg)
    stream = SeedSequence(entropy=_cell_key(cfg, c), spawn_key=(block_index,))
    rng = Generator(Philox(stream))
    edges = np.concatenate(([0], np.cumsum(_draw_training_counts(rng, rows, pmf))))

    hits = dict.fromkeys(METHODS, 0)  # rows that predict class 1
    for lo in range(0, rows, _CHUNK):
        hi = min(lo + _CHUNK, rows)
        x = c * cfg.mu + rng.standard_normal(hi - lo)
        signed = x if cfg.mu >= 0 else -x
        rows_per_k = np.diff(np.clip(edges, lo, hi))
        for method, cut in cutoffs.items():
            hits[method] += int(np.count_nonzero(signed >= np.repeat(cut, rows_per_k)))
    return {m: rows - h if c else h for m, h in hits.items()}


def exact_conditional_risk(
    alpha: float, beta: float, mu: float, n: int, method: str
) -> tuple[float, float]:
    """Exact conditional misclassification risks ``(M0, M1)`` of one method.

    Given the class ``c`` and the training count ``k``, the rule predicts
    class 1 when ``sign(mu) * x`` reaches the cutoff of ``k`` that the
    simulated blocks use, and ``sign(mu) * x`` is normal with mean
    ``c * |mu|`` and unit variance.  Each risk is the beta-binomial mixture
    over ``k`` of these normal tails.
    """
    pmf, cutoffs = _scenario(SimConfig(alpha=alpha, beta=beta, mu=mu, n=n))  # validates it
    if method not in cutoffs:
        raise InvariantViolation(f"unknown method {method!r}")
    risks = []
    for c, side in ((0, 1.0), (1, -1.0)):
        # sign(mu) * x - c * |mu| is standard normal, so class 1 is predicted
        # with probability erfc(t / sqrt 2) / 2 at t = cutoff - c * |mu|, and
        # missed with erfc(-t / sqrt 2) / 2.
        z = side * (cutoffs[method] - c * abs(mu)) / math.sqrt(2.0)
        risks.append(math.fsum(pmf * [0.5 * math.erfc(v) for v in z]))
    return risks[0], risks[1]


def _cell_error_counts(cfg: SimConfig, c: int) -> dict[str, int]:
    n_blocks = (cfg.reps + BLOCK - 1) // BLOCK
    sizes = [min(BLOCK, cfg.reps - i * BLOCK) for i in range(n_blocks)]
    totals = dict.fromkeys(METHODS, 0)
    if cfg.threads > 1 and n_blocks > 1:
        # Imported here: only a multi-threaded run pays for concurrent.futures.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(
                pool.map(lambda i: _block_errors(cfg, c, i, sizes[i]), range(n_blocks))
            )
    else:
        results = [_block_errors(cfg, c, i, sizes[i]) for i in range(n_blocks)]
    for counts in results:
        for m, v in counts.items():
            totals[m] += v
    return totals


def _smoothed_se(errors: int, reps: int) -> float:
    # Agresti-Coull style smoothing keeps the standard error meaningful at
    # extreme counts (a single replication reports about 0.5, not 0).
    p = (errors + 1.0) / (reps + 2.0)
    return math.sqrt(p * (1.0 - p) / reps)


def conditional_risk_mc(cfg: SimConfig) -> dict[str, RiskReport]:
    """Monte Carlo conditional misclassification risks per method.

    Returns one report per method whose per-class entries are the estimated
    probabilities of misclassifying class 0 and class 1 respectively, with
    matched standard errors.  The prior-weighted aggregate uses the prior
    predictive class weights, and the prior risk under the prediction loss
    equals the plain sum of the two conditional errors.
    """
    per_class_counts = {m: [] for m in METHODS}
    for c in (0, 1):
        counts = _cell_error_counts(cfg, c)
        for m in METHODS:
            per_class_counts[m].append(counts[m])

    q1 = cfg.alpha / (cfg.alpha + cfg.beta)
    class_prior = np.array([1.0 - q1, q1])
    out = {}
    for m in METHODS:
        errs = np.array(per_class_counts[m], dtype=float) / cfg.reps
        ses = np.array([_smoothed_se(k, cfg.reps) for k in per_class_counts[m]])
        out[m] = RiskReport(
            per_class_error=errs,
            unweighted_sum=float(errs.sum()),
            prior_weighted_sum=float(errs @ class_prior),
            prior_risk=float(errs.sum()),
            std_err=ses,
        )
    return out


@dataclass(frozen=True)
class RiskTableRow:
    beta: float
    method: str
    m0: float
    m1: float
    risk_sum: float
    se: float
    exact_m0: float
    exact_m1: float
    z_m0: float
    z_m1: float


def risk_table(
    reps: int,
    seed: int,
    *,
    mu: float = 1.0,
    n: int = 10,
    alpha: float = 1.0,
    betas=(1.0, 14.0, 32.0, 100.0),
    threads: int = 1,
) -> list[RiskTableRow]:
    """Conditional misclassification risks across a grid of Beta parameters.

    One row per (beta, method) with the two conditional error estimates,
    their sum, the standard error of the sum, the exact risks from
    :func:`exact_conditional_risk`, and each estimate's z-score against its
    exact value in units of its own (smoothed) standard error.
    """
    if len(betas) == 0:
        raise InvariantViolation("the risk table needs at least one beta")
    rows = []
    for beta in betas:
        cfg = SimConfig(alpha=alpha, beta=beta, mu=mu, n=n, reps=reps, seed=seed, threads=threads)
        reports = conditional_risk_mc(cfg)
        for method in METHODS:
            rep = reports[method]
            se = float(np.sqrt(np.sum(rep.std_err**2)))
            exact = exact_conditional_risk(cfg.alpha, cfg.beta, cfg.mu, cfg.n, method)
            z = (rep.per_class_error - exact) / rep.std_err
            rows.append(
                RiskTableRow(
                    beta=cfg.beta,
                    method=method,
                    m0=float(rep.per_class_error[0]),
                    m1=float(rep.per_class_error[1]),
                    risk_sum=rep.unweighted_sum,
                    se=se,
                    exact_m0=exact[0],
                    exact_m1=exact[1],
                    z_m0=float(z[0]),
                    z_m1=float(z[1]),
                )
            )
    return rows
