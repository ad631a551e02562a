"""Seeded Monte Carlo estimation of conditional misclassification risks.

For each conditioning class the simulator draws a mixing rate from its Beta
prior, a labelled training sample, and a new Gaussian observation, then
applies the closed-form class predictors and counts errors.  Draws are
generated from counter-based streams keyed by (seed, scenario, class, block),
with every replication consuming a fixed budget of uniforms at a fixed
offset, so error counts are bit-identical no matter how blocks are scheduled
across workers.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .closed_form import predicts_one
from .errors import InvariantViolation
from .losses import RiskReport

BLOCK = 65536  # fixed logical block size; independent of worker count

METHODS = ("map", "lrse")


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario.

    ``couple_training`` selects the law of the training sample given the
    conditioned class: when False (default) the mixing rate and training
    labels are drawn from the prior independently of the class, which is the
    protocol reproducing the published risk table; when True the rate is
    drawn from its exact conditional given the class (the prior updated by
    one pseudo-observation).
    """

    alpha: float = 1.0
    beta: float = 1.0
    mu: float = 1.0
    n: int = 10
    reps: int = 1_000_000
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    couple_training: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.reps < 1:
            raise InvariantViolation("need at least one replication")
        if not (self.alpha > 0 and self.beta > 0):
            raise InvariantViolation("Beta parameters must be positive")
        if self.n < 0:
            raise InvariantViolation("training sample size cannot be negative")
        if any(m not in METHODS for m in self.methods):
            raise InvariantViolation(f"methods must be among {METHODS}")


def _cell_key(cfg: SimConfig, c: int) -> list[int]:
    """Stable 128-bit stream key for one (scenario, class) cell."""
    tag = f"{cfg.seed}|{cfg.alpha!r}|{cfg.beta!r}|{cfg.mu!r}|{cfg.n}|{int(cfg.couple_training)}|{c}"
    digest = hashlib.sha256(tag.encode()).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def _block_errors(cfg: SimConfig, c: int, block_index: int, rows: int) -> dict[str, int]:
    """Exact integer error counts of one block of replications.

    Each replication occupies one row of a fixed uniform layout, and each
    block has its own keyed stream, so scheduling cannot change the draws.
    """
    # Imported here: scipy.special costs about 0.2 s, which only simulation
    # should pay, not every process that imports relbelief.
    from scipy.special import betaincinv, ndtri

    stream = SeedSequence(entropy=_cell_key(cfg, c), spawn_key=(block_index,))
    rng = Generator(Philox(stream))
    u = rng.random((rows, cfg.n + 2))

    a, b = (cfg.alpha + c, cfg.beta + 1 - c) if cfg.couple_training else (cfg.alpha, cfg.beta)
    eps = betaincinv(a, b, u[:, 0])
    k = (u[:, 1 : cfg.n + 1] < eps[:, None]).sum(axis=1) if cfg.n else np.zeros(rows)
    x = c * cfg.mu + ndtri(u[:, cfg.n + 1])
    f_ratio = np.exp(cfg.mu * x - cfg.mu * cfg.mu / 2.0)

    counts = {}
    for method in cfg.methods:
        pred = predicts_one(method, cfg.alpha, cfg.beta, cfg.n, k, f_ratio)
        counts[method] = int(np.count_nonzero(pred != bool(c)))
    return counts


def _cell_error_counts(cfg: SimConfig, c: int) -> dict[str, int]:
    n_blocks = (cfg.reps + BLOCK - 1) // BLOCK
    sizes = [min(BLOCK, cfg.reps - i * BLOCK) for i in range(n_blocks)]
    totals = {m: 0 for m in cfg.methods}
    if cfg.threads > 1 and n_blocks > 1:
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
    per_class_counts = {m: [] for m in cfg.methods}
    for c in (0, 1):
        counts = _cell_error_counts(cfg, c)
        for m in cfg.methods:
            per_class_counts[m].append(counts[m])

    q1 = cfg.alpha / (cfg.alpha + cfg.beta)
    class_prior = np.array([1.0 - q1, q1])
    out = {}
    for m in cfg.methods:
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


def risk_table(
    reps: int,
    seed: int,
    *,
    mu: float = 1.0,
    n: int = 10,
    alpha: float = 1.0,
    betas=(1.0, 14.0, 32.0, 100.0),
    threads: int = 1,
    couple_training: bool = False,
) -> list[RiskTableRow]:
    """Conditional misclassification risks across a grid of Beta parameters.

    One row per (beta, method) with the two conditional error estimates,
    their sum, and the standard error of the sum.
    """
    rows = []
    for beta in betas:
        cfg = SimConfig(
            alpha=alpha,
            beta=float(beta),
            mu=mu,
            n=n,
            reps=reps,
            seed=seed,
            threads=threads,
            couple_training=couple_training,
        )
        reports = conditional_risk_mc(cfg)
        for method in cfg.methods:
            rep = reports[method]
            se = float(np.sqrt(np.sum(rep.std_err**2)))
            rows.append(
                RiskTableRow(
                    beta=float(beta),
                    method=method,
                    m0=float(rep.per_class_error[0]),
                    m1=float(rep.per_class_error[1]),
                    risk_sum=rep.unweighted_sum,
                    se=se,
                )
            )
    return rows
