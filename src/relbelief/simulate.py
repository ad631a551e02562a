"""Exact conditional misclassification risks, checked by seeded Monte Carlo.

Given the conditioning class ``c``, the comparison between the class
predictors depends on the training sample only through the count ``k`` of
class-1 training cases, which is beta-binomial, and each method's decision
is a cutoff in ``x`` per ``k``.  One cached record per scenario ``(alpha,
beta, mu, n)`` holds the pmf of ``k``, the cutoffs and the exact risks, each
a beta-binomial mixture of normal tails (:func:`exact_conditional_risk`).

The Monte Carlo check reads the same record.  A block draws how many of its
replications fall on each ``k`` as one multinomial over the pmf, then walks
its replications in chunks of ``_CHUNK`` rows: each chunk draws one standard
normal ``Z`` per row for the new observation ``x = c * mu + Z``, gives each
row the cutoff of its ``k``, and counts the rows that predict class 1.  So a
block never holds a temporary with one entry per replication, and its
working set stays at a few chunk-sized arrays whatever ``BLOCK`` and ``n`` are.

Every block of ``BLOCK`` replications has its own counter-based stream keyed
by (seed, scenario, class, block index), so a block's draws do not depend on
which worker runs it or when: error counts are bit-identical for any thread
count.  Drawing a block's normals chunk by chunk reads the stream in the same
order as one draw, so the chunk size does not change the counts either.
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
        scenario = _checked_scenario(self.alpha, self.beta, self.mu, self.n)
        for name, value in zip(("alpha", "beta", "mu", "n"), scenario):
            object.__setattr__(self, name, value)
        for name in ("reps", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.reps < 1:
            raise InvariantViolation("need at least one replication")


def _integer(name: str, value) -> int:
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvariantViolation(f"{name} must be an integer, got {value!r}")


def _checked_scenario(alpha, beta, mu, n) -> tuple[float, float, float, int]:
    """The scenario ``(alpha, beta, mu, n)`` as three floats and an int, once checked."""
    alpha, beta, mu, n = float(alpha), float(beta), float(mu), _integer("n", n)
    if not all(math.isfinite(v) for v in (alpha, beta, mu)):
        raise InvariantViolation("alpha, beta and mu must be finite")
    if not (alpha > 0 and beta > 0):
        raise InvariantViolation("Beta parameters must be positive")
    if n < 0:
        raise InvariantViolation("training sample size cannot be negative")
    return alpha, beta, mu, n


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
def _scenario(alpha: float, beta: float, mu: float, n: int):
    """The pmf of ``k``, and each method's cutoff per ``k`` and exact ``(M0, M1)``.

    One read-only record per checked scenario, shared by every seed's blocks
    and by :func:`exact_conditional_risk`.  Class 1 is predicted when
    ``f_ratio * stat >= 1``, that is when ``mu * x >= mu**2 / 2 - log(stat)``:
    when ``sign(mu) * x`` is at least ``sign(mu) * (mu / 2 - log(stat) / mu)``.
    At ``mu == 0`` the cutoff is ``-inf`` where ``stat >= 1`` and ``inf``
    elsewhere.
    """
    pmf = beta_binomial_pmf(n, alpha, beta)
    pmf.setflags(write=False)
    cutoffs, exact = {}, {}
    for method in METHODS:
        stat = decision_statistic(method, alpha, beta, n, np.arange(n + 1))
        if mu == 0.0:
            cut = np.where(stat >= 1.0, -np.inf, np.inf)
        else:
            with np.errstate(over="ignore"):  # a cutoff past the floats reads +-inf
                cut = math.copysign(1.0, mu) * (mu / 2.0 - np.log(stat) / mu)
        cut.setflags(write=False)
        cutoffs[method] = cut
        # sign(mu) * x - c * |mu| is standard normal, so class 1 is predicted
        # with probability erfc(t / sqrt 2) / 2 at t = cutoff - c * |mu|, and
        # missed with erfc(-t / sqrt 2) / 2.
        tails = [side * (cut - c * abs(mu)) / math.sqrt(2.0) for c, side in ((0, 1.0), (1, -1.0))]
        exact[method] = tuple(math.fsum(pmf * [0.5 * math.erfc(v) for v in z]) for z in tails)
    return pmf, cutoffs, exact


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
    pmf, cutoffs, _ = _scenario(cfg.alpha, cfg.beta, cfg.mu, cfg.n)
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
    simulated blocks use; each risk mixes the normal tails past it over ``k``.
    """
    _, _, exact = _scenario(*_checked_scenario(alpha, beta, mu, n))
    if method not in exact:
        raise InvariantViolation(f"unknown method {method!r}")
    return exact[method]


def _cell_error_counts(cfg: SimConfig, c: int) -> dict[str, int]:
    def block(i: int) -> dict[str, int]:
        return _block_errors(cfg, c, i, min(BLOCK, cfg.reps - i * BLOCK))

    n_blocks = (cfg.reps + BLOCK - 1) // BLOCK
    if cfg.threads > 1 and n_blocks > 1:
        # Imported here: only a multi-threaded run pays for concurrent.futures.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(block, range(n_blocks)))
    else:
        results = [block(i) for i in range(n_blocks)]
    return {m: sum(counts[m] for counts in results) for m in METHODS}


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
    cells = [_cell_error_counts(cfg, c) for c in (0, 1)]
    q1 = cfg.alpha / (cfg.alpha + cfg.beta)
    class_prior = np.array([1.0 - q1, q1])
    out = {}
    for m in METHODS:
        errs = np.array([cell[m] for cell in cells], dtype=float) / cfg.reps
        ses = np.array([_smoothed_se(cell[m], cfg.reps) for cell in cells])
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
    exact_m0: float
    exact_m1: float
    m0: float | None = None
    m1: float | None = None
    risk_sum: float | None = None
    se: float | None = None
    z_m0: float | None = None
    z_m1: float | None = None


def risk_table(
    reps: int | None,
    seed: int,
    *,
    mu: float = 1.0,
    n: int = 10,
    alpha: float = 1.0,
    betas=(1.0, 14.0, 32.0, 100.0),
    threads: int = 1,
) -> list[RiskTableRow]:
    """Conditional misclassification risks across a grid of Beta parameters.

    One row per (beta, method) with the exact risks from the scenario's
    record.  With ``reps`` replications each row adds the two simulated
    conditional errors, their sum, the standard error of the sum, and each
    estimate's z-score against its exact value in units of its own
    (smoothed) standard error; with ``reps=None`` nothing is drawn and those
    fields stay ``None``.
    """
    if len(betas) == 0:
        raise InvariantViolation("the risk table needs at least one beta")
    rows = []
    for beta in betas:
        scenario = _checked_scenario(alpha, beta, mu, n)
        _, _, exact = _scenario(*scenario)  # built here, before any worker reads it
        if reps is not None:
            reports = conditional_risk_mc(SimConfig(*scenario, reps, seed, threads))
        for method in METHODS:
            mc = {}
            if reps is not None:
                rep = reports[method]
                z = (rep.per_class_error - exact[method]) / rep.std_err
                mc = dict(m0=float(rep.per_class_error[0]), m1=float(rep.per_class_error[1]),
                          risk_sum=rep.unweighted_sum, se=float(np.sqrt(np.sum(rep.std_err**2))),
                          z_m0=float(z[0]), z_m1=float(z[1]))
            rows.append(RiskTableRow(scenario[1], method, *exact[method], **mc))
    return rows
