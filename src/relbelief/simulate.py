"""Exact conditional misclassification risks, checked by seeded Monte Carlo.

Given the conditioning class ``c``, the comparison between the class
predictors depends on the training sample only through the count ``k`` of
class-1 training cases, which is beta-binomial, and each method's decision
is a cutoff in ``x`` per ``k``.  One cached record per scenario ``(alpha,
beta, mu, n)`` holds the pmf of ``k``, the cutoffs and, once read, the exact
risks, each a beta-binomial mixture of normal tails.

The Monte Carlo check walks the blocks of all of a table's betas at once.
Per beta a block draws how many of its replications fall on each ``k`` as
one multinomial over the pmf, so the rows of one ``k`` form one run, then
walks them in chunks of ``_CHUNK`` rows: each chunk draws one standard
normal ``Z`` per row for the new observation ``x = c * mu + Z`` and counts,
per beta, the rows that reach the cutoff of their ``k``.  A beta whose
block has at most ``_MAX_RUNS`` nonempty runs compares each run's slice of
the chunk with its one cutoff; a beta with more gives every row of the
chunk its run's cutoff and compares once, since a Python call per run
costs more than that array.  The choice is made once per beta and block,
and both ways count the same rows.  So a block's working set stays at a
few chunk-sized arrays.

A block's training counts come from a counter-based stream keyed by (seed,
scenario, class, block index), its normals from one keyed by (seed, alpha,
mu, n, class, block index) that every beta reads.  So error counts are
bit-identical for any thread count, each row equals its one-beta table, and
drawing the normals chunk by chunk does not change them either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closed_form import _checked_prior, _integer, decision_statistic
from .errors import InvariantViolation
from .losses import RiskReport
from .model import _fsum

BLOCK = 65536  # fixed logical block size; independent of worker count
_CHUNK = 16384  # rows per chunk of a block; bounds the block's working set
# The most nonempty training counts a block counts run by run.  One full block
# of betas 1, 14, 32 and 100, one class and its normals included, took per row
# against run by run 1.62/1.39 ms at n = 10 (11 to 5 runs), 1.69/1.53 at n = 20
# (21 to 6), 1.64/1.58 at n = 30 (31 to 8), 1.64/1.72 at n = 50 (51 to 9) and
# 1.87/3.22 ms at n = 300 (301 to 35), in-process on a 2-vCPU x86-64 machine.
_MAX_RUNS = 16

METHODS = ("map", "lrse")  # every scenario computes both
# The largest training count, discretize.MAX_BINS's figure: risk-table --n 1000000
# --betas 14 took 1.2 s and 122 MB peak memory on a 2-vCPU x86-64 machine.
MAX_N = 1_000_000


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


def _checked_scenario(alpha, beta, mu, n) -> tuple[float, float, float, int]:
    """The scenario ``(alpha, beta, mu, n)`` as three floats and an int, once checked."""
    alpha, beta, n = _checked_prior(alpha, beta, n)
    if not math.isfinite(mu := float(mu)):
        raise InvariantViolation("mu must be finite")
    if n > MAX_N:  # refused before the n + 1 training-count probabilities are made
        raise InvariantViolation(f"n = {n} is above the largest training count, {MAX_N}")
    return alpha, beta, mu, n


def _cell_key(cfg: SimConfig, c: int, normals: bool = False) -> list[int]:
    """Stable 128-bit stream key for one (scenario, class) cell.

    The tag's text is fixed, its constant ``0`` field included: changing any
    character moves every draw.  The normals' tag drops ``beta`` and the ``0``.
    """
    import hashlib  # loaded only by a run that draws
    fields = (cfg.seed, cfg.alpha, cfg.mu, cfg.n, c) if normals else (
        cfg.seed, cfg.alpha, cfg.beta, cfg.mu, cfg.n, 0, c)
    digest = hashlib.sha256("|".join(map(str, fields)).encode()).digest()
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


def _draw_training_counts(rng: np.random.Generator, rows: int, pmf: np.ndarray) -> np.ndarray:
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


@functools.lru_cache(maxsize=64)  # each block of a table reads every beta's record
def _scenario(alpha: float, beta: float, mu: float, n: int):
    """The pmf of ``k`` and each method's cutoff per ``k``.

    One record per checked scenario, its arrays read-only, for every seed's
    blocks and :func:`exact_conditional_risk`.  Class 1 is predicted when
    ``f_ratio * stat >= 1``, that is when ``mu * x >= mu**2 / 2 - log(stat)``:
    when ``sign(mu) * x`` is at least ``sign(mu) * (mu / 2 - log(stat) / mu)``.
    At ``mu == 0`` the cutoff is ``-inf`` where ``stat >= 1`` and ``inf``
    elsewhere.
    """
    pmf = beta_binomial_pmf(n, alpha, beta)
    pmf.setflags(write=False)
    cutoffs, exact = {}, {}  # exact: each method's (M0, M1), filled when first read
    for method in METHODS:
        stat = decision_statistic(method, alpha, beta, n, np.arange(n + 1))
        if mu == 0.0:
            cut = np.where(stat >= 1.0, -np.inf, np.inf)
        else:
            with np.errstate(over="ignore"):  # a cutoff past the floats reads +-inf
                cut = math.copysign(1.0, mu) * (mu / 2.0 - np.log(stat) / mu)
        cut.setflags(write=False)
        cutoffs[method] = cut
    return pmf, cutoffs, exact


def _block_errors(cfgs, c: int, block_index: int, rows: int) -> list[dict[str, int]]:
    """Exact integer error counts of one block of replications, per scenario.

    The scenarios differ only in ``beta``.  Each one's per-k training counts
    come from its own keyed stream, the normals from one that they share, so
    neither scheduling nor the other betas change a scenario's draws.  A
    scenario's rows with count ``k`` form one run, the runs in order of
    ``k``, and the normals are independent of the counts.  Each chunk draws
    its normals once, in stream order, and counts every scenario's rows that
    reach their cutoff: run by run against each run's scalar cutoff where
    the scenario has at most ``_MAX_RUNS`` nonempty runs, else against a
    per-row array of cutoffs.  Both count the same rows.
    """
    from numpy.random import Generator, Philox, SeedSequence  # loaded only by a run that draws

    def stream(cfg: SimConfig, normals: bool = False) -> Generator:
        return Generator(Philox(SeedSequence(_cell_key(cfg, c, normals), spawn_key=(block_index,))))
    # Per scenario: its runs if few, count edges, cutoffs and the rows that predict class 1.
    cells = []
    for cfg in cfgs:
        pmf, cutoffs, _ = _scenario(cfg.alpha, cfg.beta, cfg.mu, cfg.n)
        per_k = _draw_training_counts(stream(cfg), rows, pmf)
        edges, runs = np.concatenate(([0], np.cumsum(per_k))), None
        if np.count_nonzero(per_k) <= _MAX_RUNS:  # each run as (start, end, cutoff per method)
            ks = np.flatnonzero(per_k)
            runs = list(zip(edges[ks].tolist(), edges[ks + 1].tolist(),
                            zip(*(cutoffs[m][ks].tolist() for m in METHODS))))
        cells.append((runs, edges, cutoffs, dict.fromkeys(METHODS, 0)))
    normals, mu = stream(cfgs[0], normals=True), cfgs[0].mu
    for lo in range(0, rows, _CHUNK):
        hi = min(lo + _CHUNK, rows)
        x = c * mu + normals.standard_normal(hi - lo)
        signed = x if mu >= 0 else -x
        for runs, edges, cutoffs, hits in cells:
            if runs is None:
                rows_per_k = np.diff(np.clip(edges, lo, hi))
                for method, cut in cutoffs.items():
                    hits[method] += int(np.count_nonzero(signed >= np.repeat(cut, rows_per_k)))
                continue
            for start, end, cuts in runs:
                if start < hi and end > lo:
                    part = signed[max(start - lo, 0) : end - lo]
                    for method, cut in zip(METHODS, cuts):
                        hits[method] += int(np.count_nonzero(part >= cut))
    return [{m: rows - h if c else h for m, h in hits.items()} for *_, hits in cells]


def exact_conditional_risk(
    alpha: float, beta: float, mu: float, n: int, method: str
) -> tuple[float, float]:
    """Exact conditional misclassification risks ``(M0, M1)`` of one method.

    Given the class ``c`` and the training count ``k``, the rule predicts
    class 1 when ``sign(mu) * x`` reaches the cutoff of ``k`` that the
    simulated blocks use; each risk mixes the normal tails past it over ``k``.
    """
    pmf, cutoffs, exact = _scenario(*_checked_scenario(alpha, beta, mu, n))
    if method not in cutoffs:
        raise InvariantViolation(f"unknown method {method!r}")
    if method not in exact:
        # sign(mu) * x - c * |mu| is standard normal: class 1 is predicted with
        # probability erfc(t / sqrt 2) / 2 at t = cutoff - c * |mu|, missed at -t.
        tails = [side * (cutoffs[method] - c * abs(mu)) / math.sqrt(2.0)
                 for c, side in ((0, 1.0), (1, -1.0))]
        exact[method] = tuple(_fsum(pmf * [0.5 * math.erfc(v) for v in z]) for z in tails)
    return exact[method]


def _cell_error_counts(cfgs, c: int) -> list[dict[str, int]]:
    def block(i: int) -> list[dict[str, int]]:  # the scenarios share reps, seed and threads
        return _block_errors(cfgs, c, i, min(BLOCK, cfgs[0].reps - i * BLOCK))

    n_blocks = (cfgs[0].reps + BLOCK - 1) // BLOCK
    if cfgs[0].threads > 1 and n_blocks > 1:
        # Imported here: only a multi-threaded run pays for concurrent.futures.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfgs[0].threads) as pool:
            results = list(pool.map(block, range(n_blocks)))
    else:
        results = [block(i) for i in range(n_blocks)]
    return [{m: sum(counts[m] for counts in cell) for m in METHODS} for cell in zip(*results)]


def _smoothed_se(errors: int, reps: int) -> float:
    # Agresti-Coull style smoothing keeps the standard error meaningful at
    # extreme counts (a single replication reports about 0.5, not 0).
    p = (errors + 1.0) / (reps + 2.0)
    return math.sqrt(p * (1.0 - p) / reps)


def _mc_reports(cfgs):  # each scenario's reports, in order, from one walk over the blocks
    for cfg, *cells in zip(cfgs, *(_cell_error_counts(cfgs, c) for c in (0, 1))):
        q1 = cfg.alpha / (cfg.alpha + cfg.beta)
        class_prior = np.array([1.0 - q1, q1])
        reports = {}
        for m in METHODS:
            errs = np.array([cell[m] for cell in cells], dtype=float) / cfg.reps
            ses = np.array([_smoothed_se(cell[m], cfg.reps) for cell in cells])
            reports[m] = RiskReport(per_class_error=errs, unweighted_sum=float(errs.sum()),
                                    prior_weighted_sum=float(errs @ class_prior),
                                    prior_risk=float(errs.sum()), std_err=ses)
        yield reports


def conditional_risk_mc(cfg: SimConfig) -> dict[str, RiskReport]:
    """Monte Carlo conditional misclassification risks per method.

    Returns one report per method whose per-class entries are the estimated
    probabilities of misclassifying class 0 and class 1 respectively, with
    matched standard errors.  The prior-weighted aggregate uses the prior
    predictive class weights, and the prior risk under the prediction loss
    equals the plain sum of the two conditional errors.  The estimates are
    those of this beta's row in :func:`risk_table`.
    """
    return next(_mc_reports([cfg]))


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
    fields stay ``None``.  Rows share their normals, so their z-scores correlate.
    """
    if len(betas) == 0:
        raise InvariantViolation("the risk table needs at least one beta")
    scenarios = [_checked_scenario(alpha, beta, mu, n) for beta in betas]
    # Every record is built here, before any worker reads it.
    exact = [[exact_conditional_risk(*s, m) for m in METHODS] for s in scenarios]
    reports = [None] * len(scenarios) if reps is None else _mc_reports(
        [SimConfig(*s, reps, seed, threads) for s in scenarios])
    rows = []
    for scenario, risks, report in zip(scenarios, exact, reports):
        for method, exact_risks in zip(METHODS, risks):
            mc = {}
            if report is not None:
                rep = report[method]
                z = (rep.per_class_error - exact_risks) / rep.std_err
                mc = dict(m0=float(rep.per_class_error[0]), m1=float(rep.per_class_error[1]),
                          risk_sum=rep.unweighted_sum, se=float(np.sqrt(np.sum(rep.std_err**2))),
                          z_m0=float(z[0]), z_m1=float(z[1]))
            rows.append(RiskTableRow(scenario[1], method, *exact_risks, **mc))
    return rows
