"""Simulation protocol oracles, reproducibility, and trend checks."""

import hashlib
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import betaincinv
from scipy.stats import betabinom, norm

from relbelief import SimConfig, conditional_risk_mc, exact_conditional_risk, risk_table
from relbelief import simulate
from relbelief.cli import run
from relbelief.closed_form import predicts_one
from relbelief.errors import InvariantViolation
from relbelief.simulate import (
    _CHUNK,
    BLOCK,
    METHODS,
    _block_errors,
    _cell_error_counts,
    _cell_key,
    _draw_training_counts,
    beta_binomial_pmf,
)
from conftest import fresh_python


def enumerated_risks(alpha, beta, mu, n, method):
    """Independent exact oracle: enumerate the training class count.

    Conditionally on the true class, the count of class-1 training cases is
    beta-binomial and the new observation is a unit-variance Gaussian, so
    each conditional error probability is a finite mixture of normal tails.
    """
    out = {}
    for c in (0, 1):
        k = np.arange(n + 1)
        pmf = betabinom.pmf(k, n, alpha, beta)
        if method == "map":
            stat = (alpha + k) / (beta + n - k)
        else:
            stat = beta * (alpha + k) / (alpha * (beta + n - k))
        if mu == 0.0:
            predict_one = (stat >= 1.0).astype(float)
        else:
            cut = mu / 2.0 - np.log(stat) / mu
            predict_one = 1.0 - norm.cdf(cut - c * mu)
        err = (1.0 - predict_one) if c == 1 else predict_one
        out[c] = float(pmf @ err)
    return out[0], out[1]


def searchsorted_training_counts(u, n, a, b):
    """Oracle sampler: beta-binomial counts from uniforms, by inverting the CDF.

    Searching ``cdf[:-1]`` keeps ``k <= n`` even when the last cumulative sum
    rounds below one; the last count then absorbs that rounding.
    """
    cdf = np.cumsum(beta_binomial_pmf(n, a, b))
    return np.searchsorted(cdf[:-1], u, side="right")


def counted_training_counts(u, n, a, b):
    """Oracle sampler: draw the Beta rate, then count n Bernoulli labels.

    This builds the training sample the way the model describes it, with no
    beta-binomial algebra; ``u`` holds ``n + 1`` uniforms per row.
    """
    eps = betaincinv(a, b, u[:, 0])
    return (u[:, 1 : n + 1] < eps[:, None]).sum(axis=1)


def normals_key(cfg, c):
    """The normals' stream key, from its tag ``seed|alpha|mu|n|c`` written out."""
    digest = hashlib.sha256(f"{cfg.seed}|{cfg.alpha!r}|{cfg.mu!r}|{cfg.n}|{c}".encode()).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def rowwise_block_errors(cfgs, c, block_index, rows):
    """Oracle block in one pass per scenario: every row's training count,
    observation and ``predicts_one`` decision held at once, with no chunks and
    no per-count statistic.  Each scenario's counts come from its own stream;
    one draw of normals, from the stream keyed without beta, serves them all.
    """
    def stream(key):
        return Generator(Philox(SeedSequence(entropy=key, spawn_key=(block_index,))))

    x = c * cfgs[0].mu + stream(normals_key(cfgs[0], c)).standard_normal(rows)
    out = []
    for cfg in cfgs:
        per_k = _draw_training_counts(stream(_cell_key(cfg, c)), rows,
                                      beta_binomial_pmf(cfg.n, cfg.alpha, cfg.beta))
        k = np.repeat(np.arange(cfg.n + 1), per_k)
        f_ratio = np.exp(cfg.mu * x - cfg.mu * cfg.mu / 2.0)
        out.append({m: int(np.count_nonzero(predicts_one(m, cfg.alpha, cfg.beta, cfg.n, k, f_ratio)
                                            != bool(c)))
                    for m in METHODS})
    return out


sampler_laws = dict(
    n=st.integers(0, 30),
    alpha=st.floats(0.05, 200.0),
    beta=st.floats(0.05, 200.0),
)


class TestTrainingCountSampler:
    DRAWS = 20_000

    @settings(max_examples=60, deadline=None)
    @given(**sampler_laws, rows=st.integers(1, 5000))
    def test_counts_stay_in_range(self, n, alpha, beta, rows):
        per_k = _draw_training_counts(np.random.default_rng([n, rows]), rows,
                                      beta_binomial_pmf(n, alpha, beta))
        assert per_k.shape == (n + 1,)  # one entry per count k = 0..n, no row outside them
        assert per_k.dtype.kind == "i" and per_k.min() >= 0
        assert per_k.sum() == rows  # every row gets exactly one count
        # The oracle stays in range at both ends of the uniforms.
        u = np.array([0.0, np.nextafter(1.0, 0.0)])
        lo, hi = searchsorted_training_counts(u, n, alpha, beta).tolist()
        assert lo == 0 and 0 <= hi <= n

    def test_last_count_absorbs_cdf_rounding(self):
        # Here the pmf sums to 1 - 4.4e-16: numpy's multinomial gives the last
        # count the remainder, so every row still gets a count in 0..n.
        assert beta_binomial_pmf(1, 0.05, 0.05).sum() < 1.0
        per_k = _draw_training_counts(np.random.default_rng(1), self.DRAWS,
                                      beta_binomial_pmf(1, 0.05, 0.05))
        assert per_k.shape == (2,)
        assert per_k.sum() == self.DRAWS and per_k.min() > 0
        assert abs(per_k[1] / self.DRAWS - 0.5) <= 5 * np.sqrt(0.25 / self.DRAWS)
        assert searchsorted_training_counts(np.array([np.nextafter(1.0, 0.0)]), 1, 0.05,
                                            0.05).tolist() == [1]
        # With no training data every count is zero.
        no_data = _draw_training_counts(np.random.default_rng(2), 7, beta_binomial_pmf(0, 1.0, 1.0))
        assert no_data.tolist() == [7]

    # Fixed examples: a statistical bound is checked on many bins at once, so
    # a run must not depend on which parameters Hypothesis happens to draw.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**sampler_laws)
    def test_frequencies_match_beta_binomial(self, n, alpha, beta):
        rng = np.random.default_rng([n])
        pmf = beta_binomial_pmf(n, alpha, beta)
        freq = _draw_training_counts(rng, self.DRAWS, pmf) / self.DRAWS
        p = betabinom.pmf(np.arange(n + 1), n, alpha, beta)
        # Five standard errors, plus one count of slack where p * DRAWS is tiny.
        bound = 5.0 * (np.sqrt(p * (1.0 - p) / self.DRAWS) + 1.0 / self.DRAWS)
        assert np.all(np.abs(freq - p) <= bound)

    def _assert_same_law(self, new, old):
        # Two independent samples: the difference of the frequencies has twice
        # the binomial variance of the pooled frequency.
        pooled = (new + old) / (2 * self.DRAWS)
        bound = 5.0 * (np.sqrt(2.0 * pooled * (1.0 - pooled) / self.DRAWS) + 1.0 / self.DRAWS)
        assert np.all(np.abs(new - old) / self.DRAWS <= bound)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**sampler_laws)
    def test_agrees_with_counting_oracle(self, n, alpha, beta):
        rng = np.random.default_rng([n, 1])
        new = _draw_training_counts(rng, self.DRAWS, beta_binomial_pmf(n, alpha, beta))
        old = np.bincount(
            counted_training_counts(rng.random((self.DRAWS, n + 1)), n, alpha, beta),
            minlength=n + 1)
        self._assert_same_law(new, old)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**sampler_laws)
    def test_agrees_with_searchsorted_oracle(self, n, alpha, beta):
        rng = np.random.default_rng([n, 2])
        new = _draw_training_counts(rng, self.DRAWS, beta_binomial_pmf(n, alpha, beta))
        old = np.bincount(searchsorted_training_counts(rng.random(self.DRAWS), n, alpha, beta),
                          minlength=n + 1)
        self._assert_same_law(new, old)

    def test_overfull_pmf_is_redrawn_rescaled_from_the_unread_stream(self):
        # This log-space pmf sums to 1 + 1.2e-12, past numpy's 1e-12 slack.
        pmf = beta_binomial_pmf(*OVERFULL)
        assert pmf.sum() > 1.0 + 1e-12
        rng = Generator(Philox(11))
        with pytest.raises(ValueError, match="pvals"):
            rng.multinomial(self.DRAWS, pmf)
        # The rejected call read nothing from the stream...
        assert rng.random(8).tolist() == Generator(Philox(11)).random(8).tolist()
        # ...so the redraw is the draw on the rescaled pmf from the same state.
        per_k = _draw_training_counts(Generator(Philox(11)), self.DRAWS, pmf)
        want = Generator(Philox(11)).multinomial(self.DRAWS, pmf / pmf.sum())
        assert per_k.tolist() == want.tolist()
        assert per_k.sum() == self.DRAWS

    @settings(max_examples=60, deadline=None)
    @given(**sampler_laws, rows=st.integers(1, 5000), seed=st.integers(0, 2**32))
    def test_accepted_pmf_draws_are_unchanged(self, n, alpha, beta, rows, seed):
        pmf = beta_binomial_pmf(n, alpha, beta)
        want = Generator(Philox(seed)).multinomial(rows, pmf)
        got = _draw_training_counts(Generator(Philox(seed)), rows, pmf)
        assert got.tolist() == want.tolist()


# (n, alpha, beta) of a valid scenario whose beta-binomial pmf numpy's
# multinomial rejects as summing past one.
OVERFULL = (10_000, 31.953975047133053, 59.18095764700197)


# Per-count training draws of the first and last blocks of the scenarios of
# ``test_recorded_counts_are_unchanged``, from the training-count stream,
# recorded while that stream also fed the observations' normals.  Counts over
# 301 values of k are recorded as the first 16 hex digits of the sha256 of
# their little-endian int64 bytes.
TRAINING_COUNT_PINS = [
    (dict(beta=14.0, reps=3 * BLOCK + 5, seed=12345), 0, 0,
     [38324, 16467, 6825, 2641, 900, 275, 85, 13, 5, 1, 0]),
    (dict(beta=14.0, reps=3 * BLOCK + 5, seed=12345), 0, 3, [4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    (dict(beta=14.0, reps=3 * BLOCK + 5, seed=12345), 1, 0,
     [38343, 16449, 6823, 2621, 905, 306, 70, 16, 3, 0, 0]),
    (dict(beta=14.0, reps=3 * BLOCK + 5, seed=12345), 1, 3, [5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    (dict(alpha=0.5, beta=3.0, mu=-1.5, n=300, reps=BLOCK + 17, seed=7), 0, 0, "06458f50a7a29394"),
    (dict(alpha=0.5, beta=3.0, mu=-1.5, n=300, reps=BLOCK + 17, seed=7), 0, 1, "4ef452b4f6af3704"),
    (dict(alpha=0.5, beta=3.0, mu=-1.5, n=300, reps=BLOCK + 17, seed=7), 1, 0, "9b2a31b9143cde6d"),
    (dict(alpha=0.5, beta=3.0, mu=-1.5, n=300, reps=BLOCK + 17, seed=7), 1, 1, "1d309adeeeb69126"),
    (dict(beta=1.0, mu=0.0, n=0, reps=20_001, seed=2), 0, 0, [20001]),
    (dict(beta=1.0, mu=0.0, n=0, reps=20_001, seed=2), 1, 0, [20001]),
]


block_rows = st.one_of(st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, BLOCK]),
                       st.integers(1, BLOCK))
block_shifts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, -1e-3), st.floats(1e-3, 4.0))


class TestChunkedBlock:
    """The chunked block against the row-wise oracle, count for count."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 300), alpha=st.floats(0.05, 200.0),
           betas=st.lists(st.floats(0.05, 200.0), min_size=1, max_size=4, unique=True),
           mu=block_shifts, c=st.sampled_from((0, 1)), rows=block_rows,
           seed=st.integers(0, 2**32), block_index=st.integers(0, 20))
    # Two runs of about 32,768 rows, each crossing a chunk boundary.
    @example(n=1, alpha=1.0, betas=[1.0], mu=1.0, c=0, rows=BLOCK, seed=3, block_index=0)
    # A run of 59,548 rows that covers the first three chunks, and short runs.
    @example(n=10, alpha=1.0, betas=[100.0, 1.0], mu=-0.7, c=0, rows=BLOCK, seed=3,
             block_index=0)
    # Cutoffs of +-inf, and one run over the whole block.
    @example(n=6, alpha=1.0, betas=[1.0, 14.0], mu=0.0, c=1, rows=BLOCK, seed=5, block_index=1)
    @example(n=6, alpha=1.0, betas=[1.0, 14.0], mu=-0.0, c=0, rows=_CHUNK + 1, seed=5,
             block_index=1)
    @example(n=0, alpha=1.0, betas=[1.0], mu=1.0, c=1, rows=BLOCK, seed=2, block_index=0)
    @example(n=4, alpha=1.0, betas=[1.0, 32.0], mu=2.0, c=1, rows=1, seed=9, block_index=7)
    def test_counts_equal_rowwise_oracle(self, n, alpha, betas, mu, c, rows, seed, block_index):
        cfgs = [SimConfig(alpha=alpha, beta=beta, mu=mu, n=n, seed=seed) for beta in betas]
        want = rowwise_block_errors(cfgs, c, block_index, rows)
        # Every scenario counted per row (no run is few enough), then run by run.
        for max_runs in (0, n + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simulate, "_MAX_RUNS", max_runs)
                got = _block_errors(cfgs, c, block_index, rows)
            assert got == want
            assert [list(counts) for counts in got] == [list(METHODS)] * len(betas)

    @pytest.mark.parametrize("overfull", [False, True])
    @pytest.mark.parametrize("c", [0, 1])
    @pytest.mark.parametrize("mu", [0.0, -0.7, 1.0])
    def test_counts_equal_rowwise_oracle_at_ten_thousand(self, mu, c, overfull):
        # numpy rejects OVERFULL's pmf, so the block and the oracle draw it rescaled.
        n, alpha, beta = OVERFULL if overfull else (10_000, 1.0, 14.0)
        cfg = SimConfig(alpha=alpha, beta=beta, mu=mu, n=n, seed=99)
        for rows in (_CHUNK + 1, BLOCK):
            assert _block_errors([cfg], c, 3, rows) == rowwise_block_errors([cfg], c, 3, rows)

    def test_block_working_set_is_bounded(self):
        # One full block of four betas at n = 10,000 holds a few chunk-sized
        # arrays and each beta's count edges; the row-wise block needs several
        # 512 KB arrays at once (3.2 MB peak for one beta).
        cfgs = [SimConfig(alpha=1.0, beta=beta, n=10_000, seed=1) for beta in (1, 14, 32, 100)]
        _block_errors(cfgs, 1, 0, BLOCK)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            _block_errors(cfgs, 1, 1, BLOCK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000

    @pytest.mark.parametrize("threads", [1, 2])
    def test_csv_is_byte_identical_to_rowwise_oracle(self, tmp_path, monkeypatch, threads):
        argv = ["--seed", "2024", "--threads", str(threads), "risk-table",
                "--reps", str(3 * BLOCK + 5), "--betas", "1,14", "--n", "12", "--mu", "-0.8"]
        assert run(["--output-dir", str(tmp_path / "chunked"), *argv]) == 0
        monkeypatch.setattr(simulate, "_block_errors", rowwise_block_errors)
        assert run(["--output-dir", str(tmp_path / "rowwise"), *argv]) == 0
        chunked = (tmp_path / "chunked" / "risk_table.csv").read_bytes()
        assert chunked == (tmp_path / "rowwise" / "risk_table.csv").read_bytes()

    # Error counts recorded when the normals moved to a stream of their own,
    # keyed without beta, so a change to the draws shows even if the oracle
    # follows it.  The training counts kept their stream and its key's text:
    # ``TRAINING_COUNT_PINS`` holds draws recorded before the move.
    @pytest.mark.parametrize("kwargs,want", [
        (dict(beta=14.0, reps=3 * BLOCK + 5, seed=12345),
         [{"map": 500, "lrse": 55815}, {"map": 191596, "lrse": 74216}]),
        (dict(alpha=0.5, beta=3.0, mu=-1.5, n=300, reps=BLOCK + 17, seed=7),
         [{"map": 3073, "lrse": 13172}, {"map": 47946, "lrse": 29176}]),
        (dict(beta=1.0, mu=0.0, n=0, reps=20_001, seed=2),
         [{"map": 20001, "lrse": 20001}, {"map": 0, "lrse": 0}]),
    ])
    def test_recorded_counts_are_unchanged(self, kwargs, want):
        assert [_cell_error_counts([SimConfig(**kwargs)], c) for c in (0, 1)] == [[w] for w in want]

    @pytest.mark.parametrize("kwargs,c,block_index,want", TRAINING_COUNT_PINS)
    def test_recorded_training_counts_keep_their_bits(self, kwargs, c, block_index, want):
        cfg = SimConfig(**kwargs)
        rng = Generator(Philox(SeedSequence(entropy=_cell_key(cfg, c), spawn_key=(block_index,))))
        rows = min(BLOCK, cfg.reps - block_index * BLOCK)
        per_k = _draw_training_counts(rng, rows, beta_binomial_pmf(cfg.n, cfg.alpha, cfg.beta))
        assert per_k.sum() == rows
        digest = hashlib.sha256(per_k.astype("<i8").tobytes()).hexdigest()[:16]
        assert (per_k.tolist() if cfg.n <= 10 else digest) == want



class TestScenarioTypes:
    def test_integer_and_float_arguments_draw_one_stream(self):
        as_float = risk_table(reps=5000, seed=1, alpha=1.0, mu=1.0, n=10, betas=(14.0,))
        assert risk_table(reps=5000, seed=1, alpha=1, mu=1, n=10, betas=(14,)) == as_float
        assert risk_table(reps=np.int64(5000), seed=np.int64(1), alpha=np.float64(1.0),
                          mu=np.float32(1.0), n=np.int32(10), betas=(np.float64(14.0),)) == as_float
        assert risk_table(reps=5000.0, seed=1.0, alpha=1.0, n=10.0, betas=(14.0,)) == as_float

    def test_fields_are_coerced(self):
        cfg = SimConfig(alpha=1, beta=np.float32(2.0), mu=0, n=np.int64(3), reps=10.0,
                        seed=np.uint8(4))
        assert [type(v) for v in (cfg.alpha, cfg.beta, cfg.mu)] == [float] * 3
        assert [type(v) for v in (cfg.n, cfg.reps, cfg.seed)] == [int] * 3
        assert cfg == SimConfig(alpha=1.0, beta=2.0, mu=0.0, n=3, reps=10, seed=4)

    @pytest.mark.parametrize("field,value", [("n", 2.5), ("reps", math.inf), ("seed", math.nan),
                                             ("seed", "7"), ("n", None)])
    def test_rejects_a_non_integer_count(self, field, value):
        with pytest.raises(InvariantViolation, match=f"{field} must be an integer"):
            SimConfig(**{field: value})

    def test_a_count_above_the_bound_is_refused_before_any_array(self, monkeypatch):
        def no_arrays(*args):
            raise AssertionError("the training-count probabilities were built")

        monkeypatch.setattr(simulate, "beta_binomial_pmf", no_arrays)
        bound = simulate.MAX_N
        for call in (lambda n: risk_table(reps=None, seed=0, n=n, betas=(14.0,)),
                     lambda n: risk_table(reps=10, seed=0, n=n, betas=(14.0,)),
                     lambda n: exact_conditional_risk(1.0, 14.0, 1.0, n, "map"),
                     lambda n: SimConfig(n=n)):
            with pytest.raises(InvariantViolation, match=f"^n = {bound + 1} is above .*, {bound}$"):
                call(bound + 1)
        with pytest.raises(InvariantViolation, match="n must be finite"):
            SimConfig(n=10**400)
        with pytest.raises(AssertionError, match="were built"):  # the bound itself passes
            risk_table(reps=None, seed=0, n=bound, betas=(14.0,))


class TestExactRisk:
    @pytest.mark.parametrize("from_table", [False, True, None])
    @pytest.mark.parametrize("method", ["map", "lrse"])
    @pytest.mark.parametrize("mu", [1.0, 0.0, 2.5, 0.3])
    @pytest.mark.parametrize("alpha,beta,n", [(1.0, 1.0, 10), (1.0, 14.0, 10), (1.0, 100.0, 10),
                                              (0.05, 200.0, 30), (3.0, 0.5, 0), (200.0, 0.05, 1)])
    def test_matches_enumeration(self, alpha, beta, n, mu, method, from_table):
        if from_table is not False:  # a risk-table row's exact columns, drawn (True) or not
            rows = risk_table(reps=1 if from_table else None, seed=0, mu=mu, n=n, alpha=alpha,
                              betas=(beta,))
            (row,) = [r for r in rows if r.method == method]
            got = (row.exact_m0, row.exact_m1)
        else:
            got = exact_conditional_risk(alpha, beta, mu, n, method)
        want = enumerated_risks(alpha, beta, mu, n, method)
        assert got == pytest.approx(want, abs=1e-12, rel=0)

    @pytest.mark.parametrize("mu", [0.3, 1.0, 2.5])
    def test_negative_shift_flips_the_inequality(self, mu):
        # mu * x has the same law for mu and -mu, so the risks coincide; a
        # rule that kept the inequality for mu < 0 would swap the error sides.
        for method in ("map", "lrse"):
            assert exact_conditional_risk(1.0, 14.0, -mu, 10, method) == exact_conditional_risk(
                1.0, 14.0, mu, 10, method)
        cfg = SimConfig(alpha=1.0, beta=14.0, mu=-mu, n=10, reps=60_000, seed=17)
        for method, rep in conditional_risk_mc(cfg).items():
            exact = exact_conditional_risk(1.0, 14.0, -mu, 10, method)
            assert np.all(np.abs(rep.per_class_error - exact) <= 4 * rep.std_err)

    @pytest.mark.parametrize("mu", [1e-300, -1e-300, 5e-324])
    def test_tiny_shift_splits_the_tie_as_the_exact_risk(self, mu):
        # At alpha = beta = 1 the statistic of k = 5 of 10 is exactly 1, and
        # a ratio exp(mu * x - mu**2 / 2) rounds to 1 on every draw: the
        # simulated rule must still split that tie at x = mu / 2, as the
        # exact risk does, instead of sending every such row to class 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = risk_table(reps=1000, seed=0, mu=mu, n=10, alpha=1.0, betas=(1.0,))
        for row in rows:
            assert abs(row.z_m0) <= 4 and abs(row.z_m1) <= 4

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0, 10, "map"), (1.0, 1.0, 1.0, -1, "map"),
                                      (1.0, 1.0, 1.0, 10, "mode"), (1.0, 1.0, np.nan, 10, "map"),
                                      (1.0, np.inf, 1.0, 10, "map"), (np.inf, 1.0, 1.0, 10, "lrse"),
                                      (1.0, 1.0, -np.inf, 10, "lrse")])
    def test_rejects_an_invalid_scenario(self, args):
        with pytest.raises(InvariantViolation):
            exact_conditional_risk(*args)

    @pytest.mark.parametrize("reps", [None, BLOCK + 1])
    def test_risk_table_builds_each_scenario_once(self, reps):
        # Two threads draw each class's two blocks; none of them builds the record again.
        simulate._scenario.cache_clear()
        rows = risk_table(reps=reps, seed=0, betas=(1.0, 14.0, 32.0, 100.0), threads=2)
        assert simulate._scenario.cache_info().misses == 4
        assert [(r.m0 is None, r.z_m1 is None) for r in rows] == [(reps is None,) * 2] * 8

    def test_simulation_evaluates_no_exact_risk(self, monkeypatch):
        def refuse(v):
            raise AssertionError("erfc evaluated")

        simulate._scenario.cache_clear()
        monkeypatch.setattr(math, "erfc", refuse)
        reports = conditional_risk_mc(SimConfig(beta=14.0, n=2000, reps=1000, seed=5))
        assert list(reports) == list(METHODS)
        with pytest.raises(AssertionError, match="erfc evaluated"):
            exact_conditional_risk(1.0, 14.0, 1.0, 2000, "map")

    def test_risk_table_reports_exact_values_and_z_scores(self):
        reports = conditional_risk_mc(SimConfig(beta=14.0, reps=20_000, seed=3))
        for row in risk_table(reps=20_000, seed=3, betas=(14.0,)):
            exact = exact_conditional_risk(1.0, 14.0, 1.0, 10, row.method)
            assert (row.exact_m0, row.exact_m1) == exact
            rep = reports[row.method]
            np.testing.assert_allclose([row.z_m0, row.z_m1],
                                       (rep.per_class_error - exact) / rep.std_err, rtol=1e-15)
            assert abs(row.z_m0) <= 4 and abs(row.z_m1) <= 4


def exact_beta_binomial_pmf(n, a, b):
    """``P(k) = C(n, k) (a)_k (b)_(n-k) / (a + b)_n`` in rational arithmetic."""
    a, b = Fraction(a), Fraction(b)

    def rising(x, m):
        return math.prod((x + i for i in range(m)), start=Fraction(1))

    return [math.comb(n, k) * rising(a, k) * rising(b, n - k) / rising(a + b, n)
            for k in range(n + 1)]


EXTREME_PMF_PARAMETERS = [5e-324, 1e-300, 1e-20, 2.0**-21, 0.7, 14.0, 2.0**21, 1e16, 1e300]


class TestBetaBinomialPmf:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 40), a=st.floats(2.0**-20, 2.0**20), b=st.floats(2.0**-20, 2.0**20))
    def test_moderate_parameters_keep_their_bits(self, n, a, b):
        j = np.arange(n)
        log_p0 = np.sum(np.log((b + j) / (a + b + j)))
        steps = np.log((n - j) * (a + j) / ((j + 1) * (b + n - j - 1)))
        want = np.exp(log_p0 + np.concatenate(([0.0], np.cumsum(steps))))
        assert beta_binomial_pmf(n, a, b).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 12), a=st.sampled_from(EXTREME_PMF_PARAMETERS),
           b=st.sampled_from(EXTREME_PMF_PARAMETERS))
    def test_extreme_parameters_match_the_rational_pmf(self, n, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pmf = beta_binomial_pmf(n, a, b)
        for got, want in zip(pmf.tolist(), exact_beta_binomial_pmf(n, a, b)):
            assert abs(Fraction(got) - want) <= Fraction(1e-11) * want + Fraction(1e-300)

    @pytest.mark.parametrize("argv", [
        ["--mu", "1e-300", "--n", "10", "--alpha", "1e16", "--betas", "1e-300,1"],
        ["--mu", "1e308", "--n", "0", "--alpha", "3", "--betas", "0.5,1e308"],
        ["--mu", "40", "--betas", "1"],
    ])
    def test_extreme_scenarios_run_without_warnings(self, tmp_path, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(tmp_path), "risk-table", "--reps", "50", *argv]) == 0
        rows = json.loads((tmp_path / "risk_table.json").read_text())["rows"]
        for row in rows:
            for cell in ("M0", "M1", "exact_M0", "exact_M1", "z_M0", "z_M1"):
                assert math.isfinite(float(row[cell]))
            # The observation carries almost no signal or a perfect one, and
            # every statistic lies on one side of 1, so no rule errs both ways.
            assert abs(float(row["z_M0"])) < 1e-9 and abs(float(row["z_M1"])) < 1e-9


# Values at the float range's edges, and text that does not parse.
EDGE_VALUES = ["0", "-0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e308", "-1e308", "inf",
               "-inf", "nan", "1.5x"]


class TestRiskTableCli:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(reps=st.one_of(st.none(), st.integers(-1, 50)), n=st.integers(-1, 50),
           mu=st.sampled_from(EDGE_VALUES), alpha=st.sampled_from(EDGE_VALUES),
           betas=st.lists(st.sampled_from(EDGE_VALUES + ["1", "14"]), min_size=1, max_size=3))
    def test_edge_argvs_end_in_a_status_without_warnings(self, tmp_path_factory, reps, n, mu,
                                                         alpha, betas):
        out = tmp_path_factory.mktemp("edge")
        argv = ["--output-dir", str(out), "risk-table", "--n", str(n), "--mu", mu,
                "--alpha", alpha, "--betas", ",".join(betas)]
        argv += [] if reps is None else ["--reps", str(reps)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if "1.5x" in (mu, alpha):  # argparse refuses the option before any run starts
            assert code == 2 and not (out / "manifest.json").exists()
            return
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert (code, status) in {(0, "ok"), (2, "validation-error"), (1, "error")}

    def test_overfull_pmf_scenario_runs(self, tmp_path):
        n, alpha, beta = OVERFULL
        argv = ["--output-dir", str(tmp_path), "risk-table", "--reps", "1000", "--n", str(n),
                "--alpha", repr(alpha), "--betas", repr(beta)]
        assert run(argv) == 0
        rows = json.loads((tmp_path / "risk_table.json").read_text())["rows"]
        assert [r["method"] for r in rows] == ["map", "lrse"]
        for row in rows:
            exact = exact_conditional_risk(alpha, beta, 1.0, n, row["method"])
            for cell, p in zip(("M0", "M1"), exact):
                z = (float(row[cell]) - p) / math.sqrt(p * (1.0 - p) / 1000)
                assert abs(z) < 5

    def test_exact_table_draws_nothing(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the exact table ran the simulator")

        monkeypatch.setattr(simulate, "_block_errors", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(tmp_path), "risk-table", "--betas", "1,14,32,100"]) == 0
        rows = json.loads((tmp_path / "risk_table.json").read_text())["rows"]
        assert [(r["beta"], r["method"]) for r in rows] == [
            (b, m) for b in (1, 14, 32, 100) for m in METHODS]
        for row in rows:
            assert list(row) == ["beta", "method", "exact_M0", "exact_M1", "exact_sum"]
            want = enumerated_risks(1.0, row["beta"], 1.0, 10, row["method"])
            assert (row["exact_M0"], row["exact_M1"]) == pytest.approx(want, abs=1e-12, rel=0)
            assert row["exact_sum"] == pytest.approx(sum(want), abs=1e-12, rel=0)

    def test_benchmark_csv_is_unchanged(self, tmp_path):
        # risk_table.csv of the benchmark's argv, recorded when the betas of
        # a table came to share one stream of normals.
        argv = ["--output-dir", str(tmp_path), "--seed", "20261018", "--threads", "1",
                "risk-table", "--reps", "65536", "--betas", "1,14,32,100"]
        assert run(argv) == 0
        assert (tmp_path / "risk_table.csv").read_bytes() == BENCHMARK_RISK_TABLE.encode()


BENCHMARK_RISK_TABLE = """\
beta,method,M0,M1,sum,se,exact_M0,exact_M1,z_M0,z_M1
1,map,0.391708374023,0.392211914062,0.783920288086,0.00269688608134,0.388646499963,0.388646499963,1.60579199888,1.86944552591
1,lrse,0.391708374023,0.392211914062,0.783920288086,0.00269688608134,0.388646499963,0.388646499963,1.60579199888,1.86944552591
14,map,0.00270080566406,0.974304199219,0.977005004883,0.000650808233619,0.00250458065758,0.975061493732,0.965209257248,-1.22491895048
14,lrse,0.284194946289,0.384002685547,0.668197631836,0.00259104382026,0.284491342201,0.378830482968,-0.168230054318,2.72243925145
32,map,0.000198364257812,0.997360229492,0.99755859375,0.000208955912918,0.000126311999805,0.997233746994,1.26216614277,0.629244818852
32,lrse,0.292556762695,0.353897094727,0.646453857422,0.00257819949453,0.291600884151,0.3482063616,0.53788452892,3.04661518112
100,map,0,0.999984741211,0.999984741211,2.64282586041e-05,5.77316694436e-07,0.999959664809,-0.0378358928561,1.16209974349
100,lrse,0.302185058594,0.327835083008,0.630020141602,0.00256516834086,0.301299517341,0.323336902741,0.493673344079,2.45306696728
"""


class TestConditionalLawOracle:
    def test_rejection_sampling_confirms_conjugate_tilt(self):
        # The exact conditional of the mixing rate given the future class is
        # the prior updated by one pseudo-observation.  Sample the joint,
        # reject on the class, and compare moments within three standard
        # errors.
        rng = np.random.default_rng(314)
        alpha, beta = 1.0, 3.0
        eps = rng.beta(alpha, beta, size=400_000)
        c = rng.random(eps.size) < eps
        for cls, (a, b) in ((1, (alpha + 1, beta)), (0, (alpha, beta + 1))):
            kept = eps[c == bool(cls)]
            target_mean = a / (a + b)
            se = kept.std(ddof=1) / np.sqrt(kept.size)
            assert abs(kept.mean() - target_mean) <= 3 * se
            target_second = a * (a + 1) / ((a + b) * (a + b + 1))
            sq = kept**2
            se2 = sq.std(ddof=1) / np.sqrt(kept.size)
            assert abs(sq.mean() - target_second) <= 3 * se2


class TestAgainstEnumeration:
    @pytest.mark.parametrize("beta_val", [1.0, 14.0, 32.0])
    def test_default_protocol_matches_oracle(self, beta_val):
        cfg = SimConfig(alpha=1.0, beta=beta_val, mu=1.0, n=10, reps=150_000, seed=11)
        reports = conditional_risk_mc(cfg)
        for method in ("map", "lrse"):
            m0, m1 = enumerated_risks(1.0, beta_val, 1.0, 10, method)
            got = reports[method].per_class_error
            ses = reports[method].std_err
            assert abs(got[0] - m0) <= 4 * ses[0]
            assert abs(got[1] - m1) <= 4 * ses[1]

    def test_no_signal_in_observation_sums_to_one(self):
        # With no shift the new observation is uninformative; under the
        # default protocol the training counts are also independent of the
        # class, so each conditional error equals the rule's marginal
        # acceptance rate and the two add to one.
        m0, m1 = enumerated_risks(1.0, 1.0, 0.0, 10, "map")
        assert m0 + m1 == pytest.approx(1.0, abs=1e-12)
        cfg = SimConfig(alpha=1.0, beta=1.0, mu=0.0, n=10, reps=120_000, seed=3)
        reports = conditional_risk_mc(cfg)
        rep = reports["map"]
        se_sum = float(np.sqrt(np.sum(rep.std_err**2)))
        assert abs(rep.unweighted_sum - 1.0) <= 4 * se_sum
        assert abs(rep.per_class_error[0] - m0) <= 4 * rep.std_err[0]

    def test_no_training_data_is_constant_rule(self):
        # n=0 and mu=0 leaves nothing to learn from: both rules always
        # predict class 1, so the errors are exactly one and zero.
        cfg = SimConfig(alpha=1.0, beta=1.0, mu=0.0, n=0, reps=2_000, seed=1)
        reports = conditional_risk_mc(cfg)
        for method in ("map", "lrse"):
            np.testing.assert_allclose(reports[method].per_class_error, [1.0, 0.0])


class TestReproducibility:
    def test_identical_config_identical_counts(self):
        a = conditional_risk_mc(SimConfig(beta=14.0, reps=30_000, seed=99))
        b = conditional_risk_mc(SimConfig(beta=14.0, reps=30_000, seed=99))
        for method in ("map", "lrse"):
            np.testing.assert_array_equal(
                a[method].per_class_error, b[method].per_class_error
            )

    def test_worker_count_cannot_change_results(self):
        reps = BLOCK + 1234  # spans multiple blocks, last one partial
        a = conditional_risk_mc(SimConfig(beta=32.0, reps=reps, seed=4, threads=1))
        b = conditional_risk_mc(SimConfig(beta=32.0, reps=reps, seed=4, threads=5))
        for method in ("map", "lrse"):
            np.testing.assert_array_equal(
                a[method].per_class_error, b[method].per_class_error
            )

    def test_cli_threads_flag_cannot_change_counts(self, tmp_path):
        tables = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            assert run(["--output-dir", str(out), "--seed", "12345", "--threads", str(threads),
                        "risk-table", "--reps", str(3 * BLOCK + 5), "--betas", "1,14,32"]) == 0
            tables.append((out / "risk_table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_rows_do_not_depend_on_their_neighbours(self):
        reps, seed = BLOCK + 5, 31
        table = risk_table(reps=reps, seed=seed, betas=(1, 14, 32, 100))
        for beta in (1, 14, 32, 100):
            rows = [row for row in table if row.beta == beta]
            assert risk_table(reps=reps, seed=seed, betas=(beta,)) == rows
            reports = conditional_risk_mc(SimConfig(beta=beta, reps=reps, seed=seed))
            for row in rows:
                rep = reports[row.method]
                assert (row.m0, row.m1, row.risk_sum) == (*rep.per_class_error, rep.unweighted_sum)
                assert row.se == float(np.sqrt(np.sum(rep.std_err**2)))

    def test_table_draws_each_blocks_normals_once(self, monkeypatch):
        keys = []

        def counted_key(cfg, c, normals=False):
            keys.append(normals)
            return _cell_key(cfg, c, normals)

        monkeypatch.setattr(simulate, "_cell_key", counted_key)
        risk_table(reps=2 * BLOCK + 5, seed=3, betas=(1, 14, 32, 100))
        # Three blocks per class: one normals stream each, one counts stream per beta.
        assert keys.count(True) == 2 * 3
        assert keys.count(False) == 2 * 3 * 4

    def test_seed_changes_counts(self):
        a = conditional_risk_mc(SimConfig(beta=14.0, reps=30_000, seed=1))
        b = conditional_risk_mc(SimConfig(beta=14.0, reps=30_000, seed=2))
        assert not np.array_equal(
            a["lrse"].per_class_error, b["lrse"].per_class_error
        )

    def test_empty_beta_list_rejected(self):
        with pytest.raises(InvariantViolation, match="at least one beta"):
            risk_table(reps=100, seed=0, betas=())

    def test_single_replication_smoke(self):
        rows = risk_table(reps=1, seed=0, betas=(14.0,))
        for row in rows:
            assert 0.3 <= row.se <= 0.75  # smoothed, not degenerate


class TestTrends:
    def test_lrse_never_loses_by_more_than_noise(self):
        rows = risk_table(reps=60_000, seed=21)
        by_beta = {}
        for row in rows:
            by_beta.setdefault(row.beta, {})[row.method] = row
        for beta_val, methods in by_beta.items():
            combined_se = np.hypot(methods["map"].se, methods["lrse"].se)
            assert (
                methods["lrse"].risk_sum
                <= methods["map"].risk_sum + 3 * combined_se
            )

    def test_map_rare_class_error_grows_with_beta(self):
        rows = risk_table(reps=60_000, seed=22)
        m1 = [r.m1 for r in rows if r.method == "map"]
        ses = [r.se for r in rows if r.method == "map"]
        for (lo, hi), se in zip(zip(m1, m1[1:]), ses):
            assert hi >= lo - 3 * se

    def test_equal_shape_methods_identical_at_symmetric_prior(self):
        rows = [r for r in risk_table(reps=20_000, seed=8, betas=(1.0,))]
        assert rows[0].m0 == rows[1].m0 and rows[0].m1 == rows[1].m1


def test_import_leaves_scipy_special_unloaded(tmp_path):
    # The runtime is numpy-only: importing the package, simulating and loading
    # a binomial-family model load no scipy module.
    model = tmp_path / "binomial.json"
    model.write_text(json.dumps({"theta": ["a", "b"], "prior": [0.5, 0.5], "psi_map": ["a", "b"],
                                 "likelihood": {"family": "binomial", "n": 4, "p": [0.2, 0.7]}}))
    script = (
        "import sys, relbelief\n"
        "from relbelief.cli import run\n"
        f"assert run(['--output-dir', {str(tmp_path / 'run')!r}, '--seed', '1', 'risk-table',"
        " '--reps', '1000', '--betas', '14']) == 0\n"
        f"assert relbelief.load_model({str(model)!r}).n_x == 5\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert fresh_python(script) == "[]"


def test_exact_risk_table_loads_no_random_streams(tmp_path):
    # The exact table needs neither numpy's generators nor the stream keys'
    # hash; the first table that draws loads them.
    out = ["--output-dir", str(tmp_path / "run")]
    script = (
        "import sys\n"
        "from relbelief.cli import run\n"
        f"assert run({out!r} + ['risk-table', '--betas', '1,14']) == 0\n"
        "loaded = [m for m in ('numpy.random', 'hashlib') if m in sys.modules]\n"
        f"assert run({out!r} + ['--seed', '1', 'risk-table', '--reps', '1000', '--betas', '1,14']) == 0\n"
        "print(loaded, [m for m in ('numpy.random', 'hashlib') if m in sys.modules])\n"
    )
    assert fresh_python(script) == "[] ['numpy.random', 'hashlib']"


def test_cold_subcommands_load_only_what_they_run(tmp_path):
    # A cold process imports per subcommand: the model-file commands need
    # neither the simulator and its random streams nor the closed forms and
    # grids, and the closed-form commands need no grids.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "theta": ["a", "b", "c"], "prior": [0.5, 0.3, 0.2], "x": ["x0", "x1"],
        "likelihood": [[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]],
        "psi": ["p", "q"], "psi_map": ["p", "q", "q"],
    }))
    out = ["--output-dir", str(tmp_path / "run")]
    on_model = ["--model", str(model), "--x", "x0"]
    table_runs = [["estimate", *on_model, "--estimator", "lrse"],
                  ["region", *on_model, "--family", "rs", "--gamma", "0.5", "--sweep", "eta=0.1"],
                  ["validate", "--model", str(model)]]
    closed_form_runs = [["classify", "--psi1", "0.2", "--psi2", "0.7", "--epsilon", "0.1",
                         "--x", "1", "--method", "lrse", "--risks"],
                        ["predict", "--kind", "class", "--f-ratio", "1.5"]]
    never = ["numpy.ma", "numpy.random", "relbelief.simulate", "relbelief.discretize",
             "relbelief.quadrature"]
    script = (
        "import sys\n"
        "from relbelief.cli import run\n"
        f"assert all(run({out!r} + argv) == 0 for argv in {table_runs!r})\n"
        f"loaded = [m for m in {never + ['hashlib', 'relbelief.closed_form']!r} if m in sys.modules]\n"
        f"assert all(run({out!r} + argv) == 0 for argv in {closed_form_runs!r})\n"
        f"print(loaded, [m for m in {never!r} if m in sys.modules])\n"
    )
    assert fresh_python(script) == "[] []"
