"""Array quadrature and grid reuse, against two recursive scalar oracles.

The first oracle is the depth-first recursion that ``integrate_bins``
replaced: one G7-K15 pair per call, bisecting until the pair agrees.  Both
sides take the same acceptance decisions, so they differ only by rounding
in the sums and in the order converged pieces are added; bins must agree
within 1e-14 relative.  The second oracle is the 10-point Gauss-Legendre
recursion the kernel used before, which bisects until each whole panel
agrees with its two half panels: another rule with the same 1e-10 target,
so it checks the answers rather than the decisions.
"""

import dataclasses
import math
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relbelief.discretize as discretize
from relbelief import NormalNormalTestbed, QuadratureFailure, grid_tables
from relbelief import quadrature
from relbelief.cli import run
from relbelief.quadrature import integrate_bins

from conftest import fresh_python

REL_TOL = 1e-14
TARGET = 1e-10  # the kernel's relative error target

# The kernel's G7-K15 table; checked against its defining properties below.
_NODES, _KRONROD, _GAUSS = quadrature._NODES, quadrature._KRONROD, quadrature._GAUSS


def test_kronrod_table():
    # G7 is the 7-point Gauss-Legendre rule, on every other K15 node.
    nodes, weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(_NODES[1::2], nodes, rtol=0, atol=4e-16)
    np.testing.assert_allclose(_GAUSS, weights, rtol=0, atol=4e-16)
    # K15 integrates polynomials up to degree 22 exactly, G7 up to degree 13.
    np.testing.assert_array_equal(_NODES, -_NODES[::-1])
    for degree in range(0, 23, 2):
        exact = 2.0 / (degree + 1)
        assert _KRONROD @ _NODES**degree == pytest.approx(exact, rel=1e-15, abs=0)
        if degree <= 13:
            assert _GAUSS @ _NODES[1::2] ** degree == pytest.approx(exact, rel=1e-15, abs=0)


def test_kernel_needs_no_scipy():
    # The table is written out, so the runtime depends on numpy alone.
    script = "import relbelief.quadrature, sys; assert 'scipy' not in sys.modules; print('ok')"
    assert fresh_python(script) == "ok"


# -- scalar oracles -----------------------------------------------------------


def _pair(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    values = np.asarray(f(mid + half * _NODES), dtype=float)
    return half * float(_KRONROD @ values), half * float(_GAUSS @ values[1::2])


def oracle_integral(f, a, b, rel_tol=1e-10, *, max_depth=48):
    if not b > a:
        raise QuadratureFailure(f"empty interval [{a}, {b}]")

    def recurse(lo, hi, depth):
        kronrod, gauss = _pair(f, lo, hi)
        if abs(kronrod - gauss) <= rel_tol * abs(kronrod) + 1e-300:
            return kronrod
        if depth >= max_depth:
            raise QuadratureFailure(f"no convergence on [{lo}, {hi}] after depth {depth}")
        mid = 0.5 * (lo + hi)
        return recurse(lo, mid, depth + 1) + recurse(mid, hi, depth + 1)

    return recurse(float(a), float(b), 0)


_GL10_NODES, _GL10_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _gl10_panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(_GL10_WEIGHTS @ np.asarray(f(mid + half * _GL10_NODES), dtype=float))


def gl10_integral(f, a, b, rel_tol=1e-10, *, max_depth=48):
    """The second oracle: a GL10 panel against the sum of its two half panels."""

    def recurse(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left = _gl10_panel(f, lo, mid)
        right = _gl10_panel(f, mid, hi)
        refined = left + right
        if abs(refined - whole) <= rel_tol * abs(refined) + 1e-300:
            return refined
        if depth >= max_depth:
            raise QuadratureFailure(f"no convergence on [{lo}, {hi}] after depth {depth}")
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    return recurse(float(a), float(b), _gl10_panel(f, float(a), float(b)), 0)


def oracle_bins(f, edges, integral=oracle_integral):
    """A scalar oracle per bin; for a stacked integrand, per row."""
    edges = np.asarray(edges, dtype=float)
    probe = np.asarray(f(edges[:1]))
    if probe.ndim == 2:
        return np.array([oracle_bins(lambda t, r=r: np.asarray(f(t))[r], edges, integral)
                         for r in range(probe.shape[0])])
    return np.array([integral(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])


class CountingIntegrand:
    """Wraps an integrand and counts its calls (one per oracle panel)."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.f(t)


# -- integrands that need several bisection levels --------------------------


def spike(center):
    return lambda t: np.exp(-0.5 * ((t - center) / 1e-3) ** 2) / (1e-3 * math.sqrt(2 * math.pi))


def oscillation(t):
    return np.sin(40.0 * t)


def inverse_sqrt(t):
    return np.abs(t) ** -0.5


def assert_bins_match(f, edges, scale=None):
    """``integrate_bins`` against both oracles; ``scale`` bounds each |integral|."""
    got = integrate_bins(f, edges)
    want = oracle_bins(f, edges)
    bound = np.abs(want) if scale is None else scale
    np.testing.assert_array_less(np.abs(got - want), REL_TOL * bound + 1e-300)
    # The earlier rule is held to the target on the scale of the largest
    # bin: where every GL10 node of a bin sees a spike's far tail below the
    # 1e-300 floor, it reads the bin as about zero (4e-303 for the pinned
    # spike example, whose exact mass G7-K15 finds, 2.6756e-266).
    other_rule = oracle_bins(f, edges, gl10_integral)
    np.testing.assert_array_less(np.abs(got - other_rule), TARGET * np.max(bound) + 1e-300)


widths = st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=6)


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "f, edges, scale",
        [
            (spike(0.3), [0.0, 0.25, 0.3004, 1.0], None),
            (oscillation, [0.0, 0.7, 1.9, math.pi], "width"),
            (inverse_sqrt, [1e-8, 1e-3, 0.5, 2.0], None),
        ],
        ids=["spike", "sin40", "inverse-sqrt"],
    )
    def test_bisection_path(self, f, edges, scale):
        edges = np.array(edges)
        counted = CountingIntegrand(f)
        oracle_bins(counted, edges)
        # One pair per bin means no bisection; these need many levels.
        assert counted.calls > (edges.size - 1) + 20
        assert_bins_match(f, edges, np.diff(edges) if scale == "width" else None)

    @settings(max_examples=40, deadline=None)
    @given(start=st.floats(-2.0, 2.0), steps=widths, where=st.floats(0.0, 1.0))
    @example(start=0.0, where=0.744140625, steps=[
        0.23828125, 0.00390625, 0.3828125, 0.23828125, 0.021484375, 0.001953125])
    def test_spike(self, start, steps, where):
        edges = start + np.concatenate([[0.0], np.cumsum(steps)])
        center = edges[0] + where * (edges[-1] - edges[0])
        assert_bins_match(spike(center), edges)

    @settings(max_examples=40, deadline=None)
    @given(start=st.floats(-2.0, 2.0), steps=widths)
    def test_oscillation(self, start, steps):
        # The integral of sin(40 t) over a bin may cancel to nearly zero, so
        # the error is judged against the bin width, which bounds the
        # integral of |sin(40 t)|.
        edges = start + np.concatenate([[0.0], np.cumsum(steps)])
        assert_bins_match(oscillation, edges, np.diff(edges))

    @settings(max_examples=40, deadline=None)
    @given(start=st.floats(1e-6, 0.1), steps=widths)
    def test_inverse_sqrt_away_from_zero(self, start, steps):
        edges = start + np.concatenate([[0.0], np.cumsum(steps)])
        assert_bins_match(inverse_sqrt, edges)

    @settings(max_examples=20, deadline=None)
    @given(start=st.floats(-1.0, 1.0), steps=widths, where=st.floats(0.0, 1.0))
    def test_small_batches(self, start, steps, where):
        # Batches of two intervals split every pass, as grids of more than
        # one batch of bins do.
        edges = start + np.concatenate([[0.0], np.cumsum(steps)])
        center = edges[0] + where * (edges[-1] - edges[0])
        with mock.patch.object(quadrature, "_BATCH", 2):
            assert_bins_match(spike(center), edges)

    @pytest.mark.parametrize("lam", [0.05, 0.0125])
    def test_testbed_grid_masses(self, lam):
        cmodel = NormalNormalTestbed(tau=1.0, sigma=1.0).continuous_model()
        x = 1.0
        tables, grid = grid_tables(cmodel, x, lam)
        prior = oracle_bins(cmodel.prior_density, grid.edges)
        joint = oracle_bins(
            lambda t: cmodel.prior_density(t) * np.exp(cmodel.likelihood(t, x)), grid.edges
        )
        np.testing.assert_allclose(grid.bin_prior, prior, rtol=REL_TOL, atol=0)
        np.testing.assert_allclose(tables.marg_post, joint / joint.sum(), rtol=REL_TOL, atol=0)

    def test_depth_limit_matches_oracle(self):
        # Same depth accounting: both fail below the depth the integrand
        # needs and agree from that depth on.
        f = spike(0.3)
        outcomes = []
        for depth in range(16):
            try:
                want = oracle_integral(f, 0.0, 1.0, max_depth=depth)
            except QuadratureFailure:
                with mock.patch.object(quadrature, "_MAX_DEPTH", depth), \
                        pytest.raises(QuadratureFailure):
                    integrate_bins(f, [0.0, 1.0])
                outcomes.append("fail")
            else:
                with mock.patch.object(quadrature, "_MAX_DEPTH", depth):
                    got = integrate_bins(f, [0.0, 1.0])[0]
                assert got == pytest.approx(want, rel=REL_TOL)
                outcomes.append("ok")
        assert "fail" in outcomes and "ok" in outcomes


# -- stacked integrands -------------------------------------------------------


def smooth(t):
    return np.exp(-0.5 * t * t)


def stacked(*columns):
    return lambda t: np.stack([f(t) for f in columns])


def pathological(kind, edges, where):
    if kind == "spike":
        return spike(edges[0] + where * (edges[-1] - edges[0]))
    return {"sin40": oscillation, "inverse-sqrt": inverse_sqrt}[kind]


def outcome(integrate):
    """The bins' bytes, or the failure's type and message."""
    try:
        return np.asarray(integrate()).tobytes()
    except QuadratureFailure as exc:
        return type(exc), str(exc)


class TestStackedColumns:
    @pytest.mark.parametrize("kind", ["spike", "sin40", "inverse-sqrt"])
    @settings(max_examples=30, deadline=None)
    @given(start=st.floats(1e-6, 1.0), steps=widths, where=st.floats(0.0, 1.0),
           smooth_first=st.booleans())
    def test_columns_match_one_column_calls(self, kind, start, steps, where, smooth_first):
        edges = start + np.concatenate([[0.0], np.cumsum(steps)])
        columns = [smooth, pathological(kind, edges, where)]
        if not smooth_first:
            columns.reverse()
        got = integrate_bins(stacked(*columns), edges)
        assert got.shape == (2, edges.size - 1)
        for row, f in zip(got, columns):
            assert row.tobytes() == integrate_bins(f, edges).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(start=st.floats(-1.0, 1.0), steps=widths, where=st.floats(0.0, 1.0))
    def test_small_batches(self, start, steps, where):
        # Cut into batches, a pass may add a bin's pieces in another order
        # than the column's own call: equal up to rounding.
        edges = start + np.concatenate([[0.0], np.cumsum(steps)])
        columns = [spike(edges[0] + where * (edges[-1] - edges[0])), smooth]
        with mock.patch.object(quadrature, "_BATCH", 2):
            got = integrate_bins(stacked(*columns), edges)
            for row, f in zip(got, columns):
                want = integrate_bins(f, edges)
                np.testing.assert_array_less(np.abs(row - want), REL_TOL * np.abs(want) + 1e-300)

    def test_three_columns_and_one_row(self):
        edges = np.linspace(0.1, 2.0, 7)
        columns = [smooth, oscillation, inverse_sqrt]
        got = integrate_bins(stacked(*columns), edges)
        for row, f in zip(got, columns):
            assert row.tobytes() == integrate_bins(f, edges).tobytes()
        (row,) = integrate_bins(stacked(spike(0.3)), edges)
        assert row.tobytes() == integrate_bins(spike(0.3), edges).tobytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "mixed-inf", "half-panel-inf"])
    @pytest.mark.parametrize("smooth_first", [True, False])
    def test_non_finite_column_fails_as_alone(self, bad, smooth_first):
        # A node of bin [0, 0.5] that only K15 reads: its G7 value stays finite.
        bad_node = 0.25 + 0.25 * _NODES[0]
        f = {
            "nan": lambda t: np.full(np.shape(t), np.nan),
            "inf": lambda t: np.where(t > 0.6, np.inf, 1.0),
            "mixed-inf": lambda t: np.where(t > 0.6, np.inf, -np.inf),
            "half-panel-inf": lambda t: np.where(t == bad_node, np.inf, 1.0),
        }[bad]
        edges = [0.0, 0.5, 1.0]
        columns = [smooth, f] if smooth_first else [f, smooth]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = outcome(lambda: integrate_bins(f, edges))
            assert alone[0] is QuadratureFailure and "non-finite" in alone[1]
            assert outcome(lambda: integrate_bins(stacked(*columns), edges)) == alone

    def test_non_finite_where_column_is_done_is_ignored(self):
        # The constant column is accepted on the first pass over [0, 1].
        # The spike column then bisects towards 0.3 and reaches two K15
        # nodes of [0.25, 0.375], one of them a G7 node, where the constant
        # column is infinite; that value must neither raise, nor warn, nor
        # reach the constant column's bin.
        holes = 0.3125 + 0.0625 * _NODES[:2]
        seen = []

        def constant_with_hole(t):
            seen.append(np.isin(holes, t).all())
            return np.where(np.isin(t, holes), np.inf, 1.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = integrate_bins(constant_with_hole, [0.0, 1.0])
            assert not any(seen)
            got = integrate_bins(stacked(constant_with_hole, spike(0.3)), [0.0, 1.0])
        assert any(seen)
        assert got[0].tobytes() == alone.tobytes()
        assert got[1].tobytes() == integrate_bins(spike(0.3), [0.0, 1.0]).tobytes()

    @pytest.mark.parametrize("smooth_first", [True, False])
    def test_depth_limit_fails_as_alone(self, smooth_first):
        edges = [0.0, 0.25, 0.3004, 1.0]
        f = spike(0.3)
        columns = [smooth, f] if smooth_first else [f, smooth]
        kinds = set()
        for depth in range(14):
            with mock.patch.object(quadrature, "_MAX_DEPTH", depth):
                alone = outcome(lambda: integrate_bins(f, edges))
                together = outcome(lambda: integrate_bins(stacked(*columns), edges))
            if isinstance(alone, tuple):
                assert together == alone
                kinds.add("fail")
            else:
                row = np.frombuffer(together, dtype=float).reshape(2, -1)[columns.index(f)]
                assert row.tobytes() == alone
                kinds.add("ok")
        assert kinds == {"fail", "ok"}


# -- integrands that never converge ------------------------------------------


def never_converging():
    noise = np.random.default_rng(7)
    return {
        "nan": lambda t: np.full(np.shape(t), np.nan),
        "inf": lambda t: np.full(np.shape(t), np.inf),
        "noise": lambda t: noise.random(np.shape(t)),
    }


@pytest.mark.parametrize("kind", ["nan", "inf", "noise"])
@pytest.mark.parametrize(
    "integrate",
    [
        lambda f: integrate_bins(f, [0.0, 1.0])[0],
        lambda f: integrate_bins(f, np.linspace(0.0, 1.0, 2561)),
    ],
    ids=["one-bin", "2560-bins"],
)
def test_never_converging_fails_fast(kind, integrate):
    f = never_converging()[kind]
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(QuadratureFailure):
            integrate(f)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 64e6


def test_non_finite_half_panel_raises():
    # Finite at the G7 nodes, infinite at a node only K15 reads: the K15
    # value is infinite, so |K15 - G7| <= 1e-10 |K15| holds and the pair
    # passes the relative test; the non-finite value itself must be rejected.
    bad_node = 0.5 + 0.5 * _NODES[0]

    def f(t):
        return np.where(t == bad_node, np.inf, 1.0)

    assert math.isinf(oracle_integral(f, 0.0, 1.0))
    with pytest.raises(QuadratureFailure, match="non-finite"):
        integrate_bins(f, [0.0, 1.0])


def test_edges_must_increase():
    with pytest.raises(QuadratureFailure):
        integrate_bins(np.exp, [0.0, 1.0, 1.0])


# -- one quadrature per refinement run ---------------------------------------


def converge_csv(tmp_path, monkeypatch, name, *args, quadrature_fn=integrate_bins):
    """``converge.csv`` of one run, with the bin count of each quadrature call."""
    calls = []

    def counted(f, edges):
        calls.append(len(edges) - 1)
        return quadrature_fn(f, edges)

    with monkeypatch.context() as patch:
        patch.setattr(discretize, "integrate_bins", counted)
        out = tmp_path / name
        assert run(["--output-dir", str(out), "converge", "--x", "0.37", *args]) == 0
    return calls, (out / "converge.csv").read_text()


BENCHMARK_SCHEDULE = ["--lambdas", "0.2,0.1,0.05", "--gamma", "0.8"]
# The reference grid, a quarter of the finest width, holds every other
# width's edges: 1280 bins of 0.0125 and 2560 of 0.00625 on [-8, 8].
SCHEDULES = pytest.mark.parametrize(
    "args, union_bins", [(BENCHMARK_SCHEDULE, 1280), ([], 2560)],
    ids=["benchmark-schedule", "default-schedule"],
)


@SCHEDULES
def test_converge_integrates_once_per_run(tmp_path, monkeypatch, capsys, args, union_bins):
    calls, csv = converge_csv(tmp_path, monkeypatch, "array", *args)
    assert calls == [union_bins]
    _, oracle_csv = converge_csv(
        tmp_path, monkeypatch, "oracle", *args,
        quadrature_fn=lambda f, edges: oracle_bins(f, edges),
    )
    assert csv == oracle_csv
    # The earlier GL10 rule prints the same table.
    _, gl10_csv = converge_csv(
        tmp_path, monkeypatch, "gl10", *args,
        quadrature_fn=lambda f, edges: oracle_bins(f, edges, gl10_integral),
    )
    assert csv == gl10_csv


def one_column_passes(f, edges):
    """A stacked integrand integrated one row per call, as grids were built
    before one pass served the prior and the joint together."""
    rows = np.asarray(f(np.asarray(edges[:1], dtype=float))).shape[0]
    return np.array([integrate_bins(lambda t, r=r: f(t)[r], edges) for r in range(rows)])


@SCHEDULES
def test_one_pass_csv_equals_one_column_passes(tmp_path, monkeypatch, capsys, args, union_bins):
    _, csv = converge_csv(tmp_path, monkeypatch, "one-pass", *args)
    _, separate = converge_csv(
        tmp_path, monkeypatch, "separate", *args, quadrature_fn=one_column_passes
    )
    assert csv == separate


def test_converge_evaluates_prior_with_likelihood(tmp_path, monkeypatch, capsys):
    counts = {}
    continuous_model = NormalNormalTestbed.continuous_model

    def counted(name, fn):
        counts[name] = [0, 0]  # calls, points

        def wrapper(theta, *rest):
            counts[name][0] += 1
            counts[name][1] += np.size(theta)
            return fn(theta, *rest)

        return wrapper

    def traced(testbed):
        cm = continuous_model(testbed)
        return dataclasses.replace(
            cm,
            prior_density=counted("prior", cm.prior_density),
            likelihood=counted("likelihood", cm.likelihood),
        )

    monkeypatch.setattr(NormalNormalTestbed, "continuous_model", traced)
    # One quadrature over the reference grid, which holds every other
    # width's edges, each bin accepted on its first pass: one call of 15
    # nodes per bin, shared by the prior and the joint.
    for args, union_bins in [(BENCHMARK_SCHEDULE, 1280), ([], 2560)]:
        converge_csv(tmp_path, monkeypatch, "counted", *args)
        assert counts["prior"] == counts["likelihood"] == [1, 15 * union_bins]
        counts.clear()