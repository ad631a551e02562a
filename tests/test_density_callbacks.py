"""Density callbacks: log-likelihoods through the one posterior kernel.

A callback returns the log-likelihood over theta of one observed point, or of
any columns of a finite sample space.  The kernel exponentiates each column
less its maximum, so the tables stay accurate far out in the tails, where raw
densities underflow to zero.  Run through the kernel, a callback must
reproduce the columns of a table model it was read from.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    FiniteModel,
    InvariantViolation,
    ZeroEvidence,
    belief_tables,
    load_model,
    lrse,
    sample_space_tables,
)
from relbelief.cli import run
from relbelief.estimators import TIE_RTOL
from test_sample_space_tables import finite_models

RTOL = 1e-13


def callback_model(model: FiniteModel, loglik) -> FiniteModel:
    return FiniteModel(
        theta_labels=model.theta_labels,
        prior=model.prior,
        likelihood=loglik,
        psi_map=model.psi_map,
        psi_labels=model.psi_labels,
        psi_coords=model.psi_coords,
    )


def resolved(rb: np.ndarray) -> bool:
    """No ratio lies within 1e-12 of the tie cut, so a 1e-13 change moves no tie."""
    cut = rb.max() - TIE_RTOL * (rb.max() - rb.min())
    return bool(np.all(np.abs(rb - cut) > 1e-12 * rb.max()))


@given(model=finite_models(), shift=st.sampled_from([-700.0, 700.0]))
@settings(max_examples=150, deadline=None)
def test_callback_reproduces_the_table_column(model, shift):
    with np.errstate(divide="ignore"):
        logs = np.log(model.likelihood)
    # Quantised to multiples of 2**-43, the log-likelihoods stay exact when
    # 700 is added, so only the kernel's own rounding can differ.
    quantised = np.round(logs * 2.0**43) / 2.0**43
    tabs = sample_space_tables(model)
    for x in range(model.n_x):
        got = belief_tables(callback_model(model, lambda _, col=logs[:, x]: col), x)
        np.testing.assert_allclose(got.marg_post, tabs.marg_post[:, x], rtol=RTOL, atol=0)
        np.testing.assert_allclose(got.rb, tabs.rb[:, x], rtol=RTOL, atol=0)
        if resolved(tabs.rb[:, x]):
            assert lrse(got).argmax_set == lrse(belief_tables(model, x)).argmax_set
        base = belief_tables(callback_model(model, lambda _, col=quantised[:, x]: col), x)
        moved = belief_tables(
            callback_model(model, lambda _, col=quantised[:, x] + shift: col), x
        )
        np.testing.assert_allclose(moved.marg_post, base.marg_post, rtol=RTOL, atol=0)
        np.testing.assert_allclose(moved.rb, base.rb, rtol=RTOL, atol=0)


@given(model=finite_models())
@settings(max_examples=150, deadline=None)
def test_finite_log_source_reproduces_the_matrix_tables(model):
    with np.errstate(divide="ignore"):
        logs = np.log(model.likelihood)
    source = dataclasses.replace(model, likelihood=lambda k: logs[:, k],
                                 x_labels=tuple(f"x{j}" for j in range(model.n_x)))
    want, got = sample_space_tables(model), sample_space_tables(source)
    for name in ("evidence", "sampling", "marg_post", "rb"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=RTOL, atol=0)
    # One column asked for alone has the bits of its column in the whole block.
    for x in range(model.n_x):
        point = belief_tables(source, f"x{x}")
        assert point.marg_post.tobytes() == got.marg_post[:, x].tobytes()
        assert point.rb.tobytes() == got.rb[:, x].tobytes()


def test_bernoulli_is_the_binomial_at_one_trial(tmp_path):
    models = []
    for likelihood in ({"family": "bernoulli", "p": [0.0, 0.3, 1.0]},
                       {"family": "binomial", "n": 1, "p": [0.0, 0.3, 1.0]}):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"theta": ["a", "b", "c"], "prior": [0.2, 0.3, 0.5],
                                    "psi_map": ["a", "b", "b"], "likelihood": likelihood}))
        models.append(load_model(path))
    bernoulli, binomial = models
    assert bernoulli.n_x == binomial.n_x == 2
    assert bernoulli.x_labels is binomial.x_labels is None
    want, got = sample_space_tables(binomial), sample_space_tables(bernoulli)
    for name in ("evidence", "sampling", "marg_post", "rb"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=RTOL, atol=0)


def two_point(loglik) -> FiniteModel:
    return FiniteModel(
        theta_labels=("a", "b"),
        prior=[0.5, 0.5],
        likelihood=loglik,
        psi_map=[0, 1],
        psi_labels=("a", "b"),
    )


def test_impossible_point_raises_zero_evidence():
    with pytest.raises(ZeroEvidence):
        belief_tables(two_point(lambda x: np.full(2, -np.inf)), 0.0)


def test_point_impossible_under_one_theta_is_certain_of_the_other():
    tables = belief_tables(two_point(lambda x: np.array([-np.inf, -1e4])), 0.0)
    np.testing.assert_array_equal(tables.marg_post, [0.0, 1.0])
    np.testing.assert_array_equal(tables.rb, [0.0, 2.0])


def test_density_far_above_one_keeps_its_tables_without_warning():
    # exp(800) overflows a double; the evidence reads inf, the tables stay exact.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = belief_tables(two_point(lambda x: np.array([800.0, 800.0 - np.log(3.0)])), 0.0)
    np.testing.assert_allclose(tables.marg_post, [0.75, 0.25], rtol=RTOL, atol=0)


@pytest.mark.parametrize("top", [-1e16, -4e18, -1e19, -1e300])
def test_log_column_far_below_zero_keeps_its_tables(top):
    # The two log-likelihoods are adjacent doubles, 2 apart at -1e16 and
    # farther below; the tables must see that exact gap, and the evidence
    # reads 0.0.
    col = np.array([top, np.nextafter(top, -np.inf)])
    gap = col[0] - col[1]
    tables = belief_tables(two_point(lambda x: col), 0.0)
    np.testing.assert_allclose(tables.marg_post, [1.0, np.exp(-gap)] / (1.0 + np.exp(-gap)),
                               rtol=RTOL, atol=0)
    source = dataclasses.replace(two_point(lambda k: np.stack([col[0] - k, col[1] - k])), n_x=2)
    tabs = sample_space_tables(source)
    np.testing.assert_array_equal(tabs.evidence, [0.0, 0.0])
    np.testing.assert_array_equal(tabs.marg_post[:, 0], tables.marg_post)


@pytest.mark.parametrize(
    "values",
    [[0.0, np.nan], [0.0, np.inf], [0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]],
    ids=["nan", "+inf", "short", "long", "two-dimensional"],
)
def test_malformed_callback_output_is_rejected(values):
    with pytest.raises(InvariantViolation, match="log-likelihood"):
        belief_tables(two_point(lambda x: np.array(values)), 0.0)


@pytest.fixture()
def normal_file(tmp_path):
    path = tmp_path / "normal.json"
    path.write_text(json.dumps({
        "theta": ["a", "b"],
        "prior": [0.5, 0.5],
        "likelihood": {"family": "normal", "mean": [0.0, 1.0], "sd": [1.0, 1.0]},
        "psi_map": ["a", "b"],
    }))
    return str(path)


def estimate(normal_file, tmp_path, x) -> int:
    return run(["--output-dir", str(tmp_path / "out"), "estimate", "--model", normal_file,
                "--x", x, "--estimator", "lrse"])


@pytest.mark.parametrize("x", ["38", "40", "400", "5e9"])
def test_estimate_far_in_the_tail(normal_file, tmp_path, capsys, x):
    # Raw densities underflow to 0 at x = 40 and beyond; at x = 5e9 both
    # log-likelihoods are near -1.25e19, below any power of two an int64 holds.
    assert estimate(normal_file, tmp_path, x) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "b"


def test_estimate_at_an_infinite_point_exits_one(normal_file, tmp_path, capsys):
    assert estimate(normal_file, tmp_path, "inf") == 1
    assert "zero evidence" in capsys.readouterr().err


def normal_model_file(tmp_path, sd) -> str:
    path = tmp_path / "tiny-sd.json"
    path.write_text(json.dumps({
        "theta": ["a", "b"], "prior": [0.5, 0.5], "psi_map": ["a", "b"],
        "likelihood": {"family": "normal", "mean": [0.0, 1.0], "sd": sd},
    }))
    return str(path)


@pytest.mark.parametrize("sd, x", [([1.0, 1.0], "1e160"), ([1.0, 1.0], "-1e160"),
                                   ([1.0, 1.0], "1e308"), ([1e-300, 1e-300], "0.5")])
def test_estimate_past_the_double_range_exits_two_naming_it(tmp_path, capsys, sd, x):
    # Every -z*z/2 (and at sd 1e-300 every z) passes the largest double; the
    # evidence is positive, so no message may claim it is zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate(normal_model_file(tmp_path, sd), tmp_path, x) == 2
    err = capsys.readouterr().err
    assert "passes the double range" in err and "zero evidence" not in err


@pytest.mark.parametrize("sd, x", [([1.0, 1e-200], "1e10"), ([1e-300, 1e-300], "0")])
def test_overflow_at_one_theta_leaves_the_other(tmp_path, sd, x):
    # b's z is 1e210 (or -1e300) and a's finite: b's likelihood is negligible beside a's.
    model = load_model(normal_model_file(tmp_path, sd))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = belief_tables(model, x)
    assert tables.marg_post.tolist() == [1.0, 0.0]
    assert lrse(tables).psi_label == "a"
