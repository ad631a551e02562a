"""Density callbacks: log-likelihoods through the one posterior kernel.

A callback returns the log-likelihood over theta of one observed point.  The
kernel shifts it by its maximum before exponentiating, so the tables stay
accurate far out in the tails, where raw densities underflow to zero.  Run
through the kernel, a callback must reproduce the column of a table model it
was read from.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    FiniteModel,
    InvariantViolation,
    ZeroEvidence,
    belief_tables,
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


@pytest.mark.parametrize("x", ["38", "40", "400"])
def test_estimate_far_in_the_tail(normal_file, tmp_path, capsys, x):
    # Raw densities underflow to 0 at x = 40 and beyond.
    assert estimate(normal_file, tmp_path, x) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "b"


def test_estimate_at_an_infinite_point_exits_one(normal_file, tmp_path, capsys):
    assert estimate(normal_file, tmp_path, "inf") == 1
    assert "zero evidence" in capsys.readouterr().err
