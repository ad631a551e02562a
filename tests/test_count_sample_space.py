"""A finite sample space is its size: ``FiniteModel.n_x``.

A count family's points are the counts ``0..n``, named by their decimal
text, so a model stores ``n_x = n + 1`` and no label per point.  The label
tuple it once stored stays here as the oracle for ``x_index``.  A density
has ``n_x = None`` and no sweep over its sample space.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    FiniteModel,
    InfiniteSampleSpace,
    InvariantViolation,
    LossSpec,
    belief_tables,
    load_model,
    lrse_rule,
    map_rule,
    prior_risk,
    sample_space_tables,
    unbiasedness_gap,
    uniform_unbiasedness_check,
)


def binomial_file(directory, trials: int) -> Path:
    path = Path(directory) / "binomial.json"
    path.write_text(json.dumps({
        "theta": [f"t{i}" for i in range(5)],
        "prior": [0.2] * 5,
        "likelihood": {"family": "binomial", "n": trials, "p": [0.3, 0.4, 0.5, 0.6, 0.7]},
        "psi_map": [f"t{i}" for i in range(5)],
    }))
    return path


@settings(max_examples=60, deadline=None)
@given(trials=st.integers(1, 5000), data=st.data())
def test_count_indices_resolve_as_the_label_tuple_did(trials, data):
    with tempfile.TemporaryDirectory() as tmp:
        model = load_model(binomial_file(tmp, trials))
    labels = tuple(map(str, range(trials + 1)))  # the labels a count family used to store
    assert model.n_x == trials + 1 and model.x_labels is None
    assert [model.x_index(k) for k in range(trials + 1)] == list(range(trials + 1))
    assert [model.x_index(label) for label in labels] == list(range(trials + 1))
    for k in data.draw(st.lists(st.integers(0, trials), max_size=10)) + [0, trials]:
        want = labels.index(str(k))
        assert model.x_index(k) == model.x_index(np.int64(k)) == model.x_index(str(k)) == want
    for bad in ("007", "+1", "1.0", "abc", " 1", "-1", "", "١", True, np.bool_(True),
                1.0, trials + 1, str(trials + 1), -1, "9" * 5000):
        with pytest.raises(InvariantViolation):
            model.x_index(bad)


def test_many_trials_store_the_count_and_no_label(tmp_path):
    model = load_model(binomial_file(tmp_path, 200_000))
    assert model.x_labels is None and model.n_x == 200_001
    assert belief_tables(model, "200000").rb.argmax() == 4


def table_model() -> FiniteModel:
    return FiniteModel(
        theta_labels=("a", "b"),
        prior=[0.5, 0.5],
        likelihood=[[0.7, 0.3], [0.2, 0.8]],
        psi_map=[0, 1],
        psi_labels=("a", "b"),
    )


def density_model() -> FiniteModel:
    def density(x):
        return np.array([-x * x, -(x - 1) ** 2])

    # replace() carries the table's n_x = 2, so a density must drop it.
    return dataclasses.replace(table_model(), likelihood=density, n_x=None)


@pytest.mark.parametrize("sweep", [
    sample_space_tables,
    lrse_rule,
    map_rule,
    lambda m: prior_risk(LossSpec.prior_based(), [0, 1], m),
    lambda m: unbiasedness_gap(LossSpec.prior_based(), [0, 1], m),
    lambda m: uniform_unbiasedness_check([0, 1], m),
], ids=["sample_space_tables", "lrse_rule", "map_rule", "prior_risk", "unbiasedness_gap",
        "uniform_unbiasedness_check"])
def test_every_sweep_refuses_a_density(sweep):
    model = density_model()
    assert model.n_x is None
    assert belief_tables(model, 0.25).rb.argmax() == 0
    with pytest.raises(InfiniteSampleSpace):
        sweep(model)


def test_replace_carries_n_x_into_a_finite_log_source():
    table = table_model()
    logs = np.log(table.likelihood)
    source = dataclasses.replace(table, likelihood=lambda k: logs[:, k])
    assert source.n_x == 2
    np.testing.assert_allclose(sample_space_tables(source).rb, sample_space_tables(table).rb,
                               rtol=1e-15)
    # Labels name the n_x points; a density has none to name.
    labelled = dataclasses.replace(source, x_labels=("lo", "hi"))
    assert labelled.n_x == 2 and labelled.x_index("hi") == 1 and labelled.x_index(1) == 1
    for n_x in (3, None):
        with pytest.raises(InvariantViolation, match="x_labels must name each of the n_x"):
            dataclasses.replace(source, n_x=n_x, x_labels=("lo", "hi"))


@pytest.mark.parametrize("n_x", [0, -1, 2.0, True, "2"])
def test_n_x_must_be_a_positive_integer(n_x):
    with pytest.raises(InvariantViolation, match="n_x must be a positive integer"):
        FiniteModel(theta_labels=("a",), prior=[1.0], likelihood=lambda k: np.zeros((1, k.size)),
                    psi_map=[0], psi_labels=("a",), n_x=n_x)
