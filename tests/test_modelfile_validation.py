"""Malformed model files are validation errors: exit 2, never a runtime error.

``load_model`` only turns JSON into typed values and ``FiniteModel`` checks
them.  So any one bad field of an otherwise valid document makes
``load_model`` raise ``ModelSpecError`` or ``InvariantViolation`` and nothing
else, and ``relbelief validate`` exit 2; valid documents load and
round-trip through ``save_model``.
"""

import json
import math
import operator
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    InvariantViolation,
    ModelSpecError,
    load_model,
    sample_space_tables,
    save_model,
)
from relbelief.cli import run
from relbelief.modelfile import PRIOR_WARN_TOL

NAN, INF = math.nan, math.inf
SPEC_ERRORS = (ModelSpecError, InvariantViolation)


def two_point(**fields) -> dict:
    doc = {"theta": ["a", "b"], "prior": [0.5, 0.5], "psi_map": ["a", "b"],
           "likelihood": [[0.9, 0.1], [0.2, 0.8]]}
    doc.update(fields)
    return doc


def normal(mean, sd) -> dict:
    return {"family": "normal", "mean": mean, "sd": sd}


def binomial(n, p=(0.2, 0.7)) -> dict:
    return {"family": "binomial", "n": n, "p": list(p)}


def validate(path, out) -> int:
    return run(["--output-dir", str(out), "validate", "--model", str(path)])


# Malformed documents that are easy to mistake for valid ones: a non-finite
# family parameter, a non-integer trial count, a string where a list belongs,
# text, booleans or ragged rows among numbers, a scalar for coordinates.  The second
# item is the field the error names; FiniteModel names psi_coords in its
# message.
REPRO = {
    "normal-nan-sd": (two_point(likelihood=normal([0.0, 1.0], [NAN, 1.0])), "likelihood"),
    "normal-nan-mean": (two_point(likelihood=normal([NAN, 1.0], [1.0, 1.0])), "likelihood"),
    "normal-inf-sd": (two_point(likelihood=normal([0.0, 1.0], [INF, 1.0])), "likelihood"),
    "binomial-n-2.5": (two_point(likelihood=binomial(2.5)), "likelihood"),
    "binomial-n-text": (two_point(likelihood=binomial("abc")), "likelihood"),
    "binomial-n-true": (two_point(likelihood=binomial(True)), "likelihood"),
    "theta-string": (two_point(theta="ab"), "theta"),
    "prior-text": (two_point(prior=["x", 0.5]), "prior"),
    "prior-true": (two_point(prior=[True, 0.5]), "prior"),
    "likelihood-false": (two_point(likelihood=[[0.9, False], [0.2, 0.8]]), "likelihood"),
    "binomial-p-true": (two_point(likelihood=binomial(3, [True, 0.5])), "likelihood"),
    "ragged-likelihood": (two_point(likelihood=[[0.9, 0.1], [0.2]]), "likelihood"),
    "coord-text": (two_point(theta=[{"label": "a", "coord": "zz"},
                                    {"label": "b", "coord": 1.0}]), "theta"),
    "psi-coords-scalar": (two_point(psi_coords=5.0), "psi_coords"),
}


@pytest.mark.parametrize("case", sorted(REPRO))
def test_malformed_file_is_a_validation_error(tmp_path, capsys, case):
    doc, field = REPRO[case]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity
    with pytest.raises(SPEC_ERRORS, match=field) as err:
        load_model(path)
    if isinstance(err.value, ModelSpecError):
        assert err.value.field == field
    assert validate(path, tmp_path / "out") == 2
    assert field in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "validation-error"


@pytest.mark.parametrize("likelihood", [
    {"family": "bernoulli", "p": [NAN, 0.5]},
    binomial(3, [0.2, NAN]),
    binomial(3, [0.2, 1.5]),
], ids=["bernoulli-nan", "binomial-nan", "binomial-above-one"])
def test_family_rates_are_checked_at_load(tmp_path, likelihood):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(two_point(likelihood=likelihood)))
    with pytest.raises(ModelSpecError, match=r"every p in \[0, 1\]") as err:
        load_model(path)
    assert err.value.field == "likelihood"


@pytest.mark.parametrize("x, message", [("abc", "cannot read 'abc'"),
                                        ("nan", "observation 'nan' is not a number")])
def test_bad_normal_observation_is_a_validation_error(tmp_path, capsys, x, message):
    path = tmp_path / "normal.json"
    path.write_text(json.dumps(two_point(likelihood=normal([0.0, 1.0], [1.0, 1.0]))))
    assert run(["--output-dir", str(tmp_path / "out"), "estimate", "--model", str(path),
                "--x", x, "--estimator", "lrse"]) == 2
    assert message in capsys.readouterr().err


# -- generated documents -----------------------------------------------------------

finite = st.floats(-1e6, 1e6)
# A coordinate is a number or, in two dimensions, a row of two.
COORD = st.sampled_from([finite, st.lists(finite, min_size=2, max_size=2)])
rates = st.floats(1e-3, 1 - 1e-3)  # every sample point stays possible at n <= 50
FAMILIES = ("bernoulli", "binomial", "normal")
KINDS = ("matrix", *FAMILIES)


@st.composite
def valid_docs(draw, kinds=KINDS, full=False) -> dict:
    """A valid model document; ``full`` gives it every optional field."""
    n_theta = draw(st.integers(1, 5))
    n_psi = draw(st.integers(1, n_theta))
    per_theta = lambda values: st.lists(values, min_size=n_theta, max_size=n_theta)  # noqa: E731
    optional = lambda: full or draw(st.booleans())  # noqa: E731
    weights = draw(per_theta(st.floats(0.01, 1.0)))
    total = math.fsum(weights)
    labels = [f"t{i}" for i in range(n_theta)]
    if optional():
        labels = [{"label": t, "coord": c} for t, c in zip(labels, draw(per_theta(draw(COORD))))]
    extra = draw(st.lists(st.integers(0, n_psi - 1), min_size=n_theta - n_psi,
                          max_size=n_theta - n_psi))
    psi_map = draw(st.permutations(list(range(n_psi)) + extra))
    doc = {"theta": labels, "prior": [w / total for w in weights],
           "psi_map": [f"p{j}" for j in psi_map]}
    if optional():
        doc["psi"] = [f"p{j}" for j in range(n_psi)]
    if optional():
        doc["psi_coords"] = draw(st.lists(draw(COORD), min_size=n_psi, max_size=n_psi))
    kind = draw(st.sampled_from(kinds))
    if kind == "matrix":
        n_x = draw(st.integers(1, 4))
        row = st.lists(st.floats(0.01, 1.0), min_size=n_x, max_size=n_x)
        doc["likelihood"] = draw(per_theta(row))
        if optional():
            doc["x"] = [f"x{k}" for k in range(n_x)]
    elif kind == "bernoulli":
        doc["likelihood"] = {"family": "bernoulli", "p": draw(per_theta(rates))}
    elif kind == "binomial":
        doc["likelihood"] = binomial(draw(st.integers(1, 50)), draw(per_theta(rates)))
    else:
        doc["likelihood"] = normal(draw(per_theta(st.floats(-10, 10))),
                                   draw(per_theta(st.floats(0.1, 10))))
    return doc


# Values that are no finite JSON number: numpy alone would read "1.5" as one,
# and a boolean among numbers as 0 or 1.  A coordinate may be a list, so a
# nested list is only bad for the other fields.
NOT_A_COORD = st.sampled_from([NAN, INF, -INF, "abc", "1.5", None, {}, True, False])
NOT_A_NUMBER = st.one_of(NOT_A_COORD, st.just([1.0]))
NOT_A_LIST = st.sampled_from(["ab", 3.0, {"a": 1}, None])
NOT_AN_N = st.one_of(st.floats(0.5, 50).filter(lambda v: not v.is_integer()),
                     st.integers(-3, 0), st.sampled_from(["abc", "3", True, False, None]))


def set_entry(draw, values: list, bad) -> None:
    values[draw(st.integers(0, len(values) - 1))] = draw(bad)


def family_param(draw, doc) -> tuple[dict, str]:
    lik = doc["likelihood"]
    return lik, draw(st.sampled_from(["mean", "sd"] if lik["family"] == "normal" else ["p"]))


def set_whole(field: str, bad=NOT_A_LIST):
    return lambda draw, doc: doc.update({field: draw(bad)})


def set_param_entry(name: str, bad):
    return lambda draw, doc: set_entry(draw, doc["likelihood"][name], bad)


def bad_psi_coords(draw, doc):
    n_psi = len(set(doc["psi_map"]))
    doc["psi_coords"] = draw(st.one_of(NOT_A_LIST, finite, st.just([0.0] * (n_psi + 1)),
                                       st.lists(NOT_A_COORD, min_size=n_psi, max_size=n_psi)))


def zero_column(draw, doc):
    for row in doc["likelihood"]:
        row[0] = 0.0


# Each mutation makes one field of a valid document invalid: the kinds of
# likelihood it applies to, whether it needs every optional field, and how.
MUTATIONS = {
    "prior-entry": (KINDS, False, lambda draw, doc: set_entry(
        draw, doc["prior"], st.one_of(NOT_A_NUMBER, st.sampled_from([0.0, -0.5])))),
    "prior-whole": (KINDS, False, set_whole("prior")),
    "prior-length": (KINDS, False, lambda draw, doc: doc["prior"].append(doc["prior"][0])),
    "missing-field": (KINDS, False, lambda draw, doc: doc.pop(
        draw(st.sampled_from(["theta", "prior", "likelihood", "psi_map"])))),
    "theta-whole": (KINDS, False, set_whole("theta")),
    "theta-coord": (KINDS, True, lambda draw, doc: set_entry(
        draw, doc["theta"], st.fixed_dictionaries({"label": st.just("t"),
                                                   "coord": NOT_A_COORD}))),
    "psi_map-whole": (KINDS, False, set_whole("psi_map")),
    "psi_map-length": (KINDS, False, lambda draw, doc: doc["psi_map"].pop()),
    "psi_map-unknown": (KINDS, True, lambda draw, doc: set_entry(
        draw, doc["psi_map"], st.just("unknown"))),
    "psi-whole": (KINDS, True, set_whole("psi")),
    "psi-unused": (KINDS, True, lambda draw, doc: doc["psi"].append("unused")),
    "psi_coords": (KINDS, False, bad_psi_coords),
    "x-whole": (("matrix",), True, set_whole("x")),
    "x-length": (("matrix",), True, lambda draw, doc: doc["x"].append("extra")),
    "matrix-entry": (("matrix",), False, lambda draw, doc: set_entry(
        draw, draw(st.sampled_from(doc["likelihood"])), st.one_of(NOT_A_NUMBER, st.just(-0.5)))),
    "matrix-ragged": (("matrix",), False, lambda draw, doc: doc["likelihood"].append(
        doc["likelihood"][0] + [0.5])),
    "matrix-whole": (("matrix",), False, set_whole(
        "likelihood", st.sampled_from(["abc", None, 0.5, [0.5]]))),
    "matrix-zero-column": (("matrix",), False, zero_column),
    "family-unknown": (FAMILIES, False, lambda draw, doc: doc["likelihood"].update(
        family="poisson")),
    "family-rate": (("bernoulli", "binomial"), False, set_param_entry(
        "p", st.one_of(NOT_A_NUMBER, st.sampled_from([-0.5, 1.5])))),
    "family-mean": (("normal",), False, set_param_entry("mean", NOT_A_NUMBER)),
    "family-sd": (("normal",), False, set_param_entry(
        "sd", st.one_of(NOT_A_NUMBER, st.sampled_from([0.0, -1.0])))),
    "family-n": (("binomial",), False, lambda draw, doc: doc["likelihood"].update(
        n=draw(NOT_AN_N))),
    "family-param-whole": (FAMILIES, False, lambda draw, doc: operator.setitem(
        *family_param(draw, doc), draw(NOT_A_LIST))),
    "family-param-length": (FAMILIES, False, lambda draw, doc: operator.getitem(
        *family_param(draw, doc)).append(0.5)),
    "family-param-missing": (FAMILIES, False, lambda draw, doc: operator.delitem(
        *family_param(draw, doc))),
}


def write(doc, directory) -> Path:
    path = Path(directory) / "m.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("what", sorted(MUTATIONS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_one_bad_field_is_a_validation_error(what, data):
    kinds, full, mutate = MUTATIONS[what]
    doc = data.draw(valid_docs(kinds, full))
    mutate(data.draw, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = write(doc, tmp)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an off-sum prior warns before it fails
            for strict in (False, True):
                with pytest.raises(SPEC_ERRORS):
                    load_model(path, strict=strict)
        assert validate(path, Path(tmp) / "out") == 2


@settings(max_examples=100, deadline=None)
@given(doc=valid_docs())
def test_valid_document_loads_and_round_trips(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(doc, tmp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = load_model(path, strict=True)
        copy_path = Path(tmp) / "copy.json"
        save_model(model, copy_path)
        again = load_model(copy_path, strict=True)
        assert validate(path, Path(tmp) / "out") == 0
    for name in ("theta_labels", "psi_labels", "x_labels", "family_spec", "n_x"):
        assert getattr(again, name) == getattr(model, name)
    for name in ("psi_map", "theta_coords", "psi_coords"):
        np.testing.assert_array_equal(getattr(again, name), getattr(model, name))
    # The written prior is normalized again on reload, which may move its last bit.
    np.testing.assert_allclose(again.prior, model.prior, rtol=1e-15, atol=0)
    if model.is_table:
        np.testing.assert_array_equal(again.likelihood, model.likelihood)


@settings(max_examples=100, deadline=None)
@given(doc=valid_docs(), k=st.integers(1, 30).filter(lambda k: k != 10),
       sign=st.sampled_from([-1, 1]))
def test_prior_sum_splits_strict_and_lenient_at_the_bound(doc, k, sign):
    # Off by k * 1e-10, far from the bound of 1e-9 except at k = 10.
    doc["prior"][int(np.argmax(doc["prior"]))] += sign * k * 1e-10
    off = k * 1e-10 > PRIOR_WARN_TOL
    with tempfile.TemporaryDirectory() as tmp:
        path = write(doc, tmp)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = load_model(path)
        assert [str(w.message).startswith("prior summed to") for w in caught] == [True] * off
        assert abs(model.prior.sum() - 1.0) <= 1e-12
        if off:
            with pytest.raises(ModelSpecError) as err:
                load_model(path, strict=True)
            assert err.value.field == "prior"
        else:
            load_model(path, strict=True)
        assert validate(path, Path(tmp) / "out") == 2 * off


# A success rate at either end makes some counts impossible under that theta.
rate_or_end = st.one_of(st.sampled_from([0.0, 1.0]),
                        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=100, deadline=None)
@given(trials=st.integers(1, 40), p=st.lists(rate_or_end, min_size=1, max_size=4),
       family=st.sampled_from(["binomial", "bernoulli"]))
def test_count_family_is_rejected_exactly_when_a_count_is_impossible(trials, p, family):
    if family == "bernoulli":
        trials = 1
    rates = [Fraction(r) for r in p]
    exact = [[math.comb(trials, k) * r**k * (1 - r) ** (trials - k) for k in range(trials + 1)]
             for r in rates]
    dead = any(all(row[k] == 0 for row in exact) for k in range(trials + 1))
    likelihood = {"family": family, "p": p, **({"n": trials} if family == "binomial" else {})}
    doc = {"theta": [f"t{i}" for i in range(len(p))], "prior": [1 / len(p)] * len(p),
           "psi_map": [f"t{i}" for i in range(len(p))], "likelihood": likelihood}
    with tempfile.TemporaryDirectory() as tmp:
        path = write(doc, tmp)
        assert validate(path, Path(tmp) / "out") == 2 * dead
        if dead:
            with pytest.raises(ModelSpecError, match="impossible under every p") as err:
                load_model(path)
            assert err.value.field == "likelihood"
        else:
            tabs = sample_space_tables(load_model(path))
            assert np.all(np.isfinite(tabs.rb))
