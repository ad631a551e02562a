"""Model file schema, round-trips, and the command-line surface.

A command-line case that checks only an argv's exit code, printed text and
manifest status is a row of ``cli_cases.json`` (``test_cli_cases.py``); the
tests here read reports, oracles or the parser.
"""

import argparse
import decimal
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import relbelief
from relbelief import (
    BinomialClassifier,
    FiniteModel,
    ModelSpecError,
    belief_tables,
    load_model,
    lrse,
    sample_space_tables,
    save_model,
)
from relbelief.cli import build_parser, run
from relbelief.modelfile import _binomial_log_pmf
from regression_oracle import exact_regression


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def three_point_file(tmp_path):
    # posterior at the single column is proportional to (0.5, 0.3, 0.2)
    return write_json(
        tmp_path / "three.json",
        {
            "theta": ["t0", "t1", "t2"],
            "prior": [0.2, 0.3, 0.5],
            "likelihood": [[2.5], [1.0], [0.4]],
            "psi_map": ["p0", "p1", "p2"],
        },
    )


@pytest.fixture()
def classifier_file(tmp_path):
    model = BinomialClassifier(psi1=0.05, psi2=0.80, epsilon=0.05).to_finite_model()
    path = tmp_path / "classifier.json"
    save_model(model, path)
    return str(path)


def binomial_table(trials, p):
    """The binomial probabilities of every count, exponentiated from the log-pmf."""
    return np.exp(_binomial_log_pmf(trials, np.asarray(p), np.arange(trials + 1)))


def every_column(model):
    """A family model's likelihood table, exponentiated from all of its log columns."""
    return np.exp(model.likelihood(np.arange(model.n_x)))


def assert_near_exact(got, exact):
    """Binomial probabilities against exact values; returns where the pmf is not tiny."""
    # Log space rounds a term near log(1e-300) = -691 to about 1e-13 of
    # itself, so the tightest bound holds where the pmf is not tiny.
    body = exact >= 1e-30
    np.testing.assert_allclose(got[body], exact[body], rtol=1e-13, atol=0)
    np.testing.assert_allclose(got[~body], exact[~body], rtol=1e-12, atol=1e-310)
    return body


class TestModelFile:
    def test_round_trip_field_for_field(self, tmp_path):
        model = FiniteModel(
            theta_labels=("a", "b", "c"),
            prior=[0.2, 0.3, 0.5],
            likelihood=[[0.7, 0.3], [0.5, 0.5], [0.1, 0.9]],
            psi_map=[0, 0, 1],
            psi_labels=("low", "high"),
            theta_coords=[0.0, 0.5, 1.0],
            psi_coords=[0.25, 1.0],
            x_labels=("no", "yes"),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.theta_labels == model.theta_labels
        assert loaded.psi_labels == model.psi_labels
        np.testing.assert_array_equal(loaded.prior, model.prior)
        np.testing.assert_array_equal(loaded.likelihood, model.likelihood)
        np.testing.assert_array_equal(loaded.psi_map, model.psi_map)
        np.testing.assert_array_equal(loaded.theta_coords, model.theta_coords)
        np.testing.assert_array_equal(loaded.psi_coords, model.psi_coords)
        assert loaded.x_labels == model.x_labels and loaded.n_x == model.n_x == 2

    def test_unknown_keys_are_ignored(self, tmp_path):
        doc = {
            "theta": ["a", "b"],
            "prior": [0.5, 0.5],
            "likelihood": [[0.9, 0.1], [0.2, 0.8]],
            "psi_map": ["a", "b"],
        }
        plain = load_model(write_json(tmp_path / "plain.json", doc))
        doc["future_kernel"] = [[0.5, 0.5], [0.2, 0.8]]
        extra = load_model(write_json(tmp_path / "extra.json", doc))
        assert extra.theta_labels == plain.theta_labels
        assert extra.psi_labels == plain.psi_labels
        np.testing.assert_array_equal(extra.prior, plain.prior)
        np.testing.assert_array_equal(extra.likelihood, plain.likelihood)
        assert not hasattr(extra, "future_kernel")

    def test_bernoulli_family(self, tmp_path):
        path = write_json(
            tmp_path / "m.json",
            {
                "theta": ["a", "b"],
                "prior": [0.95, 0.05],
                "likelihood": {"family": "bernoulli", "p": [0.05, 0.8]},
                "psi_map": ["a", "b"],
            },
        )
        model = load_model(path)
        np.testing.assert_allclose(every_column(model), [[0.95, 0.05], [0.2, 0.8]])
        assert model.n_x == 2 and model.x_labels is None

    def test_binomial_family(self, tmp_path):
        path = write_json(
            tmp_path / "m.json",
            {
                "theta": ["a", "b"],
                "prior": [0.5, 0.5],
                "likelihood": {"family": "binomial", "n": 3, "p": [0.2, 0.7]},
                "psi_map": ["a", "b"],
            },
        )
        model = load_model(path)
        assert model.n_x == 4
        np.testing.assert_allclose(every_column(model).sum(axis=1), 1.0, atol=1e-12)

    def test_binomial_family_at_many_trials_has_tables_at_every_count(self, tmp_path):
        # At 2085 trials the end columns hold only subnormal likelihoods, so
        # their evidence, once the kernel's scaling is divided out, reads 0.0.
        path = write_json(
            tmp_path / "m.json",
            {
                "theta": [f"t{i}" for i in range(5)],
                "prior": [0.2] * 5,
                "likelihood": {"family": "binomial", "n": 2085, "p": [0.3, 0.4, 0.5, 0.6, 0.7]},
                "psi_map": [f"t{i}" for i in range(5)],
            },
        )
        model = load_model(path)
        tabs = sample_space_tables(model)
        assert np.any(tabs.evidence == 0.0)
        assert np.all(np.isfinite(tabs.rb)) and np.all(np.isfinite(tabs.marg_post))
        np.testing.assert_allclose(tabs.marg_post.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        assert lrse(belief_tables(model, "0")).psi_label == "t0"
        assert lrse(belief_tables(model, "2085")).psi_label == "t4"

    @pytest.mark.parametrize("trials", [2090, 200_000])
    def test_binomial_family_past_the_linear_range_validates_and_estimates(
        self, tmp_path, capsys, trials
    ):
        # Every p^n and (1 - p)^n underflows at these counts: only log space
        # can tell the thetas apart at x = 0 and x = n.
        path = write_json(
            tmp_path / "m.json",
            {
                "theta": [f"t{i}" for i in range(5)],
                "prior": [0.2] * 5,
                "likelihood": {"family": "binomial", "n": trials, "p": [0.3, 0.4, 0.5, 0.6, 0.7]},
                "psi_map": [f"t{i}" for i in range(5)],
            },
        )
        out = ["--output-dir", str(tmp_path / "out")]
        assert run([*out, "validate", "--model", path]) == 0
        for x, want in (("0", "t0"), (str(trials), "t4")):
            capsys.readouterr()
            assert run([*out, "estimate", "--model", path, "--x", x, "--estimator", "lrse"]) == 0
            assert capsys.readouterr().out.split()[0] == want

    @settings(max_examples=100, deadline=None)
    @given(trials=st.integers(1, 60), p=st.floats(0.0, 1.0))
    def test_binomial_table_matches_exact_rationals_and_scipy(self, trials, p):
        got = binomial_table(trials, [p])[0]
        rate = Fraction(p)
        exact = np.array([float(math.comb(trials, k) * rate**k * (1 - rate) ** (trials - k))
                          for k in range(trials + 1)])
        body = assert_near_exact(got, exact)
        if p == 0.0 or p >= 1e-200:  # scipy overflows at smaller rates
            ref = binom.pmf(np.arange(trials + 1), trials, p)
            # scipy is itself off from the exact values by up to 3e-13 (for
            # example at trials = 51, p = 0.16235482653703004, k = 0).
            np.testing.assert_allclose(got[body], ref[body], rtol=1e-12, atol=0)

    @settings(max_examples=8, deadline=None)
    @given(
        trials=st.sampled_from([10_000, 200_000]),
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        z=st.floats(-12.0, 12.0),
    )
    # Without the correction for the rounding of n p and n q this k is off by 1.2e-13.
    @example(trials=200_000, p=0.40289176273136823, z=3.0)
    def test_binomial_table_stays_exact_at_many_trials(self, trials, p, z):
        row = binomial_table(trials, [p])[0]
        assert abs(math.fsum(row) - 1.0) <= 1e-14
        k = min(trials, max(0, round(trials * p + z * math.sqrt(trials * p * (1 - p)))))
        ks = [0, k, trials]
        # Exact up to 1e-50: the binomial coefficient is an exact integer and
        # Decimal(p) is exact.  The exponent range is widened so no power
        # underflows before the product is formed.
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emin = 50, -10**9
            rate = Decimal(p)
            exact = np.array([float(Decimal(math.comb(trials, j)) * rate**j
                                    * (1 - rate) ** (trials - j)) for j in ks])
        assert_near_exact(row[ks], exact)

    def test_binomial_table_extreme_rates_are_exact(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trials in (1, 4, 7):
                table = binomial_table(trials, [0.0, 1.0])
                np.testing.assert_array_equal(table, np.eye(trials + 1)[[0, -1]])

    def test_normal_family_gives_callback(self, tmp_path):
        path = write_json(
            tmp_path / "m.json",
            {
                "theta": ["a", "b"],
                "prior": [0.5, 0.5],
                "likelihood": {"family": "normal", "mean": [0.0, 2.0], "sd": [1.0, 1.0]},
                "psi_map": ["a", "b"],
            },
        )
        model = load_model(path)
        assert not model.is_table
        tables = belief_tables(model, 2.0)
        assert tables.marg_post[1] > tables.marg_post[0]

    def test_family_round_trip(self, tmp_path):
        for likelihood in (
            {"family": "normal", "mean": [0.0, 2.0], "sd": [1.0, 1.0]},
            {"family": "binomial", "n": 7, "p": [0.0, 0.6]},
            {"family": "bernoulli", "p": [0.3, 1.0]},
        ):
            path = write_json(
                tmp_path / "m.json",
                {
                    "theta": ["a", "b"],
                    "prior": [0.5, 0.5],
                    "likelihood": likelihood,
                    "psi_map": ["a", "b"],
                },
            )
            model = load_model(path)
            out = tmp_path / "copy.json"
            save_model(model, out)
            again = load_model(out)
            assert again.family_spec == model.family_spec
            assert again.n_x == model.n_x and again.x_labels is model.x_labels is None
            if model.n_x is not None:
                for name in ("evidence", "marg_joint", "marg_post", "rb"):
                    np.testing.assert_array_equal(getattr(sample_space_tables(again), name),
                                                  getattr(sample_space_tables(model), name))

    def test_off_prior_normalizes_with_warning(self, tmp_path):
        path = write_json(
            tmp_path / "m.json",
            {
                "theta": ["a", "b"],
                "prior": [0.45, 0.45],
                "likelihood": [[1.0, 0.0], [0.0, 1.0]],
                "psi_map": ["a", "b"],
            },
        )
        with pytest.warns(UserWarning):
            model = load_model(path)
        assert model.prior.sum() == pytest.approx(1.0)

    def test_strict_mode_rejects_off_prior(self, tmp_path):
        path = write_json(
            tmp_path / "m.json",
            {
                "theta": ["a", "b"],
                "prior": [0.45, 0.45],
                "likelihood": [[1.0, 0.0], [0.0, 1.0]],
                "psi_map": ["a", "b"],
            },
        )
        with pytest.raises(ModelSpecError) as err:
            load_model(path, strict=True)
        assert err.value.field == "prior"

    def test_missing_field_names_it(self, tmp_path):
        path = write_json(tmp_path / "m.json", {"theta": ["a"], "prior": [1.0]})
        with pytest.raises(ModelSpecError) as err:
            load_model(path)
        assert err.value.field == "likelihood"

    def test_unknown_psi_label_rejected(self, tmp_path):
        path = write_json(
            tmp_path / "m.json",
            {
                "theta": ["a", "b"],
                "prior": [0.5, 0.5],
                "likelihood": [[1.0], [1.0]],
                "psi": ["p0"],
                "psi_map": ["p0", "p1"],
            },
        )
        with pytest.raises(ModelSpecError) as err:
            load_model(path)
        assert err.value.field == "psi"


# The arguments each subcommand requires, so that one more option parses.
REQUIRED_ARGS = {
    "estimate": ["--model", "m.json", "--x", "0", "--estimator", "lrse"],
    "region": ["--model", "m.json", "--x", "0", "--family", "rs", "--gamma", "0.5"],
    "classify": ["--psi1", "0.2", "--psi2", "0.7", "--epsilon", "0.1", "--x", "1",
                 "--method", "lrse"],
    "predict": ["--kind", "class"],
    "risk-table": [],
    "converge": [],
    "validate": ["--model", "m.json"],
}


def float_options():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return [(name, action.option_strings[-1], action.dest)
            for name, sub in subparsers.choices.items()
            for action in sub._actions if action.type is float]


NEGATIVE_FLOATS = ["-7.3e-05", "-1e-3", "-1E+2", "-2.5", "-.5", "-1_000", "-inf", "-Infinity"]


class TestNegativeValues:
    def test_every_subcommand_is_covered(self):
        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == set(REQUIRED_ARGS)
        assert {("converge", "--x"), ("predict", "--x-next"), ("risk-table", "--mu")} <= {
            (name, option) for name, option, _ in float_options()
        }

    @pytest.mark.parametrize("name, option, dest", float_options(),
                             ids=[f"{n} {o}" for n, o, _ in float_options()])
    def test_float_option_reads_any_negative_float(self, name, option, dest):
        for token in NEGATIVE_FLOATS:
            args = build_parser().parse_args([name, *REQUIRED_ARGS[name], option, token])
            assert getattr(args, dest) == float(token)

    @pytest.mark.parametrize("name, option", [
        ("converge", "--lambdas"), ("converge", "--etas"), ("risk-table", "--betas"),
        ("predict", "--design"), ("predict", "--y"), ("predict", "--w"),
    ])
    def test_number_list_may_start_negative(self, name, option):
        args = build_parser().parse_args([name, *REQUIRED_ARGS[name], option, "-1e-3,2"])
        assert getattr(args, option[2:]) == "-1e-3,2"

    def test_unknown_option_still_rejected(self):
        assert run(["converge", "--x", "-y"]) == 2
        assert run(["converge", "-1e-3"]) == 2

    @pytest.mark.parametrize("argv", [
        ["converge", "--x", "-7.3e-05", "--lambdas", "0.2,0.1"],
        ["predict", "--kind", "class", "--mu", "1", "--x-next", "-1e-05"],
        ["risk-table", "--reps", "1000", "--betas", "14", "--mu", "-1e-3"],
    ], ids=["converge", "predict", "risk-table"])
    def test_scientific_notation_runs(self, tmp_path, argv):
        assert run(["--output-dir", str(tmp_path / "r"), *argv]) == 0


class TestCli:
    def test_estimate_prints_decision(self, classifier_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            ["--output-dir", str(out), "estimate", "--model", classifier_file,
             "--x", "1", "--estimator", "lrse"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "psi2"
        assert (out / "estimate.csv").exists()
        assert (out / "estimate.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert len(manifest["artifacts"]) == 2
        assert manifest["wall_time_s"] > 0

    def test_region_members(self, three_point_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            ["--output-dir", str(out), "region", "--model", three_point_file,
             "--x", "0", "--family", "rs", "--gamma", "0.5"]
        )
        assert code == 0
        assert "p0" in capsys.readouterr().out
        rows = (out / "region.csv").read_text().strip().splitlines()
        assert rows[0].startswith("family,gamma,threshold,attained_mass")
        assert len(rows) == 2 and rows[1].endswith("p0")

    def test_region_lpl_family_needs_loss(self, three_point_file, tmp_path):
        base = ["region", "--model", three_point_file, "--x", "0",
                "--family", "lpl", "--gamma", "0.5"]
        assert run(["--output-dir", str(tmp_path / "a"), *base]) == 2
        assert run(
            ["--output-dir", str(tmp_path / "b"), *base, "--loss", "prior-based"]
        ) == 0
        rows = (tmp_path / "b" / "region.csv").read_text().strip().splitlines()
        assert len(rows) == 2 and rows[1].endswith("p0")

    def test_region_sweep(self, three_point_file, tmp_path):
        out = tmp_path / "run"
        code = run(
            ["--output-dir", str(out), "region", "--model", three_point_file,
             "--x", "0", "--family", "rs", "--gamma", "0.5",
             "--sweep", "eta=0.5,0.05"]
        )
        assert code == 0
        assert (out / "region_sweep.csv").exists()

    @pytest.mark.parametrize("field,coords", [("psi_coords", [0.0, math.inf]),
                                              ("psi_coords", [math.nan, 1.0]),
                                              ("theta_coords", [-math.inf, 1.0]),
                                              ("theta_coords", [1.0, math.nan])])
    def test_non_finite_coordinates_exit_two(self, tmp_path, capsys, field, coords):
        doc = {"theta": ["a", "b"], "prior": [0.5, 0.5], "likelihood": [[0.9, 0.1], [0.2, 0.8]],
               "psi_map": ["a", "b"]}
        if field == "psi_coords":
            doc["psi_coords"] = coords
        else:
            doc["theta"] = [{"label": t, "coord": c} for t, c in zip(doc["theta"], coords)]
        path = write_json(tmp_path / "coords.json", doc)  # json writes Infinity and NaN
        with pytest.raises(relbelief.InvariantViolation, match=f"{field} contains non-finite"):
            load_model(path)
        for argv in (["validate"], ["estimate", "--x", "1", "--estimator", "lrse"]):
            assert run(["--output-dir", str(tmp_path / argv[0]), argv[0], "--model", path,
                        *argv[1:]]) == 2
            assert "non-finite" in capsys.readouterr().err

    def test_classify_with_risks(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            ["--output-dir", str(out), "classify", "--psi1", "0.05", "--psi2",
             "0.8", "--epsilon", "0.05", "--x", "1", "--method", "lrse", "--risks"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "psi2"
        header, row = (out / "classify.csv").read_text().strip().splitlines()
        assert "unweighted_sum" in header
        assert "0.25" in row

    @pytest.mark.parametrize("design,y,w,printed", [
        ("1e160", "1", "1", "psi_map=1e-160 psi_lrse=1e-160 z_map=1e-160 z_lrse=2e-160"),
        ("1e-160", "1", "1", "psi_map=1e-160 psi_lrse=1e+160 z_map=1e-160 z_lrse=2e+160"),
        ("1,1;1,1.000000001", "1,1", "1,1", None),
    ])
    def test_predict_regression_at_extreme_scales(self, tmp_path, capsys, design, y, w, printed):
        out = tmp_path / "r"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(out), "predict", "--kind", "regression",
                        "--design", design, "--y", y, "--w", w]) == 0
        if printed:
            assert capsys.readouterr().out.strip() == printed
        (row,) = json.loads((out / "predict.json").read_text())["rows"]
        X = [[float(v) for v in r.split(",")] for r in design.split(";")]
        exact = exact_regression(X, y.split(","), w.split(","), 1.0, 1.0)
        for cell in ("psi_map", "psi_lrse", "z_lrse"):
            error = abs(Fraction(float(row[cell])) - exact[cell])
            assert error <= Fraction(1e-9) * abs(exact[cell])

    def test_risk_table_csv(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            ["--output-dir", str(out), "--seed", "5", "risk-table",
             "--reps", "2000", "--betas", "1,14"]
        )
        assert code == 0
        lines = (out / "risk_table.csv").read_text().strip().splitlines()
        assert lines[0] == "beta,method,M0,M1,sum,se,exact_M0,exact_M1,z_M0,z_M1"
        assert len(lines) == 5

    def test_parser_is_built_once_and_keeps_no_arguments(self, classifier_file, tmp_path):
        assert build_parser() is build_parser()
        first = tmp_path / "first"
        assert run(["--output-dir", str(first), "--seed", "5", "--threads", "2", "risk-table",
                    "--reps", "2000", "--betas", "14", "--n", "4"]) == 0
        assert run(["risk-table", "--reps", "oops"]) == 2
        second = tmp_path / "second"
        assert run(["--output-dir", str(second), "estimate", "--model", classifier_file,
                    "--x", "1", "--estimator", "lrse"]) == 0
        manifest = json.loads((second / "manifest.json").read_text())
        assert manifest["subcommand"] == "estimate"
        assert manifest["seed"] == 0
        assert manifest["config"] == {
            "output_dir": str(second), "seed": 0, "threads": 1, "model": classifier_file,
            "x": "1", "estimator": "lrse", "loss": None,
        }

    def test_converge_runs_small_schedule(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            ["--output-dir", str(out), "converge", "--lambdas", "0.4,0.2",
             "--etas", "0.01", "--gamma", "0.9"]
        )
        assert code == 0
        lines = (out / "converge.csv").read_text().strip().splitlines()
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"capped-bayes", "grid-lrse", "region-rs", "region-capped"}

    @pytest.mark.parametrize("kind", ["not utf-8", "directory", "missing"])
    def test_unreadable_model_file_is_a_validation_error(self, tmp_path, kind):
        # The command line's exit 2 on each is a row of cli_cases.json.
        path = tmp_path / "model.json"
        if kind == "not utf-8":
            path.write_bytes(b'{"theta": ["\xd0"]}')
        elif kind == "directory":
            path.mkdir()
        with pytest.raises(ModelSpecError, match="^file: not a readable JSON file: ") as info:
            load_model(path)
        assert info.value.field == "file"

    def test_subnormal_likelihood_column_estimates(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "tiny.json",
            {
                "theta": ["a", "b"],
                "prior": [0.5, 0.5],
                "x": ["x0", "x1"],
                "likelihood": [[0.7, 5e-324], [0.2, 5e-324]],
                "psi_map": ["a", "b"],
            },
        )
        for x, argmax_set in (("x0", "0"), ("x1", "0|1")):
            code = run(["--output-dir", str(tmp_path / x), "estimate", "--model", path,
                        "--x", x, "--estimator", "lrse"])
            assert code == 0
            assert capsys.readouterr().out == "a\n"
            row = (tmp_path / x / "estimate.csv").read_text().splitlines()[1]
            assert row.endswith("," + argmax_set)

    def test_saved_spec_reingests_identically(self, classifier_file, tmp_path):
        model = load_model(classifier_file)
        copy_path = tmp_path / "copy.json"
        save_model(model, copy_path)
        again = load_model(copy_path)
        np.testing.assert_array_equal(model.prior, again.prior)
        np.testing.assert_array_equal(model.likelihood, again.likelihood)
        assert model.theta_labels == again.theta_labels
        assert model.psi_labels == again.psi_labels

    def test_prior_sum_past_the_largest_double(self, tmp_path, capsys):
        # The prior stands for (0.5, 0.5, 1e-308); only its sum overflows.
        path = write_json(
            tmp_path / "huge.json",
            {
                "theta": ["p", "q", "r"],
                "prior": [1e308, 1e308, 2],
                "x": ["x0", "x1"],
                "likelihood": [[0.4, 0.6], [0.7, 0.3], [0.2, 0.8]],
                "psi_map": ["p", "q", "r"],
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(tmp_path / "v"), "validate", "--model", path]) == 2
            assert "prior: sums to inf, not 1" in capsys.readouterr().err
            warnings.filterwarnings("ignore", "prior summed to inf; renormalizing", UserWarning)
            assert run(["--output-dir", str(tmp_path / "e"), "estimate", "--model", path,
                        "--x", "x0", "--estimator", "lrse"]) == 0
            assert capsys.readouterr().out == "q\n"
            np.testing.assert_array_equal(load_model(path).prior, [0.5, 0.5, 1e-308])
