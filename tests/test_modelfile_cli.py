"""Model file schema, round-trips, and the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relbelief
from relbelief import (
    BinomialClassifier,
    FiniteModel,
    ModelSpecError,
    belief_tables,
    load_model,
    save_model,
)
from relbelief.cli import run


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
            future_kernel=np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]),
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
        np.testing.assert_array_equal(loaded.future_kernel, model.future_kernel)
        assert loaded.x_labels == model.x_labels

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
        np.testing.assert_allclose(model.likelihood, [[0.95, 0.05], [0.2, 0.8]])
        assert model.x_labels == ("0", "1")

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
        np.testing.assert_allclose(model.likelihood.sum(axis=1), 1.0, atol=1e-12)

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
        out = tmp_path / "copy.json"
        save_model(model, out)
        again = load_model(out)
        assert again.family_spec == model.family_spec

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

    def test_estimate_bayes_needs_loss(self, classifier_file, tmp_path):
        code = run(
            ["--output-dir", str(tmp_path / "r"), "estimate", "--model",
             classifier_file, "--x", "1", "--estimator", "bayes"]
        )
        assert code == 2

    def test_bayes_with_loss(self, classifier_file, tmp_path, capsys):
        code = run(
            ["--output-dir", str(tmp_path / "r"), "estimate", "--model",
             classifier_file, "--x", "1", "--estimator", "bayes",
             "--loss", "prior-based"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "psi2"

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

    def test_validate_names_offending_field(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad.json",
            {
                "theta": ["a", "b"],
                "prior": [0.45, 0.45],
                "likelihood": [[1.0, 0.0], [0.0, 1.0]],
                "psi_map": ["a", "b"],
            },
        )
        out = tmp_path / "run"
        code = run(["--output-dir", str(out), "validate", "--model", path])
        assert code == 2
        assert "prior" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "validation-error"

    def test_validate_accepts_good_model(self, classifier_file, tmp_path):
        code = run(
            ["--output-dir", str(tmp_path / "r"), "validate", "--model", classifier_file]
        )
        assert code == 0

    def test_module_entry_point(self, classifier_file, tmp_path):
        src = str(Path(relbelief.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "relbelief", "--output-dir", str(tmp_path / "r"),
             "validate", "--model", classifier_file],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

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

    def test_predict_class(self, tmp_path, capsys):
        code = run(
            ["--output-dir", str(tmp_path / "r"), "predict", "--kind", "class",
             "--alpha", "1", "--beta", "14", "--n", "10", "--cbar", "0",
             "--mu", "1.0", "--x-next", "2.0", "--method", "lrse"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "1"

    def test_predict_regression(self, tmp_path, capsys):
        code = run(
            ["--output-dir", str(tmp_path / "r"), "predict", "--kind", "regression",
             "--design", "1", "--y", "1", "--w", "1",
             "--sigma2", "1", "--tau2", "1"]
        )
        assert code == 0
        assert "z_lrse=2" in capsys.readouterr().out

    def test_risk_table_csv(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            ["--output-dir", str(out), "--seed", "5", "risk-table",
             "--reps", "2000", "--betas", "1,14"]
        )
        assert code == 0
        lines = (out / "risk_table.csv").read_text().strip().splitlines()
        assert lines[0] == "beta,method,M0,M1,sum,se"
        assert len(lines) == 5

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

    def test_runtime_error_exit_one(self, tmp_path):
        # a callback-likelihood model cannot be serialized; simulate a
        # runtime failure through an unloadable file instead
        missing = tmp_path / "missing.json"
        code = run(
            ["--output-dir", str(tmp_path / "r"), "estimate", "--model",
             str(missing), "--x", "0", "--estimator", "lrse"]
        )
        assert code in (1, 2)
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["status"] != "ok"

    def test_saved_spec_reingests_identically(self, classifier_file, tmp_path):
        model = load_model(classifier_file)
        copy_path = tmp_path / "copy.json"
        save_model(model, copy_path)
        again = load_model(copy_path)
        np.testing.assert_array_equal(model.prior, again.prior)
        np.testing.assert_array_equal(model.likelihood, again.likelihood)
        assert model.theta_labels == again.theta_labels
        assert model.psi_labels == again.psi_labels
