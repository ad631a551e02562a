"""How the CLI writes its artifacts, and the exact sums behind its numbers.

Every report, JSON mirror, manifest and saved model goes through
``reporting.write_text``, which rewrites a file in place; these tests pin
that the bytes are those ``Path.write_text`` gives, whatever the file held
before, and that a failing write ends the run with a message, not a
traceback.  ``reporting.write_report`` formats each value once and writes
the JSON mirror's text itself; its CSV and JSON bytes are pinned to the
two-pass writer kept in ``report_oracle``.
"""

import csv
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbelief import FiniteModel, load_model, save_model
from relbelief.cli import run
from relbelief.model import _fsum
from relbelief.reporting import write_report, write_text
from report_oracle import report_texts

# Any text the default encoding can write: no lone surrogates.
TEXTS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=300)

SHORT = ["risk-table", "--betas", "14"]
LONG = ["risk-table", "--betas", ",".join(str(b) for b in range(1, 41))]
ARTIFACTS = ("risk_table.csv", "risk_table.json", "manifest.json")


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def run_into(outdir, argv) -> dict[str, bytes]:
    assert run(["--output-dir", str(outdir), *argv]) == 0
    return {name: (outdir / name).read_bytes() for name in ARTIFACTS}


def comparable(manifest: bytes, outdir) -> dict:
    doc = json.loads(manifest)
    del doc["wall_time_s"]
    return json.loads(json.dumps(doc).replace(str(outdir), "OUT"))


class TestWriteText:
    def test_creates_a_new_path(self, tmp_path):
        path = tmp_path / "new.csv"
        write_text(path, "a,b\n1,2\n")
        assert path.read_bytes() == b"a,b\n1,2\n"

    @settings(max_examples=60, deadline=None)
    @given(before=TEXTS, text=TEXTS)
    @example(before="x" * 200, text="ψ,θ\n0.5,é\n")
    @example(before="", text="a\r\nb\rc\n")
    def test_bytes_equal_path_write_text_whatever_the_file_held(self, tmp_path_factory, before,
                                                                text):
        tmp = tmp_path_factory.mktemp("w")
        expected = tmp / "expected"
        expected.write_text(text)
        path = tmp / "artifact"
        path.write_text(before)
        write_text(path, text)
        assert path.read_bytes() == expected.read_bytes()


# Floats at the edges of the double range, as Python floats and numpy scalars.
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
).flatmap(lambda v: st.sampled_from([v, np.float64(v)]))
# Quotes, backslashes, control, non-ASCII and astral characters, and RFC 4180's specials.
REPORT_TEXTS = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f,\r\né\u2028\U0001F600'),
                                 st.characters(blacklist_categories=("Cs",))), max_size=12)
VALUES = st.one_of(FLOATS, REPORT_TEXTS, st.booleans(), st.none(),
                   st.integers(-10**30, 10**30))


@st.composite
def reports(draw):
    columns = draw(st.lists(REPORT_TEXTS, max_size=5, unique=True))
    row = st.lists(VALUES, min_size=len(columns), max_size=len(columns))
    return columns, draw(st.lists(row, max_size=4))


class TestWriteReport:
    @settings(max_examples=200, deadline=None)
    @given(report=reports())
    @example(report=([], []))
    @example(report=([], [[], []]))
    @example(report=(["a", "b"], [[np.float64(0.1), math.nan], [-0.0, 10**30]]))
    def test_bytes_equal_the_two_pass_writer(self, tmp_path_factory, report):
        columns, rows = report
        tmp = tmp_path_factory.mktemp("r")
        csv_text, json_text = report_texts(columns, rows)
        (tmp / "oracle.csv").write_text(csv_text)
        (tmp / "oracle.json").write_text(json_text)
        assert write_report(tmp / "report", columns, rows) == [tmp / "report.csv",
                                                               tmp / "report.json"]
        assert (tmp / "report.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()
        assert (tmp / "report.json").read_bytes() == (tmp / "oracle.json").read_bytes()

    @pytest.mark.parametrize("columns, rows", [
        (["a", "a"], [[2.0, 2.5]]),
        (["a", "b", "a"], []),
        (["a", "b"], [[1.0, 2.0], [1.0]]),
    ], ids=["repeated-column", "repeated-column-no-rows", "short-row"])
    def test_a_report_the_mirror_cannot_hold_is_refused_unwritten(self, tmp_path, columns, rows):
        with pytest.raises(ValueError, match="column name|row width"):
            write_report(tmp_path / "report", columns, rows)
        assert list(tmp_path.iterdir()) == []


class TestCsvQuoting:
    LABELS = ["low, high", 'say "hi"', "two\nlines", "carriage\rreturn"]

    @staticmethod
    def read_csv(path) -> list[list[str]]:
        with open(path, newline="", encoding="utf-8") as f:
            return list(csv.reader(f))

    def test_text_fields_parse_back_to_the_header_width(self, tmp_path):
        folder = tmp_path / "models, one"
        folder.mkdir()
        model = folder / "m.json"
        model.write_text(json.dumps({
            "theta": self.LABELS, "prior": [0.1, 0.2, 0.3, 0.4], "psi_map": self.LABELS,
            "likelihood": [[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]]}))
        runs = {"estimate-0": ["estimate", "--x", "0", "--estimator", "lrse"],
                "estimate-1": ["estimate", "--x", "1", "--estimator", "lrse"],
                "region": ["region", "--x", "0", "--family", "rs", "--gamma", "1"],
                "validate": ["validate"]}
        tables = {}
        for name, argv in runs.items():
            outdir = tmp_path / name
            assert run(["--output-dir", str(outdir), *argv, "--model", str(model)]) == 0
            (report,) = outdir.glob("*.csv")
            header, *rows = tables[name] = self.read_csv(report)
            assert rows and all(len(row) == len(header) for row in rows), report
        assert [row[4] for row in tables["estimate-0"][1:] + tables["estimate-1"][1:]] == [
            self.LABELS[0], self.LABELS[3]]
        assert [row[5] for row in tables["region"][1:]] == self.LABELS
        assert tables["validate"][1:] == [[str(model), "ok"]]


class TestRewrittenArtifacts:
    @pytest.mark.parametrize("first, second", [(LONG, SHORT), (SHORT, LONG)],
                             ids=["shorter", "longer"])
    def test_second_run_equals_a_fresh_run(self, tmp_path, first, second):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        before = run_into(reused, first)
        after = run_into(reused, second)
        expected = run_into(fresh, second)
        for name in ARTIFACTS:
            assert (len(after[name]) < len(before[name])) == (first is LONG)
        assert after["risk_table.csv"] == expected["risk_table.csv"]
        assert after["risk_table.json"] == expected["risk_table.json"]
        assert comparable(after["manifest.json"], reused) == comparable(
            expected["manifest.json"], fresh)

    def test_a_failing_run_after_a_good_one_leaves_its_own_manifest(self, tmp_path, capsys):
        good = run_into(tmp_path, LONG)["manifest.json"]
        assert run(["--output-dir", str(tmp_path), "risk-table", "--betas", ","]) == 2
        text = (tmp_path / "manifest.json").read_bytes()
        assert len(text) < len(good)
        manifest = json.loads(text)
        assert manifest["status"] == "validation-error" and manifest["artifacts"] == []
        assert "error:" in capsys.readouterr().err

    def test_save_model_over_a_longer_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"padding": "x" * 4000}))
        model = FiniteModel(theta_labels=("a", "b"), prior=[0.25, 0.75],
                            likelihood=[[0.7, 0.3], [0.2, 0.8]], psi_map=[0, 1],
                            psi_labels=("a", "b"))
        save_model(model, path)
        loaded = load_model(path, strict=True)
        np.testing.assert_array_equal(loaded.prior, model.prior)
        np.testing.assert_array_equal(loaded.likelihood, model.likelihood)


CLASSIFY = ["classify", "--psi1", "0.3", "--psi2", "0.6", "--epsilon", "0.1", "--x", "1",
            "--method", "lrse"]


class TestOutputDirErrors:
    def test_output_dir_under_a_regular_file_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["--output-dir", str(blocker / "sub"), *CLASSIFY]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert "manifest not written" in err

    def test_unwritable_manifest_exits_one_after_the_answer(self, tmp_path, capsys):
        (tmp_path / "manifest.json").mkdir()
        assert run(["--output-dir", str(tmp_path), *CLASSIFY]) == 1
        out, err = capsys.readouterr()
        assert out == "psi2\n"
        assert err.startswith("error: manifest not written") and "Is a directory" in err
        assert (tmp_path / "classify.csv").exists()

    def test_a_failed_run_keeps_its_own_exit_code(self, tmp_path, capsys):
        (tmp_path / "manifest.json").mkdir()
        assert run(["--output-dir", str(tmp_path), "risk-table", "--betas", ","]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: the risk table needs at least one beta"
        assert err[1].startswith("error: manifest not written")

    def test_an_argv_argparse_rejects_exits_two_and_writes_no_manifest(self, tmp_path, capsys):
        assert run(["--output-dir", str(tmp_path), "risk-table", "--reps", "oops"]) == 2
        assert "invalid int value: 'oops'" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


FINITE = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(FINITE, max_size=40), start=st.integers(0, 3), step=st.integers(1, 4))
    @example(values=[], start=0, step=1)
    @example(values=[5e-324, -5e-324, 2.2250738585072014e-308, 1e-310], start=0, step=1)
    @example(values=[1e300, 5e-324, -1e300, 5e-324, 1.0, 1e-320], start=1, step=2)
    def test_memoryview_sum_keeps_the_bits_of_the_list_sum(self, values, start, step):
        arr = np.array(values, dtype=np.float64)[start::step]
        assert bits(_fsum(arr)) == bits(math.fsum(arr.tolist()))
