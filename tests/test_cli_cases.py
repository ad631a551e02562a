"""Every case of ``cli_cases.json``, run in-process through ``cli.run``.

``smoke.py`` runs the same cases as fresh processes and holds the checks
that both apply.
"""

import warnings

import pytest

import smoke
from relbelief.cli import run


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_cases")
    smoke.write_files(directory)
    return directory


def test_case_ids_are_unique():
    ids = [case["id"] for case in smoke.CASES]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("case", smoke.CASES, ids=[case["id"] for case in smoke.CASES])
def test_cli_case(case, case_dir, monkeypatch, capsys):
    monkeypatch.chdir(case_dir)
    with warnings.catch_warnings():
        if case.get("fail_on_runtime_warning"):
            warnings.simplefilter("error", RuntimeWarning)
        code = run(smoke.argv(case))
    out, err = capsys.readouterr()
    assert smoke.problems(case, code, out, err, case_dir) == []


def test_module_entry_point_runs_a_case(tmp_path):
    smoke.write_files(tmp_path)
    (case,) = [case for case in smoke.CASES if case["id"] == "validate-classifier"]
    assert smoke.run_fresh(case, tmp_path) == []
