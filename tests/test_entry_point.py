"""The ``relbelief`` script's entry point against ``cli.run``.

``main`` freezes the heap once ``run`` has returned, so the collections at
interpreter exit skip what the imports made; ``run`` never freezes, so a
process that calls it many times keeps collecting what each run leaves.
"""

import gc
import sys

import pytest

import smoke
from relbelief import cli


@pytest.mark.parametrize("code", [0, 1, 2])
def test_main_freezes_the_heap_after_run_and_exits_with_its_code(code, monkeypatch):
    events = []

    def run(argv):
        events.append(("run", argv))
        return code

    monkeypatch.setattr(sys, "argv", ["relbelief", "validate", "--model", "m.json"])
    monkeypatch.setattr(cli, "run", run)
    monkeypatch.setattr(gc, "freeze", lambda: events.append(("freeze",)))
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == code
    assert events == [("run", ["validate", "--model", "m.json"]), ("freeze",)]


@pytest.mark.parametrize("argv, code", [
    (["validate", "--model", "classifier.json"], 0),
    (["--output-dir", "classifier.json/out", "validate", "--model", "classifier.json"], 1),
    (["validate", "--model", "missing.json"], 2),
    (["validate"], 2),  # refused by argparse
])
def test_an_in_process_run_leaves_the_heap_unfrozen(argv, code, tmp_path, monkeypatch):
    smoke.write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    frozen = gc.get_freeze_count()
    assert cli.run(argv) == code
    assert gc.get_freeze_count() == frozen
