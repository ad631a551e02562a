"""Run every case of ``cli_cases.json`` as a fresh ``python -m relbelief`` process.

The table's ``files`` are written once into a temporary directory, and each
case runs there with ``--output-dir`` set to its ``id``.  A case passes when
its exit code is the row's ``exit``, its stdout and stderr contain the row's
``stdout`` and ``stderr`` text, and its ``manifest.json`` reads the status
of that exit code.  A successful run must have written every artifact its
manifest lists and nothing to stderr, and a failed run nothing but the
manifest.  The manifest and every JSON artifact it lists must read as
``json.dumps(indent=2)`` writes their document, so the report writer's
bytes are pinned on every case.  Every process runs under ``-X dev -W
error::ResourceWarning -W error::RuntimeWarning``, so a file or other
resource left for exit-time cleanup prints to stderr, and a numpy overflow
or invalid operation fails the case.  The first entry of each process's ``PYTHONPATH`` holds a
``scipy`` package that raises ``ImportError``, so a case fails if the
command line imports scipy, which the runtime does not depend on.
``tests/test_cli_cases.py`` runs the same rows in-process, with these checks.

Only the standard library is imported, so this runs wherever the package
does, without the test extra::

    PYTHONPATH=src python tests/smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE = json.loads(Path(__file__).with_name("cli_cases.json").read_text(encoding="utf-8"))
CASES = TABLE["cases"]
STATUS = {0: "ok", 2: "validation-error", 1: "error"}
NO_SCIPY = 'raise ImportError("relbelief runs on numpy alone; scipy is only a test extra")\n'


def write_files(directory: Path) -> None:
    """The table's files: a document as JSON, a string as it stands.

    Strings are written as Latin-1, one byte per character, so a file may
    hold bytes that are not UTF-8.
    """
    for name, content in TABLE["files"].items():
        text = content if isinstance(content, str) else json.dumps(content)
        (directory / name).write_bytes(text.encode("latin-1"))


def argv(case) -> list:
    return ["--output-dir", case["id"], *case["argv"]]


def problems(case, code: int, out: str, err: str, directory: Path) -> list:
    """How a run of ``case`` in ``directory`` differs from its row; empty if it passes."""
    found = [] if code == case["exit"] else [f"exit {code}, expected {case['exit']}"]
    for stream, text in (("stdout", out), ("stderr", err)):
        if case.get(stream, "") not in text:
            found.append(f"{stream} lacks {case[stream]!r}: {text!r}")
    outdir = directory / case["id"]
    try:
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    except OSError as exc:
        return found + [f"no manifest: {exc}"]
    if manifest["status"] != STATUS.get(code):
        found.append(f"manifest status {manifest['status']!r} after exit {code}")
    documents = [outdir / "manifest.json"]
    if code == 0:
        found += [f"artifact {a} missing" for a in manifest["artifacts"] if not (directory / a).is_file()]
        found += [f"stderr after exit 0: {err!r}"] if err else []
        documents += [directory / a for a in manifest["artifacts"]
                      if a.endswith(".json") and (directory / a).is_file()]
    elif sorted(p.name for p in outdir.iterdir()) != ["manifest.json"]:
        found.append(f"a failed run left {sorted(p.name for p in outdir.iterdir())}")
    for path in documents:
        text = path.read_text(encoding="utf-8")
        if text != json.dumps(json.loads(text), indent=2) + "\n":
            found.append(f"{path.name} is not laid out as json.dumps(indent=2) lays it out")
    return found


def run_fresh(case, directory: Path) -> list:
    """Run ``case`` as a new process in ``directory``; its :func:`problems`."""
    blocker = directory.absolute() / "no-scipy"
    (blocker / "scipy").mkdir(parents=True, exist_ok=True)
    (blocker / "scipy" / "__init__.py").write_text(NO_SCIPY)
    env = dict(os.environ)
    # Relative entries would resolve against the case directory.
    paths = [os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(blocker), *paths])
    flags = ["-X", "dev", "-W", "error::ResourceWarning", "-W", "error::RuntimeWarning"]
    proc = subprocess.run([sys.executable, *flags, "-m", "relbelief", *argv(case)],
                          cwd=directory, env=env, capture_output=True, encoding="utf-8",
                          errors="replace", timeout=600)
    return problems(case, proc.returncode, proc.stdout, proc.stderr, directory)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_files(directory)
        for case in CASES:
            found = run_fresh(case, directory)
            failed += bool(found)
            print(("FAIL " if found else "ok   ") + case["id"], *found, sep="\n     ")
    print(f"smoke: {len(CASES) - failed} of {len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
