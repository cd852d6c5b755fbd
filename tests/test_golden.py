"""Every CLI command's stdout and exit code on ``cases/``, against a recording.

``tests/golden/cases.json`` maps each command line to its exit code and
stdout: the six commands on every ``cases/*.drs`` file, text and
``--json``, with and without ``--bg cases/marriage.bg`` where the command
takes one, ``readings --no-filter``, and ``prove`` on the formula that
each ``extract --json`` prints.  A refactor must leave all of it
byte-identical.  After a deliberate output change, rewrite the recording
with ``PYTHONPATH=src python tests/test_golden.py --write`` and review its
diff.
"""

import contextlib
import glob
import io
import json
import os
import sys
import tempfile

import pytest

from ctxdrt.cli import _COMMANDS, main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(ROOT, "tests", "golden", "cases.json")
BG = "cases/marriage.bg"


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


def _command_lines() -> list[list[str]]:
    lines = []
    for case in sorted(glob.glob(os.path.join(ROOT, "cases", "*.drs"))):
        path = "cases/" + os.path.basename(case)
        for json_flag in ([], ["--json"]):
            for command in ("parse", "resolve", "prove"):
                lines.append([command, path, *json_flag])
            for command in ("readings", "extract", "compare"):
                for bg in ([], ["--bg", BG]):
                    lines.append([command, path, *bg, *json_flag])
            for bg in ([], ["--bg", BG]):
                lines.append(["readings", path, *bg, "--no-filter", *json_flag])
    return lines


def record() -> dict[str, dict]:
    """Run every command line from the repository root; keys are the lines."""
    results: dict[str, dict] = {}
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in _command_lines():
            result = _run(argv)
            results[" ".join(argv)] = result
            if argv[0] == "extract" and "--json" in argv and result["exit"] == 0:
                formula = json.loads(result["stdout"]).get("formula")
                if formula is None:
                    continue
                with tempfile.TemporaryDirectory() as tmp:
                    lcon = os.path.join(tmp, "task.lcon")
                    with open(lcon, "w", encoding="utf-8") as handle:
                        handle.write(formula + "\n")
                    for json_flag in ([], ["--json"]):
                        key = "prove <formula of: %s> %s" % (" ".join(argv), " ".join(json_flag))
                        results[key.strip()] = _run(["prove", lcon, *json_flag])
    finally:
        os.chdir(cwd)
    return results


@pytest.fixture(scope="module")
def recorded():
    return record()


def test_golden_covers_every_command_line(recorded):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(recorded) == sorted(golden)
    assert {argv.split()[0] for argv in golden} == set(_COMMANDS)
    assert {result["exit"] for result in golden.values()} == {0, 1, 2, 3}


def test_cli_output_on_cases_is_unchanged(recorded):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    changed = [key for key in golden if recorded.get(key) != golden[key]]
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
