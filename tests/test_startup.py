"""Start-up footprint of the CLI.

A CLI run pays for the interpreter, then for ``import surmise.cli``, then
for its work.  The package import must not pull in ``dataclasses`` or
``inspect``, whose own import (with ``ast``, ``dis`` and ``tokenize``)
cost more than the work of a run on a small table, nor ``json``, which
only the JSON writers need, for a name that needs an escape, and import
on first use, nor ``argparse`` and the ``gettext`` it imports: the CLI
reads its command line from its own command table.  ``site`` may load
modules of its own before any user code runs (``.pth`` files of installed
packages), so the check compares the modules loaded after the import with
those loaded just before it, in one fresh interpreter.  No time is
asserted; ``python -X importtime -c "import surmise.cli"`` shows the
times.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ADDED_BY_IMPORT = """\
import sys
before = set(sys.modules)
import surmise.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def modules_added_by_cli_import() -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", ADDED_BY_IMPORT],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(result.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    added = modules_added_by_cli_import()
    assert {"surmise", "surmise.cli", "surmise.table"} <= added
    forbidden = {"dataclasses", "inspect", "json", "argparse", "gettext"}
    assert forbidden.isdisjoint(added), sorted(added)


# Runs the CLI on argv in this interpreter, then reports on stderr
# whether ``json`` was loaded.
JSON_LOADED_BY_RUN = """\
import sys
from surmise.cli import cli_main
code = cli_main(sys.argv[1:])
print(code, "json" in sys.modules, file=sys.stderr)
"""


def test_json_output_on_plain_names_never_loads_json():
    """Names of printable ASCII without quotes or backslashes are quoted
    without ``json``, so ``analyze --json`` on them never imports it."""
    data = SRC.parent / "tests" / "data"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", JSON_LOADED_BY_RUN, "analyze",
         str(data / "twelve_models.csv"), "--json"],
        capture_output=True, env=env, check=True,
    )
    assert result.stdout == (data / "twelve_models.analyze.json").read_bytes()
    assert result.stderr.split() == [b"0", b"False"]


# Runs the CLI on argv in this interpreter, then reports on stderr its
# exit code and whether ``argparse`` or ``gettext`` was loaded.
ARGPARSE_LOADED_BY_RUN = """\
import sys
from surmise.cli import cli_main
code = cli_main(sys.argv[1:])
print(code, "argparse" in sys.modules, "gettext" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv,golden", [
    (["analyze", "twelve_models.csv", "--json"], "twelve_models.analyze.json"),
    (["analyze", "twelve_models.csv", "--text", "--counts", "--flexibility", "5"],
     "twelve_models.analyze-5-counts.txt"),
    (["structure", "worked_example.csv"], "worked_example.structure.txt"),
])
def test_a_run_never_loads_argparse(argv, golden):
    """No success path imports argparse lazily."""
    data = SRC.parent / "tests" / "data"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", ARGPARSE_LOADED_BY_RUN, *argv],
        capture_output=True, env=env, check=True, cwd=data,
    )
    assert result.stdout == (data / golden).read_bytes()
    assert result.stderr.split() == [b"0", b"False", b"False"]
