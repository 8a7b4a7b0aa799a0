"""Start-up footprint of the CLI.

A CLI run pays for the interpreter, then for ``import surmise.cli``, then
for its work.  The package import must not pull in ``dataclasses`` or
``inspect``, whose own import (with ``ast``, ``dis`` and ``tokenize``)
cost more than the work of a run on a small table.  ``site`` may load
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
    assert {"dataclasses", "inspect"}.isdisjoint(added), sorted(added)
