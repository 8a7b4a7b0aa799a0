"""The README's CLI usage block and Library example match the package.

The usage block is the first ``sh`` block under the ``## CLI`` heading:
its lines are the usage lines ``surmise --help`` prints.  The example
is the first ``python`` block under the ``## Library`` heading; it reads
``results.csv`` from the working directory, so it runs in a fresh
interpreter in a temporary directory holding the twelve-model table
under that name.  The interpreter runs in development mode, so a
warning the example triggers, such as a file left open, fails the test.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from surmise.cli import cli_main

from conftest import TWELVE_MODELS_PATH

ROOT = Path(__file__).resolve().parent.parent


def first_block(heading: str, language: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return re.search(f"^```{language}\n(.*?)^```$", section, re.DOTALL | re.MULTILINE).group(1)


def library_example() -> str:
    return first_block("Library", "python")


def test_cli_usage_block_is_the_help(capsys):
    assert cli_main(["--help"]) == 0
    printed = capsys.readouterr().out.splitlines()
    usage = [line for line in printed if line.startswith("surmise ")]
    assert [" ".join(line.split()) for line in first_block("CLI", "sh").splitlines()] == usage


def test_library_example_runs(tmp_path):
    shutil.copy(TWELVE_MODELS_PATH, tmp_path / "results.csv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-c", library_example()],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert re.search(r"^digraph hierarchy \{\n.*^\}$", result.stdout, re.DOTALL | re.MULTILINE)
