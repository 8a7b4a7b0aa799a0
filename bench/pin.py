"""Record the sha256 of the CLI's stdout for the benchmark's tables.

    python3 bench/pin.py --seeds 0 31

Runs the CLI on every table of every workload for the seeds in the given
inclusive range and adds the hash of each output that passes check.py to
``bench/pins.json``.  The pins are taken at the commit that defines the
benchmark, so later byte drift fails the run; re-pinning is a change to
the benchmark itself.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from check import sha256
from gen import make_table
from run import BENCH, OUT, WORKLOADS, Launcher, check_output

PINS = BENCH / "pins.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    args = parser.parse_args()
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=OUT))
    csv, out = work / "table.csv", work / "table.out"
    bad = 0
    try:
        with Launcher() as launcher:
            for seed in range(args.seeds[0], args.seeds[1] + 1):
                for w in WORKLOADS.values():
                    for i in range(w.tables):
                        table = make_table(w.shape, f"{w.name}:{seed}:{i}")
                        csv.write_bytes(table.csv_bytes())
                        child = launcher.spawn(
                            [sys.executable, "-m", "surmise", *w.cli_args(str(csv))],
                            out, time.monotonic() + 170,
                        )
                        output = out.read_bytes()
                        problems = [f"exit code {child.code}"] if child.code else \
                            check_output(w, table, output, w.command, None)
                        if problems:
                            bad += 1
                            print(f"not pinned {table.key}: {problems}", file=sys.stderr)
                        else:
                            pins[table.key] = sha256(output)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINS.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
