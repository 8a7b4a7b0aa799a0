"""Benchmark of the surmise CLI on seeded latent-ability tables.

    python3 bench/run.py --workload items-wide --seed 1 --seconds 20 --trace 0

Run from any directory of a source checkout; the package is taken from
``src/`` next to this directory.  The tables of a run are generated from
``--seed`` and written to CSV before any timing starts; the CLI only sees
those files.

``--trace 0`` runs the workload's batch through the real CLI, one child
process at a time (a closed loop with one client), and repeats the whole
batch while another batch still fits in ``--seconds``.  It reports the
end-to-end metrics as medians over those rounds: batch wall time, the
children's CPU and peak RSS read with ``os.wait4``, and the set-up time
of a fresh ``import surmise.cli`` (a few spawns before every round).

``--trace 1`` takes the batch's first table and runs it once through the
CLI, then in-process through ``surmise.cli.cli_main`` (an unmeasured
warm-up pass, then one without and one with spans around the package's
public functions), then through the layers the workload's command does
not reach (so every layer is timed on every workload), repeating while
another round fits in ``--seconds``.  It reports per-layer times, self
times, size counters and the tracing overhead.  Spans are written to
``bench/out/``.

Every output is checked against ``check.py`` outside the timed region; a
failed table counts in ``failed`` and never aborts the run.  The last
stdout line is the result object; the line before it holds the run's
details and the machine it ran on.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from check import (  # noqa: E402
    Analysis,
    check_analysis,
    check_pin,
    check_structure,
    expected_analysis,
    expected_structure,
    sha256,
)
from gen import Shape, Table, make_table  # noqa: E402
from spans import Tracer, durations  # noqa: E402

SETUP_SPAWNS_PER_ROUND = 5
RUN_LIMIT_S = 150.0  # stay well inside the 180 s a run may take


@dataclass(frozen=True)
class Workload:
    """One fixed-size batch.  ``flexibility``, ``fmt`` and ``counts`` set
    the analyze pipeline; a structure workload uses them only for the
    traced run's pass over the layers its own command skips."""

    name: str
    why: str
    shape: Shape
    tables: int
    command: str  # "analyze" or "structure"
    flexibility: str = "10"
    fmt: str = "json"
    counts: bool = False

    def cli_args(self, csv: str) -> list[str]:
        if self.command == "structure":
            return ["structure", csv]
        args = ["analyze", csv, "--flexibility", self.flexibility, f"--{self.fmt}"]
        return args + ["--counts"] if self.counts else args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="items-wide",
            why="one eval suite's items scored for a few dozen models: order "
            "and hasse dominate (pair loop, two verifies, O(classes^3) "
            "covering), parse is negligible, output is multi-MB JSON",
            shape=Shape(targets=400, models=40, noise=0.6),
            tables=2,
            command="analyze",
            flexibility="10",
            fmt="json",
        ),
        Workload(
            name="models-tall",
            why="a leaderboard of many checkpoints on a small suite: the "
            "row loop of table.pair_counts (order and --counts) and parse "
            "dominate, hasse costs almost nothing",
            shape=Shape(targets=40, models=8000, noise=0.5),
            tables=2,
            command="analyze",
            flexibility="5",
            fmt="text",
            counts=True,
        ),
        Workload(
            name="structure-rows",
            why="structure on mostly distinct rows: never touches order or "
            "hasse (their no-change control) and reads the table row-wise",
            shape=Shape(targets=40, models=1500, noise=1.0),
            tables=3,
            command="structure",
        ),
    )
}

END_TO_END_UNITS = {"batch_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Functions wrapped wherever the package refers to them.  cli.cli_main is
# the root span and is called directly; table.build_table (on the
# generator's rows) and hasse.assign_layers are probes the CLI never makes.
TRACED = [
    "io.parse_csv",
    "io.analyze",
    "io.emit_report",
    "io.structure_report",
    "order.equivalence_classes",
    "order.order_matrix",
    "order.verify_partial_order",
    "hasse.transitive_reduction",
    "kst.structure_from_table",
    "kst.equally_informative",
    "kst.discriminative_reduction",
]

PER_LAYER_UNITS = {
    "io.parse_csv.s": "s",
    "io.parse_csv.ns_per_cell": "ns/cell",
    "io.analyze.s": "s",
    "io.emit_report.s": "s",
    "io.structure_report.s": "s",
    "table.build_table.s": "s",
    "order.equivalence_classes.s": "s",
    "order.order_matrix.s": "s",
    "order.pair_loop.ns_per_pair": "ns/pair",
    "order.verify_partial_order.s": "s",
    "hasse.transitive_reduction.s": "s",
    "hasse.reduce.self_s": "s",
    "hasse.assign_layers.s": "s",
    "kst.structure_from_table.s": "s",
    "kst.equally_informative.s": "s",
    "kst.discriminative_reduction.s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "table.cells": "count",
    "order.classes": "count",
    "order.relation_pairs": "count",
    "hasse.edges": "count",
    "hasse.depth": "count",
    "hasse.max_layer_width": "count",
    "kst.states": "count",
    "io.output_bytes": "bytes",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package source, wrong import)."""


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_kb: int


def child_env() -> dict[str, str]:
    """The caller's environment minus every PYTHON* setting, plus src/.

    Children then behave the same under any caller (bytecode is cached and
    stdout is buffered, as for an installed CLI).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Runs children through launch.py, so their peak RSS is their own.

    The launcher leads its own process group; leaving the ``with`` block on
    an error kills the group, so no child outlives the run.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT, start_new_session=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            if exc_type is None:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            for pipe in (self.proc.stdin, self.proc.stdout):
                try:
                    pipe.close()
                except OSError:  # the launcher was killed with input unread
                    pass

    def spawn(self, argv: list[str], stdout: Path, deadline: float) -> Child:
        """Run one child to completion; it is killed at ``deadline``."""
        request = {"argv": argv, "stdout": str(stdout),
                   "timeout": max(deadline - time.monotonic(), 0.1)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise BenchError("the child launcher exited")
        return Child(**json.loads(answer))


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def load_pins() -> dict[str, str]:
    path = BENCH / "pins.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_output(w: Workload, table: Table, output: bytes, command: str,
                 pin: str | None) -> list[str]:
    try:
        if command == "structure":
            problems = check_structure(output, expected_structure(table))
        else:
            problems = check_analysis(
                output, w.fmt, expected_analysis(table, w.flexibility, w.counts)
            )
    except Exception as exc:  # output the checker cannot even compare is wrong
        problems = [f"checker raised {exc!r}"[:300]]
    return problems + check_pin(output, pin)


def require_package(launcher: Launcher, work: Path, deadline: float) -> None:
    """Fail unless a fresh interpreter imports the CLI from this checkout."""
    if not (SRC / "surmise" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'surmise'}")
    probe = work / "probe.out"
    child = launcher.spawn(
        [sys.executable, "-c", "import surmise.cli; print(surmise.cli.__file__)"],
        probe, deadline,
    )
    location = probe.read_text().strip()
    if child.code != 0 or Path(location).resolve() != (SRC / "surmise" / "cli.py").resolve():
        raise BenchError(f"surmise.cli imports from {location or 'nowhere'}, not {SRC}")


def timed_run(launcher: Launcher, w: Workload, tables: list[Table], paths: list[Path],
              work: Path, seconds: float, deadline: float) -> tuple[dict, dict]:
    setup: list[float] = []
    rounds: list[dict] = []
    first: list[Path] = [work / f"first-{i}.out" for i in range(len(tables))]
    again = [work / f"again-{i}.out" for i in range(len(tables))]
    started = time.perf_counter()
    while True:
        # Set-up spawns are spread over the run, like the batches, so that
        # both medians see the same drift in machine speed.
        setup += [
            launcher.spawn([sys.executable, "-c", "import surmise.cli"], work / "setup.out",
                           deadline).wall
            for _ in range(SETUP_SPAWNS_PER_ROUND)
        ]
        outs = first if not rounds else again
        children = []
        batch_start = time.perf_counter()
        for path, out in zip(paths, outs):
            children.append(launcher.spawn(
                [sys.executable, "-m", "surmise", *w.cli_args(str(path))], out, deadline))
        batch = time.perf_counter() - batch_start
        rounds.append({
            "batch_s": batch,
            "walls": [c.wall for c in children],
            "cpu_s": sum(c.cpu for c in children),
            "peak_rss_mb": max(c.rss_kb for c in children) / 1024,
            "codes": [c.code for c in children],
            "hashes": [sha256(out.read_bytes()) for out in outs],
        })
        elapsed = time.perf_counter() - started
        next_round = elapsed / len(rounds)
        if elapsed + next_round > seconds or time.monotonic() + next_round > deadline:
            break

    pins = load_pins()
    problems: list[str] = []
    table_ok = []
    for i, table in enumerate(tables):
        found = [] if rounds[0]["codes"][i] == 0 else [f"exit code {rounds[0]['codes'][i]}"]
        if not found:
            found = check_output(w, table, first[i].read_bytes(), w.command, pins.get(table.key))
        problems += [f"{table.key}: {p}" for p in found]
        table_ok.append(not found)
    failed = 0
    for r, rnd in enumerate(rounds):
        for i, table in enumerate(tables):
            if r and (rnd["codes"][i] != 0 or rnd["hashes"][i] != rounds[0]["hashes"][i]):
                problems.append(f"{table.key}: round {r} exit {rnd['codes'][i]} or output changed")
                failed += 1
            elif not table_ok[i]:
                failed += 1

    metrics = {
        "batch_s": median(r["batch_s"] for r in rounds),
        "cpu_s": median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        "setup_s": median(setup),
    }
    detail = {
        "rounds": len(rounds),
        "child_walls": [r["walls"] for r in rounds],
        "setup_s_each": setup,
    }
    return _result(metrics, END_TO_END_UNITS, len(rounds) * len(tables), failed, problems), detail


def _in_process(cli_main, argv: list[str], call=None) -> tuple[int, bytes, float]:
    """Run cli_main with stdout captured; ``call`` wraps it in a span."""
    buffer = io.StringIO()
    saved, sys.stdout = sys.stdout, buffer
    try:
        start = time.perf_counter()
        code = call("cli.cli_main", cli_main, argv) if call else cli_main(argv)
        wall = time.perf_counter() - start
    finally:
        sys.stdout = saved
    return code, buffer.getvalue().encode("utf-8"), wall


def traced_run(launcher: Launcher, w: Workload, table: Table, path: Path, work: Path,
               seconds: float, deadline: float, spans_file: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import surmise.cli
    from surmise.table import Flexibility

    tracer = Tracer()
    tracer.table = table.key
    argv = w.cli_args(str(path))
    pin = load_pins().get(table.key)
    want_analysis = expected_analysis(table, w.flexibility, w.counts)
    want_structure = expected_structure(table)
    cross = "analyze" if w.command == "structure" else "structure"

    rounds: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        found: dict[str, list[str]] = {}
        child = launcher.spawn([sys.executable, "-m", "surmise", *argv], work / "cli.out",
                               deadline)
        cli_out = (work / "cli.out").read_bytes()
        found["cli"] = [f"exit code {child.code}"] if child.code else \
            check_output(w, table, cli_out, w.command, pin)
        first_span = len(tracer.spans)
        try:
            if not rounds:
                # An unmeasured pass first, so that the untraced and the
                # traced pass both find a warmed-up interpreter heap.
                _in_process(surmise.cli.cli_main, argv)
            code, out, untraced = _in_process(surmise.cli.cli_main, argv)
            found["untraced"] = [] if (code, out) == (0, cli_out) else ["in-process output differs"]

            tracer.run = "own"
            with tracer.installed(TRACED):
                code, out, traced = _in_process(surmise.cli.cli_main, argv, tracer.call)
            found["traced"] = [] if (code, out) == (0, cli_out) else ["traced output differs"]

            # The layers the workload's own command never reaches, on the same table.
            parsed = surmise.io.parse_csv(path.read_bytes())
            tracer.run = "cross"
            with tracer.installed(TRACED):
                if cross == "structure":
                    text = surmise.io.structure_report(surmise.kst.structure_from_table(parsed))
                else:
                    report = surmise.io.analyze(parsed, Flexibility.parse(w.flexibility), w.counts)
                    text = surmise.io.emit_report(report, w.fmt)
            found["cross"] = check_output(w, table, text.encode("utf-8"), cross, None)

            tracer.run = "probe"
            build_table = tracer.function("table.build_table")
            if build_table is not None:
                tracer.call("table.build_table", build_table,
                            table.target_names, table.model_names, table.rows)
            assign_layers = tracer.function("hasse.assign_layers")
            diagram = tracer.results.get("hasse.transitive_reduction")
            if assign_layers is not None and diagram is not None:
                tracer.call("hasse.assign_layers", assign_layers, diagram)
        except Exception as exc:  # a crash in the package fails the table, not the run
            found["in-process"] = [f"raised {exc!r}"[:300]]

        for run, items in found.items():
            attempted += 1
            failed += bool(items)
            problems += [f"{table.key} ({run}): {p}" for p in items]
        if "in-process" not in found:
            rounds.append(_layer_times(tracer.spans[first_span:], table, want_analysis,
                                       child.wall, untraced, traced))
        elapsed = time.perf_counter() - started
        per_round = elapsed / (len(rounds) or 1)
        if elapsed + per_round > seconds or time.monotonic() + per_round > deadline:
            break

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if rounds:
        metrics.update({name: median(r[name] for r in rounds) for name in rounds[0]})
    layers = want_analysis.layers
    metrics.update({
        "table.cells": table.cells,
        "order.classes": len(want_analysis.classes),
        "order.relation_pairs": len(want_analysis.relation),
        "hasse.edges": len(want_analysis.hasse),
        "hasse.depth": len(layers),
        "hasse.max_layer_width": max(map(len, layers)),
        "kst.states": want_structure.states,
        "io.output_bytes": len(cli_out),
    })
    if tracer.missing:
        print(f"warning: not found in the package, reported as 0: {sorted(tracer.missing)}",
              file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps({"machine": machine(), "spans": tracer.spans}) + "\n")
    detail = {"rounds": len(rounds), "spans_file": str(spans_file.relative_to(ROOT)),
              "missing": sorted(tracer.missing)}
    return _result(metrics, PER_LAYER_UNITS, attempted, failed, problems), detail


def _layer_times(spans: list[dict], table: Table, want: Analysis, cli_wall: float,
                 untraced: float, traced: float) -> dict[str, float]:
    total, own = durations(spans)
    root = next((s["id"] for s in spans if s["name"] == "cli.cli_main"), None)
    layer_sum = sum(s["end"] - s["start"] for s in spans if s["parent"] == root)
    return {
        "io.parse_csv.s": total["io.parse_csv"],
        "io.parse_csv.ns_per_cell": total["io.parse_csv"] / table.cells * 1e9,
        "io.analyze.s": total["io.analyze"],
        "io.emit_report.s": total["io.emit_report"],
        "io.structure_report.s": total["io.structure_report"],
        "table.build_table.s": total["table.build_table"],
        "order.equivalence_classes.s": total["order.equivalence_classes"],
        "order.order_matrix.s": total["order.order_matrix"],
        "order.pair_loop.ns_per_pair": own["order.order_matrix"] / len(want.classes) ** 2 * 1e9,
        "order.verify_partial_order.s": total["order.verify_partial_order"],
        "hasse.transitive_reduction.s": total["hasse.transitive_reduction"],
        "hasse.reduce.self_s": own["hasse.transitive_reduction"],
        "hasse.assign_layers.s": total["hasse.assign_layers"],
        "kst.structure_from_table.s": total["kst.structure_from_table"],
        "kst.equally_informative.s": total["kst.equally_informative"],
        "kst.discriminative_reduction.s": total["kst.discriminative_reduction"],
        "cli.overhead_s": cli_wall - layer_sum,
        "trace.overhead_frac": (traced - untraced) / untraced,
    }


def _result(metrics: dict, units: dict, attempted: int, failed: int,
            problems: list[str]) -> dict:
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "problems": problems,
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate the workload's tables for ``seed`` and run one benchmark run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    count = 1 if trace else w.tables
    tables = [make_table(w.shape, f"{w.name}:{seed}:{i}") for i in range(count)]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        with Launcher() as launcher:
            require_package(launcher, work, deadline)
            paths = []
            for table in tables:
                paths.append(work / f"{table.key.replace(':', '-')}.csv")
                paths[-1].write_bytes(table.csv_bytes())
            if trace:
                spans_file = OUT / f"spans-{w.name}-{seed}.json"
                result, detail = traced_run(launcher, w, tables[0], paths[0], work, seconds,
                                            deadline, spans_file)
            else:
                result, detail = timed_run(launcher, w, tables, paths, work, seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update({"workload": w.name, "seed": seed, "trace": trace,
                   "tables": [t.key for t in tables], "machine": machine()})
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = result.pop("problems")
    detail["failed_frac"] = result["failed"] / result["attempted"]
    detail["problems"] = problems[:20]
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"failed_frac = {detail['failed_frac']:.6g} ({result['failed']}/{result['attempted']})",
          file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
