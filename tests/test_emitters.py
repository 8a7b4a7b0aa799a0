"""Tests for the streaming emitters.

The JSON writers fill fixed templates; ``oracles`` keeps the
``json.dumps(..., indent=2)`` form of both JSON outputs, and every
rendering must match it byte for byte, on names that JSON escapes
(controls, DEL, non-ASCII, astral code points), on empty arrays and on
long ones.  The pair sections (relation and covering edges) are written
one row at a time; ``oracles`` keeps their one-element-per-pair forms in
JSON, text and DOT.  The CLI streams the same chunks the library joins,
and a reader that closes stdout early ends the run quietly.
"""
from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from surmise import (
    AnalysisReport,
    Flexibility,
    HasseDiagram,
    JudgmentTable,
    OrderMatrix,
    analyze,
    assign_layers,
    build_table,
    csv_chunks,
    dot_chunks,
    emit_report,
    hasse_json_chunks,
    order_matrix,
    parse_csv,
    random_poset,
    sample_models,
    structure_from_table,
    structure_report,
    transitive_reduction,
)
from surmise.cli import cli_main
from surmise.io import _JsonNames, _json_string, _text_pairs, report_chunks
from surmise.table import natural_sorted

import oracles
from conftest import DATA_DIR, FUZZ_ALPHAS, TWELVE_MODELS_PATH, WORKED_EXAMPLE_PATH
from test_order import partial_orders

TWELVE = str(TWELVE_MODELS_PATH)
ALPHA = Flexibility(1000)
# Legal names that JSON escapes or that look like numbers: tab, DEL and
# other C0 controls, non-ASCII BMP letters, astral code points (written
# as surrogate pairs), all-digit names.
ODD_NAMES = ("a\tb", "x\x7fy", "\x01", "\x1fz", "é", "中", "\U0001d538", "😀", "7", "007")
NAME = st.one_of(
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters=',"\r\n\\'
        ),
        min_size=1,
        max_size=5,
    ),
    st.text(alphabet="t\t\x7f\x00\x01\x0b\x1fé中\U0001d538😀", min_size=1, max_size=4),
    st.from_regex(r"[0-9]{1,3}", fullmatch=True),
)


def run_cli(*argv: str, input: bytes | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "surmise", *argv],
        input=input, capture_output=True, env=dict(os.environ),
    )


# One line per golden output: its file name in tests/data, then the CLI
# arguments that write it, paths relative to the repository root.  CI
# runs every line through both entry points, ``surmise`` and
# ``python -m surmise``.  Among the inputs, lanes-120x16 (120 targets x
# 16 models from bench/gen.py) takes the lane kernel of order_matrix,
# synth-20x400-seed5 is a chain: 20 classes at density 1, one per layer,
# and synth-20x300-seed3 at 30% has 20 classes: two full blocks of 8 in
# the covering pass, and one of 4.
GOLDEN_LIST = DATA_DIR / "goldens.list"
GOLDEN_COMMANDS = [
    (golden, [str(DATA_DIR.parents[1] / arg) if arg.startswith("tests/") else arg for arg in argv])
    for golden, *argv in map(str.split, GOLDEN_LIST.read_text().splitlines())
]
SEVERAL_BLOCKS_GOLDEN = "synth-20x5000-seed3.analyze-5-counts.txt"


def golden_commands(*suffixes: str) -> list[tuple[str, list[str]]]:
    """The (golden, argv) lines of the list whose golden ends in one of
    ``suffixes``, in list order."""
    return [(golden, argv) for golden, argv in GOLDEN_COMMANDS if golden.endswith(suffixes)]


def assert_matches_golden(golden: str, argv: list[str]) -> None:
    result = run_cli(*argv)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (DATA_DIR / golden).read_bytes()


@pytest.mark.parametrize("golden, argv", golden_commands(".json"))
def test_json_outputs_match_golden_bytes(golden, argv):
    assert_matches_golden(golden, argv)


@pytest.mark.parametrize("golden, argv", golden_commands(".dot", ".csv"))
def test_dot_and_synth_outputs_match_golden_bytes(golden, argv):
    assert_matches_golden(golden, argv)


@pytest.mark.parametrize("golden, argv", golden_commands(".txt"))
def test_text_outputs_match_golden_bytes(golden, argv):
    assert_matches_golden(golden, argv)


def test_the_golden_list_covers_every_golden():
    # Each line is run by one of the three tests above, and names a file.
    listed = {golden for golden, _ in GOLDEN_COMMANDS}
    assert {golden.rsplit(".", 1)[-1] for golden in listed} <= {"json", "dot", "csv", "txt"}
    assert all((DATA_DIR / golden).is_file() for golden in listed)
    # Every output golden in tests/data is on the list, or is the golden
    # of the several-blocks test below.
    outputs = {path.name for path in DATA_DIR.iterdir() if path.suffix in (".json", ".txt", ".dot")}
    assert outputs - listed == {SEVERAL_BLOCKS_GOLDEN}


CSV_GOLDEN_COMMANDS = [
    (golden, argv) for golden, argv in GOLDEN_COMMANDS if any(arg.endswith(".csv") for arg in argv)
]


@pytest.mark.parametrize("golden, argv", CSV_GOLDEN_COMMANDS)
def test_goldens_read_in_crlf_from_a_pipe(golden, argv):
    """Each golden of a CSV input, that CSV given in CRLF on a pipe, which
    cannot seek and so is read whole: CI runs the same lines through
    ``/dev/stdin``."""
    csv = next(arg for arg in argv if arg.endswith(".csv"))
    result = run_cli(
        *["/dev/stdin" if arg == csv else arg for arg in argv],
        input=Path(csv).read_bytes().replace(b"\n", b"\r\n"),
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (DATA_DIR / golden).read_bytes()


@pytest.mark.parametrize("golden, argv", CSV_GOLDEN_COMMANDS)
def test_goldens_read_from_stdin_as_dash(golden, argv):
    """Each golden of a CSV input, that CSV piped to stdin and named by
    ``-``: CI runs the same lines through ``-``."""
    csv = next(arg for arg in argv if arg.endswith(".csv"))
    result = run_cli(*["-" if arg == csv else arg for arg in argv], input=Path(csv).read_bytes())
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (DATA_DIR / golden).read_bytes()


SYNTH_5000 = ["synth", "--targets", "20", "--models", "5000", "--seed", "3", "--noise", "0.1"]


@pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
def test_a_csv_of_several_blocks_matches_golden_bytes(tmp_path, ending):
    """A 229 KB CSV, four blocks of the reader, in LF and in CRLF."""
    synth = run_cli(*SYNTH_5000)
    assert (synth.returncode, synth.stderr) == (0, b"")
    path = tmp_path / "synth-20x5000-seed3.csv"
    path.write_bytes(synth.stdout.replace(b"\n", ending))
    result = run_cli("analyze", str(path), "--text", "--counts", "--flexibility", "5")
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (DATA_DIR / SEVERAL_BLOCKS_GOLDEN).read_bytes()


@pytest.mark.parametrize("data, code", [
    (b"m,a,b\nM1,0,1\nM2,1,1\n", 0),
    (b"m,a,b\nM1,0,1\nM2,1,2\n", 2),
    (b"m,a,b\nM1,0,1\nM\xff,1,1\n", 2),
    (b"", 2),
])
def test_a_pipe_reads_as_the_same_file_by_path(tmp_path, data, code):
    """A pipe cannot seek, so it is read whole; the output, the message
    and the exit code are those of the same bytes read from a file."""
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    by_path = run_cli("analyze", str(path))
    piped = subprocess.run(
        [sys.executable, "-m", "surmise", "analyze", "/dev/stdin"],
        input=data, capture_output=True, env=dict(os.environ),
    )
    assert by_path.returncode == code
    assert (piped.returncode, piped.stdout, piped.stderr) == (
        by_path.returncode, by_path.stdout, by_path.stderr
    )


@st.composite
def tables(draw):
    u = draw(st.integers(1, 8))
    v = draw(st.integers(1, 12))
    targets = draw(st.lists(NAME, min_size=u, max_size=u, unique=True))
    bits = draw(st.integers(0, 2 ** (u * v) - 1))
    rows = [[(bits >> (i * u + j)) & 1 for j in range(u)] for i in range(v)]
    return build_table(targets, [f"M{i}" for i in range(v)], rows)


def assert_json_matches_oracles(table, alpha, counts: bool) -> None:
    """Both JSON outputs against ``json.dumps``; the text and DOT outputs
    against their one-line-per-pair forms."""
    report = analyze(table, alpha, include_counts=counts)
    assert emit_report(report, "json") == oracles.report_json_reference(report)
    assert emit_report(report, "text") == oracles.report_text_reference(report)
    diagram = transitive_reduction(order_matrix(table, alpha))
    assert "".join(hasse_json_chunks(diagram)) == oracles.hasse_json_reference(diagram)
    assert "".join(dot_chunks(diagram)) == oracles.dot_reference(diagram)


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from(FUZZ_ALPHAS), st.booleans())
def test_json_matches_json_dumps(table, alpha, counts):
    assert_json_matches_oracles(table, alpha, counts)


@pytest.mark.parametrize("counts", [False, True])
@pytest.mark.parametrize(
    "names, rows",
    [
        (["\U0001d538"], [[1], [0]]),  # a single target
        (["a\tb", "7", "é"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),  # an antichain
        (list(ODD_NAMES), [[1] * 5 + [0] * 5, [0] * 5 + [1] * 5, [1, 0] * 5]),
    ],
)
def test_json_fixed_shapes_match_json_dumps(names, rows, counts):
    table = build_table(names, [f"M{i}" for i in range(len(rows))], rows)
    assert_json_matches_oracles(table, ALPHA, counts)


@given(st.text())
@example("")
@example('a"b')
@example("a\\b")
@example("x\x7fy")
@example("a b~")
def test_json_string_is_json_dumps(name):
    assert _json_string(name) == json.dumps(name)


def test_empty_diagram_matches_json_dumps():
    diagram = transitive_reduction(OrderMatrix((), ()))
    assert "".join(hasse_json_chunks(diagram)) == oracles.hasse_json_reference(diagram)


def test_long_arrays_match_json_dumps():
    # A chain of 100 targets: 4950 relation pairs and 9900 counts.
    u = 100
    rows = [[1 if j < i else 0 for j in range(u)] for i in range(u + 1)]
    table = build_table([f"t{j}" for j in range(u)], [f"M{i}" for i in range(u + 1)], rows)
    report = analyze(table, include_counts=True)
    assert len(report.relation) == u * (u - 1) // 2
    assert_json_matches_oracles(table, Flexibility(0), True)
    text = emit_report(report, "text")
    assert text.count(" -> ") == len(report.relation) + len(report.hasse)
    assert text.count(" n1=") == u * (u - 1)


@st.composite
def named_orders(draw):
    """A random partial order (empty, single nodes, antichains included) on
    distinct names that JSON escapes, as an ``OrderMatrix``."""
    rows = draw(partial_orders())
    names = draw(st.lists(NAME, min_size=len(rows), max_size=len(rows), unique=True))
    return OrderMatrix(reps=tuple(natural_sorted(names)), rows=rows)


def assert_pair_sections_match_oracles(diagram: HasseDiagram) -> None:
    edges = diagram.edges
    assert "".join(_JsonNames().pairs(diagram.nodes, diagram.covers)) == (
        oracles.pairs_json_reference(edges)
    )
    assert "".join(_text_pairs("hasse", diagram.covers, diagram.successors())) == (
        oracles.pairs_text_reference("hasse", edges)
    )
    assert "".join(dot_chunks(diagram)) == oracles.dot_reference(diagram)
    assert "".join(hasse_json_chunks(diagram)) == oracles.hasse_json_reference(diagram)


@settings(max_examples=300, deadline=None)
@given(named_orders())
@example(OrderMatrix(reps=(), rows=()))
@example(OrderMatrix(reps=("\U0001d538",), rows=(0b1,)))
@example(OrderMatrix(reps=("7", "a\tb", "é"), rows=(0b001, 0b010, 0b100)))
def test_row_writers_match_per_pair_oracles(matrix):
    relation = matrix.pairs()
    assert "".join(_JsonNames().pairs(matrix.reps, matrix.strict_rows)) == (
        oracles.pairs_json_reference(relation)
    )
    assert "".join(_text_pairs("relation", matrix.strict_rows, matrix.successors())) == (
        oracles.pairs_text_reference("relation", relation)
    )
    assert_pair_sections_match_oracles(transitive_reduction(matrix))


def test_edges_listed_out_of_order_render_natural_sorted():
    nodes = ("d", "c", "b", "a")
    pairs = (("a", "b"), ("c", "d"), ("a", "c"), ("b", "d"), ("a", "d"))  # a's pairs are split
    diagram = transitive_reduction(OrderMatrix.from_pairs(nodes, pairs))
    assert diagram.layers == (("a",), ("b", "c"), ("d",))
    assert assign_layers(diagram) == diagram.layers
    assert diagram.edges == (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))
    assert_pair_sections_match_oracles(diagram)
    assert "".join(dot_chunks(diagram)).count("->") == 4


@pytest.mark.parametrize("counts", [False, True])
def test_report_on_an_order_built_without_classes(counts):
    # A hand-built order without classes has one singleton class per
    # representative, which both report writers read.
    table = JudgmentTable(("M1", "M2"), ("a", "b"), (0b11, 0b01))
    diagram = HasseDiagram(OrderMatrix(("a", "b"), (0b11, 0b10)))
    report = AnalysisReport(table, ALPHA, diagram, counts)
    assert emit_report(report, "json") == oracles.report_json_reference(report)
    assert emit_report(report, "text") == oracles.report_text_reference(report)


def test_pair_sections_stream_one_chunk_per_row():
    # A chain of 100 targets: t0 .. t98 each precede every later target,
    # t99 precedes none, so the relation has 99 non-empty rows.
    u = 100
    rows = [[1 if j < i else 0 for j in range(u)] for i in range(u + 1)]
    table = build_table([f"t{j}" for j in range(u)], [f"M{i}" for i in range(u + 1)], rows)
    report = analyze(table)

    chunks = list(report_chunks(report, "json"))
    section = chunks[chunks.index(',\n  "relation": ') + 1:chunks.index(',\n  "hasse": ')]
    heads = [re.findall(r'\[\n      "(t\d+)",\n', chunk) for chunk in section]
    assert [set(found) for found in heads[:-1]] == [{f"t{i}"} for i in range(u - 1)]
    assert [len(found) for found in heads[:-1]] == list(range(u - 1, 0, -1))
    assert all(chunk.endswith("\n    ]") for chunk in section[:-1])
    assert section[-1] == "\n  ]"
    assert "".join(section) == oracles.pairs_json_reference(report.relation)

    chunks = list(report_chunks(report, "text"))
    section = chunks[chunks.index(f"relation ({len(report.relation)}):\n") + 1:
                     chunks.index(f"hasse ({u - 1}):\n")]
    assert [set(re.findall(r"^  (t\d+) -> ", chunk, re.M)) for chunk in section] == [
        {f"t{i}"} for i in range(u - 1)
    ]


def test_counts_stream_one_chunk_per_row():
    # 40 targets in a chain, each its own class: 40 rows of 39 counts.
    u = 40
    rows = [[1 if j < i else 0 for j in range(u)] for i in range(u + 1)]
    table = build_table([f"t{j}" for j in range(u)], [f"M{i}" for i in range(u + 1)], rows)
    report = analyze(table, include_counts=True)

    chunks = list(report_chunks(report, "json"))
    section = chunks[chunks.index(',\n  "counts": ') + 1:-1]
    assert [Counter(re.findall(r'"p": "(t\d+)"', chunk)) for chunk in section[:-1]] == [
        {f"t{i}": u - 1} for i in range(u)
    ]
    assert section[-1] == "\n  ]" and chunks[-1] == "\n}\n"

    chunks = list(report_chunks(report, "text"))
    section = chunks[chunks.index("counts:\n") + 1:]
    assert [Counter(re.findall(r"^  (t\d+),", chunk, re.M)) for chunk in section] == [
        {f"t{i}": u - 1} for i in range(u)
    ]


def odd_names_csv(tmp_path) -> str:
    rng = random.Random(7)
    lines = ["model," + ",".join(ODD_NAMES)]
    for i in range(12):
        lines.append(f"M{i}," + ",".join(rng.choice("01") for _ in ODD_NAMES))
    path = tmp_path / "odd.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


OUTPUTS = {
    "analyze --json": (
        ["analyze", "--json", "--flexibility", "10"],
        lambda t: emit_report(analyze(t, ALPHA), "json"),
    ),
    "analyze --text": (
        ["analyze", "--text", "--flexibility", "10"],
        lambda t: emit_report(analyze(t, ALPHA), "text"),
    ),
    "analyze --json --counts": (
        ["analyze", "--json", "--counts"],
        lambda t: emit_report(analyze(t, include_counts=True), "json"),
    ),
    "analyze --text --counts": (
        ["analyze", "--text", "--counts"],
        lambda t: emit_report(analyze(t, include_counts=True), "text"),
    ),
    "hasse --dot": (
        ["hasse", "--dot", "--flexibility", "10"],
        lambda t: "".join(dot_chunks(transitive_reduction(order_matrix(t, ALPHA)))),
    ),
    "hasse --json": (
        ["hasse", "--json", "--flexibility", "10"],
        lambda t: "".join(hasse_json_chunks(transitive_reduction(order_matrix(t, ALPHA)))),
    ),
    "structure": (["structure"], lambda t: structure_report(structure_from_table(t))),
    "structure --no-complete": (
        ["structure", "--no-complete"],
        lambda t: structure_report(structure_from_table(t, complete=False)),
    ),
}


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize(
    "source", [TWELVE, str(WORKED_EXAMPLE_PATH), "odd"], ids=["twelve", "worked", "odd"]
)
def test_cli_stdout_equals_library_string(capsys, tmp_path, output, source):
    path = odd_names_csv(tmp_path) if source == "odd" else source
    (command, *flags), library = OUTPUTS[output]
    code = cli_main([command, path, *flags])
    captured = capsys.readouterr()
    with open(path, "rb") as handle:
        expected = library(parse_csv(handle.read()))
    assert (code, captured.err) == (0, "")
    assert captured.out == expected


def test_synth_stdout_equals_library_string(capsys):
    code = cli_main(["synth", "--targets", "6", "--models", "9", "--seed", "3"])
    table = sample_models(random_poset(6, 0.5, 3), model_count=9, noise=0.0, seed=3)
    assert (code, capsys.readouterr().out) == (0, "".join(csv_chunks(table)))


def big_table_csv(tmp_path, targets: int, models: int) -> str:
    rng = random.Random(targets * models)
    lines = ["model," + ",".join(f"t{j}" for j in range(targets))]
    for i in range(models):
        lines.append(f"M{i}," + ",".join(rng.choice("01") for _ in range(targets)))
    path = tmp_path / f"big-{targets}x{models}.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "command, shape",
    [(["analyze", "--json", "--counts"], (150, 30)), (["structure"], (40, 600))],
)
def test_reader_closing_stdout_early_ends_run_quietly(tmp_path, command, shape):
    path = big_table_csv(tmp_path, *shape)
    full = run_cli(command[0], path, *command[1:])
    assert full.returncode == 0
    assert len(full.stdout) > 16 * 64 * 1024  # far more than a pipe holds

    proc = subprocess.Popen(
        [sys.executable, "-m", "surmise", command[0], path, *command[1:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ),
    )
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert head == full.stdout[:10]
    assert (proc.returncode, err) == (0, b"")

