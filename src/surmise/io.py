"""File formats: CSV tables in, JSON/DOT/text reports out.

Every emitter is byte-deterministic for a given input: collections are
natural-sorted, JSON key order is fixed, and all numbers are integers
(the flexibility is echoed as decimal text as well, so consumers never
re-round it).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .hasse import HasseDiagram, transitive_reduction
from .kst import KnowledgeStructure, _all_singletons, _reduction, equally_informative
from .order import EquivalenceClasses, order_matrix
from .table import (
    Flexibility,
    JudgmentTable,
    PairCounts,
    ZERO_FLEXIBILITY,
    _DIGIT_VALUES,
    _check_names,
    _freeze,
    bit_indices,
    natural_sorted,
    transpose,
)

__all__ = [
    "CsvError",
    "AnalysisReport",
    "parse_csv",
    "emit_csv",
    "emit_dot",
    "emit_report",
    "hasse_json",
    "structure_report",
    "analyze",
]


class CsvError(ValueError):
    """Malformed CSV input, with the offending row/column in the message."""


def _row_error(line: str, line_number: int, target_names: Sequence[str]) -> CsvError:
    """The located error for a body line that is not a model name followed
    by exactly one "0"/"1" cell per target."""
    cells = line.split(",")
    width = len(target_names) + 1
    if len(cells) != width:
        return CsvError(
            f"row at line {line_number} has {len(cells)} cells, expected {width}"
        )
    for column, cell in enumerate(cells[1:], start=1):
        if cell not in ("0", "1"):
            return CsvError(
                f"cell at line {line_number}, column {column} "
                f"(target {target_names[column - 1]!r}) is {cell!r}, "
                f"expected '0' or '1'"
            )
    raise AssertionError(f"line {line_number} has no faulty cell")


def parse_csv(data: bytes | str) -> JudgmentTable:
    """Read a judgment table from CSV bytes (UTF-8, LF or CRLF).

    Layout: the header's first cell is reserved (ignored), the rest are
    target names; each body row is a model name followed by "0"/"1"
    cells.  Name validation is shared with build_table.

    Each body line is checked once, by string methods that run in C: with
    u targets, the text after the first comma is exactly u one-character
    0/1 cells iff it has length 2u-1, holds u-1 commas and its even
    positions hold only "0" and "1" (those u characters are then not
    commas, so the u-1 commas fill the u-1 odd positions).  Only a line
    that fails is split and scanned cell by cell, to name the fault.
    Cell and shape faults are reported in line order, then a missing
    body, then bad names.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CsvError(f"input is not valid UTF-8: {exc}") from None
    else:
        text = data
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if not lines or all(line == "" for line in lines):
        raise CsvError("empty CSV input")

    target_names = lines[0].split(",")[1:]
    if not target_names:
        raise CsvError("header row declares no targets")
    u = len(target_names)
    rest_length, commas = 2 * u - 1, u - 1

    model_names: list[str] = []
    rows: list[tuple[int, ...]] = []
    for line_number, line in enumerate(lines[1:], start=2):
        name, _, rest = line.partition(",")
        digits = rest[::2]
        if len(rest) != rest_length or rest.count(",") != commas or digits.strip("01"):
            raise _row_error(line, line_number, target_names)
        model_names.append(name)
        rows.append(tuple(digits.encode("ascii").translate(_DIGIT_VALUES)))
    if not rows:
        raise CsvError("CSV has a header but no model rows")
    _check_names(target_names, model_names)
    return _freeze(target_names, model_names, rows)


def emit_csv(table: JudgmentTable) -> str:
    lines = ["model," + ",".join(table.target_names)]
    for name, row in zip(table.model_names, table.cells):
        lines.append(name + "," + ",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def _node_label(node: str, members: tuple[str, ...]) -> str:
    subsumed = [m for m in members if m != node]
    if not subsumed:
        return node
    return f"{node} (={','.join(subsumed)})"


def emit_dot(diagram: HasseDiagram) -> str:
    """Graphviz text for the diagram; rankdir=BT puts prerequisites below."""
    lines = ["digraph hierarchy {", "  rankdir=BT;"]
    for node in diagram.nodes:
        label = _node_label(node, diagram.members[node])
        lines.append(f'  "{node}" [label="{label}"];')
    for lower, upper in diagram.edges:
        lines.append(f'  "{lower}" -> "{upper}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline derives from one table at one flexibility.

    ``relation`` holds the strict ordered pairs, ``hasse`` the covering
    subset of them, ``layers`` the node names per drawing layer; all
    names are class representatives.  ``counts`` is optional per-pair
    response counts.
    """

    targets: tuple[str, ...]
    flexibility: Flexibility
    classes: EquivalenceClasses
    relation: tuple[tuple[str, str], ...]
    hasse: tuple[tuple[str, str], ...]
    layers: tuple[tuple[str, ...], ...]
    counts: tuple[tuple[str, str, PairCounts], ...] | None = None


def analyze(
    table: JudgmentTable,
    alpha: Flexibility = ZERO_FLEXIBILITY,
    include_counts: bool = False,
) -> AnalysisReport:
    """Run the full pipeline: classes, order, covering edges, layers."""
    matrix = order_matrix(table, alpha)
    diagram = transitive_reduction(matrix)
    counts = None
    if include_counts:
        column = {rep: table.target_index(rep) for rep in matrix.reps}
        counts = tuple(
            (p, q, table.pair_counts(column[p], column[q]))
            for p in matrix.reps
            for q in matrix.reps
            if p != q
        )
    return AnalysisReport(
        targets=table.target_names,
        flexibility=alpha,
        classes=matrix.classes,
        relation=matrix.pairs(),
        hasse=diagram.edges,
        layers=diagram.layer_groups(),
        counts=counts,
    )


def _report_object(report: AnalysisReport) -> dict:
    obj: dict = {
        "targets": list(report.targets),
        "flexibility": {
            "percent": report.flexibility.percent_text,
            "basis_points": report.flexibility.basis_points,
        },
        "classes": [
            {"representative": block[-1], "members": list(block)}
            for block in report.classes.blocks
        ],
        "relation": [list(pair) for pair in report.relation],
        "hasse": [list(pair) for pair in report.hasse],
        "layers": [list(group) for group in report.layers],
    }
    if report.counts is not None:
        obj["counts"] = [
            {"p": p, "q": q, "n1": c.n1, "n2": c.n2, "n3": c.n3, "n4": c.n4}
            for p, q, c in report.counts
        ]
    return obj


def _report_text(report: AnalysisReport) -> str:
    lines = [
        "targets: " + " ".join(report.targets),
        f"flexibility: {report.flexibility.percent_text}% "
        f"({report.flexibility.basis_points} basis points)",
        "classes:",
    ]
    for block in report.classes.blocks:
        lines.append(f"  {block[-1]}: " + " ".join(block))
    lines.append(f"relation ({len(report.relation)}):")
    for p, q in report.relation:
        lines.append(f"  {p} -> {q}")
    lines.append(f"hasse ({len(report.hasse)}):")
    for p, q in report.hasse:
        lines.append(f"  {p} -> {q}")
    lines.append("layers:")
    for level, group in enumerate(report.layers):
        lines.append(f"  {level}: " + " ".join(group))
    if report.counts is not None:
        lines.append("counts:")
        for p, q, c in report.counts:
            lines.append(f"  {p},{q}: n1={c.n1} n2={c.n2} n3={c.n3} n4={c.n4}")
    return "\n".join(lines) + "\n"


def emit_report(report: AnalysisReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(_report_object(report), indent=2) + "\n"
    if fmt == "text":
        return _report_text(report)
    raise ValueError(f"unknown report format {fmt!r} (expected 'json' or 'text')")


def hasse_json(diagram: HasseDiagram) -> str:
    obj = {
        "nodes": [
            {"name": node, "members": list(diagram.members[node])}
            for node in diagram.nodes
        ],
        "edges": [list(edge) for edge in diagram.edges],
        "layers": [list(group) for group in diagram.layer_groups()],
    }
    return json.dumps(obj, indent=2) + "\n"


def _rendered_states(structure: KnowledgeStructure) -> tuple[list[int], list[str]]:
    """The states ordered by size, then member names, and the "{a,b}" text
    of each.  A state's members are read once, as natural-order ranks
    (``KnowledgeStructure.rank``), which give both the sort key and the
    text."""
    rank = structure.rank
    keyed = []
    for state in structure.states:
        ranks = sorted([rank[j] for j in bit_indices(state)])
        keyed.append((len(ranks), ranks, state))
    keyed.sort()
    by_rank = natural_sorted(structure.ground)
    texts = ["{" + ",".join([by_rank[r] for r in ranks]) + "}" for _, ranks, _ in keyed]
    return [state for _, _, state in keyed], texts


def structure_report(structure: KnowledgeStructure) -> str:
    """Text rendering of a structure: states, per-target state families,
    the concept partition, and the discriminative reduction.

    Each state is sorted and rendered once, the ``K_<name>`` lines read
    the transposed sorted states, and the partition is computed once and
    reused for the discriminative flag and the reduction.
    """
    states, texts = _rendered_states(structure)
    lines = ["targets: " + " ".join(structure.ground)]
    lines.append(f"states ({len(states)}):")
    lines.extend("  " + text for text in texts)
    families = transpose(states, len(structure.ground))
    for name, family in zip(structure.ground, families):
        rendered = " ".join([texts[k] for k in bit_indices(family)])
        lines.append(f"K_{name}:" + (" " + rendered if rendered else ""))
    partition = equally_informative(structure)
    lines.append(
        "concepts: " + " ".join("{" + ",".join(block) + "}" for block in partition.blocks)
    )
    lines.append(f"discriminative: {'true' if _all_singletons(partition) else 'false'}")
    reduced = _reduction(structure, partition)
    lines.append("reduction targets: " + " ".join(reduced.ground))
    _, reduced_texts = _rendered_states(reduced)
    lines.append(f"reduction states ({len(reduced_texts)}):")
    lines.extend("  " + text for text in reduced_texts)
    return "\n".join(lines) + "\n"
