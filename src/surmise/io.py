"""File formats: CSV tables in, JSON/DOT/text reports out.

Every emitter is byte-deterministic for a given input: collections are
natural-sorted, JSON key order is fixed, and all numbers are integers
(the flexibility is echoed as decimal text as well, so consumers never
re-round it).  Each output has one writer, a generator of text chunks
(``report_chunks``, ``dot_chunks``, ``hasse_json_chunks``,
``structure_chunks``) that the CLI streams to stdout; ``emit_report``,
``emit_dot``, ``hasse_json`` and ``structure_report`` join its chunks.  A
section is one chunk, except the sections that can grow quadratically:
the pair lists (relation and covering edges) are one chunk per row, all
pairs with the same first element, read straight from the row masks of
the order matrix and of the Hasse diagram by one row walker
(``OrderMatrix.successors``, ``HasseDiagram.successors``), and each
``K_<name>`` line is its own chunk.
"""
from __future__ import annotations

import json
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .hasse import HasseDiagram, transitive_reduction
from .kst import KnowledgeStructure, _all_singletons, _reduction, equally_informative
from .order import EquivalenceClasses, OrderMatrix, order_matrix
from .table import (
    Flexibility,
    Frozen,
    JudgmentTable,
    PairCounts,
    ZERO_FLEXIBILITY,
    _read_columns,
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
    "dot_chunks",
    "report_chunks",
    "hasse_json_chunks",
    "structure_chunks",
    "analyze",
]


class CsvError(ValueError):
    """Malformed CSV input, with the offending row/column in the message."""


def _row_error(line: str, line_number: int, target_names: Sequence[str]) -> CsvError | None:
    """The located error for a body line that is not a model name followed
    by exactly one "0"/"1" cell per target, or None for a line that is."""
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
    return None


def parse_csv(data: bytes | str) -> JudgmentTable:
    """Read a judgment table from CSV bytes (UTF-8, LF or CRLF).

    Layout: the header's first cell is reserved (ignored), the rest are
    target names; each body row is a model name followed by "0"/"1"
    cells.  The ``JudgmentTable`` constructor checks the names, as it does
    for ``build_table``.

    The body is checked at once, by string methods that run in C.  With u
    targets, a line is valid iff it ends in u cells, each a comma and a
    "0"/"1" digit, and the name before them holds no comma.  So the body
    is valid iff the last 2u characters of its lines, joined, are 2u
    characters per line with only "0"/"1" at the odd positions and only
    commas at the even ones, and the names hold no comma.  The odd
    positions are then the cells in row-major order, and each column is
    one strided read of them (``table._read_columns``).  Only a body that
    fails is scanned line by line, to name the first faulty line.  Cell
    and shape faults are reported in line order, then a missing body,
    then bad names.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CsvError(f"input is not valid UTF-8: {exc}") from None
    else:
        text = data
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" in text:
        lines = [line.removesuffix("\r") for line in lines]
    if not any(lines):
        raise CsvError("empty CSV input")

    target_names = lines[0].split(",")[1:]
    if not target_names:
        raise CsvError("header row declares no targets")
    u = len(target_names)
    body = lines[1:]
    if not body:
        raise CsvError("CSV has a header but no model rows")
    width = 2 * u
    tails = "".join(map(itemgetter(slice(-width, None)), body))
    model_names = tuple(map(itemgetter(slice(None, -width)), body))
    digits = tails[1::2].encode("ascii", "replace")  # "?" fails the 0/1 test
    if (
        len(tails) != width * len(body)
        or digits.translate(None, b"01")
        or tails.count(",") != len(digits)
        or "," in "".join(model_names)
    ):
        errors = (_row_error(line, n, target_names) for n, line in enumerate(body, start=2))
        raise next(filter(None, errors), AssertionError("the body check found no faulty line"))
    return JudgmentTable(model_names, tuple(target_names), _read_columns(digits, u))


def emit_csv(table: JudgmentTable) -> str:
    """CSV text of a table, rendered from its row masks: a row's cells are
    the binary digits of its mask, least significant first."""
    u = table.target_count
    lines = ["model," + ",".join(table.target_names)]
    for name, row in zip(table.model_names, table.row_masks):
        lines.append(name + "," + ",".join(format(row, "b").zfill(u)[::-1]))
    return "\n".join(lines) + "\n"


def _array(elements: Iterable[str], depth: int) -> str:
    """A JSON array of rendered elements at nesting ``depth``, laid out as
    ``json.dumps(..., indent=2)`` lays it out: "[]" when empty, else one
    element per line, indented two spaces per level."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(elements)
    return f"[{inner}{body}\n{'  ' * depth}]" if body else "[]"


class _JsonNames(dict):
    """Name -> JSON string literal, quoted by ``json.dumps`` on first use,
    and the arrays of names both JSON outputs are made of.  One per
    document, so each name is quoted once per document."""

    def __missing__(self, name: str) -> str:
        self[name] = text = json.dumps(name)
        return text

    def array(self, names: Iterable[str], depth: int) -> str:
        return _array(map(self.__getitem__, names), depth)

    def pairs(self, rows: Iterable[tuple[str, Sequence[str]]]) -> Iterator[str]:
        """The array of [p, q] pairs at depth 1, from rows (p, [q, ...]):
        one chunk per non-empty row, which quotes p once."""
        opener = "[\n    "
        for p, successors in rows:
            if successors:
                head = f"[\n      {self[p]},\n      "
                yield opener + head + ("\n    ],\n    " + head).join(
                    map(self.__getitem__, successors)
                )
                opener = "\n    ],\n    "
        yield "[]" if opener == "[\n    " else "\n    ]\n  ]"

    def blocks(self, key: str, blocks: Iterable[tuple[str, Sequence[str]]]) -> str:
        return _array((f'{{\n      "{key}": {self[label]},\n      "members": '
                       f'{self.array(members, 3)}\n    }}' for label, members in blocks), 1)


def _node_label(node: str, members: tuple[str, ...]) -> str:
    subsumed = ",".join([m for m in members if m != node])
    return f"{node} (={subsumed})" if subsumed else node


def dot_chunks(diagram: HasseDiagram) -> Iterator[str]:
    """Graphviz text for the diagram; rankdir=BT puts prerequisites below."""
    yield "digraph hierarchy {\n  rankdir=BT;\n"
    yield "".join(
        [f'  "{n}" [label="{_node_label(n, diagram.members[n])}"];\n' for n in diagram.nodes]
    )
    for lower, uppers in diagram.successors():
        if uppers:
            prefix = f'  "{lower}" -> "'
            yield prefix + ('";\n' + prefix).join(uppers) + '";\n'
    yield "}\n"


def emit_dot(diagram: HasseDiagram) -> str:
    return "".join(dot_chunks(diagram))


class AnalysisReport(Frozen):
    """Everything the pipeline derives from one table at one flexibility.

    ``order`` is the order matrix (its rows hold the strict ordered
    pairs) and ``diagram`` its Hasse diagram (its rows hold the covering
    subset of those pairs, and it carries the drawing layers); all names
    are class representatives.  ``counts`` is optional per-pair response
    counts.  ``relation`` and ``classes`` are read from ``order``,
    ``hasse`` and ``layers`` from ``diagram``.
    """

    _fields = ("targets", "flexibility", "order", "diagram", "counts")

    def __init__(
        self, targets: tuple[str, ...], flexibility: Flexibility, order: OrderMatrix,
        diagram: HasseDiagram, counts: tuple[tuple[str, str, PairCounts], ...] | None = None,
    ) -> None:
        self.__dict__.update(
            targets=targets, flexibility=flexibility, order=order, diagram=diagram, counts=counts
        )

    @property
    def relation(self) -> tuple[tuple[str, str], ...]:
        """The strict ordered pairs, natural-sorted (``OrderMatrix.pairs``)."""
        return self.order.pairs()

    @property
    def classes(self) -> EquivalenceClasses | None:
        return self.order.classes

    @property
    def hasse(self) -> tuple[tuple[str, str], ...]:
        """The covering edges, natural-sorted (``HasseDiagram.edges``)."""
        return self.diagram.edges

    @property
    def layers(self) -> tuple[tuple[str, ...], ...]:
        """The node names per drawing layer (``HasseDiagram.layer_groups``)."""
        return self.diagram.layer_groups()


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
        order=matrix,
        diagram=diagram,
        counts=counts,
    )


def _report_json(report: AnalysisReport) -> Iterator[str]:
    names = _JsonNames()
    yield (
        f'{{\n  "targets": {names.array(report.targets, 1)},\n  "flexibility": {{'
        f'\n    "percent": {json.dumps(report.flexibility.percent_text)},'
        f'\n    "basis_points": {report.flexibility.basis_points}\n  }},\n  "classes": '
    )
    yield names.blocks("representative", ((b[-1], b) for b in report.classes.blocks))
    yield ',\n  "relation": '
    yield from names.pairs(report.order.successors())
    yield ',\n  "hasse": '
    yield from names.pairs(report.diagram.successors())
    yield ',\n  "layers": ' + _array((names.array(group, 2) for group in report.layers), 1)
    if report.counts is not None:
        yield ',\n  "counts": ' + _array((
            f'{{\n      "p": {names[p]},\n      "q": {names[q]},\n      "n1": {c.n1},\n      '
            f'"n2": {c.n2},\n      "n3": {c.n3},\n      "n4": {c.n4}\n    }}'
            for p, q, c in report.counts), 1)
    yield "\n}\n"


def _text_pairs(
    key: str, count: int, rows: Iterable[tuple[str, Sequence[str]]]
) -> Iterator[str]:
    """A "key (count):" section of "p -> q" lines, from rows (p, [q, ...]):
    one chunk per non-empty row."""
    yield f"{key} ({count}):\n"
    for p, successors in rows:
        if successors:
            prefix = f"  {p} -> "
            yield prefix + ("\n" + prefix).join(successors) + "\n"


def _report_text(report: AnalysisReport) -> Iterator[str]:
    yield (
        f"targets: {' '.join(report.targets)}\nflexibility: {report.flexibility.percent_text}% "
        f"({report.flexibility.basis_points} basis points)\nclasses:\n"
    )
    yield "".join([f"  {block[-1]}: {' '.join(block)}\n" for block in report.classes.blocks])
    relation_count = sum(row.bit_count() for row in report.order.strict_rows)
    yield from _text_pairs("relation", relation_count, report.order.successors())
    edge_count = sum(row.bit_count() for row in report.diagram.covers)
    yield from _text_pairs("hasse", edge_count, report.diagram.successors())
    yield "layers:\n" + "".join(
        [f"  {level}: {' '.join(group)}\n" for level, group in enumerate(report.layers)]
    )
    if report.counts is not None:
        yield "counts:\n" + "".join(
            [f"  {p},{q}: n1={c.n1} n2={c.n2} n3={c.n3} n4={c.n4}\n" for p, q, c in report.counts]
        )


def report_chunks(report: AnalysisReport, fmt: str = "json") -> Iterator[str]:
    """The report as text chunks, in ``"json"`` or ``"text"`` format.  The
    JSON is laid out as ``json.dumps(..., indent=2)`` lays out the
    report's object: fixed key order, ``"counts"`` last and only when
    present."""
    writers = {"json": _report_json, "text": _report_text}
    if fmt not in writers:
        raise ValueError(f"unknown report format {fmt!r} (expected 'json' or 'text')")
    return writers[fmt](report)


def emit_report(report: AnalysisReport, fmt: str = "json") -> str:
    return "".join(report_chunks(report, fmt))


def hasse_json_chunks(diagram: HasseDiagram) -> Iterator[str]:
    """The diagram as JSON: nodes with their members, covering edges and
    layers, laid out as ``json.dumps(..., indent=2)`` lays it out."""
    names = _JsonNames()
    yield '{\n  "nodes": ' + names.blocks("name", ((n, diagram.members[n]) for n in diagram.nodes))
    yield ',\n  "edges": '
    yield from names.pairs(diagram.successors())
    layers = _array((names.array(group, 2) for group in diagram.layer_groups()), 1)
    yield ',\n  "layers": ' + layers + "\n}\n"


def hasse_json(diagram: HasseDiagram) -> str:
    return "".join(hasse_json_chunks(diagram))


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


def structure_chunks(structure: KnowledgeStructure) -> Iterator[str]:
    """Text rendering of a structure: states, per-target state families,
    the concept partition, and the discriminative reduction.

    Each state is sorted and rendered once, the ``K_<name>`` lines read
    the transposed sorted states, and the partition is computed once and
    reused for the discriminative flag and the reduction.  Each
    ``K_<name>`` line is a chunk of its own: a line can list every state,
    so the lines together can be far larger than the rendered states.
    """
    states, texts = _rendered_states(structure)
    yield f"targets: {' '.join(structure.ground)}\nstates ({len(states)}):\n"
    yield "".join([f"  {text}\n" for text in texts])
    families = transpose(states, len(structure.ground))
    for name, family in zip(structure.ground, families):
        yield " ".join([f"K_{name}:", *map(texts.__getitem__, bit_indices(family))]) + "\n"
    partition = equally_informative(structure)
    concepts = " ".join("{" + ",".join(block) + "}" for block in partition.blocks)
    discriminative = "true" if _all_singletons(partition) else "false"
    reduced = _reduction(structure, partition)
    _, reduced_texts = _rendered_states(reduced)
    yield (
        f"concepts: {concepts}\ndiscriminative: {discriminative}\n"
        f"reduction targets: {' '.join(reduced.ground)}\n"
        f"reduction states ({len(reduced_texts)}):\n" + "".join([f"  {t}\n" for t in reduced_texts])
    )


def structure_report(structure: KnowledgeStructure) -> str:
    return "".join(structure_chunks(structure))
