"""File formats: CSV tables in, CSV/JSON/DOT/text out.

``parse_csv`` takes bytes, a str or an open binary file, also one that
cannot seek, and reads it once, front to back, one block of whole lines
at a time, so reading holds the table and one block, never the whole
input; a block that fails the block check is scanned where it is read,
to name its first fault.

Every emitter is byte-deterministic for a given input: collections are
natural-sorted, JSON key order is fixed, and all numbers are integers
(the flexibility is echoed as decimal text as well, so consumers never
re-round it).  Each output has one writer, a generator of text chunks
(``report_chunks``, ``dot_chunks``, ``hasse_json_chunks``,
``structure_chunks``, ``csv_chunks``) that the CLI streams to stdout;
only ``emit_report`` and ``structure_report`` join the chunks of theirs,
as the benchmark harness calls them.  A section is one chunk, except the
sections that can grow quadratically or with the models: the pair lists
(relation and covering edges) are one chunk per row, all pairs with the
same first element, read straight from the row masks of the order
matrix and of the Hasse diagram by one row walker
(``order.named_rows``) and written, in every format, by one pair-line
writer (``_pair_lines``); the counts are one chunk per row of
``JudgmentTable.count_rows``; each ``K_<name>`` line is its own chunk;
and so is each CSV row.  A row's names are picked from a list by
``compress`` on the row's ``table.bit_flags``, never through a list of
bit indices: the text and DOT writers pick plain names, the JSON
writers the quoted names, each node quoted once per document.  Every
JSON array is laid out by one writer, ``_array_chunks``.  Only quoting a
name that needs an escape loads ``json`` (``_json_string``), so the text,
DOT and CSV writers never import it, and neither do the JSON writers on
printable ASCII names without quotes or backslashes.
"""
from __future__ import annotations

from io import BytesIO
from itertools import compress, cycle, islice
from operator import itemgetter
from typing import IO, Iterable, Iterator, Sequence

from .hasse import HasseDiagram, transitive_reduction
from .kst import ConceptPartition, KnowledgeStructure, discriminative_reduction
from .order import EquivalenceClasses, OrderMatrix, named_rows, order_matrix
from .table import (
    Flexibility,
    Frozen,
    JudgmentTable,
    ZERO_FLEXIBILITY,
    _DIGIT_VALUES,
    _read_columns,
    bit_flags,
    natural_ranks,
    transpose,
)

__all__ = [
    "CsvError",
    "AnalysisReport",
    "parse_csv",
    "emit_report",
    "structure_report",
    "dot_chunks",
    "report_chunks",
    "hasse_json_chunks",
    "structure_chunks",
    "csv_chunks",
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


_BLOCK = 1 << 16  # bytes read per chunk


def _line_blocks(source: IO[bytes]) -> Iterator[bytes]:
    """The lines of a binary stream, a block at a time: chunks of
    ``_BLOCK`` bytes are cut after their last line break, the partial line
    after it carried into the next chunk.  A block is its lines, each with
    its line break (the input's last line without one, when it has none),
    so it starts and ends at a character boundary.  Only the new chunk is
    searched for a line break, and the carried partial line is a list of
    chunks joined once, when its line ends, so a line of any length costs
    time linear in its length."""
    carry: list[bytes] = []
    for chunk in iter(lambda: source.read(_BLOCK), b""):
        head, cut, tail = chunk.rpartition(b"\n")
        if cut:
            yield b"".join([*carry, head, cut])
            carry = []
        carry.append(tail)
    if any(carry):
        yield b"".join(carry)


def _utf8_error(exc: UnicodeDecodeError, offset: int) -> CsvError:
    """The fault of a block that is not UTF-8 and starts ``offset`` bytes
    into the input, worded as ``str(exc)`` words it for the whole input."""
    start, end = exc.start + offset, exc.end + offset
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if end - start == 1
             else f"bytes in position {start}-{end - 1}")
    return CsvError(f"input is not valid UTF-8: '{exc.encoding}' codec can't decode {where}: "
                    f"{exc.reason}")


def parse_csv(source: bytes | str | IO) -> JudgmentTable:
    """Read a judgment table from CSV (UTF-8, LF or CRLF): bytes, str, or
    a binary file open for reading, read from where it stands.

    A str is encoded to UTF-8 (a lone surrogate, which no UTF-8 text
    holds, is written as its bytes and so fails as invalid UTF-8), and
    bytes are wrapped in a ``BytesIO``; a file, also one that cannot seek
    (a pipe), is read as it is, front to back, once.

    Layout: the header's first cell is reserved (ignored), the rest are
    target names; each body row is a model name followed by "0"/"1"
    cells.  The ``JudgmentTable`` constructor checks the names, as it does
    for ``build_table``.

    The input is read one block of whole lines at a time
    (``_line_blocks``), so beside the table only one block is held.  Each
    block is decoded on its own, and a block that is not UTF-8 raises at
    once: it holds the input's first invalid byte, at its offset in the
    input.  Each block is then checked by string methods that run in C.
    With u targets, a line is valid iff it ends in u cells, each a comma
    and a "0"/"1" digit, and the name before them holds no comma.  So a
    block is valid iff the last 2u characters of its lines, joined, are 2u
    characters per line with only "0"/"1" at the odd positions and only
    commas at the even ones, and the names hold no comma; each tail is one
    line's own, so the blocks pass exactly when the whole body would.  The
    odd positions are the block's cells in row-major order; the cells of
    all blocks are joined, and each column is one strided read of them
    (``table._read_columns``).

    A block that fails the check is scanned line by line, at once, to name
    its first fault, which is kept; later blocks are only decoded, since
    invalid UTF-8 anywhere wins.  So the faults rank: invalid UTF-8, then
    an empty input, no targets or no rows, then cell and shape faults in
    line order.  Name faults come last, from the constructor.
    """
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, bytes):
        source = BytesIO(source)
    digits, model_names, target_names = bytearray(), [], None
    # The kept fault, whether a line is not blank, the bytes read before
    # the block, and the line number of its first body line.
    fault, filled, offset, number = None, False, 0, 2
    for block in _line_blocks(source):
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, offset) from None
        offset += len(block)
        lines = text.removesuffix("\n").split("\n")
        if "\r" in text:
            lines = [line.removesuffix("\r") for line in lines]
        filled = filled or any(lines)
        if fault:
            continue
        if target_names is None:
            target_names = lines.pop(0).split(",")[1:]
            width = 2 * len(target_names)
            if not width:
                fault = CsvError("header row declares no targets")
                continue
        tails = "".join(map(itemgetter(slice(-width, None)), lines))
        names = list(map(itemgetter(slice(None, -width)), lines))
        block_digits = tails[1::2].encode("ascii", "replace")  # "?" fails the 0/1 test
        if (len(tails) != width * len(lines) or "," in "".join(names)
                or block_digits.translate(None, b"01") or tails.count(",") != len(block_digits)):
            errors = (_row_error(line, n, target_names) for n, line in enumerate(lines, number))
            fault = next(filter(None, errors), AssertionError("the body check found no faulty line"))
        else:
            digits += block_digits
            model_names += names
            number += len(lines)
    if not filled:
        raise CsvError("empty CSV input")
    if fault:
        raise fault
    if not model_names:
        raise CsvError("CSV has a header but no model rows")
    columns = _read_columns(digits, len(target_names))
    del digits  # the constructor's name checks need room of their own
    return JudgmentTable(tuple(model_names), tuple(target_names), columns)


def csv_chunks(table: JudgmentTable) -> Iterator[str]:
    """CSV text of a table, as the header line and then one chunk per
    model row.  The binary digits of every support mask are joined once,
    most significant first, so model i's cell of each target lies in
    that target's digits at offset m - 1 - i, and a row's cells are one
    strided read from there."""
    m = table.model_count
    yield "model," + ",".join(table.target_names) + "\n"
    digits = "".join([format(mask, "b").zfill(m) for mask in table.support_masks])
    for name, start in zip(table.model_names, range(m - 1, -1, -1)):
        yield f"{name},{','.join(digits[start::m])}\n"


def _array_chunks(runs: Iterable[str], depth: int) -> Iterator[str]:
    """A JSON array at nesting ``depth``, laid out as ``json.dumps(...,
    indent=2)`` lays it out ("[]" when empty, else one element per line,
    indented two spaces per level), one chunk per run.  A run is one or
    more rendered elements, joined by the separator: "," and a line break
    with the indent of depth + 1."""
    separator = ",\n" + "  " * (depth + 1)
    opener = "[" + separator[1:]
    for run in runs:
        yield opener + run
        opener = separator
    yield "[]" if opener[0] == "[" else "\n" + "  " * depth + "]"


def _array(elements: Iterable[str], depth: int) -> str:
    return "".join(_array_chunks(elements, depth))


def _pair_lines(
    rows: Iterable[tuple[str, Sequence[str]]], head: str, tail: str, sep: str = ""
) -> Iterator[str]:
    """The pairs of each non-empty row (p, [q, ...]), one chunk per row:
    each pair is ``head.format(p)``, then q, then ``tail``, and ``sep``
    goes between two pairs of a row.  Every pair list is written here:
    the text and DOT lines, and the JSON runs of [p, q] arrays."""
    for p, successors in rows:
        if successors:
            prefix = head.format(p)
            yield prefix + (tail + sep + prefix).join(successors) + tail


def _json_string(name: str) -> str:
    """``name`` as a JSON string literal, as ``json.dumps`` writes it.
    ``json.dumps`` escapes only ``"``, ``\\`` and the characters outside
    printable ASCII, so a printable ASCII name with neither is written
    between quotes as it is.  Any other name is quoted by ``json``,
    imported here on first use, so a run whose names need no escape never
    loads it."""
    if name.isascii() and name.isprintable() and '"' not in name and "\\" not in name:
        return '"' + name + '"'
    import json

    return json.dumps(name)


class _JsonNames(dict):
    """Name -> JSON string literal, quoted by ``_json_string`` on first
    use, and the arrays of names both JSON outputs are made of.  One per
    document, so each name is quoted once per document."""

    def __missing__(self, name: str) -> str:
        self[name] = text = _json_string(name)
        return text

    def array(self, names: Iterable[str], depth: int) -> str:
        return _array(map(self.__getitem__, names), depth)

    def pairs(self, nodes: Sequence[str], masks: Iterable[int]) -> Iterator[str]:
        """The array of [p, q] pairs at depth 1, from row masks over
        ``nodes`` (bit j of ``masks[i]`` is the pair (nodes[i], nodes[j])):
        one chunk per non-empty row.  Each node is quoted once, into a
        list parallel to ``nodes``, and the rows are read from that list
        by the row walker (``order.named_rows``), so no pair costs a
        lookup."""
        quoted = list(map(self.__getitem__, nodes))
        runs = _pair_lines(named_rows(quoted, masks), "[\n      {},\n      ", "\n    ]", ",\n    ")
        return _array_chunks(runs, 1)

    def blocks(self, key: str, blocks: Iterable[tuple[str, Sequence[str]]]) -> str:
        return _array((f'{{\n      "{key}": {self[label]},\n      "members": '
                       f'{self.array(members, 3)}\n    }}' for label, members in blocks), 1)


def _node_label(node: str, members: tuple[str, ...]) -> str:
    subsumed = ",".join([m for m in members if m != node])
    return f"{node} (={subsumed})" if subsumed else node


def dot_chunks(diagram: HasseDiagram) -> Iterator[str]:
    """Graphviz text for the diagram; rankdir=BT puts prerequisites below."""
    yield "digraph hierarchy {\n  rankdir=BT;\n"
    yield "".join([f'  "{n}" [label="{_node_label(n, members)}"];\n'
                   for n, members in zip(diagram.nodes, diagram.members)])
    yield from _pair_lines(diagram.successors(), '  "{}" -> "', '";\n')
    yield "}\n"


class AnalysisReport(Frozen):
    """Everything the pipeline derives from one table at one flexibility.

    ``diagram`` is the Hasse diagram of the order matrix of ``table`` (its
    rows hold the covering subset of the strict ordered pairs, and it
    carries the drawing layers); ``order``, read from it, is that matrix
    (its rows hold the strict ordered pairs).  All names are class
    representatives.  With ``include_counts`` the writers add the response
    counts of every ordered pair of representatives, read from the table
    one row at a time (``JudgmentTable.count_rows``).  ``relation`` and
    ``classes`` are read from ``order``, ``hasse`` and ``layers`` from
    ``diagram``.
    """

    _fields = ("table", "flexibility", "diagram", "include_counts")

    def __init__(
        self, table: JudgmentTable, flexibility: Flexibility, diagram: HasseDiagram,
        include_counts: bool = False,
    ) -> None:
        self.__dict__.update(
            table=table, flexibility=flexibility, diagram=diagram, include_counts=include_counts,
        )

    @property
    def order(self) -> OrderMatrix:
        """The order matrix the diagram was built from (``diagram.order``)."""
        return self.diagram.order

    @property
    def relation(self) -> tuple[tuple[str, str], ...]:
        """The strict ordered pairs, natural-sorted (``OrderMatrix.pairs``)."""
        return self.order.pairs()

    @property
    def classes(self) -> EquivalenceClasses:
        return self.order.classes

    @property
    def hasse(self) -> tuple[tuple[str, str], ...]:
        """The covering edges, natural-sorted (``HasseDiagram.edges``)."""
        return self.diagram.edges

    @property
    def layers(self) -> tuple[tuple[str, ...], ...]:
        """The node names per drawing layer, bottom first
        (``HasseDiagram.layers``)."""
        return self.diagram.layers


def analyze(
    table: JudgmentTable, alpha: Flexibility = ZERO_FLEXIBILITY, include_counts: bool = False
) -> AnalysisReport:
    """Run the full pipeline: classes, order, covering edges, layers."""
    diagram = transitive_reduction(order_matrix(table, alpha))
    return AnalysisReport(table, alpha, diagram, include_counts)


def _report_json(report: AnalysisReport) -> Iterator[str]:
    names = _JsonNames()
    yield (
        f'{{\n  "targets": {names.array(report.table.target_names, 1)},\n  "flexibility": {{'
        f'\n    "percent": "{report.flexibility.percent_text}",'  # digits and a dot: no escapes
        f'\n    "basis_points": {report.flexibility.basis_points}\n  }},\n  "classes": '
    )
    yield names.blocks("representative", ((b[-1], b) for b in report.classes.blocks))
    yield ',\n  "relation": '
    yield from names.pairs(report.order.reps, report.order.strict_rows)
    yield ',\n  "hasse": '
    yield from names.pairs(report.diagram.nodes, report.diagram.covers)
    yield ',\n  "layers": ' + _array((names.array(group, 2) for group in report.layers), 1)
    if report.include_counts:
        yield ',\n  "counts": '
        rows = report.table.count_rows(report.order.reps)
        yield from _array_chunks((",\n    ".join([
            f'{{\n      "p": {names[p]},\n      "q": {names[q]},\n      "n1": {n1},\n      '
            f'"n2": {n2},\n      "n3": {n3},\n      "n4": {n4}\n    }}'
            for q, n1, n2, n3, n4 in row
        ]) for p, row in rows if row), 1)
    yield "\n}\n"


def _text_pairs(
    key: str, masks: Iterable[int], rows: Iterable[tuple[str, Sequence[str]]]
) -> Iterator[str]:
    """A "key (count):" section of "p -> q" lines, from rows (p, [q, ...]):
    one chunk per non-empty row.  ``masks`` are the row masks the rows
    are read from; the count is their total popcount."""
    yield f"{key} ({sum(mask.bit_count() for mask in masks)}):\n"
    yield from _pair_lines(rows, "  {} -> ", "\n")


def _report_text(report: AnalysisReport) -> Iterator[str]:
    yield (
        f"targets: {' '.join(report.table.target_names)}\n"
        f"flexibility: {report.flexibility.percent_text}% "
        f"({report.flexibility.basis_points} basis points)\nclasses:\n"
    )
    yield "".join([f"  {block[-1]}: {' '.join(block)}\n" for block in report.classes.blocks])
    yield from _text_pairs("relation", report.order.strict_rows, report.order.successors())
    yield from _text_pairs("hasse", report.diagram.covers, report.diagram.successors())
    yield "layers:\n" + "".join(
        [f"  {level}: {' '.join(group)}\n" for level, group in enumerate(report.layers)]
    )
    if report.include_counts:
        yield "counts:\n"
        for p, row in report.table.count_rows(report.order.reps):
            yield "".join([f"  {p},{q}: n1={n1} n2={n2} n3={n3} n4={n4}\n"
                           for q, n1, n2, n3, n4 in row])


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
    yield '{\n  "nodes": ' + names.blocks("name", zip(diagram.nodes, diagram.members))
    yield ',\n  "edges": '
    yield from names.pairs(diagram.nodes, diagram.covers)
    layers = _array((names.array(group, 2) for group in diagram.layers), 1)
    yield ',\n  "layers": ' + layers + "\n}\n"


def _rendered_states(structure: KnowledgeStructure) -> tuple[list[int], list[str]]:
    """The states ordered by size, then by the ascending lists of their
    members' natural-order ranks (``natural_ranks`` of the ground, taken
    once per rendered structure), and the "{a,b}" text of each.

    The state matrix is transposed, its columns are put in descending rank
    order and it is transposed back, so bit u - 1 - r of ``keys[i]`` says
    whether state i holds the name of rank r.  For states of equal size,
    the ascending rank lists are in the descending order of these keys,
    so one int per state sorts the family.  The keys' binary digits, most
    significant first, then pick every state's names, in turn, from the
    names in rank order.  No name and no list is compared.
    """
    u = len(structure.ground)
    states = list(structure.states)
    # One (rank, name, column) per target; ranks are distinct, so nothing else is compared.
    ranks = natural_ranks(structure.ground)
    by_rank = sorted(zip(ranks, structure.ground, transpose(states, u)))
    keys = transpose([column for _, _, column in reversed(by_rank)], len(states))
    full = (1 << u) - 1
    sort_keys = [key.bit_count() << u | full ^ key for key in keys]
    order = sorted(range(len(states)), key=sort_keys.__getitem__)
    top = 1 << u  # bin(key | top) is "0b1" and then the u digits of key
    flags = "".join([bin(keys[i] | top)[3:] for i in order]).encode().translate(_DIGIT_VALUES)
    members = compress(cycle([name for _, name, _ in by_rank]), flags)
    texts = ["{" + ",".join(islice(members, sort_keys[i] >> u)) + "}" for i in order]
    return [states[i] for i in order], texts


def structure_chunks(structure: KnowledgeStructure) -> Iterator[str]:
    """Text rendering of a structure: states, per-target state families,
    the concept partition, and the discriminative reduction.

    Each state is sorted and rendered once, the ``K_<name>`` lines read
    the transposed sorted states, and the concept partition groups the
    targets by those same columns (equal columns stay equal in any state
    order) instead of transposing the states again; it gives the
    discriminative flag.  A discriminative structure (every
    concept one target) is its own reduction, so its state lines are
    written again as the reduction's; only a structure that is not
    discriminative is reduced (``discriminative_reduction``, which finds
    its concepts itself) and rendered a second time.  Each
    ``K_<name>`` line is a chunk of its own: a line can list every state,
    so the lines together can be far larger than the rendered states.
    """
    states, texts = _rendered_states(structure)
    lines = "".join([f"  {text}\n" for text in texts])
    yield f"targets: {' '.join(structure.ground)}\nstates ({len(states)}):\n" + lines
    families = transpose(states, len(structure.ground))
    for name, family in zip(structure.ground, families):
        yield " ".join([f"K_{name}:", *compress(texts, bit_flags(family))]) + "\n"
    partition = ConceptPartition.from_keys(structure.ground, families)
    concepts = " ".join("{" + ",".join(block) + "}" for block in partition.blocks)
    discriminative = len(partition.blocks) == len(structure.ground)
    reduced, reduced_lines = structure, lines
    if not discriminative:
        reduced = discriminative_reduction(structure)
        reduced_lines = "".join([f"  {text}\n" for text in _rendered_states(reduced)[1]])
    yield (
        f"concepts: {concepts}\ndiscriminative: {'true' if discriminative else 'false'}\n"
        f"reduction targets: {' '.join(reduced.ground)}\n"
        f"reduction states ({len(reduced.states)}):\n" + reduced_lines
    )


def structure_report(structure: KnowledgeStructure) -> str:
    return "".join(structure_chunks(structure))
