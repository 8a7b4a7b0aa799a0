"""Brute-force reference computations, kept deliberately independent of
the package's own algorithms: supports are read straight off raw rows,
the threshold uses exact fractions instead of cross-multiplication,
closures use BFS reachability or Warshall's loop over a list of
boolean lists, the downsets of an order are every subset filtered pair
by pair, a table's cells are one bit test each on its support
masks, the covering extraction tests edge removal against
reachability, the order axioms are checked by nested loops over a
boolean matrix, knowledge states are frozensets of ground indices (the
surmise relation intersects the states containing each target, concepts
group targets by their family of states), the structure view sorts every
state by natural keys of its member names each time it is printed, the
CSV reader checks every cell while splitting and again as a table, scans
the names one by one and packs the support masks cell by cell, and the
JSON outputs are ``json.dumps(..., indent=2)`` of a
dict built from the report or diagram.  The package's earlier row-mask
forms are kept as references for the faster code that replaced them:
the order rows by one threshold test per ordered pair, the axiom check
by one test per relation pair, the covering rows by their own loop, and
the layers by Kahn's algorithm over name-keyed predecessor and successor
sets built from the edge pairs, and the pair sections of the JSON, text
and DOT outputs by one rendered element per (p, q) pair.  The fused
axiom and covering pass is kept as it was before the rows a mask selects
were ORed by Four Russians (one ``reduce`` over a list of bit indices
per row), and so is the row walker that named a row through such a list.
The structure view's state order is kept as it was before it was read
from one int key per state: one sorted list of member ranks per state,
compared as lists.  The command line is read by the argparse parser
the CLI was built on before it read its own command table, and a
flexibility's text by the regular expression it was matched with before
it was read by ``str`` methods.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import or_

from surmise import cli
from surmise.io import CsvError
from surmise.order import (
    OrderDiagnostics,
    _edge_holds,
    equivalence_classes,
)
from surmise.table import (
    Flexibility,
    FlexibilityError,
    FlexibilityFormatError,
    JudgmentTable,
    TableError,
    _out_of_range,
    _percent_text,
    bit_flags,
    transpose,
)


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending, by one
    bit test per position."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def pack_bits(flags) -> int:
    """The int whose bit i is set iff flags[i] (a 0/1 int or bool) is 1."""
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def cells_of(table: JudgmentTable) -> tuple[tuple[int, ...], ...]:
    """The table's 0/1 cells, one row per model: ``cells[i][j]`` is bit i
    of ``support_masks[j]``, read by one bit test per cell."""
    return tuple(
        tuple(mask >> i & 1 for mask in table.support_masks) for i in range(table.model_count)
    )


def order_holds(matrix, p: str, q: str) -> bool:
    """Whether the order matrix relates representative p to q: bit q of
    row p, both found by a scan of ``reps``."""
    return bool(matrix.rows[matrix.reps.index(p)] >> matrix.reps.index(q) & 1)


def columns_of(rows: list[list[int]]) -> list[tuple[int, ...]]:
    return [tuple(row[j] for row in rows) for j in range(len(rows[0]))]


def supports_of(rows: list[list[int]]) -> list[frozenset[int]]:
    return [
        frozenset(i for i, row in enumerate(rows) if row[j])
        for j in range(len(rows[0]))
    ]


def containment_relation(rows: list[list[int]]) -> set[tuple[int, int]]:
    """(p, q) iff every model correct on q is correct on p (incl. diagonal)."""
    sups = supports_of(rows)
    u = len(sups)
    return {(p, q) for p in range(u) for q in range(u) if sups[q] <= sups[p]}


def threshold_relation(
    rows: list[list[int]], percent: Fraction
) -> set[tuple[int, int]]:
    """The flexible relation computed with Fraction arithmetic."""
    cols = columns_of(rows)
    u = len(cols)
    out: set[tuple[int, int]] = set()
    for p in range(u):
        for q in range(u):
            if p == q:
                out.add((p, q))
                continue
            n2 = sum(1 for a, b in zip(cols[p], cols[q]) if a == 1 and b == 0)
            n3 = sum(1 for a, b in zip(cols[p], cols[q]) if a == 0 and b == 1)
            if n2 + n3 == 0 or Fraction(n3, n2 + n3) <= percent / 100:
                out.add((p, q))
    return out


def identical_column_blocks(rows: list[list[int]]) -> set[frozenset[int]]:
    cols = columns_of(rows)
    groups: dict[tuple[int, ...], set[int]] = {}
    for j, col in enumerate(cols):
        groups.setdefault(col, set()).add(j)
    return {frozenset(g) for g in groups.values()}


def reachable(pairs: set[tuple[object, object]], start: object) -> set[object]:
    """Everything reachable from start along one or more pairs."""
    adjacency: dict[object, set[object]] = {}
    for a, b in pairs:
        adjacency.setdefault(a, set()).add(b)
    seen: set[object] = set()
    queue = deque(adjacency.get(start, ()))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(adjacency.get(node, ()))
    return seen


def closure_pairs(
    pairs: set[tuple[object, object]], elements: list[object] | tuple[object, ...]
) -> set[tuple[object, object]]:
    """Reflexive-transitive closure over the given element universe."""
    out = {(e, e) for e in elements}
    for e in elements:
        for other in reachable(pairs, e):
            out.add((e, other))
    return out


def covering_pairs(
    strict: set[tuple[object, object]]
) -> set[tuple[object, object]]:
    """Edges that cannot be dropped without losing reachability.

    For a strict partial order this extracts exactly the covering
    relation: (a, b) is kept iff b is unreachable from a once every
    elementwise path is forced through other nodes.
    """
    kept: set[tuple[object, object]] = set()
    for edge in strict:
        rest = strict - {edge}
        if edge[1] not in reachable(rest, edge[0]):
            kept.add(edge)
    return kept


def longest_path_layers(
    nodes: list[object] | tuple[object, ...], edges: set[tuple[object, object]]
) -> dict[object, int]:
    """Layer assignment by memoised recursion over covering predecessors."""
    preds: dict[object, set[object]] = {n: set() for n in nodes}
    for lower, upper in edges:
        preds[upper].add(lower)
    memo: dict[object, int] = {}

    def depth(node: object) -> int:
        if node not in memo:
            memo[node] = (
                1 + max(depth(p) for p in preds[node]) if preds[node] else 0
            )
        return memo[node]

    return {n: depth(n) for n in nodes}


def order_axiom_witnesses(
    names: list[str] | tuple[str, ...], bits: list[list[bool]] | tuple[tuple[bool, ...], ...]
) -> tuple[str | None, tuple[str, str] | None, tuple[str, str, str] | None]:
    """First failure of reflexivity, anti-symmetry and transitivity, or
    None each; scan order i, then j, then k, cubic in the size."""
    size = len(names)
    reflexive = next((names[i] for i in range(size) if not bits[i][i]), None)

    antisymmetric = None
    for i in range(size):
        for j in range(i + 1, size):
            if bits[i][j] and bits[j][i]:
                antisymmetric = (names[i], names[j])
                break
        if antisymmetric is not None:
            break

    transitive = None
    for i in range(size):
        for j in range(size):
            if not bits[i][j]:
                continue
            for k in range(size):
                if bits[j][k] and not bits[i][k]:
                    transitive = (names[i], names[j], names[k])
                    break
            if transitive is not None:
                break
        if transitive is not None:
            break

    return reflexive, antisymmetric, transitive


def pairwise_order_rows(table: JudgmentTable, alpha: Flexibility) -> tuple[int, ...]:
    """The order rows over class representatives by the plain c^2 loop:
    one ``_edge_holds`` call per ordered pair, each row folded from its
    flags with ``pack_bits``, with no use of the size order."""
    classes = equivalence_classes(table)
    columns = [table.target_index(rep) for rep in classes.representatives]
    supports = [(table.support_masks[j], table.support_sizes[j]) for j in columns]
    rows = []
    for mask_p, size_p in supports:
        row = []
        for mask_q, size_q in supports:
            n1 = (mask_p & mask_q).bit_count()
            row.append(_edge_holds(size_p - n1, size_q - n1, alpha.basis_points))
        rows.append(pack_bits(row))
    return tuple(rows)


def check_axioms_reference(names, up) -> OrderDiagnostics:
    """The order axioms checked on row masks, transitivity by one
    ``up[j] & ~up[i]`` test per relation pair (j = i included); each
    witness is the first failure in the scan order i, then j, then k."""
    size = len(names)
    down = transpose(up, size)

    reflexivity_witness = next(
        (names[i] for i in range(size) if not up[i] >> i & 1), None
    )

    antisymmetry_witness = None
    for i in range(size):
        mutual = (up[i] & down[i]) >> (i + 1)
        if mutual:
            antisymmetry_witness = (names[i], names[i + 1 + bit_indices(mutual)[0]])
            break

    transitivity_witness = None
    for i in range(size):
        for j in bit_indices(up[i]):
            missing = up[j] & ~up[i]
            if missing:
                transitivity_witness = (names[i], names[j], names[bit_indices(missing)[0]])
                break
        if transitivity_witness is not None:
            break

    return OrderDiagnostics(reflexivity_witness, antisymmetry_witness, transitivity_witness)


def or_selected_reference(rows, selectors) -> list[int]:
    """Entry i is the OR of the rows at the set bits of selectors[i], one
    OR per set bit."""
    return [reduce(or_, map(rows.__getitem__, bit_indices(s)), 0) for s in selectors]


def check_axioms_loop_reference(reps, up) -> tuple[OrderDiagnostics, tuple[int, ...]]:
    """The fused axiom and covering pass as one loop per row: ``implied``
    is a ``reduce`` over the strict rows at the row's bit indices, and
    the first row with a bit of ``implied`` outside ``up[i]`` gives the
    transitivity witness."""
    size = len(reps)
    down = transpose(up, size)
    strict = [row & ~(1 << i) for i, row in enumerate(up)]

    reflexivity_witness = next(
        (reps[i] for i in range(size) if not up[i] >> i & 1), None
    )

    antisymmetry_witness = None
    for i in range(size):
        mutual = (up[i] & down[i]) >> (i + 1)
        if mutual:
            antisymmetry_witness = (reps[i], reps[i + 1 + bit_indices(mutual)[0]])
            break

    transitivity_witness = None
    covers = []
    for i, above in enumerate(strict):
        implied = reduce(or_, map(strict.__getitem__, bit_indices(above)), 0)
        if implied & ~up[i] and transitivity_witness is None:
            j = next(j for j in bit_indices(up[i]) if up[j] & ~up[i])
            k = bit_indices(up[j] & ~up[i])[0]
            transitivity_witness = (reps[i], reps[j], reps[k])
        covers.append(above & ~implied)

    diagnostics = OrderDiagnostics(reflexivity_witness, antisymmetry_witness, transitivity_witness)
    return diagnostics, tuple(covers)


def named_rows_reference(names, masks):
    """(names[i], [names[j] for each set bit j of masks[i]]) per row, the
    names looked up through the row's list of bit indices."""
    for name, mask in zip(names, masks):
        yield name, list(map(names.__getitem__, bit_indices(mask)))


def covering_masks_reference(strict_up) -> list[int]:
    """Covering successors of every node of a strict partial order (bit j
    of ``strict_up[i]``: i < j): row i less the union of the rows of
    everything above it (Aho, Garey & Ullman 1972)."""
    covers = []
    for above in strict_up:
        implied = 0
        for k in bit_indices(above):
            implied |= strict_up[k]
        covers.append(above & ~implied)
    return covers


def layers_from_edges_reference(nodes, edges) -> dict[str, int]:
    """Layer of each node (longest path from the minimal elements) by
    Kahn's algorithm over name-keyed sets, which doubles as the cycle
    detector; raises on an unknown node or a cycle."""
    preds: dict[str, set[str]] = {n: set() for n in nodes}
    succs: dict[str, set[str]] = {n: set() for n in nodes}
    for lower, upper in edges:
        if lower not in preds or upper not in preds:
            raise ValueError(f"edge ({lower!r}, {upper!r}) mentions an unknown node")
        preds[upper].add(lower)
        succs[lower].add(upper)

    pending = {n: len(preds[n]) for n in nodes}
    ready = [n for n in nodes if pending[n] == 0]
    layers: dict[str, int] = {}
    while ready:
        node = ready.pop()
        layers[node] = max((layers[p] + 1 for p in preds[node]), default=0)
        for nxt in succs[node]:
            pending[nxt] -= 1
            if pending[nxt] == 0:
                ready.append(nxt)
    if len(layers) != len(nodes):
        stuck = sorted(set(nodes) - set(layers), key=natural_name_key)
        raise ValueError(f"cycle detected among {stuck}")
    return layers


def transitive_closure_reference(
    relation: list[list[int]] | list[list[bool]],
) -> tuple[tuple[bool, ...], ...]:
    """Smallest transitive superset of a square boolean matrix (Warshall)."""
    size = len(relation)
    grid = [[bool(cell) for cell in row] for row in relation]
    for row in grid:
        if len(row) != size:
            raise ValueError("relation matrix is not square")
    for k in range(size):
        row_k = grid[k]
        for i in range(size):
            if grid[i][k]:
                row_i = grid[i]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    return tuple(tuple(row) for row in grid)


def downsets_reference(rows) -> frozenset[int]:
    """Every subset of the n elements of an order given as row masks (bit
    j of ``rows[i]``: i is a prerequisite of j) that holds, with each
    member, each of its prerequisites: all 2^n subsets filtered pair by
    pair."""
    size = len(rows)
    pairs = [(i, j) for i in range(size) for j in range(size) if rows[i] >> j & 1]
    return frozenset(
        subset
        for subset in range(1 << size)
        if all(subset >> i & 1 for i, j in pairs if subset >> j & 1)
    )


def state_sets(masks) -> frozenset[frozenset[int]]:
    """Int-mask states (bit j: ground[j] is a member) as index sets."""
    return frozenset(
        frozenset(j for j in range(mask.bit_length()) if mask >> j & 1) for mask in masks
    )


def state_masks(sets) -> frozenset[int]:
    """Index-set states as int masks."""
    return frozenset(sum(1 << j for j in state) for state in sets)


def surmise_reference(
    ground: tuple[str, ...], states: frozenset[frozenset[int]]
) -> frozenset[tuple[str, str]]:
    """(p, q) iff p lies in the intersection of the states containing q;
    the intersection of no states is the whole ground."""
    pairs: set[tuple[str, str]] = set()
    for q_index, q_name in enumerate(ground):
        meet = frozenset(range(len(ground)))
        for state in states:
            if q_index in state:
                meet &= state
        for p_index in meet:
            pairs.add((ground[p_index], q_name))
    return frozenset(pairs)


def natural_name_key(name: str) -> tuple:
    """Digit runs compare numerically, the raw name breaks ties."""
    runs = tuple(
        (0, int(run)) if run.isdecimal() else (1, run)
        for run in re.split(r"(\d+)", name)
        if run
    )
    return (runs, name)


def rendered_states_reference(structure) -> tuple[list[int], list[str]]:
    """The states ordered by size, then member names, and the "{a,b}" text
    of each.  The ground is sorted once by ``natural_name_key``; a state's
    members are read once, as their positions in that order, which give
    both the sort key and the text, with no name compared again."""
    by_rank = sorted(structure.ground, key=natural_name_key)
    position = {name: r for r, name in enumerate(by_rank)}
    rank = [position[name] for name in structure.ground]
    keyed = []
    for state in structure.states:
        ranks = sorted(compress(rank, bit_flags(state)))
        keyed.append((len(ranks), ranks, state))
    keyed.sort()
    texts = ["{" + ",".join([by_rank[r] for r in ranks]) + "}" for _, ranks, _ in keyed]
    return [state for _, _, state in keyed], texts


def structure_report_reference(
    ground: tuple[str, ...], states: frozenset[frozenset[int]]
) -> str:
    """The ``structure`` text of a state family over a ground list.

    States are ordered by size, then by the natural keys of their sorted
    member names; every occurrence of a state is sorted and rendered
    anew.  Concepts group targets with identical state families, and the
    reduction maps each state onto one representative per concept.
    """

    def names_of(ground: tuple[str, ...], state: frozenset[int]) -> list[str]:
        return sorted((ground[j] for j in state), key=natural_name_key)

    def sorted_states(ground, states):
        return sorted(
            states,
            key=lambda s: (len(s), [natural_name_key(n) for n in names_of(ground, s)]),
        )

    def render(ground, state) -> str:
        return "{" + ",".join(names_of(ground, state)) + "}"

    ordered = sorted_states(ground, states)
    lines = ["targets: " + " ".join(ground), f"states ({len(ordered)}):"]
    lines += ["  " + render(ground, s) for s in ordered]
    for j, name in enumerate(ground):
        family = [render(ground, s) for s in ordered if j in s]
        lines.append(f"K_{name}:" + "".join(" " + text for text in family))

    blocks = concept_blocks_reference(ground, states)
    lines.append("concepts: " + " ".join("{" + ",".join(b) + "}" for b in blocks))
    discriminative = all(len(block) == 1 for block in blocks)
    lines.append(f"discriminative: {'true' if discriminative else 'false'}")

    new_ground, new_states = reduction_reference(ground, states)
    reduced = sorted_states(new_ground, new_states)
    lines.append("reduction targets: " + " ".join(new_ground))
    lines.append(f"reduction states ({len(reduced)}):")
    lines += ["  " + render(new_ground, s) for s in reduced]
    return "\n".join(lines) + "\n"


def concept_blocks_reference(
    ground: tuple[str, ...], states: frozenset[frozenset[int]]
) -> list[list[str]]:
    """Targets grouped by the family of states containing them; each block
    natural-sorted, blocks ordered by their first member."""
    groups: dict[frozenset[frozenset[int]], list[str]] = {}
    for j, name in enumerate(ground):
        groups.setdefault(frozenset(s for s in states if j in s), []).append(name)
    return sorted(
        (sorted(g, key=natural_name_key) for g in groups.values()),
        key=lambda block: natural_name_key(block[0]),
    )


def reduction_reference(
    ground: tuple[str, ...], states: frozenset[frozenset[int]]
) -> tuple[tuple[str, ...], frozenset[frozenset[int]]]:
    """The discriminative reduction: one representative (first member) per
    concept, in ground order, and each state mapped onto the concepts it
    meets."""
    blocks = concept_blocks_reference(ground, states)
    representative = {name: block[0] for block in blocks for name in block}
    new_ground = tuple(name for name in ground if representative[name] == name)
    new_states = frozenset(
        frozenset(new_ground.index(representative[ground[j]]) for j in s)
        for s in states
    )
    return new_ground, new_states


def check_names_reference(target_names, model_names) -> None:
    """Reject empty names, forbidden characters and duplicates by one scan
    of each axis, targets first, with the messages of the package."""

    def check_name(kind: str, position: int, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise TableError(f"{kind} name at position {position} is empty")
        for ch in ('"', ",", "\n", "\r", "\\"):
            if ch in name:
                raise TableError(
                    f"{kind} name {name!r} at position {position} contains "
                    f"forbidden character {ch!r}"
                )

    seen: dict[str, int] = {}
    for j, name in enumerate(target_names):
        check_name("target", j, name)
        if name in seen:
            raise TableError(
                f"duplicate target name {name!r} (columns {seen[name]} and {j})"
            )
        seen[name] = j
    seen = {}
    for i, name in enumerate(model_names):
        check_name("model", i, name)
        if name in seen:
            raise TableError(
                f"duplicate model name {name!r} (rows {seen[name]} and {i})"
            )
        seen[name] = i


def line_blocks_reference(source, block_size: int):
    """The blocks of ``io._line_blocks`` as it read them before it carried
    the partial line as a list of chunks: each chunk is appended to the
    carried bytes, and the whole is cut at its last line break."""
    carry = b""
    for chunk in iter(lambda: source.read(block_size), b""):
        block, cut, carry = (carry + chunk).rpartition(b"\n")
        if cut:
            yield block
    if carry:
        yield carry


def parse_csv_reference(data: bytes | str):
    """The judgment table of ``csv_rows_reference``, its support masks
    packed by a loop over every cell."""
    target_names, model_names, rows = csv_rows_reference(data)
    masks = [0] * len(target_names)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell:
                masks[j] |= 1 << i
    return JudgmentTable(
        model_names=tuple(model_names),
        target_names=tuple(target_names),
        support_masks=tuple(masks),
    )


def csv_rows_reference(data: bytes | str):
    """Target names, model names and 0/1 rows read from CSV by splitting
    every line and checking every cell, then validating names, shape and
    cells once more as a table; raises the same ``CsvError``/``TableError``
    messages as ``surmise.parse_csv``."""
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

    header = lines[0].split(",")
    target_names = header[1:]
    if not target_names:
        raise CsvError("header row declares no targets")
    width = len(header)
    model_names: list[str] = []
    bits: list[list[int]] = []
    for line_number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise CsvError(
                f"row at line {line_number} has {len(cells)} cells, "
                f"expected {width}"
            )
        model_names.append(cells[0])
        row: list[int] = []
        for column, cell in enumerate(cells[1:], start=1):
            if cell == "0":
                row.append(0)
            elif cell == "1":
                row.append(1)
            else:
                raise CsvError(
                    f"cell at line {line_number}, column {column} "
                    f"(target {target_names[column - 1]!r}) is {cell!r}, "
                    f"expected '0' or '1'"
                )
        bits.append(row)
    if not bits:
        raise CsvError("CSV has a header but no model rows")

    check_names_reference(target_names, model_names)
    rows: list[tuple[int, ...]] = []
    for i, raw_row in enumerate(bits):
        for j, cell in enumerate(raw_row):
            if not isinstance(cell, int) or cell not in (0, 1):
                raise TableError(
                    f"cell at row {i} (model {model_names[i]!r}), column {j} "
                    f"(target {target_names[j]!r}) is {cell!r}, not 0 or 1"
                )
        rows.append(tuple(int(c) for c in raw_row))
    return target_names, model_names, rows


def counts_reference(report) -> list[tuple[str, str, int, int, int, int]]:
    """(p, q, n1, n2, n3, n4) for every ordered pair of distinct
    representatives of the report, in natural order: the models with
    each (p, q) response pattern (both correct, p only, q only, neither),
    counted cell by cell from ``cells_of`` of the report's table."""
    names = report.table.target_names
    cells = cells_of(report.table)
    counts = []
    for p in report.order.reps:
        for q in report.order.reps:
            if p != q:
                j, k = names.index(p), names.index(q)
                patterns = [(row[j], row[k]) for row in cells]
                n1, n2, n3, n4 = map(patterns.count, ((1, 1), (1, 0), (0, 1), (0, 0)))
                counts.append((p, q, n1, n2, n3, n4))
    return counts


def report_json_reference(report) -> str:
    """The ``analyze --json`` text of an ``AnalysisReport``; the counts
    come from ``counts_reference``."""
    obj: dict = {
        "targets": list(report.table.target_names),
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
    if report.include_counts:
        obj["counts"] = [
            {"p": p, "q": q, "n1": n1, "n2": n2, "n3": n3, "n4": n4}
            for p, q, n1, n2, n3, n4 in counts_reference(report)
        ]
    return json.dumps(obj, indent=2) + "\n"


def hasse_json_reference(diagram) -> str:
    """The ``hasse --json`` text of a ``HasseDiagram``."""
    obj = {
        "nodes": [
            {"name": node, "members": list(members)}
            for node, members in zip(diagram.nodes, diagram.members)
        ],
        "edges": [list(edge) for edge in diagram.edges],
        "layers": [list(group) for group in diagram.layers],
    }
    return json.dumps(obj, indent=2) + "\n"


def pairs_json_reference(pairs) -> str:
    """A JSON array of [p, q] pairs at depth 1, one element per pair."""
    body = ",\n    ".join(
        f"[\n      {json.dumps(p)},\n      {json.dumps(q)}\n    ]" for p, q in pairs
    )
    return f"[\n    {body}\n  ]" if body else "[]"


def pairs_text_reference(key: str, pairs) -> str:
    """A "key (count):" text section, one "p -> q" line per pair."""
    return f"{key} ({len(pairs)}):\n" + "".join(f"  {p} -> {q}\n" for p, q in pairs)


def report_text_reference(report) -> str:
    """The ``analyze --text`` text of an ``AnalysisReport``; the counts
    come from ``counts_reference``."""
    flexibility = report.flexibility
    lines = [
        f"targets: {' '.join(report.table.target_names)}",
        f"flexibility: {flexibility.percent_text}% ({flexibility.basis_points} basis points)",
        "classes:",
        *(f"  {block[-1]}: {' '.join(block)}" for block in report.classes.blocks),
    ]
    text = "\n".join(lines) + "\n"
    text += pairs_text_reference("relation", report.relation)
    text += pairs_text_reference("hasse", report.hasse)
    text += "layers:\n" + "".join(
        f"  {level}: {' '.join(group)}\n" for level, group in enumerate(report.layers)
    )
    if report.include_counts:
        text += "counts:\n" + "".join(
            f"  {p},{q}: n1={n1} n2={n2} n3={n3} n4={n4}\n"
            for p, q, n1, n2, n3, n4 in counts_reference(report)
        )
    return text


def dot_reference(diagram) -> str:
    """The ``hasse --dot`` text of a ``HasseDiagram``, one line per edge."""
    text = "digraph hierarchy {\n  rankdir=BT;\n"
    for node, members in zip(diagram.nodes, diagram.members):
        subsumed = ",".join(m for m in members if m != node)
        label = f"{node} (={subsumed})" if subsumed else node
        text += f'  "{node}" [label="{label}"];\n'
    text += "".join(f'  "{lower}" -> "{upper}";\n' for lower, upper in diagram.edges)
    return text + "}\n"


class ReferenceUsageError(Exception):
    pass


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ReferenceUsageError(message)


def build_parser() -> _ReferenceParser:
    """The argparse parser of the CLI, with each command's handler as
    ``func``; a usage error raises ReferenceUsageError."""
    parser = _ReferenceParser(
        prog="surmise",
        description="Mine the prerequisite hierarchy among judgment targets "
        "from a models-by-targets 0/1 table.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_ReferenceParser)

    p_analyze = sub.add_parser("analyze", help="full report: classes, order, hasse, layers")
    p_analyze.add_argument("csv")
    p_analyze.add_argument("--flexibility", default="0", metavar="P")
    p_analyze.add_argument("--counts", action="store_true", help="include per-pair response counts")
    fmt = p_analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", action="store_true")
    p_analyze.set_defaults(func=cli._cmd_analyze)

    p_hasse = sub.add_parser("hasse", help="covering edges as DOT (default) or JSON")
    p_hasse.add_argument("csv")
    p_hasse.add_argument("--flexibility", default="0", metavar="P")
    fmt = p_hasse.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p_hasse.set_defaults(func=cli._cmd_hasse)

    p_counts = sub.add_parser("counts", help="response-pattern counts for one target pair")
    p_counts.add_argument("csv")
    p_counts.add_argument("--p", required=True, metavar="NAME")
    p_counts.add_argument("--q", required=True, metavar="NAME")
    p_counts.set_defaults(func=cli._cmd_counts)

    p_structure = sub.add_parser(
        "structure", help="knowledge states, per-target families, concepts, reduction"
    )
    p_structure.add_argument("csv")
    p_structure.add_argument(
        "--no-complete",
        action="store_true",
        help="do not add the empty and full states",
    )
    p_structure.set_defaults(func=cli._cmd_structure)

    p_synth = sub.add_parser("synth", help="emit a CSV sampled from a random planted poset")
    p_synth.add_argument("--targets", type=int, required=True, metavar="N")
    p_synth.add_argument("--models", type=int, required=True, metavar="M")
    p_synth.add_argument("--seed", type=int, required=True, metavar="S")
    p_synth.add_argument("--noise", type=float, default=0.0, metavar="P")
    p_synth.add_argument("--density", type=float, default=0.5, metavar="D")
    p_synth.set_defaults(func=cli._cmd_synth)

    return parser


def parse_reference(argv: list[str]) -> tuple:
    """How the argparse CLI took argv: ("help",) for help printed and exit
    0, ("error", message) for a usage error (exit 1, also with no command
    given), or ("ok", handler, arguments) with the arguments by name."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = build_parser().parse_args(argv)
    except ReferenceUsageError as exc:
        return ("error", str(exc))
    except SystemExit as exc:
        assert exc.code == 0, exc.code
        return ("help",)
    values = vars(args)
    if values.pop("command") is None:
        return ("error", "no command given (try --help)")
    return ("ok", values.pop("func"), values)


def flexibility_parse_reference(text: str) -> Flexibility:
    """``Flexibility.parse`` by one regular expression over the text with
    ASCII spaces and tabs stripped."""
    m = re.fullmatch(
        r"(?P<sign>-?)(?P<whole>[0-9]+)(?:\.(?P<frac>[0-9]+))?", text.strip(" \t")
    )
    if m is None:
        raise FlexibilityFormatError(f"flexibility {text!r} is not a decimal percentage")
    frac = m["frac"] or ""
    if len(frac) > 2:
        raise FlexibilityError(f"flexibility {text!r} has more than two decimal digits")
    whole = m["whole"].lstrip("0") or "0"
    if len(whole) > 2:
        raise _out_of_range(m["sign"], _percent_text(whole, frac))
    value = int(whole) * 100 + int(frac.ljust(2, "0") or "0")
    return Flexibility(-value if m["sign"] else value)
