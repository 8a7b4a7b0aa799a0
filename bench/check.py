"""Independent output check for the benchmark's tables.

Everything expected here is derived from the generator's raw rows, never
from ``surmise.parse_csv`` or any other package code: columns and rows
become Python ints used as bitsets, the order threshold is decided with
``Fraction``, covering edges come from bitset successor sets, and layers
from a longest-path pass over a topological order.  Byte drift that keeps
the meaning is caught by the pinned sha256 of the output, where one is
recorded.

``check_*`` functions return a list of problems; an empty list means the
output is correct.  They never raise on bad output.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from gen import Table


def natural_key(name: str) -> tuple:
    parts = tuple(
        (0, int(part)) if part.isdigit() else (1, part)
        for part in re.split(r"(\d+)", name)
        if part
    )
    return (parts, name)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Analysis:
    """The expected analyze report, as plain lists in output order."""

    targets: list[str]
    percent: str
    basis_points: int
    classes: list[tuple[str, list[str]]]
    relation: list[tuple[str, str]]
    hasse: list[tuple[str, str]]
    layers: list[list[str]]
    counts: list[tuple[str, str, int, int, int, int]] | None


def expected_analysis(table: Table, flexibility: str, counts: bool) -> Analysis:
    names = table.target_names
    columns = [0] * len(names)
    for i, row in enumerate(table.rows):
        bit = 1 << i
        for j, cell in enumerate(row):
            if cell:
                columns[j] |= bit

    groups: dict[int, list[str]] = {}
    for j, column in enumerate(columns):
        groups.setdefault(column, []).append(names[j])
    blocks = [sorted(members, key=natural_key) for members in groups.values()]
    blocks.sort(key=lambda block: natural_key(block[-1]))
    reps = [block[-1] for block in blocks]
    support = [columns[names.index(rep)] for rep in reps]

    alpha = Fraction(flexibility) / 100
    size = len(reps)
    up = [0] * size  # up[i]: strict successors of reps[i]
    for p in range(size):
        for q in range(size):
            if p == q:
                continue
            n2 = (support[p] & ~support[q]).bit_count()
            n3 = (support[q] & ~support[p]).bit_count()
            if n2 + n3 == 0 or Fraction(n3, n2 + n3) <= alpha:
                up[p] |= 1 << q
    for p in range(size):
        if up[p] >> p & 1:
            raise AssertionError(f"reference relation is not antisymmetric at {reps[p]}")
        for q in _bits(up[p]):
            if up[q] & ~up[p]:
                raise AssertionError(f"reference relation is not transitive at {reps[p]}")

    cover = [up[p] & ~_union(up, up[p]) for p in range(size)]
    down_count = [0] * size
    for p in range(size):
        for q in _bits(up[p]):
            down_count[q] += 1
    # In a partial order a strict predecessor has strictly fewer strict
    # predecessors, so sorting by that count is a topological order.
    layer = [0] * size
    for p in sorted(range(size), key=lambda k: down_count[k]):
        for q in _bits(cover[p]):
            layer[q] = max(layer[q], layer[p] + 1)
    layers: list[list[str]] = [[] for _ in range(max(layer, default=-1) + 1)]
    for p in range(size):
        layers[layer[p]].append(reps[p])

    pair_counts = None
    if counts:
        models = len(table.rows)
        pair_counts = []
        for p in range(size):
            for q in range(size):
                if p != q:
                    n1 = (support[p] & support[q]).bit_count()
                    n2 = (support[p] & ~support[q]).bit_count()
                    n3 = (support[q] & ~support[p]).bit_count()
                    pair_counts.append((reps[p], reps[q], n1, n2, n3, models - n1 - n2 - n3))

    return Analysis(
        targets=list(names),
        percent=_percent_text(alpha * 100),
        basis_points=int(alpha * 10000),
        classes=[(block[-1], block) for block in blocks],
        relation=[(reps[p], reps[q]) for p in range(size) for q in _bits(up[p])],
        hasse=[(reps[p], reps[q]) for p in range(size) for q in _bits(cover[p])],
        layers=layers,
        counts=pair_counts,
    )


def _union(sets: list[int], mask: int) -> int:
    out = 0
    for k in _bits(mask):
        out |= sets[k]
    return out


def _percent_text(percent: Fraction) -> str:
    text = f"{float(percent):.2f}".rstrip("0").rstrip(".")
    if Fraction(text) != percent:
        raise AssertionError(f"flexibility {percent} needs more than two decimals")
    return text


def _parse_json_report(text: str) -> Analysis:
    obj = json.loads(text)
    counts = obj.get("counts")
    return Analysis(
        targets=obj["targets"],
        percent=obj["flexibility"]["percent"],
        basis_points=obj["flexibility"]["basis_points"],
        classes=[(c["representative"], c["members"]) for c in obj["classes"]],
        relation=[tuple(pair) for pair in obj["relation"]],
        hasse=[tuple(pair) for pair in obj["hasse"]],
        layers=obj["layers"],
        counts=None
        if counts is None
        else [(c["p"], c["q"], c["n1"], c["n2"], c["n3"], c["n4"]) for c in counts],
    )


def _parse_text_report(text: str) -> Analysis:
    lines = text.split("\n")
    if lines.pop() != "":
        raise ValueError("report does not end with a newline")
    head = iter(lines)
    targets = _after(next(head), "targets: ").split(" ")
    m = re.fullmatch(r"flexibility: (\S+)% \((\d+) basis points\)", next(head))
    if m is None:
        raise ValueError("bad flexibility line")
    sections: dict[str, list[str]] = {}
    header_counts: dict[str, int] = {}
    current = None
    for line in head:
        if line.startswith("  "):
            if current is None:
                raise ValueError(f"indented line outside a section: {line!r}")
            sections[current].append(line[2:])
            continue
        m_sec = re.fullmatch(r"(\w+)(?: \((\d+)\))?:", line)
        if m_sec is None:
            raise ValueError(f"unexpected line {line!r}")
        current = m_sec[1]
        sections[current] = []
        if m_sec[2] is not None:
            header_counts[current] = int(m_sec[2])
    for name, count in header_counts.items():
        if count != len(sections[name]):
            raise ValueError(f"{name} header says {count}, lists {len(sections[name])}")

    classes = []
    for line in sections["classes"]:
        rep, members = line.split(": ")
        classes.append((rep, members.split(" ")))
    layers = []
    for level, line in enumerate(sections["layers"]):
        number, members = line.split(": ")
        if int(number) != level:
            raise ValueError(f"layer {number} listed at position {level}")
        layers.append(members.split(" "))
    counts = None
    if "counts" in sections:
        counts = []
        for line in sections["counts"]:
            m_cnt = re.fullmatch(r"(\S+),(\S+): n1=(\d+) n2=(\d+) n3=(\d+) n4=(\d+)", line)
            if m_cnt is None:
                raise ValueError(f"bad counts line {line!r}")
            counts.append((m_cnt[1], m_cnt[2], *map(int, m_cnt.groups()[2:])))
    return Analysis(
        targets=targets,
        percent=m[1],
        basis_points=int(m[2]),
        classes=classes,
        relation=[tuple(line.split(" -> ")) for line in sections["relation"]],
        hasse=[tuple(line.split(" -> ")) for line in sections["hasse"]],
        layers=layers,
        counts=counts,
    )


def _after(line: str, prefix: str) -> str:
    if not line.startswith(prefix):
        raise ValueError(f"expected a line starting {prefix!r}, got {line[:60]!r}")
    return line[len(prefix):]


def _compare(field: str, got: list, want: list) -> list[str]:
    """Entries are tuples of str/int, so both sides can go into sets."""
    if got == want:
        return []
    got_set, want_set = set(got), set(want)
    missing = [x for x in want if x not in got_set]
    extra = [x for x in got if x not in want_set]
    detail = f"{field}: got {len(got)} entries, expected {len(want)}"
    if missing:
        detail += f"; missing {missing[:3]}"
    if extra:
        detail += f"; unexpected {extra[:3]}"
    if not missing and not extra:
        first = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b) \
            if len(got) == len(want) else min(len(got), len(want))
        detail += f"; entries out of order or repeated from entry {first}"
    return [detail]


def check_analysis(output: bytes, fmt: str, want: Analysis) -> list[str]:
    try:
        text = output.decode("utf-8")
        got = _parse_json_report(text) if fmt == "json" else _parse_text_report(text)
        return _compare_analysis(got, want)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unreadable {fmt} report: {exc!r}"[:300]]


def _compare_analysis(got: Analysis, want: Analysis) -> list[str]:
    problems = []
    if got.targets != want.targets:
        problems.append("targets differ")
    if (got.percent, got.basis_points) != (want.percent, want.basis_points):
        problems.append(f"flexibility {got.percent}/{got.basis_points}, expected "
                        f"{want.percent}/{want.basis_points}")
    problems += _compare("classes", [(r, tuple(m)) for r, m in got.classes],
                         [(r, tuple(m)) for r, m in want.classes])
    problems += _compare("relation", got.relation, want.relation)
    problems += _compare("hasse", got.hasse, want.hasse)
    problems += _compare("layers", [tuple(g) for g in got.layers], [tuple(g) for g in want.layers])
    if want.counts is not None or got.counts is not None:
        problems += _compare("counts", got.counts or [], want.counts or [])
    return problems


@dataclass(frozen=True)
class Structure:
    targets: list[str]
    states: int
    concepts: str


def expected_structure(table: Table) -> Structure:
    """State count and concept line of ``structure`` (with completion)."""
    names = table.target_names
    states = {sum(1 << j for j, cell in enumerate(row) if cell) for row in table.rows}
    states |= {0, (1 << len(names)) - 1}
    groups: dict[frozenset[int], list[str]] = {}
    for j, name in enumerate(names):
        family = frozenset(s for s in states if s >> j & 1)
        groups.setdefault(family, []).append(name)
    blocks = [sorted(members, key=natural_key) for members in groups.values()]
    blocks.sort(key=lambda block: natural_key(block[0]))
    return Structure(
        targets=list(names),
        states=len(states),
        concepts="concepts: " + " ".join("{" + ",".join(b) + "}" for b in blocks),
    )


def check_structure(output: bytes, want: Structure) -> list[str]:
    try:
        lines = output.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        return [f"output is not UTF-8: {exc}"]
    problems = []
    if lines[0] != "targets: " + " ".join(want.targets):
        problems.append("targets line differs")
    header = f"states ({want.states}):"
    if len(lines) < 2 or lines[1] != header:
        problems.append(f"state header {lines[1][:40] if len(lines) > 1 else None!r}, "
                        f"expected {header!r}")
    else:
        listed = 0
        while 2 + listed < len(lines) and lines[2 + listed].startswith("  {"):
            listed += 1
        if listed != want.states:
            problems.append(f"{listed} states listed, expected {want.states}")
    concept_lines = [line for line in lines if line.startswith("concepts: ")]
    if concept_lines != [want.concepts]:
        problems.append("concept line differs")
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_pin(output: bytes, pin: str | None) -> list[str]:
    if pin is None or sha256(output) == pin:
        return []
    return [f"stdout sha256 {sha256(output)[:16]}... differs from pinned {pin[:16]}..."]
