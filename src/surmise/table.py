"""Judgment tables: which model judged which target correctly.

The table is the root object of the whole pipeline.  Everything downstream
(knowledge structures, the flexible order, Hasse diagrams) is a pure
function of it, so it is immutable after construction and every derived
quantity is exact integer arithmetic on its support masks.
"""
from __future__ import annotations

import re
import sys
from itertools import chain, compress, pairwise
from operator import or_
from types import MappingProxyType
from typing import ClassVar, Hashable, Iterable, Iterator, Sequence, TypeVar

__all__ = [
    "TableError",
    "FlexibilityError",
    "FlexibilityFormatError",
    "Flexibility",
    "ZERO_FLEXIBILITY",
    "JudgmentTable",
    "build_table",
    "natural_key",
    "natural_sorted",
    "NamePartition",
]


class TableError(ValueError):
    """Malformed judgment-table input (bad cell, duplicate name, ...)."""


class FlexibilityError(ValueError):
    """Flexibility percentage out of range or not representable."""


class FlexibilityFormatError(FlexibilityError):
    """Flexibility text that is not a decimal percentage at all."""


_DIGIT_RUNS = re.compile(r"(\d+)")


def natural_key(name: str) -> tuple:
    """Sort key that orders digit runs numerically: t2 before t10.

    A digit run is keyed by its value as ``(0, len(v), v)``, ``v`` its
    digits in ASCII less the leading zeros: of two such strings the
    longer is the larger number, and equal lengths compare digit by
    digit.  So a run of any length has a key; ``int`` refuses runs of
    over 4300 digits.  Runs are tested with ``isdecimal``, which is
    exactly what ``\\d`` matches (``isdigit`` would also accept
    superscripts such as "²"), and a non-ASCII run is read one digit at a
    time by ``int``, which takes a decimal digit of any script.  A text
    run is keyed ``(1, run)``, after every digit run.  The raw name is
    appended as a tiebreak so that names with equal numeric value ("t01"
    vs "t1") still sort deterministically.
    """
    runs = []
    for run in _DIGIT_RUNS.split(name):
        if run.isdecimal():
            if not run.isascii():
                run = "".join([str(int(digit)) for digit in run])
            run = run.lstrip("0")
            runs.append((0, len(run), run))
        elif run:
            runs.append((1, run))
    return (tuple(runs), name)


def natural_sorted(names: Iterable[str]) -> list[str]:
    return sorted(names, key=natural_key)


def natural_ranks(names: Sequence[str]) -> tuple[int, ...]:
    """rank[i] is the position of names[i] in natural order.

    For unique names ``natural_key`` is a strict total order (it ends in
    the raw name), so comparing ranks is comparing natural keys.
    """
    rank = [0] * len(names)
    order = sorted(range(len(names)), key=lambda i: natural_key(names[i]))
    for position, i in enumerate(order):
        rank[i] = position
    return tuple(rank)


def check_natural_order(kind: str, names: Sequence[str]) -> None:
    """Raise unless ``names`` are distinct and in natural order, so that
    index order is natural order; ``kind`` names them in the error."""
    for first, second in pairwise(map(natural_key, names)):
        if first >= second:  # a natural key ends in the name itself
            raise ValueError(f"{kind} must be distinct and natural-sorted: "
                             f"{first[-1]!r} before {second[-1]!r}")


# Maps the bytes 0/1 to the ASCII digits "0"/"1", and back.
_CELL_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _read_columns(digits: str | bytes, width: int) -> tuple[int, ...]:
    """The ``width`` columns of a row-major matrix of ASCII 0/1 digits,
    each as the int whose bit i is row i's digit.  A column is one strided
    slice read backwards from the last row (the most significant digit),
    so no Python-level loop touches a cell."""
    last = len(digits) - width
    return tuple(int(digits[last + j :: -width] or "0", 2) for j in range(width))


def transpose(masks: Iterable[int], width: int) -> tuple[int, ...]:
    """The ``width`` column masks of the 0/1 matrix whose row i is the mask
    ``masks[i]`` (each below ``1 << width``): bit i of column j is bit j of
    ``masks[i]``.  Rows are written as binary digits, most significant
    first, so column j is the strided read at offset ``width - 1 - j``."""
    digits = "".join([format(mask, "b").zfill(width) for mask in masks])
    return _read_columns(digits, width)[::-1]


def or_selected(rows: Sequence[int], selectors: Sequence[int]) -> list[int]:
    """Entry i is the OR of ``rows[j]`` over the set bits j of
    ``selectors[i]`` (0 where none is set); every selector is a mask over
    the rows, below ``1 << len(rows)``.

    Method of Four Russians (Arlazarov, Dinic, Kronrod & Faradzev 1970):
    for each block of 8 rows, a table holds the ORs of all 256 subsets of
    the block, each one OR of an earlier entry, and every selector's byte
    for that block picks its entry.  The selectors are packed into bytes
    once; a block's bytes are one strided slice, so each block costs 256
    + len(selectors) ORs, none of them in a Python-level loop per bit.
    Only one block's table is alive at a time.
    """
    width = (len(rows) + 7) // 8
    data = b"".join([selector.to_bytes(width, "little") for selector in selectors])
    out = [0] * len(selectors)
    for k in range(width):
        table = [0]
        for row in rows[8 * k : 8 * k + 8]:
            table += [entry | row for entry in table]
        out = list(map(or_, out, map(table.__getitem__, data[k::width])))
    return out


def check_masks(kind: str, masks: Iterable[object], width: int) -> None:
    """Raise unless every mask is an int in [0, 1 << width), a subset of a
    list of ``width`` elements; ``kind`` names a mask in the error."""
    for mask in masks:
        if not isinstance(mask, int):
            raise TypeError(f"{kind} {mask!r} is not an int: {kind}s are int masks")
        if mask < 0 or mask >> width:
            raise ValueError(f"{kind} {mask} is not a mask over {width} elements")


def bit_flags(mask: int) -> bytes:
    """Byte i is bit i of a non-negative int, as the byte 0 or 1, up to
    its highest set bit (one byte 0 for the mask 0).

    ``compress(items, bit_flags(mask))`` yields the items at the set bits,
    ascending, with no index list.  The binary digits are read once, so
    the cost is linear in the mask's length (peeling bits off the int
    would copy it once per bit).
    """
    return bin(mask)[:1:-1].encode("ascii").translate(_DIGIT_VALUES)


_Item = TypeVar("_Item")


def picked(items: Sequence[_Item], mask: int) -> Iterator[_Item]:
    """The items at the set bits of ``mask``, ascending: ``compress`` on
    the flags of the mask's span only, the items from its lowest set bit,
    ``low``, to its highest against ``bit_flags(mask >> low)``.  So
    one-bit masks up a chain of c items read c flag bytes in all, not
    c²/2."""
    low = max((mask & -mask).bit_length() - 1, 0)  # mask 0 reads no items
    return compress(items[low : mask.bit_length()], bit_flags(mask >> low))


# Names feed unescaped into CSV and DOT output, so the alphabet is
# restricted up front instead of escaping later.  A line break would end
# a CSV line inside a name; a backslash would escape the closing quote of
# a DOT string, or start a label escape such as \N.
_FORBIDDEN_CHARS = ('"', ",", "\n", "\r", "\\")
_STR = frozenset((str,))


def _check_names(kind: str, axis: str, names: Sequence[str]) -> None:
    """Reject an empty name, a forbidden character or a duplicate among
    ``names``, raising ``TableError`` that names the first fault in order;
    ``kind`` names a name and ``axis`` its positions in the message.
    Unique, non-empty ``str`` names whose concatenation holds no forbidden
    character pass by tests that run in C; only names that fail them are
    scanned one by one, to name the first fault."""
    if (
        _STR.issuperset(map(type, names))
        and "" not in names
        and len(set(names)) == len(names)
        and not any(map("".join(names).__contains__, _FORBIDDEN_CHARS))
    ):
        return
    seen: dict[str, int] = {}
    for k, name in enumerate(names):
        if not isinstance(name, str) or not name:
            raise TableError(f"{kind} name at position {k} is empty")
        for ch in _FORBIDDEN_CHARS:
            if ch in name:
                raise TableError(
                    f"{kind} name {name!r} at position {k} contains forbidden character {ch!r}"
                )
        if name in seen:
            raise TableError(f"duplicate {kind} name {name!r} ({axis} {seen[name]} and {k})")
        seen[name] = k


class Frozen:
    """Base of the package's immutable records.

    ``_fields`` names, in order, the attributes that make up a record's
    value: equality (only between instances of the same class), the hash
    and ``repr`` read them and nothing else, so attributes derived at
    construction are neither compared nor shown.  Each record's
    ``__init__`` checks its arguments, then sets every attribute once
    through ``self.__dict__``; assigning or deleting an attribute later
    raises ``AttributeError``.  ``JudgmentTable``, ``OrderMatrix``,
    ``KnowledgeStructure`` and ``NamePartition`` store their sequence
    arguments as tuples (a family of states as a frozenset), so one built
    from lists equals, and hashes like, the same record built by the
    pipeline.  No record holds a mutable container: a derived name lookup
    is a read-only ``MappingProxyType``.  The records are written by
    hand, not generated at import: generating their methods, and
    importing the generator with the ``inspect`` and ``ast`` modules it
    needs, took longer than a CLI run's work on a small table (README,
    "Start-up").
    """

    _fields: ClassVar[tuple[str, ...]] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({values})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


_Partition = TypeVar("_Partition", bound="NamePartition")


def _distinct_blocks(blocks: Sequence[Sequence[str]]) -> tuple[tuple[str, ...], ...]:
    """``blocks`` as tuples; raise ``ValueError`` naming the first block
    that is empty or holds a name held before (in it or in another)."""
    blocks = tuple(map(tuple, blocks))
    names = {name for block in blocks for name in block}
    if len(names) != sum(map(len, blocks)) or not all(blocks):
        # Only a failing partition is scanned, to name its first fault.
        seen: dict[str, int] = {}
        for k, block in enumerate(blocks):
            if not block:
                raise ValueError(f"partition block {k} is empty")
            for name in block:
                if name in seen:
                    raise ValueError(f"partition blocks {seen[name]} and {k} both hold {name!r}")
                seen[name] = k
    return blocks


class NamePartition(Frozen):
    """Unique names split into blocks, each natural-sorted and labeled by
    its member at position ``LABEL``; blocks are ordered by label.

    Every partition is checked at construction, and a fault raises
    ``ValueError`` naming its block: first a block that is empty or a
    name held twice (in one block or in two), then a block whose members
    are out of natural order, then labels out of natural order.  Last,
    the members are checked as a table checks its names, read block by
    block (``TableError`` at a member's position in that reading).  The two
    partitions of the pipeline differ only in ``LABEL``: classes of
    identical columns (``order.EquivalenceClasses``) are labeled by their
    last member, concepts (``kst.ConceptPartition``) by their first.  The
    base class has no ``LABEL``, so the order of its blocks is not
    checked.
    """

    LABEL: ClassVar[int]
    _fields = ("blocks",)

    def __init__(self, blocks: Sequence[Sequence[str]]) -> None:
        blocks = _distinct_blocks(blocks)
        for k, block in enumerate(blocks):
            check_natural_order(f"partition block {k}", block)
        if hasattr(self, "LABEL"):
            check_natural_order("partition labels", [block[self.LABEL] for block in blocks])
        _check_names("member", "positions", tuple(chain.from_iterable(blocks)))
        self.__dict__.update(blocks=blocks)

    @classmethod
    def _of_ordered(cls: type[_Partition], blocks: Sequence[Sequence[str]]) -> _Partition:
        """The partition of ``blocks`` whose members and labels are known to
        be in natural order: only the empty and repeated names are checked,
        so no name is ranked again."""
        partition = cls.__new__(cls)
        partition.__dict__.update(blocks=_distinct_blocks(blocks))
        return partition

    @classmethod
    def from_keys(
        cls: type[_Partition], names: Sequence[str], keys: Iterable[Hashable]
    ) -> _Partition:
        """The partition of ``names`` into blocks of equal ``keys``.

        Names are ranked once (``natural_ranks``), so ordering the members
        and the blocks costs no name comparison, and the ordered blocks are
        not ranked again.
        """
        groups: dict[Hashable, list[int]] = {}
        for j, key in enumerate(keys):
            groups.setdefault(key, []).append(j)
        rank = natural_ranks(names)
        blocks = [sorted(group, key=rank.__getitem__) for group in groups.values()]
        blocks.sort(key=lambda block: rank[block[cls.LABEL]])
        return cls._of_ordered(tuple(tuple(names[j] for j in block) for block in blocks))

    @property
    def representatives(self) -> tuple[str, ...]:
        return tuple(block[self.LABEL] for block in self.blocks)


def _percent_text(whole: str, cents: str) -> str:
    """A percentage as canonical decimal text, from the digits of its whole
    part and of its fraction: ("025", "50") -> "25.5"."""
    whole, cents = whole.lstrip("0") or "0", cents.rstrip("0")
    return f"{whole}.{cents}" if cents else whole


def _out_of_range(sign: str, value: str) -> FlexibilityError:
    return FlexibilityError(f"flexibility must lie in [0%, 50%), got {sign}{value}%")


class Flexibility(Frozen):
    """Tolerated share of counterexample models, stored in basis points.

    25.5% is stored as 2550.  Keeping the value integral lets every
    threshold decision be an exact cross-multiplication, so no order
    edge can flip due to floating-point rounding.  Values at or above
    50% are rejected: the order's anti-symmetry depends on it.  A
    non-integer raises "basis points must be an integer"; the message of
    a value out of range writes it exactly, sign first, from its digits
    (no float, which overflows past 10**308), or, for a whole part of more
    digits than ``str`` writes (``sys.get_int_max_str_digits``), as that
    limit: "(over 4300 digits)".
    """

    _fields = ("basis_points",)

    def __init__(self, basis_points: int) -> None:
        if not isinstance(basis_points, int):
            raise FlexibilityError(
                f"basis points must be an integer, got {basis_points!r}"
            )
        if not 0 <= basis_points < 5000:
            sign = "-" if basis_points < 0 else ""
            whole, cents = divmod(abs(basis_points), 100)
            try:
                digits = str(whole)
            except ValueError:  # more digits than int-to-str conversion allows
                raise _out_of_range(sign, f"(over {sys.get_int_max_str_digits()} digits)") from None
            raise _out_of_range(sign, _percent_text(digits, f"{cents:02d}"))
        self.__dict__.update(basis_points=basis_points)

    @classmethod
    def parse(cls, text: str) -> "Flexibility":
        """Parse a percentage with at most two decimal digits ("19.99"), in
        ASCII: ``isdigit`` alone would also take Unicode digits such as
        "１０" and "²".  Only ASCII spaces and tabs around it are ignored;
        ``strip()`` would also drop Unicode spaces and separator controls
        such as "\\u3000".  A whole part of more than two significant digits
        is 100% or more, so it is rejected from its text, before ``int``
        reads it (``int`` refuses over 4300 digits)."""
        body = text.strip(" \t")
        sign = "-" if body[:1] == "-" else ""
        whole, dot, frac = body[len(sign) :].partition(".")
        digits = whole + frac
        if not (whole and (frac or not dot) and digits.isascii() and digits.isdigit()):
            raise FlexibilityFormatError(f"flexibility {text!r} is not a decimal percentage")
        if len(frac) > 2:
            raise FlexibilityError(
                f"flexibility {text!r} has more than two decimal digits"
            )
        whole = whole.lstrip("0") or "0"
        if len(whole) > 2:
            raise _out_of_range(sign, _percent_text(whole, frac))
        value = int(whole) * 100 + int(frac.ljust(2, "0") or "0")
        if sign:
            value = -value
        return cls(value)

    @property
    def percent_text(self) -> str:
        """Canonical decimal rendering: 2550 -> "25.5", 1999 -> "19.99"."""
        whole, cents = divmod(self.basis_points, 100)
        return _percent_text(str(whole), f"{cents:02d}")


ZERO_FLEXIBILITY = Flexibility(0)


class JudgmentTable(Frozen):
    """Immutable models x targets matrix of 0/1 judgment outcomes, stored
    by column.

    ``support_masks[j]`` is an int whose bit i is 1 iff model i judged
    target j correctly; ``support_sizes[j]`` is its popcount, derived at
    construction.  The row-wise view is built on request: bit j of
    ``row_masks[i]`` is that same judgment.  Every table, also a
    hand-built one, is checked once, at construction: the names as
    ``build_table`` checks them, then one mask per target, each a mask
    over the models.  Safe for concurrent reads; all accessors are pure.
    """

    _fields = ("model_names", "target_names", "support_masks")

    def __init__(
        self, model_names: Sequence[str], target_names: Sequence[str], support_masks: Sequence[int]
    ) -> None:
        _check_names("target", "columns", target_names)
        _check_names("model", "rows", model_names)
        if len(support_masks) != len(target_names):
            raise TableError(
                f"{len(support_masks)} support masks for {len(target_names)} targets"
            )
        check_masks("support mask", support_masks, len(model_names))
        self.__dict__.update(
            model_names=tuple(model_names), target_names=tuple(target_names),
            support_masks=tuple(support_masks),
            support_sizes=tuple(mask.bit_count() for mask in support_masks),
            _target_index=MappingProxyType({name: j for j, name in enumerate(target_names)}),
        )

    @property
    def model_count(self) -> int:
        return len(self.model_names)

    @property
    def target_count(self) -> int:
        return len(self.target_names)

    @property
    def row_masks(self) -> tuple[int, ...]:
        """One int per model: bit j of ``row_masks[i]`` is bit i of
        ``support_masks[j]``."""
        return transpose(self.support_masks, self.model_count)

    def pair_counts(self, p: int, q: int) -> tuple[int, int, int, int]:
        """Count models by their response pattern on the targets at indices
        p and q (p == q is allowed): ``(n1, n2, n3, n4)``, with n1 = both
        correct, n2 = p only, n3 = q only, n4 = neither."""
        for j in (p, q):
            if not 0 <= j < self.target_count:
                raise IndexError(f"target index {j} out of range [0, {self.target_count})")
        n1 = (self.support_masks[p] & self.support_masks[q]).bit_count()
        n2 = self.support_sizes[p] - n1
        n3 = self.support_sizes[q] - n1
        return n1, n2, n3, self.model_count - n1 - n2 - n3

    def count_rows(
        self, names: Sequence[str]
    ) -> Iterator[tuple[str, list[tuple[str, int, int, int, int]]]]:
        """The ``pair_counts`` of the ordered pairs of distinct targets of
        ``names``, as rows: for each p in order, ``(p, [(q, n1, n2, n3, n4),
        ...])`` over the other q in order.  A generator: each row is built
        when it is reached, so the pairs are never all held at once."""
        columns = [(name, self.support_masks[j], self.support_sizes[j])
                   for name, j in zip(names, map(self.target_index, names))]
        for p, mask_p, size_p in columns:
            rest = self.model_count - size_p
            yield p, [
                (q, n1 := (mask_p & mask).bit_count(), size_p - n1, size - n1, rest - size + n1)
                for q, mask, size in columns if q != p
            ]

    def target_index(self, name: str) -> int:
        if name not in self._target_index:
            raise ValueError(f"unknown target name {name!r}")
        return self._target_index[name]


_BIT_TYPES = frozenset((int, bool))
_BITS = frozenset((0, 1))


def build_table(
    target_names: Sequence[str],
    model_names: Sequence[str],
    bits: Sequence[Sequence[int]],
) -> JudgmentTable:
    """Validate raw input and freeze it into a JudgmentTable.

    Raises TableError with the offending row/column named when a name is
    duplicated or empty, a dimension is empty, the matrix is ragged, or a
    cell is not 0/1.  Name faults are reported before the others.

    A matrix of one row per model and one cell per target, whose cells
    are all exactly ``int`` or ``bool`` with values in {0, 1}, is accepted
    by set tests on all its cells at once; the type test is what rejects
    ``1.0``, which equals 1.  Any other matrix is scanned row by row, after
    the names are checked, which accepts other ``int`` subclasses or names
    the fault.  ``bytes`` then reads every cell as the byte 0 or 1, and the
    columns are read from those bytes as digits, as ``parse_csv`` reads
    them; the constructor checks the names.
    """
    if len(target_names) == 0:
        raise TableError("table has no targets (empty column dimension)")
    if len(model_names) == 0:
        raise TableError("table has no models (empty row dimension)")
    u = len(target_names)
    rows = [tuple(row) for row in bits]
    cells = list(chain.from_iterable(rows))
    if not (
        len(rows) == len(model_names)
        and set(map(len, rows)) == {u}
        and _BIT_TYPES.issuperset(map(type, cells))
        and _BITS.issuperset(cells)
    ):
        _check_names("target", "columns", target_names)
        _check_names("model", "rows", model_names)
        if len(rows) != len(model_names):
            raise TableError(f"expected {len(model_names)} rows of cells, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != u:
                raise TableError(
                    f"row {i} (model {model_names[i]!r}) has {len(row)} cells, "
                    f"expected {u}"
                )
            for j, cell in enumerate(row):
                if not isinstance(cell, int) or cell not in (0, 1):
                    raise TableError(
                        f"cell at row {i} (model {model_names[i]!r}), column {j} "
                        f"(target {target_names[j]!r}) is {cell!r}, not 0 or 1"
                    )
    digits = bytes(cells).translate(_CELL_DIGITS)
    return JudgmentTable(tuple(model_names), tuple(target_names), _read_columns(digits, u))
