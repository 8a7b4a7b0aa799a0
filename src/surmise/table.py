"""Judgment tables: which model judged which target correctly.

The table is the root object of the whole pipeline.  Everything downstream
(knowledge structures, the flexible order, Hasse diagrams) is a pure
function of it, so it is immutable after construction and every derived
quantity is exact integer arithmetic on its support masks.
"""
from __future__ import annotations

import re
from itertools import chain, compress
from typing import ClassVar, Hashable, Iterable, Sequence, TypeVar

__all__ = [
    "TableError",
    "FlexibilityError",
    "FlexibilityFormatError",
    "PairCounts",
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

    The raw name is appended as a tiebreak so that names with equal
    numeric value ("t01" vs "t1") still sort deterministically.  Runs are
    tested with ``isdecimal``, which is exactly what ``\\d`` matches;
    ``isdigit`` would also accept superscripts such as "²", which
    ``int`` rejects.
    """
    runs = tuple(
        (0, int(run)) if run.isdecimal() else (1, run)
        for run in _DIGIT_RUNS.split(name)
        if run
    )
    return (runs, name)


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


def check_masks(kind: str, masks: Iterable[object], width: int) -> None:
    """Raise unless every mask is an int in [0, 1 << width), a subset of a
    list of ``width`` elements; ``kind`` names a mask in the error."""
    for mask in masks:
        if not isinstance(mask, int):
            raise TypeError(f"{kind} {mask!r} is not an int: {kind}s are int masks")
        if mask < 0 or mask >> width:
            raise ValueError(f"{kind} {mask} is not a mask over {width} elements")


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending.

    Reads the binary digits once, as the 0/1 bytes ``compress`` selects
    by, so the cost is linear in the mask's length (peeling bits off the
    int would copy it once per bit).
    """
    digits = bin(mask)[:1:-1].encode("ascii").translate(_DIGIT_VALUES)
    return list(compress(range(len(digits)), digits))


# Names feed unescaped into CSV and DOT output, so the alphabet is
# restricted up front instead of escaping later.  A line break would end
# a CSV line inside a name; a backslash would escape the closing quote of
# a DOT string, or start a label escape such as \N.
_FORBIDDEN_CHARS = ('"', ",", "\n", "\r", "\\")


def _check_name(kind: str, position: int, name: str) -> None:
    if not isinstance(name, str) or not name:
        raise TableError(f"{kind} name at position {position} is empty")
    for ch in _FORBIDDEN_CHARS:
        if ch in name:
            raise TableError(
                f"{kind} name {name!r} at position {position} contains "
                f"forbidden character {ch!r}"
            )


_STR = frozenset((str,))


def _check_names(target_names: Sequence[str], model_names: Sequence[str]) -> None:
    """Reject empty names, forbidden characters and duplicates, targets
    first, each axis in order.  An axis of unique, non-empty ``str`` names
    whose concatenation holds no forbidden character passes by tests that
    run in C; only an axis that fails them is scanned name by name, to
    name its first fault."""
    for kind, axis, names in (
        ("target", "columns", target_names),
        ("model", "rows", model_names),
    ):
        if (
            _STR.issuperset(map(type, names))
            and "" not in names
            and len(set(names)) == len(names)
            and not any(map("".join(names).__contains__, _FORBIDDEN_CHARS))
        ):
            continue
        seen: dict[str, int] = {}
        for k, name in enumerate(names):
            _check_name(kind, k, name)
            if name in seen:
                raise TableError(
                    f"duplicate {kind} name {name!r} ({axis} {seen[name]} and {k})"
                )
            seen[name] = k


class Frozen:
    """Base of the package's immutable records.

    ``_fields`` names, in order, the attributes that make up a record's
    value: equality (only between instances of the same class), the hash
    and ``repr`` read them and nothing else, so attributes derived at
    construction are neither compared nor shown.  Each record's
    ``__init__`` checks its arguments, then sets every attribute once
    through ``self.__dict__``; assigning or deleting an attribute later
    raises ``AttributeError``.  The records are written by hand, not
    generated at import: generating their methods, and importing the
    generator with the ``inspect`` and ``ast`` modules it needs, took
    longer than a CLI run's work on a small table (README, "Start-up").
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


class NamePartition(Frozen):
    """Unique names split into blocks, each natural-sorted and labeled by
    its member at position ``LABEL``; blocks are ordered by label.

    The two partitions of the pipeline differ only in ``LABEL``: classes
    of identical columns (``order.EquivalenceClasses``) are labeled by
    their last member, concepts (``kst.ConceptPartition``) by their first.
    """

    LABEL: ClassVar[int]
    _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[str, ...], ...]) -> None:
        self.__dict__.update(
            blocks=blocks, _block_of={name: block for block in blocks for name in block}
        )

    @classmethod
    def from_keys(
        cls: type[_Partition], names: Sequence[str], keys: Iterable[Hashable]
    ) -> _Partition:
        """The partition of ``names`` into blocks of equal ``keys``.

        Names are ranked once (``natural_ranks``), so ordering the members
        and the blocks costs no name comparison.
        """
        groups: dict[Hashable, list[int]] = {}
        for j, key in enumerate(keys):
            groups.setdefault(key, []).append(j)
        rank = natural_ranks(names)
        blocks = [sorted(group, key=rank.__getitem__) for group in groups.values()]
        blocks.sort(key=lambda block: rank[block[cls.LABEL]])
        return cls(blocks=tuple(tuple(names[j] for j in block) for block in blocks))

    @property
    def representatives(self) -> tuple[str, ...]:
        return tuple(block[self.LABEL] for block in self.blocks)

    def block_of(self, name: str) -> tuple[str, ...]:
        if name not in self._block_of:
            raise ValueError(f"unknown target {name!r}")
        return self._block_of[name]


class PairCounts(Frozen):
    """Model counts for the four response patterns on an ordered target
    pair (p, q): n1 = both correct, n2 = p only, n3 = q only, n4 = neither.
    """

    _fields = ("n1", "n2", "n3", "n4")

    def __init__(self, n1: int, n2: int, n3: int, n4: int) -> None:
        self.__dict__.update(n1=n1, n2=n2, n3=n3, n4=n4)

    @property
    def total(self) -> int:
        return self.n1 + self.n2 + self.n3 + self.n4


class Flexibility(Frozen):
    """Tolerated share of counterexample models, stored in basis points.

    25.5% is stored as 2550.  Keeping the value integral lets every
    threshold decision be an exact cross-multiplication, so no order
    edge can flip due to floating-point rounding.  Values at or above
    50% are rejected: the order's anti-symmetry depends on it.
    """

    _fields = ("basis_points",)

    def __init__(self, basis_points: int) -> None:
        if not isinstance(basis_points, int):
            raise FlexibilityError(
                f"basis points must be an integer, got {basis_points!r}"
            )
        if not 0 <= basis_points < 5000:
            raise FlexibilityError(
                f"flexibility must lie in [0%, 50%), got "
                f"{basis_points / 100:g}%"
            )
        self.__dict__.update(basis_points=basis_points)

    @classmethod
    def parse(cls, text: str) -> "Flexibility":
        """Parse a percentage with at most two decimal digits ("19.99"), in
        ASCII: ``\\d`` would also take Unicode decimals such as "１０".  Only
        ASCII spaces and tabs around it are ignored; ``strip()`` would also
        drop Unicode spaces and separator controls such as "\\u3000"."""
        m = re.fullmatch(
            r"(?P<sign>-?)(?P<whole>[0-9]+)(?:\.(?P<frac>[0-9]+))?", text.strip(" \t")
        )
        if m is None:
            raise FlexibilityFormatError(f"flexibility {text!r} is not a decimal percentage")
        frac = m["frac"] or ""
        if len(frac) > 2:
            raise FlexibilityError(
                f"flexibility {text!r} has more than two decimal digits"
            )
        value = int(m["whole"]) * 100 + int(frac.ljust(2, "0") or "0")
        if m["sign"]:
            value = -value
        return cls(value)

    @property
    def percent_text(self) -> str:
        """Canonical decimal rendering: 2550 -> "25.5", 1999 -> "19.99"."""
        whole, cents = divmod(self.basis_points, 100)
        if cents == 0:
            return str(whole)
        if cents % 10 == 0:
            return f"{whole}.{cents // 10}"
        return f"{whole}.{cents:02d}"


ZERO_FLEXIBILITY = Flexibility(0)


class JudgmentTable(Frozen):
    """Immutable models x targets matrix of 0/1 judgment outcomes, stored
    by column.

    ``support_masks[j]`` is an int whose bit i is 1 iff model i judged
    target j correctly; ``support_sizes[j]`` is its popcount, derived at
    construction.  The row-wise views are built on request: bit j of
    ``row_masks[i]`` and ``cells[i][j]`` are that same judgment.  Every
    table, also a hand-built one, is checked once, at construction: the
    names as ``build_table`` checks them, then one mask per target, each
    a mask over the models.  The three given sequences are stored as
    tuples, so a table built from lists equals, and hashes like, the same
    table from ``parse_csv``.  Safe for concurrent reads; all accessors
    are pure.
    """

    _fields = ("model_names", "target_names", "support_masks")

    def __init__(
        self, model_names: Sequence[str], target_names: Sequence[str], support_masks: Sequence[int]
    ) -> None:
        _check_names(target_names, model_names)
        if len(support_masks) != len(target_names):
            raise TableError(
                f"{len(support_masks)} support masks for {len(target_names)} targets"
            )
        check_masks("support mask", support_masks, len(model_names))
        self.__dict__.update(
            model_names=tuple(model_names), target_names=tuple(target_names),
            support_masks=tuple(support_masks),
            support_sizes=tuple(mask.bit_count() for mask in support_masks),
            _target_index={name: j for j, name in enumerate(target_names)},
            _model_index={name: i for i, name in enumerate(model_names)},
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

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """The row masks as 0/1 tuples: ``cells[i][j]`` is bit j of
        ``row_masks[i]``."""
        u = self.target_count
        return tuple(tuple(row >> j & 1 for j in range(u)) for row in self.row_masks)

    def _check_model_index(self, i: int) -> None:
        if not 0 <= i < self.model_count:
            raise IndexError(f"model index {i} out of range [0, {self.model_count})")

    def _check_target_index(self, j: int) -> None:
        if not 0 <= j < self.target_count:
            raise IndexError(f"target index {j} out of range [0, {self.target_count})")

    def tab(self, i: int, j: int) -> int:
        """The stored judgment of model i on target j (0 or 1)."""
        self._check_model_index(i)
        self._check_target_index(j)
        return self.support_masks[j] >> i & 1

    def support(self, j: int) -> frozenset[int]:
        """Indices of the models that judged target j correctly."""
        self._check_target_index(j)
        return frozenset(bit_indices(self.support_masks[j]))

    def pair_counts(self, p: int, q: int) -> PairCounts:
        """Count models by their (p, q) response pattern; p == q is allowed."""
        self._check_target_index(p)
        self._check_target_index(q)
        n1 = (self.support_masks[p] & self.support_masks[q]).bit_count()
        n2 = self.support_sizes[p] - n1
        n3 = self.support_sizes[q] - n1
        return PairCounts(n1, n2, n3, self.model_count - n1 - n2 - n3)

    def target_index(self, name: str) -> int:
        if name not in self._target_index:
            raise ValueError(f"unknown target name {name!r}")
        return self._target_index[name]

    def model_index(self, name: str) -> int:
        if name not in self._model_index:
            raise ValueError(f"unknown model name {name!r}")
        return self._model_index[name]


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
        _check_names(target_names, model_names)
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
