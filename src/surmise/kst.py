"""Knowledge structures over explicit state families.

A knowledge state is the subset of targets some model handles correctly;
a structure is a family of such states over a fixed ground list.  This
module gives the classical machinery: the surmise relation,
equally-informative targets, and the discriminative reduction, which is
a function of the structure alone: it groups the targets into concepts
as ``equally_informative`` does.

A state is an int mask whose bit j says whether it contains ``ground[j]``.
The derivations work on the transposed state matrix (``table.transpose``):
one column mask per target, whose bit k says whether the k-th state, in
one fixed iteration of the family, contains it.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .table import Frozen, JudgmentTable, NamePartition, _check_names, check_masks, transpose

__all__ = [
    "KnowledgeStructure",
    "ConceptPartition",
    "structure_from_table",
    "surmise_from_structure",
    "equally_informative",
    "discriminative_reduction",
]


class KnowledgeStructure(Frozen):
    """A family of distinct knowledge states over an ordered ground list.

    Each state is an int mask: bit j is set iff the state contains
    ``ground[j]``.  Ground names obey the rules of target names (a
    non-empty str without a quote, comma, line break or backslash), so
    every rendering of a state is unambiguous; they are checked as the
    table checks its names, and a fault raises ``TableError``.  A
    structure is its ground and its states; whether it is ``completed`` is
    read from the states.
    """

    _fields = ("ground", "states")

    def __init__(self, ground: Sequence[str], states: Iterable[int]) -> None:
        ground, states = tuple(ground), frozenset(states)
        _check_names("ground", "positions", ground)
        check_masks("state", states, len(ground))
        self.__dict__.update(ground=ground, states=states)

    @property
    def completed(self) -> bool:
        """Whether the family holds the empty state and the full one, which
        makes it a knowledge structure proper (Doignon & Falmagne 1985)."""
        return 0 in self.states and (1 << len(self.ground)) - 1 in self.states


def structure_from_table(table: JudgmentTable, complete: bool = True) -> KnowledgeStructure:
    """The distinct rows of the table, read as target subsets.

    With ``complete`` the empty and full states are added when absent, so
    the result is ``completed``; duplicate model rows collapse to one
    state either way.
    """
    states = set(table.row_masks)
    if complete:
        states |= {0, (1 << table.target_count) - 1}
    return KnowledgeStructure(ground=table.target_names, states=states)


def surmise_from_structure(
    structure: KnowledgeStructure,
) -> frozenset[tuple[str, str]]:
    """The surmise relation as name pairs: (p, q) iff p belongs to every
    state containing q, i.e. p is a prerequisite of q.

    That is the zero-flexibility containment test on the state matrix's
    columns: the column of q has no bit outside the column of p.  A target
    in no state has an empty column, so everything is surmised from it.
    The result is reflexive and transitive.
    """
    ground = structure.ground
    columns = transpose(structure.states, len(ground))
    return frozenset(
        (ground[p], q_name)
        for q_name, column_q in zip(ground, columns)
        for p, column_p in enumerate(columns)
        if not column_q & ~column_p
    )


class ConceptPartition(NamePartition):
    """Targets grouped by equal informativeness (identical state families).

    Each block is natural-sorted and a concept is written by its first
    member, so the block {b, c} is the concept of b.  Blocks are ordered
    by that first member.
    """

    LABEL = 0


def equally_informative(structure: KnowledgeStructure) -> ConceptPartition:
    """Partition the ground into blocks whose members lie in exactly the
    same states: the targets with equal columns of the state matrix.
    """
    columns = transpose(structure.states, len(structure.ground))
    return ConceptPartition.from_keys(structure.ground, columns)


def discriminative_reduction(structure: KnowledgeStructure) -> KnowledgeStructure:
    """Quotient the structure by equal informativeness.

    The columns of the state matrix are grouped as ``equally_informative``
    groups them, and the new ground lists one label per concept (its first
    member), in original ground order; each state maps to the set of
    concepts it meets.  A state meets a concept iff it contains the
    concept's label, so the reduced states are the transpose of the
    labels' columns.  The result is always discriminative, and
    ``completed`` exactly when the structure is: a state meets no concept
    iff it is empty, and every concept iff it is full.

    >>> s = KnowledgeStructure(("a", "b", "c"), frozenset({0b000, 0b011, 0b111}))
    >>> reduced = discriminative_reduction(s)
    >>> reduced.ground, sorted(reduced.states)
    (('a', 'c'), [0, 1, 3])
    """
    ground = structure.ground
    columns = transpose(structure.states, len(ground))
    labels = set(ConceptPartition.from_keys(ground, columns).representatives)
    kept = [j for j, name in enumerate(ground) if name in labels]
    return KnowledgeStructure(
        ground=[ground[j] for j in kept],
        states=transpose([columns[j] for j in kept], len(structure.states)),
    )
