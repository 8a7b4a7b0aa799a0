"""Knowledge structures over explicit state families.

A knowledge state is the subset of targets some model handles correctly;
a structure is a family of such states over a fixed ground list.  This
module gives the classical machinery: the subfamily of states containing
a target, the surmise relation, equally-informative targets, and the
discriminative reduction.

A state is an int mask whose bit j says whether it contains ``ground[j]``.
The derivations work on the transposed state matrix (``table.transpose``):
one column mask per target, whose bit k says whether the k-th state, in
one fixed iteration of the family, contains it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .table import (
    JudgmentTable,
    NamePartition,
    bit_indices,
    check_masks,
    natural_ranks,
    transpose,
)

__all__ = [
    "KnowledgeStructure",
    "ConceptPartition",
    "structure_from_table",
    "states_containing",
    "surmise_from_structure",
    "equally_informative",
    "discriminative_reduction",
    "is_discriminative",
]


@dataclass(frozen=True)
class KnowledgeStructure:
    """A family of distinct knowledge states over an ordered ground list.

    Each state is an int mask: bit j is set iff the state contains
    ``ground[j]``.  ``completed`` records that the empty state and the
    full state were guaranteed at construction (the conventional closure
    that makes the family a genuine knowledge structure).  ``rank[j]`` is
    the position of ``ground[j]`` in natural order, derived once at
    construction together with the name -> index dict, so ordering a
    state costs no name comparison.
    """

    ground: tuple[str, ...]
    states: frozenset[int]
    completed: bool = False
    rank: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for j, name in enumerate(self.ground):
            if name in index:
                raise ValueError(f"duplicate ground name {name!r}")
            index[name] = j
        check_masks("state", self.states, len(self.ground))
        if self.completed:
            if 0 not in self.states or self.full_state not in self.states:
                raise ValueError("completed structure must contain {} and the full set")
        object.__setattr__(self, "rank", natural_ranks(self.ground))
        object.__setattr__(self, "_index", index)

    @property
    def full_state(self) -> int:
        return (1 << len(self.ground)) - 1

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise ValueError(f"unknown target {name!r}")
        return self._index[name]

    def names_of(self, state: int) -> tuple[str, ...]:
        """The member names of a state in natural order."""
        members = sorted(bit_indices(state), key=self.rank.__getitem__)
        return tuple(self.ground[j] for j in members)


def structure_from_table(table: JudgmentTable, complete: bool = True) -> KnowledgeStructure:
    """The distinct rows of the table, read as target subsets.

    With ``complete`` the empty and full states are added when absent;
    duplicate model rows collapse to one state either way.
    """
    states = set(table.row_masks)
    if complete:
        states |= {0, (1 << table.target_count) - 1}
    return KnowledgeStructure(
        ground=table.target_names,
        states=frozenset(states),
        completed=complete,
    )


def states_containing(structure: KnowledgeStructure, target: str) -> frozenset[int]:
    """The subfamily of states that include the given target.

    >>> s = KnowledgeStructure(("a", "b"), frozenset({0b00, 0b11}))
    >>> states_containing(s, "a") == frozenset({0b11})
    True
    """
    bit = 1 << structure.index_of(target)
    return frozenset(state for state in structure.states if state & bit)


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


@dataclass(frozen=True)
class ConceptPartition(NamePartition):
    """Targets grouped by equal informativeness (identical state families).

    Each block is natural-sorted and a concept is written by its first
    member, so the block {b, c} is the concept of b.  Blocks are ordered
    by that first member.
    """

    LABEL = 0

    def representative_of(self, name: str) -> str:
        return self.block_of(name)[0]


def equally_informative(structure: KnowledgeStructure) -> ConceptPartition:
    """Partition the ground into blocks whose members lie in exactly the
    same states: the targets with equal columns of the state matrix.
    """
    columns = transpose(structure.states, len(structure.ground))
    return ConceptPartition.from_keys(structure.ground, columns)


def is_discriminative(structure: KnowledgeStructure) -> bool:
    """True iff no two distinct targets are equally informative."""
    return _all_singletons(equally_informative(structure))


def discriminative_reduction(structure: KnowledgeStructure) -> KnowledgeStructure:
    """Quotient the structure by equal informativeness.

    The new ground lists one representative per concept (in original
    ground order); each state maps to the set of concepts it meets.  The
    result is always discriminative.
    """
    return _reduction(structure, equally_informative(structure))


def _all_singletons(partition: ConceptPartition) -> bool:
    return all(len(block) == 1 for block in partition.blocks)


def _reduction(
    structure: KnowledgeStructure, partition: ConceptPartition
) -> KnowledgeStructure:
    """``discriminative_reduction`` given the structure's own partition: a
    state meets a concept iff it contains the concept's representative, so
    the reduced states are the transpose of the representatives' columns."""
    new_ground = tuple(sorted(partition.representatives, key=structure.index_of))
    columns = transpose(structure.states, len(structure.ground))
    kept = [columns[structure.index_of(name)] for name in new_ground]
    return KnowledgeStructure(
        ground=new_ground,
        states=frozenset(transpose(kept, len(structure.states))),
        completed=structure.completed,
    )
