"""Knowledge structures over explicit state families.

A knowledge state is the subset of targets some model handles correctly;
a structure is a family of such states over a fixed ground list.  This
module gives the classical set-based machinery: the subfamily of states
containing a target, the surmise relation, equally-informative targets,
and the discriminative reduction.

States are stored as frozensets of ground indices, never of names, so a
structure survives renaming of its ground only through reconstruction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .table import JudgmentTable, NamePartition, natural_ranks

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

    ``completed`` records that the empty state and the full state were
    guaranteed at construction (the conventional closure that makes the
    family a genuine knowledge structure).  ``rank[j]`` is the position
    of ``ground[j]`` in natural order, derived once at construction
    together with the name -> index dict, so ordering a state costs no
    name comparison.
    """

    ground: tuple[str, ...]
    states: frozenset[frozenset[int]]
    completed: bool = False
    rank: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for j, name in enumerate(self.ground):
            if name in index:
                raise ValueError(f"duplicate ground name {name!r}")
            index[name] = j
        n = len(self.ground)
        for state in self.states:
            for j in state:
                if not 0 <= j < n:
                    raise ValueError(f"state member {j} outside ground of size {n}")
        if self.completed:
            if frozenset() not in self.states or self.full_state not in self.states:
                raise ValueError("completed structure must contain {} and the full set")
        object.__setattr__(self, "rank", natural_ranks(self.ground))
        object.__setattr__(self, "_index", index)

    @property
    def full_state(self) -> frozenset[int]:
        return frozenset(range(len(self.ground)))

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise ValueError(f"unknown target {name!r}")
        return self._index[name]

    def names_of(self, state: frozenset[int]) -> tuple[str, ...]:
        """The member names of a state in natural order."""
        return tuple(self.ground[j] for j in sorted(state, key=self.rank.__getitem__))

    def sorted_states(self) -> list[frozenset[int]]:
        """States ordered by size, then member names: {} first, full set last.

        Ground names are unique, so ``natural_key`` (which ends in the raw
        name) is a strict total order on them and ``rank`` is strictly
        monotone in it: a state's sorted ranks compare exactly as the
        natural keys of its sorted names would.
        """
        rank = self.rank
        return sorted(self.states, key=lambda s: (len(s), sorted(rank[j] for j in s)))


def structure_from_table(table: JudgmentTable, complete: bool = True) -> KnowledgeStructure:
    """The distinct rows of the table, read as target subsets.

    With ``complete`` the empty and full states are added when absent;
    duplicate model rows collapse to one state either way.
    """
    states = {table.row_members(i) for i in range(table.model_count)}
    if complete:
        states.add(frozenset())
        states.add(frozenset(range(table.target_count)))
    return KnowledgeStructure(
        ground=table.target_names,
        states=frozenset(states),
        completed=complete,
    )


def states_containing(
    structure: KnowledgeStructure, target: str
) -> frozenset[frozenset[int]]:
    """The subfamily of states that include the given target.

    >>> s = KnowledgeStructure(("a", "b"), frozenset({frozenset(), frozenset({0, 1})}))
    >>> states_containing(s, "a") == frozenset({frozenset({0, 1})})
    True
    """
    j = structure.index_of(target)
    return frozenset(state for state in structure.states if j in state)


def surmise_from_structure(
    structure: KnowledgeStructure,
) -> frozenset[tuple[str, str]]:
    """The surmise relation as name pairs: (p, q) iff p belongs to every
    state containing q, i.e. p is a prerequisite of q.

    A target contained in no state intersects an empty family; that
    intersection is taken to be the whole ground, so everything is
    surmised from such a target.  The result is reflexive and transitive.
    """
    ground = structure.ground
    full = structure.full_state
    pairs: set[tuple[str, str]] = set()
    for q_index, q_name in enumerate(ground):
        meet = full
        for state in structure.states:
            if q_index in state:
                meet &= state
        for p_index in meet:
            pairs.add((ground[p_index], q_name))
    return frozenset(pairs)


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
    same states.

    Each target is keyed by the int whose bit k is set iff the k-th state
    (in one fixed iteration of the family) contains it.
    """
    families = [0] * len(structure.ground)
    for k, state in enumerate(structure.states):
        bit = 1 << k
        for j in state:
            families[j] |= bit
    return ConceptPartition.from_keys(structure.ground, families)


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
    """``discriminative_reduction`` given the structure's own partition."""
    new_ground = tuple(sorted(partition.representatives, key=structure.index_of))
    new_index = {name: j for j, name in enumerate(new_ground)}
    to_new = [new_index[partition.representative_of(name)] for name in structure.ground]
    new_states = frozenset(
        frozenset(to_new[j] for j in state) for state in structure.states
    )
    return KnowledgeStructure(
        ground=new_ground, states=new_states, completed=structure.completed
    )
