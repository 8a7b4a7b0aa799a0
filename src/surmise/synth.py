"""Planted prerequisite posets and seeded judgment-table generators.

These exist so hierarchy recovery can be tested end to end: plant a
poset, sample models whose correct sets are downsets of it, and check the
mined order against the planted one.  Everything here is a pure function
of its arguments (seed included).
"""
from __future__ import annotations

import random
from typing import Iterable, Sequence

from .hasse import transitive_closure
from .kst import KnowledgeStructure
from .order import OrderMatrix
from .table import Frozen, JudgmentTable, bit_indices, build_table

__all__ = [
    "MAX_POSET_ELEMENTS",
    "PlantedPoset",
    "SynthSpec",
    "all_downsets",
    "sample_models",
    "random_poset",
]

# Downsets are enumerated explicitly, which is exponential in the worst
# case; the guard keeps that enumeration at desk scale.
MAX_POSET_ELEMENTS = 20


class PlantedPoset(Frozen):
    """Ground-truth prerequisite edges: (lower, upper) means lower must be
    mastered before upper.  Edges must be acyclic and self-loop free."""

    _fields = ("elements", "covers")

    def __init__(self, elements: Sequence[str], covers: Iterable[tuple[str, str]]) -> None:
        elements = tuple(elements)
        covers = tuple((lower, upper) for lower, upper in covers)
        seen = set()
        for name in elements:
            if name in seen:
                raise ValueError(f"duplicate element {name!r}")
            seen.add(name)
        for lower, upper in covers:
            if lower not in seen or upper not in seen:
                raise ValueError(f"edge ({lower!r}, {upper!r}) mentions unknown element")
            if lower == upper:
                raise ValueError(f"self-loop on {lower!r}")
        self.__dict__.update(elements=elements, covers=covers)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # i lies on a cycle iff the closure relates i to itself, either way round.
        closed = transitive_closure(self.predecessor_masks())
        for i, row in enumerate(closed):
            if row >> i & 1:
                raise ValueError(f"cycle through {self.elements[i]!r}")

    def predecessor_masks(self) -> list[int]:
        """Bit i of entry j: elements[i] is a direct prerequisite of elements[j]."""
        index = {name: i for i, name in enumerate(self.elements)}
        preds = [0] * len(self.elements)
        for lower, upper in self.covers:
            preds[index[upper]] |= 1 << index[lower]
        return preds


class SynthSpec(Frozen):
    _fields = ("poset", "model_count", "noise", "seed")

    def __init__(
        self, poset: PlantedPoset, model_count: int, noise: float = 0.0, seed: int = 0
    ) -> None:
        if model_count < 1:
            raise ValueError(f"model_count must be >= 1, got {model_count}")
        if not 0.0 <= noise <= 1.0:
            raise ValueError(f"noise must lie in [0, 1], got {noise}")
        self.__dict__.update(poset=poset, model_count=model_count, noise=noise, seed=seed)


def check_poset_size(size: int) -> None:
    """Raise unless the downsets of ``size`` elements may be enumerated."""
    if size > MAX_POSET_ELEMENTS:
        raise ValueError(
            f"refusing to enumerate downsets of {size} elements "
            f"(limit {MAX_POSET_ELEMENTS})"
        )


def all_downsets(poset: PlantedPoset) -> KnowledgeStructure:
    """Every subset closed under prerequisites, as a knowledge structure.

    The empty and full sets are always downsets, so the result is
    complete.  Enumeration walks the elements in topological order and
    branches on include/exclude, visiting each downset exactly once.
    """
    size = len(poset.elements)
    check_poset_size(size)
    preds = poset.predecessor_masks()

    # An element has strictly more ancestors than each of its prerequisites
    # (the poset is acyclic), so ordering by ancestor count is topological.
    ancestors = transitive_closure(preds)
    topo = sorted(range(size), key=lambda i: ancestors[i].bit_count())

    states: list[int] = []

    def walk(position: int, current: int) -> None:
        if position == size:
            states.append(current)
            return
        element = topo[position]
        walk(position + 1, current)
        if not preds[element] & ~current:
            walk(position + 1, current | 1 << element)

    walk(0, 0)
    return KnowledgeStructure(ground=poset.elements, states=states, completed=True)


def sample_models(spec: SynthSpec) -> JudgmentTable:
    """Sample each model row uniformly from the poset's downsets, then
    flip cells independently with the configured noise probability."""
    structure = all_downsets(spec.poset)
    downsets = sorted(structure.states, key=lambda s: (s.bit_count(), bit_indices(s)))
    rng = random.Random(spec.seed)
    size = len(spec.poset.elements)
    rows: list[list[int]] = []
    for _ in range(spec.model_count):
        chosen = downsets[rng.randrange(len(downsets))]
        row = [chosen >> j & 1 for j in range(size)]
        if spec.noise > 0.0:
            row = [bit ^ (rng.random() < spec.noise) for bit in row]
        rows.append(row)
    model_names = [f"M{i + 1}" for i in range(spec.model_count)]
    return build_table(list(spec.poset.elements), model_names, rows)


def random_poset(n: int, density: float, seed: int) -> PlantedPoset:
    """Random DAG on t0..t{n-1} with edges only from lower to higher
    index, transitively reduced to its covering edges."""
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    elements = tuple(f"t{k}" for k in range(n))
    sampled = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                sampled[i] |= 1 << j
    reach = transitive_closure(sampled)
    order = OrderMatrix(elements, [row | 1 << i for i, row in enumerate(reach)])
    covers = tuple(
        (elements[i], elements[j])
        for i, above in enumerate(order.covers)
        for j in bit_indices(above)
    )
    return PlantedPoset(elements=elements, covers=covers)
