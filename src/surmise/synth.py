"""Planted prerequisite posets and seeded judgment-table generators.

These exist so hierarchy recovery can be tested end to end: plant a
poset, sample models whose correct sets are downsets of it, and check the
mined order against the planted one.  A planted poset is an
``OrderMatrix``, the record the mined order is, so recovery is a
comparison of rows.  Everything here is a pure function of its arguments
(seed included).
"""
from __future__ import annotations

import random
from functools import reduce
from operator import or_

from .hasse import check_partial_order
from .kst import KnowledgeStructure
from .order import OrderMatrix
from .table import JudgmentTable, picked, transpose

__all__ = [
    "MAX_POSET_ELEMENTS",
    "all_downsets",
    "sample_models",
    "random_poset",
]

# Downsets are enumerated explicitly, which is exponential in the worst
# case; the guard keeps that enumeration at desk scale.
MAX_POSET_ELEMENTS = 20


def check_poset_size(size: int) -> None:
    """Raise unless the downsets of ``size`` elements may be enumerated."""
    if size > MAX_POSET_ELEMENTS:
        raise ValueError(
            f"refusing to enumerate downsets of {size} elements "
            f"(limit {MAX_POSET_ELEMENTS})"
        )


def all_downsets(poset: OrderMatrix) -> KnowledgeStructure:
    """Every subset closed under prerequisites, as a knowledge structure.

    The empty and full sets are always downsets, so the result is
    complete.  ``below[j]`` is the mask of j's prerequisites; the matrix
    is transitive, so a prerequisite of j has fewer of them than j, and
    adding the elements by prerequisite count adds each after all of its
    own.  Each element doubles the family into the downsets without it
    and those with it: ``s | 1 << j`` for each s already holding every
    prerequisite of j.
    """
    check_partial_order(poset)
    size = len(poset.reps)
    check_poset_size(size)
    below = transpose(poset.strict_rows, size)
    states = [0]
    for j in sorted(range(size), key=lambda j: below[j].bit_count()):
        states += [state | 1 << j for state in states if not below[j] & ~state]
    return KnowledgeStructure(ground=poset.reps, states=states)


def sample_models(
    poset: OrderMatrix, model_count: int, noise: float = 0.0, seed: int = 0
) -> JudgmentTable:
    """A table of ``model_count`` models M1, M2, ... over the poset's
    elements: each row is drawn uniformly from the poset's downsets, then
    each cell is flipped with probability ``noise``, all from one
    ``random.Random(seed)``.  A ``model_count`` below 1, or a ``noise``
    outside [0, 1], raises ``ValueError``."""
    if model_count < 1:
        raise ValueError(f"model_count must be >= 1, got {model_count}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    ground = poset.reps
    structure = all_downsets(poset)
    # By size, then by the ascending lists of member indices.  For equal
    # sizes that list order is the descending order of the mask with its
    # len(ground) bits reversed, an int key that builds no list.
    n = len(ground)
    downsets = sorted(
        structure.states,
        key=lambda s: (s.bit_count(), -int(format(s, "b").zfill(n)[::-1], 2)),
    )
    rng = random.Random(seed)
    rows = []
    for _ in range(model_count):
        row = downsets[rng.randrange(len(downsets))]
        if noise > 0.0:
            row ^= sum(1 << j for j in range(len(ground)) if rng.random() < noise)
        rows.append(row)
    model_names = [f"M{i + 1}" for i in range(model_count)]
    return JudgmentTable(model_names, ground, transpose(rows, len(ground)))


def random_poset(n: int, density: float, seed: int) -> OrderMatrix:
    """Random order on t0..t{n-1}: each pair (i, j) with i < j is drawn as
    an edge with probability ``density``, and the order is the
    reflexive-transitive closure of the drawn edges.

    Edges rise in index, so the closure is one sweep from the top:
    ``up[i]`` is i plus the rows of the elements i has an edge to, each
    complete when it is read.
    """
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    sampled = [sum(1 << j for j in range(i + 1, n) if rng.random() < density) for i in range(n)]
    up = [0] * n
    for i in reversed(range(n)):
        up[i] = reduce(or_, picked(up, sampled[i]), 1 << i)
    return OrderMatrix(tuple(f"t{k}" for k in range(n)), up)
