"""Differential tests for the ``structure`` text view.

``structure_report`` renders from natural-order ranks computed once per
structure and one concept partition per report; ``oracles`` sorts every
state by natural keys each time it is printed and groups concepts by
brute force.  Grounds are shuffled and contain numeric ties, so natural
order, column order and plain string order all differ.  The state order,
one int key per state, is also checked against the sorted rank lists it
replaced, on families with many states of one size.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import example, given, strategies as st

from surmise import KnowledgeStructure, build_table, structure_from_table, structure_report
from surmise.io import _rendered_states
from surmise.table import natural_ranks

import oracles
from test_bitset import latent_rows
from test_kst import structures

VIEW_SEED = 20261018
ODD_NAMES = ("t10", "t2", "t01", "t1", "b10c2", "b9c30", "a")
# (targets, models, noise): the largest table, a few models (many equal
# concepts), and one with a ground of only the odd names.
VIEW_SHAPES = ((40, 400, 1.0), (40, 30, 0.6), (16, 200, 0.3), (7, 60, 0.8))


def odd_ground(rng: random.Random, size: int) -> list[str]:
    """ODD_NAMES plus zero-padded and plain variants of small numbers,
    shuffled so column order is not natural order."""
    names = list(ODD_NAMES)
    extra = [f"x{n}" for n in range(size)] + [f"x0{n}" for n in range(size)]
    rng.shuffle(extra)
    names += extra[: max(0, size - len(names))]
    names = names[:size]
    rng.shuffle(names)
    return names


def assert_same_report(got: str, expected: str) -> None:
    """Compare whole reports, but name only the first differing line:
    a full diff of two reports of this size takes minutes."""
    if got == expected:
        return
    pairs = zip(got.splitlines() + ["<end>"], expected.splitlines() + ["<end>"])
    line, (have, want) = next((k, p) for k, p in enumerate(pairs, 1) if p[0] != p[1])
    pytest.fail(f"line {line}: got {have[:200]!r}, expected {want[:200]!r}")


def view_tables():
    rng = random.Random(VIEW_SEED)
    for u, v, noise in VIEW_SHAPES:
        rows = latent_rows(rng, u, v, noise)
        ground = odd_ground(rng, u)
        yield rows, build_table(ground, [f"m{i}" for i in range(v)], rows)


@pytest.mark.parametrize("complete", [True, False])
def test_report_matches_reference_on_seeded_tables(complete):
    for rows, table in view_tables():
        states = {frozenset(j for j, cell in enumerate(row) if cell) for row in rows}
        if complete:
            states |= {frozenset(), frozenset(range(table.target_count))}
        expected = oracles.structure_report_reference(table.target_names, frozenset(states))
        assert_same_report(structure_report(structure_from_table(table, complete)), expected)


@given(structures(max_ground=7), st.permutations(ODD_NAMES))
def test_report_matches_reference_on_random_structures(structure, names):
    for ground in (structure.ground, tuple(names[: len(structure.ground)])):
        renamed = KnowledgeStructure(ground=ground, states=structure.states)
        expected = oracles.structure_report_reference(
            ground, oracles.state_sets(structure.states)
        )
        assert_same_report(structure_report(renamed), expected)


@pytest.mark.parametrize(
    "states",
    [
        [],
        [()],
        [(), ("t10",)],
        [("t2", "t01"), ("t1",), ("a", "t10", "b9c30")],
        [(), ("b10c2", "b9c30"), ODD_NAMES],
    ],
)
def test_report_matches_reference_on_hand_built_structures(states):
    index = {name: j for j, name in enumerate(ODD_NAMES)}
    family = frozenset(frozenset(index[n] for n in state) for state in states)
    structure = KnowledgeStructure(ground=ODD_NAMES, states=oracles.state_masks(family))
    assert_same_report(
        structure_report(structure), oracles.structure_report_reference(ODD_NAMES, family)
    )


@st.composite
def ranked_structures(draw):
    """Structures over a shuffled prefix of ODD_NAMES (so a name's rank is
    not its index), holding many states of one drawn size and a few
    others; the family may be empty."""
    names = draw(st.permutations(ODD_NAMES))
    ground = tuple(names[: draw(st.integers(0, len(names)))])
    size = draw(st.integers(0, len(ground)))
    same_size = [mask for mask in range(1 << len(ground)) if mask.bit_count() == size]
    states = draw(st.sets(st.sampled_from(same_size)))
    states |= draw(st.sets(st.integers(0, (1 << len(ground)) - 1), max_size=6))
    return KnowledgeStructure(ground=ground, states=states)


@given(ranked_structures())
@example(KnowledgeStructure(ground=ODD_NAMES, states=frozenset()))
@example(KnowledgeStructure(ground=ODD_NAMES, states=frozenset({0})))
@example(KnowledgeStructure(ground=(), states=frozenset({0})))
def test_state_order_and_texts_match_sorted_rank_lists(structure):
    assert _rendered_states(structure) == oracles.rendered_states_reference(structure)


def test_ranks_follow_natural_order_and_stay_out_of_equality():
    # The renderer ranks the ground itself; a structure stores no ranks.
    structure = KnowledgeStructure(ground=ODD_NAMES, states=frozenset({0b111}))
    rank = natural_ranks(structure.ground)
    by_rank = sorted(ODD_NAMES, key=lambda n: rank[ODD_NAMES.index(n)])
    assert by_rank == sorted(ODD_NAMES, key=oracles.natural_name_key)
    assert _rendered_states(structure)[1] == ["{t01,t2,t10}"]
    twin = KnowledgeStructure(ground=ODD_NAMES, states=frozenset({0b100 | 0b010 | 0b001}))
    assert twin == structure and hash(twin) == hash(structure)
    assert set(vars(structure)) == {"ground", "states"}
