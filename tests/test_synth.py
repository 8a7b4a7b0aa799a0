import random

import pytest
from hypothesis import given, settings, strategies as st

from surmise import (
    OrderMatrix,
    all_downsets,
    order_matrix,
    random_poset,
    sample_models,
    structure_from_table,
    surmise_from_structure,
    transitive_reduction,
)

import oracles
from test_order import partial_orders


def planted(elements, covers=()):
    """The order on ``elements`` that the (lower, upper) pairs generate."""
    return OrderMatrix.from_pairs(elements, oracles.closure_pairs(set(covers), elements))


def chain(*names):
    return planted(names, zip(names, names[1:]))


def relation(poset):
    """The poset's pairs, the reflexive ones included."""
    return set(poset.pairs()) | {(rep, rep) for rep in poset.reps}


class TestPlantedPoset:
    """A planted poset is an ``OrderMatrix``: its construction rejects bad
    names, and a matrix that is not a partial order is rejected by what
    reads it, with the message ``transitive_reduction`` gives."""

    CYCLE = (("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))

    def test_rejects_cycle(self):
        cycle = OrderMatrix.from_pairs(*self.CYCLE)
        with pytest.raises(ValueError, match="^not a partial order: "):
            all_downsets(cycle)
        with pytest.raises(ValueError, match="^not a partial order: "):
            sample_models(poset=cycle, model_count=3)

    def test_cycle_named_by_the_diagnostics_summary(self):
        cycle = OrderMatrix.from_pairs(("a", "b", "c"), (("c", "a"), ("a", "c"), ("a", "b")))
        expected = (
            "not a partial order: reflexivity: pass; anti-symmetry: FAIL at ('a', 'c'); "
            "transitivity: FAIL at ('c', 'a', 'b')"
        )
        for reader in (all_downsets, transitive_reduction):
            with pytest.raises(ValueError) as raised:
                reader(cycle)
            assert str(raised.value) == expected

    def test_self_loop_is_a_reflexive_pair(self):
        looped = OrderMatrix.from_pairs(("a",), (("a", "a"),))
        assert looped == OrderMatrix.from_pairs(("a",), ())
        assert all_downsets(looped).states == frozenset({0b0, 0b1})

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown element 'b'"):
            OrderMatrix.from_pairs(("a",), (("a", "b"),))

    def test_rejects_duplicate_element(self):
        with pytest.raises(ValueError, match="distinct and natural-sorted: 'a' before 'a'"):
            OrderMatrix.from_pairs(("a", "a"), ())


class TestAllDownsets:
    def test_chain_of_two(self):
        structure = all_downsets(chain("a", "b"))
        assert structure.states == frozenset({0b00, 0b01, 0b11})
        assert structure.completed

    def test_antichain_of_two(self):
        structure = all_downsets(planted(("x", "y")))
        assert len(structure.states) == 4

    def test_single_element(self):
        structure = all_downsets(planted(("x",)))
        assert structure.states == frozenset({0b0, 0b1})

    def test_size_guard(self):
        big = planted(tuple(f"e{k}" for k in range(21)))
        with pytest.raises(ValueError, match="refusing"):
            all_downsets(big)

    def test_every_state_is_downward_closed(self):
        poset = random_poset(6, 0.5, seed=99)
        for state in all_downsets(poset).states:
            for lower, upper in poset.pairs():
                if state >> poset.reps.index(upper) & 1:
                    assert state >> poset.reps.index(lower) & 1

    def test_diamond_counts(self):
        # a below b and c, d above both: 6 downsets
        poset = planted(("a", "b", "c", "d"), (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))
        assert len(all_downsets(poset).states) == 6

    @settings(max_examples=300, deadline=None)
    @given(partial_orders())
    def test_matches_subset_filter_reference(self, rows):
        # The orders are shuffled, so index order is rarely a linear
        # extension of them.
        poset = OrderMatrix(tuple(f"e{k}" for k in range(len(rows))), rows)
        structure = all_downsets(poset)
        assert structure.ground == poset.reps
        assert structure.states == oracles.downsets_reference(rows)


class TestSampleModels:
    def test_same_spec_same_table(self):
        args = dict(poset=chain("a", "b", "c"), model_count=9, seed=5)
        assert sample_models(**args) == sample_models(**args)

    def test_different_seed_differs(self):
        poset = chain("a", "b", "c")
        one = sample_models(poset=poset, model_count=20, seed=1)
        two = sample_models(poset=poset, model_count=20, seed=2)
        assert one.support_masks != two.support_masks

    def test_noise_free_rows_are_downsets(self):
        table = sample_models(poset=chain("a", "b"), model_count=50, seed=3)
        for row in oracles.cells_of(table):
            assert not (row[1] and not row[0])

    def test_recovery_on_three_chain(self):
        # With all downsets of the chain present among the sampled rows,
        # the zero-flexibility order equals the planted one.
        poset = chain("a", "b", "c")
        table = sample_models(poset=poset, model_count=60, seed=11)
        sampled_states = {oracles.pack_bits(row) for row in oracles.cells_of(table)}
        assert sampled_states == all_downsets(poset).states
        assert surmise_from_structure(structure_from_table(table)) == frozenset(relation(poset))
        matrix = order_matrix(table)
        assert set(matrix.pairs()) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_recovery_is_a_comparison_of_rows(self):
        # Noise-free, with every downset sampled, the mined order is the
        # planted record itself.
        poset = random_poset(6, 0.5, seed=99)
        table = sample_models(poset=poset, model_count=400, seed=2)
        assert set(structure_from_table(table, complete=False).states) == all_downsets(poset).states
        matrix = order_matrix(table)
        assert (matrix.reps, matrix.rows) == (poset.reps, poset.rows)

    @settings(max_examples=200, deadline=None)
    @given(partial_orders(), st.integers(0, 2**32))
    def test_draws_from_downsets_sorted_by_size_then_members(self, rows, seed):
        # The downsets are sorted by size, then by their ascending lists of
        # member indices, and each noise-free row is one draw from them.
        poset = OrderMatrix(tuple(f"e{k}" for k in range(len(rows))), rows)
        downsets = sorted(
            oracles.downsets_reference(rows), key=lambda s: (s.bit_count(), oracles.bit_indices(s))
        )
        rng = random.Random(seed)
        expected = tuple(downsets[rng.randrange(len(downsets))] for _ in range(30))
        table = sample_models(poset=poset, model_count=30, seed=seed)
        assert table.row_masks == expected

    def test_spec_validation(self):
        poset = chain("a", "b")
        with pytest.raises(ValueError, match="model_count"):
            sample_models(poset=poset, model_count=0)
        with pytest.raises(ValueError, match="noise"):
            sample_models(poset=poset, model_count=1, noise=1.5)

    def test_noise_flips_cells(self):
        poset = planted(("a", "b"))
        clean = sample_models(poset=poset, model_count=30, seed=4)
        noisy = sample_models(poset=poset, model_count=30, noise=0.5, seed=4)
        assert clean.support_masks != noisy.support_masks


class TestRandomPoset:
    def test_density_zero_is_antichain(self):
        poset = random_poset(5, 0.0, seed=1)
        assert poset.pairs() == ()
        assert transitive_reduction(poset).edges == ()

    def test_density_one_is_successor_chain(self):
        poset = random_poset(5, 1.0, seed=1)
        assert transitive_reduction(poset).edges == (
            ("t0", "t1"), ("t1", "t2"), ("t2", "t3"), ("t3", "t4"),
        )

    def test_same_seed_same_poset(self):
        assert random_poset(7, 0.4, seed=42) == random_poset(7, 0.4, seed=42)

    def test_validation(self):
        with pytest.raises(ValueError, match="element count"):
            random_poset(0, 0.5, seed=1)
        with pytest.raises(ValueError, match="density"):
            random_poset(3, 1.5, seed=1)

    def test_covers_in_index_order(self):
        for seed in range(10):
            poset = random_poset(12, 0.4, seed=seed)
            index = {name: k for k, name in enumerate(poset.reps)}
            keys = [(index[a], index[b]) for a, b in transitive_reduction(poset).edges]
            assert keys == sorted(keys)
            assert all(a < b for a, b in keys)

    def test_covers_are_reduced(self):
        for seed in range(10):
            poset = random_poset(6, 0.7, seed=seed)
            edges = set(transitive_reduction(poset).edges)
            assert oracles.closure_pairs(edges, poset.reps) == relation(poset)
            assert edges == oracles.covering_pairs(set(poset.pairs()))
