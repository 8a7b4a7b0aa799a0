import pytest

from surmise import (
    PlantedPoset,
    SynthSpec,
    all_downsets,
    order_matrix,
    random_poset,
    sample_models,
    structure_from_table,
    surmise_from_structure,
)

import oracles


def chain(*names):
    return PlantedPoset(
        elements=tuple(names),
        covers=tuple(zip(names, names[1:])),
    )


class TestPlantedPoset:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            PlantedPoset(elements=("a",), covers=(("a", "a"),))

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            PlantedPoset(
                elements=("a", "b", "c"),
                covers=(("a", "b"), ("b", "c"), ("c", "a")),
            )

    def test_cycle_named_by_its_first_element(self):
        with pytest.raises(ValueError, match=r"^cycle through 'a'$"):
            PlantedPoset(elements=("a", "b", "c"), covers=(("c", "a"), ("a", "c"), ("a", "b")))
        # "a" only feeds the cycle between "c" and "b", which lies above it.
        with pytest.raises(ValueError, match=r"^cycle through 'b'$"):
            PlantedPoset(
                elements=("a", "b", "c", "d"),
                covers=(("a", "c"), ("c", "b"), ("b", "c"), ("d", "a")),
            )

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown element"):
            PlantedPoset(elements=("a",), covers=(("a", "b"),))

    def test_rejects_duplicate_element(self):
        with pytest.raises(ValueError, match="duplicate"):
            PlantedPoset(elements=("a", "a"), covers=())


class TestAllDownsets:
    def test_chain_of_two(self):
        structure = all_downsets(chain("a", "b"))
        assert structure.states == frozenset({0b00, 0b01, 0b11})
        assert structure.completed

    def test_antichain_of_two(self):
        poset = PlantedPoset(elements=("x", "y"), covers=())
        structure = all_downsets(poset)
        assert len(structure.states) == 4

    def test_single_element(self):
        structure = all_downsets(PlantedPoset(elements=("x",), covers=()))
        assert structure.states == frozenset({0b0, 0b1})

    def test_size_guard(self):
        big = PlantedPoset(elements=tuple(f"e{k}" for k in range(21)), covers=())
        with pytest.raises(ValueError, match="refusing"):
            all_downsets(big)

    def test_every_state_is_downward_closed(self):
        poset = random_poset(6, 0.5, seed=99)
        preds = poset.predecessor_masks()
        for state in all_downsets(poset).states:
            for j in range(len(preds)):
                if state >> j & 1:
                    assert preds[j] & ~state == 0

    def test_diamond_counts(self):
        # a below b and c, d above both: 6 downsets
        poset = PlantedPoset(
            elements=("a", "b", "c", "d"),
            covers=(("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")),
        )
        assert len(all_downsets(poset).states) == 6


class TestSampleModels:
    def test_same_spec_same_table(self):
        spec = SynthSpec(poset=chain("a", "b", "c"), model_count=9, seed=5)
        assert sample_models(spec) == sample_models(spec)

    def test_different_seed_differs(self):
        poset = chain("a", "b", "c")
        one = sample_models(SynthSpec(poset=poset, model_count=20, seed=1))
        two = sample_models(SynthSpec(poset=poset, model_count=20, seed=2))
        assert one.support_masks != two.support_masks

    def test_noise_free_rows_are_downsets(self):
        spec = SynthSpec(poset=chain("a", "b"), model_count=50, seed=3)
        table = sample_models(spec)
        for row in oracles.cells_of(table):
            assert not (row[1] and not row[0])

    def test_recovery_on_three_chain(self):
        # With all downsets of the chain present among the sampled rows,
        # the zero-flexibility order equals the planted one.
        poset = chain("a", "b", "c")
        spec = SynthSpec(poset=poset, model_count=60, seed=11)
        table = sample_models(spec)
        sampled_states = {
            sum(bit << j for j, bit in enumerate(row)) for row in oracles.cells_of(table)
        }
        assert sampled_states == all_downsets(poset).states
        relation = surmise_from_structure(structure_from_table(table))
        expected = oracles.closure_pairs(set(poset.covers), poset.elements)
        assert relation == frozenset(expected)
        matrix = order_matrix(table)
        assert set(matrix.pairs()) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_spec_validation(self):
        poset = chain("a", "b")
        with pytest.raises(ValueError, match="model_count"):
            SynthSpec(poset=poset, model_count=0)
        with pytest.raises(ValueError, match="noise"):
            SynthSpec(poset=poset, model_count=1, noise=1.5)

    def test_noise_flips_cells(self):
        poset = PlantedPoset(elements=("a", "b"), covers=())
        clean = sample_models(SynthSpec(poset=poset, model_count=30, seed=4))
        noisy = sample_models(
            SynthSpec(poset=poset, model_count=30, noise=0.5, seed=4)
        )
        assert clean.support_masks != noisy.support_masks


class TestRandomPoset:
    def test_density_zero_is_antichain(self):
        poset = random_poset(5, 0.0, seed=1)
        assert poset.covers == ()

    def test_density_one_is_successor_chain(self):
        poset = random_poset(5, 1.0, seed=1)
        assert poset.covers == (
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
            index = {name: k for k, name in enumerate(poset.elements)}
            keys = [(index[a], index[b]) for a, b in poset.covers]
            assert keys == sorted(keys)

    def test_covers_are_reduced(self):
        for seed in range(10):
            poset = random_poset(6, 0.7, seed=seed)
            strict = oracles.closure_pairs(set(poset.covers), poset.elements)
            strict = {(a, b) for a, b in strict if a != b}
            assert set(poset.covers) == oracles.covering_pairs(strict)
