"""The public names of the package.

Each module's ``__all__`` is the one list of its public names, and the
package re-exports all six lists, in pipeline order, as its own
``__all__``.  Members that no command used were deleted; they must not
come back under any module or record.
"""
from __future__ import annotations

import pytest

import surmise
from surmise import hasse, io, kst, order, synth, table

MODULES = (table, kst, order, hasse, synth, io)

DELETED_FUNCTIONS = (
    "flexible_leq",
    "states_containing",
    "is_discriminative",
    "_all_singletons",
    "_reduction",
    "PairCounts",  # a record: the counts are plain tuples and row walks now
    "PlantedPoset",  # a planted poset is an OrderMatrix
    "transitive_closure",
    "predecessor_masks",
    "SynthSpec",  # a record: sample_models takes the poset and its parameters
    "bit_indices",  # masks are read by compress on their flags (table.picked)
    "emit_dot",  # the writers are their *_chunks generators; join those
    "hasse_json",
    "emit_csv",
)

DELETED_MEMBERS = [
    (table.JudgmentTable, "tab"),
    (table.JudgmentTable, "support"),
    (table.JudgmentTable, "cells"),
    (table.JudgmentTable, "model_index"),
    (table.JudgmentTable, "_check_model_index"),
    (table.NamePartition, "block_of"),
    (order.OrderMatrix, "holds"),
    (order.OrderMatrix, "index_of"),
    (order.OrderMatrix, "predecessor_masks"),
    (kst.KnowledgeStructure, "names_of"),
    (kst.KnowledgeStructure, "full_state"),
    (kst.ConceptPartition, "representative_of"),
    (io.AnalysisReport, "counts"),
    (hasse.HasseDiagram, "from_edges"),  # a diagram is built from its verified order
    (order.OrderMatrix, "member_map"),  # classes are always set: read classes.blocks
    (order.EquivalenceClasses, "members_of"),
    (hasse.HasseDiagram, "layer_groups"),  # layers are stored as groups
    (kst.KnowledgeStructure, "index_of"),  # the reduction finds its own concepts
]


def test_package_all_is_the_module_lists_in_order():
    expected = [name for module in MODULES for name in module.__all__]
    assert surmise.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_is_the_module_own_object(module):
    for name in module.__all__:
        assert getattr(surmise, name) is getattr(module, name), name


@pytest.mark.parametrize("name", DELETED_FUNCTIONS)
def test_deleted_function_is_gone_everywhere(name):
    for module in (surmise, *MODULES):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize(
    "cls, name", DELETED_MEMBERS, ids=lambda v: getattr(v, "__name__", v)
)
def test_deleted_member_is_gone(cls, name):
    assert not hasattr(cls, name)


def test_deleted_lookup_dicts_are_not_built():
    built = table.JudgmentTable(("M1", "M2"), ("a",), (0b01,))
    matrix = order.OrderMatrix(("a", "b"), (0b11, 0b10))
    assert "_model_index" not in vars(built)
    assert "_index" not in vars(matrix)
    structure = kst.KnowledgeStructure(("a", "b"), {0, 0b11})
    assert "_index" not in vars(structure) and "rank" not in vars(structure)
