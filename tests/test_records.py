"""Value semantics of the package's records, the subclasses of
``table.Frozen``: equality and hashing read only the constructor fields,
``repr`` lists them in order, attributes cannot be assigned or deleted,
and every constructor takes its fields positionally, by keyword and with
the documented defaults."""
from __future__ import annotations

import inspect

import pytest

from surmise import (
    AnalysisReport,
    ConceptPartition,
    EquivalenceClasses,
    Flexibility,
    HasseDiagram,
    JudgmentTable,
    KnowledgeStructure,
    OrderDiagnostics,
    OrderMatrix,
    PairCounts,
    PlantedPoset,
    SynthSpec,
    analyze,
    order_matrix,
)
from surmise.table import Frozen, NamePartition

BLOCKS = (("t0", "t1"), ("t2",))
POSET = (("a", "b", "c"), (("a", "b"), ("a", "c")))
TABLE = (("M1", "M2", "M3"), ("a", "b", "c"), (0b111, 0b011, 0b001))


def _table():
    return JudgmentTable(*TABLE)


def _report(counts):
    table = _table()
    report = analyze(table, Flexibility(0), include_counts=counts)
    return (report.targets, report.flexibility, report.order, report.diagram, report.counts)


# For each record: the arguments of one instance and of an instance that
# differs from it in one field.  Each call builds fresh, equal arguments.
ARGUMENTS = {
    NamePartition: lambda: (BLOCKS,),
    EquivalenceClasses: lambda: (BLOCKS,),
    ConceptPartition: lambda: (BLOCKS,),
    PairCounts: lambda: (1, 2, 3, 4),
    Flexibility: lambda: (1000,),
    JudgmentTable: lambda: TABLE,
    OrderMatrix: lambda: (("a", "b"), (0b11, 0b10), EquivalenceClasses((("a",), ("b",)))),
    OrderDiagnostics: lambda: (True, False, False, None, ("a", "b"), ("a", "b", "c")),
    HasseDiagram: lambda: (("a", "b"), {"a": ("a",), "b": ("b",)}, (0b10, 0)),
    KnowledgeStructure: lambda: (("a", "b"), frozenset({0, 0b01, 0b11}), True),
    PlantedPoset: lambda: POSET,
    SynthSpec: lambda: (PlantedPoset(*POSET), 5, 0.25, 3),
    AnalysisReport: lambda: _report(True),
}

CHANGED = {
    NamePartition: lambda: ((("t0",), ("t1", "t2")),),
    EquivalenceClasses: lambda: ((("t0",), ("t1", "t2")),),
    ConceptPartition: lambda: ((("t0",), ("t1", "t2")),),
    PairCounts: lambda: (1, 2, 4, 3),
    Flexibility: lambda: (1001,),
    JudgmentTable: lambda: (TABLE[0], TABLE[1], (0b111, 0b011, 0b010)),
    OrderMatrix: lambda: (("a", "b"), (0b11, 0b10)),
    OrderDiagnostics: lambda: (True, False, False, None, ("a", "c"), ("a", "b", "c")),
    HasseDiagram: lambda: (("a", "b"), {"a": ("a",), "b": ("b", "c")}, (0b10, 0)),
    KnowledgeStructure: lambda: (("a", "b"), frozenset({0, 0b10, 0b11}), True),
    PlantedPoset: lambda: (POSET[0], (("a", "b"),)),
    SynthSpec: lambda: (PlantedPoset(*POSET), 5, 0.25, 4),
    AnalysisReport: lambda: _report(False),
}

# A dict field (``members``, and through the diagram the report) makes a
# record unhashable, as it would any tuple holding it.
UNHASHABLE = {HasseDiagram, AnalysisReport}

# Attributes derived at construction: neither compared, hashed nor shown.
DERIVED = [
    (NamePartition, "_block_of"),
    (EquivalenceClasses, "_block_of"),
    (ConceptPartition, "_block_of"),
    (JudgmentTable, "support_sizes"),
    (JudgmentTable, "_target_index"),
    (JudgmentTable, "_model_index"),
    (OrderMatrix, "diagnostics"),
    (OrderMatrix, "covers"),
    (OrderMatrix, "_index"),
    (HasseDiagram, "layers"),
    (KnowledgeStructure, "rank"),
    (KnowledgeStructure, "_index"),
]

RECORDS = list(ARGUMENTS)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_covered():
    assert set(_subclasses(Frozen)) == set(ARGUMENTS) == set(CHANGED)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_are_the_constructor_parameters(self, cls):
        parameters = list(inspect.signature(cls).parameters)
        assert list(cls._fields) == parameters

    def test_equal_arguments_give_equal_records(self, cls):
        first, second = cls(*ARGUMENTS[cls]()), cls(*ARGUMENTS[cls]())
        assert first is not second
        assert first == second and not first != second
        if cls in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(first)
        else:
            assert hash(first) == hash(second)
            assert len({first, second}) == 1

    def test_a_changed_field_gives_an_unequal_record(self, cls):
        record, changed = cls(*ARGUMENTS[cls]()), cls(*CHANGED[cls]())
        assert record != changed and not record == changed

    def test_unequal_to_other_types(self, cls):
        record = cls(*ARGUMENTS[cls]())
        values = tuple(getattr(record, name) for name in cls._fields)
        assert record.__eq__(values) is NotImplemented
        assert record != values and record != object()

    def test_positional_and_keyword_construction_agree(self, cls):
        arguments = ARGUMENTS[cls]()
        by_keyword = cls(**dict(zip(cls._fields, arguments)))
        assert cls(*arguments) == by_keyword
        assert tuple(getattr(by_keyword, name) for name in cls._fields) == tuple(arguments)

    def test_repr_lists_the_fields_in_order(self, cls):
        record = cls(*ARGUMENTS[cls]())
        listed = ", ".join(f"{name}={value!r}" for name, value in
                           zip(cls._fields, ARGUMENTS[cls]()))
        assert repr(record) == f"{cls.__name__}({listed})"

    def test_attributes_cannot_be_assigned_or_deleted(self, cls):
        record = cls(*ARGUMENTS[cls]())
        for name in (*cls._fields, "extra"):
            before = getattr(record, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(record, name)
            assert getattr(record, name, None) is before
        assert record == cls(*ARGUMENTS[cls]())


@pytest.mark.parametrize("cls, name", DERIVED, ids=lambda v: getattr(v, "__name__", v))
def test_derived_attributes_are_not_compared_or_shown(cls, name):
    record, twin = cls(*ARGUMENTS[cls]()), cls(*ARGUMENTS[cls]())
    assert name in vars(record)
    vars(twin)[name] = "something else"
    assert record == twin
    if cls not in UNHASHABLE:
        assert hash(record) == hash(twin)
    assert repr(record) == repr(twin)
    assert f"{name}=" not in repr(record)


def test_partitions_of_different_kinds_are_unequal():
    classes, concepts, plain = (
        EquivalenceClasses(BLOCKS), ConceptPartition(BLOCKS), NamePartition(BLOCKS)
    )
    assert classes.blocks == concepts.blocks == plain.blocks
    assert classes != concepts and concepts != plain and plain != classes
    assert len({classes, concepts, plain}) == 3


def test_exact_reprs():
    assert repr(PairCounts(1, 2, 3, 4)) == "PairCounts(n1=1, n2=2, n3=3, n4=4)"
    assert repr(Flexibility(2550)) == "Flexibility(basis_points=2550)"
    assert repr(EquivalenceClasses((("t1",),))) == "EquivalenceClasses(blocks=(('t1',),))"


class TestDefaults:
    def test_order_matrix_classes(self):
        matrix = OrderMatrix(("a", "b"), (0b11, 0b10))
        assert matrix.classes is None
        assert matrix == OrderMatrix(reps=("a", "b"), rows=(0b11, 0b10), classes=None)
        assert matrix.member_map() == {"a": ("a",), "b": ("b",)}

    def test_order_diagnostics_witnesses(self):
        diagnostics = OrderDiagnostics(True, True, True)
        assert (
            diagnostics.reflexivity_witness,
            diagnostics.antisymmetry_witness,
            diagnostics.transitivity_witness,
        ) == (None, None, None)
        assert diagnostics.ok
        assert diagnostics == OrderDiagnostics(
            reflexive=True, antisymmetric=True, transitive=True
        )
        assert order_matrix(_table()).diagnostics == diagnostics

    def test_knowledge_structure_completed(self):
        structure = KnowledgeStructure(("a", "b"), frozenset({0b01}))
        assert structure.completed is False
        assert structure == KnowledgeStructure(("a", "b"), frozenset({0b01}), completed=False)

    def test_synth_spec_noise_and_seed(self):
        spec = SynthSpec(PlantedPoset(*POSET), 5)
        assert (spec.noise, spec.seed) == (0.0, 0)
        assert spec == SynthSpec(poset=PlantedPoset(*POSET), model_count=5, noise=0.0, seed=0)

    def test_analysis_report_counts(self):
        report = AnalysisReport(*_report(True)[:4])
        assert report.counts is None
        assert report == analyze(_table(), Flexibility(0))
