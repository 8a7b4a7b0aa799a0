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
    analyze,
    order_matrix,
    sample_models,
)
from surmise.table import Frozen, NamePartition

BLOCKS = (("t0", "t1"), ("t2",))
POSET = (("a", "b", "c"), (0b111, 0b010, 0b100))
TABLE = (("M1", "M2", "M3"), ("a", "b", "c"), (0b111, 0b011, 0b001))


def _table():
    return JudgmentTable(*TABLE)


def _report(counts):
    table = _table()
    report = analyze(table, Flexibility(0), include_counts=counts)
    return (report.table, report.flexibility, report.diagram, report.include_counts)


# For each record: the arguments of one instance and of an instance that
# differs from it in one field.  Each call builds fresh, equal arguments.
ARGUMENTS = {
    NamePartition: lambda: (BLOCKS,),
    EquivalenceClasses: lambda: (BLOCKS,),
    ConceptPartition: lambda: (BLOCKS,),
    Flexibility: lambda: (1000,),
    JudgmentTable: lambda: TABLE,
    OrderMatrix: lambda: (("a", "b"), (0b11, 0b10), EquivalenceClasses((("a",), ("b",)))),
    OrderDiagnostics: lambda: (None, ("a", "b"), ("a", "b", "c")),
    HasseDiagram: lambda: (OrderMatrix(("a", "b"), (0b11, 0b10)),),
    KnowledgeStructure: lambda: (("a", "b"), frozenset({0, 0b01, 0b11})),
    AnalysisReport: lambda: _report(True),
}

CHANGED = {
    NamePartition: lambda: ((("t0",), ("t1", "t2")),),
    EquivalenceClasses: lambda: ((("t0",), ("t1", "t2")),),
    ConceptPartition: lambda: ((("t0",), ("t1", "t2")),),
    Flexibility: lambda: (1001,),
    JudgmentTable: lambda: (TABLE[0], TABLE[1], (0b111, 0b011, 0b010)),
    OrderMatrix: lambda: (("a", "b"), (0b01, 0b10)),
    OrderDiagnostics: lambda: (None, ("a", "c"), ("a", "b", "c")),
    HasseDiagram: lambda: (OrderMatrix(("a", "b"), (0b01, 0b10)),),
    KnowledgeStructure: lambda: (("a", "b"), frozenset({0, 0b10, 0b11})),
    AnalysisReport: lambda: _report(False),
}

# Attributes derived at construction: neither compared, hashed nor shown.
DERIVED = [
    (JudgmentTable, "support_sizes"),
    (JudgmentTable, "_target_index"),
    (OrderMatrix, "diagnostics"),
    (OrderMatrix, "covers"),
    (OrderMatrix, "layers"),
    (HasseDiagram, "nodes"),
    (HasseDiagram, "covers"),
    (HasseDiagram, "members"),
    (HasseDiagram, "layers"),
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

    def test_holds_no_mutable_container(self, cls):
        # A container that could change in place would let two equal
        # records answer differently.
        record = cls(*ARGUMENTS[cls]())
        mutable = [name for name, value in vars(record).items()
                   if isinstance(value, (dict, list, set, bytearray))]
        assert mutable == []


@pytest.mark.parametrize("cls, name", DERIVED, ids=lambda v: getattr(v, "__name__", v))
def test_derived_attributes_are_not_compared_or_shown(cls, name):
    record, twin = cls(*ARGUMENTS[cls]()), cls(*ARGUMENTS[cls]())
    assert name in vars(record)
    vars(twin)[name] = "something else"
    assert record == twin
    assert hash(record) == hash(twin)
    assert repr(record) == repr(twin)
    assert f"{name}=" not in repr(record)


# Records built from lists where the pipeline passes tuples (and a set
# where it passes a frozenset): each stores tuples, so the two are equal.
LIST_BUILT = {
    NamePartition: lambda: ([list(block) for block in BLOCKS],),
    EquivalenceClasses: lambda: ([list(block) for block in BLOCKS],),
    ConceptPartition: lambda: ([list(block) for block in BLOCKS],),
    JudgmentTable: lambda: (list(TABLE[0]), list(TABLE[1]), list(TABLE[2])),
    OrderMatrix: lambda: (["a", "b"], [0b11, 0b10], EquivalenceClasses((("a",), ("b",)))),
    HasseDiagram: lambda: (OrderMatrix(["a", "b"], [0b11, 0b10]),),
    KnowledgeStructure: lambda: (["a", "b"], {0, 0b01, 0b11}),
}


@pytest.mark.parametrize("cls", list(LIST_BUILT), ids=lambda cls: cls.__name__)
def test_list_built_twin_equals_the_tuple_built_record(cls):
    twin, record = cls(*LIST_BUILT[cls]()), cls(*ARGUMENTS[cls]())
    assert twin == record and repr(twin) == repr(record)
    assert hash(twin) == hash(record)


def test_partitions_of_different_kinds_are_unequal():
    classes, concepts, plain = (
        EquivalenceClasses(BLOCKS), ConceptPartition(BLOCKS), NamePartition(BLOCKS)
    )
    assert classes.blocks == concepts.blocks == plain.blocks
    assert classes != concepts and concepts != plain and plain != classes
    assert len({classes, concepts, plain}) == 3


def test_exact_reprs():
    assert repr(Flexibility(2550)) == "Flexibility(basis_points=2550)"
    assert repr(EquivalenceClasses((("t1",),))) == "EquivalenceClasses(blocks=(('t1',),))"


class TestDefaults:
    def test_order_matrix_classes(self):
        matrix = OrderMatrix(("a", "b"), (0b11, 0b10))
        assert matrix.classes == EquivalenceClasses((("a",), ("b",)))
        assert matrix == OrderMatrix(reps=("a", "b"), rows=(0b11, 0b10), classes=None)
        assert matrix.classes.blocks == (("a",), ("b",))

    def test_order_diagnostics_witnesses(self):
        diagnostics = OrderDiagnostics()
        assert (
            diagnostics.reflexivity_witness,
            diagnostics.antisymmetry_witness,
            diagnostics.transitivity_witness,
        ) == (None, None, None)
        assert diagnostics.ok
        assert diagnostics == OrderDiagnostics(
            reflexivity_witness=None, antisymmetry_witness=None, transitivity_witness=None
        )
        assert order_matrix(_table()).diagnostics == diagnostics

    def test_knowledge_structure_completed(self):
        # Read from the states: neither a field nor a parameter.
        structure = KnowledgeStructure(("a", "b"), frozenset({0b01}))
        assert structure.completed is False
        assert structure == KnowledgeStructure(ground=("a", "b"), states=frozenset({0b01}))
        with pytest.raises(TypeError):
            KnowledgeStructure(("a", "b"), frozenset({0b01}), completed=False)

    def test_synth_spec_noise_and_seed(self):
        # The synth parameters are sample_models' own, with these defaults.
        table = sample_models(OrderMatrix(*POSET), 5)
        assert table == sample_models(poset=OrderMatrix(*POSET), model_count=5, noise=0.0, seed=0)

    def test_analysis_report_counts(self):
        report = AnalysisReport(*_report(True)[:3])
        assert report.include_counts is False
        assert report == analyze(_table(), Flexibility(0))
