"""Prerequisite-hierarchy mining from binary judgment tables.

Given a models-by-targets matrix of correct/incorrect results, this
package groups equally-informative targets, orders the groups by a
flexible "whoever gets q right gets p right" criterion, reduces the
order to its covering edges, and emits the hierarchy as DOT, JSON, or
text.
"""
from .table import (
    Flexibility,
    FlexibilityError,
    FlexibilityFormatError,
    JudgmentTable,
    PairCounts,
    TableError,
    ZERO_FLEXIBILITY,
    build_table,
    natural_key,
    natural_sorted,
)
from .kst import (
    ConceptPartition,
    KnowledgeStructure,
    discriminative_reduction,
    equally_informative,
    is_discriminative,
    states_containing,
    structure_from_table,
    surmise_from_structure,
)
from .order import (
    EquivalenceClasses,
    OrderAxiomError,
    OrderDiagnostics,
    OrderMatrix,
    equivalence_classes,
    flexible_leq,
    order_matrix,
    verify_partial_order,
)
from .hasse import (
    HasseDiagram,
    assign_layers,
    transitive_closure,
    transitive_reduction,
)
from .synth import (
    MAX_POSET_ELEMENTS,
    PlantedPoset,
    SynthSpec,
    all_downsets,
    random_poset,
    sample_models,
)
from .io import (
    AnalysisReport,
    CsvError,
    analyze,
    emit_csv,
    emit_dot,
    emit_report,
    hasse_json,
    parse_csv,
    structure_report,
)

__version__ = "0.1.0"

__all__ = [
    "Flexibility",
    "FlexibilityError",
    "FlexibilityFormatError",
    "JudgmentTable",
    "PairCounts",
    "TableError",
    "ZERO_FLEXIBILITY",
    "build_table",
    "natural_key",
    "natural_sorted",
    "ConceptPartition",
    "KnowledgeStructure",
    "discriminative_reduction",
    "equally_informative",
    "is_discriminative",
    "states_containing",
    "structure_from_table",
    "surmise_from_structure",
    "EquivalenceClasses",
    "OrderAxiomError",
    "OrderDiagnostics",
    "OrderMatrix",
    "equivalence_classes",
    "flexible_leq",
    "order_matrix",
    "verify_partial_order",
    "HasseDiagram",
    "assign_layers",
    "transitive_closure",
    "transitive_reduction",
    "MAX_POSET_ELEMENTS",
    "PlantedPoset",
    "SynthSpec",
    "all_downsets",
    "random_poset",
    "sample_models",
    "AnalysisReport",
    "CsvError",
    "analyze",
    "emit_csv",
    "emit_dot",
    "emit_report",
    "hasse_json",
    "parse_csv",
    "structure_report",
]
