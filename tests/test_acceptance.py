"""End-to-end acceptance checks.

One test per shipped criterion; each prints a pass/fail line (also
echoed in the terminal summary) and enforces its own runtime budget.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from time import perf_counter

from surmise import (
    Flexibility,
    OrderMatrix,
    all_downsets,
    analyze,
    dot_chunks,
    emit_report,
    order_matrix,
    random_poset,
    structure_from_table,
    surmise_from_structure,
    transitive_reduction,
    verify_partial_order,
)
from surmise.cli import cli_main

import oracles
from conftest import (
    FUZZ_ALPHAS,
    TWELVE_MODELS_PATH,
    WORKED_EXAMPLE_PATH,
    build_fuzz_corpus,
    criterion,
)
from test_io import WORKED_STRUCTURE_TEXT

TWELVE_MODELS_HASSE_0 = (
    ("t1", "t4"), ("t1", "t6"),
    ("t2", "t3"), ("t2", "t9"),
    ("t3", "t8"),
    ("t4", "t7"), ("t4", "t9"),
    ("t5", "t3"), ("t5", "t9"),
    ("t6", "t2"), ("t6", "t5"),
    ("t8", "t7"),
)

TWELVE_MODELS_LAYER_GROUPS_0 = (
    ("t1",), ("t4", "t6"), ("t2", "t5"), ("t3", "t9"), ("t8",), ("t7",),
)


def test_criterion_1_worked_example_structure_output(capsys):
    with criterion(1, "worked-example structure golden"):
        start = perf_counter()
        code = cli_main(["structure", str(WORKED_EXAMPLE_PATH)])
        out = capsys.readouterr().out
        elapsed = perf_counter() - start
        assert code == 0
        assert out == WORKED_STRUCTURE_TEXT
        # the five per-target families, printed exactly
        assert "K_a: {a,b,c} {a,b,c,d} {a,b,c,e} {a,b,c,d,e}\n" in out
        assert "K_b: {b,c} {a,b,c} {a,b,c,d} {a,b,c,e} {a,b,c,d,e}\n" in out
        assert "K_c: {b,c} {a,b,c} {a,b,c,d} {a,b,c,e} {a,b,c,d,e}\n" in out
        assert "K_d: {a,b,c,d} {a,b,c,d,e}\n" in out
        assert "K_e: {a,b,c,e} {a,b,c,d,e}\n" in out
        # b and c are equally informative
        assert "concepts: {a} {b,c} {d} {e}\n" in out
        # the discriminative reduction, state by state
        assert out.endswith(
            "reduction states (6):\n"
            "  {}\n"
            "  {b}\n"
            "  {a,b}\n"
            "  {a,b,d}\n"
            "  {a,b,e}\n"
            "  {a,b,d,e}\n"
        )
        assert elapsed < 1.0


def test_criterion_2_twelve_models_hierarchy(twelve_models, twelve_models_rows):
    with criterion(2, "12x10 example hierarchy at zero flexibility"):
        start = perf_counter()
        report = analyze(twelve_models)
        assert report.classes.blocks[0] == ("t0", "t1")
        assert report.classes.representatives[0] == "t1"
        assert all(len(b) == 1 for b in report.classes.blocks[1:])
        assert report.hasse == TWELVE_MODELS_HASSE_0
        assert report.layers == TWELVE_MODELS_LAYER_GROUPS_0

        # Independent route: support containment straight off the raw
        # rows, covering pairs by remove-edge reachability, layers by
        # memoised longest path.
        names = twelve_models.target_names
        rep_columns = sorted(
            max(block) for block in oracles.identical_column_blocks(twelve_models_rows)
        )
        contain = oracles.containment_relation(twelve_models_rows)
        strict = {
            (names[p], names[q])
            for p, q in contain
            if p != q and p in rep_columns and q in rep_columns
        }
        covers = oracles.covering_pairs(strict)
        assert set(report.hasse) == covers
        oracle_layers = oracles.longest_path_layers(
            [names[c] for c in rep_columns], covers
        )
        groups: dict[int, set[str]] = {}
        for name, layer in oracle_layers.items():
            groups.setdefault(layer, set()).add(name)
        assert {level: set(group) for level, group in enumerate(report.layers)} == groups
        elapsed = perf_counter() - start
        assert elapsed < 1.0


def test_criterion_3_flexibility_effect(twelve_models):
    with criterion(3, "flexibility widens the order"):
        relation_0 = set(order_matrix(twelve_models, Flexibility(0)).pairs())
        relation_20 = set(order_matrix(twelve_models, Flexibility(2000)).pairs())
        relation_1999 = set(order_matrix(twelve_models, Flexibility(1999)).pairs())

        assert ("t6", "t4") not in relation_0
        assert ("t6", "t4") in relation_20
        assert ("t6", "t4") not in relation_1999

        _, n2, n3, _ = twelve_models.pair_counts(6, 4)
        assert (n2, n3) == (4, 1)
        assert 10000 * n3 <= 2000 * (n2 + n3)
        assert 10000 * n3 > 1999 * (n2 + n3)

        hasse_0 = transitive_reduction(order_matrix(twelve_models, Flexibility(0))).edges
        hasse_20 = transitive_reduction(order_matrix(twelve_models, Flexibility(2000))).edges
        assert ("t1", "t4") in hasse_0
        assert ("t1", "t4") not in hasse_20
        # the old edge is implied through t6 now
        assert ("t1", "t6") in relation_20 and ("t6", "t4") in relation_20
        assert ("t6", "t4") in hasse_20


def test_criterion_4_order_axioms_fuzz():
    with criterion(4, "order axioms on 200 random tables"):
        start = perf_counter()
        corpus = build_fuzz_corpus(200)
        cases = 0
        for table in corpus:
            previous_pairs = None
            previous_reps = None
            for alpha in FUZZ_ALPHAS:
                matrix = order_matrix(table, alpha)  # raises on axiom failure
                diagnostics = verify_partial_order(matrix)
                assert diagnostics.ok, diagnostics.summary()
                if previous_reps is not None:
                    assert matrix.reps == previous_reps
                pairs = set(matrix.pairs())
                if previous_pairs is not None:
                    assert previous_pairs <= pairs  # alpha-monotonicity
                previous_pairs, previous_reps = pairs, matrix.reps
                cases += 1
        elapsed = perf_counter() - start
        assert cases >= 800
        assert elapsed < 10.0


def test_criterion_5_oracle_identities(fuzz_corpus):
    with criterion(5, "oracle identities on the fuzz corpus"):
        checked = 0
        for table in fuzz_corpus:
            rows = [list(row) for row in oracles.cells_of(table)]
            names = table.target_names

            # (a) three-way agreement at zero flexibility
            contain = oracles.containment_relation(rows)
            surmise = surmise_from_structure(structure_from_table(table))
            assert surmise == frozenset(
                (names[p], names[q]) for p, q in contain
            )
            matrix_0 = order_matrix(table, Flexibility(0))
            column = {rep: table.target_index(rep) for rep in matrix_0.reps}
            for p in matrix_0.reps:
                for q in matrix_0.reps:
                    assert oracles.order_holds(matrix_0, p, q) == (
                        (column[p], column[q]) in contain
                    )

            # (c) classes equal the identical-columns partition at every alpha
            column_blocks = {
                frozenset(names[j] for j in block)
                for block in oracles.identical_column_blocks(rows)
            }

            for alpha in FUZZ_ALPHAS:
                matrix = order_matrix(table, alpha)
                assert {
                    frozenset(block) for block in matrix.classes.blocks
                } == column_blocks

                # (b) covering edges close back to the order and are minimal
                diagram = transitive_reduction(matrix)
                strict = set(matrix.pairs())
                full = strict | {(rep, rep) for rep in matrix.reps}
                assert oracles.closure_pairs(set(diagram.edges), matrix.reps) == full
                for edge in diagram.edges:
                    thinner = set(diagram.edges) - {edge}
                    assert oracles.closure_pairs(thinner, matrix.reps) != full
                checked += 1
        assert checked == len(fuzz_corpus) * len(FUZZ_ALPHAS)


def _upper_triangular_strict_orders(n: int) -> list[frozenset[tuple[int, int]]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    orders = []
    for mask in range(1 << len(pairs)):
        rel = frozenset(pairs[k] for k in range(len(pairs)) if mask >> k & 1)
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            orders.append(rel)
    return orders


def _all_labeled_strict_orders(n: int) -> set[frozenset[tuple[int, int]]]:
    labeled: set[frozenset[tuple[int, int]]] = set()
    for rel in _upper_triangular_strict_orders(n):
        for perm in permutations(range(n)):
            labeled.add(frozenset((perm[a], perm[b]) for a, b in rel))
    return labeled


def _check_recovery(poset: OrderMatrix) -> None:
    assert poset.diagnostics.ok
    structure = all_downsets(poset)
    got = surmise_from_structure(structure)
    assert got == frozenset(poset.pairs()) | {(rep, rep) for rep in poset.reps}


def test_criterion_6_birkhoff_recovery():
    with criterion(6, "downset recovery of planted posets"):
        start = perf_counter()
        expected_counts = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
        for n in range(1, 6):
            labeled = _all_labeled_strict_orders(n)
            assert len(labeled) == expected_counts[n]
            elements = tuple(f"x{k}" for k in range(n))
            for strict in labeled:
                pairs = {(elements[a], elements[b]) for a, b in strict}
                _check_recovery(OrderMatrix.from_pairs(elements, pairs))
        rng = random.Random(606)
        for _ in range(50):
            _check_recovery(random_poset(6, rng.uniform(0.0, 0.9), seed=rng.randrange(2**32)))
        elapsed = perf_counter() - start
        assert elapsed < 30.0


def test_criterion_7_determinism(fuzz_corpus):
    with criterion(7, "byte-identical outputs"):
        grid_path = str(TWELVE_MODELS_PATH)
        commands = (
            ["analyze", grid_path, "--json"],
            ["analyze", grid_path, "--text"],
            ["hasse", grid_path, "--dot"],
            ["hasse", grid_path, "--json"],
        )
        for command in commands:
            outputs = set()
            for run in range(5):
                env = dict(os.environ, PYTHONHASHSEED=str(run))
                result = subprocess.run(
                    [sys.executable, "-m", "surmise", *command],
                    capture_output=True,
                    env=env,
                )
                assert result.returncode == 0, result.stderr
                outputs.add(result.stdout)
            assert len(outputs) == 1

        alpha = Flexibility(2500)

        def render(table) -> str:
            report = analyze(table, alpha, include_counts=True)
            diagram = transitive_reduction(order_matrix(table, alpha))
            return emit_report(report, "json") + "".join(dot_chunks(diagram))

        serial = [render(t) for t in fuzz_corpus]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(render, fuzz_corpus))
        assert serial == parallel
        assert serial == [render(t) for t in fuzz_corpus]


def test_reports_stay_consistent_across_flexibilities(fuzz_corpus):
    # Report-level invariants: the covering edges are a subset of the
    # relation, close back to it, and every layered name is a
    # representative.
    for table in fuzz_corpus[:50]:
        for alpha in (Flexibility(0), Flexibility(3000)):
            report = analyze(table, alpha)
            relation = set(report.relation)
            hasse = set(report.hasse)
            assert hasse <= relation
            reps = set(report.classes.representatives)
            closure = oracles.closure_pairs(hasse, tuple(reps))
            assert closure == relation | {(r, r) for r in reps}
            for group in report.layers:
                assert set(group) <= reps
            payload = json.loads(emit_report(report, "json"))
            assert payload["relation"] == [list(p) for p in report.relation]
