"""Differential and property tests for the bitset column kernel.

Larger seeded tables than the fuzz corpus (up to 64 targets x 300
models) are checked stage by stage against the brute-force references in
``oracles``: classes, the flexible relation, covering edges and the order
axiom diagnostics.
"""
from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from surmise import (
    Flexibility,
    OrderMatrix,
    build_table,
    natural_key,
    order_matrix,
    transitive_reduction,
    verify_partial_order,
)
from surmise.order import _edge_holds

import oracles
from test_table import small_tables

DIFFERENTIAL_SEED = 20261017
DIFFERENTIAL_ALPHAS = ("0", "10", "19.99", "49.99")
# (targets, models, noise): one table at the largest size, plus shapes
# with few models (many identical columns) and many models.
DIFFERENTIAL_SHAPES = ((64, 300, 0.6), (64, 12, 0.8), (40, 60, 0.3), (24, 300, 1.0))


def natural_pair_key(pair: tuple[str, str]) -> tuple:
    return natural_key(pair[0]), natural_key(pair[1])


def latent_rows(rng: random.Random, u: int, v: int, noise: float) -> list[list[int]]:
    """Judgments from a difficulty/ability model, so the order has depth."""
    difficulty = [rng.gauss(0.0, 1.0) for _ in range(u)]
    ability = [rng.gauss(0.0, 1.0) for _ in range(v)]
    rows = [
        [1 if a - d + rng.gauss(0.0, noise) > 0.0 else 0 for d in difficulty]
        for a in ability
    ]
    for _ in range(u // 8):  # plant some duplicate columns
        src, dst = rng.sample(range(u), 2)
        for row in rows:
            row[dst] = row[src]
    return rows


def differential_tables():
    rng = random.Random(DIFFERENTIAL_SEED)
    for u, v, noise in DIFFERENTIAL_SHAPES:
        rows = latent_rows(rng, u, v, noise)
        table = build_table(
            [f"t{j}" for j in range(u)], [f"m{i}" for i in range(v)], rows
        )
        yield rows, table


def test_kernel_matches_oracles_on_seeded_tables():
    for rows, table in differential_tables():
        names = table.target_names
        blocks = oracles.identical_column_blocks(rows)
        class_of = {j: block for block in blocks for j in block}

        for p in (0, len(names) // 2, len(names) - 1):
            for q in range(len(names)):
                n1 = sum(1 for row in rows if row[p] and row[q])
                n2 = sum(1 for row in rows if row[p] and not row[q])
                n3 = sum(1 for row in rows if not row[p] and row[q])
                assert table.pair_counts(p, q) == (n1, n2, n3, len(rows) - n1 - n2 - n3)

        for percent in DIFFERENTIAL_ALPHAS:
            matrix = order_matrix(table, Flexibility.parse(percent))
            assert {frozenset(b) for b in matrix.classes.blocks} == {
                frozenset(names[j] for j in block) for block in blocks
            }

            # Every target pair: related by the oracle iff the two are in
            # one class or their representatives are a strict pair.
            relation = oracles.threshold_relation(rows, Fraction(percent))
            rep_of = {j: names[max(class_of[j])] for j in range(len(names))}
            pairs = matrix.pairs()
            assert list(pairs) == sorted(pairs, key=natural_pair_key)
            strict = set(pairs)
            for p in range(len(names)):
                for q in range(len(names)):
                    expected = (p, q) in relation
                    got = rep_of[p] == rep_of[q] or (rep_of[p], rep_of[q]) in strict
                    assert got == expected, (percent, names[p], names[q])

            diagram = transitive_reduction(matrix)
            assert list(diagram.edges) == sorted(diagram.edges, key=natural_pair_key)
            assert set(diagram.edges) == oracles.covering_pairs(strict)


def _corrupt(bits: list[list[bool]], rng: random.Random, flips: int) -> None:
    size = len(bits)
    for _ in range(flips):
        i, j = rng.randrange(size), rng.randrange(size)
        bits[i][j] = not bits[i][j]


def test_verify_matches_triple_loop_oracle():
    rng = random.Random(DIFFERENTIAL_SEED + 1)
    checked = failing = 0
    for case in range(600):
        size = rng.randint(0, 9)
        names = tuple(f"n{k}" for k in range(size))
        style = case % 3
        if style == 0:  # unstructured: mostly fails several axioms
            density = rng.random()
            bits = [[rng.random() < density for _ in range(size)] for _ in range(size)]
        else:  # a genuine order, left intact or with one or two bits flipped
            rows = latent_rows(rng, max(size, 1), rng.randint(1, 12), 0.5)
            table = build_table(
                [f"n{k}" for k in range(len(rows[0]))],
                [f"m{i}" for i in range(len(rows))],
                rows,
            )
            matrix = order_matrix(table, Flexibility(rng.choice((0, 1000, 4999))))
            names = matrix.reps
            bits = [[bool(row >> j & 1) for j in range(len(names))] for row in matrix.rows]
            if style == 2 and bits:
                _corrupt(bits, rng, rng.randint(1, 2))
        rows = tuple(sum(1 << j for j, bit in enumerate(row) if bit) for row in bits)
        matrix = OrderMatrix(reps=names, rows=rows)
        diagnostics = verify_partial_order(matrix)
        witnesses = oracles.order_axiom_witnesses(names, bits)
        assert (
            diagnostics.reflexivity_witness,
            diagnostics.antisymmetry_witness,
            diagnostics.transitivity_witness,
        ) == witnesses
        assert (
            diagnostics.reflexive,
            diagnostics.antisymmetric,
            diagnostics.transitive,
        ) == tuple(w is None for w in witnesses)
        checked += 1
        failing += not diagnostics.ok
    assert checked == 600
    assert 100 < failing < 500  # both outcomes are well represented


@given(
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(0, 4999),
)
def test_threshold_lemma(n2, n3, bp):
    # 10000*n3 <= bp*(n2+n3)  <=>  n3*(10000 - 2bp) <= bp*(n2 - n3),
    # where n2 - n3 = |S_p| - |S_q|: the form that chains transitively.
    assert _edge_holds(n2, n3, bp) == (
        n3 * (10000 - 2 * bp) <= bp * (n2 - n3)
    )


@given(small_tables(max_targets=6, max_models=8), st.integers(0, 4999))
def test_strict_edges_shrink_the_support(table, bp):
    matrix = order_matrix(table, Flexibility(bp))
    column = {name: j for j, name in enumerate(table.target_names)}
    cells = oracles.cells_of(table)
    size = {name: sum(row[column[name]] for row in cells) for name in matrix.reps}
    for p, q in matrix.pairs():
        assert size[p] > size[q]
