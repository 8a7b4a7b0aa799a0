"""The flexible prerequisite order over a judgment table.

An edge p -> q is accepted when at most a fixed percentage of the models
that split on the pair judged q correctly while missing p.  At 0%
flexibility this is exactly support containment.  Mutually ordered
targets are equivalent (for any flexibility below 50% this collapses to
"identical columns"), so the order matrix lives on class representatives
and is a genuine partial order: reflexive, anti-symmetric, transitive.
"""
from __future__ import annotations

from functools import reduce
from itertools import chain, compress, repeat
from math import gcd
from operator import getitem, or_
from typing import Iterable, Iterator, Sequence

from .table import (
    Flexibility,
    Frozen,
    JudgmentTable,
    NamePartition,
    ZERO_FLEXIBILITY,
    _check_names,
    _check_strs,
    bit_flags,
    check_masks,
    check_natural_order,
    natural_sorted,
    or_selected,
    picked,
    transpose,
)

__all__ = [
    "OrderAxiomError",
    "EquivalenceClasses",
    "OrderMatrix",
    "OrderDiagnostics",
    "equivalence_classes",
    "order_matrix",
    "verify_partial_order",
]


class OrderAxiomError(RuntimeError):
    """An order matrix failed verification; this signals a bug, not bad data."""


def named_rows(items: Sequence[str], masks: Iterable[int]) -> Iterator[tuple[str, list[str]]]:
    """(items[i], [items[j] for each set bit j of masks[i]]) for each row i,
    in index order; each mask is a mask over the items.  A row's items
    are picked by ``compress`` on its ``bit_flags``, with no index list,
    and only when that row is reached."""
    for item, mask in zip(items, masks):
        yield item, list(compress(items, bit_flags(mask)))


def _edge_holds(n2: int, n3: int, basis_points: int) -> bool:
    """The threshold test for p -> q on the pair's p-only (n2) and q-only
    (n3) model counts: 10000*n3 <= bp*(n2+n3), exact in integers.

    Why it is a partial order on supports for bp < 5000.  With
    n2 - n3 = |S_p| - |S_q| the test rearranges to

        n3*(10000 - 2*bp) <= bp*(|S_p| - |S_q|)                     (*)

    - Anti-symmetry: (*) for (p, q) plus (*) for (q, p) gives
      (n2 + n3)*(10000 - 2*bp) <= 0, so n2 = n3 = 0: identical columns.
    - Transitivity: for p -> q -> r, |S_r - S_p| <= |S_r - S_q| +
      |S_q - S_p|; multiplying by 10000 - 2*bp > 0 and applying (*) to
      (q, r) and (p, q) bounds the left side by bp*(|S_p| - |S_r|), which
      is (*) for (p, r).
    - Size order: the left side of (*) is >= 0, so |S_p| >= |S_q|, and
      equal sizes force n3 = 0 and then n2 = 0.  A strict edge between
      different columns thus goes from a larger support to a smaller one.

    Both row kernels of ``order_matrix`` test (*) in one form, (**) of
    ``_lane_terms``.
    """
    return 10000 * n3 <= basis_points * (n2 + n3)


class EquivalenceClasses(NamePartition):
    """Partition of the targets by mutual order (= identical columns).

    Members of a block are natural-sorted; a block is labeled by its LAST
    member, which subsumes the earlier ones (a class {t0, t1} reads
    "t1 (=t0)").  Blocks are ordered by that label.
    """

    LABEL = -1


def equivalence_classes(table: JudgmentTable) -> EquivalenceClasses:
    """Group targets that are ordered both ways at any flexibility.

    Mutual order below 50% flexibility forces n2 = n3 = 0, i.e. identical
    judgment columns (see ``_edge_holds``), so the blocks are the targets
    with equal support masks.
    """
    return EquivalenceClasses.from_keys(table.target_names, table.support_masks)


class OrderMatrix(Frozen):
    """Boolean matrix of the prerequisite order over class representatives.

    ``reps`` are distinct and in natural order, so index order is natural
    order: ascending bits of a row list its successors natural-sorted.
    ``rows[i]`` is row i as an int mask: bit j means reps[i] -> reps[j]
    (reps[i] is a prerequisite of reps[j]).  ``diagnostics`` is the result
    of checking the order axioms, ``covers[i]`` the mask of the nodes
    covering reps[i] (meaningful when ``diagnostics.ok``) and
    ``layers[k]`` the mask of the nodes whose longest chain below has k
    edges (None unless ``diagnostics.ok``); all three come from one pass,
    at construction, so every matrix (also a hand-built one) is checked
    exactly once.  ``classes`` carries the member lists behind
    the representatives and must be labeled by ``reps``, so
    ``classes.blocks[i]`` holds the members of reps[i]; when it is not
    given, each representative is its own singleton class.  A partition
    checks the natural order of its labels itself, so ``reps`` that are
    the labels of ``classes`` are not ranked again; ``reps`` the matrix
    ranks itself are also checked as a table checks its names
    (``TableError`` on a forbidden character or an empty name, and, before
    they are ranked, on a name that is not a ``str``).
    """

    _fields = ("reps", "rows", "classes")

    def __init__(
        self, reps: Sequence[str], rows: Sequence[int],
        classes: EquivalenceClasses | None = None,
    ) -> None:
        reps, rows = tuple(reps), tuple(rows)
        labels = None if classes is None else classes.representatives
        if labels != reps:  # a partition's labels are checked names, natural-sorted
            _check_strs("representative", reps)
            check_natural_order("representatives", reps)
            _check_names("representative", "positions", reps)
        if len(rows) != len(reps):
            raise ValueError(f"{len(rows)} rows for {len(reps)} representatives")
        check_masks("row", rows, len(reps))
        if classes is None:
            classes = EquivalenceClasses._of_ordered(tuple(zip(reps)))
        elif labels != reps:
            raise ValueError(f"classes labeled {labels!r} for representatives {reps!r}")
        diagnostics, covers, layers = _check_axioms(reps, rows)
        self.__dict__.update(
            reps=reps, rows=rows, classes=classes, diagnostics=diagnostics, covers=covers,
            layers=layers,
        )

    @property
    def strict_rows(self) -> list[int]:
        """``rows`` with the diagonal bit cleared."""
        return [row & ~(1 << i) for i, row in enumerate(self.rows)]

    def successors(self) -> Iterator[tuple[str, list[str]]]:
        """(p, [q, ...]) for each row of ``strict_rows``, in index order: p's
        strict successors, natural-sorted (empty for a maximal p)."""
        return named_rows(self.reps, self.strict_rows)

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """All strict ordered pairs (p, q), natural-sorted: ``successors``
        flattened."""
        return tuple(chain.from_iterable(zip(repeat(p), qs) for p, qs in self.successors()))

    @classmethod
    def from_pairs(
        cls, elements: list[str] | tuple[str, ...], pairs: set[tuple[str, str]] | list[tuple[str, str]]
    ) -> "OrderMatrix":
        """Build a matrix from strict pairs plus the reflexive diagonal.

        A repeated element, or a pair naming an element not in
        ``elements``, raises ``ValueError``, and an element that breaks
        the table's name rules ``TableError`` (one that is not a ``str``
        before any is ranked); whether the result is a
        partial order is told by ``diagnostics`` (or verify_partial_order),
        not raised.  The elements are ranked once, to sort them: their
        singleton classes are labeled by the sorted names, so the matrix
        does not rank them again.
        """
        _check_strs("element", elements)
        reps = tuple(natural_sorted(elements))
        index = {name: i for i, name in enumerate(reps)}
        if len(index) < len(reps):
            check_natural_order("representatives", reps)  # names the repeated element
        _check_names("element", "positions", elements)
        rows = [1 << i for i in range(len(reps))]
        for p, q in pairs:
            try:
                rows[index[p]] |= 1 << index[q]
            except KeyError as exc:
                raise ValueError(
                    f"pair {(p, q)!r} names an unknown element {exc.args[0]!r}"
                ) from None
        return cls(reps=reps, rows=rows, classes=EquivalenceClasses._of_ordered(tuple(zip(reps))))


class OrderDiagnostics(Frozen):
    """The first counterexample to each order axiom, or None where it holds."""

    _fields = ("reflexivity_witness", "antisymmetry_witness", "transitivity_witness")

    def __init__(
        self, reflexivity_witness: str | None = None,
        antisymmetry_witness: tuple[str, str] | None = None,
        transitivity_witness: tuple[str, str, str] | None = None,
    ) -> None:
        self.__dict__.update(
            reflexivity_witness=reflexivity_witness,
            antisymmetry_witness=antisymmetry_witness,
            transitivity_witness=transitivity_witness,
        )

    @property
    def reflexive(self) -> bool:
        return self.reflexivity_witness is None

    @property
    def antisymmetric(self) -> bool:
        return self.antisymmetry_witness is None

    @property
    def transitive(self) -> bool:
        return self.transitivity_witness is None

    @property
    def ok(self) -> bool:
        return self.reflexive and self.antisymmetric and self.transitive

    def summary(self) -> str:
        checks = (
            ("reflexivity", self.reflexive, self.reflexivity_witness),
            ("anti-symmetry", self.antisymmetric, self.antisymmetry_witness),
            ("transitivity", self.transitive, self.transitivity_witness),
        )
        return "; ".join(f"{axiom}: pass" if ok else f"{axiom}: FAIL at {witness!r}"
                         for axiom, ok, witness in checks)


def _check_axioms(
    reps: Sequence[str], up: Sequence[int]
) -> tuple[OrderDiagnostics, tuple[int, ...], tuple[int, ...] | None]:
    """Check reflexivity, anti-symmetry and transitivity, and find the
    covering successors and the drawing layers of every node; never
    raises.

    Each witness is the first failure in the scan order i, then j, then
    k.  Works on row bitmasks.  ``implied[i]`` is the OR of the strict
    rows of everything strictly above i, for every row at once
    (``table.or_selected``, by Four Russians: (256 + c)·⌈c/8⌉ ORs for c
    nodes).  Some j != i has i -> j -> i iff ``implied[i]`` has bit i;
    the first such i has only larger partners, as a smaller partner
    would be such an i itself.  Some (i, j) breaks transitivity
    (``up[j] & ~up[i]`` non-zero) iff ``implied[i]`` has a bit outside
    ``up[i]``: j's own bit is in ``up[i]``.  In a partial
    order, j covers i iff no k above i lies below j, so the covers of i
    are its strict row less ``implied[i]`` (Aho, Garey & Ullman 1972).

    The layers are masks, bottom first: layer k holds the nodes of height
    k, the length of a longest chain below them.  Let A_0 be every node
    and A_(k+1) the OR of the strict rows over A_k: the nodes of height
    > k, so layer k is A_k less A_(k+1).  Every node of A_(k+1) lies above
    a node of layer k (the one at height k on a longest chain below it),
    and every node above a node of layer k is in A_(k+1).  So the OR of
    the strict rows over A_(k+1), which is A_(k+2), is the OR of
    ``implied`` over layer k.  Starting from A_1, the OR of every strict
    row, each step ORs in the ``implied`` rows of one layer: c ORs in
    all, with no transpose, each layer's rows picked in C by
    ``table.picked``, which reads c flag bytes in all up a chain.  The
    layers are None unless the diagnostics pass (on a cycle the sets
    never shrink).
    """
    size = len(reps)
    strict = [row & ~(1 << i) for i, row in enumerate(up)]

    reflexivity_witness = next(
        (reps[i] for i in range(size) if not up[i] >> i & 1), None
    )

    implied = or_selected(strict, strict)
    # Only the first failing row pays for each witness search.
    antisymmetry_witness = None
    i = next((i for i in range(size) if implied[i] >> i & 1), None)
    if i is not None:
        j = next(j for j in picked(range(size), strict[i]) if strict[j] >> i & 1)
        antisymmetry_witness = (reps[i], reps[j])
    transitivity_witness = None
    i = next((i for i in range(size) if implied[i] & ~up[i]), None)
    if i is not None:
        j = next(j for j in picked(range(size), up[i]) if up[j] & ~up[i])
        k = next(picked(range(size), up[j] & ~up[i]))
        transitivity_witness = (reps[i], reps[j], reps[k])
    covers = [row & ~implied_row for row, implied_row in zip(strict, implied)]

    diagnostics = OrderDiagnostics(reflexivity_witness, antisymmetry_witness, transitivity_witness)
    if not diagnostics.ok:
        return diagnostics, tuple(covers), None
    layers = []
    level, above = (1 << size) - 1, reduce(or_, strict, 0)
    while level:
        layers.append(level & ~above)
        level, above = above, reduce(or_, picked(implied, layers[-1]), 0)
    return diagnostics, tuple(covers), tuple(layers)


def verify_partial_order(matrix: OrderMatrix) -> OrderDiagnostics:
    """Reflexivity, anti-symmetry and transitivity of the matrix, with the
    first witness of each failure; never raises.  The check ran once, when
    the matrix was built (``OrderMatrix.diagnostics``)."""
    return matrix.diagnostics


def _size_order_rows(
    masks: Sequence[int], sizes: Sequence[int], models: int, basis_points: int
) -> list[int]:
    """The order rows over distinct supports by the size-order kernel.

    Row p is every q with a*n3 + b*|S_q| <= b*|S_p|, (**) of
    ``_lane_terms``, n3 the popcount of S_q less S_p.  As (**) fails for
    every other q of a support as large as S_p's, the classes are walked
    by ascending support size and each is tested only against the
    classes before it."""
    a, b, _ = _lane_terms(models, basis_points)
    every_model = (1 << models) - 1
    rows = [1 << i for i in range(len(masks))]
    before: list[tuple[int, int, int]] = []  # (mask, b*size, row bit) of the classes before p
    for p in sorted(range(len(masks)), key=sizes.__getitem__):
        outside = every_model ^ masks[p]  # not ~masks[p]: & on a negative int is slower
        bound = b * sizes[p]
        hits = [
            bit for mask, weight, bit in before
            if a * (mask & outside).bit_count() + weight <= bound
        ]
        rows[p] |= sum(hits)  # distinct bits, so the sum is their OR
        before.append((masks[p], bound, 1 << p))
    return rows


def _lane_terms(models: int, basis_points: int) -> tuple[int, int, int]:
    """(a, b, k) of the edge test that both row kernels run: (*) of
    ``_edge_holds`` divided by g = gcd(10000 - 2*bp, bp) reads

        a*n3 + b*|S_q| <= b*|S_p|                                    (**)

    with a = (10000 - 2*bp)/g >= 1 and b = bp/g.  At 0%, a = 1 and b = 0,
    so (**) reads n3 = 0: support containment.  For distinct columns
    with |S_q| >= |S_p|, S_q is not inside S_p, so a*n3 >= 1 and (**)
    fails by itself: skipping such pairs (``_size_order_rows``) or
    testing them (``_lane_rows``) gives the same rows.  k is the smallest
    multiple of 8 with (a + b)*models < 2**(k - 1), so every lane of
    ``_lane_rows`` stays below 2**k."""
    scale = 10000 - 2 * basis_points
    g = gcd(scale, basis_points)
    a, b = scale // g, basis_points // g
    return a, b, ((a + b) * models).bit_length() + 8 & ~7


# A model block of the lane kernel: 4 models, a table of 16 subset sums.
_LOW_NIBBLE = bytes(k & 15 for k in range(256))
_HIGH_NIBBLE = bytes(k >> 4 for k in range(256))
# A lane's top byte as the digit of its class's row bit: "1" iff the guard bit is clear.
_GUARD_DIGITS = b"1" * 128 + b"0" * 128


def _lane_rows(
    masks: Sequence[int], sizes: Sequence[int], models: int, basis_points: int
) -> list[int]:
    """The order rows over distinct supports by the lane-sum kernel.

    Row p is every q with (**) of ``_lane_terms``, n3 = |S_q - S_p|,
    tested for all q at once: class q is lane q, k bits wide, of one int.
    ``lanes[i]`` holds a in lane q when model i is in S_q, so n3 for every
    q, times a, is the sum of ``lanes[i]`` over the models i outside S_p.
    That sum is taken by 4-model blocks (Method of Four Russians, as
    ``table.or_selected`` takes ORs): each block's table holds its 16
    subset sums, and a row adds one entry per block, picked by a nibble
    of S_p's complement.  Adding b*|S_q| + 2**(k-1) - 1 - b*|S_p| in lane
    q sets the lane's top (guard) bit exactly when q is not in row p;
    every lane stays in [0, 2**k), so no lane carries into the next.  The
    guard bytes are read off as the row's binary digits, so the rows come
    out in index order with no size sort.  The rows are the outer loop,
    so beside the tables only one sum is alive at a time."""
    a, b, k = _lane_terms(models, basis_points)
    width = k // 8
    count = len(masks)
    lanes = []
    for column in transpose(masks, models):
        spread = bytearray(count * width)
        spread[::width] = bit_flags(column | 1 << count)[:count]
        lanes.append(a * int.from_bytes(spread, "little"))
    tables = []
    for start in range(0, models, 4):
        table = [0]
        for lane in lanes[start : start + 4]:
            table += [entry + lane for entry in table]
        tables.append(table)
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * count, "little")
    guard = (1 << k - 1) - 1
    base = sum(b * size << k * q for q, size in enumerate(sizes)) + guard * ones
    bases = {size: base - b * size * ones for size in set(sizes)}
    low_tables, high_tables = tables[0::2], tables[1::2]
    every_model = (1 << models) - 1
    nibble_bytes = (models + 7) // 8
    rows = []
    for mask, size in zip(masks, sizes):
        outside = (every_model ^ mask).to_bytes(nibble_bytes, "little")
        total = sum(map(getitem, low_tables, outside.translate(_LOW_NIBBLE)), bases[size])
        total = sum(map(getitem, high_tables, outside.translate(_HIGH_NIBBLE)), total)
        top_bytes = total.to_bytes(count * width, "big")[::width]  # last lane first
        rows.append(int(top_bytes.translate(_GUARD_DIGITS), 2))
    return rows


def _lanes_win(classes: int, models: int, lane_bits: int) -> bool:
    """Whether the lane kernel is expected to be faster than the size-order
    kernel on ``classes`` distinct supports over ``models`` models, with
    lanes ``lane_bits`` wide: a count of operations, in units of one
    size-order pair test (about 100 ns on the machine below).

    - Size order: c²/2 pair tests, each an AND and a popcount of m-bit
      ints, which costs 1/1300 of a test more per model.
    - Lanes: 15 per model (its lane int and its share of the block
      tables), 20 per row (reading the guard bits), and ⌈m/4⌉ block
      sums per row, each 0.75 plus 1/3000 per bit of its c·k-bit int.

    The constants are a least-squares fit of both kernels' in-process
    times on ``bench/gen.py`` tables from 10 × 100 to 4000 × 300 (noise
    0.6, bp 0, 1 and 1000; Python 3.11.7, 2-vCPU x86-64 Linux VM).  Lanes
    win when the classes far outnumber the models: at 400 × 40 the
    kernel takes 2-3 ms against 7 ms, at 4000 × 300 0.63 s against
    1.1-1.4 s; at 1000 × 1000 (0.14 s against 0.07-0.08 s) and 40 × 8000
    (25-35 ms against 1 ms) the size order wins.
    """
    blocks = (models + 3) // 4
    lane_cost = 15 * models + 20 * classes + blocks * classes * (0.75 + classes * lane_bits / 3000)
    size_cost = classes * classes / 2 * (1 + models / 1300)
    return lane_cost < size_cost


def order_matrix(
    table: JudgmentTable, alpha: Flexibility = ZERO_FLEXIBILITY
) -> OrderMatrix:
    """The prerequisite order over class representatives.

    Row p holds every class q with p -> q over the c distinct supports of
    the m models: every q with a*n3 + b*|S_q| <= b*|S_p|, (**) of
    ``_lane_terms``, which also says why no q of a support as large as
    S_p's passes.  One of two kernels builds the rows:

    - size order (``_size_order_rows``): the classes walked by ascending
      support size, each tested against the classes before it, one
      popcount of n3 per pair, about c²/2 tests of m-bit ints;
    - lane sums (``_lane_rows``): (**) for all q at once, class q in
      lane q, k bits wide, of one int.  A row is ⌈m/4⌉ sums of c*k-bit
      ints, one per block of 4 models.  Lane q then holds a*n3 + b*|S_q| +
      2**(k-1) - 1 - b*|S_p|, which lies in [0, 2**k) as (a + b)*m <
      2**(k-1), so its top (guard) bit is set exactly when the test
      fails; the row is read off the guard bits.

    ``_lanes_win`` picks the kernel from c, m and k alone, by operation
    count (its constants are given there): lanes when the classes far
    outnumber the models, as at 400 × 40 or 4000 × 300, the size order
    when the models are many, as at 40 × 8000 or 1000 × 1000.  Both give
    the same rows, and everything after them is shared.  The result is
    verified against the three order axioms, by the one pass that also
    finds its covers and drawing layers (``_check_axioms``); a failure is
    an internal bug and is raised, never ignored.
    """
    classes = equivalence_classes(table)
    reps = classes.representatives
    columns = [table.target_index(rep) for rep in reps]
    masks = [table.support_masks[j] for j in columns]
    sizes = [table.support_sizes[j] for j in columns]
    models, basis_points = table.model_count, alpha.basis_points
    lane_bits = _lane_terms(models, basis_points)[2]
    kernel = _lane_rows if _lanes_win(len(reps), models, lane_bits) else _size_order_rows
    rows = kernel(masks, sizes, models, basis_points)
    matrix = OrderMatrix(reps=reps, rows=rows, classes=classes)
    if not matrix.diagnostics.ok:
        raise OrderAxiomError(
            f"order axioms violated on {len(reps)} representatives: "
            f"{matrix.diagnostics.summary()}"
        )
    return matrix
