"""Differential and property tests for the one-pass CSV reader.

``parse_csv`` accepts the whole body with a few string tests and scans
the lines only to name a fault; ``oracles.parse_csv_reference`` splits
and checks every cell, validates the whole table again and packs the
support masks cell by cell.  On valid tables, on single faults, on pairs
of faults and on one-character edits both must give an equal table with
equal support masks, or the same exception class with the same message;
the row views of the table must be the reference's rows.

``parse_csv`` reads its input one block of whole lines at a time.  Every
comparison is also made with the block size patched down to a few bytes,
so that blocks end inside a line, inside a CRLF and inside a UTF-8
sequence, and with the input given as bytes, as str, as an open binary
file and as a file that cannot seek.
"""
from __future__ import annotations

import io
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from surmise import (
    CsvError,
    JudgmentTable,
    TableError,
    build_table,
    csv_chunks,
    parse_csv,
)
import surmise.io

import oracles

INGEST_SEED = 20261018
# Names the CSV reader must carry through unchanged: digits of other
# scripts, spaces, a dot, non-ASCII letters.
ODD_NAMES = ("a b", "x²", "été", "m.1", "t01", "٣")
# The single-character faults keep the line at the accepted length.
CELL_FAULTS = ("2", " 1", "", "11", "1.0", " ", "\r", "²")


def outcome(parse, data):
    try:
        table = parse(data)
    except (CsvError, TableError) as exc:
        return type(exc), str(exc)
    return table, table.support_masks


class Pipe(io.BytesIO):
    """A binary file that cannot seek, as a pipe."""

    def seekable(self) -> bool:
        return False


def sources(data: bytes | str):
    """The same input as bytes, as str (when it is valid UTF-8), as an
    open binary file and as a pipe."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    yield raw
    try:
        yield raw.decode("utf-8")
    except UnicodeDecodeError:
        pass
    yield io.BytesIO(raw)
    yield Pipe(raw)


BLOCK_SIZES = (1, 2, 7, 64)


def assert_same(data: bytes | str, block_sizes=BLOCK_SIZES) -> None:
    expected = outcome(oracles.parse_csv_reference, data)
    assert outcome(parse_csv, data) == expected
    for size in block_sizes:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surmise.io, "_BLOCK", size)
            for source in sources(data):
                assert outcome(parse_csv, source) == expected, (size, source)


def random_lines(rng: random.Random) -> list[str]:
    """Header and body lines of a valid table with 1-12 targets, 1-20 models."""
    u, v = rng.randint(1, 12), rng.randint(1, 20)
    targets = [f"t{j}" for j in range(u)]
    models = [f"M{i}" for i in range(v)]
    for names in (targets, models):
        for k, odd in enumerate(rng.sample(ODD_NAMES, rng.randint(0, min(2, len(names))))):
            names[k] = odd
    lines = ["model," + ",".join(targets)]
    for name in models:
        lines.append(name + "," + ",".join(rng.choice("01") for _ in range(u)))
    return lines


def render(lines: list[str], ending: str, trailing: bool) -> bytes:
    return (ending.join(lines) + (ending if trailing else "")).encode("utf-8")


def mutate(rng: random.Random, lines: list[str], kind: str) -> None:
    """Apply one named fault to the lines of a table with at least one
    body line, in place; a fault that no longer fits (a cell fault on a
    line without cells) leaves the lines as they are."""
    body = rng.randrange(1, len(lines))
    if kind in CELL_FAULTS:
        cells = lines[body].split(",")
        if len(cells) > 1:
            cells[rng.randrange(1, len(cells))] = kind
        lines[body] = ",".join(cells)
    elif kind == "extra comma":
        at = rng.randrange(len(lines[body]) + 1)
        lines[body] = lines[body][:at] + "," + lines[body][at:]
    elif kind in ("missing comma", "semicolon for comma"):
        commas = [k for k, ch in enumerate(lines[body]) if ch == ","]
        if commas:
            at = rng.choice(commas)
            keep = ";" if kind == "semicolon for comma" else ""
            lines[body] = lines[body][:at] + keep + lines[body][at + 1 :]
    elif kind == "blank line":
        lines.insert(rng.randrange(1, len(lines) + 1), "")
    elif kind == "lone CR":
        at = rng.randrange(len(lines[body]) + 1)
        lines[body] = lines[body][:at] + "\r" + lines[body][at:]
    elif kind == "duplicate target":
        header = lines[0].split(",")
        if len(header) > 2:
            header[-1] = header[1]
        lines[0] = ",".join(header)
    elif kind == "duplicate model":
        lines.append(lines[1])
    elif kind == "quote in target":
        header = lines[0].split(",")
        if len(header) > 1:
            header[rng.randrange(1, len(header))] += '"'
        lines[0] = ",".join(header)
    elif kind == "quote in model":
        lines[body] = '"' + lines[body]
    elif kind == "empty model name":
        _, comma, rest = lines[body].partition(",")
        lines[body] = comma + rest
    elif kind == "no targets":
        lines[0] = "model"
    elif kind == "no rows":
        del lines[1:]
    else:
        raise AssertionError(kind)


FAULTS = CELL_FAULTS + (
    "extra comma",
    "missing comma",
    "semicolon for comma",
    "blank line",
    "lone CR",
    "duplicate target",
    "duplicate model",
    "quote in target",
    "quote in model",
    "empty model name",
    "no targets",
    "no rows",
)
LAYOUTS = [(ending, trailing) for ending in ("\n", "\r\n") for trailing in (True, False)]


@pytest.mark.parametrize("ending,trailing", LAYOUTS)
def test_valid_tables_match_reference(ending, trailing):
    rng = random.Random(INGEST_SEED)
    for _ in range(60):
        data = render(random_lines(rng), ending, trailing)
        assert isinstance(parse_csv(data), JudgmentTable)
        assert_same(data)


@pytest.mark.parametrize("ending,trailing", LAYOUTS)
@pytest.mark.parametrize("kind", FAULTS)
def test_single_fault_matches_reference(kind, ending, trailing):
    rng = random.Random(f"{INGEST_SEED}:{kind}")
    for _ in range(12):
        lines = random_lines(rng)
        mutate(rng, lines, kind)
        assert_same(render(lines, ending, trailing))


def test_every_fault_is_rejected():
    """The mutations are real faults (the lone CR aside, which LF input
    may strip as a line ending), so the comparisons above compare errors."""
    rng = random.Random(INGEST_SEED)
    for kind in FAULTS:
        if kind == "lone CR":
            continue
        for _ in range(12):
            lines = random_lines(rng)
            if kind == "duplicate target" and lines[0].count(",") < 2:
                continue
            mutate(rng, lines, kind)
            with pytest.raises((CsvError, TableError)):
                parse_csv(render(lines, "\n", True))


def test_pairs_of_faults_match_reference():
    rng = random.Random(f"{INGEST_SEED}:pairs")
    for _ in range(400):
        lines = random_lines(rng)
        # Deleting the body goes last, so the other fault has a line to hit.
        for kind in sorted(rng.sample(FAULTS, 2), key=lambda k: k == "no rows"):
            mutate(rng, lines, kind)
        ending, trailing = rng.choice(LAYOUTS)
        assert_same(render(lines, ending, trailing))


@pytest.mark.parametrize(
    "text,error,message",
    [
        # Cell and shape faults are reported in line order...
        ("m,a,b\nM1,0,2\nM2,0\n", CsvError, "cell at line 2, column 2 (target 'b') is '2'"),
        ("m,a,b\nM1,0\nM2,0,2\n", CsvError, "row at line 2 has 2 cells, expected 3"),
        # ...before any name fault, whichever line holds it...
        ('m,a,a\nM"1,0,1\nM2,1,x\n', CsvError, "cell at line 3, column 2 (target 'a') is 'x'"),
        # ...and target names are checked before model names.
        ("m,a,a\nM1,0,1\nM1,1,1\n", TableError, "duplicate target name 'a' (columns 0 and 1)"),
        ('m,a,b\nM1,0,1\n"M2",1,1\nM1,0,0\n', TableError, "model name '\"M2\"' at position 1"),
        # A lone "\r" inside a header name is part of the name, and forbidden.
        ("m,a\r,b\nM1,0,1\n", TableError, "target name 'a\\r' at position 0 contains forbidden"),
        ("m\n\n", CsvError, "header row declares no targets"),
        ("m,a\n\n", CsvError, "row at line 2 has 1 cells, expected 2"),
        ("m,a\n", CsvError, "CSV has a header but no model rows"),
        ("\r\n\n", CsvError, "empty CSV input"),
    ],
)
def test_which_error_wins(text, error, message):
    with pytest.raises(error) as raised:
        parse_csv(text)
    assert str(raised.value).startswith(message)
    assert_same(text)


def test_invalid_utf8_matches_reference():
    assert_same(b"model,a\nM\xff,1\n")


# Body lines built from cells, mostly of one character, so that many
# have the accepted length and comma count; plus free text.
CELL = st.sampled_from(["0", "1", "2", " ", "\r", "a", ",", "", "01", " 1"])
BODY_LINE = st.one_of(
    st.lists(CELL, max_size=6).map(lambda cells: "M," + ",".join(cells)),
    st.text(alphabet="01, 2\r\"ab", max_size=12),
)


@settings(max_examples=500, deadline=None)
@given(targets=st.integers(1, 4), line=BODY_LINE)
def test_any_body_line_matches_reference(targets, line):
    """The one-test acceptance of a line agrees with the per-cell scan."""
    header = "model," + ",".join(f"t{j}" for j in range(targets))
    assert_same(header + "\n" + line + "\n")


NAME = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters=',"\r\n\\'
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def tables(draw):
    u = draw(st.integers(1, 30))
    v = draw(st.integers(1, 60))
    targets = draw(st.lists(NAME, min_size=u, max_size=u, unique=True))
    models = draw(st.lists(NAME, min_size=v, max_size=v, unique=True))
    bits = draw(st.integers(0, 2 ** (u * v) - 1))
    rows = [[(bits >> (i * u + j)) & 1 for j in range(u)] for i in range(v)]
    return build_table(targets, models, rows)


@settings(max_examples=80, deadline=None)
@given(tables())
def test_emit_csv_round_trips(table):
    parsed = parse_csv("".join(csv_chunks(table)))
    assert parsed == table
    assert parsed.support_masks == table.support_masks


# Model names made of 0/1 digits look like cells to a reader that does
# not stop at the first comma.
MODEL_NAME = st.one_of(NAME, st.from_regex(r"[01]{1,4}", fullmatch=True))


@st.composite
def csv_tables(draw):
    """The CSV bytes of a valid table, with 1 target or more, in LF or CRLF,
    with or without a line end after the last row."""
    u = draw(st.integers(1, 8))
    v = draw(st.integers(1, 12))
    targets = draw(st.lists(NAME, min_size=u, max_size=u, unique=True))
    models = draw(st.lists(MODEL_NAME, min_size=v, max_size=v, unique=True))
    rows = draw(st.lists(st.text(alphabet="01", min_size=u, max_size=u), min_size=v, max_size=v))
    lines = ["model," + ",".join(targets)]
    lines += [name + "," + ",".join(row) for name, row in zip(models, rows)]
    return render(lines, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(csv_tables())
def test_generated_tables_match_reference(data):
    assert_same(data)
    table = parse_csv(data)
    _, _, rows = oracles.csv_rows_reference(data)
    assert oracles.cells_of(table) == tuple(rows)
    assert table.row_masks == tuple(map(oracles.pack_bits, rows))


@settings(max_examples=300, deadline=None)
@given(csv_tables(), st.data())
def test_edited_tables_match_reference(data, draw):
    """One character inserted, deleted or replaced anywhere."""
    text = data.decode("utf-8")
    at = draw.draw(st.integers(0, len(text)))
    edit = draw.draw(st.sampled_from(["", "0", "1", ",", "\r", "\n", " ", "x", "²"]))
    cut = draw.draw(st.integers(0, 1))
    assert_same(text[:at] + edit + text[at + cut :])


def table_lines(u: int, v: int, seed: int) -> list[str]:
    """Header and body lines of a seeded random u x v table."""
    rng = random.Random(seed)
    lines = ["model," + ",".join(f"t{j}" for j in range(u))]
    lines += [f"m{i}," + ",".join(rng.choice("01") for _ in range(u)) for i in range(v)]
    return lines


def blocks_of(data: bytes) -> int:
    return -(-len(data) // surmise.io._BLOCK)


def test_invalid_utf8_in_a_late_block_wins_over_an_early_cell_fault():
    lines = table_lines(8, 5000, INGEST_SEED)
    lines[1] = lines[1][:-1] + "2"
    data = render(lines, "\n", True) + b"m\xff,0,0,0,0,0,0,0,0\n"
    assert blocks_of(data) > 1
    with pytest.raises(CsvError, match="^input is not valid UTF-8: "):
        parse_csv(io.BytesIO(data))
    assert_same(data, block_sizes=(7, 64))


@pytest.mark.parametrize("data", ["model,a\ud800\nM1,1\n", "model,a\nM\udc00,1\n"])
def test_a_str_with_a_lone_surrogate_is_not_utf8(data):
    # A str is encoded to UTF-8 first; a surrogate code point has no UTF-8
    # form, so the text is refused as invalid UTF-8 at every block size.
    for size in BLOCK_SIZES + (surmise.io._BLOCK,):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surmise.io, "_BLOCK", size)
            with pytest.raises(CsvError, match="^input is not valid UTF-8: "):
                parse_csv(data)


def test_a_fault_only_in_a_late_block_is_named():
    lines = table_lines(8, 5000, INGEST_SEED)
    lines[-1] = lines[-1][:-1] + "x"
    data = render(lines, "\r\n", False)
    assert blocks_of(data) > 1
    with pytest.raises(CsvError, match="^cell at line 5001, column 8 "):
        parse_csv(io.BytesIO(data))
    assert_same(data, block_sizes=(7, 64))


@pytest.mark.parametrize("fault", [None, "2", "duplicate model"])
def test_a_header_longer_than_one_block(fault):
    lines = table_lines(12000, 3, INGEST_SEED)
    if fault == "2":
        lines[2] = lines[2][:-1] + fault
    elif fault:
        lines.append(lines[1])
    data = render(lines, "\n", True)
    assert len(lines[0]) > surmise.io._BLOCK
    assert_same(data, block_sizes=(64,))


def test_crlf_split_at_every_chunk_boundary():
    """Every block size up to the whole input, so some chunk ends between
    the "\\r" and the "\\n" of each line end, and one ends after a
    "\\r" that is the input's last byte."""
    for data in (b"m,a,b\r\nM1,0,1\r\nM2,1,1\r\n", b"m,a,b\r\nM1,0,1\r\nM2,1,1\r"):
        assert_same(data, block_sizes=range(1, len(data) + 1))


def test_a_file_is_read_from_where_it_stands():
    for data in (b"m,a\nM1,1\nM2,0\n", b"m,a\nM1,1\nM2,2\n"):
        handle = io.BytesIO(b"skipped\n" + data)
        handle.readline()
        assert outcome(parse_csv, handle) == outcome(parse_csv, data)


def test_reading_a_file_holds_about_one_block_beside_the_table(tmp_path):
    """An 8000 x 40 table: 0.69 MB of CSV, a table of 0.54 MB.  Read by
    blocks, the traced peak is about 1.4 MB (Python 3.11).  Holding the
    file's bytes as well takes it to about 2.1 MB, and holding its text,
    lines and tails at once (the whole-body reader) to about 4.7 MB."""
    path = tmp_path / "tall.csv"
    path.write_bytes(render(table_lines(40, 8000, INGEST_SEED), "\n", True))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        with open(path, "rb") as handle:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = parse_csv(handle)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (table.model_count, len(table.target_names)) == (8000, 40)
    assert peak < 1.75e6, peak


@settings(max_examples=300)
@given(
    st.lists(st.text(alphabet="ab,\r", max_size=12), min_size=1, max_size=8),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
    st.integers(1, 8),
)
def test_line_blocks_match_the_rejoining_reader(lines, ending, trailing, size):
    """The blocks are those of the reader that appended every chunk to the
    carried partial line and cut the whole again, at every block size,
    with and without a final line break, in LF and in CRLF."""
    data = render(lines, ending, trailing)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surmise.io, "_BLOCK", size)
        blocks = list(surmise.io._line_blocks(io.BytesIO(data)))
    assert blocks == list(oracles.line_blocks_reference(io.BytesIO(data), size))


def test_a_long_line_is_read_in_time_linear_in_its_length(monkeypatch):
    """One 8 MiB line in 1 KiB chunks: carried as a list of chunks and
    joined once, it takes about 10 ms; searched and joined again at every
    chunk, as before, it took seconds (the cost grew with the square of
    the line length).  A CSV saved with CR-only line ends is one line."""
    monkeypatch.setattr(surmise.io, "_BLOCK", 1 << 10)
    data = b"m" + b",0" * (1 << 22)
    start = time.perf_counter()
    blocks = list(surmise.io._line_blocks(io.BytesIO(data)))
    elapsed = time.perf_counter() - start
    assert blocks == [data]
    assert elapsed < 1.0, elapsed
