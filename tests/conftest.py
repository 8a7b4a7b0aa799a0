"""Shared fixtures: golden inputs, the seeded fuzz corpus, and the
acceptance-criteria result printer."""
from __future__ import annotations

import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from surmise import (
    Flexibility,
    JudgmentTable,
    build_table,
    parse_csv,
    random_poset,
    sample_models,
)

DATA_DIR = Path(__file__).parent / "data"
TWELVE_MODELS_PATH = DATA_DIR / "twelve_models.csv"
WORKED_EXAMPLE_PATH = DATA_DIR / "worked_example.csv"

FUZZ_SEED = 20250808
FUZZ_ALPHAS = (
    Flexibility(0),
    Flexibility(1000),
    Flexibility(2500),
    Flexibility(4999),
)


@pytest.fixture(scope="session")
def twelve_models() -> JudgmentTable:
    return parse_csv(TWELVE_MODELS_PATH.read_bytes())


@pytest.fixture(scope="session")
def twelve_models_rows() -> list[list[int]]:
    """Cells of the 12x10 example grid parsed independently of the package's CSV reader."""
    rows = []
    for line in TWELVE_MODELS_PATH.read_text().splitlines()[1:]:
        rows.append([int(cell) for cell in line.split(",")[1:]])
    return rows


@pytest.fixture(scope="session")
def worked_table() -> JudgmentTable:
    return parse_csv(WORKED_EXAMPLE_PATH.read_bytes())


def _random_rows(rng: random.Random, v: int, u: int) -> list[list[int]]:
    return [[rng.randint(0, 1) for _ in range(u)] for _ in range(v)]


def make_fuzz_table(rng: random.Random, index: int) -> JudgmentTable:
    """One seeded random table; styles rotate to cover plain noise,
    planted-poset structure, duplicated columns, and constant columns."""
    u = rng.randint(1, 8)
    v = rng.randint(1, 12)
    style = index % 4
    if style == 1:
        poset = random_poset(u, rng.uniform(0.2, 0.7), seed=rng.randrange(2**32))
        return sample_models(
            poset,
            model_count=v,
            noise=rng.choice([0.0, 0.05, 0.15]),
            seed=rng.randrange(2**32),
        )
    rows = _random_rows(rng, v, u)
    if style == 2 and u >= 2:
        src, dst = rng.sample(range(u), 2)
        for row in rows:
            row[dst] = row[src]
    elif style == 3 and u >= 2:
        for row in rows:
            row[0] = 1
            row[u - 1] = 0
    targets = [f"t{j}" for j in range(u)]
    models = [f"M{i + 1}" for i in range(v)]
    return build_table(targets, models, rows)


def build_fuzz_corpus(count: int = 200) -> list[JudgmentTable]:
    rng = random.Random(FUZZ_SEED)
    return [make_fuzz_table(rng, k) for k in range(count)]


@pytest.fixture(scope="session")
def fuzz_corpus() -> list[JudgmentTable]:
    return build_fuzz_corpus()


ACCEPTANCE_LINES: list[str] = []


@contextmanager
def criterion(number: int, label: str):
    """Record and print one pass/fail line per acceptance criterion."""
    try:
        yield
    except BaseException:
        line = f"criterion {number} ({label}): FAIL"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    else:
        line = f"criterion {number} ({label}): PASS"
        ACCEPTANCE_LINES.append(line)
        print(line)


def pytest_terminal_summary(terminalreporter) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
