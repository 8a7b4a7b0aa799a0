"""Seeded latent-ability judgment tables.

Each target gets a difficulty, each model an ability, and a model judges
a target correctly when ability - difficulty + Gaussian noise > 0.  The
package's own ``synth`` samples downsets of a planted poset and is capped
at 20 targets, so the benchmark owns this generator instead.

Difficulties and abilities are evenly spaced normal quantiles, shuffled
by the seed; only their assignment and the noise are random.  Every table
of a workload therefore has the same latent spread, which keeps the work
per table (and so the timings) close from seed to seed.

Only the standard library's ``random`` is used and every table is drawn
from a string key, so the same key gives the same bytes on any platform.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import NormalDist


@dataclass(frozen=True)
class Shape:
    targets: int
    models: int
    noise: float


@dataclass(frozen=True)
class Table:
    """One generated table: names, raw 0/1 rows, and the CSV the CLI reads."""

    key: str
    target_names: tuple[str, ...]
    model_names: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def cells(self) -> int:
        return len(self.rows) * len(self.target_names)

    def csv_bytes(self) -> bytes:
        lines = ["model," + ",".join(self.target_names)]
        for name, row in zip(self.model_names, self.rows):
            lines.append(name + "," + ",".join("1" if c else "0" for c in row))
        return ("\n".join(lines) + "\n").encode("ascii")


def _quantiles(count: int, rng: random.Random) -> list[float]:
    normal = NormalDist()
    values = [normal.inv_cdf((k + 0.5) / count) for k in range(count)]
    rng.shuffle(values)
    return values


def make_table(shape: Shape, key: str) -> Table:
    rng = random.Random(key)
    difficulty = _quantiles(shape.targets, rng)
    ability = _quantiles(shape.models, rng)
    gauss, noise = rng.gauss, shape.noise
    rows = tuple(
        tuple(1 if a - d + gauss(0.0, noise) > 0.0 else 0 for d in difficulty)
        for a in ability
    )
    return Table(
        key=key,
        target_names=tuple(f"t{j}" for j in range(shape.targets)),
        model_names=tuple(f"m{i}" for i in range(shape.models)),
        rows=rows,
    )
