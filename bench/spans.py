"""Spans around the package's public functions, recorded from the outside.

``Tracer.installed`` swaps each named function for a timing wrapper in
every loaded ``surmise`` module that refers to it (so ``from .order import
order_matrix`` aliases are caught too) and restores the originals on exit.
Spans stay in memory; ``Tracer.spans`` is written out by the caller.
"""
from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    def __init__(self, package: str = "surmise") -> None:
        self.package = package
        self.spans: list[dict] = []
        self.table: str | None = None
        self.run: str | None = None
        self.results: dict[str, object] = {}  # last return value per span name
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = {"id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "table": self.table, "run": self.run}
        self._stack.append(span["id"])
        self.spans.append(span)
        span["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        self.results[name] = result
        return result

    def function(self, name: str) -> Callable | None:
        """The package function behind a span name such as "io.parse_csv"."""
        module_name, _, attr = name.rpartition(".")
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add(name)
        return fn

    @contextmanager
    def installed(self, names: list[str]) -> Iterator[None]:
        patched: list[tuple[object, str, Callable]] = []
        try:
            for name in names:
                original = self.function(name)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for module in list(sys.modules.values()):
                    module_name = getattr(module, "__name__", "")
                    if module_name != self.package and not module_name.startswith(self.package + "."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def durations(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name over a slice of a tracer's spans.

    Self time is a span's duration minus the durations of its direct
    children, summed over every span of that name.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        length = span["end"] - span["start"]
        total[span["name"]] += length
        own[span["name"]] += length - children[span["id"]]
    return total, own
