"""Spans and counters recorded around calls into the kernel's layers.

The benchmark calls the kernel only through a ``Calls`` object. Untraced,
it forwards each call unchanged; traced, it records a span per call:
name, start, end, parent span and operation id, kept in memory and
written out when the run ends. A layer's self time is its spans'
duration minus the part covered by their child spans.

Spans are recorded only at the boundary between the benchmark and the
kernel. Two kernel-internal boundaries are also observed while tracing:
``surface.elaborate`` reaches the signature layer through its
module-level ``declare``, which is wrapped so that declaring (and
checking) a definition shows as its own span, and the rewriting
oracle's fuel tank is swapped for one that counts the beta/iota steps
it pays for.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from functools import cache

from ttkernel import rewrite, surface

LAYERS = ("surface", "signature", "check", "nbe", "rewrite", "normal", "gen")


class Calls:
    """Forwards calls into the kernel; records spans when ``tracer`` is set."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer

    def __call__(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(name, fn, *args)

    def count(self, name: str, amount: int) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)

    def observing_kernel(self):
        """The tracer's ``observing_kernel``, or nothing when untraced."""
        return nullcontext() if self.tracer is None else self.tracer.observing_kernel()

    def nodes(self, name: str, *trees) -> None:
        """Count the nodes of syntax or normal-form trees, when tracing."""
        if self.tracer is not None:
            self.count(name, sum(node_count(t) for t in trees))


class Tracer:
    """Spans and per-operation counts; ``op`` is the current operation id."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op, error)
        self.counts: dict[object, Counter] = {}  # per operation id
        self.op = None
        self._open: list[int] = []

    def count(self, name: str, amount: int) -> None:
        self.counts.setdefault(self.op, Counter())[name] += amount

    def span(self, name: str, fn, *args):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args)
        except BaseException as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op, error)

    @contextmanager
    def observing_kernel(self):
        """Wrap the two kernel-internal boundaries named in the module doc."""
        tracer = self
        declare = surface.declare
        fuel = rewrite._Fuel

        class CountingFuel(fuel):
            def spend(self):
                tracer.count("rewrite.beta_iota_steps", 1)
                super().spend()

        surface.declare = lambda sig, decl: tracer.span("signature.declare", declare, sig, decl)
        rewrite._Fuel = CountingFuel
        try:
            yield
        finally:
            surface.declare = declare
            rewrite._Fuel = fuel

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for (_, start, end, _, _, _) in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def counted(self, ops) -> Counter:
        """Counts summed over the operations ``ops``."""
        return sum((self.counts.get(op, Counter()) for op in ops), Counter())

    def layer_totals(self, ops) -> dict[str, dict[str, float]]:
        """Per layer: self seconds by span name, calls and errors, over ``ops``."""
        out = {layer: {"calls": 0, "errors": 0} for layer in LAYERS}
        for (name, _, _, _, op, error), own in zip(self.spans, self.self_times()):
            if op not in ops:
                continue
            layer = out[name.split(".", 1)[0]]
            layer[name] = layer.get(name, 0.0) + own
            layer["calls"] += 1
            layer["errors"] += error is not None
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, op, error), own in zip(self.spans, self.self_times()):
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "self": own,
                    "parent": parent,
                    "op": op,
                    "error": error,
                }
                fh.write(json.dumps(record) + "\n")


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def node_count(tree) -> int:
    """Nodes of a syntax or normal-form tree, counted without recursion
    (normal forms of large numerals are deeper than the recursion limit)."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node):
            count += 1
            stack.extend(getattr(node, n) for n in _field_names(type(node)))
    return count
