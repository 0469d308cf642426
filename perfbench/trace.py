"""Spans around the benchmark's calls into sympcoh, held in memory.

A span is ``(name, parent, start, end, cell)``: ``name`` is
``<module>.<function>`` for a call into one of the program's modules (the
module is the layer) or ``unit.<kind>`` for one benchmark unit of work;
``parent`` is the index of the enclosing span or -1.  Spans are recorded
only by :class:`Tracer`; :class:`Direct` makes the same calls with nothing
recorded, for the untraced runs.
"""

from __future__ import annotations

import contextlib
import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "gaussian_core",
    "symplectic_ops",
    "ensembles",
    "coherence",
    "discord_map",
    "applications",
)


class Direct:
    """Untraced: calls straight through."""

    def call(self, name, fn, *args, cell=None):
        return fn(*args)

    def span(self, name, cell=None):
        return contextlib.nullcontext()


class Tracer:
    """Records one span per call or unit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, cell=None):
        with self.span(name, cell):
            return fn(*args)

    @contextlib.contextmanager
    def span(self, name, cell=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, parent, start, end, cell)

    def durations(self, name, cell=None, since=0) -> list[float]:
        """Durations in seconds of the spans with this name (and cell)."""
        return [
            s[3] - s[2]
            for s in self.spans[since:]
            if s[0] == name and (cell is None or s[4] == cell)
        ]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump(
                {"fields": ["name", "parent", "start", "end", "cell"], "spans": self.spans}, fh
            )


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def self_time_shares(spans: list[tuple], first: int, wall: float) -> dict[str, float]:
    """Share of ``wall`` spent in each layer's own code (self time).

    A span's self time is its duration minus its children's durations.  Time
    not covered by any program span is the benchmark's own (``bench``).
    """
    child = defaultdict(float)
    for name, parent, start, end, _ in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    own = defaultdict(float)
    for i, (name, _, start, end, _) in enumerate(spans[first:], start=first):
        layer = layer_of(name)
        if layer != "bench":
            own[layer] += end - start - child[i]
    shares = {layer: own[layer] / wall for layer in LAYERS}
    shares["bench"] = 1.0 - sum(shares.values())
    return shares


def call_counts(spans: list[tuple], first: int) -> dict[str, int]:
    return dict(sorted(Counter(s[0] for s in spans[first:]).items()))
