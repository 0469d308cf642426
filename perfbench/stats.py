"""Order statistics and operation tallies shared by the runner, the worker and compare."""

from __future__ import annotations

import statistics
from collections import Counter

#: The tail percentile is the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median, third quartile (``statistics.quantiles``, n=4)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    With n samples sorted ascending, that is the sample with exactly
    ``TAIL_BEYOND`` larger ones; its percentile is its rank over n - 1.
    With fewer than ``TAIL_BEYOND + 1`` samples the smallest one is used.
    """
    ordered = sorted(values)
    idx = max(0, len(ordered) - 1 - TAIL_BEYOND)
    pct = 100.0 * idx / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return float(ordered[idx]), pct


class Tally:
    """Operation counts and failures; work, time and calls per kind; invocation walls.

    An operation is one input of the workload under its key: a script
    command, a corpus state or a Monte-Carlo cell.  It is attempted once
    however often the run repeats it, and failed if any repetition failed a
    check of class ``value`` or ``error``, so ``attempted`` and ``failed`` do
    not depend on how many repetitions fit into the run.  A failed check of
    class ``verdict`` (a wrong verdict on a large-trace state, the known
    defect) marks the operation as ``known_defect`` instead: it is counted
    and reported, but not as a failure.  A kind's rate is its total work over
    its total time, as users pay it.
    """

    KINDS = ("ensemble", "search", "disc", "states")
    #: The failure class of the known defect.
    KNOWN = "verdict"

    def __init__(self, sampler=None):
        #: A ``ref.Sampler`` that scales each span and is ticked between units, or None.
        self.sampler = sampler
        self.ops: set[str] = set()
        self.failed_ops: set[str] = set()
        self.known_ops: set[str] = set()
        self.by_class: Counter = Counter()
        self.examples: list[str] = []
        #: Invocation walls, scaled and as measured.
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.work: Counter = Counter()
        self.time: Counter = Counter()
        #: ``time`` with each span scaled by the sampler when it ended.
        self.scaled: Counter = Counter()
        self.calls: Counter = Counter()
        #: Relative gaps to c_max of the searches, per m.
        self.gaps: dict[int, list[float]] = {}
        #: Keys of the corpus states that got a wrong verdict.
        self.wrong_verdicts: set[str] = set()

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def known_defect(self) -> int:
        return len(self.known_ops)

    def unit(self, kind: str, key: str, wall: float, work: float, failures: list) -> None:
        self.ops.add(key)
        if failures:
            if any(f.cls != self.KNOWN for f in failures):
                self.failed_ops.add(key)
            if any(f.cls == self.KNOWN for f in failures):
                self.known_ops.add(key)
            self.by_class.update({f.cls for f in failures})
            if len(self.examples) < 10:
                self.examples.append(f"{kind}: {failures[0].cls}: {failures[0].what}")
        self.work[kind] += work
        self.time[kind] += wall
        self.scaled[kind] += wall * (self.sampler.scale() if self.sampler else 1.0)
        self.calls[kind] += 1

    def tick(self) -> None:
        """Between two units: let the sampler time the reference kernel."""
        if self.sampler:
            self.sampler.tick()

    def absorb_checks(self, other: "Tally") -> None:
        """Count ``other``'s operations, failures and known defects here too, but not its work or time."""
        self.ops |= other.ops
        self.failed_ops |= other.failed_ops
        self.known_ops |= other.known_ops
        self.by_class.update(other.by_class)
        self.examples += other.examples[: max(0, 10 - len(self.examples))]

    def wall(self, raw: float, scaled: float) -> None:
        self.raw_walls.append(raw)
        self.walls.append(scaled)

    def rates(self, time: Counter) -> dict:
        return {k: self.work[k] / time[k] if time[k] else None for k in self.KINDS}

    def summary(self) -> dict:
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "known_defect": self.known_defect,
            "by_class": dict(self.by_class),
            "examples": self.examples,
            "rates": self.rates(self.scaled),
            "calls": {k: self.calls[k] for k in self.KINDS},
            # Mean over the search cells (m) of each cell's mean relative gap.
            "search_gap_rel": statistics.fmean([statistics.fmean(g) for g in self.gaps.values()])
            if self.gaps else None,
            "wrong_verdicts": len(self.wrong_verdicts),
        }
        out["unscaled"] = {"rates": self.rates(self.time)}
        if self.walls:
            value, pct = tail(self.walls)
            out["walls"] = {"p50": median(self.walls), "tail": value, "tail_pct": pct, "n": len(self.walls)}
            out["unscaled"]["walls"] = {"p50": median(self.raw_walls), "tail": tail(self.raw_walls)[0]}
        return out
