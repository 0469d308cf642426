"""Compare two sets of benchmark result files: parent against change.

    python3 perfbench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Arguments may also be directories, meaning every untraced result file in
them.  Smoke runs are left out, and every run on both sides must have the
same ``--seconds``.  For each (end-to-end metric, workload) it prints both sides' median
and quartiles and a verdict, using each metric's ``bound`` and ``better``
from ``BENCHMARK.json``:

* ``fail``: the change's median is worse than the parent's by more than the
  bound, as a share of the parent's median; over a parent median of 0, any
  worsening fails;
* ``unresolved``: not failed, but either side's spread (interquartile range
  over median) exceeds the bound and the change does not beat the parent on
  every run;
* ``pass`` otherwise.

``won`` is the share of pairs (runs matched by seed, else by order) in which
the change reads better, ties counting for neither; ``gain`` says whether a
gain could be claimed: at least nine tenths of pairs won and the medians
apart by more than the parent's interquartile range, with no more failed
operations (median of ``failed``) than the parent.  The change fails
outright when any of its runs failed an operation or was not ``correct``.
Exit code 1 when any row fails.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Untraced, full-size result records grouped by workload, each group sorted by seed."""
    files = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
    out: dict[str, list[dict]] = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0 and not rec.get("smoke"):
            out.setdefault(rec["workload"], []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r["seed"])
    return out


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    matched = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    return matched if matched else list(zip(parent, change))


def rel(delta: float, base: float) -> float:
    """``delta`` as a share of ``base``; any nonzero ``delta`` over a zero base is infinite."""
    if base:
        return delta / abs(base)
    return math.copysign(math.inf, delta) if delta else 0.0


def row(metric: dict, parent: list[dict], change: list[dict], errors_up: bool = False) -> dict:
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    pv = [r["metrics"][name]["value"] for r in parent]
    cv = [r["metrics"][name]["value"] for r in change]
    pq, cq = stats.quartiles(pv), stats.quartiles(cv)
    worse = rel(sign * (cq[1] - pq[1]), pq[1])
    spread = max(rel(q[2] - q[0], q[1]) for q in (pq, cq))
    better_everywhere = max(sign * v for v in cv) < min(sign * v for v in pv)
    if worse > bound:
        verdict = "fail"
    elif spread > bound and not better_everywhere:
        verdict = "unresolved"
    else:
        verdict = "pass"
    matched = pairs(parent, change)
    wins = sum(sign * c["metrics"][name]["value"] < sign * p["metrics"][name]["value"] for p, c in matched)
    won = wins / len(matched) if matched else 0.0
    gain = won >= 0.9 and abs(cq[1] - pq[1]) > pq[2] - pq[0] and not errors_up
    return {"metric": name, "parent": pq, "change": cq, "worse_rel": worse, "spread": spread,
            "bound": bound, "verdict": verdict, "won": won, "pairs": len(matched), "gain": gain}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="result files or directories")
    parser.add_argument("--change", nargs="+", required=True, help="result files or directories")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    seconds = {r["seconds"] for side in (parent, change) for recs in side.values() for r in recs}
    if len(seconds) > 1:
        print(f"runs of different lengths cannot be compared: --seconds {sorted(seconds)}", file=sys.stderr)
        return 2
    failed = False
    for workload in sorted(set(parent) & set(change)):
        print(f"{workload}: {len(parent[workload])} parent runs, {len(change[workload])} change runs")
        print(f"  {'metric':24s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
              f"{'worse':>7s} {'spread':>7s} {'bound':>5s} {'won':>5s} gain verdict")
        errors = [stats.median(r["failed"] for r in side) for side in (parent[workload], change[workload])]
        broken = [r["seed"] for r in change[workload] if r["failed"] or not r["correct"]]
        if broken:
            print(f"  change runs with failed operations or not correct, seeds {broken}: fail")
            failed = True
        for metric in spec["end_to_end"]:
            r = row(metric, parent[workload], change[workload], errors_up=errors[1] > errors[0])
            failed |= r["verdict"] == "fail"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"  {r['metric']:24s} {fmt(r['parent']):>32s} {fmt(r['change']):>32s} "
                  f"{r['worse_rel']:+7.3f} {r['spread']:7.3f} {r['bound']:5.2f} {r['won']:5.2f} "
                  f"{'yes' if r['gain'] else 'no ':4s} {r['verdict']}")
    only = sorted(set(parent) ^ set(change))
    if only:
        print(f"workloads on one side only: {', '.join(only)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
