#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.jsonl B.jsonl``.

Each file holds one result object per line, as ``run.py --out FILE`` appends
them (A is the parent, B the change; run them alternately, same seeds).  For
every workload x end-to-end metric this prints each side's median and
quartiles, the change with its base, the bound from ``BENCHMARK.json`` and a
verdict:

    regressed   B's median is worse than A's by more than the bound
    improved    B's median is better by more than the spread of A's own runs
    unchanged   neither
    unresolved  A's inter-quartile spread exceeds the bound and the two
                sides' runs overlap: the data cannot tell

Exits 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the untraced runs of one file."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        if run.get("trace"):
            continue
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append(float(metric["value"]))
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: Sequence[float], b: Sequence[float], bound: float, lower_is_better: bool) -> str:
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    spread = (q3 - q1) / med_a
    overlap = not (max(b) < min(a) or min(b) > max(a))
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > spread and worse_by < 0:
        return "improved"
    return "unchanged"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    side_a, side_b = load(argv[0]), load(argv[1])
    regressed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in side_a or key not in side_b:
                print(f"  {metric['name']:<20} missing on one side")
                continue
            a, b = side_a[key], side_b[key]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            outcome = verdict(a, b, metric["bound"], metric["better"] == "lower")
            regressed += outcome == "regressed"
            print(
                f"  {metric['name']:<20} A {am:.5g} [{a1:.5g}, {a3:.5g}] n={len(a)}   "
                f"B {bm:.5g} [{b1:.5g}, {b3:.5g}] n={len(b)}   "
                f"B/A {bm / am:.3f} (base {am:.5g} {metric['unit']}, {metric['better']} is better, "
                f"bound {metric['bound']:g}, A spread {(a3 - a1) / am:.3f})   {outcome}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
