"""Compare two snapshots: ``python -m bench.compare A.json B.json``.

A is the parent, B the change.  For every workload and end-to-end
metric the bound from ``BENCHMARK.json`` decides:

``regressed``   B's median is worse than A's by more than the bound
``improved``    better by more than the bound
``unchanged``   within the bound, and the samples are steady enough to say so
``unresolved``  the quartile spread of either side exceeds the bound, and
                the sides overlap: the runs cannot tell — never read
                this as "unchanged"

When every sample of one side beats every sample of the other, the
spread does not matter and the medians decide.  Snapshots taken on hosts
that differ in core count, Python version or wire codec are refused:
their numbers do not compare.  Exit code 1 on any regression, 2 on a
refusal.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Optional

from . import load_contract
from .measure import iqr_frac

HOST_KEYS = ("nproc", "python", "codec")


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """Classify one metric of one workload from both sides' samples;
    see the module docstring."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    separated = (max(a) < min(b)) or (max(b) < min(a))
    if max(iqr_frac(a), iqr_frac(b)) > bound and not separated:
        return "unresolved"
    if worsening > bound:
        return "regressed"
    if worsening < -bound:
        return "improved"
    return "unchanged"


def compare(snap_a: dict, snap_b: dict, contract: dict) -> List[tuple]:
    """Rows of ``(workload, metric, median_a, median_b, change, verdict)``."""
    rows = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        side_a = snap_a["workloads"].get(workload, {}).get("end_to_end")
        side_b = snap_b["workloads"].get(workload, {}).get("end_to_end")
        if side_a is None or side_b is None:
            continue
        for entry in contract["end_to_end"]:
            a = side_a["metrics"][entry["name"]]
            b = side_b["metrics"][entry["name"]]
            change = (b["value"] - a["value"]) / abs(a["value"]) \
                if a["value"] else 0.0
            rows.append((workload, entry["name"], a["value"], b["value"],
                         change, verdict(a["samples"], b["samples"],
                                         entry["better"], entry["bound"])))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        snap_a = json.load(fh)
    with open(argv[1]) as fh:
        snap_b = json.load(fh)
    for key in HOST_KEYS:
        if snap_a["host"].get(key) != snap_b["host"].get(key):
            print(f"refusing to compare: host.{key} differs "
                  f"({snap_a['host'].get(key)!r} vs {snap_b['host'].get(key)!r})",
                  file=sys.stderr)
            return 2
    rows = compare(snap_a, snap_b, load_contract())
    print(f"{'workload':<16} {'metric':<16} {'A':>12} {'B':>12} {'B vs A':>8}  verdict")
    for workload, metric, a, b, change, outcome in rows:
        print(f"{workload:<16} {metric:<16} {a:>12.5g} {b:>12.5g} "
              f"{change * 100:>+7.1f}%  {outcome}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
