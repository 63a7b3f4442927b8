#!/usr/bin/env python3
"""Compare two suite results: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of the same
commit), ``B`` the side under test.  One row per workload and end-to-end
metric: both medians, both quartile pairs, the ratio of the medians stated
against its base, the benchmark's bound, and a verdict:

``better``      every round of B reads better than every round of A
``same``        B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread (either side's interquartile
                range over its median) exceeds the bound and the sides
                overlap, so the rounds cannot tell

Exits 1 on any ``worse`` or if B's ``failed_share`` is higher than A's.

Below the table it lists every per-layer value that must repeat exactly
(counts, bytes and the simulated figures) and does not.  That is a model
change, which is legitimate but never what a speed change may cause, so it
is reported and does not change the exit code.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

from workloads import PAPER_REFERENCE, ROOT


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsening = sign * (med_b - med_a) / abs(med_a)
    spread = max((q3 - q1) / abs(statistics.median(v))
                 for v, (q1, q3) in ((a, quartiles(a)), (b, quartiles(b))))
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if not overlap and worsening < 0:
        return "better"
    if spread > bound and overlap:
        return "unresolved"
    if worsening > bound:
        return "worse"
    return "same"


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List[Dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    rows = []
    for name, side_a in doc_a["workloads"].items():
        side_b = doc_b["workloads"].get(name)
        if side_b is None:
            continue
        for metric, spec in bounds.items():
            a = side_a["end_to_end"][metric]["values"]
            b = side_b["end_to_end"][metric]["values"]
            rows.append({
                "workload": name, "metric": metric,
                "unit": side_a["end_to_end"][metric]["unit"],
                "median_a": statistics.median(a), "quartiles_a": quartiles(a),
                "median_b": statistics.median(b), "quartiles_b": quartiles(b),
                "bound": spec["bound"],
                "verdict": verdict(a, b, spec["better"], spec["bound"])})
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "ratio",
            "median_a": side_a["failed_share"], "quartiles_a": None,
            "median_b": side_b["failed_share"], "quartiles_b": None,
            "bound": 0.0,
            "verdict": "worse" if side_b["failed_share"]
            > side_a["failed_share"] else "same"})
    return rows


#: Per-layer values that are exact, by unit or by name: two runs of one
#: program at one seed must agree to the last digit.
EXACT_UNITS = ("count", "bytes")
EXACT_NAMES = ("failed_share", "ft_ok_share") + tuple(PAPER_REFERENCE)


def exact_differences(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List:
    out = []
    for name, side_a in doc_a["workloads"].items():
        side_b = doc_b["workloads"].get(name, {"per_layer": {}})
        for metric, a in side_a["per_layer"].items():
            b = side_b["per_layer"].get(metric)
            if b is not None and a["value"] != b["value"] \
                    and (a["unit"] in EXACT_UNITS or metric in EXACT_NAMES):
                out.append((name, metric, a["value"], b["value"]))
    return out


def render(rows: List[Dict]) -> str:
    lines = ["%-13s %-17s %11s %23s %11s %23s %16s %6s  %s"
             % ("workload", "metric", "A median", "A quartiles", "B median",
                "B quartiles", "B/A", "bound", "verdict")]
    for r in rows:
        def quart(q):
            return "-" if q is None else "[%.4g, %.4g]" % q
        ratio = "%.3f x A" % (r["median_b"] / r["median_a"]) \
            if r["median_a"] else "-"
        lines.append("%-13s %-17s %11.4f %23s %11.4f %23s %16s %6.2f  %s"
                     % (r["workload"], r["metric"], r["median_a"],
                        quart(r["quartiles_a"]), r["median_b"],
                        quart(r["quartiles_b"]), ratio, r["bound"],
                        r["verdict"]))
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    rows = compare(*docs)
    print(render(rows))
    differing = exact_differences(*docs)
    print("\nexact per-layer values that differ: %s"
          % (len(differing) or "none"))
    for name, metric, a, b in differing:
        print("  %-13s %-30s A %s  B %s" % (name, metric, a, b))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
