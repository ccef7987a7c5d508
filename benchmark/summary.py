"""Summarise the run records in .bench_results/: median and quartiles per metric.

    python3 benchmark/summary.py

Records are grouped by workload and trace mode; each metric is printed
with its number of runs, median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_results"


def main() -> int:
    groups: dict[tuple, dict[str, list]] = {}
    units: dict[str, str] = {}
    for path in sorted(RESULTS.glob("*.json")):
        rec = json.loads(path.read_text())
        metrics = groups.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["result"]["metrics"].items():
            units[name] = m["unit"]
            if m["value"] is not None:  # None: every call of the operation failed
                metrics.setdefault(name, []).append(m["value"])
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"{workload} (trace {trace})")
        for name, values in metrics.items():
            med = statistics.median(values)
            line = f"  {name:34s} n={len(values):<3d} median {med:<12.6g}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f" Q1 {q1:<12.6g} Q3 {q3:<12.6g} spread {spread:.3f}"
            print(f"{line} {units[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
