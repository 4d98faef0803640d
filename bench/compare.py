"""Report-only comparison of two sets of benchmark results.

    python3 bench/run.py compare RESULTS_A RESULTS_B

Each argument is a directory holding one file per workload, named
``<workload>.jsonl``, with the output of any number of runs of
``bench/run.py --workload <workload>`` appended to it; only the result
lines (JSON objects with ``metrics``) are read. For each workload and
metric, both sides' medians and quartiles and the change of B against A
are printed. A metric is "unresolved" when either side's run-to-run spread
(interquartile distance over median) exceeds the metric's bound in
BENCHMARK.json; metrics without a bound are only listed. Nothing is gated:
the exit status is 0 whatever the numbers.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """{workload: {metric: [values]}} from a result directory."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        per_metric = out.setdefault(path.stem, {})
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                result = json.loads(line)
            except ValueError:
                continue
            if not isinstance(result, dict) or "metrics" not in result:
                continue
            for name, m in result["metrics"].items():
                if m.get("value") is not None:
                    per_metric.setdefault(name, []).append(float(m["value"]))
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    a, b = load(Path(argv[0])), load(Path(argv[1]))
    for workload in sorted(set(a) & set(b)):
        print(f"== {workload}")
        print(f"  {'metric':<40} {'A median [q1, q3] (n)':>38} "
              f"{'B median [q1, q3] (n)':>38} {'B/A-1':>8}  status")
        for name in sorted(set(a[workload]) & set(b[workload])):
            va, vb = a[workload][name], b[workload][name]
            (ma, a1, a3), (mb, b1, b3) = summary(va), summary(vb)
            change = mb / ma - 1.0 if ma else float("nan")
            status = "-"
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                if max(spread(va), spread(vb)) > bound:
                    status = "unresolved"
                elif worse > bound:
                    status = f"worse than bound {bound:g}"
                else:
                    status = f"within bound {bound:g}"
            print(f"  {name:<40} {ma:>12.5g} [{a1:.5g}, {a3:.5g}] ({len(va)})"
                  f" {mb:>12.5g} [{b1:.5g}, {b3:.5g}] ({len(vb)}) {change:>+8.2%}  {status}")
    return 0
