#!/usr/bin/env python3
"""Spread and medians of stored benchmark results.

    python3 perfbench/summarize.py [--write perfbench/baseline.json]

Reads every `.perfbench-out/result-*-trace0.json` that run.py left, and
for each workload and end-to-end metric prints the median over seeds,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 − Q1) / median next to the metric's bound from BENCHMARK.json.
`--write` stores the table with the environment stamp as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", default=None, help="baseline file to write")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {}
    for f in sorted((ROOT / ".perfbench-out").glob("result-*-trace0.json")):
        rec = json.loads(f.read_text())
        results.setdefault(rec["workload"], []).append(rec)

    table = {}
    for w in spec["workloads"]:
        recs = sorted(results.get(w["name"], []), key=lambda r: r["seed"])
        if not recs:
            continue
        rows = {}
        print(f"{w['name']}: {len(recs)} runs, seeds {[r['seed'] for r in recs]}, "
              f"all correct: {all(r['correct'] for r in recs)}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in recs if m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            verdict = ("ok" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"  {m['name']:<20} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {m['bound']} {verdict}")
            rows[m["name"]] = {"unit": m["unit"], "better": m["better"], "median": med,
                               "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
        table[w["name"]] = {"seeds": [r["seed"] for r in recs], "metrics": rows,
                            "env": recs[0]["env"]}
    if args.write:
        Path(args.write).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
