#!/usr/bin/env python3
"""Summarise benchmark run records: per-run values, quartiles and spread.

    python3 perfbench/summarize.py [records-dir]

Records (default .bench_build/records) are grouped by workload, trace flag
and fingerprint (every input except the seed), so only like runs are
pooled. For each metric it prints the per-seed values, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median. An end-to-end metric whose spread exceeds a third of
its bound in BENCHMARK.json is flagged, and the exit code is 1 when one
other than setup_s exceeds its whole bound.
"""

import glob
import json
import os
import statistics
import sys


def main() -> int:
    rec_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(".bench_build", "records")
    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            for m in json.load(f).get("end_to_end", []):
                bounds[m["name"]] = m["bound"]

    groups = {}
    for path in sorted(glob.glob(os.path.join(rec_dir, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        key = (rec["workload"], rec["trace"], rec["fingerprint"][:12])
        groups.setdefault(key, []).append(rec)

    status = 0
    for (workload, trace, fp), recs in sorted(groups.items()):
        recs.sort(key=lambda r: r["seed"])
        seeds = [r["seed"] for r in recs]
        failed = sum(r["failed"] for r in recs)
        print(f"== {workload} trace={int(trace)} fingerprint={fp} runs={len(recs)} seeds={seeds} failed={failed}")
        names = sorted(recs[0]["metrics"])
        for name in names:
            vals = [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            unit = recs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if not trace and name in bounds and spread > bounds[name] / 3:
                flag = f"  <-- spread above bound/3 ({bounds[name] / 3:.3f})"
                if name != "setup_s" and spread > bounds[name]:
                    status = 1
            shown = " ".join(f"{v:.4g}" for v in vals)
            print(f"  {name:36s} {unit:8s} median {med:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f}{flag}")
            print(f"  {'':36s} values {shown}")
    return status


if __name__ == "__main__":
    sys.exit(main())
