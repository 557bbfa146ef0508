"""Pool the result records under perfbench/out/ across runs, per workload.

    python3 perfbench/summarize.py

For each workload with untraced results it prints, for every end-to-end
metric, the median over runs and the run-to-run spread (q3 - q1 of the
per-run values, as a share of their median), and the op latency p50/p90
pooled over every op of every run. p90 is printed only when at least 10
samples lie beyond it.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

from run import OUT, _p90, quartiles


def summarize(records: list[dict]) -> list[str]:
    lines = []
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        lines.append(f"{workload}: {len(runs)} runs, seeds "
                     f"{sorted(r['meta']['seed'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            lines.append(f"  {name:<14} median {med:.6g} {runs[0]['metrics'][name]['unit']}"
                         f"  spread {spread:.4f}")
        pooled = [ms for r in runs for ms in r["op_ms"]]
        p90 = _p90(pooled)
        lines.append(f"  pooled op_ms   p50 {statistics.median(pooled):.6g}  p90 "
                     + (f"{p90:.6g}" if p90 is not None else "n/a")
                     + f"  n={len(pooled)}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        lines.append(f"  fail_ratio     {failed / attempted:.6g} ({failed} of {attempted} ops)")
    return lines


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(Path(OUT).glob("result-*-trace0.json"))]
    print("\n".join(summarize(records)) if records else f"no results under {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
