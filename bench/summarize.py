"""Summarize untraced benchmark records: median and quartiles per metric.

    python3 bench/summarize.py [--results bench/results] [--out FILE]

Reads every ``*-trace0.json`` record under ``--results`` and prints, per
workload and end-to-end metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median.
``cert_sha256`` is kept per seed; for a fixed seed it repeats exactly.
``--out`` also writes the summary as JSON, with the per-layer metrics of
any ``*-trace1.json`` records by seed; that file is the baseline that later
changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(records: list[dict], traced: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        by_workload[rec["workload"]["name"]].append(rec)
    out = {}
    for name, recs in sorted(by_workload.items()):
        recs.sort(key=lambda r: r["stamp"]["base_seed"])
        metrics = {}
        for key in recs[0]["e2e"]:
            values = [r["e2e"][key] for r in recs if key in r["e2e"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            metrics[key] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}
        out[name] = {
            "seeds": [r["stamp"]["base_seed"] for r in recs],
            "stamp": {k: v for k, v in recs[0]["stamp"].items() if k != "base_seed"},
            "all_correct": all(r["correct"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "cert_sha256": {r["stamp"]["base_seed"]: r["cert_sha256"] for r in recs},
            "metrics": metrics,
            "per_layer": {r["stamp"]["base_seed"]: r["metrics"] for r in traced
                          if r["workload"]["name"] == name},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", type=Path, default=HERE / "results")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    records = [json.loads(p.read_text()) for p in sorted(args.results.glob("*-trace0.json"))]
    traced = [json.loads(p.read_text()) for p in sorted(args.results.glob("*-trace1.json"))]
    summary = summarize(records, traced)
    for name, s in summary.items():
        print(f"{name}: {len(s['seeds'])} runs, all correct: {s['all_correct']}, "
              f"failed ops: {s['failed']}")
        for key, m in s["metrics"].items():
            print(f"  {key:<12} median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
                  f"  spread {m['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
