"""Run one hamcover benchmark workload and print its metrics.

    python3 bench/run.py --workload cover-small-batch --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the end-to-end metrics are measured with nothing wrapped;
their times are CPU times scaled to the reference speed (see ``harness``).
With ``--trace 1`` a checked untraced pass and a second untraced pass are
followed by one traced pass, and the per-layer metrics and the tracing
overhead (traced minus second pass) are reported. Every line but the
last is for people; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record of the
run goes to ``bench/results/`` (spans of a traced run too).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import harness as hb
from spans import Tracer, trace_points

RESULTS = Path(__file__).resolve().parent / "results"

E2E_UNITS = {"pass_s": "s", "op_s_p50": "s", "op_s_p90": "s", "setup_s": "s",
             "wall_s": "s", "fail_ratio": "ratio", "cover_ratio": "ratio",
             "pack_ratio": "ratio", "peak_rss_mb": "MB"}
# reported on every workload, so these are the ones the regression gate compares
GATED = ["pass_s", "op_s_p50", "setup_s", "pack_ratio", "peak_rss_mb"]


def untraced(w: hb.Workload, seed: int, seconds: float, setups: int, max_passes=None):
    """Set up ``setups`` times (keeping the last inputs), then run timed passes.
    Set-up CPU times are scaled like op times, by calibrations taken before
    each set-up and after the last."""
    times, cals, prints = [], [], []
    for _ in range(setups):
        inputs = None
        gc.collect()
        cals.append(hb.calibration())
        c = time.process_time()
        inputs = hb.setup(w, seed)
        times.append(time.process_time() - c)
        prints.append(hb.fingerprint(inputs.graphs))
    cals.append(hb.calibration())
    passes = hb.timed_passes(inputs, w, seconds, max_passes=max_passes)
    return inputs, hb.scaled(times, cals), len(set(prints)) == 1, passes


def judge(w: hb.Workload, inputs: hb.Inputs, passes) -> tuple[list, int, bool]:
    """Check the first pass's outputs; later passes must repeat its certificate."""
    first = passes[0]
    reasons = [hb.check_op(inputs.hc, w.kind, G, r) for G, r in zip(inputs.graphs, first.results)]
    wrong = any(reason and ok for reason, ok in zip(reasons, first.ok))
    repeatable = all(p.cert == first.cert for p in passes)
    failed = sum(reason is not None for reason in reasons) * len(passes)
    return reasons, failed, repeatable and not wrong


def traced_pass(w: hb.Workload, inputs: hb.Inputs, seed: int):
    """Sample and run the workload once with every trace point wrapped."""
    points = trace_points(inputs.hc)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in points]
    tracer = Tracer()
    with tracer:
        tracer.install(points)
        graphs = hb.sample_graphs(inputs.hc, w, seed)
        same = hb.fingerprint(graphs) == hb.fingerprint(inputs.graphs)
        run = hb.timed_pass(hb.Inputs(inputs.hc, graphs, inputs.alpha), w, tracer=tracer)
    restored = all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    return tracer, run, same and restored


def layer_metrics(tracer: Tracer, base: hb.Pass, traced: hb.Pass) -> dict[str, float]:
    raw = tracer.layer_metrics()

    def share(num: str, calls: str) -> float:
        return raw.get(num, 0.0) / raw[calls] if raw.get(calls) else 0.0

    raw["rotation.find_hamilton_cycle.ok_ratio"] = share(
        "rotation.find_hamilton_cycle.ok", "rotation.find_hamilton_cycle.calls")
    raw["cover.cover_matching_once.useful_ratio"] = share(
        "cover.cover_matching_once.useful", "cover.cover_matching_once.calls")
    raw["trace.overhead_s"] = traced.wall - base.wall
    raw["trace.self_gap_s"] = sum(tracer.op_self_sums().values()) - sum(base.op_times)
    return {name: float(raw.get(name, 0.0)) for name, _, _ in hb.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(hb.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = hb.WORKLOADS[args.workload]
    try:
        hb.import_hamcover()
    except (hb.BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    setups = 1 if args.trace else hb.SETUP_REPEATS
    inputs, setup_times, same_graphs, passes = untraced(
        w, args.seed, args.seconds, setups, max_passes=1 if args.trace else None)
    reasons, failed, correct = judge(w, inputs, passes)
    correct = correct and same_graphs
    first = passes[0]
    op_times = [t for p in passes for t in p.scaled_ops]
    attempted = len(op_times)

    e2e = {
        "pass_s": statistics.median(sum(p.scaled_ops) for p in passes),
        "op_s_p50": statistics.median(op_times),
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall for p in passes),
        "fail_ratio": failed / attempted,
        **hb.quality(w, inputs.graphs, first.results),
    }
    if len(op_times) >= 100:  # at least ten samples beyond the p90
        e2e["op_s_p90"] = hb.p90(op_times)
    record = {"workload": {**dataclasses.asdict(w), "why": w.why},
              "stamp": hb.stamp(args.seed), "seconds": args.seconds, "trace": args.trace,
              "passes": len(passes), "ops": attempted,
              "setup_times_s": setup_times, "op_times_s": op_times,
              "calibrations_s": [p.cals for p in passes],
              "cert_sha256": first.cert, "rejections": [r for r in reasons if r]}

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        # the checked pass kept its results; the overhead is measured against
        # an untraced pass that, like the traced one, keeps none
        first.results.clear()
        base = hb.timed_pass(inputs, w)
        tracer, traced, faithful = traced_pass(w, inputs, args.seed)
        correct = correct and faithful and traced.cert == base.cert == first.cert
        metrics = layer_metrics(tracer, base, traced)
        units = {name: unit for name, unit, _ in hb.PER_LAYER}
        tracer.write(RESULTS / f"{w.name}-seed{args.seed}.spans.jsonl")
        gap, overhead = metrics["trace.self_gap_s"], metrics["trace.overhead_s"]
        print(f"self times in ops sum to the untraced op time within the overhead: "
              f"{'yes' if abs(gap) <= abs(overhead) + 0.01 * base.wall else 'no'} "
              f"(gap {gap:.4f} s, overhead {overhead:.4f} s)")
    else:
        e2e["peak_rss_mb"] = hb.peak_rss_mb()
        metrics = {name: e2e[name] for name in GATED}
        units = E2E_UNITS
    record.update(e2e=e2e, metrics=metrics, correct=correct, failed=failed)
    (RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("stamp " + " ".join(f"{k}={v}" for k, v in record["stamp"].items()))
    print(f"workload {w.name}: {w.ops} {w.kind} ops on G({w.n}, {w.p}), "
          f"{len(passes)} pass(es), {attempted} ops timed, "
          f"{hb.CAL_REF_S / statistics.median(c for p in passes for c in p.cals):.4f} "
          f"reference s per CPU s")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:.6g} {E2E_UNITS[name]}")
    if "op_s_p90" in e2e:
        print(f"  (op_s_p90 over {attempted} op samples)")
    print(f"  cert_sha256  {first.cert}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<48} {value:.6g} {units[name]}")
    for reason in record["rejections"]:
        print(f"  rejected: {reason}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
