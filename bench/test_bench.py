"""Tests of the benchmark itself: wrappers, checker, determinism, contract.

They reuse the already imported hamcover (``harness.setup`` re-imports the
package, which would hand other test modules a second copy of its classes).
"""

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hamcover
import harness as hb
from spans import Tracer, trace_points

HERE = Path(__file__).resolve().parent
COVER = hb.Workload("tiny-cover", "cover", 48, 0.4, 2, "test")
PACK = hb.Workload("tiny-pack", "pack", 64, 0.5, 2, "test")


def inputs_for(w, seed=3):
    alpha = hamcover.gnp.expander_params_for_gnp(w.n, w.p).alpha
    return hb.Inputs(hamcover, hb.sample_graphs(hamcover, w, seed), alpha)


def test_tracer_restores_every_original():
    points = trace_points(hamcover)
    originals = [vars(owner)[attr] for owner, attr, _, _ in points]
    inputs = inputs_for(COVER)
    tracer = Tracer()
    with tracer:
        tracer.install(points)
        assert all(vars(o)[a] is not f for (o, a, _, _), f in zip(points, originals))
        traced = hb.timed_pass(inputs, COVER, tracer=tracer)
    assert all(vars(o)[a] is f for (o, a, _, _), f in zip(points, originals))
    recorded = len(tracer.spans)
    untraced = hb.timed_pass(inputs, COVER)
    assert len(tracer.spans) == recorded > 0
    assert untraced.cert == traced.cert


def test_self_times_sum_to_op_time():
    inputs = inputs_for(COVER)
    with Tracer() as tracer:
        tracer.install(trace_points(hamcover))
        hb.timed_pass(inputs, COVER, tracer=tracer)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cover.cover_graph"] * COVER.ops
    sums = tracer.op_self_sums()
    for op, root in enumerate(roots):
        assert sums[op] == pytest.approx(root[2] - root[1], abs=1e-9)
    layer = tracer.layer_metrics()
    assert layer["families.merge_into_single_path.calls"] > 0
    assert layer["rotation.find_hamilton_cycle.ok"] == layer["rotation.find_hamilton_cycle.calls"]


def test_checker_rejects_cover_with_a_cycle_dropped():
    inputs = inputs_for(COVER)
    run = hb.timed_pass(inputs, COVER, keep=True)
    G, res = inputs.graphs[0], run.results[0]
    assert hb.check_op(hamcover, "cover", G, res) is None
    cert = res.certificate
    # drop a cycle that is the only one through some edge
    i = next(i for i, c in enumerate(cert.cycles)
             if any(cert.coverage[e] == 1 for e in hamcover.graph.cycle_edges(c)))
    short = dataclasses.replace(cert, cycles=cert.cycles[:i] + cert.cycles[i + 1:])
    tampered = dataclasses.replace(res, certificate=short)
    assert hb.check_op(hamcover, "cover", G, tampered) is not None


def test_checker_rejects_packing_with_a_duplicated_cycle():
    inputs = inputs_for(PACK)
    run = hb.timed_pass(inputs, PACK, keep=True)
    G, res = inputs.graphs[0], run.results[0]
    assert res.achieved >= 1
    assert hb.check_op(hamcover, "pack", G, res) is None
    tampered = dataclasses.replace(res, cycles=res.cycles + [res.cycles[0]])
    assert "shares edges" in hb.check_op(hamcover, "pack", G, tampered)


def test_same_seed_same_graphs_and_certificate():
    for w in (COVER, PACK):
        a, b = inputs_for(w, seed=11), inputs_for(w, seed=11)
        assert hb.fingerprint(a.graphs) == hb.fingerprint(b.graphs)
        assert hb.timed_pass(a, w).cert == hb.timed_pass(b, w).cert
    other = inputs_for(COVER, seed=12)
    assert hb.fingerprint(other.graphs) != hb.fingerprint(inputs_for(COVER, seed=11).graphs)


def test_calibrated_pass_scales_cpu_times_to_the_reference_speed():
    inputs = inputs_for(COVER)
    run = hb.timed_pass(inputs, COVER)
    assert gc.isenabled()
    assert len(run.cals) == COVER.ops + 1 and min(run.cals) > 0
    before, after = run.cals[0], run.cals[1]
    assert run.scaled_ops[0] == pytest.approx(run.op_cpu[0] * hb.CAL_REF_S / ((before + after) / 2))
    assert hb.scaled([1.0, 3.0], [0.5, 1.5, 0.5]) == pytest.approx(
        [hb.CAL_REF_S, 3 * hb.CAL_REF_S])
    # the loop's work is fixed, whatever the program does
    assert hb._calibration_loop() == hb._calibration_loop() >= 400


def test_canonical_cycle_matches_the_engine():
    cyc = (5, 2, 7, 0, 3, 9)
    assert tuple(hb.canonical(cyc)) == hamcover.graph.canonical_cycle(cyc)
    assert hb.canonical(cyc) == hb.canonical(cyc[::-1])


def test_benchmark_json_matches_the_harness():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in hb.WORKLOADS.values()]
    assert [m["name"] for m in spec["end_to_end"]] == run.GATED
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == hb.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cover-small-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
