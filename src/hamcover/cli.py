"""Command-line surface: gen / check / hamilton / pack / cover / experiment / verify.

Data goes to stdout or --out; logs go to stderr (HAMCOVER_LOG=debug|info
raises verbosity). Every JSON report embeds the exact run configuration, and
identical configurations reproduce identical reports apart from timing
fields. Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import cover as cover_mod
from .expansion import (
    diameter_bound_check,
    large_expansion_witness_search,
    small_expansion_witness_search,
)
from .gnp import RngSeed, expander_params, sample_gnp
from .graph import GraphError, format_edge_list, read_edge_list
from .oracle import validate_cover
from .rotation import RotationConstraints, find_hamilton_cycle

log = logging.getLogger("hamcover")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


def _load_graph(path: str):
    try:
        return read_edge_list(path)
    except FileNotFoundError:
        raise SystemExit(_usage_error(f"graph file not found: {path}"))
    except GraphError as exc:
        raise SystemExit(_usage_error(f"malformed graph {path}: {exc}"))


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _config(args: argparse.Namespace, keys: list[str]) -> dict:
    return {"command": args.command, **{k: getattr(args, k) for k in keys}}


def cmd_gen(args) -> int:
    seed = RngSeed(args.seed, args.stream)
    G = sample_gnp(args.n, args.p, seed)
    _emit(format_edge_list(G), args.out)
    log.info("sampled G(%d, %g) seed=(%d,%d): m=%d", args.n, args.p,
             args.seed, args.stream, G.m)
    return 0


def cmd_check(args) -> int:
    if args.trials is not None and args.trials < 0:
        return _usage_error(f"--trials must be at least 0, got {args.trials}")
    G = _load_graph(args.graph)
    s = args.s
    g, l = args.g, args.l
    if g is None or l is None:
        if s <= 1.0:
            return _usage_error("--s must exceed 1 unless --g and --l are given")
        params = expander_params(max(G.n, 2), s)
        g = params.g if g is None else g
        l = params.frame_clamped if l is None else l
    seed = RngSeed(args.seed)
    small = small_expansion_witness_search(G, s, g, trials=args.trials, seed=seed)
    large = large_expansion_witness_search(G, l, trials=args.trials, seed=seed)
    diam = diameter_bound_check(G, s) if s > 1 else None
    report = {
        "config": _config(args, ["graph", "s", "g", "l", "trials", "seed"]),
        "reports": [small.to_dict(), large.to_dict()],
        "diameter": diam.to_dict() if diam else None,
    }
    _emit_json(report, args.out)
    return 1 if "violated" in (small.verdict, large.verdict) else 0


def cmd_hamilton(args) -> int:
    G = _load_graph(args.graph)
    constraints = RotationConstraints()
    if args.forbid:
        F = _load_graph(args.forbid)
        if F.n != G.n:
            return _usage_error(f"forbid file is on {F.n} vertices, graph on {G.n}")
        constraints = RotationConstraints(locked=F.edge_set())
    res = find_hamilton_cycle(G, constraints)
    if res.ok:
        _emit(" ".join(map(str, res.cycle)) + "\n", args.out)
        return 0
    _emit_json({
        "config": _config(args, ["graph", "forbid"]),
        "failure": res.failure,
        "iterations": res.iterations,
        "path_len": res.path_len,
    }, args.out)
    return 1


def cmd_pack(args) -> int:
    G = _load_graph(args.graph)
    target = G.min_degree() // 2
    packing = cover_mod.extract_packing(G, target)
    _emit_json({
        "config": _config(args, ["graph"]),
        "target": target,
        "achieved": packing.achieved,
        "stopped": packing.stopped,
        "residual_m": packing.residual.m,
        "cycles": [list(c) for c in packing.cycles],
    }, args.out)
    return 0


def cmd_cover(args) -> int:
    G = _load_graph(args.graph)
    outcome = cover_mod.cover_graph(G, args.alpha)
    config = _config(args, ["graph", "alpha"])
    if not outcome.ok:
        _emit_json({
            "config": config,
            "valid": False,
            "failure_phase": outcome.failure_phase,
            "failure_detail": outcome.failure_detail,
            "packing_stopped": outcome.packing_stopped,
            "losses": outcome.losses,
            "phase_timings_ms": outcome.timings_ms,
        }, args.out)
        return 1
    cert = outcome.certificate
    report = {
        "config": config,
        "n": G.n,
        "m": G.m,
        "delta_max": G.max_degree(),
        "h": cert.h,
        "cover_size": cert.cover_size,
        "ratio": cert.cover_size / (G.max_degree() / 2.0),
        "ratio_lower_bound": cert.cover_size / math.ceil(G.max_degree() / 2),
        "packing_stopped": outcome.packing_stopped,
        "losses": outcome.losses,
        "phase_timings_ms": outcome.timings_ms,
        "valid": True,
        "cycles": [list(c) for c in cert.cycles],
    }
    _emit_json(report, args.out)
    if args.cycles_out:
        with open(args.cycles_out, "w", encoding="ascii") as fh:
            for c in cert.cycles:
                fh.write(" ".join(map(str, c)) + "\n")
    return 0


def cmd_experiment(args) -> int:
    if args.seeds < 1:
        return _usage_error(f"--seeds must be at least 1, got {args.seeds}")
    if args.jobs is not None and args.jobs < 1:
        return _usage_error(f"--jobs must be at least 1 when given, got {args.jobs}")
    jobs = args.jobs or os.cpu_count() or 1
    reports = cover_mod.run_gnp_experiment(
        args.n, args.p, list(range(args.seeds)), base_seed=args.seed, jobs=jobs)
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cover_mod.CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        writer.writerow(cover_mod.csv_row(r))
    _emit(buf.getvalue(), args.out)
    bad = [r for r in reports if not r.valid]
    for r in bad:
        log.warning("seed %d failed: %s", r.stream, r.error)
    return 0


def cmd_verify(args) -> int:
    G = _load_graph(args.graph)
    try:
        with open(args.cover, "r", encoding="ascii") as fh:
            cycles = [tuple(int(t) for t in line.split()) for line in fh if line.strip()]
    except FileNotFoundError:
        return _usage_error(f"cover file not found: {args.cover}")
    except ValueError as exc:
        return _usage_error(f"malformed cover file {args.cover}: {exc}")
    result = validate_cover(G, cycles)
    if args.json:
        _emit_json({
            "config": _config(args, ["graph", "cover"]),
            "valid": result.ok,
            "n_cycles": result.n_cycles,
            "bad_cycle": result.bad_cycle,
            "min_coverage": result.min_coverage,
            "uncovered": [list(e) for e in result.uncovered],
        }, args.out)
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamcover",
        description="Cover graph edges by Hamilton cycles; generate, check and verify instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a seeded G(n,p) graph to edge-list format")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="sampled expansion witness search plus diameter bound "
                                     "(exit 1 when a violation witness is found)")
    p.add_argument("--graph", required=True)
    p.add_argument("--s", type=float, required=True, help="expansion factor")
    p.add_argument("--g", type=float, default=None, help="boundary (default: s-expander formula)")
    p.add_argument("--l", type=float, default=None, help="frame (default: s-expander formula)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hamilton", help="heuristic Hamilton cycle search")
    p.add_argument("--graph", required=True)
    p.add_argument("--forbid", default=None,
                   help="edge-list file of edges the search must never break; they are "
                        "joined into one seed path by a single greedy k = 1 splice round, "
                        "which can fail with \"could not chain locked edges into one "
                        "path\" on a linear forest that another splice order joins")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hamilton)

    p = sub.add_parser("pack", help="greedy edge-disjoint Hamilton cycle packing")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("cover", help="full packing-then-cover pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--cycles-out", default=None,
                   help="also write cycles one-per-line for `verify`")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("experiment", help="seeded end-to-end G(n,p) experiment, CSV output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seeds", type=int, required=True, help="number of seed streams (0..K-1)")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: all cores)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="validate a cover file against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True, help="one cycle per line, space-separated vertices")
    p.add_argument("--json", action="store_true", help="print a JSON detail report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("HAMCOVER_LOG", "").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (GraphError, ValueError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
