import hashlib
import json
import shlex
from pathlib import Path

from hamcover import cover as cover_mod
from hamcover.cli import build_parser, main
from hamcover.graph import (
    complete_graph,
    cycle_graph,
    is_hamilton_cycle,
    parse_edge_list,
    petersen_graph,
    read_edge_list,
    write_edge_list,
)
from hamcover.oracle import CoverValidation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timings(report: dict) -> dict:
    report = dict(report)
    report.pop("phase_timings_ms", None)
    report.pop("timings_ms", None)
    return report


def test_gen_then_hamilton(tmp_path, capsys):
    gpath = tmp_path / "k10.txt"
    code, _ = run(capsys, "gen", "--n", "10", "--p", "1.0", "--seed", "7",
                  "--out", str(gpath))
    assert code == 0
    G = read_edge_list(str(gpath))
    assert G.m == 45

    code, out = run(capsys, "hamilton", "--graph", str(gpath))
    assert code == 0
    cycle = [int(t) for t in out.split()]
    assert is_hamilton_cycle(G, cycle)


def test_gen_roundtrip_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _ = run(capsys, "gen", "--n", "40", "--p", "0.3", "--seed", "11",
                      "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert parse_edge_list(a.read_text()) == read_edge_list(str(a))


def test_verify_walecki(tmp_path, capsys):
    gpath = tmp_path / "k5.txt"
    write_edge_list(complete_graph(5), str(gpath))
    cpath = tmp_path / "walecki.txt"
    cpath.write_text("0 1 2 3 4\n0 2 4 1 3\n")
    code, _ = run(capsys, "verify", "--graph", str(gpath), "--cover", str(cpath))
    assert code == 0

    cpath.write_text("0 1 2 3 4\n")
    code, _ = run(capsys, "verify", "--graph", str(gpath), "--cover", str(cpath),
                  "--json")
    out = capsys.readouterr()
    assert code == 1


def test_verify_json_reports_vertex_beyond_int64(tmp_path, capsys):
    gpath = tmp_path / "c40.txt"
    write_edge_list(cycle_graph(40), str(gpath))
    cpath = tmp_path / "bad.txt"
    cpath.write_text(" ".join(map(str, range(39))) + " 99999999999999999999999\n")
    code, out = run(capsys, "verify", "--graph", str(gpath), "--cover", str(cpath), "--json")
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["bad_cycle"] == 0


def test_cover_rejects_bad_alpha(tmp_path, capsys):
    gpath = tmp_path / "k5.txt"
    write_edge_list(complete_graph(5), str(gpath))
    for alpha in ("0", "-1", "inf", "nan"):
        code = main(["cover", "--graph", str(gpath), "--alpha", alpha])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"alpha must be a finite number > 0, got {float(alpha)!r}" in err


def test_cover_petersen_fails_with_json(tmp_path, capsys):
    gpath = tmp_path / "petersen.txt"
    write_edge_list(petersen_graph(), str(gpath))
    code, out = run(capsys, "cover", "--graph", str(gpath), "--alpha", "0.3")
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["failure_phase"]
    # the Petersen graph has no Hamilton cycle, so the packing stalls first
    assert report["packing_stopped"].startswith("search stalled: ")
    assert report["config"]["alpha"] == 0.3


def test_cover_reports_and_verifies(tmp_path, capsys):
    gpath = tmp_path / "k9.txt"
    write_edge_list(complete_graph(9), str(gpath))
    cycles = tmp_path / "cycles.txt"
    code, out = run(capsys, "cover", "--graph", str(gpath), "--alpha", "0.5",
                    "--cycles-out", str(cycles))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["n"] == 9 and report["delta_max"] == 8
    assert report["cover_size"] >= 4
    assert report["ratio_lower_bound"] == report["cover_size"] / 4
    assert report["packing_stopped"] == "target reached"
    code, _ = run(capsys, "verify", "--graph", str(gpath), "--cover", str(cycles))
    assert code == 0


def test_cover_validation_failure_keeps_its_losses(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.txt"
    run(capsys, "gen", "--n", "32", "--p", "0.5", "--seed", "3", "--out", str(gpath))
    code, out = run(capsys, "cover", "--graph", str(gpath), "--alpha", "0.4")
    assert code == 0
    want = json.loads(out)["losses"]
    assert {"merge_lost", "soft_breaks", "soft_lost"} <= set(want)
    # a validator that rejects every cover, as if the certificate were wrong
    monkeypatch.setattr(cover_mod, "validate_cover",
                        lambda G, cycles: CoverValidation(ok=False, n_cycles=len(cycles),
                                                          bad_cycle=0))
    code, out = run(capsys, "cover", "--graph", str(gpath), "--alpha", "0.4")
    assert code == 1
    report = json.loads(out)
    assert report["failure_phase"] == "validation"
    assert report["failure_detail"].startswith("internal certificate check failed")
    assert report["losses"] == want


def test_cover_report_deterministic_modulo_timings(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run(capsys, "gen", "--n", "32", "--p", "0.5", "--seed", "3", "--out", str(gpath))
    reports = []
    for _ in range(2):
        code, out = run(capsys, "cover", "--graph", str(gpath), "--alpha", "0.4")
        assert code == 0
        reports.append(strip_timings(json.loads(out)))
    # against ceil(delta/2), the hard lower bound on any cover; delta is odd here
    report = reports[0]
    assert report["delta_max"] % 2 == 1
    assert report["ratio_lower_bound"] == report["cover_size"] / ((report["delta_max"] + 1) // 2)
    assert 1.0 <= report["ratio_lower_bound"] < report["ratio"]
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


def test_check_json_shape(tmp_path, capsys):
    gpath = tmp_path / "c5.txt"
    from hamcover.graph import cycle_graph

    write_edge_list(cycle_graph(5), str(gpath))
    code, out = run(capsys, "check", "--graph", str(gpath), "--s", "2",
                    "--g", "1", "--l", "3", "--trials", "20")
    assert code == 0
    report = json.loads(out)
    props = {r["property"]: r for r in report["reports"]}
    assert props["S"]["verdict"] == "holds"
    assert props["L"]["verdict"] == "holds"
    assert report["diameter"]["ok"] is True
    assert report["config"]["s"] == 2.0

    # boundary 2 exposes the adjacent-pair violation: exit 1
    code, out = run(capsys, "check", "--graph", str(gpath), "--s", "2", "--g", "2")
    assert code == 1
    report = json.loads(out)
    props = {r["property"]: r for r in report["reports"]}
    assert props["S"]["verdict"] == "violated"
    assert props["S"]["witness"] is not None


def test_hamilton_forbid_flag(tmp_path, capsys):
    gpath = tmp_path / "k6.txt"
    write_edge_list(complete_graph(6), str(gpath))
    fpath = tmp_path / "forbid.txt"
    fpath.write_text("6 3\n0 1\n2 3\n4 5\n")
    code, out = run(capsys, "hamilton", "--graph", str(gpath), "--forbid", str(fpath))
    assert code == 0
    cycle = [int(t) for t in out.split()]
    from hamcover.graph import cycle_edges

    assert {(0, 1), (2, 3), (4, 5)} <= cycle_edges(cycle)


def test_hamilton_failure_json(tmp_path, capsys):
    gpath = tmp_path / "petersen.txt"
    write_edge_list(petersen_graph(), str(gpath))
    code, out = run(capsys, "hamilton", "--graph", str(gpath))
    assert code == 1
    report = json.loads(out)
    assert report["failure"]


def test_pack_subcommand(tmp_path, capsys):
    gpath = tmp_path / "k7.txt"
    write_edge_list(complete_graph(7), str(gpath))
    code, out = run(capsys, "pack", "--graph", str(gpath))
    assert code == 0
    report = json.loads(out)
    assert report["config"] == {"command": "pack", "graph": str(gpath)}
    assert report["target"] == 3 and report["achieved"] == 3
    assert report["residual_m"] == 0


def test_experiment_csv(tmp_path, capsys):
    out_path = tmp_path / "results.csv"
    code, _ = run(capsys, "experiment", "--n", "24", "--p", "0.6", "--seeds", "2",
                  "--seed", "5", "--jobs", "1", "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().splitlines()
    assert rows[0].startswith("n,p,base,stream")
    assert len(rows) == 3
    assert rows[1].split(",")[3] == "0" and rows[2].split(",")[3] == "1"


def test_experiment_rerun_identical(tmp_path, capsys):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        code, _ = run(capsys, "experiment", "--n", "24", "--p", "0.6", "--seeds", "2",
                      "--seed", "5", "--jobs", "1", "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_experiment_csv_bytes_are_pinned(tmp_path, capsys):
    # the second configuration samples disconnected graphs, where the
    # expansion parameters raise and alpha falls back to 0.3
    pinned = {
        ("32", "0.5", "3", "77"):
            "4c62bff4da870d536b80a664a31f7891f7af04cc4bbbc5216f08b61007504b31",
        ("16", "0.05", "2", "9"):
            "e3368b2f9e457531c03e170f598fe0a64841718124f7edefa87a1a1126414b87",
    }
    for (n, p, seeds, seed), digest in pinned.items():
        path = tmp_path / f"n{n}.csv"
        code, _ = run(capsys, "experiment", "--n", n, "--p", p, "--seeds", seeds,
                      "--seed", seed, "--jobs", "1", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["nonsense"]) == 2
    assert main(["gen", "--n", "10"]) == 2  # missing required flags
    code, _ = run(capsys, "hamilton", "--graph", str(tmp_path / "missing.txt"))
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _ = run(capsys, "hamilton", "--graph", str(bad))
    assert code == 2


def test_bad_inputs_exit_2_with_an_error_line(tmp_path, capsys):
    gpath = tmp_path / "k5.txt"
    write_edge_list(complete_graph(5), str(gpath))
    words = tmp_path / "words.txt"
    words.write_text("0 1 two 3 4\n")
    forbid = tmp_path / "k6.txt"
    write_edge_list(complete_graph(6), str(forbid))
    cases = [
        ("cover file not found", ("verify", "--graph", str(gpath),
                                  "--cover", str(tmp_path / "missing.txt"))),
        ("malformed cover file", ("verify", "--graph", str(gpath), "--cover", str(words))),
        ("forbid file is on 6 vertices, graph on 5", ("hamilton", "--graph", str(gpath),
                                                      "--forbid", str(forbid))),
        ("--s must exceed 1 unless --g and --l are given", ("check", "--graph", str(gpath),
                                                            "--s", "1")),
    ]
    # exit 1 would mean a violation was found, so a bad boundary or frame
    # must exit 2 too
    check = ("check", "--graph", str(gpath), "--s", "2")
    cases += [("boundary g must be finite", (*check, "--g", g)) for g in ("inf", "nan")]
    cases += [("frame l must satisfy 0 < l < inf", (*check, "--l", l))
              for l in ("inf", "nan", "-3", "0")]
    # s is refused as g and l are, under its own name, whether or not --g
    # and --l are given
    for s in ("inf", "nan"):
        cases += [("expansion factor s must satisfy 1 < s < inf", (*check[:3], "--s", s, *gl))
                  for gl in ((), ("--g", "2"), ("--l", "2"))]
        cases += [("expansion factor s must be finite",
                   (*check[:3], "--s", s, "--g", "2", "--l", "2"))]
    # counts below their floor: none may run, nor write a header-only CSV
    cases += [("--trials must be at least 0, got -3", (*check, "--trials", "-3"))]
    experiment = ("experiment", "--n", "8", "--p", "0.5", "--out", str(tmp_path / "x.csv"))
    cases += [("--seeds must be at least 1, got -2", (*experiment, "--seeds", "-2"))]
    cases += [(f"--jobs must be at least 1 when given, got {jobs}",
               (*experiment, "--seeds", "1", "--jobs", jobs)) for jobs in ("0", "-4")]
    for message, argv in cases:
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {message}"), (argv, err)
    assert not (tmp_path / "x.csv").exists()


def test_readme_command_lines_parse():
    # every command of the README's "Command line" block is one the parser
    # accepts, with the optional flags in [ ] included
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("hamcover ")]
    assert len(lines) == 7
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""), comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line}") from None
