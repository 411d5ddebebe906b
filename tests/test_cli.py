"""End-to-end command-line checks: artifacts on stdout, logs on stderr."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hyperboot
from hyperboot import hypergraph
from hyperboot.builders import bootstrap_lift, complete_uniform, load_pattern
from hyperboot.cli import _build_parser, main
from hyperboot.experiments import ModelRecipe
from hyperboot.hypergraph import Hypergraph, loads, to_json
from test_builders import LIFT_DIGESTS


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(to_json(complete_uniform(4, 3)))
    return str(path)


@pytest.fixture
def lift_file(tmp_path):
    H = bootstrap_lift(complete_uniform(12, 2), load_pattern("k3"))
    path = tmp_path / "lift12.json"
    path.write_text(to_json(H))
    return str(path)


def test_build_complete(capsys):
    code, out, err = run_cli(capsys, "build", "--complete", "4", "3")
    assert code == 0
    H = loads(out)
    assert (H.n, H.r, H.num_edges) == (4, 3, 4)
    assert err == ""


def test_build_lift_matches_library(capsys):
    code, out, _ = run_cli(capsys, "build", "--lift", "10", "--pattern", "k3")
    assert code == 0
    H = loads(out)
    want = bootstrap_lift(complete_uniform(10, 2), load_pattern("k3"))
    assert out == to_json(want)
    assert H.n == 45


def test_build_lift_host_takes_the_pattern_uniformity(capsys):
    code, out, _ = run_cli(capsys, "build", "--lift", "8",
                           "--pattern", "loose_triangle_3")
    assert code == 0
    H = loads(out)
    digest = hashlib.sha256(H.edges_array.tobytes()).hexdigest()
    assert digest == LIFT_DIGESTS[("loose_triangle_3", 8)]
    recipe = ModelRecipe("lift", n=8, pattern="loose_triangle_3")
    assert to_json(recipe.build()) == out


def test_build_requires_exactly_one_source():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--complete", "4", "3", "--lift", "10"])
    assert exc.value.code == 2


def test_build_size_guard_exit_code(capsys):
    # the triangle lift of K_1000 would have C(1000, 3) = 166 M edges
    for argv in (["--complete", "40", "20"],
                 ["--lift", "1000", "--pattern", "k3"]):
        code, out, err = run_cli(capsys, "build", *argv)
        assert code == 3
        assert out == ""
        assert "size guard" in err


def test_closure_round_trip(capsys, k4_file):
    code, out, err = run_cli(capsys, "closure", "--in", k4_file,
                             "--infected", "0,1")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"infected": [0, 1, 2, 3], "count": 4, "percolates": True}
    assert err == ""


def test_closure_bad_vertex_list(capsys, k4_file):
    code, _, err = run_cli(capsys, "closure", "--in", k4_file,
                           "--infected", "0,x")
    assert code == 2
    assert "comma-separated" in err


def test_check_round_trip(capsys, lift_file):
    code, out, _ = run_cli(capsys, "check", "--in", lift_file,
                           "--d", "10", "--rho", "0.3163", "--nu", "70")
    assert code == 0
    obj = json.loads(out)
    assert obj["passes"] is True
    assert obj["d"] == 10.0
    assert {cond["name"].split(":")[0] for cond in obj["conditions"]} == set(
        "abcde")


def test_check_link_budget_exit_code(capsys, k4_file, monkeypatch):
    monkeypatch.setattr(hypergraph, "LINK_PAIR_LIMIT", 0)
    code, out, err = run_cli(capsys, "check", "--in", k4_file,
                             "--d", "3", "--rho", "1", "--nu", "4")
    assert code == 3
    assert out == ""
    assert "size guard" in err


@pytest.mark.parametrize("command", ["simulate", "trajectory"])
@pytest.mark.parametrize("stride", ["0", "-1"])
def test_stride_below_one_exits_2(capsys, lift_file, command, stride):
    code, out, err = run_cli(capsys, command, "--in", lift_file,
                             "--c", "0.4", "--alpha", "1.0", "--d", "10",
                             "--stride", stride)
    assert code == 2
    assert out == ""
    assert "stride" in err


def test_simulate_splits_artifact_and_log(capsys, lift_file):
    code, out, err = run_cli(capsys, "simulate", "--in", lift_file,
                             "--c", "0.4", "--alpha", "1.0", "--d", "10",
                             "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,t,Q,I,gamma_pred,phase"
    assert lines[1].startswith("0,0,")
    summary = json.loads(err)
    assert set(summary) == {"percolated", "infected_count", "sampled_count"}


def test_simulate_and_trajectory_share_the_seed(capsys, lift_file):
    flags = ("--in", lift_file, "--c", "0.4", "--alpha", "1.0", "--d", "10",
             "--seed", "5")
    code, simulated, _ = run_cli(capsys, "simulate", *flags)
    assert code == 0
    code, traced, _ = run_cli(capsys, "trajectory", *flags, "--traces", "1")
    assert code == 0
    assert simulated == traced


def test_pc_single_edge(capsys, tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(to_json(loads('{"n": 3, "r": 3, "edges": [[0, 1, 2]]}')))
    code, out, _ = run_cli(capsys, "pc", "--in", str(path), "--q", "1.0",
                           "--trials", "2000", "--tol", "0.02",
                           "--seed", "11", "--threads", "1")
    assert code == 0
    obj = json.loads(out)
    assert 0.48 <= obj["p_hat"] <= 0.52
    assert obj["ci_low"] <= obj["p_hat"] <= obj["ci_high"]
    assert obj["evaluations"]


def test_pc_rejects_thin_trials(capsys, k4_file):
    code, _, err = run_cli(capsys, "pc", "--in", k4_file, "--q", "1.0",
                           "--trials", "10")
    assert code == 2
    assert "trials" in err


def test_scan_formats_and_prediction(capsys, lift_file):
    args = ("scan", "--in", lift_file, "--grid", "0.125,0.5",
            "--alpha", "1.0", "--d", "10", "--trials", "25", "--seed", "3",
            "--threads", "1")
    code, out_json, _ = run_cli(capsys, *args)
    assert code == 0
    rows = json.loads(out_json)["rows"]
    assert [row["predicted"] for row in rows] == ["subcritical",
                                                  "supercritical"]
    assert rows[0]["fraction"] <= rows[1]["fraction"]
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    lines = out_csv.splitlines()
    assert lines[0] == "c,p,q,trials,successes,fraction,ci_low,ci_high,predicted"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0.125"


def test_scan_rejects_empty_grid(capsys, lift_file):
    code, out, err = run_cli(capsys, "scan", "--in", lift_file, "--grid", "",
                             "--alpha", "1.0", "--d", "10")
    assert code == 2
    assert out == ""
    assert "grid" in err


def test_trajectory_directory_output(capsys, lift_file, tmp_path):
    outdir = tmp_path / "traces"
    code, out, _ = run_cli(capsys, "trajectory", "--in", lift_file,
                           "--c", "0.4", "--alpha", "1.0", "--d", "10",
                           "--traces", "2", "--seed", "7",
                           "--out", str(outdir))
    assert code == 0
    assert json.loads(out)["traces"] == 2
    assert (outdir / "trace_000.csv").exists()
    assert (outdir / "trace_001.csv").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert len(summary["traces"]) == 2


def test_trajectory_multi_trace_needs_directory(capsys, lift_file):
    code, _, err = run_cli(capsys, "trajectory", "--in", lift_file,
                           "--c", "0.4", "--alpha", "1.0", "--d", "10",
                           "--traces", "2")
    assert code == 2
    assert "DIRECTORY" in err


@pytest.mark.parametrize("flags,message", [
    (("--traces", "0"), "--traces"), (("--traces", "-2"), "--traces"),
    (("--stars", "0,0", "--star-vertices", "-3"), "star_vertices")])
def test_trajectory_rejects_bad_counts(capsys, lift_file, tmp_path, flags,
                                       message):
    outdir = tmp_path / "traces"
    for out in ([], ["--out", str(outdir)]):
        code, stdout, err = run_cli(capsys, "trajectory", "--in", lift_file,
                                    "--c", "0.4", "--alpha", "1.0",
                                    "--d", "10", *flags, *out)
        assert code == 2
        assert stdout == ""
        assert message in err
        assert not outdir.exists()


def test_kbalance_library_pattern(capsys):
    code, out, _ = run_cli(capsys, "kbalance", "--pattern", "k4")
    assert code == 0
    obj = json.loads(out)
    assert obj["density"] == [5, 2]
    assert obj["strictly_balanced"] is True
    code, out, _ = run_cli(capsys, "kbalance", "--pattern",
                           "triangle_pendant")
    obj = json.loads(out)
    assert obj["strictly_balanced"] is False
    assert obj["witness_density"] == [2, 1]
    assert len(obj["witness_edges"]) == 3


def test_kbalance_unknown_pattern(capsys):
    code, _, err = run_cli(capsys, "kbalance", "--pattern", "moebius")
    assert code == 2
    assert "moebius" in err


def test_census_counts_degree(capsys, k4_file, tmp_path):
    config = {"pattern": {"n": 3, "r": 3, "edges": [[0, 1, 2]]},
              "roots": [0], "marked": []}
    cfg = tmp_path / "single.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "census", "--in", k4_file,
                           "--config", str(cfg), "--root", "2")
    assert code == 0
    assert json.loads(out)["count"] == 3
    code, out, _ = run_cli(capsys, "census", "--in", k4_file,
                           "--config", str(cfg), "--root", "2",
                           "--format", "csv")
    assert out == "3\n"


@pytest.mark.parametrize("edges,named", [
    ([[0, 1, 2.7]], "edge [0.0, 1.0, 2.7]"),
    ([[0, 1, 4294967296]], "edge [0, 1, 4294967296]"),
    (7, "edge 7"),
    ([[0, 1, 2], [0, 1]], "edge [0, 1] has 2 vertices, expected 3"),
    ([[0, 2, True]], "edge [0, 2, True]"),
], ids=["fractional_id", "id_past_int32", "edges_not_a_list", "short_row",
        "bool_id"])
def test_malformed_host_exits_2_naming_the_edge(capsys, tmp_path, edges,
                                                named):
    path = tmp_path / "host.json"
    path.write_text(json.dumps({"n": 4, "r": 3, "edges": edges}))
    code, out, err = run_cli(capsys, "closure", "--in", str(path),
                             "--infected", "0")
    assert code == 2 and out == ""
    assert named in err


SPEC = {"model": {"kind": "complete", "n": 6, "k": 3},
        "params": {"r": 3, "c": 0.5, "alpha": 1.0, "d": 10.0},
        "trials": 20, "seed": 2, "mode": "percolation_prob"}


@pytest.mark.parametrize("mode", ["percolation_prob", "pc_bisect", "scan",
                                  "trajectory"])
def test_spec_of_another_uniformity_exits_2(capsys, tmp_path, mode):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(
        SPEC, model={"kind": "complete", "n": 6, "k": 4},
        params=dict(SPEC["params"], c=0.4), mode=mode, grid=[0.4])))
    code, out, err = run_cli(capsys, "experiment", "--spec", str(path),
                             "--threads", "1")
    assert code == 2 and out == ""
    assert "hypergraph uniformity 4 != params.r 3" in err


@pytest.mark.parametrize("flag,record,field", [
    ("--spec", dict(SPEC, trials=None), "'trials'"),
    ("--spec", dict(SPEC, mode="scan", grid=0.5), "'grid'"),
    ("--spec", [1, 2], "JSON object"),
    ("--in", {"n": None, "r": 3, "edges": [[0, 1, 2]]}, "'n'"),
    ("--config", {"pattern": {"n": 3, "r": 3, "edges": [[0, 1, 2]]},
                  "roots": 0, "marked": []}, "'roots'"),
    ("--spec", dict(SPEC, trials=2.5), "'trials'"),
    ("--spec", dict(SPEC, trials=True), "'trials'"),
    ("--in", {"n": 4.9, "r": 3, "edges": [[0, 1, 2]]}, "'n'"),
    ("--config", {"pattern": {"n": 3, "r": 3, "edges": [[0, 1, 2]]},
                  "roots": [0.9], "marked": []}, "'roots'"),
    ("--spec", dict(SPEC, star_indices=[[0.7, 1]]), "'star_indices'"),
    ("--spec", dict(SPEC, params=dict(SPEC["params"], c=True)), "'c'"),
    ("--spec", dict(SPEC, params=dict(SPEC["params"], c="0.5")), "'c'"),
    ("--spec", dict(SPEC, mode="scan", grid=[True, "0.25"]), "'grid'"),
    ("--spec", dict(SPEC, mode="pc_bisect", tol=float("nan")), "'tol'"),
], ids=["spec_trials_null", "spec_grid_scalar", "spec_not_an_object",
        "host_n_null", "config_roots_scalar", "spec_trials_fractional",
        "spec_trials_bool", "host_n_fractional", "config_roots_fractional",
        "spec_star_indices_fractional", "spec_c_bool", "spec_c_string",
        "spec_grid_bool_and_string", "spec_tol_nan"])
def test_record_field_of_wrong_type_exits_2(capsys, k4_file, tmp_path, flag,
                                            record, field):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    argv = {"--spec": ("experiment", "--spec", str(path)),
            "--in": ("closure", "--in", str(path), "--infected", "0"),
            "--config": ("census", "--in", k4_file, "--config", str(path),
                         "--root", "2")}[flag]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert field in err


@pytest.mark.parametrize("argv,named", [
    (("simulate", "--c", "0.4", "--alpha", "1", "--d", "inf"), "d=inf"),
    (("simulate", "--c", "nan", "--alpha", "1", "--d", "10"), "c=nan"),
    (("trajectory", "--c", "0.4", "--alpha", "1", "--d", "10",
      "--K=-inf"), "K=-inf"),
    (("scan", "--grid", "0.5", "--alpha", "inf", "--d", "10"), "alpha=inf"),
    (("pc", "--q", "0.5", "--tol", "nan"), "tol=nan"),
    (("pc", "--q", "0.5", "--tol", "inf"), "tol=inf"),
    (("pc", "--q", "0.5", "--d", "nan"), "d=nan"),
    (("pc", "--q", "0.5", "--d", "0"), "d=0.0"),
    (("pc", "--q", "0.5", "--d", "-4"), "d=-4.0"),
    (("pc", "--q", "0.5", "--d", "inf"), "d=inf"),
    (("check", "--d", "nan", "--rho", "0.5", "--nu", "100"), "d=nan"),
    (("check", "--d", "10", "--rho", "nan", "--nu", "inf"), "rho=nan"),
    (("check", "--d", "10", "--rho", "0.5", "--nu", "inf"), "nu=inf"),
], ids=["simulate_d_inf", "simulate_c_nan", "trajectory_K_minus_inf",
        "scan_alpha_inf", "pc_tol_nan", "pc_tol_inf", "pc_d_nan", "pc_d_0",
        "pc_d_minus_4", "pc_d_inf", "check_d_nan", "check_rho_nan_nu_inf",
        "check_nu_inf"])
def test_non_finite_numbers_exit_2_naming_the_value(capsys, lift_file, argv,
                                                    named):
    code, out, err = run_cli(capsys, argv[0], "--in", lift_file, *argv[1:])
    assert code == 2 and out == ""
    assert named in err


def test_pc_default_degree_scale_of_a_host_without_edges_exits_2(capsys,
                                                                tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(to_json(Hypergraph.from_rows(5, 3, [])))
    code, out, err = run_cli(capsys, "pc", "--in", str(path), "--q", "0.5")
    assert code == 2 and out == ""
    assert "d=0.0" in err


def test_seed_and_threads_validation(capsys, k4_file):
    scan = ("scan", "--in", k4_file, "--grid", "0.5", "--alpha", "1.0",
            "--d", "3")
    code, _, err = run_cli(capsys, *scan, "--seed", "-1")
    assert code == 2 and "--seed" in err
    code, _, err = run_cli(capsys, *scan, "--threads", "0")
    assert code == 2 and "--threads" in err


@pytest.mark.parametrize("argv", [
    ("closure", "--infected", "0", "--seed", "5"),
    ("experiment", "--spec", "spec.json", "--seed", "99"),
    ("pc", "--q", "0.5", "--format", "csv"),
    ("simulate", "--c", "0.4", "--alpha", "1", "--d", "10", "--threads", "7"),
    ("build", "--complete", "4", "3", "--threads", "2")])
def test_flags_a_command_does_not_read_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


# the shared flags each command reads; every other pair is refused
SHARED_FLAGS = {
    "build": {"--out"},
    "check": {"--out"},
    "closure": {"--out"},
    "simulate": {"--out", "--seed"},
    "pc": {"--out", "--seed", "--threads"},
    "scan": {"--out", "--seed", "--threads", "--format"},
    "trajectory": {"--out", "--seed"},
    "kbalance": {"--out"},
    "census": {"--out", "--format"},
    "experiment": {"--out", "--threads"},
}


def _subcommands() -> dict:
    parser = _build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_shared_flags_only_where_read():
    shared = {"--out", "--seed", "--threads", "--format"}
    got = {name: shared & set(p._option_string_actions)
           for name, p in _subcommands().items()}
    assert got == SHARED_FLAGS
    assert sum(map(len, got.values())) == 19


def _readme_section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_readme_command_lines_parse():
    section = _readme_section("Command line")
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("hyperboot ")]
    assert {shlex.split(ln)[1] for ln in lines} == set(_subcommands())
    parser = _build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if ">" in argv:
            argv = argv[:argv.index(">")]
        parser.parse_args(argv)


def test_readme_flag_table_matches_parser():
    rows = [ln for ln in _readme_section("Command line").splitlines()
            if ln.startswith("| `")]
    table = {}
    for row in rows:
        command, flags = (cell.strip() for cell in row.strip("|").split("|"))
        table[command.strip("`")] = set(re.findall(r"--[A-Za-z-]+", flags))
    want = {name: set(p._option_string_actions) - {"-h", "--help"}
            for name, p in _subcommands().items()}
    assert table == want


def test_missing_input_file(capsys):
    code, _, err = run_cli(capsys, "closure", "--in", "/nonexistent.json",
                           "--infected", "0")
    assert code == 2
    assert err != ""


def test_experiment_spec_file(capsys, tmp_path):
    spec = {
        "model": {"kind": "lift", "n": 12, "pattern": "k3"},
        "params": {"r": 3, "c": 0.5, "alpha": 1.0, "d": 10.0},
        "trials": 40, "seed": 9, "mode": "percolation_prob",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "experiment", "--spec", str(path),
                           "--threads", "1")
    assert code == 0
    report = json.loads(out)
    assert report["environment"]["seed"] == 9
    assert report["result"]["trials"] == 40


def test_experiment_spec_integer_fields(capsys, tmp_path):
    spec = {"model": {"kind": "complete", "n": 6, "k": 3},
            "params": {"r": 3, "c": 0.5, "alpha": 1.0, "d": 10.0},
            "trials": 20, "seed": 2, "mode": "percolation_prob"}
    reports = []
    for n in (6, "6", "six"):
        spec["model"]["n"] = n
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        reports.append(run_cli(capsys, "experiment", "--spec", str(path),
                               "--threads", "1"))
    assert reports[0][0] == 0
    # a numeric string is refused like any other string
    for n, (code, out, err) in zip(("6", "six"), reports[1:]):
        assert code == 2 and out == ""
        assert f"field 'n': expected an integer, got '{n}'" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["warp", "--speed", "9"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--complete", "4", "3", "--frobnicate"])
    assert exc.value.code == 2


# child interpreters import the same hyperboot as this one, installed or not
SCRIPT_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(hyperboot.__file__).parents[1])]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _run_script(args):
    return subprocess.run([sys.executable, "-m", "hyperboot.cli"] + args,
                          capture_output=True, text=True, timeout=300,
                          env=SCRIPT_ENV)


def test_byte_identical_across_runs_and_threads(lift_file):
    base = ["scan", "--in", lift_file, "--grid", "0.2,0.3,0.4",
            "--alpha", "1.0", "--d", "10", "--trials", "30", "--seed", "21"]
    outs = []
    for threads in ("1", "1", "2", "4"):
        proc = _run_script(base + ["--threads", threads])
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_stdin_input(lift_file):
    text = open(lift_file).read()
    proc = subprocess.run(
        [sys.executable, "-m", "hyperboot.cli", "closure",
         "--infected", "0,1,2"],
        input=text, capture_output=True, text=True, timeout=120,
        env=SCRIPT_ENV)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] >= 3
