"""Byte pins of the command-line boundary: stdout, stderr and written files.

Each case runs one command in-process from a scratch directory and hashes
its exit code, both streams and every file it wrote.  The digests were
taken before the boundary layer was consolidated; a refactor of argument
parsing or serialization must leave every one of them unchanged.
"""

import hashlib
import json

from hyperboot.builders import load_pattern
from hyperboot.census import Configuration
from hyperboot.cli import main
from hyperboot.experiments import ModelRecipe
from hyperboot.hypergraph import Hypergraph

LIFT = ("--in", "lift12.json")
PROCESS = LIFT + ("--c", "0.4", "--alpha", "1.0", "--d", "10")
SCAN = LIFT + ("--grid", "0.125,0.3,0.5", "--alpha", "1.0", "--d", "10",
               "--trials", "25", "--seed", "3", "--threads", "1")
CENSUS = LIFT + ("--config", "cfg.json", "--root", "0",
                 "--infected", "1,2,3,4,5,6,7,8,9,10,11,13,20")

# name -> argv; run in order, so the builds make the later inputs
CASES = {
    "build_complete": ("build", "--complete", "4", "3"),
    "build_one_edge": ("build", "--complete", "3", "3", "--out", "k33.json"),
    "build_k3_lift": ("build", "--lift", "12", "--pattern", "k3",
                      "--out", "lift12.json"),
    "build_c4_lift": ("build", "--lift", "7", "--pattern", "c4"),
    "build_pattern_file": ("build", "--lift", "6", "--pattern", "pat.json"),
    "closure": ("closure",) + LIFT + ("--infected", "0,1,2,3,4,5,6,7"),
    "closure_active": ("closure",) + LIFT + ("--infected", "0,1,2,3,4,5,6,7",
                                             "--active", "0,1,2,3,40,41,90"),
    "closure_text_host": ("closure", "--in", "host.txt", "--infected", "0,1"),
    "check": ("check",) + LIFT + ("--d", "10", "--rho", "0.3163",
                                  "--nu", "70"),
    "simulate": ("simulate",) + PROCESS + ("--seed", "5", "--stride", "3"),
    "pc": ("pc",) + LIFT + ("--q", "0.2", "--trials", "20", "--tol", "0.05",
                            "--seed", "11", "--threads", "1"),
    "scan_json": ("scan",) + SCAN,
    "scan_csv": ("scan",) + SCAN + ("--format", "csv", "--out", "scan.csv"),
    "trajectory_dir": ("trajectory",) + PROCESS + (
        "--seed", "7", "--traces", "2", "--stars", "0,0;1,0",
        "--star-vertices", "3", "--out", "traces"),
    "trajectory_stdout": ("trajectory",) + PROCESS + ("--seed", "7"),
    "kbalance_k4": ("kbalance", "--pattern", "k4"),
    "kbalance_pendant": ("kbalance", "--pattern", "triangle_pendant"),
    "census_json": ("census",) + CENSUS,
    "census_csv": ("census",) + CENSUS + ("--format", "csv"),
    "experiment_percolation_prob": ("experiment", "--spec", "percolation_prob.json",
                                    "--threads", "1", "--trace-dir", "tr_pp"),
    "experiment_pc_bisect": ("experiment", "--spec", "pc_bisect.json",
                             "--threads", "1", "--trace-dir", "tr_pc"),
    "experiment_scan": ("experiment", "--spec", "scan.json",
                        "--threads", "1", "--trace-dir", "tr_scan"),
    "experiment_trajectory": ("experiment", "--spec", "trajectory.json",
                              "--threads", "1", "--trace-dir", "tr_traj",
                              "--out", "report.json"),
    "bad_spec_exits_2": ("experiment", "--spec", "missing.json"),
}

CLI_DIGESTS = {
    "build_complete":
        "beed5f42fbc9f7835aafc9b2041696f7000cfa85f47ca81de596686a3c315187",
    "build_one_edge":
        "b54b6cc869386fe68e0d7d1d9c80f8c775e6c995b51aaf370351496f6f726d23",
    "build_k3_lift":
        "468e9763f09670061b18200792e078ad0ade23296d01c0d3db30e416537966f7",
    "build_c4_lift":
        "2297de05f630344cf5e43798d9d77fe1fc0ebfff9e1b9cfbc7ebbf829d607a00",
    "build_pattern_file":
        "e49117014beba8b3d2caadc66fad21593ec745b91e579968a4f43f471cdaf412",
    "closure":
        "2caca4d8c87e4bcf6852f1a55c267bc8ab302e963b9e5562012ac2d35710d07c",
    "closure_active":
        "b73a92817954cbbfd9569a852da4325717a392cf7943e25bf3d3bd671aa55a53",
    "closure_text_host":
        "2a134cdd1006a9d10d23ce6470483467b3c828b06a7f484f2a2981139cfbda0c",
    "check":
        "326ce69053215e0bc8237cbaedce917cd6d2e934b68fbf783871754c6c76ab45",
    "simulate":
        "6b6c0501fce2eb7dde9fbe2b217bf6dbfcb51d8deaf58cb39d892594ebf8e368",
    "pc":
        "b8efa959a73f7d1ac0e347ecb20612b24faf1a68b2ad56022be0fc8392bb3c20",
    "scan_json":
        "83a3ce60b265550f9588ca474ac450ecaaae0ea9fa600ee45bb7a9890b7e4df1",
    "scan_csv":
        "9e2383f4cb44023b7f7c0c8759ee9cbeed12ffe9d3b06d5937b7047676b51fc8",
    "trajectory_dir":
        "bd7620af467b7968dd04769899b23c92ef4229668298f7c293cc4077ad595548",
    "trajectory_stdout":
        "7a4aea808225ac2b0d0c9a76ec57a02bd3e66366013689a7b5820b78b0d3235a",
    "kbalance_k4":
        "3f88bde30e4c3f10cf2185433b69f69bad12a4cc199d34d1373e1916bd747ef0",
    "kbalance_pendant":
        "5265737ec89b658d84a5da5b90fdee0d6a0e78e411cebdbb75ecea92056960af",
    "census_json":
        "faeba2f7af3c27802feb8de8ce21d67f40b3e27d1429e3c94828fb37aa8149ef",
    "census_csv":
        "95d578ddd2ad4411d13c428d93c0d1ebbceabb6b157ae12e071d2c226e50774a",
    "experiment_percolation_prob":
        "0ebf0d7ccb3422b4090502bf382b7d530e997de30ac38c97c14d6e2062a3b0b5",
    "experiment_pc_bisect":
        "336366f8283e0ba8512db505c9d32e845f1323bbffb4f129e5278b5dba1a581f",
    "experiment_scan":
        "aec1bea68b61b9337d266c0da7ca606601bdbc302931ded12cf756a714eb7d77",
    "experiment_trajectory":
        "2818e4b0a360a539e3e288c0dd5f27187ed06e08036b7407f156392df792f08b",
    "bad_spec_exits_2":
        "38809c8b504f4b4c0eb052e00a96be9c4f4950af4901e2112cb91f2c3a21b6b6",
}

# text format: header 'r n m', then one edge a line; one row unsorted and
# one a repeat, so reading it sorts rows and drops the duplicate
TEXT_HOST = "3 7 5\n0 1 2\n3 2 1\n1 2 3\n2 3 4\n5 4 3\n"
PATTERN_FILE = {"n": 4, "r": 2, "edges": [[0, 1], [1, 2], [2, 3]]}
CONFIG = {"pattern": {"n": 5, "r": 3, "edges": [[0, 1, 2], [0, 3, 4]]},
          "roots": [0], "marked": [1]}
PARAMS = {"r": 3, "c": 0.4, "alpha": 1.0, "d": 10.0, "K": 50.0}
SPECS = {
    "percolation_prob": {"model": {"kind": "lift", "n": 10, "pattern": "k3"},
                         "params": PARAMS, "trials": 30, "seed": 9,
                         "mode": "percolation_prob"},
    "pc_bisect": {"model": {"kind": "complete", "n": 6, "k": 3},
                  "params": PARAMS, "trials": 20, "seed": 4, "tol": 0.1,
                  "mode": "pc_bisect"},
    "scan": {"model": {"kind": "inline", "hypergraph": {
                 "n": 5, "r": 3, "edges": [[0, 1, 2], [1, 2, 3], [2, 3, 4]]}},
             "params": PARAMS, "trials": 25, "seed": 2,
             "grid": [0.2, 0.6], "mode": "scan"},
    "trajectory": {"model": {"kind": "lift", "n": 9,
                             "pattern": {"n": 3, "r": 2,
                                         "edges": [[0, 1], [0, 2], [1, 2]]}},
                   "params": PARAMS, "trials": 2, "seed": 6,
                   "trace_stride": 2, "star_indices": [[0, 0]],
                   "star_vertices": 2, "mode": "trajectory"},
}


def _sha(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def _snapshot(root) -> dict:
    return {str(p.relative_to(root)): _sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pat.json").write_text(json.dumps(PATTERN_FILE))
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    (tmp_path / "host.txt").write_text(TEXT_HOST)
    for mode, spec in SPECS.items():
        (tmp_path / f"{mode}.json").write_text(json.dumps(spec))
    digests = {}
    for name, argv in CASES.items():
        before = _snapshot(tmp_path)
        code = main(list(argv))
        out, err = capsys.readouterr()
        after = _snapshot(tmp_path)
        written = {k: v for k, v in after.items() if before.get(k) != v}
        digests[name] = _sha(json.dumps(
            {"code": code, "out": _sha(out), "err": _sha(err),
             "files": written}, sort_keys=True))
    assert digests == CLI_DIGESTS


RECORD_DIGESTS = {
    "recipe_inline":
        "41359f97fca02c47adb0f75a4222f9c90db747f30096bb3948fcbcda4675663e",
    "recipe_complete":
        "588799060d518cce701ecfd667e37c72694d113fca023e15b163dc09456a8d5c",
    "recipe_lift_name":
        "b018f02aa95bcd7ec1226e80a9e758e9799dda6f0b8431c593ddc7d5a3541e10",
    "recipe_lift_inline":
        "7ab9de37680a624062a740cafed63bc5d94e1b8d510633c3330acc969a780ee9",
    "configuration":
        "2d3ee0371f3db5c0873b7f2e171439b190eeedc7d3f0a96865d1f4b98a474578",
}


def test_records_match_pinned_digests():
    lift_pattern = Hypergraph.from_rows(4, 2, [[0, 1], [1, 2], [2, 3], [0, 3]])
    records = {
        "recipe_inline": ModelRecipe(kind="inline",
                                     hypergraph=load_pattern("loose_triangle_3")),
        "recipe_complete": ModelRecipe(kind="complete", n=7, k=3),
        "recipe_lift_name": ModelRecipe(kind="lift", n=9, pattern="k4"),
        "recipe_lift_inline": ModelRecipe(kind="lift", n=9,
                                          pattern=lift_pattern),
        "configuration": Configuration(load_pattern("triangle_pendant"),
                                       frozenset({0, 3}), frozenset({1})),
    }
    got = {name: _sha(json.dumps(rec.to_dict(), sort_keys=True))
           for name, rec in records.items()}
    assert got == RECORD_DIGESTS
