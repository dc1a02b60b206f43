from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys
import types
from importlib import resources
from pathlib import Path

import fanocone
from fanocone.cli import dispatch

SRC = str(Path(__file__).resolve().parent.parent / "src")


def corpus_path(name: str) -> str:
    return str(resources.files("fanocone").joinpath("corpus", name))


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_minimize_c3_hits_27(capsys):
    code, payload = run_cli(capsys, "minimize", "--input", corpus_path("c3.json"))
    assert code == 0
    result = payload["result"]
    assert result["certificate"] == "converged"
    assert abs(result["min_hvol"] - 27.0) <= 1e-9 * 27.0
    assert payload["command"] == "minimize"
    assert re.fullmatch(r"[0-9a-f]{64}", payload["input_hash"])


def test_ksemistable_no_with_witness(capsys):
    code, payload = run_cli(
        capsys, "ksemistable", "--input", corpus_path("c2.json"), "--xi0", "1,2"
    )
    assert code == 0
    result = payload["result"]
    assert result["verdict"] == "No"
    assert result["witness"] is not None


def test_lct_xy(capsys):
    code, payload = run_cli(capsys, "lct", "--input", corpus_path("xy.json"))
    assert code == 0
    assert payload["result"] == {
        "mult": "1",
        "lct": "2",
        "normalized": "4",
        "bound_nn": "4",
        "satisfied": True,
    }


def test_vol_exact_outputs_only_rationals(capsys):
    code, payload = run_cli(
        capsys, "hvol", "--input", corpus_path("c2.json"), "--xi0", "1,2", "--exact"
    )
    assert code == 0
    assert payload["result"]["hvol"] == "9/2"
    assert all(isinstance(v, str) for v in payload["result"]["xi0"])
    code, payload = run_cli(
        capsys, "vol", "--input", corpus_path("c2.json"), "--xi0", "1,2", "--exact"
    )
    assert payload["result"]["vol"] == "1/2"


def test_vol_float_input_gives_float_output(capsys):
    code, payload = run_cli(
        capsys, "vol", "--input", corpus_path("c2.json"), "--xi0", "1.0,2.0"
    )
    assert code == 0
    assert payload["result"]["vol"] == 0.5


def test_futaki_cli(capsys):
    code, payload = run_cli(
        capsys, "futaki", "--input", corpus_path("c2.json"), "--xi0", "1,2", "--eta", "1,0"
    )
    assert code == 0
    assert abs(payload["result"]["fut"] - 0.5) < 1e-10
    assert set(payload["result"]) == {"fut", "t_xi_eta"}


def test_index_char_cli_and_csv(tmp_path, capsys):
    csv = tmp_path / "char.csv"
    code, payload = run_cli(
        capsys,
        "index-char",
        "--input",
        corpus_path("c2.json"),
        "--xi0",
        "1.0,1.0",
        "--t",
        "1.0,0.5",
        "--csv",
        str(csv),
    )
    assert code == 0
    result = payload["result"]
    assert abs(result["a0_estimate"] - 1.0) < 1e-3
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,t^n * F"
    assert len(lines) == 9  # header + eight grid points


def test_index_char_cli_on_cross4(tmp_path, capsys):
    # cone over the 4-dimensional cross-polytope at height 1: the dual slice
    # at height h is the cube [-h, h]^4, so F(t) = sum_h (2h+1)^4 e^{-th}
    rays = [[s * (i == j) for j in range(4)] + [1] for i in range(4) for s in (1, -1)]
    path = tmp_path / "cross4.json"
    path.write_text(json.dumps({"rank": 5, "rays": rays}))
    code, payload = run_cli(
        capsys, "index-char", "--input", str(path), "--xi0", "0.0,0.0,0.0,0.0,1.0"
    )
    assert code == 0
    result = payload["result"]
    assert result["t_values"] == [1.0, 0.5]
    assert result["truncation_bound"] == 56.0
    for t, f in zip(result["t_values"], result["F_values"]):
        ref = math.fsum((2 * h + 1) ** 4 * math.exp(-t * h) for h in range(400))
        assert abs(f - ref) <= 1e-12 * ref
    vol = 4 * 3 * 2 * 16  # F ~ sum_h 16 h^4 e^{-th} ~ 16 * 4! / t^5
    assert abs(result["a0_estimate"] - vol) <= 1e-3 * vol


def test_index_char_truncation_flag_is_gone(capsys):
    code = dispatch(
        ["index-char", "--input", corpus_path("c2.json"), "--xi0", "1,1", "--truncation", "5"]
    )
    assert code == 2
    assert "--truncation" in capsys.readouterr().err


def test_degenerate_toy_cli(capsys):
    code, payload = run_cli(capsys, "degenerate-toy", "--input", corpus_path("toy.json"))
    assert code == 0
    result = payload["result"]
    assert result["min_k"] == 6
    assert result["equal_at_k"] is True
    assert result["chain"][-1]["support"] == [[0, 0]]


def test_minimize_csv_scan(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    code, payload = run_cli(
        capsys,
        "minimize",
        "--input",
        corpus_path("c2.json"),
        "--csv",
        str(csv),
        "--segment",
        "3,1:1,3",
        "--steps",
        "10",
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,hvol"
    assert len(lines) == 12


def test_degenerate_minimize_options_exit_2(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    scan = ["--csv", str(csv), "--segment", "3,1:1,3"]
    for flags in (scan + ["--steps", "0"], scan + ["--steps", "-3"], ["--max-iters", "-1"], ["--tol", "-1"]):
        code, payload = run_cli(capsys, "minimize", "--input", corpus_path("c2.json"), *flags)
        assert code == 2
        assert payload["error"] == "invalid-input"
    assert not csv.exists()


def test_futaki_invalid_eta_and_boundary_xi0_exit_2(capsys):
    c2 = corpus_path("c2.json")
    code, payload = run_cli(capsys, "futaki", "--input", c2, "--xi0", "1,2", "--eta", "1,0,0")
    assert code == 2
    assert payload == {"error": "invalid-input", "detail": "eta must live in the same co-weight space as xi0"}
    code, payload = run_cli(capsys, "futaki", "--input", c2, "--xi0", "1,0", "--eta", "1,0")
    assert code == 2
    assert payload == {
        "error": "not-in-reeb-cone",
        "detail": "(1, 0) is not strictly interior to sigma",
    }


def test_lct_cube_of_the_maximal_ideal_in_five_variables(tmp_path, capsys):
    monomials = itertools.combinations_with_replacement(range(5), 3)
    gens = [[m.count(j) for j in range(5)] for m in monomials]
    path = tmp_path / "m3_in_5.json"
    path.write_text(json.dumps({"n": 5, "generators": gens}))
    code, payload = run_cli(capsys, "lct", "--input", str(path))
    assert code == 0
    result = payload["result"]
    assert (result["mult"], result["lct"], result["satisfied"]) == ("243", "5/3", True)


def test_lct_over_the_rank_limit_exit_2(tmp_path, capsys):
    # 7 variables, 21 generators: x_i^2, x_i x_{i+1}, x_i x_{i+2} (indices mod 7)
    gens = [[int(j == i) + int(j == (i + s) % 7) for j in range(7)] for s in (0, 1, 2) for i in range(7)]
    path = tmp_path / "ideal7.json"
    path.write_text(json.dumps({"n": 7, "generators": gens}))
    code, payload = run_cli(capsys, "lct", "--input", str(path))
    assert code == 2
    assert payload == {
        "error": "invalid-input",
        "detail": "desk-scale limits exceeded (rank <= 6, rays <= 64)",
    }


def test_validation_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [0, 1]], "boundary": ["1", "0"]}))
    code, payload = run_cli(capsys, "minimize", "--input", str(bad))
    assert code == 2
    assert payload["error"] == "not-klt"
    assert "detail" in payload


def test_dual_too_large_exit_2(tmp_path, capsys):
    # C(12, 5): 12 rays, within the limits, but its dual has 72 > 64 rays
    rays = [[t, t**2, t**3, t**4, t**5, 1] for t in range(1, 13)]
    path = tmp_path / "cyclic12.json"
    path.write_text(json.dumps({"rank": 6, "rays": rays}))
    code, payload = run_cli(capsys, "hvol", "--input", str(path), "--xi0", "0,0,0,0,0,6")
    assert code == 2
    assert payload == {
        "error": "dual-too-large",
        "detail": "the dual cone has 72 rays, more than MAX_RAYS = 64",
    }


def test_non_interior_xi_exit_2(capsys):
    code, payload = run_cli(
        capsys, "vol", "--input", corpus_path("c2.json"), "--xi0", "1,0"
    )
    assert code == 2
    assert payload == {
        "error": "not-in-reeb-cone",
        "detail": "linear factor <(0, 1), xi> is nonpositive at xi=(1, 0)",
    }


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    code, payload = run_cli(capsys, "vol", "--input", str(bad), "--xi0", "1,1")
    assert code == 2
    assert payload["error"] == "invalid-input"


def test_record_sidecar_contains_timing(tmp_path, capsys):
    record = tmp_path / "run.json"
    code, payload = run_cli(
        capsys,
        "minimize",
        "--input",
        corpus_path("c2.json"),
        "--record",
        str(record),
    )
    assert code == 0
    rec = json.loads(record.read_text())
    assert rec["result"] == payload["result"]
    assert rec["input_hash"] == payload["input_hash"]
    assert isinstance(rec["timing_ms"], int)
    assert "timing_ms" not in payload


def test_repeated_runs_are_byte_identical():
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [
        sys.executable,
        "-m",
        "fanocone",
        "minimize",
        "--input",
        corpus_path("conifold.json"),
    ]
    first = subprocess.run(cmd, capture_output=True, env=env, check=True)
    second = subprocess.run(cmd, capture_output=True, env=env, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_runtime_imports_no_numpy():
    # -X importtime lists every module the interpreter imports on stderr
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = [
        ["-c", "import fanocone"],
        ["-m", "fanocone", "minimize", "--input", corpus_path("c2.json")],
    ]
    for args in runs:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args], capture_output=True, env=env, check=True
        )
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()]
        assert "fanocone" in imported
        assert not [m for m in imported if m.split(".")[0] == "numpy"]


def test_unknown_flag_exit_2():
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "fanocone", "minimize", "--bogus"]
    proc = subprocess.run(cmd, capture_output=True, env=env)
    assert proc.returncode == 2


def test_stdin_input():
    env = dict(os.environ, PYTHONPATH=SRC)
    payload = json.dumps({"rank": 2, "rays": [[1, 0], [0, 1]]})
    cmd = [sys.executable, "-m", "fanocone", "vol", "--xi0", "1,1", "--exact"]
    proc = subprocess.run(cmd, input=payload.encode(), capture_output=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["vol"] == "1"


def test_corpus_expected_values_roundtrip(capsys):
    expected = json.loads(Path(corpus_path("expected.json")).read_text())
    for name, entry in expected.items():
        code, payload = run_cli(
            capsys,
            "hvol",
            "--input",
            corpus_path(name),
            "--xi0=" + ",".join(entry["probe_xi"]),
            "--exact",
        )
        assert code == 0
        assert payload["result"]["hvol"] == entry["probe_hvol"]
        code, payload = run_cli(capsys, "minimize", "--input", corpus_path(name))
        assert code == 0
        assert abs(payload["result"]["min_hvol"] - entry["min_hvol_oracle"]) <= 1e-6 * max(
            1.0, entry["min_hvol_oracle"]
        )


def test_package_exports_are_the_public_names_and_no_submodules():
    public = {
        name for name in dir(fanocone)
        if not name.startswith("_") and not isinstance(getattr(fanocone, name), types.ModuleType)
    }
    assert sorted(fanocone.__all__) == sorted(public)
