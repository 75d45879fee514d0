"""End-to-end CLI tests: commands, artifacts, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bellctx
from bellctx.chsh import correlations
from bellctx.cli import main
from bellctx.config import load_experiment, parse_config_text
from bellctx.harness import CountsTable, read_event_log
from bellctx.models import QuantumModel, SignallingModel
from bellctx.plotsvg import Panel

CONFIGS = Path(__file__).parent.parent / "src" / "bellctx" / "configs"
PHOTON_PAIR_TABLES = Path(__file__).parent / "golden" / "photon_pair_tables.json"
CELL = {"++": 0.5, "+-": 0.0, "-+": 0.0, "--": 0.5}


def write_quick_config(tmp_path: Path, base: str = "chsh_quantum.cfg",
                       trials: int = 20_000, **overrides) -> Path:
    """Copy a bundled config with a smaller trial count for test speed."""
    text = (CONFIGS / base).read_text()
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip() if "=" in line else None
        if key == "trials":
            line = f"trials = {trials}"
        if key in overrides:
            line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / base
    path.write_text("\n".join(lines) + "\n")
    return path


def signalling_tables_file(tmp_path: Path) -> Path:
    p = SignallingModel().behaviour()
    tables = {f"{ix},{iy}": dict(zip(("++", "+-", "-+", "--"), p[ix, iy].ravel().tolist()))
              for ix, iy in ((0, 0), (0, 1), (1, 0), (1, 1))}
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables))
    return path


class TestSimulate:
    def test_quantum_run_writes_all_artifacts(self, tmp_path, capsys):
        config = write_quick_config(tmp_path, trials=200_000)
        assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "S        = +2.8" in out
        report = json.loads((tmp_path / "chsh_quantum_report.json").read_text())
        assert report["report"]["estimates"]["s"] == pytest.approx(2 * math.sqrt(2), abs=0.05)
        assert report["report"]["exact"]["s"] == pytest.approx(2 * math.sqrt(2), abs=1e-10)
        assert report["report"]["exact"]["s_global"] == report["report"]["kc"]["s_prime"]
        assert report["report"]["kc"]["n_atoms"] == 16
        assert "wall_clock_seconds" in report["meta"]
        header, records = read_event_log(tmp_path / "chsh_quantum_events.jsonl")
        assert header["master_seed"] == 42
        assert len(records) == 200_000
        counts = CountsTable.from_csv((tmp_path / "chsh_quantum_counts.csv").read_text())
        assert counts == CountsTable.from_records(records, 2, 2)

    def test_lhv_uniform_run_near_zero(self, tmp_path):
        config = write_quick_config(tmp_path, "chsh_lhv_uniform.cfg", trials=100_000)
        assert main(["simulate", str(config), "--out-dir", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "chsh_lhv_report.json").read_text())
        estimates = report["report"]["estimates"]
        assert abs(estimates["s"]) <= 5 * estimates["s_se"]

    def test_malformed_config_exits_2_without_artifacts(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.kind = quantum\ntrials = not_a_number\n")
        assert main(["simulate", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.jsonl"))
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("probs", ["nan, 0.5", "inf, 0.5", "0.5, -inf"])
    def test_non_finite_setting_probs_exit_2(self, tmp_path, capsys, probs):
        config = write_quick_config(tmp_path, trials=2000, **{"alice.probs": probs})
        assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: alice.probs") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.json*"))

    def test_json_config_with_a_repeated_key_exits_2(self, tmp_path, capsys):
        raw = parse_config_text((CONFIGS / "chsh_quantum.cfg").read_text())
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw)[:-1] + ', "trials": "2000"}')
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {path}: invalid JSON: duplicate key 'trials'\n"
        assert not list(tmp_path.glob("*.jsonl"))

    def test_a_grid_of_more_than_65536_cells_exits_2(self, tmp_path, capsys):
        """A 200x100 grid, 80,000 cells: its log could not be read back."""
        angles = ", ".join(["0.5"] * 200), ", ".join(["0.25"] * 100)
        config = write_quick_config(tmp_path, trials=1000, **{
            "model.kind": "mixed_lhv", "alice.angles": angles[0], "bob.angles": angles[1]})
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("config error: settings: grid 200x100 has 80000 "
                                           "cells, more than 65536\n")
        assert not (tmp_path / "out").exists()

    def test_invalid_model_exits_3(self, tmp_path):
        config = write_quick_config(tmp_path, **{"model.state": "bogus"})
        assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 3

    def test_seed_override_and_quiet(self, tmp_path, capsys):
        config = write_quick_config(tmp_path, trials=5000)
        assert main(["simulate", str(config), "--out-dir", str(tmp_path),
                     "--seed", "7", "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads((tmp_path / "chsh_quantum_report.json").read_text())
        assert report["report"]["config"]["seed"] == 7

    @pytest.mark.parametrize("where", ["config", "flag"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed, where):
        """The chunk streams take the seed mod 2^64, so -1 would replay 2^64 - 1."""
        config = write_quick_config(tmp_path, trials=100,
                                    **({"seed": seed} if where == "config" else {}))
        flag = ["--seed", str(seed)] if where == "flag" else []
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "out"), *flag]) == 2
        assert capsys.readouterr().err == f"config error: seed must be in [0, 2^64), got {seed}\n"
        assert not (tmp_path / "out").exists()

    def test_largest_seed_runs(self, tmp_path):
        config = write_quick_config(tmp_path, trials=100)
        assert main(["simulate", str(config), "--out-dir", str(tmp_path), "--quiet",
                     "--seed", str(2**64 - 1)]) == 0
        header, _ = read_event_log(tmp_path / "chsh_quantum_events.jsonl")
        assert header["master_seed"] == 2**64 - 1

    def test_byte_identical_reports_across_workers(self, tmp_path):
        report_bytes = {}
        logs = {}
        for workers in (1, 8):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            config = write_quick_config(out, trials=50_000, workers=workers,
                                        chunk_size=4096)
            assert main(["simulate", str(config), "--out-dir", str(out), "--quiet"]) == 0
            payload = json.loads((out / "chsh_quantum_report.json").read_text())
            report_bytes[workers] = json.dumps(payload["report"], sort_keys=True)
            logs[workers] = (out / "chsh_quantum_events.jsonl").read_bytes()
        assert report_bytes[1] == report_bytes[8]
        assert logs[1] == logs[8]

    def test_json_format_prints_report(self, tmp_path, capsys):
        config = write_quick_config(tmp_path, trials=2000)
        assert main(["simulate", str(config), "--out-dir", str(tmp_path),
                     "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["counts"]["n_total"] == 2000

    def test_out_dir_env_var_is_honored(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("BELLCTX_OUT_DIR", str(target))
        config = write_quick_config(tmp_path, trials=2000)
        assert main(["simulate", str(config), "--quiet"]) == 0
        assert (target / "chsh_quantum_report.json").exists()


class TestKcVerify:
    def test_quantum_config_passes_and_prints_landmarks(self, tmp_path, capsys):
        config = write_quick_config(tmp_path)
        assert main(["kc-verify", str(config), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mixed space: 16 atoms, OK" in out
        assert "+2.8284271247" in out
        assert "+0.7071067812" in out
        report = json.loads((tmp_path / "kc_report.json").read_text())
        assert report["report"]["s_global_times_4"] == pytest.approx(2 * math.sqrt(2))
        for entry in report["report"]["contexts"].values():
            assert entry["report"]["additivity_ok"]

    @pytest.mark.parametrize("command", ["simulate", "kc-verify"])
    def test_removed_exhaustive_limit_key_exits_2(self, tmp_path, capsys, command):
        config = write_quick_config(tmp_path, trials=2000, **{"kc.exhaustive_limit": 16})
        assert main([command, str(config), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys: ['kc.exhaustive_limit']" in err
        assert not list(tmp_path.glob("*.json*"))

    def test_lhv_config_also_verifies(self, tmp_path):
        config = write_quick_config(tmp_path, "chsh_lhv_uniform.cfg")
        assert main(["kc-verify", str(config), "--out-dir", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "kc_report.json").read_text())
        assert report["report"]["mixed_space"]["report"]["additivity_ok"]
        assert report["report"]["s"] == pytest.approx(0.0, abs=1e-12)


class TestGleasonCheck:
    def test_dim3_defaults_pass(self, tmp_path, capsys):
        assert main(["gleason-check", "--dim", "3", "--n-contexts", "200",
                     "--seed", "5", "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "gleason_dim3.json").read_text())
        assert report["report"]["additivity"]["passed"]
        assert report["report"]["trace_form_fit"]["recovery_max_error"] <= 1e-8
        assert report["report"]["extravalence"]["passed"]

    def test_dim2_reports_counterexample_contrast(self, tmp_path, capsys):
        assert main(["gleason-check", "--dim", "2", "--n-contexts", "200",
                     "--seed", "5", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dimension >= 3" in out
        report = json.loads((tmp_path / "gleason_dim2.json").read_text())
        assert report["report"]["counterexample"]["additivity"]["passed"]
        assert report["report"]["counterexample"]["fit_residual"] > 0.01

    @pytest.mark.parametrize("dim", ("1", "17"))
    def test_dim_outside_2_to_16_is_an_error(self, tmp_path, capsys, dim):
        assert main(["gleason-check", "--dim", dim, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: dimension must be from 2 to 16, got {dim}\n"
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("n_contexts", ("0", "-3"))
    def test_no_contexts_is_an_error(self, tmp_path, capsys, dim, n_contexts):
        assert main(["gleason-check", "--dim", str(dim), "--n-contexts", n_contexts,
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n-contexts") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.json"))

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        assert main(["gleason-check", "--dim", "2", "--seed", "-1",
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: seed must be non-negative, got -1\n"
        assert not list(tmp_path.glob("*.json"))

    def test_state_file_round_trip(self, tmp_path):
        from bellctx.quantum import maximally_mixed, operator_to_json
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(operator_to_json(maximally_mixed(3).matrix)))
        assert main(["gleason-check", "--dim", "3", "--n-contexts", "50",
                     "--state", str(state_path), "--out-dir", str(tmp_path),
                     "--quiet"]) == 0


# Well-formed JSON that is not a square nested array of [re, im] number pairs.
BAD_STATES = ("[1,2]", '{"a":1}', "[[1]]", "null", '[[["x",0]]]', "[[[1,0],[0,0]]]",
              '[[["1",0]]]', "[[[NaN,0]]]")


@pytest.mark.parametrize("state", BAD_STATES)
def test_gleason_check_bad_state_file_exits_3(tmp_path, capsys, state):
    path = tmp_path / "state.json"
    path.write_text(state)
    assert main(["gleason-check", "--dim", "2", "--n-contexts", "5", "--state", str(path),
                 "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("model error: state file") and err.count("\n") == 1
    assert not list(tmp_path.glob("gleason_*.json"))


def test_gleason_check_unreadable_state_file_exits_4(tmp_path, capsys):
    assert main(["gleason-check", "--dim", "2", "--state", str(tmp_path / "absent.json"),
                 "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("io error:") and err.count("\n") == 1


CONFIG_COMMANDS = (("simulate",), ("kc-verify",), ("plot", "curve.svg"))


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("state", BAD_STATES)
def test_bad_model_state_file_exits_3(tmp_path, capsys, command, state):
    path = tmp_path / "state.json"
    path.write_text(state)
    config = write_quick_config(tmp_path, trials=2000, **{"model.state_file": str(path)})
    assert main([command[0], str(config), *command[1:], "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("model error: model.kind=quantum") and err.count("\n") == 1


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_missing_config_exits_4(tmp_path, capsys, command):
    assert main([command[0], str(tmp_path / "absent.cfg"), *command[1:],
                 "--out-dir", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("io error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name", [
    (["simulate"], "missing/events.jsonl"),
    (["plot", "missing/curve.svg", "--mc-trials", "100"], "missing/curve.svg"),
], ids=["simulate", "plot"])
def test_artifact_in_a_missing_directory_exits_4_naming_it(tmp_path, capsys, command, name):
    """The message names the artifact, not the temp file beside it."""
    config = write_quick_config(tmp_path, trials=2000,
                                **{"out.event_log": "missing/events.jsonl"})
    assert main([command[0], str(config), *command[1:], "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.endswith(f": '{tmp_path / name}'\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["chsh_quantum.cfg"]


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_unreadable_model_state_file_exits_4(tmp_path, capsys, command):
    config = write_quick_config(tmp_path, trials=2000,
                                **{"model.state_file": str(tmp_path / "absent.json")})
    assert main([command[0], str(config), *command[1:], "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("io error:") and err.count("\n") == 1


class TestLhvBound:
    def test_bound_and_vertices(self, capsys):
        assert main(["lhv-bound"]) == 0
        out = capsys.readouterr().out
        assert "2" in out.splitlines()[0]
        assert sum(1 for line in out.splitlines() if line.strip().startswith("a(")) == 8

    def test_quantum_tables_diagnosed_nonlocal(self, capsys):
        assert main(["lhv-bound", str(PHOTON_PAIR_TABLES)]) == 0
        assert "nonlocal: violates CHSH, S = 2.8284" in capsys.readouterr().out

    def test_signalling_tables_distinct_diagnosis(self, tmp_path, capsys):
        path = signalling_tables_file(tmp_path)
        assert main(["lhv-bound", str(path)]) == 0
        assert "ill-posed: signalling" in capsys.readouterr().out

    def test_signalling_tables_json_format_is_json(self, tmp_path, capsys):
        path = signalling_tables_file(tmp_path)
        assert main(["lhv-bound", str(path), "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ill_posed"] == "signalling" and verdict["reason"]

    def test_missing_tables_file_exits_4(self, tmp_path, capsys):
        assert main(["lhv-bound", str(tmp_path / "absent.json")]) == 4
        assert capsys.readouterr().err.startswith("io error")

    def test_bad_tables_file_exits_2(self, tmp_path):
        path = tmp_path / "tables.json"
        path.write_text("{not json")
        assert main(["lhv-bound", str(path)]) == 2

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_tables_off_two_by_two_exit_2(self, tmp_path, capsys, fmt):
        path = tmp_path / "tables.json"
        path.write_text(json.dumps({"0,0": CELL, "0,1": CELL, "0,2": CELL}))
        assert main(["lhv-bound", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: tables file")
        assert "two settings per side, got 1x3" in captured.err
        assert captured.err.count("\n") == 1

    def test_sparse_keys_over_a_huge_grid_exit_2_at_once(self, tmp_path, capsys):
        # Two cells span a 10^10-cell grid: the message counts the missing cells
        # and names three, without walking the grid.
        path = tmp_path / "tables.json"
        path.write_text(json.dumps({"0,0": CELL, "100000,100000": CELL}))
        start = time.perf_counter()
        assert main(["lhv-bound", str(path)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert ("missing settings cells [(0, 1), (0, 2), (0, 3)] ... "
                "(10000199999 of the 100001x100001 grid)") in err

    @pytest.mark.parametrize("key, message", [
        (" 1 , +1", "cell key ' 1 , +1' is not two setting indices"),
        ("01,1", "cell key '01,1' is not two setting indices"),
        ("\u0661,1", "cell key '\u0661,1' is not two setting indices"),
        ("1_0,1", "cell key '1_0,1' is not two setting indices"),
        ("1,1", "duplicate key '1,1'"),
    ], ids=["spaced-signed", "leading-zero", "arabic-indic-one", "underscore", "repeated"])
    def test_second_key_for_a_cell_exits_2(self, tmp_path, capsys, key, message):
        """A full 2x2 table plus one more key that names a cell it already
        has, or no cell at all, is refused with the key named."""
        text = json.dumps({cell: CELL for cell in ("0,0", "0,1", "1,0", "1,1")}, ensure_ascii=False)
        path = tmp_path / "tables.json"
        path.write_text(text[:-1] + f", {json.dumps(key, ensure_ascii=False)}: "
                        f"{json.dumps(CELL)}}}", encoding="utf-8")
        assert main(["lhv-bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: tables file {path}: ")
        assert message in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("tables, message", [
        ({"0,0": {"++": 0.5, "+-": 0.0, "-+": 0.0}, "0,1": CELL, "1,0": CELL, "1,1": CELL},
         "outcome pairs"),
        ({"0,0": CELL, "0,1": CELL, "1,1": CELL}, "missing settings cells [(1, 0)]"),
        ({"0,0": dict(CELL, **{"+-": 0.4}), "0,1": CELL, "1,0": CELL, "1,1": CELL},
         "sums to 1.4"),
        ([CELL, CELL, CELL, CELL], "JSON object"),
        ({"0,0": {"++": True, "+-": False, "-+": False, "--": False}, "0,1": CELL,
          "1,0": CELL, "1,1": CELL}, "cell '0,0' has a non-numeric probability"),
    ], ids=["missing-pair", "missing-cell", "cell-sum-1.4", "top-level-list", "booleans"])
    def test_malformed_tables_exit_2_without_traceback(self, tmp_path, capsys, tables, message):
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(tables))
        assert main(["lhv-bound", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: tables file") and message in err
        assert "Traceback" not in err


class TestPlot:
    def test_quantum_sweep_peaks_at_tsirelson(self, tmp_path, capsys):
        config = write_quick_config(tmp_path)
        assert main(["plot", str(config), "sweep.svg", "--out-dir", str(tmp_path),
                     "--mc-trials", "2000"]) == 0
        out = capsys.readouterr().out
        assert "2.8284" in out
        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_lhv_sweep_stays_within_local_bound(self, tmp_path, capsys):
        config = write_quick_config(tmp_path, "chsh_lhv_uniform.cfg")
        assert main(["plot", str(config), "lhv.svg", "--out-dir", str(tmp_path),
                     "--mc-trials", "2000"]) == 0
        peak = float(capsys.readouterr().out.rsplit(":", 1)[1].rstrip(")\n"))
        assert peak <= 2.0 + 1e-9

    @pytest.mark.parametrize("base", ["chsh_quantum.cfg", "chsh_lhv_uniform.cfg"])
    @pytest.mark.parametrize("flags", [
        ("--sweep-points", "1"), ("--sweep-start", "1.0", "--sweep-stop", "1.0"),
        ("--sweep-stop", "inf"), ("--sweep-start=-inf",),
    ], ids=["one-point", "start-equals-stop", "stop-inf", "start-minus-inf"])
    def test_empty_sweep_range_exits_2(self, tmp_path, capsys, base, flags):
        config = write_quick_config(tmp_path, base)
        assert main(["plot", str(config), "x.svg", "--out-dir", str(tmp_path), *flags]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("name", sorted(path.name for path in CONFIGS.glob("*.cfg")))
    def test_monte_carlo_points_sit_on_the_exact_curve(self, tmp_path, monkeypatch, name):
        """13 points, each E within 5 SE of the exact E of context (0, 0) at
        its analyzer gap (equal to it where SE is 0)."""
        points = []
        monkeypatch.setattr(Panel, "add_points", lambda self, *args: points.append(args))
        assert main(["plot", str(CONFIGS / name), "x.svg", "--out-dir", str(tmp_path),
                     "--mc-trials", "2000", "--quiet"]) == 0
        (gaps, es, ses), = points
        assert len(gaps) == len(es) == len(ses) == 13
        cfg = load_experiment(CONFIGS / name)
        base = cfg.settings.alice_angles[0]
        for gap, e, se in zip(gaps, es, ses):
            model = (QuantumModel(cfg.model.rho, (base,), (base + gap,))
                     if isinstance(cfg.model, QuantumModel) else cfg.model)
            exact = float(correlations(model.behaviour()[0, 0]))
            assert abs(e - exact) <= 5 * se if se > 0 else e == exact, (gap, e, se, exact)


# Flags a command does not read are usage errors.
REMOVED_FLAGS = (("lhv-bound", "--seed", "3"), ("lhv-bound", "--out-dir", "out"),
                 ("lhv-bound", "--format", "csv"), ("kc-verify", "--format", "csv"),
                 ("gleason-check", "--format", "csv"), ("plot", "--format", "json"),
                 ("plot", "--format", "text"))
POSITIONALS = {"kc-verify": [str(CONFIGS / "chsh_quantum.cfg")],
               "plot": [str(CONFIGS / "chsh_quantum.cfg"), "x.svg"]}


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS,
                         ids=[" ".join(case) for case in REMOVED_FLAGS])
def test_removed_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main([command, *POSITIONALS.get(command, []), flag, value])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_starts_no_pool():
    """Drawing uses plain threads: a fresh interpreter that imports the CLI
    loads neither concurrent.futures nor the logging it imports."""
    src = str(Path(bellctx.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, bellctx.cli; "
         "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=60).stdout
    assert loaded == "[]\n"
