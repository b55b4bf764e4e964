"""End-to-end command line runs: artifacts, exit codes, environment."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pmelab import load_edge_list
from pmelab.cli import main

CLI = [sys.executable, "-m", "pmelab.cli"]


def run_cli(*args, env_extra=None, timeout=240):
    env = dict(os.environ)
    env.pop("PME_LAB_OUT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + [str(a) for a in args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- simulate --------------------------------------------------------------


def test_simulate_writes_the_full_artifact_set(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "simulate", "--graph", "square", "--m", "2", "--u0", "const:1.2,0.9,1.05,0.8",
        "--t-start", "0.1", "--t-end", "1.0", "--points", "31", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("trajectory.csv", "series.csv", "summary.json", "simulate.svg"):
        assert (out / name).is_file(), name
    summary = read_json(out / "summary.json")
    assert summary["status"] == "ok"
    assert summary["mass_drift_rel"] <= 1e-9
    assert summary["pressure_identity_residual"] <= 1e-9
    assert summary["entropy_monotone"] is True
    assert summary["config"]["lambda"] is None or "lambda" in summary["config"]
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,y1,y2,z"


def test_simulate_reports_numerical_failure_with_exit_three(tmp_path):
    graph_file = tmp_path / "fast.txt"
    graph_file.write_text("a b 1e9\nb a 1e9\n")
    out = tmp_path / "run"
    proc = run_cli(
        "simulate", "--graph", graph_file, "--m", "2", "--u0", "const:1,0.5",
        "--t-start", "0", "--t-end", "1e4", "--points", "11", "--out", out,
    )
    assert proc.returncode == 3, proc.stderr
    summary = read_json(out / "summary.json")
    assert summary["status"] == "numerical-failure"
    assert "failure_time" in summary


def test_simulate_reads_initial_state_from_a_file(tmp_path):
    u0_file = tmp_path / "u0.txt"
    u0_file.write_text("x 1.0\ny1 0.5\ny2 0.5\nz 2.0\n")
    out = tmp_path / "run"
    proc = run_cli(
        "simulate", "--graph", "square", "--m", "2", "--u0", f"file:{u0_file}",
        "--t-start", "0", "--t-end", "0.5", "--points", "11", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    first_row = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert [float(v) for v in first_row[1:]] == [1.0, 0.5, 0.5, 2.0]


def test_simulate_seeded_random_state_is_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = run_cli(
            "simulate", "--graph", "complete:3", "--m", "2", "--u0", "random:0.5,1.5",
            "--seed", "11", "--t-start", "0", "--t-end", "0.5", "--points", "5",
            "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "trajectory.csv").read_text())
    assert outs[0] == outs[1]


def test_simulate_rejects_mismatched_initial_state(tmp_path):
    proc = run_cli(
        "simulate", "--graph", "square", "--m", "2", "--u0", "const:1,2",
        "--out", tmp_path / "run",
    )
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


def test_simulate_rejects_reversed_time_window(tmp_path):
    proc = run_cli(
        "simulate", "--graph", "square", "--m", "2",
        "--t-start", "2", "--t-end", "1", "--out", tmp_path / "run",
    )
    assert proc.returncode == 2


# -- verify-cd -------------------------------------------------------------


def test_verify_cd_square_holds_at_the_optimum(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "verify-cd", "--graph", "square", "--m", "2", "--alpha", "0",
        "--d", "1.34", "--samples", "4000", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    report = read_json(out / "cd_report.json")
    assert len(report["reports"]) == 4
    assert all(r["verdict"] == "holds_empirically" for r in report["reports"])


def test_verify_cd_square_reports_violations_with_exit_one(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "verify-cd", "--graph", "square", "--m", "2", "--alpha", "0",
        "--d", "1.0", "--samples", "4000", "--out", out,
    )
    assert proc.returncode == 1
    report = read_json(out / "cd_report.json")
    assert any(r["verdict"] == "violated" for r in report["reports"])
    broken = next(r for r in report["reports"] if r["verdict"] == "violated")
    assert broken["witness"] is not None


def test_verify_cd_optimal_only_mode_on_selected_vertices(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "verify-cd", "--graph", "complete:3", "--m", "2", "--alpha", "0",
        "--vertex", "x1", "--samples", "4000", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    report = read_json(out / "cd_report.json")
    assert len(report["reports"]) == 1
    entry = report["reports"][0]
    assert entry["vertex"] == "x1"
    assert "d_tested" not in entry
    assert abs(entry["empirical_optimal_d"] - 4.0 / 3.0) < 1e-9


# -- check -----------------------------------------------------------------


def test_check_ab_passes_at_the_square_optimum(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "check", "ab", "--graph", "square", "--m", "2", "--d", "1.3333333333333333",
        "--u0", "const:1.2,0.9,1.05,0.8", "--t-start", "0.1", "--t-end", "1.5",
        "--points", "29", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    report = read_json(out / "report_ab.json")
    assert report["passed"] is True
    assert (out / "slack_ab.csv").is_file()
    assert (out / "slack_ab.svg").is_file()


def test_check_ab_fails_with_exit_one_for_tiny_dimension(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "check", "ab", "--graph", "square", "--m", "2", "--d", "0.05",
        "--u0", "const:1,0.05,0.05,0.05", "--t-start", "0.05", "--t-end", "1.5",
        "--points", "29", "--out", out,
    )
    assert proc.returncode == 1, proc.stderr
    report = read_json(out / "report_ab.json")
    assert report["passed"] is False
    assert report["min_slack"] < 0.0


def test_check_diff_harnack_passes(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "check", "diff-harnack", "--graph", "square", "--m", "2", "--mu", "1.3333333333333333",
        "--lambda", "0", "--u0", "const:1.2,0.9,1.05,0.8", "--t-start", "0.1",
        "--t-end", "1.5", "--points", "29", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    assert read_json(out / "report_diff_harnack.json")["passed"] is True


def test_check_harnack_passes_with_seeded_pairs(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "check", "harnack", "--graph", "complete:3", "--m", "2", "--mu", "1.3333333333333333",
        "--lambda", "0", "--u0", "random:0.5,1.5", "--seed", "4", "--t-start", "0.1",
        "--t-end", "2.0", "--points", "41", "--pairs", "40", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    report = read_json(out / "report_harnack.json")
    assert report["passed"] is True


def test_check_harnack_with_unit_lambda_is_a_usage_error(tmp_path):
    proc = run_cli(
        "check", "harnack", "--graph", "square", "--m", "2", "--mu", "1.0",
        "--lambda", "1", "--out", tmp_path / "run",
    )
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


# -- reproduce -------------------------------------------------------------


def test_reproduce_complete_graph_example(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("reproduce", "ex3.5:2", "--out", out)
    assert proc.returncode == 0, proc.stderr
    report = read_json(out / "reproduce_ex3.5_2.json")
    assert report["passed"] is True


def test_reproduce_chain_example_reports_the_value_mismatch(tmp_path):
    # the recorded target window for the length-5 chain does not match the
    # value the definitions produce, and the command reports that honestly
    out = tmp_path / "run"
    proc = run_cli("reproduce", "ex4.3", "--out", out)
    assert proc.returncode == 1
    report = read_json(out / "reproduce_ex4.3.json")
    assert report["passed"] is False


def test_reproduce_ab_square_reports_where_the_minimum_sits(tmp_path):
    out = tmp_path / "run"
    assert main(["reproduce", "ex5.3i", "--out", str(out)]) == 0
    argmin = read_json(out / "reproduce_ex5.3i.json")["argmin"]
    assert set(argmin) == {"t", "vertex", "form"}
    assert 0.05 <= argmin["t"] <= 5.0
    assert argmin["vertex"] in ("x", "y1", "y2", "z")
    assert argmin["form"] in ("direct", "pressure_equation")


def test_reproduce_unknown_id_lists_the_catalogue(tmp_path):
    proc = run_cli("reproduce", "nope", "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "ex3.5" in proc.stderr


# -- gen-graph and environment ---------------------------------------------


def test_jobs_is_not_an_option():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--jobs", "2"])
    assert exc.value.code == 2


def test_gen_graph_round_trips_through_simulate(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("gen-graph", "--graph", "path:4", "--out", out)
    assert proc.returncode == 0, proc.stderr
    files = list(out.glob("graph_*.txt"))
    assert len(files) == 1
    g = load_edge_list(files[0])
    assert g.n == 4
    proc = run_cli(
        "simulate", "--graph", files[0], "--m", "2", "--t-start", "0",
        "--t-end", "0.5", "--points", "5", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr


def test_output_directory_falls_back_to_the_environment(tmp_path):
    target = tmp_path / "env-out"
    proc = run_cli(
        "simulate", "--graph", "complete:2", "--m", "2", "--t-start", "0",
        "--t-end", "0.5", "--points", "5",
        env_extra={"PME_LAB_OUT": str(target)},
    )
    assert proc.returncode == 0, proc.stderr
    assert (target / "summary.json").is_file()


def test_explicit_output_directory_wins_over_the_environment(tmp_path):
    explicit = tmp_path / "explicit"
    ignored = tmp_path / "ignored"
    proc = run_cli(
        "simulate", "--graph", "complete:2", "--m", "2", "--t-start", "0",
        "--t-end", "0.5", "--points", "5", "--out", explicit,
        env_extra={"PME_LAB_OUT": str(ignored)},
    )
    assert proc.returncode == 0, proc.stderr
    assert (explicit / "summary.json").is_file()
    assert not ignored.exists()


def test_missing_graph_file_is_a_usage_error(tmp_path):
    proc = run_cli(
        "simulate", "--graph", tmp_path / "absent.txt", "--m", "2",
        "--out", tmp_path / "run",
    )
    assert proc.returncode == 2
