"""End-to-end command line runs: artifacts, exit codes, environment."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pmelab import SearchConfig, SolverConfig, ab_check, integrate, load_edge_list, square_graph, verify_cd_at
from pmelab.cd import _chain_product_form, _search_min_score, chain_counterexample, chain_limit_curvature
from pmelab.cli import REPRODUCE_IDS, build_parser, main, resolve_reproduce
from pmelab.errors import ValidationError

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


def _reject_constant(name):
    raise ValueError("%s is not standard JSON" % name)


def read_json(path):
    """An artifact, parsed as standard JSON: ``NaN`` and ``Infinity`` are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


@pytest.fixture(autouse=True)
def every_json_artifact_is_standard_json_with_its_command_and_config(tmp_path):
    # the tests below write every kind of JSON artifact: simulate's summary (ok and numerical
    # failure), verify-cd's report, each check's report and each reproduce id's result
    yield
    for path in tmp_path.rglob("*.json"):
        artifact = read_json(path)
        assert artifact["command"] in ("simulate", "verify-cd", "check", "reproduce") and "config" in artifact, path


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
    assert summary["config"]["rel_tol"] == summary["config"]["abs_tol"] == 1e-10
    assert "lambda" not in summary["config"]
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


def test_simulate_integrates_a_short_window_late_in_time(tmp_path):
    out = tmp_path / "run"
    argv = ["simulate", "--graph", "square", "--t-start", "1e6", "--t-end", "1000000.0000001"]
    assert main(argv + ["--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["status"] == "ok"
    assert summary["solver_stats"]["accepted_steps"] > 0


def test_simulate_writes_no_entropy_residual_on_an_ulp_narrow_grid(tmp_path):
    out = tmp_path / "run"
    argv = ["simulate", "--graph", "square", "--u0", "random:", "--t-start", "1e6", "--t-end", "1000000.0000001"]
    assert main(argv + ["--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["status"] == "ok"
    assert summary["entropy_dissipation_residual"] is None
    assert "grid spacing" in summary["entropy_dissipation_note"]
    assert summary["pressure_identity_residual"] <= 1e-12


def test_simulate_writes_a_null_entropy_residual_at_two_points(tmp_path):
    # the residual's own refusal decides, as on any grid it cannot use
    out = tmp_path / "run"
    assert main(["simulate", "--graph", "square", "--u0", "random:", "--points", "2", "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["entropy_dissipation_residual"] is None
    assert summary["entropy_dissipation_note"] == "need at least 3 reported times"


def test_simulate_exits_three_when_the_step_budget_runs_out(tmp_path, monkeypatch):
    import pmelab.solver

    monkeypatch.setattr(pmelab.solver, "_MAX_STEP_ATTEMPTS", 2000)
    graph_file = tmp_path / "fast.txt"
    graph_file.write_text("a b 1e9\nb a 1e9\n")
    out = tmp_path / "run"
    argv = ["simulate", "--graph", str(graph_file), "--u0", "const:1,0.5", "--t-start", "0", "--t-end", "1e-2"]
    assert main(argv + ["--out", str(out)]) == 3
    summary = read_json(out / "summary.json")
    assert summary["status"] == "numerical-failure"
    assert "step budget of 2000 attempts ran out" in summary["error"]
    stats = summary["solver_stats"]
    assert stats["accepted_steps"] + stats["error_rejections"] + stats["positivity_rejections"] == 2000


def test_simulate_summary_records_the_solver_stats(tmp_path):
    out = tmp_path / "run"
    argv = ["simulate", "--graph", "complete:2", "--u0", "const:1,1e-12", "--m", "1.5", "--t-start", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    stats = read_json(out / "summary.json")["solver_stats"]
    assert set(stats) == {
        "accepted_steps", "error_rejections", "positivity_rejections", "rhs_evals", "h_min", "h_max",
    }
    assert stats["error_rejections"] > 0
    attempts = stats["accepted_steps"] + stats["error_rejections"] + stats["positivity_rejections"]
    assert stats["rhs_evals"] == 1 + 5 * attempts + stats["accepted_steps"] + stats["error_rejections"]
    assert 0.0 < stats["h_min"] <= stats["h_max"] <= 5.0 / 20.0


def test_numerical_failure_summary_records_the_solver_stats(tmp_path):
    graph_file = tmp_path / "fast.txt"
    graph_file.write_text("a b 1e9\nb a 1e9\n")
    out = tmp_path / "run"
    argv = ["simulate", "--graph", str(graph_file), "--u0", "const:1,0.5", "--t-start", "0", "--t-end", "1e4"]
    assert main(argv + ["--out", str(out)]) == 3
    stats = read_json(out / "summary.json")["solver_stats"]
    assert stats["accepted_steps"] == 0 and stats["rhs_evals"] == 1 and stats["h_min"] is None


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
    assert entry["d_tested"] is None
    assert abs(entry["empirical_optimal_d"] - 4.0 / 3.0) < 1e-9


def test_verify_cd_reports_the_search_count_with_and_without_d(tmp_path):
    counts = []
    for extra in ([], ["--d", "1.4"]):
        out = tmp_path / str(len(counts))
        assert main(["verify-cd", "--graph", "square", "--vertex", "x", *extra, "--out", str(out)]) == 0
        counts.append(read_json(out / "cd_report.json")["reports"][0]["samples_used"])
    # the same search scores the samples and every refinement poll
    assert counts[0] == counts[1] > 20000


def test_verify_cd_writes_one_record_with_and_without_d(tmp_path, capsys):
    # c has no out-neighbours, so no field is admissible there and no d decides its verdict
    graph_file = tmp_path / "line.txt"
    graph_file.write_text("a b 1\nb c 1\n")
    entries = []
    for extra in ([], ["--d", "10"]):
        out = tmp_path / str(len(entries))
        argv = ["verify-cd", "--graph", str(graph_file), "--m", "1.5", "--samples", "400", *extra, "--out", str(out)]
        assert main(argv) == 0
        reports = read_json(out / "cd_report.json")["reports"]
        # one stdout line per vertex, in one format, read off its report
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "verify-cd %s at %s: verdict %s, empirical optimal d %s"
            % (graph_file, r["vertex"], r["verdict"], r["empirical_optimal_d"])
            for r in reports
        ]
        entries.append({r["vertex"]: r for r in reports})
    bare, tested = entries
    for v in ("a", "b", "c"):
        assert set(bare[v]) == set(tested[v]), v
        assert bare[v]["budget"] == tested[v]["budget"] and bare[v]["floor"] == tested[v]["floor"] == 1e-6
        assert (bare[v]["d_tested"], tested[v]["d_tested"]) == (None, 10.0)
        assert bare[v]["samples_used"] == tested[v]["samples_used"]
    assert (bare["a"]["verdict"], tested["a"]["verdict"]) == (None, "holds_empirically")
    for entry in (bare["c"], tested["c"]):
        assert (entry["verdict"], entry["empirical_optimal_d"], entry["witness"]) == ("inconclusive", None, None)


def test_verify_cd_searches_a_repeated_vertex_once(tmp_path, monkeypatch):
    import pmelab.cd

    searched = []
    search = pmelab.cd._search
    monkeypatch.setattr(pmelab.cd, "_search", lambda g, x, *rest: searched.append(x) or search(g, x, *rest))
    out = tmp_path / "run"
    argv = ["verify-cd", "--graph", "square", "--vertex", "z", "--vertex", "x", "--vertex", "z", "--samples", "400"]
    assert main(argv + ["--out", str(out)]) == 0
    assert searched == ["z", "x"]
    assert [r["vertex"] for r in read_json(out / "cd_report.json")["reports"]] == ["z", "x"]


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
    traj = integrate(square_graph(), 2.0, [1.2, 0.9, 1.05, 0.8], np.linspace(0.1, 1.5, 29))
    assert report["solver_stats"] == traj.stats.to_json_dict()
    assert report["solver_stats"]["accepted_steps"] > 0
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
    report = read_json(out / "report_diff_harnack.json")
    assert report["passed"] is True
    assert report["config"]["lambda"] == 0.0


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


def test_reproduce_reaches_the_corner_optimum_of_a_wide_complete_graph(tmp_path):
    # the supremum 2(D-1)/D sits at the corner u(x1) = 1, u = 0 elsewhere, which the face samples reach
    assert main(["reproduce", "ex3.5:150", "--seed", "0", "--out", str(tmp_path / "run")]) == 0
    report = read_json(tmp_path / "run" / "reproduce_ex3.5_150.json")
    assert report["passed"] is True and abs(report["measured"] - 2.0 * 149 / 150) <= 1e-9


def test_reproduce_chain_example_reports_the_value_mismatch(tmp_path):
    # the recorded target window for the length-5 chain does not match the
    # value the definitions produce, and the command reports that honestly
    out = tmp_path / "run"
    proc = run_cli("reproduce", "ex4.3", "--out", out)
    assert proc.returncode == 1
    report = read_json(out / "reproduce_ex4.3.json")
    assert report["passed"] is False
    # beside the value, the two limits it lies between: -1/2 as eps -> 0 at
    # m = 2, and the recorded -1 as m -> 2+ after eps -> 0
    assert report["measured"] == -0.49899749999999954
    assert (report["limit_eps_to_0"], report["limit_m_to_2_plus"]) == (-0.5, -1.0)


def test_reproduce_chain_limit_reads_the_family_closing_in_on_it(tmp_path):
    assert main(["reproduce", "ex4.5:3", "--out", str(tmp_path / "run")]) == 0
    report = read_json(tmp_path / "run" / "reproduce_ex4.5_3.json")
    eps = [1e-2, 1e-4, 1e-6, 1e-8]
    values = [chain_counterexample(5, 3.0, e).curvature for e in eps]
    assert report["expected"] == chain_limit_curvature(3.0)
    assert report["measured"] == values[-1] < 0.0
    assert report["eps_values"] == eps
    assert report["gaps"] == [abs(value - report["expected"]) for value in values]
    assert report["gaps"] == sorted(report["gaps"], reverse=True)
    assert "tolerance" not in report and "value_at_eps_1e-3" not in report


@pytest.mark.parametrize("m", ["1e8", "1e10"])
def test_reproduce_chain_limit_refuses_an_unresolved_family(tmp_path, capsys, m):
    # the profile's round trip misses by 1.1e-8 (m = 1e8, eps = 1e-8) and
    # 6.4e-7 (m = 1e10, eps = 1e-6) relative, over eps / 96
    assert main(["reproduce", f"ex4.5:{m}", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the length-5 chain family is unresolved in float64 at m=") and err.count("\n") == 1
    assert f"m={float(m):g}," in err
    assert not (tmp_path / "run").exists()


def test_reproduce_chain_limit_passes_at_m_1e6(tmp_path):
    # the largest tested m the family resolves: each gap is m eps to leading
    # order (1.05 m eps at eps = 1e-8), within the quarter the refusal allows
    assert main(["reproduce", "ex4.5:1e6", "--out", str(tmp_path / "run")]) == 0
    report = read_json(tmp_path / "run" / "reproduce_ex4.5_1e6.json")
    assert report["passed"] is True and report["m"] == 1e6
    assert all(abs(gap / (1e6 * eps) - 1.0) < 0.25 for gap, eps in zip(report["gaps"], report["eps_values"]))


def test_reproduce_chain_limit_fails_when_the_limit_is_off(tmp_path, monkeypatch):
    # the family, not a second copy of the closed form, is what the limit is read against
    monkeypatch.setattr("pmelab.cd._chain_product_form", lambda m: _chain_product_form(m) + 1e-3)
    assert main(["reproduce", "ex4.5:3", "--out", str(tmp_path / "run")]) == 1
    assert read_json(tmp_path / "run" / "reproduce_ex4.5_3.json")["passed"] is False


def test_reproduce_ab_square_reports_where_the_minimum_sits(tmp_path):
    out = tmp_path / "run"
    assert main(["reproduce", "ex5.3i", "--out", str(out)]) == 0
    argmin = read_json(out / "reproduce_ex5.3i.json")["argmin"]
    assert set(argmin) == {"t", "vertex"}
    assert 0.05 <= argmin["t"] <= 5.0
    assert argmin["vertex"] in ("x", "y1", "y2", "z")


# each reproduce id that re-runs a check, and that check command, with S the seed
CHECK_IDS = [
    (["ex5.3i"], "ab --graph square --d 1.3333333333333333 --u0 random: --t-start 0.05 --tol 1e-8 --seed S"),
    (["ex6.6i"], "harnack --graph square --mu 1.3333333333333333 --u0 random: --seed S"),
    (["ex6.6ii:4", "--m", "3"], "harnack --graph complete:4 --m 3 --mu 1.5 --u0 random: --seed S"),
]


@pytest.mark.parametrize("rid,command", CHECK_IDS, ids=[rid[0] for rid, _ in CHECK_IDS])
def test_a_check_reproduce_id_measures_the_min_slack_of_its_check_command(tmp_path, rid, command):
    for seed in range(3):
        out = tmp_path / str(seed)
        assert main(["reproduce", *rid, "--seed", str(seed), "--out", str(out / "reproduce")]) == 0
        (artifact,) = (out / "reproduce").glob("reproduce_*.json")
        argv = ["check", *command.replace("S", str(seed)).split()]
        assert main(argv + ["--out", str(out / "check")]) == 0
        (report,) = (out / "check").glob("report_*.json")
        assert read_json(artifact)["measured"] == read_json(report)["min_slack"]


def test_reproduce_square_searches_each_vertex_once(tmp_path, monkeypatch):
    # the verdicts at 4/3 and at 1.32 at x come from one search at x
    searches = []
    monkeypatch.setattr("pmelab.cd._search_min_score", lambda *args: searches.append(args) or _search_min_score(*args))
    assert main(["reproduce", "sq3.3", "--seed", "1", "--out", str(tmp_path / "run")]) == 0
    assert len(searches) == 4
    got = read_json(tmp_path / "run" / "reproduce_sq3.3.json")
    g, cfg = square_graph(), SearchConfig(seed=1)
    reports = {v: verify_cd_at(g, 2.0, 0.0, 4.0 / 3.0, v, cfg) for v in ("x", "y1", "y2", "z")}
    tight = verify_cd_at(g, 2.0, 0.0, 1.32, "x", cfg)
    assert got["verdicts_at_4_3"] == {v: report.verdict for v, report in reports.items()}
    assert (got["verdict_at_1.32"], got["witness_at_1.32"]) == (tight.verdict, tight.to_json_dict()["witness"])
    assert got["measured_optimal_d"] == max(report.empirical_optimal_d for report in reports.values())


def test_reproduce_refuses_an_m_without_a_closed_form_before_searching(tmp_path, capsys, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("pmelab.cd.empirical_optimal_d", search)
    assert main(["reproduce", "ex3.5:100", "--m", "1.5", "--out", str(tmp_path / "run")]) == 2
    assert "closed-form optimal d" in capsys.readouterr().err


def test_reproduce_unknown_id_lists_the_catalogue(tmp_path):
    proc = run_cli("reproduce", "nope", "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "ex3.5" in proc.stderr


def test_every_reproduce_id_resolves_to_a_runner():
    samples = {"D": ("3", 3), "m": ("2.5", 2.5)}
    for rid in REPRODUCE_IDS:
        base, _, kind = rid.partition(":")
        token, want = (base + ":" + samples[kind][0], samples[kind][1]) if kind else (base, None)
        runner, value = resolve_reproduce(token)
        assert callable(runner)
        assert value == want and type(value) is type(want), (rid, value)


@pytest.mark.parametrize("token", ["ex3.3:5", "ex3.3:", "ex3.5", "ex3.5:", "ex3.5:x", "ex6.6ii:2.5", "nope"])
def test_malformed_reproduce_ids_list_the_catalogue(token):
    with pytest.raises(ValidationError) as exc:
        resolve_reproduce(token)
    assert ", ".join(REPRODUCE_IDS) in str(exc.value)


# -- the flags each command takes ------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

# the argv of every run in demos/04_command_line_tour.py and of the README examples
DOCUMENTED = [
    "gen-graph --graph square --out o",
    "simulate --graph g.txt --m 2.5 --u0 random: --seed 11 --t-start 0.05 --t-end 3 --points 120 --out o",
    "verify-cd --graph square --m 2 --alpha 0 --d 1.3333333333333333 --seed 0 --out o",
    "verify-cd --graph square --m 2 --alpha 0 --d 1.30 --seed 0 --out o",
    "check ab --graph square --m 2 --d 1.3333333333333333 --u0 random: --seed 4 --t-start 0.05 --t-end 4 --points 160 --out o",
    "reproduce ex3.5:4 --out o",
    "simulate --graph square --m 0.5 --t-end 1 --out o",
    "simulate --graph stiff.txt --m 2 --u0 const:1,2 --t-end 1e4 --points 50 --out o",
    "simulate --graph square --m 2.5 --u0 random: --seed 11 --out run1",
    "verify-cd --graph complete:5 --m 2 --alpha 0 --d 1.6",
    "check ab --graph square --m 2 --d 1.3333333333333333 --u0 random:",
    "check harnack --graph path:4 --m 2 --mu 1.3333333333333333 --pairs 40",
    "reproduce ex3.5:4",
    "gen-graph --graph zwindow:3 --out graphs",
]


def cli_cold_rotation(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("clicold", ROOT / "bench" / "clicold.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv + ["--out", "o"] for argv, _ in module.commands(seed)]


def test_every_benchmarked_and_documented_command_line_parses(monkeypatch):
    parser = build_parser()
    argvs = [line.split() for line in DOCUMENTED]
    for seed in (1, 7919):
        argvs += cli_cold_rotation(monkeypatch, seed)
    assert len(argvs) == len(DOCUMENTED) + 2 * 21
    for argv in argvs:
        assert callable(parser.parse_args(argv).func), argv


@pytest.mark.parametrize(
    "argv",
    [
        "gen-graph --m 3",
        "reproduce ex4.1 --u0 const:2",
        "simulate --alpha 0.5",
        "verify-cd --u0 const:1",
        "check ab --d 1 --mu 1",
        "check harnack --mu 1 --d 1",
        "check ab",
        "check diff-harnack",
        "check harnack",
        "simulate --u0 random: --seed -1",
        "verify-cd --seed -1",
        "check harnack --mu 1 --seed -1",
        "reproduce ex3.3 --seed -1",
    ],
)
def test_flags_a_command_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv.split())
    assert exc.value.code == 2


def test_seed_takes_a_signed_nonnegative_integer():
    assert build_parser().parse_args(["verify-cd", "--seed", "+7"]).seed == 7


@pytest.mark.parametrize("argv", ["verify-cd --sampl 50", "gen-graph --m 3"])
def test_abbreviated_and_unknown_flags_show_the_subcommand_usage(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pmelab %s [-h]" % argv.split()[0]), err
    assert "unrecognized arguments: %s" % argv.split(" ", 1)[1] in err


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats alone took about 0.6 s of every command's start-up, and
    # scipy.optimize about 0.45 s
    code = "import pmelab.cli, sys; assert not {'scipy.stats', 'scipy.optimize'} & set(sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy.sparse and what it pulls in took about half of every command's
    # start-up; only Graph.kernel_matrix() imports it
    code = "import pmelab.cli, sys; assert not [m for m in sys.modules if m.partition('.')[0] == 'scipy']"
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


# (argv, exit code) of every command kind, as they exit with scipy installed
_NO_SCIPY_RUNS = [
    (["gen-graph", "--graph", "zwindow:5"], 0),
    (["simulate", "--graph", "square", "--u0", "random:", "--seed", "3"], 0),
    (["check", "ab", "--graph", "square", "--d", "1.3333333333333333", "--u0", "random:"], 0),
    (["check", "harnack", "--graph", "square", "--mu", "1.3333333333333333", "--u0", "random:"], 0),
    (["verify-cd", "--graph", "square", "--vertex", "x", "--d", "1.3"], 1),
    (["verify-cd", "--graph", "square", "--vertex", "x", "--d", "1.4"], 0),
    (["reproduce", "ex4.1"], 0),
    (["reproduce", "ex5.3ii"], 0),
    (["reproduce", "ex6.6i"], 0),
]


def test_every_command_runs_where_scipy_cannot_be_imported(tmp_path):
    shim = tmp_path / "shim" / "scipy"
    shim.mkdir(parents=True)
    (shim / "__init__.py").write_text("raise ImportError('scipy is not installed')\n")
    runs = [argv + ["--out", str(tmp_path / str(i))] for i, (argv, _) in enumerate(_NO_SCIPY_RUNS)]
    code = (
        "import json, sys; from pmelab.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
        "assert 'scipy' not in sys.modules; print(json.dumps(codes))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(shim.parent), os.environ["PYTHONPATH"]]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True, env=env, timeout=240
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [want for _, want in _NO_SCIPY_RUNS]


# m = 2 commands whose exit codes, output and artifacts must not depend on numpy's SIMD dispatch
_DISPATCH_RUNS = [
    ["check", "harnack", "--graph", "square", "--mu", "1.3", "--u0", "random:"],
    ["check", "harnack", "--graph", "path:5", "--mu", "1.3", "--u0", "random:"],
    ["check", "harnack", "--graph", "complete:5", "--lambda", "0.25", "--mu", "1.3", "--u0", "random:"],
    ["check", "ab", "--graph", "square", "--d", "1.3", "--u0", "random:"],
    ["check", "diff-harnack", "--graph", "complete:3", "--mu", "1.3", "--u0", "random:"],
    ["simulate", "--m", "2", "--graph", "square", "--u0", "random:"],
    ["verify-cd", "--graph", "square", "--vertex", "x", "--d", "1.3"],
    ["reproduce", "sq3.3"],
    ["reproduce", "ex6.6i"],
]


def _avx512_targets():
    """The AVX-512 dispatch targets numpy finds on this CPU (``X86_V4`` is numpy 2's AVX-512 level)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t) and (t.startswith("AVX512") or t == "X86_V4")]


def test_m2_runs_do_not_depend_on_numpys_simd_dispatch(tmp_path):
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 target on this CPU")
    code = (
        "import contextlib, io, json, sys; from pmelab.cli import main\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "        out.append([main(argv), text.getvalue()])\n"
        "print(json.dumps(out))"
    )
    results = []
    for level, disabled in (("default", {}), ("no-avx512", {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"} | disabled
        out = tmp_path / level
        runs = [argv + ["--seed", "1", "--out", str(out / str(i))] for i, argv in enumerate(_DISPATCH_RUNS)]
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True, env=env, timeout=240
        )
        assert proc.returncode == 0, proc.stderr
        results.append([(c, text.replace(str(out), "OUT")) for c, text in json.loads(proc.stdout.splitlines()[-1])])
    for i, argv in enumerate(_DISPATCH_RUNS):
        assert results[0][i] == results[1][i], argv
        runs = [tmp_path / level / str(i) for level in ("default", "no-avx512")]
        names = [sorted(p.name for p in run.iterdir()) for run in runs]
        assert names[0] == names[1], argv
        for name in names[0]:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), (argv, name)


# the pmelab modules each group of commands loads, and every command path in
# it: the subcommands, and each reproduce id with the runner it calls
_COMMAND_GROUPS = {
    "graphs": (
        ["cli", "errors", "graphs"],
        [["gen-graph", "--graph", "zwindow:3"]],
    ),
    "cd": (
        ["artifacts", "cd", "cli", "errors", "graphs", "operators"],
        [["verify-cd", "--graph", "square", "--vertex", "x", "--d", "1.4"]]
        + [["reproduce", rid] for rid in ("ex3.3", "ex3.4", "ex3.5:3", "sq3.3", "ex4.1", "ex4.2", "ex4.3", "ex4.5:3", "thm4.6:2")],
    ),
    "flow": (
        ["artifacts", "cli", "errors", "estimates", "graphs", "operators", "solver"],
        [
            ["simulate", "--graph", "square", "--u0", "random:"],
            ["check", "ab", "--graph", "square", "--d", "1.3333333333333333", "--u0", "random:"],
            ["check", "diff-harnack", "--graph", "complete:3", "--mu", "1.3333333333333333", "--u0", "random:"],
            ["check", "harnack", "--graph", "square", "--mu", "1.3333333333333333", "--u0", "random:"],
        ]
        + [["reproduce", rid] for rid in ("ex5.3i", "ex5.3ii", "ex6.6i", "ex6.6ii:3")],
    ),
    # the lemma ids check operator inequalities on sampled fields, with no trajectory
    "lemmas": (
        ["artifacts", "cli", "errors", "estimates", "graphs", "operators"],
        [["reproduce", rid] for rid in ("lemma6.1:1.5", "lemma6.1:2", "lemma6.1:3", "lemma6.3")],
    ),
}


@pytest.mark.parametrize("group", list(_COMMAND_GROUPS))
def test_each_command_runs_and_loads_only_its_modules(tmp_path, group):
    modules, argvs = _COMMAND_GROUPS[group]
    runs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(argvs)]
    code = (
        "import json, sys; from pmelab.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(json.dumps([codes, sorted(sys.modules)]))"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [1 if argv == ["reproduce", "ex4.3"] else 0 for argv in argvs]
    assert [m.partition(".")[2] for m in loaded if m.startswith("pmelab.")] == modules
    if group == "graphs":
        assert "dataclasses" not in loaded


def test_flag_defaults_are_the_library_defaults(tmp_path):
    # the parser spells these out; a type mismatch would change the echoed config
    parser = build_parser()
    verify, simulate, solver = parser.parse_args(["verify-cd"]), parser.parse_args(["simulate"]), SolverConfig()
    pairs = ((verify.samples, SearchConfig().samples), (simulate.rel_tol, solver.rel_tol), (simulate.abs_tol, solver.abs_tol))
    for got, want in pairs:
        assert (got, type(got)) == (want, type(want))
    out = tmp_path / "run"
    assert main(["check", "ab", "--graph", "square", "--d", "2", "--out", str(out)]) == 0
    report = read_json(out / "report_ab.json")
    assert report["tolerance"] == inspect.signature(ab_check).parameters["tol"].default
    assert "tol" not in report["config"]


def test_config_echoes_exactly_the_parsed_settings(tmp_path):
    out = tmp_path / "run"
    assert main(["reproduce", "ex4.1", "--out", str(out)]) == 0
    assert read_json(out / "reproduce_ex4.1.json")["config"] == {"id": "ex4.1", "m": 2.0, "seed": 0}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify-cd", "--graph", "square", "--vertex", "x", "--d", "1.0", "--tol", "nan"], "tol"),
        (["verify-cd", "--graph", "square", "--vertex", "x", "--d", "1.0", "--tol", "inf"], "tol"),
        (["check", "ab", "--graph", "square", "--d", "0.01", "--u0", "random:", "--tol", "inf"], "tol"),
        (["check", "ab", "--graph", "square", "--d", "0.01", "--u0", "random:", "--tol", "-1"], "tol"),
        (["simulate", "--graph", "square", "--t-end", "inf"], "--t-end"),
        (["simulate", "--graph", "square", "--t-start", "nan"], "--t-start"),
        (["check", "ab", "--graph", "square", "--d", "1", "--t-end", "inf"], "--t-end"),
        (["verify-cd", "--graph", "zwindow:3", "--vertex", "0", "--d", "inf"], "d must be positive and finite"),
        (["check", "ab", "--graph", "square", "--d", "inf"], "d must be positive and finite"),
        (["check", "harnack", "--graph", "square", "--mu", "inf"], "mu must be positive and finite"),
        (["check", "diff-harnack", "--graph", "square", "--mu", "inf"], "mu must be positive and finite"),
        (["check", "harnack", "--graph", "square", "--mu", "1e308"], "t2**(mu + 1) = "),
        (["check", "harnack", "--graph", "square", "--mu", "1.3", "--t-end", "1e300"], "t2**(mu + 1) = "),
        (["check", "harnack", "--graph", "square", "--mu", "0.01", "--t-end", "1e300"], "(t2 - t1)**2 = "),
        (
            ["check", "harnack", "--graph", "square", "--mu", "150", "--u0", "const:1e100", "--t-end", "100"],
            "overflows a float at the pair",
        ),
        # u0^m overflows before the pressure does at m = 3, so no command line reaches an overflowed pressure
        (
            ["check", "ab", "--graph", "square", "--m", "3", "--d", "1.3334", "--u0", "const:1e200"],
            "the right-hand side L(u0^m) of the initial state is not finite",
        ),
        (
            ["check", "diff-harnack", "--graph", "square", "--m", "3", "--mu", "1", "--u0", "const:1e100"],
            "differential Harnack slack is nan",
        ),
        (
            ["simulate", "--graph", "square", "--u0", "random:", "--rel-tol", "inf"],
            "rel_tol must be positive and finite",
        ),
        (
            ["simulate", "--graph", "square", "--u0", "random:", "--abs-tol", "inf"],
            "abs_tol must be positive and finite",
        ),
        (["simulate", "--graph", "square", "--m", "1e308"], "exponent too large"),
        (["simulate", "--graph", "square", "--m", "1.35e154"], "exponent too large"),
        (["simulate", "--graph", "square", "--u0", "random:0,1"], "random: bounds need 0 < lo <= hi < inf"),
        (["simulate", "--graph", "square", "--u0", "random:2,1"], "random: bounds need 0 < lo <= hi < inf"),
        (["simulate", "--graph", "square", "--u0", "random:1,inf"], "random: bounds need 0 < lo <= hi < inf"),
        (["simulate", "--graph", "square", "--u0", "random:nan,1"], "random: bounds need 0 < lo <= hi < inf"),
        (["verify-cd", "--graph", "square", "--vertex", "x", "--tol", "0.5"], "without --d no verdict reads it"),
        (["reproduce", "ex4.1", "--m", "3"], "only ex3.5:D and ex6.6ii:D do"),
        (["reproduce", "lemma6.1:3", "--m", "2.5"], "only ex3.5:D and ex6.6ii:D do"),
        # both D ids build complete:D before they read its closed form
        (["reproduce", "ex6.6ii:0"], "complete graph needs at least 2 vertices"),
        (["reproduce", "ex3.5:0"], "complete graph needs at least 2 vertices"),
        (["simulate", "--u0", "file:"], "file: initial state needs a path"),
        (["simulate", "--u0", "const:a"], "bad const: initial state 'const:a'"),
        (["simulate", "--u0", "random:1,x"], "bad random: initial state 'random:1,x'"),
        (["simulate", "--u0", "bogus:1"], "unknown initial state kind 'bogus:1' (use file:, const:, random:)"),
        # integrate refuses the state, after the time flags are read
        (["simulate", "--u0", "const:-1"], "initial state must be strictly positive and finite"),
        (["check", "ab", "--d", "1", "--u0", "const:nan"], "initial state must be strictly positive and finite"),
        (["simulate", "--u0", "const:-1", "--t-end", "inf"], "--t-end must be finite"),
        (["check", "ab", "--d", "1", "--points", "1"], "--points must be at least 2"),
        (["check", "ab", "--d", "1", "--t-start", "0"], "--t-start must be positive for this command"),
        (["simulate", "--t-start", "-1"], "--t-start must be nonnegative"),
        (["check", "diff-harnack", "--mu", "1", "--lambda", "1.5"], "lambda must lie in [0, 1), got 1.5"),
        (["check", "harnack", "--mu", "1", "--pairs", "0"], "--pairs must be at least 1"),
        (
            ["verify-cd", "--graph", "square", "--vertex", "x", "--d", "1", "--samples", "0"],
            "search budget must be at least 1 sample",
        ),
        (["reproduce", "ex4.5:2"], "the chain limit comparison needs m > 2"),
    ],
)
def test_bad_tolerances_and_times_are_usage_errors(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()  # a refused command writes nothing


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_check_harnack_refuses_pairs_below_one_before_integrating(tmp_path, capsys, monkeypatch, pairs):
    import pmelab.solver

    def integrate(*args, **kwargs):
        raise AssertionError("integrated before the flags were checked")

    monkeypatch.setattr(pmelab.solver, "integrate", integrate)
    argv = ["check", "harnack", "--mu", "1", "--pairs", pairs, "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --pairs must be at least 1\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("which,flag", [("ab", "--d"), ("harnack", "--mu")])
def test_a_check_whose_step_size_underflows_exits_three(tmp_path, capsys, which, flag):
    # a pair joined at weight 1e300 moves faster than any step above the floor
    graph = tmp_path / "g.txt"
    graph.write_text("a b 1e300\n")
    argv = ["check", which, "--graph", str(graph), flag, "1", "--u0", "const:1,2"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == "error: step size underflow at t=0.1\n"


@pytest.mark.parametrize("which,flag", [("ab", "--d"), ("harnack", "--mu")])
def test_a_start_whose_right_hand_side_overflows_is_a_usage_error(tmp_path, capsys, which, flag):
    # (1e308)^2 overflows, so L(u0^m) is not finite and no step from u0 could pass
    argv = ["check", which, "--graph", "complete:2", flag, "1", "--u0", "const:1e308"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == "error: the right-hand side L(u0^m) of the initial state is not finite\n", err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "diff-harnack", "--graph", "complete:2", "--m", "3", "--mu", "1", "--u0", "const:1e100"],
        ["check", "diff-harnack", "--graph", "square", "--m", "3", "--mu", "1", "--u0", "const:1e100"],
    ],
)
def test_a_nan_slack_writes_only_its_error_line(tmp_path, argv):
    # in a fresh process, so a RuntimeWarning would reach stderr as it does for a user
    proc = run_cli(*argv, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("graph,d", [("square", 1.3334), ("complete:2", 2.0)])
def test_ab_passes_on_a_stationary_start_whose_pressure_underflows(tmp_path, graph, d):
    # the pressure of 1e-200 underflows to 0 at m = 3, so G = 0 and the least slack is d/t_end
    argv = ["check", "ab", "--graph", graph, "--m", "3", "--d", repr(d), "--u0", "const:1e-200"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    report = read_json(tmp_path / "run" / "report_ab.json")
    assert report["passed"] is True and report["min_slack"] == d / 5.0 and report["argmin"]["t"] == 5.0


def test_a_non_finite_edge_weight_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("a b nan\nb c 1\n")
    argv = ["verify-cd", "--graph", str(path), "--d", "1", "--vertex", "b"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: edge weights must be finite and nonnegative\n"


@pytest.mark.parametrize(
    "u0,edges,message",
    [
        ("x 1\nzz 5\ny1 1\ny2 1\nz 1\n", None, "u0.txt:2: unknown vertex 'zz'"),
        ("x 1\ny1 1\ny2 1\nz 1\nx 7\n", None, "u0.txt:5: vertex 'x' given twice"),
        (None, "a b 0.5\nb a 0.5\na b 1\n", "g.txt:3: edge ('a', 'b') given two weights, 0.5 and 1.0"),
        ("x 1\ny1 1\n", None, "u0.txt: no value for vertices ['y2', 'z']"),
        ("x 1\ny1 1\ny2 1\nz -1\n", None, "u0.txt:4: value '-1' is not strictly positive and finite"),
        ("x 1\ny1 abc\n", None, "u0.txt:2: bad value 'abc'"),
        (None, "a b 0\nb a 0\n", "kernel has no positive entries"),
        (None, "a a 0\n", "kernel has no positive entries"),
    ],
)
def test_a_file_that_drops_or_overwrites_a_value_is_a_usage_error(tmp_path, capsys, u0, edges, message):
    # simulate reads an initial-state file on the square; gen-graph reads a graph file alone
    argv = ["simulate" if u0 is not None else "gen-graph", "--graph", "square", "--out", str(tmp_path / "run")]
    if u0 is not None:
        (tmp_path / "u0.txt").write_text(u0)
        argv += ["--u0", f"file:{tmp_path / 'u0.txt'}"]
    if edges is not None:
        (tmp_path / "g.txt").write_text(edges)
        argv[2] = str(tmp_path / "g.txt")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--graph", "{dir}"], "Is a directory"),
        (["simulate", "--graph", "square", "--u0", "file:{dir}"], "Is a directory"),
        (["gen-graph", "--graph", "square", "--out", "{file}"], "File exists"),
    ],
)
def test_an_os_error_is_a_usage_error(tmp_path, capsys, argv, message):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    argv = [a.format(dir=tmp_path / "dir", file=tmp_path / "file") for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv", [["simulate", "--graph", "{file}"], ["simulate", "--graph", "square", "--u0", "file:{file}"]]
)
def test_a_file_that_is_not_utf8_text_is_a_usage_error(tmp_path, capsys, argv):
    # the first bytes of an executable: 0x80 and above cannot start a UTF-8 character
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
    assert main([a.format(file=binary) for a in argv] + ["--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {binary}: not a UTF-8 text file\n"


def test_running_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # never build a really oversized graph here: it can exhaust the machine
    def exhausted(spec):
        raise MemoryError("Unable to allocate 74.5 PiB for an array")

    monkeypatch.setattr("pmelab.cli.resolve_graph", exhausted)
    assert main(["gen-graph", "--graph", "complete:99999999", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 74.5 PiB for an array\n"


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
