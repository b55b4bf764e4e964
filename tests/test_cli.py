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
from pmelab.cd import _search_min_score
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
def every_json_artifact_is_standard_json(tmp_path):
    yield
    for path in tmp_path.rglob("*.json"):
        read_json(path)


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
    assert "d_tested" not in entry
    assert abs(entry["empirical_optimal_d"] - 4.0 / 3.0) < 1e-9


def test_verify_cd_reports_the_search_count_with_and_without_d(tmp_path):
    counts = []
    for extra in ([], ["--d", "1.4"]):
        out = tmp_path / str(len(counts))
        assert main(["verify-cd", "--graph", "square", "--vertex", "x", *extra, "--out", str(out)]) == 0
        counts.append(read_json(out / "cd_report.json")["reports"][0]["samples_used"])
    # the same search scores the samples and every refinement poll
    assert counts[0] == counts[1] > 20000


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


def test_reproduce_ab_square_reports_where_the_minimum_sits(tmp_path):
    out = tmp_path / "run"
    assert main(["reproduce", "ex5.3i", "--out", str(out)]) == 0
    argmin = read_json(out / "reproduce_ex5.3i.json")["argmin"]
    assert set(argmin) == {"t", "vertex", "form"}
    assert 0.05 <= argmin["t"] <= 5.0
    assert argmin["vertex"] in ("x", "y1", "y2", "z")
    assert argmin["form"] in ("direct", "pressure_equation")


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
        + [["reproduce", rid] for rid in ("ex5.3i", "ex5.3ii", "ex6.6i", "ex6.6ii:3", "lemma6.1:2", "lemma6.3")],
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
        (["check", "ab", "--graph", "square", "--m", "3", "--d", "1.3334", "--u0", "const:1e-200"], "AB slack is nan"),
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
    ],
)
def test_bad_tolerances_and_times_are_usage_errors(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize(
    "argv",
    [
        # the pressure of 1e-200 underflows to 0 at m = 3, so an AB slack is 0/0
        ["check", "ab", "--graph", "square", "--m", "3", "--d", "1.3334", "--u0", "const:1e-200"],
        ["check", "diff-harnack", "--graph", "square", "--m", "3", "--mu", "1", "--u0", "const:1e100"],
    ],
)
def test_a_nan_slack_writes_only_its_error_line(tmp_path, argv):
    # in a fresh process, so a RuntimeWarning would reach stderr as it does for a user
    proc = run_cli(*argv, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


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
    ],
)
def test_a_file_that_drops_or_overwrites_a_value_is_a_usage_error(tmp_path, capsys, u0, edges, message):
    argv = ["simulate", "--graph", "square", "--out", str(tmp_path / "run")]
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
