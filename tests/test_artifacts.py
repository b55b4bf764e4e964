"""The one JSON and CSV format every artifact is written in."""

import json
import math
import subprocess
import sys

import numpy as np

from pmelab import CDReport, EstimateReport, SolverStats, integrate, path_graph, square_graph, verify_cd_at
from pmelab.artifacts import jsonable, write_csv, write_json


def test_report_dicts_are_standard_json():
    violated = verify_cd_at(path_graph(5), 2.0, 0.0, 100.0, "3")
    unset = CDReport("x", 1.5, 0.0, math.inf, "inconclusive", None, None, 10, 0, 1e-6)
    unbounded = EstimateReport("harnack_distance", {"m": 2.0, "mu": 1.0}, math.inf, {}, 0, 1e-8)
    traj = integrate(square_graph(), 2.0, np.array([1.2, 0.9, 1.05, 0.8]), np.linspace(0.0, 1.0, 5))
    for report in (violated, unset, unbounded, traj.stats, SolverStats.of([0.0], 0, 0, 1)):
        json.dumps(report.to_json_dict(), allow_nan=False)
    assert violated.to_json_dict()["empirical_optimal_d"] == "inf"
    assert "floor" not in violated.to_json_dict() and unset.to_json_dict()["floor"] == 1e-6
    assert unset.to_json_dict()["d_tested"] == "inf"
    encoded = unbounded.to_json_dict()
    assert encoded["min_slack"] == "inf" and encoded["passed"] is True and "records" not in encoded


def test_jsonable_maps_numpy_values_and_non_finite_floats():
    obj = {"a": np.float64(math.nan), 1: (np.int64(3), np.array([math.inf, -math.inf, 0.5])), "b": np.bool_(True)}
    assert jsonable(obj) == {"a": "nan", "1": [3, ["inf", "-inf", 0.5]], "b": True}


def test_write_json_sorts_keys_and_ends_in_a_newline(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": -math.inf, "a": [np.float32(0.5)]})
    assert path.read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": "-inf"\n}\n'


def test_write_csv_writes_floats_with_17_digits_and_the_rest_by_str(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, ["t", "x", "n"], [(0.1, "y1", 3), (1.0 / 3.0, "z", np.float64(2.0))])
    assert path.read_text() == "t,x,n\n0.10000000000000001,y1,3\n0.33333333333333331,z,2\n"


def test_importing_pmelab_leaves_json_unloaded():
    # only writing an artifact needs the json module
    code = "import pmelab, sys; assert 'json' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0
