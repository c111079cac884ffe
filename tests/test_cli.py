"""CLI subcommands, exit codes, JSON round-trip, sweep CSV."""

import argparse
import csv
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import robustmv
from robustmv import cli, solver
from robustmv.cli import main

from conftest import NON_PD_CORNER_D3, STALLED_D4

REFERENCE = {
    "market": {"sigmas": [1.0, 1.0], "horizon_T": 1.0, "lambda": 0.5, "x0": 1.0},
    "ambiguity": {
        "variant": "ellipsoidal",
        "b_hat": [0.4, 0.2],
        "delta": 0.1,
        "gamma": {"lower": [-0.5], "upper": [0.8]},
    },
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_solve_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, REFERENCE)
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solution"]["case_label"] == "TwoAsset.Interior"
    assert np.isclose(report["solution"]["r_star"], 0.09)
    assert np.isclose(report["strategy"]["V0"], 1.047087141852605)
    assert report["strategy"]["class"] == "anti_diversification"


def test_solve_runs_without_scipy():
    # The runtime depends on numpy only: `solve` exits 0 with scipy blocked from import.
    config = Path(__file__).resolve().parents[1] / "perfbench" / "readme_config.json"
    code = (
        "import sys; sys.modules['scipy'] = None; from robustmv.cli import main; "
        f"sys.exit(main(['solve', '--config', {str(config)!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(robustmv.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["solution"]["case_label"] == "TwoAsset.Interior"


def test_solve_round_trip_bitwise(tmp_path, capsys):
    cfg = write_config(tmp_path, REFERENCE)
    assert main(["solve", "--config", cfg]) == 0
    first = json.loads(capsys.readouterr().out)["solution"]
    assert main(["solve", "--config", cfg]) == 0
    second = json.loads(capsys.readouterr().out)["solution"]
    assert first == second  # floats parsed back compare exactly
    assert float(repr(first["r_star"])) == first["r_star"]


def test_solve_oracle_check(tmp_path, capsys):
    cfg = write_config(tmp_path, REFERENCE)
    assert main(["solve", "--config", cfg, "--oracle-check"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle_check"]["ok"]
    assert report["oracle_check"]["gap"] <= 1e-3


def test_default_resolution_counts_drift_axes(tmp_path, capsys):
    # One pair and two drift bounds are three axes: 51 points each, not 2001.
    payload = dict(REFERENCE, ambiguity={
        "variant": "product", "delta_lower": [0.1, 0.1], "delta_upper": [0.4, 0.2],
        "gamma": {"lower": [-0.5], "upper": [0.5]},
    })
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg, "--oracle-check"]) == 0
    check = json.loads(capsys.readouterr().out)["oracle_check"]
    assert check["resolution"] == 51 and check["ok"]


def test_grid_too_large_names_fitting_resolution(tmp_path, capsys):
    # Six pairs at the default 51 points are 51^6 nodes; 21^6 <= 1e8 < 22^6.
    payload = {
        "market": {"sigmas": [1.0] * 4, "horizon_T": 1.0, "lambda": 0.5, "x0": 1.0},
        "ambiguity": {"variant": "ellipsoidal", "b_hat": [0.4, 0.3, 0.2, 0.1], "delta": 0.05,
                      "gamma": {"lower": [-0.2] * 6, "upper": [0.3] * 6}},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["oracle", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: grid of 17596287801 nodes exceeds the budget of 100000000; "
        "the largest resolution that fits is 21\n"
    )


def test_solve_writes_output_file(tmp_path, capsys):
    payload = dict(REFERENCE)
    out = tmp_path / "report.json"
    payload["output"] = {"format": "json", "path": str(out)}
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg]) == 0
    capsys.readouterr()
    saved = json.loads(out.read_text())
    assert saved["solution"]["case_label"] == "TwoAsset.Interior"


def test_singleton_config(tmp_path, capsys):
    payload = {
        "market": REFERENCE["market"],
        "ambiguity": {
            "variant": "product",
            "delta_lower": [0.3, 0.2],
            "delta_upper": [0.3, 0.2],
            "gamma": {"lower": [0.2], "upper": [0.2]},
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solution"]["case_label"] == "Singleton"


def test_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().out == ""  # no partial output


def test_missing_file_exit_1(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 1


def test_inconsistent_dimensions_exit_1(tmp_path):
    payload = json.loads(json.dumps(REFERENCE))
    payload["ambiguity"]["b_hat"] = [0.4, 0.2, 0.1]
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg]) == 1


@pytest.mark.parametrize("key, value", [("b_hat", [0.4, float("nan")]), ("delta", float("nan"))])
def test_non_finite_ambiguity_exit_1(tmp_path, capsys, key, value):
    payload = json.loads(json.dumps(REFERENCE))
    payload["ambiguity"][key] = value
    cfg = write_config(tmp_path, payload)  # json writes the NaN literal, which json.load accepts
    assert main(["solve", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err


def test_no_minimum_exit_3(tmp_path):
    payload = json.loads(json.dumps(REFERENCE))
    payload["ambiguity"]["b_hat"] = [0.4, 0.4]
    payload["ambiguity"]["gamma"] = {"full_ambiguity": True}
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg]) == 3


def test_zero_drift_exit_3(tmp_path):
    payload = json.loads(json.dumps(REFERENCE))
    payload["ambiguity"]["b_hat"] = [0.0, 0.0]
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg]) == 3


@pytest.mark.parametrize(
    "argv", [["solve"], ["classify"], ["simulate", "--paths", "10", "--steps", "4", "--probes", "0"]]
)
def test_growth_overflow_exit_1(tmp_path, capsys, argv):
    # r* = 0.09 on the reference instance, so e^{r* T} overflows a float at T = 1e4.
    payload = json.loads(json.dumps(REFERENCE))
    payload["market"]["horizon_T"] = 1e4
    cfg = write_config(tmp_path, payload)
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: e^(r* T) exceeds the float range: r* T = 900\n"


@pytest.mark.parametrize(
    "argv", [["solve"], ["classify"], ["simulate", "--paths", "64", "--steps", "2", "--probes", "0"]]
)
def test_infinite_growth_exit_1(tmp_path, capsys, argv):
    # A drift near the float limit makes r* infinite; so does one whose top
    # Sharpe ratio squared passes the float range in the one-asset closed form
    # (a box or full ambiguity).  e^{r* T} = inf is an overflow too.
    cases = [
        ({}, {"b_hat": [1e308, 0.2]}),
        ({"sigmas": [1.0, 1.0, 1.0]},
         {"b_hat": [1e200, 0.2, 0.1], "gamma": {"lower": [-0.5] * 3, "upper": [0.5] * 3}}),
        ({}, {"b_hat": [1e200, 0.2], "gamma": {"full_ambiguity": True}}),
    ]
    for market, ambiguity in cases:
        payload = json.loads(json.dumps(REFERENCE))
        payload["market"].update(market)
        payload["ambiguity"].update(ambiguity)
        cfg = write_config(tmp_path, payload)
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: e^(r* T) exceeds the float range: r* T = inf\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("index", [0, 1])
def test_product_drift_bound_near_float_limit_exit_1(tmp_path, capsys, index):
    # ambiguity.delta_upper.0 or .1 at 1e308: R is not finite where the numeric descent starts.
    payload = json.loads(json.dumps(REFERENCE))
    payload["ambiguity"] = {"variant": "product", "delta_lower": [0.2, 0.1], "delta_upper": [0.4, 0.3],
                            "gamma": {"lower": [-0.3], "upper": [0.6]}}
    payload["ambiguity"]["delta_upper"][index] = 1e308
    cfg = write_config(tmp_path, payload)
    for command in ("solve", "classify"):
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the risk premium or its gradient is not finite at b = ")


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_simulate_nan_objective_exit_2(tmp_path, capsys):
    # A volatility near the float limit on the untraded asset: the Euler paths
    # stay finite (||L' alpha|| has alpha = 0 on that asset), but the exact J
    # forms u' Sigma u with inf * 0 = NaN, and a NaN J is no match.
    payload = json.loads(json.dumps(REFERENCE))
    payload["market"]["sigmas"] = [1e308, 1.0]
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--paths", "64", "--steps", "2", "--probes", "0"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert math.isfinite(report["objective"]["J"])
    assert math.isnan(report["exact_J_minus_V0"]) and "failure" in report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("probes", ["0", "8"])
def test_simulate_wealth_beyond_float_range_exit_1(tmp_path, capsys, probes):
    # x0 = 1e308 leaves every path finite, but their mean sums to inf: a
    # one-line error and no report, with or without probes, and no warning.
    payload = json.loads(json.dumps(REFERENCE))
    payload["market"]["x0"] = 1e308
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--paths", "64", "--steps", "2", "--probes", probes]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: terminal wealth's moments leave the float range: mean inf, variance inf\n"


_V0_OVERFLOW = "error: V0 = x0 + (e^(r* T) - 1) / (4 lam) exceeds the float range\n"
_XBAR_OVERFLOW = "error: the target wealth xbar = x0 + e^(r* T) / (2 lam) exceeds the float range\n"
_TINY_CASES = [
    pytest.param({"horizon_T": 5e-324}, "simulate",
                 "error: the horizon T = 5e-324 is too short to switch scenarios at T/2\n", id="horizon-simulate"),
    pytest.param({"lambda": 1e-308, "horizon_T": 100.0}, "simulate", _XBAR_OVERFLOW, id="lambda-1e-308-simulate"),
    *(pytest.param({"lambda": 5e-324}, command, message, id=f"lambda-{command}")
      for command, message in [("solve", _V0_OVERFLOW), ("classify", _V0_OVERFLOW), ("simulate", _XBAR_OVERFLOW)]),
    *(pytest.param({"sigmas": sigmas}, command, "error: a Sharpe ratio b_i / sigma_i exceeds the float range: "
                   f"{[b / sigma for b, sigma in zip([0.4, 0.2], sigmas)]}\n", id=f"sigma{i}-{command}")
      for i, sigmas in enumerate(([5e-324, 1.0], [1.0, 5e-324]))
      for command in ("solve", "classify", "simulate")),
]


@pytest.mark.parametrize("market, command, message", _TINY_CASES)
def test_tiny_magnitudes_exit_1(tmp_path, capsys, market, command, message):
    # A horizon that cannot be halved, a lam that puts V0 or xbar beyond the
    # float range, and a volatility that does so to a Sharpe ratio end in one
    # typed error line and exit 1, with no warning (the suite turns them into errors).
    payload = json.loads(json.dumps(REFERENCE))
    payload["market"].update(market)
    cfg = write_config(tmp_path, payload)
    flags = ["--paths", "64", "--steps", "2"] if command == "simulate" else []
    assert main([command, "--config", cfg, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_simulate_huge_step_count_fails_fast(tmp_path):
    # The Euler set-up maps steps to schedule pieces with one array, so
    # 10^11 steps fail on allocating it instead of spinning in a per-step
    # loop; the address space is capped so that the refusal does not depend
    # on the host's overcommit policy.
    cfg = write_config(tmp_path, REFERENCE)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(robustmv.__file__)), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-m", "robustmv.cli", "simulate", "--config", cfg, "--steps", "100000000000", "--paths", "64"],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert run.returncode == 1, run.stderr
    assert run.stdout == "" and run.stderr.startswith("error: out of memory: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--oracle-check", "--resolution", "14"],
        ["classify"],
        ["simulate", "--paths", "10", "--steps", "4", "--probes", "0"],
        ["oracle", "--resolution", "11"],
    ],
)
def test_config_read_once(tmp_path, capsys, monkeypatch, argv):
    calls = []
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: calls.append(path) or load(path))
    cfg = write_config(tmp_path, REFERENCE)
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 0
    assert calls == [cfg]


@pytest.mark.parametrize(
    "argv, callee",
    [
        (["simulate", "--paths", "1000000000", "--steps", "256", "--probes", "0"], "simulate_wealth"),
        (["oracle", "--resolution", "460"], "grid_oracle"),
    ],
)
def test_out_of_memory_exit_1(tmp_path, capsys, monkeypatch, argv, callee):
    # The callee raises as numpy does on an allocation it cannot make; nothing is allocated.
    def unallocatable(*args):
        raise MemoryError("Unable to allocate 1.87 TiB for an array with shape (257, 1000000000)")

    monkeypatch.setattr(cli, callee, unallocatable)
    cfg = write_config(tmp_path, REFERENCE)
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory: Unable to allocate 1.87 TiB for an array with shape (257, 1000000000)\n"
    )


def test_classify_narrative(tmp_path, capsys):
    payload = {
        "market": {"sigmas": [1.0, 1.0, 1.0], "horizon_T": 1.0, "lambda": 0.5, "x0": 1.0},
        "ambiguity": {
            "variant": "ellipsoidal",
            "b_hat": [0.5, 0.3, 0.2],
            "delta": 0.2,
            "gamma": {"full_ambiguity": True},
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["classify", "--config", cfg]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["class"] == "anti_diversification"
    assert "asset 1" in out.err


def test_classify_no_trade(tmp_path, capsys):
    payload = json.loads(json.dumps(REFERENCE))
    payload["ambiguity"]["delta"] = 0.9
    cfg = write_config(tmp_path, payload)
    assert main(["classify", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "no_trade"


def test_non_pd_box_exit_1(tmp_path, capsys):
    payload = {
        "market": {"sigmas": [1.0, 1.0, 1.0], "horizon_T": 1.0, "lambda": 0.5, "x0": 1.0},
        "ambiguity": {
            "variant": "ellipsoidal",
            "b_hat": [0.2, 0.5, 0.3],  # sorted frame differs from the input order
            "delta": 0.1,
            "gamma": {"lower": [0.85, 0.85, -0.9], "upper": [0.9, 0.9, -0.8]},
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: correlation box corner (0.85, 0.85, -0.9) is not positive definite\n"


def test_classify_well_diversified_three_asset(tmp_path, capsys):
    payload = {
        "market": {"sigmas": [1.0, 1.0, 1.0], "horizon_T": 1.0, "lambda": 0.5, "x0": 1.0},
        "ambiguity": {
            "variant": "ellipsoidal",
            "b_hat": [0.5, 0.3, 0.2],
            "delta": 0.1,
            "gamma": {"lower": [0.0, 0.0, 0.0], "upper": [0.1, 0.1, 0.1]},
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["classify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class"] == "well_diversified"
    assert report["signs"] == [1, 1, 1]


def test_simulate_small_run(tmp_path, capsys):
    cfg = write_config(tmp_path, REFERENCE)
    code = main(["simulate", "--config", cfg, "--paths", "4000", "--steps", "64", "--seed", "42"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["schedule_within_set"] and abs(report["gap_to_exact_J"]) <= report["allowance"]
    assert report["exact_J"] == pytest.approx(report["V0"], rel=1e-12)
    principle = report["weak_principle"]
    assert principle["ok"]
    assert len(principle["monotone"]) == 8
    upper = principle["objective_upper"]
    assert [c["name"] for c in upper] == [c["name"] for c in principle["monotone"]]
    assert all(c["ok"] and c["margin"] <= c["allowance"] for c in upper)
    simulator = principle["simulator"]
    assert [c["name"] for c in simulator] == [c["name"] for c in principle["terminal"]]
    assert all(c["ok"] and abs(c["margin"]) <= c["allowance"] for c in simulator)
    zero = upper[[c["name"] for c in upper].index("zero")]
    assert zero["margin"] == pytest.approx(REFERENCE["market"]["x0"] - report["V0"], rel=1e-12)


@pytest.mark.parametrize("b, within", [([0.45, 0.2], True), ([2.0, 0.2], False)], ids=["in-set", "out-of-set"])
def test_simulate_holds_estimate_to_exact_j_under_schedule(tmp_path, capsys, monkeypatch, b, within):
    # Under a schedule other than the worst case the estimate is compared
    # with the rule's exact J there, which exceeds V0 by far more than the
    # allowance; J >= V0 is checked only inside the set.  Default size.
    payload = json.loads(json.dumps(REFERENCE))
    payload["schedule"] = {"breakpoints": [0.0], "values": [{"b": b, "rho": [0.15]}]}
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--probes", "0"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["schedule_within_set"] is within and "failure" not in report
    assert abs(report["gap_to_exact_J"]) <= report["allowance"]
    assert report["exact_J_minus_V0"] > 5.0 * report["allowance"]
    assert ("leaves the ambiguity set" in captured.err) is not within
    # A V0 above the exact J fails inside the set only.
    value_v0 = cli.value_v0
    monkeypatch.setattr(cli, "value_v0", lambda sol, params: value_v0(sol, params) + 1.0)
    assert main(["simulate", "--config", cfg, "--probes", "0"]) == (2 if within else 0)
    report = json.loads(capsys.readouterr().out)
    assert ("below V0" in report.get("failure", "")) is within


def test_simulate_tiny_sample_allowed(tmp_path, capsys):
    cfg = write_config(tmp_path, REFERENCE)
    code = main(
        ["simulate", "--config", cfg, "--paths", "10", "--steps", "8", "--seed", "4",
         "--probes", "0"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["objective"]["std_error_J"] > 0.001  # wide error bar is fine
    assert "weak_principle" not in report


def test_simulate_csv_summary(tmp_path, capsys):
    payload = json.loads(json.dumps(REFERENCE))
    out = tmp_path / "summary.csv"
    payload["output"] = {"format": "csv", "path": str(out)}
    cfg = write_config(tmp_path, payload)
    code = main(
        ["simulate", "--config", cfg, "--paths", "500", "--steps", "16", "--seed", "3",
         "--probes", "0"]
    )
    capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 17
    assert rows[0]["t"] == "0.0" and float(rows[0]["var"]) == 0.0
    assert float(rows[-1]["se"]) > 0.0


def test_simulate_corrupt_schedule_exit_1(tmp_path):
    payload = json.loads(json.dumps(REFERENCE))
    payload["schedule"] = {"breakpoints": [0.0], "values": [{"b": [0.4]}]}
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--paths", "10", "--steps", "4", "--seed", "1"]) == 1


def test_simulate_nan_breakpoint_exit_1(tmp_path, capsys):
    payload = json.loads(json.dumps(REFERENCE))
    value = {"b": [0.4, 0.2], "rho": [0.5]}
    payload["schedule"] = {"breakpoints": [0.0, float("nan")], "values": [value, value]}
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--paths", "10", "--steps", "4", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "breakpoints must be finite" in err and "Traceback" not in err


SCHEDULE = {"breakpoints": [0.0], "values": [{"b": [0.4, 0.2], "rho": [0.5]}]}


@pytest.mark.parametrize(
    "path, value",
    [
        (("market", "horizon_T"), 10**400),
        (("market", "sigmas"), [10**400, 1]),
        (("ambiguity", "gamma", "lower"), [10**400]),
        (("ambiguity", "b_hat"), [[0.4, 0.2]]),
        (("schedule", "values", 0, "b"), [[0.4, 0.2]]),
        (("schedule", "values", 0), {"b": [0.4, 0.2, 0.1], "rho": [0.1, 0.1, 0.1]}),
        (("simulate", "n_paths"), 10**19),
        (("output", "path"), ["report.json"]),
    ],
    ids=["horizon-beyond-float", "sigma-beyond-float", "gamma-beyond-float", "nested-b-hat", "nested-schedule-b",
         "three-asset-schedule", "unallocatable-paths", "path-not-a-string"],
)
def test_out_of_range_and_non_vector_values_exit_1(tmp_path, capsys, path, value):
    # Integers beyond the float range, nested lists where a vector belongs, a
    # schedule of another dimension, a path buffer larger than the address
    # space and a report path that is not a string are config errors.
    base = {**REFERENCE, "schedule": SCHEDULE, "simulate": {"n_paths": 64, "n_steps": 2}, "output": {"format": "json"}}
    payload = replaced(base, path, value)
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--probes", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "Traceback" not in captured.err


def test_oracle_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, REFERENCE)
    assert main(["oracle", "--config", cfg, "--resolution", "501"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"]["case_label"] == "Oracle"
    assert abs(report["oracle"]["theta_star"]["rho"][0] - 0.5) < 2e-3


def test_sweep_csv(tmp_path, capsys):
    payload = json.loads(json.dumps(REFERENCE))
    payload["sweep"] = [
        {"ambiguity.delta": 0.0},
        {"ambiguity.delta": 0.2},
        {"ambiguity.delta": 0.5},
    ]
    out = tmp_path / "sweep.csv"
    payload["output"] = {"format": "csv", "path": str(out)}
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    r_stars = [float(r["r_star"]) for r in rows]
    assert r_stars[0] > r_stars[1] > r_stars[2]
    assert rows[2]["no_trade"] == "True"


STALLED = {
    "market": {"sigmas": STALLED_D4["sigmas"], "horizon_T": 1.0, "lambda": 0.5, "x0": 1.0},
    "ambiguity": {
        "variant": "ellipsoidal",
        "b_hat": STALLED_D4["b_hat"],
        "delta": 0.0,
        "gamma": {"lower": STALLED_D4["lower"], "upper": STALLED_D4["upper"]},
    },
}


def test_solve_non_pd_corner_box_exits_0(tmp_path, capsys):
    # A three-asset box with a non-PD corner but PD points is solved in closed form, not refused.
    payload = {
        "market": {"sigmas": NON_PD_CORNER_D3["sigmas"], "horizon_T": 1.0, "lambda": 0.5, "x0": 1.0},
        "ambiguity": {
            "variant": "ellipsoidal",
            "b_hat": NON_PD_CORNER_D3["b_hat"],
            "delta": 0.0,
            "gamma": {"lower": NON_PD_CORNER_D3["lower"], "upper": NON_PD_CORNER_D3["upper"]},
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg]) == 0
    out = capsys.readouterr()
    solution = json.loads(out.out)["solution"]
    assert solution["case_label"] == "ThreeAsset.Case5iv"
    assert solution["r_star"] == 1.7631990603598477
    assert "Traceback" not in out.err


def test_stalled_d4_classify_top_asset(tmp_path, capsys):
    # Only asset 4 is traded: the one-asset closed form, no numeric descent.
    cfg = write_config(tmp_path, STALLED)
    assert main(["classify", "--config", cfg]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["class"] == "anti_diversification"
    assert report["case_label"] == "TopAsset"
    assert report["signs"] == [0, 0, 0, -1]
    assert "invest only in asset 4" in out.err
    assert "converge" not in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("command", ["solve", "classify"])
def test_unconverged_fallback_exit_3(tmp_path, capsys, monkeypatch, command):
    # With the one-asset closed form off, the numeric fallback stalls on this
    # box; the answer is flagged, not passed.
    monkeypatch.setattr(solver, "_one_asset", lambda *args: None)
    cfg = write_config(tmp_path, STALLED)
    assert main([command, "--config", cfg]) == 3
    out = capsys.readouterr()
    report = json.loads(out.out)
    label = report["solution"]["case_label"] if command == "solve" else report["case_label"]
    assert label == "Numeric"
    assert "did not converge: 166 iterations, residual 0.213" in out.err
    assert "Traceback" not in out.err


def test_unconverged_fallback_sweep_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_one_asset", lambda *args: None)
    payload = json.loads(json.dumps(STALLED))
    payload["sweep"] = [{"ambiguity.delta": 0.0}, {"ambiguity.delta": 2.0}]
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg]) == 3
    out = capsys.readouterr()
    rows = list(csv.DictReader(out.out.splitlines()))
    assert [r["converged"] for r in rows] == ["False", "False"]
    assert out.err.count("did not converge") == 2


def test_sweep_converged_column(tmp_path, capsys):
    payload = json.loads(json.dumps(REFERENCE))
    payload["sweep"] = [{"ambiguity.delta": 0.0}, {"ambiguity.delta": 0.5}]
    cfg = write_config(tmp_path, payload)
    assert main(["classify", "--config", cfg]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["converged"] for r in rows] == ["True", "True"]


def replaced(payload, path, value):
    """A deep copy of payload with the node at path, a tuple of keys, set to value."""
    out = json.loads(json.dumps(payload))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize(
    "path, value, argv",
    [
        (("sweep",), [], ["solve"]),
        (("sweep",), [1, 2], ["solve"]),
        (("sweep",), "ab", ["solve"]),
        (("output",), [], ["solve"]),
        (("ambiguity",), [], ["solve"]),
        (("ambiguity", "gamma"), [1], ["solve"]),
        (("simulate",), 5, ["simulate", "--probes", "0"]),
    ],
)
def test_section_of_wrong_type_exit_1(tmp_path, capsys, path, value, argv):
    cfg = write_config(tmp_path, replaced(REFERENCE, path, value))
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve"], "robustmv solve: the following arguments are required: --config"),
        (["solve", "--config", "{cfg}", "--resolution", "abc"],
         "robustmv solve: argument --resolution: invalid int value: 'abc'"),
        (["nosuch"], "robustmv: argument command: invalid choice: 'nosuch'"),
        (["gradcheck", "--config", "{cfg}"], "robustmv: argument command: invalid choice: 'gradcheck'"),
    ],
    ids=["missing-config", "malformed-resolution", "unknown-command", "gradcheck"],
)
def test_usage_error_exit_1(tmp_path, capsys, argv, message):
    # A usage error is an input error: one line on stderr and exit 1, not argparse's exit 2.
    cfg = write_config(tmp_path, REFERENCE)
    assert main([arg.format(cfg=cfg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        main([flag])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: robustmv" if flag == "--help" else "robustmv ")


def test_oracle_check_on_sweep_exit_1(tmp_path, capsys):
    # The grid oracle runs on one instance; a sweep refuses the flag instead of dropping it.
    payload = dict(REFERENCE, sweep=[{"ambiguity.delta": 0.0}, {"ambiguity.delta": 0.2}])
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg, "--oracle-check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --oracle-check does not apply to a sweep config\n"


def test_readme_synopsis_lists_the_commands():
    # README's `robustmv <a|b|...>` synopsis names exactly the parser's subcommands.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = re.findall(r"^robustmv <([^>]*)>", readme, flags=re.MULTILINE)
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert synopsis == ["|".join(commands)]


@pytest.mark.parametrize(
    "argv", [["oracle", "--resolution", "-5"], ["oracle", "--resolution", "0"], ["simulate", "--probes", "-1"]]
)
def test_flag_out_of_range_exit_1(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, REFERENCE)
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "must be" in out.err and "Traceback" not in out.err


# The README instance with every section it documents, output.path left out
# so that no run writes a report file.
FUZZ_BASE = {
    **REFERENCE,
    "simulate": {"n_paths": 100000, "n_steps": 256, "seed": 42, "antithetic": False},
    "output": {"format": "json"},
}


def _fuzz_paths(node, prefix=()):
    """Key paths (tuples) of every section, sub-section, list and leaf of a config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = (*prefix, key)
        yield path
        if isinstance(value, (dict, list)):
            yield from _fuzz_paths(value, path)


FUZZ_VALUES = [None, [], {}, "x", 1, 1.5, True, math.nan, math.inf, 1e308, 5e-324, 10**400, [[1.0, 2.0]]]
FUZZ_COMMANDS = [["solve"], ["classify"], ["simulate", "--paths", "64", "--steps", "2", "--probes", "0"]]


# The overflows that a volatility (sigmas) near the float limit sets off on
# its way to a typed error or a NaN estimate; any other fails the run.
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    path=st.sampled_from(list(_fuzz_paths(FUZZ_BASE))),
    value=st.sampled_from(FUZZ_VALUES),
    command=st.sampled_from(FUZZ_COMMANDS),
)
def test_cli_fuzz_never_raises(tmp_path, monkeypatch, capsys, path, value, command):
    # Every input ends in a documented exit code, and a success reports finite numbers only.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, replaced(FUZZ_BASE, path, value))
    capsys.readouterr()
    code = main([command[0], "--config", cfg, *command[1:]])
    assert code in (0, 1, 2, 3)
    out = capsys.readouterr().out
    assert code != 0 or not ("NaN" in out or "Infinity" in out)
