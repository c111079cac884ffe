"""The benchmark's result line: strict JSON with every end-to-end metric present and finite."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _result_line(trace, workload="ambiguity-sweep"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    return result


def _metric_names(kind):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("workload", ["ambiguity-sweep", "principle-check"])
def test_benchmark_result_line_is_strict_json(workload):
    # Python's json writes a nan or inf metric as a bare NaN or Infinity,
    # which strict JSON parsers refuse; one round must print none.  The
    # round's own checks must accept every answer: on principle-check they
    # include verify_weak_principle's report on both instances.
    names = _metric_names("end_to_end")
    assert len(names) == 8
    result = _result_line("0", workload)
    for name in names:
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name


def test_traced_result_line_is_strict_json():
    # A per-layer metric whose traced function is never called reads NaN, so
    # this also fails when a change stops calling a traced function.
    names = _metric_names("per_layer")
    result = _result_line("1")
    for name in names:
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
