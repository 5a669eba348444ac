"""Smoke test of the benchmark: each workload at minimal size, both modes.

Asserts that every metric BENCHMARK.json names is emitted with its unit and
that every output check passes.  Timings are not checked.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", list(run.OWN_NAMES))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    result = run.run_workload(workload, seed=1, seconds=0, trace=bool(trace), scale=0.01)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_layer_metric_list_matches_spec():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.layer_metrics()
