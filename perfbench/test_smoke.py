"""Smoke test of the benchmark on tiny configs.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py

Each workload runs one pass over its keys, untraced and traced, and must
emit exactly the metrics ``BENCHMARK.json`` names, with equal digests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import layer_metric_names
from workloads import END_TO_END, TINY, WORKLOADS, run_workload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [tuple(m.values()) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [tuple(m.values()) for m in SPEC["per_layer"]] == layer_metric_names()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric(name, tmp_path):
    plain = run_workload(name, 3, 0.0, 0, tmp_path, sizes=TINY)
    traced = run_workload(name, 3, 0.0, 1, tmp_path, sizes=TINY)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value in plain["metrics"].values())
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert traced["metrics"]["decoder.steps"] > 0
    assert traced["metrics"]["encoder.calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dep-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
