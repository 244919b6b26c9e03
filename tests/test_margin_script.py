"""Smoke test of ``scripts/criterion3_margin.py`` on its tiny configuration."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "criterion3_margin.py"


def load_script():
    spec = importlib.util.spec_from_file_location("criterion3_margin", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_ulp_moves_every_weight_by_one_ulp():
    margin = load_script()
    from ptrparse.dep import DepModel, build_dep_vocabs

    items, config = margin.criterion3(tiny=True)
    model = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(config.seed))
    before = model.snapshot()
    margin.one_ulp(3)(model)
    for name, p in model.parameters():
        ulps = np.abs(p.data - before[name]) / np.spacing(np.abs(before[name]))
        assert np.all((ulps >= 0.5) & (ulps <= 1.0)), name


def test_tiny_margin_run_prints_each_run_and_a_summary():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--tiny", "--runs", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [["seed", "1"], ["seed", "2"]]
    assert all(" epoch 2 " in line for line in lines[:2])
    assert lines[2].startswith("reached ") and lines[2].endswith("/2")
