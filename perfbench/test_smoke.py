"""Smoke test of the benchmark itself, at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py

Every workload in BENCHMARK.json must run, pass its correctness gate and
print every declared metric with its declared unit, traced and untraced;
the gate must count a witness with one qubit flipped, or a decode estimate
with the wrong syndrome, as a failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
from qdist import codes, pauli  # noqa: E402


def bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_with_its_unit(workload, trace, section):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("failed_frac 0.0 ") for line in lines)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_flipped_witness_counts_as_failed():
    wl = harness.WORKLOADS["surface7_depol"]
    code = codes.make(wl.family, wl.params)
    calls = harness.run_sweeps(wl, code, seed=3, count=1)
    assert run.print_sweeps(harness, wl, code, calls, "sweep") == 0
    w = calls[0].report.witness
    ex = w.ex.copy()
    ex[np.flatnonzero(w.ex | w.ez)[0]] ^= 1
    calls[0].report.witness = pauli.SymplecticPauli.from_arrays(ex, w.ez)
    assert run.print_sweeps(harness, wl, code, calls, "sweep") == 1


def test_wrong_decode_estimate_counts_as_failed():
    wl = harness.WORKLOADS["decode_one"]
    code = codes.make(wl.family, wl.params)
    result = harness.run_decodes(wl, code, seed=3, count=4)
    assert result.failures(code) == 0
    est = result.estimates[0]
    ex = est.ex.copy()
    ex[0] ^= 1
    result.estimates[0] = pauli.SymplecticPauli.from_arrays(ex, est.ez)
    assert result.failures(code) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "surface7_depol", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
