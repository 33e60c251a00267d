"""Tests of the benchmark harness itself: run with ``python3 -m pytest -q bench``."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from framesim import compile_circuit  # noqa: E402
from run import END_TO_END  # noqa: E402
from traced import PER_LAYER, STRUCTURAL, staged_compile  # noqa: E402
from workloads import WORKLOADS, corrupt, make_workload  # noqa: E402


def _checked(name: str, corrupted: bool):
    wl = make_workload(name, 1, 0)
    prog = compile_circuit(wl.text)
    if corrupted:
        prog = corrupt(prog)
    _, out = wl.sample(prog, 7)
    wl.tally(prog, out)
    return wl.check(np.random.default_rng(7), corrupted)


@pytest.mark.parametrize("name", WORKLOADS)
def test_check_passes_on_sound_program(name):
    checks = _checked(name, corrupted=False)
    assert checks.total > 0 and checks.wrong == 0, checks.failures


@pytest.mark.parametrize("name", WORKLOADS)
def test_negative_control_fails_check(name):
    checks = _checked(name, corrupted=True)
    assert checks.wrong > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_staged_pipeline_matches_compile_circuit(name):
    wl = make_workload(name, 1, 0)
    prog, seconds, counts = staged_compile(wl.text)
    assert prog.fingerprint() == compile_circuit(wl.text).fingerprint()
    assert set(STRUCTURAL) == set(counts)
    assert staged_compile(wl.text)[2] == counts


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert spec["command"] == ["python3", "bench/run.py"]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_contract(trace):
    proc = _run(["--workload", "mirror", "--seed", "3", "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == list(PER_LAYER if trace == "1" else END_TO_END)


def test_corrupt_run_reports_wrong():
    proc = _run(["--workload", "mirror", "--seconds", "1", "--corrupt"])
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert "wrong_frac" in proc.stdout


def test_refuses_more_workers_than_cpus():
    proc = _run(["--workload", "rep_d25", "--workers", str((os.cpu_count() or 1) + 1)])
    assert proc.returncode == 2
    assert "nproc" in proc.stderr


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "mirror", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
