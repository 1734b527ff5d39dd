"""Self-checks of the benchmark.

    python3 -m pytest perfbench/test_counts.py

The count test runs every workload traced, twice, each in a fresh
interpreter (enum-m3 alone takes about half a minute), and requires the
exact counts to repeat.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from run import ROOT, WORKLOADS, scaled_task_s, spawn
from tracer import COUNTS, SHOULD_MOVE


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [spawn(workload, 11, True, time.monotonic() + 170) for _ in range(2)]
    assert [it["problems"] for it in runs] == [[], []]
    first, second = ({name: it["layers"][name] for name in COUNTS} for it in runs)
    assert first == second
    assert any(first.values())


def test_benchmark_json_names_exist():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in benchmark["per_layer"]} <= set(SHOULD_MOVE)
    assert {w["name"] for w in benchmark["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sss-m2", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_parts_are_scaled_by_the_reference_around_them():
    iteration = {
        "parts": [
            # reference twice its nominal time around the part: 4 s counts as 2 s
            {"name": "a", "s": 4.0, "nominal": 0.01, "edges": [0.015, 0.025]},
            # reference at half its nominal time: 1 s counts as 2 s
            {"name": "b", "s": 1.0, "nominal": 0.02, "edges": [0.01, 0.01]},
        ],
    }
    assert scaled_task_s(iteration) == pytest.approx(4.0)
