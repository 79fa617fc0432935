"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about a minute: it runs the two cheapest workloads traced, twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


@pytest.mark.parametrize("name", ["ll-accuracy", "trace-sweep"])
def test_exact_counts_repeat_across_two_sets(name):
    workload = run.WORKLOADS[name]
    first = run.measure(workload, 1, 0, True, log=lambda line: None)
    second = run.measure(workload, 2, 0, True, log=lambda line: None)
    for result in (first, second):
        assert result["failed"] == 0, result["failures"]
        assert not result["missing_hooks"]
    assert first["digests"] == second["digests"]

    def counts(result):
        return {k: v for k, (v, unit) in result["layers"].items()
                if unit in run.EXACT_UNITS}

    assert counts(first) == counts(second)
    # the paper's cost claim: one HVP and one JVP per bagdc iteration
    assert counts(first)["step.bagdc.hvp_per_iter"] == 1.0
    assert counts(first)["step.bagdc.jvp_per_iter"] == 1.0


def test_benchmark_spec_matches_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_fails_without_the_program():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ll-accuracy",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
