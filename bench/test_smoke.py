"""Smoke test of the benchmark at the tiny size, so that it cannot rot.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload untraced and traced for one round, and checks the
result line against BENCHMARK.json. About a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(run_py, workload, trace, cwd):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    done = _run(HERE / "run.py", workload, trace, HERE.parent)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr[-3000:]
    assert 0 <= result["failed"] < result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    done = _run(tmp_path / "bench" / "run.py", "study", 0, tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
