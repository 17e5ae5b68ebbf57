"""Tiny-size runs of every workload, so the harness cannot rot.

Each test runs the real command (``perfbench/run.py``) against the real
server and pipeline, with a 4-drive pool of 6 s drives.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "2",
        "--trace", trace, "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # A drive whose upload the sharded ring shed from is sent again
    # (README.md, Steadiness), so no frame is lost for good.
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        # Probes that stopped loading (in the server or its shard
        # workers), or spans that no longer join, read 0 here.
        for name in sorted(layers.REQUIRED[workload] - layers.MAY_BE_ZERO):
            assert result["metrics"][name]["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        tmp_path, "--workload", "gateway-live", "--seed", "0", "--seconds", "2", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
