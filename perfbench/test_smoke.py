"""Smoke test of the benchmark at its smallest size.

Run from the root of a checkout with ``python -m pytest perfbench``; the
repository's own test suite (``tests/``) does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALLEST = ["--workload", "toy-at", "--seed", "0", "--seconds", "1"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smallest_run_reports_every_metric(trace, section):
    proc = _run(ROOT, *SMALLEST, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 4  # two ops of train + eval
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    env = json.loads(proc.stdout.splitlines()[-2])["env"]
    assert env["nproc"] >= 1 and env["dtype"] == "float64"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, *SMALLEST, "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
