"""Tiny traced runs of the four benchmark workloads.

``perfbench/`` drives the library through public names: it reads
``jacobidiff.build(...).pair``, calls ``semisep.skew_expand`` and
``cli.main``, and traces the library functions behind its per-layer
metrics.  A rename of any of them breaks the benchmark; these runs make it
fail here instead.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["failed"] == 0
    assert [line for line in lines if line.split()[-1:] == ["absent"]] == []
