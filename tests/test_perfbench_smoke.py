"""Tiny traced runs of the four benchmark workloads.

``perfbench/`` drives the library through public names: it reads
``jacobidiff.build(...).pair``, calls ``semisep.skew_expand`` and
``cli.main``, and traces the library functions behind its per-layer
metrics, ``semisep.scale`` among them.  Its ``reduce_to_banded`` hook
reads the shift as ``args[1]``, so the library must call
``reduce_to_banded(g, shift)`` with both arguments positional.  A rename
of any of them breaks the benchmark; these runs make it fail here instead.  So does a ``verify`` FAIL that the verify workload's
baseline does not list, which that workload counts as a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ssjacobi import cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
BASELINE = json.loads((ROOT / "perfbench" / "known_verify_failures.json").read_text())


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


def test_verify_fails_only_where_the_baseline_lists(tmp_path):
    """The verify workload counts a FAIL that its baseline does not list
    under the point's key as a failed operation; this checks every point
    of the baseline's grid at the default seed, as the baseline was made."""
    report = tmp_path / "report.json"
    grid = BASELINE["grid"]
    unlisted = []
    for alpha in grid["alpha_beta"]:
        for beta in grid["alpha_beta"]:
            for n in grid["n"]:
                cli.main(["verify", "--alpha", repr(alpha), "--beta", repr(beta),
                          "--n", str(n), "--out", str(report)])
                key = f"{alpha:g},{beta:g},{n}"
                listed = BASELINE["failures"].get(key, [])
                checks = json.loads(report.read_text())["checks"]
                unlisted += [f"{key} {name}" for name, c in checks.items()
                             if not c["pass"] and name not in listed]
    assert unlisted == []
