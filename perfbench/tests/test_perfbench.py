"""Smoke tests of the benchmark: every workload at tiny size, the output
checks on corrupted outputs, and tracing of renamed functions."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def steps_dict():
    return {"diffusion_step": [], "advection_step": []}


@pytest.mark.parametrize("cls", [workloads.March, workloads.SmallMany])
def test_corrupted_stepper_output_fails_the_checks(cls):
    wl = cls(5, "tiny")
    wl.setup()
    inp = wl.inputs(0)
    out = wl.solve(inp, steps_dict())
    assert wl.check(inp, out) == ([], [])

    states = out if cls is workloads.March else out[1]
    k = wl.cfg["k"]
    states[1] = states[0] * 1.01           # a diffusion output that grew
    states[-1] = states[-1] * (1 + 1e-6)   # a Cayley output off by 1e-6
    failures, _ = wl.check(inp, out)
    assert any(msg.startswith("diffusion step 0 grew") for msg in failures)
    assert any(msg.startswith("diffusion step 0 residual") for msg in failures)
    assert any(msg.startswith(f"Cayley step {k - 1} residual") for msg in failures)
    assert any(msg.startswith("Cayley norm drift") for msg in failures)


def test_corrupted_transform_output_fails_the_checks():
    wl = workloads.Transform(5, "tiny")
    wl.setup()
    inp = wl.inputs(0)
    out = wl.solve(inp, steps_dict())
    assert wl.check(inp, out) == ([], [])
    n = wl.cfg["ns"][0]
    vals, dvals = out[n]
    out[n] = (vals + 1e-3, dvals)
    failures, _ = wl.check(inp, out)
    assert len(failures) == 1 and failures[0].startswith(f"N={n}: max |u - f|")


def test_verify_fail_outside_the_baseline_is_a_failure():
    wl = workloads.Verify(5, "tiny")
    inp = {"alpha": 2.0, "beta": 2.0, "n": 32, "seed": 0}
    assert workloads.verify_key(2.0, 2.0, 32) not in wl.baseline
    code, text = wl.solve(inp, steps_dict())
    assert wl.check(inp, (code, text)) == ([], [])
    failures, _ = wl.check(inp, (code, text.replace("PASS parity", "FAIL parity")))
    assert failures and "differ from the report" in failures[0]


def test_missing_trace_target_is_reported_absent(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")
    mod.work = lambda x: x + 1
    user.work = mod.work                   # bound by ``from .mod import work``
    for name, module in (("fakepkg", pkg), ("fakepkg.mod", mod), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(tracing, "TARGETS", (
        ("mod.work", "mod", "work", None, ("calls", "self_s")),
        ("mod.renamed", "mod", "renamed_away", None, ("self_s",)),
        ("gone.work", "gone", "work", None, ("calls",)),
    ))
    tracer = tracing.Tracer()
    tracer.install("fakepkg")
    assert tracer.absent == ["mod.renamed", "gone.work"]
    assert mod.work(1) == 2 and user.work(2) == 3
    metrics = tracer.metrics()
    assert set(metrics) == {"mod.work.calls", "mod.work.self_s"}
    assert metrics["mod.work.calls"] == 2
