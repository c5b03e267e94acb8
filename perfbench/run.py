"""The ssjacobi benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Runs one workload (march, transform, small_many or verify; see
workloads.py and README.md) in fresh processes, checks every output and
prints each metric with its unit and sample count.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full result, with provenance,
goes to ``perfbench/out/``.

``--trace 0``: SETUP_PROBES fresh processes (one with ``--tiny``) only
time the set-up, then one process runs the workload for S seconds.  ``--trace 1``: one
untraced and one traced process each run TRACE_JOBS jobs, so the counts
repeat exactly; the ratio of their wall times gives the tracing
overhead.  ``--tiny`` shrinks every size, for the smoke tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import metric_names  # noqa: E402

WORKLOADS = ("march", "transform", "small_many", "verify")
SETUP_PROBES = 4
TRACE_JOBS = 2
DEADLINE_S = 170.0
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("problem_s_p50", "s"),
    ("peak_rss_mb", "MB"),
)


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", "tiny" if args.tiny else "full", *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("out of time before starting a workload process")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"workload process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; used only with at least 10 samples beyond it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def timing_metrics(name: str, samples: list[float], unit_scale: float, unit: str) -> dict:
    """p50, and p90 when at least ten samples lie beyond it."""
    out = {}
    if samples:
        out[f"{name}_p50"] = (statistics.median(samples) * unit_scale, unit, len(samples))
    if len(samples) >= 100:
        out[f"{name}_p90"] = (quantile(samples, 0.9) * unit_scale, unit, len(samples))
    return out


def wall_s(setup_s: float, child: dict) -> float:
    """Set-up plus the median time of one job."""
    return setup_s + statistics.median(child["job_s"])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    probes = [run_child(args, ["--setup-only"], deadline)["setup_s"]
              for _ in range(1 if args.tiny else SETUP_PROBES)]
    main = run_child(args, ["--seconds", str(args.seconds)], deadline)
    setups = probes + [main["setup_s"]]
    setup_s = statistics.median(setups)
    metrics = {
        "wall_s": (wall_s(setup_s, main), "s", len(main["job_s"])),
        "setup_s": (setup_s, "s", len(setups)),
        **timing_metrics("problem_s", main["problem_s"], 1.0, "s"),
        **timing_metrics("diffusion_step_ms", main["steps"]["diffusion_step"], 1e3, "ms"),
        **timing_metrics("advection_step_ms", main["steps"]["advection_step"], 1e3, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", 1),
        "fail_frac": (main["with_findings"] / main["attempted"], "ratio", main["attempted"]),
    }
    return metrics, {"main": main, "setup_samples": setups}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    jobs = ["--jobs", str(TRACE_JOBS)]
    plain = run_child(args, jobs, deadline)
    traced = run_child(args, jobs + ["--trace"], deadline)
    overhead = wall_s(traced["setup_s"], traced) / wall_s(plain["setup_s"], plain) - 1.0
    units = dict(metric_names())
    metrics = {name: (value, units[name], traced["attempted"])
               for name, value in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (overhead, "ratio", 2)
    return metrics, {"main": traced, "untraced": plain}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ssjacobi" / "__init__.py").is_file():
        print(f"no ssjacobi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, raw = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    main = raw["main"]
    attempted = main["attempted"] + raw.get("untraced", {}).get("attempted", 0)
    failed = main["failed"] + raw.get("untraced", {}).get("failed", 0)
    wanted = [name for name, _ in (metric_names() if args.trace else END_TO_END)]
    absent = [name for name in wanted if name not in metrics]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} problems, {failed} failed")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit} (n={samples})")
    for name in absent:
        print(f"  {name:44s} absent")
    for line in main["failures"][:20]:
        print(f"  FAILED {line}")
    if main["findings"]:
        print(f"  {len(main['findings'])} known verify FAIL lines, first: {main['findings'][:3]}")

    OUT_DIR.mkdir(exist_ok=True)
    result_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_file, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "args": vars(args),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u, "samples": n}
                        for name, (v, u, n) in metrics.items()},
            "absent_metrics": absent,
            "raw": raw,
        }, fh, indent=1)
    print(f"  wrote {result_file.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
