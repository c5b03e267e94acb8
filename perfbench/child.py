"""One workload in one fresh process.

    python3 perfbench/child.py --workload NAME --seed N --size full|tiny
        (--seconds S | --jobs J | --setup-only) [--trace]

Times ``import ssjacobi`` plus the shared set-up, then runs whole jobs
of the workload's problem stream until S seconds of measuring are used
(at least three jobs), or exactly J jobs.  Prints one JSON line with the
raw samples; run.py turns them into metrics.  The parent sets PYTHONPATH
to the checkout's ``src`` and pins the BLAS thread count.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_JOBS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--jobs", type=int)
    mode.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    t0 = time.perf_counter()
    import ssjacobi
    t1 = time.perf_counter()
    if not Path(ssjacobi.__file__).resolve().is_relative_to(root / "src"):
        print(f"ssjacobi was imported from {ssjacobi.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    import provenance
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    wl.setup()
    setup_s = (t1 - t0) + (time.perf_counter() - t2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workloads.OUT_DIR.mkdir(exist_ok=True)
    job = wl.cfg["job"]
    steps = {"diffusion_step": [], "advection_step": []}
    problem_s, job_s, failures, findings = [], [], [], []
    failed_problems = finding_problems = 0
    i = 0
    start = time.perf_counter()
    while True:
        if args.jobs is not None:
            if len(job_s) == args.jobs:
                break
        elif len(job_s) >= MIN_JOBS and (
            time.perf_counter() - start + statistics.median(job_s) > args.seconds
        ):
            break
        total = 0.0
        for _ in range(job):
            inp = wl.inputs(i)
            if tracer:
                tracer.problem = i
            t = time.perf_counter()
            try:
                out = wl.solve(inp, steps)
                error = None
            except Exception as exc:  # a failing problem is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t
            total += elapsed
            if tracer:
                tracer.paused = True
            if error is None:
                try:
                    bad, found = wl.check(inp, out)
                except Exception as exc:
                    bad, found = [f"check raised {type(exc).__name__}: {exc}"], []
                problem_s.append(elapsed)
            else:
                bad, found = [error], []
            if tracer:
                tracer.paused = False
            failed_problems += bool(bad)
            finding_problems += bool(bad or found)
            failures += [f"problem {i}: {msg}" for msg in bad]
            findings += found
            i += 1
        job_s.append(total)

    digest = provenance.input_digest(wl.shared_inputs(), [wl.inputs(k) for k in range(job)])
    result = {
        "setup_s": setup_s,
        "problem_s": problem_s,
        "job_s": job_s,
        "steps": steps,
        "attempted": i,
        "failed": failed_problems,
        "with_findings": finding_problems,
        "failures": failures,
        "findings": findings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "input_digest": digest,
        "lazy_setup": wl.lazy_setup,
        "job_size": job,
        "provenance": provenance.collect(root),
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        spans = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        result["spans_file"] = str(spans.relative_to(root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
