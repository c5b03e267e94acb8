"""Record which ``ssjacobi verify`` checks FAIL on the verify workload's grid.

    PYTHONPATH=src python3 perfbench/make_verify_baseline.py

Writes known_verify_failures.json: for every (alpha, beta, N) of the
grid, the names of the checks that print FAIL.  The verify workload
counts these as findings and any other FAIL as a failure; rerun this
script only when a change to ssjacobi is meant to change the set.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from ssjacobi import cli

import workloads


def main() -> None:
    failures = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = str(Path(tmp) / "report.json")
        for alpha in workloads.VERIFY_GRID:
            for beta in workloads.VERIFY_GRID:
                for n in workloads.CONFIGS["verify"]["full"]["ns"]:
                    argv = ["verify", "--alpha", repr(alpha), "--beta", repr(beta),
                            "--n", str(n), "--out", report]
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main(argv)
                    with open(report) as fh:
                        checks = json.load(fh)["checks"]
                    failed = sorted(name for name, c in checks.items() if not c["pass"])
                    if failed:
                        failures[workloads.verify_key(alpha, beta, n)] = failed
    payload = {
        "grid": {"alpha_beta": workloads.VERIFY_GRID,
                 "n": workloads.CONFIGS["verify"]["full"]["ns"]},
        "failures": failures,
    }
    with open(workloads.BASELINE_FILE, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
