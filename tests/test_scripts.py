"""The shell scripts under scripts/ run from a checkout, with no installed package.

``run_benchmarks.sh`` is not run here: its linearity gate times sizes up
to 2^16 and takes minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,artifacts", [
    ("run_verification.sh", ["verify_default.json", "verify_a4b2_n64.json",
                             "generators_a4b2_n64.json", "verify_against_file.json"]),
    ("run_demos.sh", ["demo_diffusion.csv", "demo_advection.csv"]),
])
def test_script_writes_its_artifacts(script, artifacts, tmp_path):
    # The scripts run python3; find this interpreter's first.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env.get("PATH", "")])
    proc = subprocess.run(["bash", str(SCRIPTS / script), str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in artifacts:
        assert (tmp_path / "out" / name).stat().st_size > 0
