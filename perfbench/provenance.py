"""What a result file records about the code, the inputs and the machine."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

import ssjacobi

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def input_digest(shared: dict, problems: list[dict]) -> str:
    """sha256 of the shared inputs and the first job's problem inputs."""
    digest = hashlib.sha256()
    for item in [shared, *problems]:
        for key in sorted(item):
            value = item[key]
            digest.update(key.encode())
            if isinstance(value, np.ndarray):
                digest.update(value.tobytes())
            else:
                digest.update(repr(value).encode())
    return digest.hexdigest()


def _loaded_openblas() -> list[dict]:
    """Config string and thread count of every OpenBLAS in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        entry = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def collect(root: Path) -> dict:
    blas = {
        name: module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        for name, module in (("numpy", np), ("scipy", scipy))
    }
    return {
        "versions": {
            "ssjacobi": ssjacobi.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "blas": {
            name: {"name": info.get("name"), "version": info.get("version")}
            for name, info in blas.items()
        },
        "blas_loaded": _loaded_openblas(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "argv": sys.argv,
    }
