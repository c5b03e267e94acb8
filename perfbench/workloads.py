"""The four benchmark workloads: seeded inputs, the timed calls into
ssjacobi, and the output checks.

Every workload is a stream of problems.  Problem ``i`` draws its inputs
from ``SeedSequence([seed, workload index, i])``, so a seed fixes the
whole stream.  Problems are grouped into jobs of a fixed size and
composition; a run executes whole jobs in a closed loop (one process,
one thread, the next problem starts when the previous one ends).

Each workload class has the same four methods:

* ``setup()``   builds the operators that all problems share (timed as
                part of ``setup_s``);
* ``inputs(i)`` generates problem ``i`` (outside the timed region);
* ``solve(inp, steps)`` is the timed region: it calls ssjacobi and
                appends the duration of every stepper call to ``steps``;
* ``check(inp, out)`` checks the outputs (outside the timed region) and
                returns ``(failures, findings)``: failures make the
                problem count as failed; findings are defects the program
                itself reports (verify FAIL lines of the recorded
                baseline) and only count towards ``fail_frac``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from ssjacobi import cli, jacobidiff, semisep, spectral
from ssjacobi.specfun import JacobiParams

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

# Output-check tolerances, stated once.
DIFFUSION_GROWTH_TOL = 1e-12   # ||u_{k+1}|| <= ||u_k|| (1 + tol)
CAYLEY_DRIFT_TOL = 1e-10       # | ||v_K|| - ||v_0|| | <= tol ||v_0||
# Residual of a step relative to the norms of its terms.  The diffusion
# residual needs D (D u) through two matvecs; at N = 16384, where
# ||D|| is about 1.6e7, their own rounding reaches about 1e-6 of the terms.
DIFFUSION_RESIDUAL_TOL = 1e-4
CAYLEY_RESIDUAL_TOL = 1e-10
TRANSFORM_F_TOL = 1e-10        # max |u(x) - f(x)|  <= tol max(1, max |f|)
TRANSFORM_DF_TOL = 1e-8        # max |u'(x) - f'(x)| <= tol max(1, max |f'|)

# Sizes of each workload: the full run and a tiny smoke-test run.
# ``job`` is the number of problems per job.
CONFIGS = {
    "march": {
        "full": {"n": 16384, "k": 4, "dt": 1e-3, "job": 8},
        "tiny": {"n": 512, "k": 2, "dt": 1e-3, "job": 2},
    },
    "transform": {
        "full": {"ns": (256, 1024), "points": 1001, "job": 2},
        "tiny": {"ns": (32, 64), "points": 101, "job": 1},
    },
    "small_many": {
        "full": {"n": 64, "k": 10, "dt": 1e-2, "points": 1001, "job": 50},
        "tiny": {"n": 16, "k": 2, "dt": 1e-2, "points": 101, "job": 3},
    },
    "verify": {
        "full": {"ns": (32, 64, 128), "job": 30},
        "tiny": {"ns": (32, 64, 128), "job": 3},
    },
}

NAMES = tuple(CONFIGS)


def problem_rng(seed: int, workload: str, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(workload), i])


def decaying_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian coefficients under an exponential envelope of seeded length."""
    length = n * rng.uniform(1 / 32, 1 / 4)
    return rng.standard_normal(n) * np.exp(-np.arange(n) / length)


def smooth_terms(rng: np.random.Generator) -> dict:
    """Coefficients of g(x) = sum_k c_k cos(w_k x + p_k), four terms."""
    return {
        "coef": rng.uniform(-1.0, 1.0, 4),
        "omega": rng.uniform(0.5, 3.0, 4),
        "phase": rng.uniform(0.0, 2 * math.pi, 4),
    }


def smooth_function(params: JacobiParams, terms: dict):
    """Test function f = s(x) (1 - x^2) g(x) and its derivative.

    s is the square root of the Jacobi weight, so f / s is smooth and
    its expansion converges spectrally.  Both functions are numpy code and
    accept scalars (expand samples f one node at a time) and arrays.
    """
    ha, hb = params.alpha / 2.0, params.beta / 2.0
    coef, omega, phase = terms["coef"], terms["omega"], terms["phase"]

    def g(x):
        return np.sum(coef * np.cos(np.multiply.outer(x, omega) + phase), axis=-1)

    def dg(x):
        return -np.sum(coef * omega * np.sin(np.multiply.outer(x, omega) + phase), axis=-1)

    def s(x):
        return (1.0 - x) ** ha * (1.0 + x) ** hb

    def f(x):
        return s(x) * (1.0 - x * x) * g(x)

    def df(x):
        gx = g(x)
        return s(x) * (
            gx * (hb * (1.0 - x) - ha * (1.0 + x) - 2.0 * x) + (1.0 - x * x) * dg(x)
        )

    return f, df


def check_steps(op, states: list, cayley_from: int, dt: float) -> list[str]:
    """Invariants and O(N) residuals of a diffusion-then-Cayley sequence.

    ``states`` holds u_0 .. u_K from the diffusion steps followed by the
    Cayley states; ``cayley_from`` is the index of the first Cayley input.
    The residual of (I - dt D^2) u+ = u, and of
    (I - dt/2 D) u+ = (I + dt/2 D) u, is computed through the public
    O(N) matvec and divided by the sum of the norms of its terms.
    """
    failures = []
    norms = [float(np.linalg.norm(u)) for u in states]
    for k in range(cayley_from):
        u, up = states[k], states[k + 1]
        if norms[k + 1] > norms[k] * (1.0 + DIFFUSION_GROWTH_TOL):
            failures.append(f"diffusion step {k} grew the norm: {norms[k]!r} -> {norms[k + 1]!r}")
        ddu = op.matvec(op.matvec(up))
        resid = np.linalg.norm(up - dt * ddu - u)
        scale = norms[k] + norms[k + 1] + dt * np.linalg.norm(ddu)
        if not resid <= DIFFUSION_RESIDUAL_TOL * scale:
            failures.append(f"diffusion step {k} residual {resid / scale:.3e}")
    for k in range(cayley_from, len(states) - 1):
        u, up = states[k], states[k + 1]
        du, dup = op.matvec(u), op.matvec(up)
        resid = np.linalg.norm(up - 0.5 * dt * dup - u - 0.5 * dt * du)
        scale = norms[k] + norms[k + 1] + 0.5 * dt * (np.linalg.norm(du) + np.linalg.norm(dup))
        if not resid <= CAYLEY_RESIDUAL_TOL * scale:
            failures.append(f"Cayley step {k - cayley_from} residual {resid / scale:.3e}")
    drift = abs(norms[-1] - norms[cayley_from])
    if not drift <= CAYLEY_DRIFT_TOL * norms[cayley_from]:
        failures.append(f"Cayley norm drift {drift / norms[cayley_from]:.3e}")
    return failures


def march_steps(build, u, k: int, dt: float, steps: dict) -> list:
    """K diffusion steps then K Cayley steps; returns all coefficient states."""
    states = [u.coeffs]
    for name, step in (
        ("diffusion_step", spectral.step_diffusion),
        ("advection_step", spectral.step_advection_cayley),
    ):
        for _ in range(k):
            t0 = time.perf_counter()
            u = step(build, u, dt)
            steps[name].append(time.perf_counter() - t0)
            states.append(u.coeffs)
    return states


class March:
    """One operator at N = 16384, many initial vectors marched in time."""

    name = "march"
    lazy_setup = {
        "before_timing": ["import ssjacobi", "one generator build at N = 16384"],
        "in_timed_run": [
            "every banded reduction and band solve of every step "
            "(the steppers redo them for the unchanged operator)"
        ],
    }

    def __init__(self, seed: int, size: str):
        self.cfg = CONFIGS[self.name][size]
        rng = np.random.default_rng([seed, NAMES.index(self.name)])
        self.seed = seed
        self.params = JacobiParams(*(float(v) for v in rng.uniform(1.0, 6.0, 2)))
        self.build = None
        self.op = None

    def shared_inputs(self) -> dict:
        return {"alpha": self.params.alpha, "beta": self.params.beta, **self.cfg}

    def setup(self):
        self.build = jacobidiff.build(self.params, self.cfg["n"], "generators")

    def inputs(self, i: int) -> dict:
        rng = problem_rng(self.seed, self.name, i)
        return {"u0": decaying_vector(rng, self.cfg["n"])}

    def solve(self, inp: dict, steps: dict):
        u = spectral.CoeffVector(params=self.params, coeffs=inp["u0"])
        return march_steps(self.build, u, self.cfg["k"], self.cfg["dt"], steps)

    def check(self, inp: dict, states: list):
        if self.op is None:
            self.op = semisep.skew_expand(self.build.pair)
        return check_steps(self.op, states, self.cfg["k"], self.cfg["dt"]), []


class Transform:
    """expand -> differentiate -> reconstruct, at N = 256 and N = 1024.

    One problem transforms one seeded function at both sizes, so every
    problem has the same cost and the median is well defined.
    """

    name = "transform"
    lazy_setup = {
        "before_timing": ["import ssjacobi", "one generator build per N"],
        "in_timed_run": [
            "the Gauss-Jacobi rule of every expand (recomputed for the "
            "same (alpha, beta, Q) on every problem)"
        ],
    }

    def __init__(self, seed: int, size: str):
        self.cfg = CONFIGS[self.name][size]
        rng = np.random.default_rng([seed, NAMES.index(self.name)])
        self.seed = seed
        self.params = JacobiParams(*(float(v) for v in rng.uniform(1.0, 6.0, 2)))
        self.x = np.linspace(-1.0, 1.0, self.cfg["points"])
        self.builds = {}

    def shared_inputs(self) -> dict:
        return {"alpha": self.params.alpha, "beta": self.params.beta, **self.cfg}

    def setup(self):
        for n in self.cfg["ns"]:
            self.builds[n] = jacobidiff.build(self.params, n, "generators")

    def inputs(self, i: int) -> dict:
        return smooth_terms(problem_rng(self.seed, self.name, i))

    def solve(self, inp: dict, steps: dict):
        f, _ = smooth_function(self.params, inp)
        out = {}
        for n in self.cfg["ns"]:
            u = spectral.expand(self.params, f, n)
            du = spectral.differentiate(self.builds[n], u)
            out[n] = (spectral.reconstruct(u, self.x), spectral.reconstruct(du, self.x))
        return out

    def check(self, inp: dict, out: dict):
        f, df = smooth_function(self.params, inp)
        fx, dfx = f(self.x), df(self.x)
        failures = []
        for n, (vals, dvals) in out.items():
            err = float(np.abs(vals - fx).max())
            derr = float(np.abs(dvals - dfx).max())
            if not err <= TRANSFORM_F_TOL * max(1.0, float(np.abs(fx).max())):
                failures.append(f"N={n}: max |u - f| = {err:.3e}")
            if not derr <= TRANSFORM_DF_TOL * max(1.0, float(np.abs(dfx).max())):
                failures.append(f"N={n}: max |u' - f'| = {derr:.3e}")
        return failures, []


class SmallMany:
    """Many independent small problems, each with a fresh (alpha, beta)."""

    name = "small_many"
    lazy_setup = {
        "before_timing": ["import ssjacobi"],
        "in_timed_run": [
            "the generator build, Gauss-Jacobi rule and sign calibration of "
            "every fresh (alpha, beta); users pay them on every problem"
        ],
    }

    def __init__(self, seed: int, size: str):
        self.cfg = CONFIGS[self.name][size]
        self.seed = seed
        self.x = np.linspace(-1.0, 1.0, self.cfg["points"])

    def shared_inputs(self) -> dict:
        return dict(self.cfg)

    def setup(self):
        pass

    def inputs(self, i: int) -> dict:
        rng = problem_rng(self.seed, self.name, i)
        alpha, beta = (float(v) for v in rng.uniform(0.5, 8.0, 2))
        return {"alpha": alpha, "beta": beta, **smooth_terms(rng)}

    def solve(self, inp: dict, steps: dict):
        params = JacobiParams(inp["alpha"], inp["beta"])
        f, _ = smooth_function(params, inp)
        build = jacobidiff.build(params, self.cfg["n"], "generators")
        u = spectral.expand(params, f, self.cfg["n"])
        states = march_steps(build, u, self.cfg["k"], self.cfg["dt"], steps)
        last = spectral.CoeffVector(params=params, coeffs=states[-1])
        return build, states, spectral.reconstruct(last, self.x)

    def check(self, inp: dict, out):
        build, states, vals = out
        op = semisep.skew_expand(build.pair)
        failures = check_steps(op, states, self.cfg["k"], self.cfg["dt"])
        if not np.all(np.isfinite(vals)):
            failures.append("reconstructed values are not finite")
        return failures, []


VERIFY_GRID = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0)
BASELINE_FILE = HERE / "known_verify_failures.json"


def verify_key(alpha: float, beta: float, n: int) -> str:
    return f"{alpha:g},{beta:g},{n}"


class Verify:
    """In-process ``ssjacobi verify`` over a seeded walk of a fixed grid.

    The (alpha, beta) grid is VERIFY_GRID squared, visited in a seeded
    order; each point is verified at every N in turn, so every job of
    3m problems has the same mix of sizes.  The seed's FAIL lines on this
    grid are recorded in known_verify_failures.json: they are findings
    (counted in fail_frac), while a FAIL outside that baseline, a crash or
    an inconsistent report is a failure.
    """

    name = "verify"
    lazy_setup = {
        "before_timing": ["import ssjacobi"],
        "in_timed_run": [
            "all four route builds, the quadrature oracle and the report "
            "file write of every call"
        ],
    }

    def __init__(self, seed: int, size: str):
        self.cfg = CONFIGS[self.name][size]
        self.seed = seed
        rng = np.random.default_rng([seed, NAMES.index(self.name)])
        grid = [(a, b) for a in VERIFY_GRID for b in VERIFY_GRID]
        self.order = [grid[j] for j in rng.permutation(len(grid))]
        OUT_DIR.mkdir(exist_ok=True)
        self.report_path = OUT_DIR / f"verify-report-{os.getpid()}.json"
        with open(BASELINE_FILE) as fh:
            self.baseline = json.load(fh)["failures"]

    def shared_inputs(self) -> dict:
        return {"order": self.order, **self.cfg}

    def setup(self):
        pass

    def inputs(self, i: int) -> dict:
        ns = self.cfg["ns"]
        alpha, beta = self.order[(i // len(ns)) % len(self.order)]
        return {"alpha": alpha, "beta": beta, "n": ns[i % len(ns)], "seed": self.seed * 1000 + i}

    def solve(self, inp: dict, steps: dict):
        argv = [
            "verify",
            "--alpha", repr(inp["alpha"]),
            "--beta", repr(inp["beta"]),
            "--n", str(inp["n"]),
            "--seed", str(inp["seed"]),
            "--out", str(self.report_path),
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, inp: dict, out):
        code, text = out
        with open(self.report_path) as fh:
            report = json.load(fh)
        printed = {}
        for line in text.splitlines():
            status, _, rest = line.partition(" ")
            if status in ("PASS", "FAIL"):
                printed[rest.split(":")[0]] = status == "PASS"
        reported = {name: c["pass"] for name, c in report["checks"].items()}
        failures = []
        if printed != reported:
            failures.append(f"printed checks {printed} differ from the report {reported}")
        if code != (0 if all(reported.values()) else 1):
            failures.append(f"exit code {code} does not match the report")
        key = verify_key(inp["alpha"], inp["beta"], inp["n"])
        known = set(self.baseline.get(key, []))
        fails = sorted(name for name, ok in reported.items() if not ok)
        failures += [f"{key}: {name} FAIL is not in the baseline" for name in fails if name not in known]
        findings = [f"{key}: {name}" for name in fails if name in known]
        return failures, findings


WORKLOADS = {cls.name: cls for cls in (March, Transform, SmallMany, Verify)}
