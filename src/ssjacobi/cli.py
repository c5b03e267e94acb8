"""Command-line front end: matrix generation, cross-validation,
benchmarking and the PDE demos.

Exit codes: 0 success, 1 verification or numerical failure, 2 usage/config
error or arguments outside the library's domain.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import jacobidiff, semisep, spectral
from .specfun import DomainError, JacobiParams

__all__ = ["RunConfig", "cmd_gen", "cmd_verify", "cmd_bench", "cmd_demo", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

# The rank-1 product check of verify: its number of random pairs, and the
# most dense entries per matrix in one stack of pairs.
PRODUCT_CHECK_PAIRS = 20
PRODUCT_CHECK_ENTRIES = 2**14


@dataclass(frozen=True)
class RunConfig:
    """Validated options of one CLI invocation."""

    command: str
    alpha: float = 2.0
    beta: float = 2.0
    n: int = 32
    source: str = "generators"
    fmt: str = "csv"
    out: str | None = None
    dt: float = 1e-2
    steps: int = 100
    seed: int = 0
    assert_linear: bool = False
    problem: str | None = None
    against: str | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.dt <= 0:
            raise DomainError(f"dt must be > 0, got {self.dt!r}")
        if self.steps < 0:
            raise DomainError(f"steps must be >= 0, got {self.steps}")
        JacobiParams(self.alpha, self.beta)  # raises DomainError unless alpha, beta > 0

    @property
    def jacobi(self) -> JacobiParams:
        return JacobiParams(self.alpha, self.beta)


def cmd_gen(config: RunConfig) -> int:
    """Write the matrix (CSV) or generator pair (JSON); print skew defect."""
    build = jacobidiff.build(config.jacobi, config.n, config.source)
    dense = build.dense()
    defect = float(np.abs(dense + dense.T).max())
    out = config.out or f"dmatrix_n{config.n}.{config.fmt}"
    if config.fmt == "json":
        if build.pair is None:
            print(
                "json output stores the generator form; use --source generators",
                file=sys.stderr,
            )
            return EXIT_USAGE
        text = semisep.to_json(build.pair)
        with open(out, "w") as fh:
            fh.write(text)
    else:
        jacobidiff.write_dense_csv(build, out)
    print(f"wrote {out}")
    print(f"skew defect: {defect:.3e}")
    return EXIT_OK


def _check(report: dict, name: str, max_error: float, tolerance: float) -> None:
    report["checks"][name] = {
        "max_error": float(max_error),
        "tolerance": float(tolerance),
        "pass": bool(max_error <= tolerance),
    }


def cmd_verify(config: RunConfig) -> int:
    """Cross-validation suite; writes a versioned JSON report."""
    params, n = config.jacobi, config.n
    report: dict = {
        "schema_version": 1,
        "alpha": params.alpha,
        "beta": params.beta,
        "n": n,
        "checks": {},
        "notes": {
            "product_tail": (
                "rank-1 product tail sums use the displayed generator "
                "formulas; validated against dense products"
            ),
        },
    }
    rng = np.random.default_rng(config.seed)
    sources = jacobidiff.SOURCES
    builds = {s: jacobidiff.build(params, n, s) for s in sources}
    mats = {s: b.dense() for s, b in builds.items()}

    route_err = max(
        float(np.abs(mats[s1] - mats[s2]).max())
        for i, s1 in enumerate(sources)
        for s2 in sources[i + 1 :]
    )
    _check(report, "route_agreement", route_err, 1e-11)

    skew_exact = max(
        float(np.abs(mats[s] + mats[s].T).max()) for s in ("recurrence", "generators")
    )
    _check(report, "skew_symmetry_exact", skew_exact, 0.0)
    skew_quad = float(
        np.abs(mats["quadrature_oracle"] + mats["quadrature_oracle"].T).max()
    )
    _check(report, "skew_symmetry_quadrature", skew_quad, 1e-12)

    if params.alpha == params.beta:
        mask = (np.add.outer(np.arange(n), np.arange(n)) % 2) == 0
        _check(report, "parity", float(np.abs(mats["recurrence"][mask]).max()), 1e-12)

    dmat = mats["generators"]
    dmat2 = dmat @ dmat
    g = builds["generators"].pair
    # sigma_3 / sigma_1 of random blocks above the diagonal with both sides
    # >= 3, which needs n >= 7; without one such block the check is left out.
    measured = []
    if n >= 3:  # the draws pick 1 <= i <= n - 2 < j
        for _ in range(20):
            i = int(rng.integers(1, n - 1))
            j = int(rng.integers(i + 1, n))
            sub = dmat[:i, j:]
            if min(sub.shape) >= 3:
                sv = np.linalg.svd(sub, compute_uv=False)
                measured.append(float(sv[2] / sv[0]) if sv[0] > 0 else 0.0)
    if measured:
        _check(report, "rank2_structure", max(measured), 1e-10)
    else:
        report["notes"]["rank2_structure"] = (
            f"left out: no drawn block above the diagonal has both sides >= 3 at n = {n}"
        )

    g2 = semisep.product(g, g)
    _check(
        report,
        "product_rank_additivity",
        float(np.abs(g2.to_dense() - dmat2).max()),
        1e-11 * max(1.0, float(np.abs(dmat2).max())),
    )

    eigs = np.linalg.eigvalsh((dmat2 + dmat2.T) / 2.0)
    # D is skew, so D^2 = -D^T D: its lowest eigenvalue is -||D||_2^2.
    _check(report, "square_negative_semidefinite", float(eigs.max()), 1e-10 * abs(eigs.min()))

    _check(report, "rank1_product_dense_agreement", _rank1_product_error(n, rng), 1e-12)

    try:
        sums = jacobidiff.boundedness_sums(params)
        bound_err = 0.0 if all(np.isfinite(sums)) else float("inf")
    except Exception:
        bound_err = float("inf")
    _check(report, "boundedness_sums_dual_route", bound_err, 1e-8)

    if config.against is not None:
        try:
            with open(config.against) as fh:
                loaded = semisep.from_json(fh.read())
            if loaded.n != n:
                against_err = float("inf")
            else:
                against_err = float(np.abs(loaded.to_dense() - dmat).max())
        except Exception:
            against_err = float("inf")
        _check(report, "against_file_agreement", against_err, 1e-11)

    all_pass = all(c["pass"] for c in report["checks"].values())
    out = config.out or "verify_report.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    for name, c in report["checks"].items():
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {name}: max_error={c['max_error']:.3e} tol={c['tolerance']:.3e}")
    print(f"wrote {out}")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def _rank1_product_error(n: int, rng) -> float:
    """Largest relative error of ``semisep.product`` against the dense
    product, over PRODUCT_CHECK_PAIRS random rank-1 pairs.

    The pairs are drawn as ``_random_generators(n, 1, rng)`` draws them,
    first factor then second, and are multiplied in stacks of at most
    PRODUCT_CHECK_ENTRIES dense entries per matrix (at least one pair)
    through the block-level product and dense expansion.
    """
    per_chunk = max(1, PRODUCT_CHECK_ENTRIES // (n * n))
    errs = []
    for start in range(0, PRODUCT_CHECK_PAIRS, per_chunk):
        k = min(per_chunk, PRODUCT_CHECK_PAIRS - start)
        # Per pair: a, b, c, d, e of the first factor, then of the second.
        draws = rng.standard_normal((k, 2, 5, n))
        A, B = ((f[:, 0:1], f[:, 1:2], f[:, 2], f[:, 3:4], f[:, 4:5]) for f in draws.swapaxes(0, 1))
        dp = semisep.dense_blocks(A) @ semisep.dense_blocks(B)
        err = np.abs(semisep.dense_blocks(semisep.product_blocks(A, B)) - dp).max(axis=(-2, -1))
        errs.append(err / np.maximum(np.abs(dp).max(axis=(-2, -1)), 1e-30))
    return float(np.concatenate(errs).max())


def _random_generators(n: int, rank: int, rng) -> semisep.SemiSepGenerators:
    return semisep.SemiSepGenerators(
        n=n,
        a=rng.standard_normal((rank, n)),
        b=rng.standard_normal((rank, n)),
        c=rng.standard_normal(n),
        d=rng.standard_normal((rank, n)),
        e=rng.standard_normal((rank, n)),
    )


def _median_ns(fn, reps: int, batch: int = 1) -> float:
    """Median time of one call over ``reps`` samples of ``batch`` calls each."""
    fn()  # warm caches and allocator before timing
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter_ns() - t0) / batch)
    return float(np.median(times))


def cmd_bench(config: RunConfig) -> int:
    """Time matvec, the structured solve and the factored solve across sizes.

    ``solve_factored`` times one ``ShiftedSolver.solve`` with the factor
    built outside the timed call: the path a stepper takes on every step
    after its first.  A factored solve is 6 to 8 times faster than a
    structured one at these sizes, so each of its samples times a batch of
    32 calls and lasts about 4 to 5 times as long as a structured-solve
    sample.  The random generators make gbtrf interchange rows on almost
    every column, so ``solve_factored`` times the gbtrs path of
    ``BandedMatrix.solve``.
    """
    rng = np.random.default_rng(config.seed)
    sizes = [2**k for k in range(12, 17)]
    rows = []
    medians: dict[str, list[float]] = {"matvec": [], "solve_structured": [], "solve_factored": []}
    for n in sizes:
        g = _random_generators(n, 2, rng)
        v = rng.standard_normal(n)
        shift = 10.0 * (np.abs(g.c).max() + 4.0 * np.abs(g.a).max() * np.abs(g.b).max() * n)
        dense = g.to_dense() if n <= semisep.DENSE_CAP else None
        solver = semisep.ShiftedSolver(g, shift)
        for op, fn, batch, dense_fn in (
            ("matvec", lambda: g.matvec(v), 1, None if dense is None else (lambda: dense @ v)),
            (
                "solve_structured",
                lambda: semisep.solve_structured(g, shift, v),
                1,
                None
                if dense is None
                else (lambda: np.linalg.solve(shift * np.eye(n) + dense, v)),
            ),
            ("solve_factored", lambda: solver.solve(v), 32, None),
        ):
            med = _median_ns(fn, 10, batch)
            prev = medians[op][-1] if medians[op] else None
            medians[op].append(med)
            ratio = "" if prev is None else f"{med / prev:.17g}"
            dense_med = "" if dense_fn is None else f"{_median_ns(dense_fn, 3):.17g}"
            rows.append((op, n, f"{med:.17g}", ratio, dense_med))
    out = config.out or "bench.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["op", "n", "median_ns", "ratio_vs_prev", "dense_median_ns"])
        writer.writerows(rows)
    print(f"wrote {out}")
    ok = True
    if config.assert_linear:
        # Linearity is judged on the largest three sizes; the smaller ones
        # are recorded but dominated by fixed overhead and cache effects.
        start = sizes.index(2**14)
        for op, meds in medians.items():
            ratios = [
                meds[i + 1] / meds[i] for i in range(start, len(meds) - 1)
            ]
            in_range = all(1.5 <= r <= 3.0 for r in ratios)
            print(f"{op} doubling ratios (n >= {sizes[start]}): "
                  f"{['%.2f' % r for r in ratios]} "
                  f"{'OK' if in_range else 'OUT OF RANGE'}")
            ok = ok and in_range
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_demo(config: RunConfig) -> int:
    """Run a stepper from the unit coordinate e0; write the norm series."""
    if config.problem not in ("diffusion", "advection"):
        print("demo problem must be 'diffusion' or 'advection'", file=sys.stderr)
        return EXIT_USAGE
    params = config.jacobi
    build = jacobidiff.build(params, config.n, config.source)
    coeffs = np.zeros(config.n)
    coeffs[0] = 1.0
    u = spectral.CoeffVector(params=params, coeffs=coeffs)
    step = (
        spectral.step_diffusion
        if config.problem == "diffusion"
        else spectral.step_advection_cayley
    )
    rows = [(0, 0.0, u.norm())]
    norms = [u.norm()]
    for k in range(1, config.steps + 1):
        u = step(build, u, config.dt)
        rows.append((k, k * config.dt, u.norm()))
        norms.append(u.norm())
    out = config.out or f"demo_{config.problem}.csv"
    spectral.write_norm_series_csv(out, rows)
    print(f"wrote {out}")
    print(f"final norm: {norms[-1]:.17g}")
    if config.problem == "diffusion":
        mono = all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))
        print(f"norm nonincreasing: {'yes' if mono else 'NO'}")
        return EXIT_OK if mono else EXIT_VERIFY_FAIL
    drift = abs(norms[-1] - norms[0])
    print(f"norm drift: {drift:.3e}")
    conserved = drift <= 1e-10
    print(f"norm conserved: {'yes' if conserved else 'NO'}")
    return EXIT_OK if conserved else EXIT_VERIFY_FAIL


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs about a millisecond,
    which in-process callers of ``main`` would pay on every call."""
    parser = argparse.ArgumentParser(
        prog="ssjacobi",
        description="Structured differentiation matrices for weighted Jacobi bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An option left out stays out of the namespace, so every default is RunConfig's.
    add_command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--n", type=int)

    def add_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--source", choices=jacobidiff.SOURCES)

    pg = add_command("gen", help="write a matrix or generator artifact")
    add_params(pg)
    add_source(pg)
    pg.add_argument("--format", dest="fmt", choices=("csv", "json"))
    pv = add_command("verify", help="run the cross-validation suite")
    add_params(pv)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--against", help="generator JSON file to check")
    pb = add_command("bench", help="time matvec, structured and factored solves")
    pb.add_argument("--seed", type=int)
    pb.add_argument("--assert-linear", action="store_true")
    pd = add_command("demo", help="run a model time-stepper")
    pd.add_argument("problem", choices=("diffusion", "advection"))
    add_params(pd)
    add_source(pd)
    pd.add_argument("--dt", type=float)
    pd.add_argument("--steps", type=int)
    for p in (pg, pv, pb, pd):
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already.
        return int(exc.code or 0)
    try:
        config = RunConfig(**vars(args))
    except (DomainError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handler = {
        "gen": cmd_gen,
        "verify": cmd_verify,
        "bench": cmd_bench,
        "demo": cmd_demo,
    }[config.command]
    try:
        return handler(config)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except ValueError as exc:  # DomainError and the other argument checks
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # singular, inconsistent or non-finite results
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
