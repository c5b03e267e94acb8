"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in captured output on
failure) before asserting.
"""

import json
import time

import mpmath
import numpy as np
import pytest

from ssjacobi import cli, jacobidiff, semisep, spectral
from ssjacobi.specfun import (
    JacobiParams,
    connection_check,
    gauss_jacobi_rule,
    jacobi_eval,
    jacobi_reflection_check,
    jacobi_table,
)

PARAM_GRID = [
    (0.5, 0.5),
    (1.0, 1.0),
    (2.0, 2.0),
    (4.0, 2.0),
    (2.0, 4.0),
    (1.0, 3.0),
]
SIZES = (4, 16, 64)
SOURCES = ("closed_form", "recurrence", "quadrature_oracle", "generators")


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{number:2d}] {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def all_route_matrices():
    out = {}
    for alpha, beta in PARAM_GRID:
        params = JacobiParams(alpha, beta)
        for n in SIZES:
            out[(alpha, beta, n)] = {
                s: jacobidiff.build(params, n, s).dense() for s in SOURCES
            }
    return out


@pytest.fixture(scope="module")
def route_matrices():
    start = time.perf_counter()
    mats = all_route_matrices()
    return mats, time.perf_counter() - start


def test_criterion_01_four_route_agreement(route_matrices):
    mats, elapsed = route_matrices
    worst = 0.0
    for table in mats.values():
        for i, s1 in enumerate(SOURCES):
            for s2 in SOURCES[i + 1:]:
                worst = max(worst, float(np.abs(table[s1] - table[s2]).max()))
    passed = worst <= 1e-11 and elapsed < 10.0
    report(1, "four-route agreement", passed,
           f"max pairwise error {worst:.3e}, build time {elapsed:.2f}s")


def test_criterion_02_skew_symmetry(route_matrices):
    mats, _ = route_matrices
    exact_defect = 0.0
    quad_defect = 0.0
    for table in mats.values():
        for s in ("generators", "recurrence"):
            exact_defect = max(exact_defect, float(np.abs(table[s] + table[s].T).max()))
        quad = table["quadrature_oracle"]
        quad_defect = max(quad_defect, float(np.abs(quad + quad.T).max()))
    passed = exact_defect == 0.0 and quad_defect <= 1e-12
    report(2, "skew-symmetry", passed,
           f"exact-route defect {exact_defect:.1e}, quadrature defect {quad_defect:.3e}")


def test_criterion_03_parity():
    worst = 0.0
    m, n = np.indices((64, 64))
    even = (m + n) % 2 == 0
    for a in (0.5, 1.0, 2.0, 4.0):
        params = JacobiParams(a, a)
        for source in SOURCES:
            dense = jacobidiff.build(params, 64, source).dense()
            worst = max(worst, float(np.abs(dense[even]).max()))
    passed = worst <= 1e-12
    report(3, "symmetric-parameter parity", passed, f"max even-index entry {worst:.3e}")


def test_criterion_04_rank_two_structure():
    params = JacobiParams(4.0, 2.0)
    dense = jacobidiff.build(params, 64, "generators").dense()
    worst = 0.0
    for i in range(1, 64):
        for j in range(i, 64):
            sub = dense[:i, j:]
            if min(sub.shape) >= 3:
                sv = np.linalg.svd(sub, compute_uv=False)
                if sv[0] > 0:
                    worst = max(worst, float(sv[2] / sv[0]))
    pair = jacobidiff.generators(params, 64)
    block_ok = True
    for block in (pair.a.T, pair.b.T):
        sv = np.linalg.svd(block, compute_uv=False)
        block_ok = block_ok and sv[1] > 1e-10 * sv[0]
    passed = worst <= 1e-10 and block_ok
    report(4, "rank-2 semi-separable structure", passed,
           f"worst 3rd/1st singular value ratio {worst:.3e}, "
           f"generator blocks full rank: {block_ok}")


def test_criterion_05_product_rank_additivity():
    worst = 0.0
    worst_sv = 0.0
    for alpha, beta in PARAM_GRID:
        params = JacobiParams(alpha, beta)
        for n in (16, 64):
            g = jacobidiff.generators(params, n)
            square = semisep.product(g, g)
            dense = g.to_dense().astype(np.longdouble)
            ref = dense @ dense
            worst = max(worst, float(np.abs(square.to_dense() - ref).max()))
            sq64 = np.asarray(square.to_dense(), dtype=float)
            rng = np.random.default_rng(0)
            for _ in range(10):
                i = int(rng.integers(1, n - 1))
                j = int(rng.integers(i, n))
                sub = sq64[:i, j:]
                if min(sub.shape) >= 5:
                    sv = np.linalg.svd(sub, compute_uv=False)
                    if sv[0] > 0:
                        worst_sv = max(worst_sv, float(sv[4] / sv[0]))
    passed = worst <= 1e-11 and worst_sv <= 1e-10
    report(5, "product rank additivity", passed,
           f"max dense error {worst:.3e}, worst 5th/1st singular ratio {worst_sv:.3e}")


def test_criterion_06_sign_definiteness():
    worst_sq = -np.inf
    worst_quartic = np.inf
    for alpha, beta in [(2.0, 2.0), (4.0, 2.0)]:
        dense = jacobidiff.build(JacobiParams(alpha, beta), 64, "generators").dense()
        norm2 = float(np.linalg.norm(dense, 2))
        square = dense @ dense
        eigs = np.linalg.eigvalsh((square + square.T) / 2)
        worst_sq = max(worst_sq, float(eigs.max() / norm2**2))
        quartic = square @ square
        eigs4 = np.linalg.eigvalsh((quartic + quartic.T) / 2)
        worst_quartic = min(worst_quartic, float(eigs4.min() / norm2**4))
    passed = worst_sq <= 1e-10 and worst_quartic >= -1e-10
    report(6, "sign definiteness of even powers", passed,
           f"max normalized eig of square {worst_sq:.3e}, "
           f"min normalized eig of fourth power {worst_quartic:.3e}")


def test_criterion_07_rank1_products(tmp_path):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))

        def draw():
            return semisep.SemiSepGenerators(
                n=n,
                a=rng.standard_normal((1, n)),
                b=rng.standard_normal((1, n)),
                c=rng.standard_normal(n),
                d=rng.standard_normal((1, n)),
                e=rng.standard_normal((1, n)),
            )

        ga, gb = draw(), draw()
        dp = ga.to_dense() @ gb.to_dense()
        got = np.asarray(semisep.product(ga, gb).to_dense(), dtype=float)
        worst = max(worst, float(np.abs(got - dp).max() / max(np.abs(dp).max(), 1e-30)))
    out = tmp_path / "report.json"
    cli.main(["verify", "--out", str(out)])
    note = json.loads(out.read_text())["notes"].get("product_tail", "")
    passed = worst <= 1e-12 and bool(note)
    report(7, "rank-1 product equivalence", passed,
           f"worst relative error {worst:.3e} over 200 draws, "
           f"tail resolution recorded: {bool(note)}")


def test_criterion_08_boundedness_sums():
    worst_detail = []
    ok = True
    for a in (0.5, 1.0, 2.0, 4.0):
        for b in (0.5, 1.0, 2.0, 4.0):
            try:
                sums = jacobidiff.boundedness_sums(JacobiParams(a, b))
                finite = all(np.isfinite(sums))
            except jacobidiff.InternalConsistencyError:
                finite = False
            ok = ok and finite
            if not finite:
                worst_detail.append(f"({a},{b})")
    # The dual-route 1e-8 agreement is enforced inside boundedness_sums;
    # a disagreement raises instead of returning.
    report(8, "boundedness sums dual-route agreement", ok,
           "all 16 parameter pairs finite and consistent"
           if ok else f"failed at {worst_detail}")


def test_criterion_09_linear_scaling(tmp_path):
    attempts = []
    passed = False
    for attempt in range(3):
        start = time.perf_counter()
        config = cli.RunConfig(
            command="bench",
            out=str(tmp_path / f"bench_{attempt}.csv"),
            assert_linear=True,
        )
        code = cli.cmd_bench(config)
        elapsed = time.perf_counter() - start
        attempts.append(f"attempt {attempt + 1}: exit {code}, {elapsed:.1f}s")
        if code == 0 and elapsed < 60.0:
            passed = True
            break
    report(9, "linear runtime scaling", passed, "; ".join(attempts))


def test_criterion_10_stepper_invariants():
    params = JacobiParams(2.0, 2.0)
    bg = jacobidiff.build(params, 64, "generators")
    bd = jacobidiff.build(params, 64, "closed_form")

    monotone = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = spectral.CoeffVector(params=params, coeffs=rng.standard_normal(64))
        prev = u.norm()
        for _ in range(1000):
            u = spectral.step_diffusion(bg, u, 1e-2)
            cur = u.norm()
            monotone = monotone and cur <= prev * (1.0 + 1e-14)
            prev = cur

    rng = np.random.default_rng(123)
    u = spectral.CoeffVector(params=params, coeffs=rng.standard_normal(64))
    start_norm = u.norm()
    for _ in range(1000):
        u = spectral.step_advection_cayley(bg, u, 1e-2)
    drift = abs(u.norm() - start_norm)

    u_s = spectral.CoeffVector(params=params, coeffs=rng.standard_normal(64))
    u_d = spectral.CoeffVector(params=params, coeffs=u_s.coeffs.copy())
    agree = 0.0
    for _ in range(50):
        u_s = spectral.step_diffusion(bg, u_s, 1e-2)
        u_d = spectral.step_diffusion(bd, u_d, 1e-2)
        agree = max(agree, float(np.abs(u_s.coeffs - u_d.coeffs).max()))
    v_s = spectral.CoeffVector(params=params, coeffs=u_s.coeffs.copy())
    v_d = spectral.CoeffVector(params=params, coeffs=u_s.coeffs.copy())
    for _ in range(50):
        v_s = spectral.step_advection_cayley(bg, v_s, 1e-2)
        v_d = spectral.step_advection_cayley(bd, v_d, 1e-2)
        agree = max(agree, float(np.abs(v_s.coeffs - v_d.coeffs).max()))

    passed = monotone and drift <= 1e-10 and agree <= 1e-9
    report(10, "stepper invariants", passed,
           f"diffusion monotone: {monotone}, advection drift {drift:.3e}, "
           f"structured-dense gap {agree:.3e}")


def test_criterion_11_special_function_layer():
    params = JacobiParams(2.0, 2.0)
    n_size = 20
    rule = gauss_jacobi_rule(params.alpha, params.beta, n_size + 1)
    nodes = np.asarray(rule.nodes, dtype=float)
    weights = np.asarray(rule.weights, dtype=float)
    kvec = jacobidiff.kappa_vector(params, n_size)
    table = kvec[:, None] * jacobi_table(params.alpha, params.beta, n_size, nodes)
    gram = (table * weights) @ table.T
    gram_err = float(np.abs(gram - np.eye(n_size + 1)).max())

    x = np.linspace(-1, 1, 101)
    conn_err = 0.0
    for a in (0.5, 1.0, 2.0, 4.0):
        for b in (0.5, 1.0, 2.0, 4.0):
            for n in range(0, 21, 4):
                r1, r2 = connection_check(a, b, n, x)
                conn_err = max(conn_err, float(np.abs(np.asarray(r1)).max()),
                               float(np.abs(np.asarray(r2)).max()))

    refl_err = 0.0
    for a, b in [(0.5, 1.5), (2.0, 2.0), (4.0, 2.0)]:
        for n in range(0, 21, 4):
            lhs, rhs = jacobi_reflection_check(a, b, n, x)
            scale = max(float(np.abs(np.asarray(lhs)).max()), 1.0)
            refl_err = max(
                refl_err,
                float(np.abs(np.asarray(lhs) - np.asarray(rhs)).max()) / scale,
            )

    mpmath.mp.dps = 40
    exact_err = 0.0
    for a, b, q in [(0.0, 0.0, 5), (2.0, 2.0, 4), (0.5, 1.5, 6)]:
        r = gauss_jacobi_rule(a, b, q)
        rn = np.asarray(r.nodes, dtype=float)
        rw = np.asarray(r.weights, dtype=float)
        mass = float(rw.sum())
        for k in range(2 * q):
            got = float(rw @ rn**k)
            ref = float(mpmath.quad(
                lambda t: t**k * (1 - t) ** a * (1 + t) ** b, [-1, 1]))
            # Moments of a symmetric weight vanish at odd k; scale errors
            # by the total mass so those do not divide by roundoff.
            exact_err = max(exact_err, abs(got - ref) / max(abs(ref), mass))

    passed = (gram_err <= 1e-11 and conn_err <= 1e-12
              and refl_err <= 1e-12 and exact_err <= 1e-12)
    report(11, "special-function layer", passed,
           f"gram {gram_err:.3e}, connection {conn_err:.3e}, "
           f"reflection {refl_err:.3e}, quadrature exactness {exact_err:.3e}")
