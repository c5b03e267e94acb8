"""Unit tests for the special-function layer."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ssjacobi import specfun
from ssjacobi.jacobidiff import kappa_vector
from ssjacobi.specfun import (
    ConvergenceError,
    DomainError,
    JacobiParams,
    UnsupportedError,
    connection_check,
    gauss_jacobi_rule,
    hyper_pfq_at,
    jacobi_eval,
    jacobi_reflection_check,
    jacobi_table,
    jacobi_weight_mass,
    log_gamma,
)


class TestLogGamma:
    def test_frozen_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 40
        for z in [1e-3, 0.1, 0.7, 1.5, 3.0, 12.7, 200.5, 1e3, 1e4]:
            ref = float(mpmath.loggamma(z))
            got = log_gamma(z)
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestJacobiEval:
    def test_degree_zero_is_one(self):
        for alpha, beta in [(2.0, 2.0), (0.5, 1.5), (4.0, 2.0)]:
            assert jacobi_eval(alpha, beta, 0, 0.37) == 1.0

    def test_degree_one_values(self):
        # P_1 = ((alpha+beta+2)x + alpha-beta)/2
        assert jacobi_eval(0.0, 0.0, 1, 0.5) == pytest.approx(0.5, rel=1e-14)
        assert jacobi_eval(2.0, 2.0, 1, 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            jacobi_eval(2.0, 2.0, -1, 0.0)

    def test_against_scipy(self):
        from scipy.special import eval_jacobi

        x = np.linspace(-1, 1, 21)
        for alpha, beta in [(0.5, 0.5), (2.0, 2.0), (4.0, 2.0), (1.0, 3.0)]:
            for n in range(0, 12):
                got = jacobi_eval(alpha, beta, n, x)
                ref = eval_jacobi(n, alpha, beta, x)
                scale = np.abs(ref).max() + 1.0
                assert np.abs(got - ref).max() <= 1e-12 * scale

    def test_table_matches_single_evaluations(self):
        x = np.linspace(-0.9, 0.9, 7)
        table = jacobi_table(2.0, 1.0, 5, x)
        for n in range(6):
            assert np.array_equal(table[n], jacobi_eval(2.0, 1.0, n, x))
        assert jacobi_eval(2.0, 1.0, 5, 0.3) == jacobi_table(2.0, 1.0, 5, [0.3])[5, 0]

    def test_eval_keeps_the_shape_of_x(self):
        x = np.linspace(-0.9, 0.9, 6).reshape(2, 3)
        got = jacobi_eval(1.5, 0.5, 4, x)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), jacobi_table(1.5, 0.5, 4, x.ravel())[4])
        assert isinstance(jacobi_eval(1.5, 0.5, 4, 0.2), float)

    def test_rows_validate_before_iteration(self):
        with pytest.raises(DomainError):
            jacobi_table(-1.0, 0.5, 3, [0.0])
        with pytest.raises(DomainError):
            jacobi_table(1.0, 0.5, -1, [0.0])


class TestRecurrenceKernel:
    X = np.linspace(-0.99, 0.99, 1001)  # 65 rows per block

    def test_block_size(self):
        assert specfun._BLOCK_VALUES == 2**16
        assert specfun._block_rows(1023, 1001) == 65
        assert specfun._block_rows(1023, 2048) == 32
        assert specfun._block_rows(1023, 2**17) == 1
        assert specfun._block_rows(10, 1001) == 11
        assert specfun._block_rows(0, 0) == 1

    @staticmethod
    def blocks(alpha, beta, nmax, x, rows=None):
        """The kernel's blocks from q_0 = p_0, copied out of its buffer."""
        g, a, _, p0, _ = specfun._rescaled_coeffs(alpha, beta, nmax)
        return [(k0, block.copy()) for k0, block in specfun._orthonormal_blocks(g, a, x, p0, rows)]

    @pytest.mark.parametrize("nmax", [0, 1, 2, 64, 65, 200])
    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_blocks_are_the_table(self, nmax, dtype):
        # nmax = 64 is exactly one block, 65 one block plus one row and
        # 200 four blocks; blocks of every size equal the one-block table.
        x = self.X.astype(dtype)
        [(_, table)] = self.blocks(2.3, 4.1, nmax, x, nmax + 1)
        assert table.shape == (nmax + 1, x.size) and table.dtype == dtype
        for size in (1, 2, 3, None):
            starts, blocks = zip(*self.blocks(2.3, 4.1, nmax, x, size))
            assert np.array_equal(np.vstack(blocks), table)
            assert list(starts) == list(range(0, nmax + 1, size or 65))

    def test_one_row_blocks_rotate_through_three_rows(self):
        g, a, _, p0, _ = specfun._rescaled_coeffs(2.3, 4.1, 10)
        rows = [block.ctypes.data for _, block in specfun._orthonormal_blocks(g, a, self.X, p0, 1)]
        assert len(set(rows)) == 3 and rows[3:] == rows[:-3]

    @pytest.mark.parametrize("npts", [1, 7, 128, 1001, 2048])
    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_affine_rows_are_the_same_bits_in_every_chunk(self, monkeypatch, npts, dtype):
        # Affine rows formed in chunks of 2 (the fewest), 16, 17 and 200
        # degrees and the default: each chunk is one product of the same
        # shape, which rounds every entry alike.  Of 201 degrees, chunks
        # of 2 and of 200 leave one in the last chunk.
        x = np.linspace(-0.999, 0.999, npts).astype(dtype)
        monkeypatch.setattr(specfun, "_CHUNK_VALUES", 0)
        assert specfun._chunk_rows(201, npts) == 2
        fewest = self.blocks(0.5, 12.0, 201, x)
        for values in (16 * npts, 17 * npts, 200 * npts, 2**14):
            monkeypatch.setattr(specfun, "_CHUNK_VALUES", values)
            chunked = self.blocks(0.5, 12.0, 201, x)
            assert [k0 for k0, _ in chunked] == [k0 for k0, _ in fewest]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(chunked, fewest))

    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_a_point_alone_has_its_bits_among_others(self, dtype):
        # One point is padded to a second column, so that its product is a
        # gemm, as at many points, and not a gemv.
        x = np.linspace(-0.999, 0.999, 7).astype(dtype)
        [(_, table)] = self.blocks(0.5, 12.0, 200, x, 201)
        for i in (0, 3, 6):
            [(_, alone)] = self.blocks(0.5, 12.0, 200, x[i : i + 1], 201)
            assert np.array_equal(alone[:, 0], table[:, i])

    def test_chunks_stay_within_the_chunk_values(self):
        # Two rows at least: a one-row product is a BLAS gemv, which may
        # round otherwise than the gemm of every larger chunk.
        assert specfun._CHUNK_VALUES <= specfun._BLOCK_VALUES
        assert specfun._chunk_rows(1023, 128) == 128
        assert specfun._chunk_rows(1023, 1001) == 16
        assert specfun._chunk_rows(1023, 1025) == 15
        assert specfun._chunk_rows(1023, 2048) == 8
        assert specfun._chunk_rows(1023, 2**14) == 2
        assert specfun._chunk_rows(1023, 2**17) == 2
        assert specfun._chunk_rows(10, 128) == 10
        assert specfun._chunk_rows(1, 128) == 2
        assert specfun._chunk_rows(0, 128) == 2

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_coefficients_are_formed_in_longdouble_and_rounded_once(self, dtype):
        g, a, t, p0, b = specfun._rescaled_coeffs(2.3, 4.1, 5)
        assert (len(g), len(a), len(t), len(b)) == (5, 5, 6, 5)
        assert all(v.dtype == np.longdouble for v in (g, a, t, np.asarray(p0), b))
        diag, off = specfun._jacobi_matrix(2.3, 4.1, 6)
        assert np.array_equal(b, off) and not b.flags.writeable
        assert t[0] == t[1] == 1 and np.array_equal(t[2:], t[:-2] * off[:-1] / off[1:])
        assert np.array_equal(g, t[:-1] / (off * t[1:])) and np.array_equal(a, diag[:-1])
        # The rows the kernel gives are those of the rounded coefficients:
        # r_k = -h_k + g_k x with h_k = g_k a_k rounded once from longdouble.
        # The double product is a BLAS one, which may fuse the multiply-add
        # (one rounding) or not; numpy's longdouble loop rounds g_k x first.
        x = self.X.astype(dtype)
        gd, hd = g.astype(dtype), (g * a).astype(dtype)
        [(_, table)] = self.blocks(2.3, 4.1, 5, x, 6)
        assert table.dtype == dtype and np.all(table[0] == dtype(p0))
        for k in range(5):
            prev = table[k - 1] if k else 0
            unfused = gd[k] * x - hd[k]
            rows = [unfused * table[k] - prev]
            if dtype == np.float64:
                fused = np.array([float(Fraction(gd[k]) * Fraction(v) - Fraction(hd[k])) for v in x])
                rows.append(fused * table[k] - prev)
            assert any(np.array_equal(table[k + 1], row) for row in rows)

    @pytest.mark.parametrize("alpha,beta", [(2.3, 4.1), (0.5, 8.0)])
    def test_double_rows_at_the_transform_size(self, alpha, beta):
        # p_0 .. p_1023 at 2048 points, the size of an N = 1024 expansion,
        # against the longdouble kernel at the same points: 1.4e-13 and
        # 8.7e-14 of the largest entry were measured with OpenBLAS's fused
        # products, 1.05e-13 and 7.5e-14 with two broadcast passes per row.
        x = np.linspace(-0.999, 0.999, 2048)
        got = specfun._orthonormal_table(alpha, beta, 1023, x)
        ref = specfun._orthonormal_table(alpha, beta, 1023, x.astype(np.longdouble))
        assert np.abs(got - ref).max() <= 3e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("alpha,beta", [(2.3, 4.1), (-0.9, 1.0), (1000.0, 0.5), (0.001, 30.0), (12.1, 1.3)])
    def test_coefficients_at_a_smaller_size_are_a_prefix(self, alpha, beta):
        big = specfun._form_rescaled_coeffs(alpha, beta, 2048)
        for n in (1, 2, 3, 63, 64, 128, 1023):
            g, a, t, p0, b = specfun._form_rescaled_coeffs(alpha, beta, n)
            assert p0 == big[3]
            for small, large in ((g, big[0]), (a, big[1]), (t, big[2]), (b, big[4])):
                assert np.array_equal(small, large[: len(small)])

    def test_smaller_sizes_are_served_from_the_kept_coefficients(self, monkeypatch):
        formed = []

        def counted(alpha, beta, nmax):
            formed.append((alpha, beta, nmax))
            return form(alpha, beta, nmax)

        form = specfun._form_rescaled_coeffs
        monkeypatch.setattr(specfun, "_coeff_cache", {})
        monkeypatch.setattr(specfun, "_form_rescaled_coeffs", counted)
        first = specfun._rescaled_coeffs(2.3, 4.1, 128)
        served = specfun._rescaled_coeffs(2.3, 4.1, 63)
        assert formed == [(2.3, 4.1, 128)]
        for got, ref in zip(served, form(2.3, 4.1, 63)):
            assert np.array_equal(got, ref)
        assert served[0].base is first[0].base and not any(v.flags.writeable for v in served[:3])
        specfun._rescaled_coeffs(2.3, 4.1, 200)  # a larger size replaces the kept one
        specfun._rescaled_coeffs(2.3, 4.1, 128)
        assert formed == [(2.3, 4.1, 128), (2.3, 4.1, 200)]
        for beta in range(1, 9):  # eight more pairs push (2.3, 4.1) out
            specfun._rescaled_coeffs(2.3, float(beta), 10)
        assert len(specfun._coeff_cache) == specfun._COEFF_CACHE_SIZE == 8
        specfun._rescaled_coeffs(2.3, 4.1, 63)
        assert formed[-1] == (2.3, 4.1, 63)

    @pytest.mark.parametrize("alpha", [-0.9, 0.001, 2.3, 100.0, 1000.0])
    def test_scales_stay_bounded(self, alpha):
        # 0.0507 to 1.128 over alpha, beta in {0.001 .. 1000} and k <= 4096;
        # 0.019 to 2.83 with alpha or beta in {-0.9, -0.5}.
        for beta in (-0.9, 0.001, 2.3, 100.0, 1000.0):
            t = specfun._rescaled_coeffs(alpha, beta, 4096)[2]
            positive = min(alpha, beta) > 0
            assert (0.05 if positive else 0.019) <= t.min() and t.max() <= (1.13 if positive else 2.83)

    def test_table_rows_are_scaled_by_the_shared_kappa_product(self):
        x = self.X
        g, a, t, _, _ = specfun._rescaled_coeffs(2.3, 4.1, 40)
        [(_, rows)] = specfun._orthonormal_blocks(g, a, x, 1, 41)
        squares = specfun._kappa_squares(2.3, 4.1, 40)
        ref = rows * (t * np.sqrt(squares[0] / squares)).astype(float)[:, None]
        assert np.array_equal(jacobi_table(2.3, 4.1, 40, x), ref)
        assert np.array_equal(kappa_vector(JacobiParams(2.3, 4.1), 40), np.sqrt(squares).astype(float))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="longdouble is double on this platform",
    )
    @pytest.mark.parametrize("alpha,beta", [(2.3, 4.1), (0.001, 30.0)])
    def test_longdouble_table_against_mpmath(self, alpha, beta):
        # Relative to max |P_n(+-1)|, at most 5.2e-22 and 6.1e-22 over the
        # three degrees; double recurrence scalars gave 2.5e-18 and 8.3e-19.
        mpmath.mp.dps = 40
        x = np.linspace(-0.965, 0.965, 9).astype(np.longdouble)
        table = jacobi_table(alpha, beta, 400, x)
        for n in (100, 200, 400):
            scale = max(mpmath.binomial(n + alpha, n), mpmath.binomial(n + beta, n))
            for xi, got in zip(x, table[n]):
                ref = mpmath.jacobi(n, alpha, beta, _mp_longdouble(xi))
                assert abs(_mp_longdouble(got) - ref) <= 2e-18 * scale


class TestReflection:
    def test_examples(self):
        for alpha, beta, n, x in [(2.0, 1.0, 3, 0.2), (2.0, 2.0, 2, 0.7)]:
            lhs, rhs = jacobi_reflection_check(alpha, beta, n, x)
            assert lhs == pytest.approx(rhs, rel=1e-13)
        lhs, rhs = jacobi_reflection_check(1.0, 4.0, 0, -0.9)
        assert (lhs, rhs) == (1.0, 1.0)

    def test_grid_residuals(self):
        x = np.linspace(-1, 1, 101)
        for alpha, beta in [(0.5, 1.0), (2.0, 4.0), (3.3, 0.7)]:
            for n in range(0, 21, 4):
                lhs, rhs = jacobi_reflection_check(alpha, beta, n, x)
                scale = np.abs(np.asarray(lhs)).max() + 1.0
                assert np.abs(np.asarray(lhs) - np.asarray(rhs)).max() <= 1e-12 * scale


class TestConnection:
    def test_examples(self):
        for alpha, beta, n, x, tol in [
            (2.0, 2.0, 1, 0.3, 1e-13),
            (1.0, 3.0, 4, -0.8, 1e-12),
            (0.5, 0.5, 2, 0.0, 1e-13),
        ]:
            r1, r2 = connection_check(alpha, beta, n, x)
            assert abs(r1) <= tol and abs(r2) <= tol

    def test_grid_residuals(self):
        x = np.linspace(-1, 1, 101)
        for alpha in (0.5, 1.0, 2.0, 4.0):
            for beta in (0.5, 1.0, 2.0, 4.0):
                for n in range(0, 21, 5):
                    r1, r2 = connection_check(alpha, beta, n, x)
                    assert np.abs(np.asarray(r1)).max() <= 1e-12
                    assert np.abs(np.asarray(r2)).max() <= 1e-12


class TestWeightMass:
    def test_frozen_values(self):
        assert jacobi_weight_mass(0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert jacobi_weight_mass(2.0, 2.0) == pytest.approx(16.0 / 15.0, rel=1e-14)
        assert jacobi_weight_mass(1.0, 0.0) == pytest.approx(2.0, rel=1e-14)

    GRID = [0.001, 0.5, 1.0, 2.3, 4.1, 12.1, 30.0, 100.0, 150.0, 300.0]

    @pytest.mark.parametrize("alpha", GRID)
    def test_against_mpmath(self, alpha):
        # 6.7e-16 at worst; a sum of double log-gammas was off by 1.9e-13
        # at (100, 150), and scipy.special.beta for B(a0, b0) by 9.2e-16.
        mpmath.mp.dps = 50
        for beta in self.GRID + [-0.9, -0.5, 0.0]:
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            ref = 2 ** (a + b + 1) * mpmath.beta(a + 1, b + 1)
            assert abs(mpmath.mpf(jacobi_weight_mass(alpha, beta)) / ref - 1) <= 1e-15
            ref = 2 ** (a + b + 1) * mpmath.beta(b + 1, a + 1)
            assert abs(mpmath.mpf(jacobi_weight_mass(beta, alpha)) / ref - 1) <= 1e-15

    def test_random_grid_against_mpmath(self):
        # 1.25e-15 at worst, at (220.7, 70.7): math.gamma for B(a0, b0) is
        # a few ulp off; scipy.special.beta read 6.0e-16 on this grid.
        mpmath.mp.dps = 50
        rng = np.random.default_rng(2026)
        for alpha, beta in -1 + 301 * (1 - rng.random((1600, 2))):  # in (-1, 300]
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            ref = 2 ** (a + b + 1) * mpmath.beta(a + 1, b + 1)
            assert abs(mpmath.mpf(jacobi_weight_mass(alpha, beta)) / ref - 1) <= 1.5e-15

    def test_shifted_weights_of_the_oracle(self):
        mpmath.mp.dps = 50
        for alpha, beta in [(-0.9, -0.9), (-0.999, 0.5), (0.0, -0.5), (-0.5, 12.1)]:
            ref = 2 ** (mpmath.mpf(alpha) + beta + 1) * mpmath.beta(
                mpmath.mpf(alpha) + 1, mpmath.mpf(beta) + 1
            )
            assert abs(mpmath.mpf(jacobi_weight_mass(alpha, beta)) / ref - 1) <= 1e-15

    @pytest.mark.parametrize("alpha,beta", [(-1.0, 2.0), (2.0, -1.5), (float("nan"), 1.0)])
    def test_domain(self, alpha, beta):
        with pytest.raises(DomainError):
            jacobi_weight_mass(alpha, beta)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            jacobi_weight_mass(2000.0, 1.0)


class TestGaussJacobiRule:
    def test_one_point_rules(self):
        rule = gauss_jacobi_rule(0.0, 0.0, 1)
        assert float(rule.nodes[0]) == pytest.approx(0.0, abs=1e-15)
        assert float(rule.weights[0]) == pytest.approx(2.0, rel=1e-14)

        rule = gauss_jacobi_rule(2.0, 2.0, 1)
        assert float(rule.nodes[0]) == pytest.approx(0.0, abs=1e-15)
        assert float(rule.weights[0]) == pytest.approx(16.0 / 15.0, rel=1e-14)

        rule = gauss_jacobi_rule(1.0, 0.0, 1)
        assert float(rule.nodes[0]) == pytest.approx(-1.0 / 3.0, rel=1e-14)
        assert float(rule.weights[0]) == pytest.approx(2.0, rel=1e-14)

    def test_invalid_size(self):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(0.0, 0.0, 0)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (2.0, 2.0), (0.5, 1.5), (4.0, 2.0)])
    @pytest.mark.parametrize("n_nodes", [1, 3, 8])
    def test_monomial_exactness(self, alpha, beta, n_nodes):
        mpmath.mp.dps = 40
        rule = gauss_jacobi_rule(alpha, beta, n_nodes)
        nodes = np.asarray(rule.nodes, dtype=float)
        weights = np.asarray(rule.weights, dtype=float)
        for k in range(2 * n_nodes):
            got = float(weights @ nodes**k)
            ref = float(
                mpmath.quad(
                    lambda x: x**k * (1 - x) ** alpha * (1 + x) ** beta, [-1, 1]
                )
            )
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_weights_positive_nodes_interior_sorted(self):
        rule = gauss_jacobi_rule(1.5, 0.5, 12)
        nodes = np.asarray(rule.nodes, dtype=float)
        weights = np.asarray(rule.weights, dtype=float)
        assert np.all(weights > 0)
        assert np.all(np.abs(nodes) < 1)
        assert np.all(np.diff(nodes) > 0)

    # Pairs with alpha or beta in (-1, 0], large and unequal exponents, and
    # sums alpha + beta that are inexact in double.
    MP_GRID = [
        (-0.9, 0.5), (0.0, -0.5), (0.001, 2.0), (2.3, 4.1),
        (12.1, 1.3), (2.0, 2.0), (30.0, 1.0), (100.0, 150.0),
    ]

    @pytest.mark.parametrize("alpha,beta", MP_GRID)
    def test_against_mpmath(self, alpha, beta):
        # Nodes: within 1e-18 of the 50-digit roots (the x87 longdouble
        # floor is about 5e-20; where longdouble is double, 8 ulp of it).
        # Weights: relative 1e-15, about the error of jacobi_weight_mass,
        # which scales every weight alike (at most 1.5e-16 was measured).
        mpmath.mp.dps = 50
        node_tol = max(1e-18, 8 * float(np.finfo(np.longdouble).eps))
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        for q in (1, 2, 5, 12, 20):
            rule = gauss_jacobi_rule(alpha, beta, q)
            scale = (
                2 ** (a + b + 1) * mpmath.gamma(q + a + 1) * mpmath.gamma(q + b + 1)
                / (mpmath.gamma(q + a + b + 1) * mpmath.factorial(q))
            )
            for node, weight in zip(rule.nodes, rule.weights):
                x = _mp_longdouble(node)
                for _ in range(3):
                    x -= _mp_jacobi(q, a, b, x) / _mp_jacobi_derivative(q, a, b, x)
                ref_w = scale / ((1 - x * x) * _mp_jacobi_derivative(q, a, b, x) ** 2)
                assert abs(_mp_longdouble(node) - x) <= node_tol
                assert abs(_mp_longdouble(weight) / ref_w - 1) <= 1e-15

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (1.0, 6.0)])
    def test_gram_orthonormality_at_2048(self, alpha, beta):
        # 1.36e-13 and 9.3e-14 were measured here; the bound is 9.6 times
        # the larger.
        q = 2048
        rule = gauss_jacobi_rule(alpha, beta, q)
        x = np.asarray(rule.nodes, dtype=float)
        w = np.asarray(rule.weights, dtype=float)
        v = kappa_vector(JacobiParams(alpha, beta), q - 1)[:, None] * jacobi_table(
            alpha, beta, q - 1, x
        )
        gram = (v * w) @ v.T
        assert np.abs(gram - np.eye(q)).max() <= 1.3e-12

    def test_memory_is_linear_in_the_size(self):
        gauss_jacobi_rule(2.0, 2.0, 8)
        tracemalloc.start()
        try:
            gauss_jacobi_rule(2.0, 2.0, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A (Q+1) x Q longdouble table alone would be 268 MB.
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize(
        "start",
        [lambda n: np.linspace(-0.5, 0.5, n), lambda n: np.zeros(n), lambda n: np.full(n, 5.0)],
    )
    def test_bad_start_raises(self, monkeypatch, start):
        monkeypatch.setattr(
            specfun, "eigh_tridiagonal", lambda d, e, **kwargs: start(d.size)
        )
        with pytest.raises(ConvergenceError):
            gauss_jacobi_rule(2.0, 3.0, 20)

    def test_unordered_nodes_raise(self, monkeypatch):
        # The right eigenvalues in the wrong order converge, but not to a rule.
        eigh = specfun.eigh_tridiagonal
        monkeypatch.setattr(
            specfun, "eigh_tridiagonal", lambda d, e, **kwargs: eigh(d, e, **kwargs)[::-1]
        )
        with pytest.raises(ConvergenceError, match="increasing"):
            gauss_jacobi_rule(2.0, 3.0, 20)

    @pytest.mark.parametrize("dtype", [np.longdouble, np.float64])
    @pytest.mark.parametrize(
        "alpha,beta,q", [(2.3, 4.1, 1), (0.5, 12.0, 2), (-0.9, 1.0, 37), (100.0, 150.0, 1024)]
    )
    def test_start_matrix_is_the_jacobi_matrix_of_q_rows(self, monkeypatch, alpha, beta, q, dtype):
        # The start's matrix is sliced from the q + 1 rows the recurrence
        # coefficients are formed from; the rule equals one whose start
        # forms the q rows on their own.
        diag, off = specfun._jacobi_matrix(alpha, beta, q)
        _, a, _, _, b = specfun._rescaled_coeffs(alpha, beta, q)
        assert np.array_equal(a, diag) and np.array_equal(b[:-1], off)
        rule = gauss_jacobi_rule(alpha, beta, q, dtype)
        eigh, passed = specfun.eigh_tridiagonal, []

        def own_matrix(d, e, **kwargs):
            passed.append((d, e))
            return eigh(diag.astype(float), off.astype(float), **kwargs)

        monkeypatch.setattr(specfun, "eigh_tridiagonal", own_matrix)
        two_calls = gauss_jacobi_rule(alpha, beta, q, dtype)
        [(d, e)] = passed
        assert np.array_equal(d, diag.astype(float)) and np.array_equal(e, off.astype(float))
        assert np.array_equal(rule.nodes, two_calls.nodes)
        assert np.array_equal(rule.weights, two_calls.weights)

    def test_nodes_and_weights_are_read_only(self):
        rule = gauss_jacobi_rule(1.5, 0.5, 6)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0
        nodes = np.linspace(-0.5, 0.5, 3)
        rule = specfun.QuadratureRule(nodes=nodes, weights=np.ones(3), alpha=0.0, beta=0.0)
        nodes[0] = 0.9  # the caller's array stays writeable and is not shared
        assert rule.nodes[0] == -0.5


class TestDoubleGaussJacobiRule:
    # Part of a 350-rule grid (alpha in {0.001, 0.5, 2.3, 12.1, 30, 100,
    # 300}, beta in {0.001, 1, 4.1, 150, 300}, Q in {1, 2, 3, 5, 12, 64,
    # 128, 257, 1024, 2048}) on which the double nodes were within 1.46e-16
    # of the longdouble nodes, at (2.3, 300, 2), and the weights within
    # 2.0e-12 of the largest weight.  Without its rescaling the double sweep overflowed on 28 of
    # the 350.
    @pytest.mark.parametrize("alpha", [0.001, 2.3, 30.0, 300.0])
    @pytest.mark.parametrize("beta", [0.001, 4.1, 150.0])
    @pytest.mark.parametrize("n_nodes", [1, 3, 12, 257, 1024])
    def test_matches_the_extended_rule(self, alpha, beta, n_nodes):
        double = gauss_jacobi_rule(alpha, beta, n_nodes, dtype=np.float64)
        extended = gauss_jacobi_rule(alpha, beta, n_nodes)
        assert double.nodes.dtype == double.weights.dtype == np.float64
        assert np.abs(double.nodes - extended.nodes).max() <= 2.5e-16
        assert np.all(np.isfinite(double.weights)) and np.all(double.weights >= 0)
        largest = extended.weights.max()
        assert np.abs(double.weights - extended.weights).max() <= 4e-12 * largest

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.3, 5.0, 8.0])
    def test_small_problems_match_the_extended_rule(self, monkeypatch, alpha):
        # The Q = 128 rules of N = 64 expansions.  Over the 25 pairs the
        # nodes were within 7.3e-17 of the longdouble nodes, each weight
        # within 2.5e-13 relative of its longdouble weight, and the
        # accepted corrections at most 0.4 ulp, in the second sweep.
        corrections = []
        sweep = specfun._christoffel_sweep

        def recorded(*args):
            weights, delta = sweep(*args)
            corrections.append(np.abs(delta).max())
            return weights, delta

        monkeypatch.setattr(specfun, "_christoffel_sweep", recorded)
        for beta in (0.5, 1.0, 2.3, 5.0, 8.0):
            corrections.clear()
            double = gauss_jacobi_rule(alpha, beta, 128, dtype=np.float64)
            assert len(corrections) == 2
            assert corrections[-1] <= specfun._NEWTON_ULPS * np.finfo(float).eps
            extended = gauss_jacobi_rule(alpha, beta, 128)
            assert np.abs(double.nodes - extended.nodes).max() <= 2.5e-16
            assert np.abs(double.weights / extended.weights - 1).max() <= 4e-13

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (1.0, 6.0)])
    def test_gram_orthonormality_at_2048(self, alpha, beta):
        # 7.5e-14 and 7.7e-14 were measured here; the bound is 9.7 times
        # the larger.
        q = 2048
        rule = gauss_jacobi_rule(alpha, beta, q, dtype=np.float64)
        v = kappa_vector(JacobiParams(alpha, beta), q - 1)[:, None] * jacobi_table(
            alpha, beta, q - 1, rule.nodes
        )
        gram = (v * rule.weights) @ v.T
        assert np.abs(gram - np.eye(q)).max() <= 7.5e-13

    def test_rescaled_sweep_converges_where_double_overflows(self):
        # The Christoffel sum reaches about 1e437 at the node nearest -1,
        # which overflows double without the rescaling.
        rule = gauss_jacobi_rule(2.3, 300.0, 1024, dtype=np.float64)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.weights[0] == 0.0 and rule.weights.max() > 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.complex128, int, None, "no such type"])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(2.0, 2.0, 8, dtype=dtype)


def _mp_longdouble(v):
    """A longdouble as an exact mpmath number."""
    hi = float(v)
    return mpmath.mpf(hi) + mpmath.mpf(float(np.longdouble(v) - np.longdouble(hi)))


def _mp_jacobi(n, a, b, x):
    """P_n^(a,b)(x) by the three-term recurrence in mpmath arithmetic."""
    if n == 0:
        return mpmath.mpf(1)
    pm1, p = mpmath.mpf(1), ((a + b + 2) * x + a - b) / 2
    s = a + b
    for k in range(1, n):
        a0 = 2 * (k + 1) * (k + s + 1) * (2 * k + s)
        a1 = (2 * k + s + 1) * ((2 * k + s) * (2 * k + s + 2) * x + a * a - b * b)
        a2 = 2 * (k + a) * (k + b) * (2 * k + s + 2)
        p, pm1 = (a1 * p - a2 * pm1) / a0, p
    return p


def _mp_jacobi_derivative(n, a, b, x):
    return (n + a + b + 1) / 2 * _mp_jacobi(n - 1, a + 1, b + 1, x)


class TestHyperPfq:
    def test_frozen_values(self):
        assert hyper_pfq_at([1.0], [2.0], 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)
        assert hyper_pfq_at([3.7], [3.7], -1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)
        assert hyper_pfq_at([1.0, 2.0], [2.0, 3.0], 1.0) == pytest.approx(
            2.0 * (math.e - 2.0), rel=1e-13
        )

    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        cases = [
            ([0.5], [1.5], -1.0),
            ([1.25, 0.5], [2.0, 2.5], 1.0),
            ([2.0], [5.0], 0.3),
        ]
        for num, den, z in cases:
            ref = float(mpmath.hyper(num, den, z))
            assert hyper_pfq_at(num, den, z) == pytest.approx(ref, rel=1e-12)

    def test_unsupported_and_domain_errors(self):
        with pytest.raises(UnsupportedError):
            hyper_pfq_at([1.0, 2.0], [3.0], 0.5)
        with pytest.raises(DomainError):
            hyper_pfq_at([1.0], [-2.0], 0.5)
        with pytest.raises(DomainError):
            hyper_pfq_at([1.0], [0.0], 0.5)


class TestSumSeries:
    def test_non_converging_series_raises(self):
        with pytest.raises(ConvergenceError):
            specfun._sum_series(itertools.repeat(1.0))

    def test_terminating_pfq_is_its_polynomial(self):
        # 1F1(-2; 2; z) = 1 - z + z^2 / 6
        assert hyper_pfq_at([-2.0], [2.0], 0.5) == pytest.approx(1.0 - 0.5 + 0.25 / 6.0, rel=1e-15)


class TestJacobiParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            JacobiParams(0.0, 2.0)
        with pytest.raises(DomainError):
            JacobiParams(2.0, -1.0)
        p = JacobiParams(2.0, 3.0)
        assert (p.alpha, p.beta) == (2.0, 3.0)
