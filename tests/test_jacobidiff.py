"""Unit tests for the differentiation-matrix construction routes."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from ssjacobi import jacobidiff, semisep, specfun
from ssjacobi.jacobidiff import (
    SOURCES,
    DiffMatrixBuild,
    boundedness_sums,
    build,
    d_entry_closed_form,
    dtilde_lower_triangle,
    generators,
    kappa_vector,
    oracle_entry,
    oracle_matrix,
)
from ssjacobi.specfun import DomainError, JacobiParams, gauss_jacobi_rule, jacobi_table

P22 = JacobiParams(2.0, 2.0)
P21 = JacobiParams(2.0, 1.0)
P42 = JacobiParams(4.0, 2.0)


class TestKappa:
    def test_frozen_values(self):
        assert kappa_vector(JacobiParams(0.5, 0.5), 0)[0] > 0
        kv = kappa_vector(P22, 1)
        assert kv[0] == pytest.approx(math.sqrt(15.0) / 4.0, rel=1e-14)
        assert kv[1] == pytest.approx(math.sqrt(35.0 / 48.0), rel=1e-14)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError, match="degree"):
            kappa_vector(P22, -1)

    def test_limit_parameters(self):
        # kappa_0 for the flat weight tends to 1/sqrt(2) as both exponents
        # shrink; probe with a small positive value.
        small = JacobiParams(1e-8, 1e-8)
        assert kappa_vector(small, 0)[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)

    @pytest.mark.parametrize("alpha,beta", [(2.3, 4.1), (2.0, 2.0), (100.0, 150.0),
                                            (0.001, 30.0), (0.5, 12.0)])
    def test_against_mpmath(self, alpha, beta):
        # A sum of double log-gammas was off by up to 4.6e-12 here.
        mpmath.mp.dps = 40
        kv = kappa_vector(JacobiParams(alpha, beta), 2047)
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        s = a + b
        for n in range(2048):
            ref = mpmath.sqrt(
                (2 * n + s + 1) * mpmath.exp(
                    mpmath.loggamma(n + s + 1) + mpmath.loggamma(n + 1)
                    - mpmath.loggamma(n + a + 1) - mpmath.loggamma(n + b + 1)
                ) / 2 ** (s + 1)
            )
            assert abs(kv[n] - ref) <= 1e-15 * ref, n

    def test_normalizes_unit_mass(self):
        # Orthonormality against the weight: the n-th normalized polynomial
        # has unit weighted L2 norm.
        from ssjacobi.specfun import gauss_jacobi_rule, jacobi_eval

        for n in (0, 3, 7):
            rule = gauss_jacobi_rule(P42.alpha, P42.beta, n + 1)
            nodes = np.asarray(rule.nodes, dtype=float)
            weights = np.asarray(rule.weights, dtype=float)
            vals = kappa_vector(P42, n)[n] * jacobi_eval(P42.alpha, P42.beta, n, nodes)
            assert float(weights @ vals**2) == pytest.approx(1.0, rel=1e-12)


class TestFirstColumn:
    def test_frozen_values(self):
        assert jacobidiff._first_column_array(P22, 1)[1] == pytest.approx(8.0 / 5.0, rel=1e-13)
        assert jacobidiff._first_column_array(P21, 1)[1] == pytest.approx(5.0 / 3.0, rel=1e-13)

    def test_symmetric_even_vanishes(self):
        for m in (2, 4, 6):
            assert abs(jacobidiff._first_column_array(P22, m)[m]) <= 1e-14

    @pytest.mark.parametrize("alpha,beta", [(0.5, 4.1), (2.3, 30.0), (300.0, 0.5)])
    @pytest.mark.parametrize("mmax", [0, 1, 254])
    def test_column_is_the_sequential_product(self, alpha, beta, mmax):
        # The reference multiplies the seed by one exact ratio per step,
        # in longdouble, in a Python loop.
        s = alpha + beta
        seed = np.longdouble(math.exp(
            (s - 1) * math.log(2.0) + math.lgamma(alpha + 1) + math.lgamma(beta + 1)
            - math.lgamma(s + 1)
        ))
        m = np.arange(mmax, dtype=np.longdouble)
        term1, term2 = [seed], [seed]
        for r1, r2 in zip((m + beta + 1) / (m + s + 1), (m + alpha + 1) / (m + s + 1)):
            term1.append(term1[-1] * r1)
            term2.append(term2[-1] * r2)
        sign = np.where(np.arange(mmax + 1) % 2 == 0, 1.0, -1.0)
        ref = np.array(term1) - sign * np.array(term2)
        ref[0] = 0.0
        got = jacobidiff._first_column_array(JacobiParams(alpha, beta), mmax)
        assert got.dtype == np.longdouble and np.array_equal(got, ref)


class TestRecurrenceCoeffs:
    def test_frozen_values(self):
        (c0,), (d0,), (e0,) = jacobidiff._coeff_arrays(P22, 0)
        assert d0 == 0.0
        assert c0 == pytest.approx(1.0 / 5.0, rel=1e-14)
        assert e0 == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_positivity(self):
        for p in (P22, P42, JacobiParams(0.5, 1.5)):
            c, _, e = jacobidiff._coeff_arrays(p, 7)
            assert np.all(c > 0) and np.all(e > 0)


class TestLowerTriangleTable:
    def test_diagonal_zero(self):
        table = dtilde_lower_triangle(P22, 8)
        assert np.abs(np.diag(table)).max() == 0.0

    def test_frozen_entries(self):
        table = dtilde_lower_triangle(P22, 4)
        assert table[1, 0] == pytest.approx(8.0 / 5.0, rel=1e-13)
        assert abs(table[2, 0]) <= 1e-13
        # Cross-check an interior entry against exact quadrature.
        kv = kappa_vector(P22, 2)
        ref = oracle_entry(P22, 2, 1) / (kv[2] * kv[1])
        assert table[2, 1] == pytest.approx(ref, rel=1e-11)

    def test_symmetric_parity(self):
        table = dtilde_lower_triangle(P22, 16)
        m, n = np.tril_indices(16, k=-1)
        even = (m + n) % 2 == 0
        assert np.abs(table[m[even], n[even]]).max() <= 1e-12


class TestClosedForm:
    def test_frozen_entries(self):
        assert d_entry_closed_form(P22, 1, 0) == pytest.approx(
            math.sqrt(7.0) / 2.0, rel=1e-13
        )
        kv = kappa_vector(P21, 1)
        ref = kv[1] * kv[0] * (5.0 / 3.0)
        assert d_entry_closed_form(P21, 1, 0) == pytest.approx(ref, rel=1e-13)

    def test_skew_orientation(self):
        assert d_entry_closed_form(P22, 0, 1) == pytest.approx(
            -d_entry_closed_form(P22, 1, 0), rel=1e-15
        )

    def test_symmetric_even_zero(self):
        # At alpha = beta the Gamma ratio tau is 1 exactly, so the zeros are
        # exact at any N.
        for m, n in [(2, 0), (3, 1), (5, 3), (4095, 1), (4094, 4092)]:
            assert d_entry_closed_form(P22, m, n) == 0.0
        for a in (0.5, 2.0, 12.0):
            dense = build(JacobiParams(a, a), 128, "closed_form").dense()
            m, n = np.indices(dense.shape)
            assert not dense[(m + n) % 2 == 0].any(), a

    def test_diagonal_rejected(self):
        with pytest.raises(DomainError):
            d_entry_closed_form(P22, 3, 3)

    def test_integer_parameter_factorial_form(self):
        # For integer exponents every gamma factor is a factorial, and the
        # entry can be evaluated directly from integer arithmetic.
        for p in (P22, P21, P42, JacobiParams(1.0, 3.0)):
            a, b = int(p.alpha), int(p.beta)
            s = a + b
            for m, n in [(1, 0), (3, 0), (4, 1), (7, 2), (9, 8)]:
                pref = 0.25 * math.sqrt(
                    math.factorial(m)
                    * math.factorial(n + s)
                    / math.factorial(n)
                    / math.factorial(m + s)
                    * (2 * m + s + 1)
                    * (2 * n + s + 1)
                )
                ratio = math.sqrt(
                    math.factorial(n + a)
                    * math.factorial(m + b)
                    / math.factorial(m + a)
                    / math.factorial(n + b)
                )
                raw = pref * (ratio - (-1.0) ** (m - n) / ratio)
                assert d_entry_closed_form(p, m, n) == pytest.approx(raw, rel=1e-13)

    # The first column of dtilde nears the double limit at these pairs
    # (1.1e298 at (1, 1000)), while every entry of D is below 300.
    @pytest.mark.parametrize("n", [2, 17, 64])
    @pytest.mark.parametrize("a,b", [(1.0, 1000.0), (2.0, 1000.0), (30.0, 1000.0), (1000.0, 1.0)])
    def test_extreme_pairs_agree_with_the_oracle(self, a, b, n):
        p = JacobiParams(a, b)
        closed = build(p, n, "closed_form").dense()
        oracle = build(p, n, "quadrature_oracle").dense()
        assert np.abs(closed - oracle).max() <= 1e-11 * np.abs(oracle).max()


def _mp_entry(alpha, beta, m, n):
    """The lower-triangle entry (m > n) of D from 40-digit log-gammas."""
    mpmath.mp.dps = 40
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
    s, lg = a + b, mpmath.loggamma
    pref = mpmath.sqrt((2 * m + s + 1) * (2 * n + s + 1) * mpmath.exp(
        lg(m + 1) - lg(n + 1) + lg(n + s + 1) - lg(m + s + 1))) / 4
    half = mpmath.exp((lg(n + a + 1) + lg(m + b + 1) - lg(m + a + 1) - lg(n + b + 1)) / 2)
    return float(pref * (half - (-1) ** (m - n) / half))


class TestAgainstMpmath:
    # Both routes multiply exact Gamma ratios in longdouble.  The errors
    # measured here were at most 1.1e-16 (generators) and 5.6e-17 (closed
    # form, against the reference rounded to double).  The scale is the
    # largest sampled reference, which is at most max|D|.  The generators
    # overflow where alpha or beta is 100 or more.
    @pytest.mark.parametrize("n_size", [64, 1024, 4096])
    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (3.0, 5.0), (0.5, 12.0), (1.0, 6.0),
                                            (12.0, 0.5), (100.0, 150.0)])
    def test_sampled_entries(self, alpha, beta, n_size):
        rng = np.random.default_rng(n_size)
        m = np.append(rng.integers(1, n_size, 60), [n_size - 1, n_size - 1, 1])
        n = np.append((rng.random(60) * m[:60]).astype(int), [n_size - 2, 0, 0])
        ref = np.array([_mp_entry(alpha, beta, int(i), int(j)) for i, j in zip(m, n)])
        scale = np.abs(ref).max()
        p = JacobiParams(alpha, beta)
        closed = jacobidiff._closed_form_lower(p, m, n)
        assert np.abs(closed - ref).max() <= 1e-14 * scale
        if max(alpha, beta) >= 100:
            with pytest.raises(ValueError):
                generators(p, n_size)
            return
        pair = generators(p, n_size)
        gen = np.einsum("im,im->m", pair.b[:, m], -pair.a[:, n])
        assert np.abs(gen - ref).max() <= 1e-14 * scale

    # The Gamma ratios of these entries are far beyond the double range.
    @pytest.mark.parametrize("alpha,beta", [(0.5, 1000.0), (1000.0, 150.0)])
    def test_entry_far_from_the_diagonal(self, alpha, beta):
        p = JacobiParams(alpha, beta)
        for m, n in [(4095, 0), (4095, 7), (4000, 2048), (4095, 4094)]:
            ref = _mp_entry(alpha, beta, m, n)
            got = d_entry_closed_form(p, m, n)
            assert math.isfinite(got) and abs(got - ref) <= 1e-15 * abs(ref)
            assert d_entry_closed_form(p, n, m) == -got


class TestOrientation:
    # D[1, 0] > 0 for every alpha, beta > 0 (the proof is above
    # jacobidiff._closed_form_lower), so a global sign error in any route
    # shows here.  The generators overflow where alpha or beta is 300.
    GRID = (0.001, 0.5, 2.3, 12.0, 30.0, 300.0)

    @pytest.mark.parametrize("a", GRID)
    def test_first_entry_is_positive_on_every_route(self, a):
        for b in self.GRID:
            for source in SOURCES:
                try:
                    with np.errstate(over="ignore"):
                        dense = build(JacobiParams(a, b), 17, source).dense()
                except ValueError:
                    assert source == "generators" and 300.0 in (a, b)
                    continue
                assert dense[1, 0] > 0 and dense[0, 1] == -dense[1, 0]


class TestGenerators:
    def test_frozen_magnitudes(self):
        pair = generators(P22, 2)
        assert abs(pair.a[0, 0]) == pytest.approx(math.sqrt(120.0) / 2.0, rel=1e-13)
        assert abs(pair.b[0, 1]) == pytest.approx(0.5 * math.sqrt(7.0 / 120.0), rel=1e-13)

    def test_entry_magnitude(self):
        pair = generators(P22, 2)
        entry = float(pair.a[:, 0] @ pair.b[:, 1])
        assert abs(entry) == pytest.approx(math.sqrt(7.0) / 2.0, rel=1e-13)

    def test_generator_blocks_full_rank(self):
        pair = generators(P42, 16)
        for block in (pair.a.T, pair.b.T):
            sv = np.linalg.svd(block, compute_uv=False)
            assert sv[1] > 1e-10 * sv[0]


def _two_rule_oracle(params, n_size):
    """The oracle with w' split into the two shifted weights
    (1-x)^(a-1) (1+x)^b and (1-x)^a (1+x)^(b-1), one Gauss rule of N + 1
    nodes and one longdouble Gram each."""
    a, b = params.alpha, params.beta
    grams = []
    for pa, pb in ((a - 1, b), (a, b - 1)):
        rule = gauss_jacobi_rule(pa, pb, n_size + 1)
        table = jacobi_table(a, b, n_size - 1, rule.nodes)
        grams.append((table * rule.weights) @ table.T)
    dtilde = (0.5 * a * grams[0] - 0.5 * b * grams[1]).astype(float)
    kvec = kappa_vector(params, n_size - 1)
    lower = np.tril(np.outer(kvec, kvec) * dtilde, -1)
    return lower - lower.T


class TestOracle:
    GRID = (0.001, 0.5, 2.3, 12.0, 30.0, 300.0, 1000.0)

    def test_frozen_entries(self):
        assert oracle_entry(P22, 1, 0) == pytest.approx(math.sqrt(7.0) / 2.0, rel=1e-13)
        assert abs(oracle_entry(P22, 2, 0)) <= 1e-13

    @pytest.mark.parametrize("m,n", [(3, -3), (0, -1), (1, 1), (2, 3)])
    def test_outside_the_lower_triangle_rejected(self, m, n):
        # (3, -3) used to read D[3, 1] through a negative table index.
        with pytest.raises(DomainError):
            oracle_entry(JacobiParams(2.0, 3.0), m, n)

    def test_agrees_with_closed_form(self):
        assert oracle_entry(P42, 3, 1) == pytest.approx(
            d_entry_closed_form(P42, 3, 1), abs=1e-11
        )

    def test_matrix_assembly(self):
        dense = oracle_matrix(P22, 6)
        for m in range(1, 6):
            for n in range(m):
                assert dense[m, n] == pytest.approx(oracle_entry(P22, m, n), abs=1e-12)

    @pytest.mark.parametrize("n", [17, 64])
    @pytest.mark.parametrize("a", GRID)
    def test_one_rule_agrees_with_two_shifted_rules(self, a, n):
        for b in self.GRID:
            p = JacobiParams(a, b)
            with np.errstate(all="ignore"):
                dense, ref = oracle_matrix(p, n), _two_rule_oracle(p, n)
            finite = np.isfinite(ref)
            assert np.array_equal(np.isfinite(dense), finite), (a, b)
            err = np.abs(dense - ref)[finite].max(initial=0.0)
            assert err <= 1e-13 * np.abs(ref[finite]).max(initial=0.0), (a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 32, 128, 512])
    @pytest.mark.parametrize("a,b", [(3.0, 5.0), (0.5, 12.0), (12.0, 0.5), (12.0, 12.0),
                                     (0.5, 0.5), (0.001, 150.0), (150.0, 0.001), (500.0, 0.001)])
    def test_blas_gram_is_within_the_longdouble_grams_own_error(self, a, b, n):
        """The Gram on dgemm is within 4 N 2^-64 sum_j |T_mj W_j T_nj| of
        the longdouble matmul, that matmul's worst-case error, and finite
        in double wherever the matmul is."""
        table, weights = jacobidiff._oracle_table(JacobiParams(a, b), n - 1)
        ref = (table * weights) @ table.T
        got = jacobidiff._oracle_gram(table, weights)
        assert got.dtype == np.longdouble
        terms = np.abs(table * weights).astype(float) @ np.abs(table).astype(float).T
        assert np.all(np.abs(got - ref) <= 4 * n * 2.0**-64 * terms)
        assert np.isfinite(got.astype(float))[np.isfinite(ref.astype(float))].all()

    def test_one_rule_and_one_table_per_call(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(jacobidiff, "gauss_jacobi_rule", counted(gauss_jacobi_rule))
        monkeypatch.setattr(jacobidiff, "_orthonormal_table", counted(specfun._orthonormal_table))
        monkeypatch.setattr(jacobidiff, "kappa_vector", counted(kappa_vector))
        for module in (jacobidiff, specfun):
            monkeypatch.setattr(module, "jacobi_table", counted(jacobi_table), raising=False)
        oracle_matrix(P42, 12)
        assert calls == ["gauss_jacobi_rule", "_orthonormal_table"]
        calls.clear()
        oracle_entry(P42, 5, 2)
        assert calls == ["gauss_jacobi_rule", "_orthonormal_table"]


class TestBoundednessSums:
    def test_finite_grid(self):
        for a in (0.5, 1.0, 2.0, 4.0):
            for b in (0.5, 1.0, 2.0, 4.0):
                sums = boundedness_sums(JacobiParams(a, b))
                assert all(np.isfinite(sums))

    # Sums far below 1 (3.7e-18 for b1.b1 at (0.5, 12)) once stopped
    # early on an absolute rule, and the two routes then disagreed on 35
    # of these 81 pairs.
    GRID = (0.001, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 30.0)

    @pytest.mark.parametrize("a", GRID)
    def test_routes_agree_on_the_wide_grid(self, a):
        for b in self.GRID:
            sums = boundedness_sums(JacobiParams(a, b))
            assert all(np.isfinite(sums))

    def test_symmetric_parameters_match(self):
        for a in (0.5, 2.0):
            s11, _, s22 = boundedness_sums(JacobiParams(a, a))
            assert s11 == pytest.approx(s22, rel=1e-10)

    def test_tiny_sum_is_not_cut_short(self):
        # The direct b1.b1 sum at (0.5, 12) is 3.7e-18: a stop rule that is
        # absolute, not relative to the sum, ends it early.
        assert boundedness_sums(JacobiParams(0.5, 12.0))[0] == 3.686792816696148e-18

    def test_cross_term_sign_alternation_converges(self):
        s11, s12, s22 = boundedness_sums(P42)
        assert np.isfinite(s12) and s11 > 0 and s22 > 0


class TestBuild:
    def test_unknown_source(self):
        with pytest.raises(ValueError):
            build(P22, 4, "nope")

    def test_size_validation(self):
        with pytest.raises(DomainError):
            build(P22, 0, "closed_form")

    def test_route_agreement_small(self):
        mats = {s: build(P22, 8, s).dense() for s in SOURCES}
        for s in SOURCES[1:]:
            assert np.abs(mats[s] - mats["closed_form"]).max() <= 1e-11

    def test_parity_pattern(self):
        dense = build(JacobiParams(1.0, 1.0), 8, "recurrence").dense()
        m, n = np.indices((8, 8))
        assert np.abs(dense[(m + n) % 2 == 0]).max() <= 1e-13

    def test_non_finite_dense_route_raises(self):
        with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match=r"recurrence .* \(1\.0, 1000\.0, 64\)"
        ):
            build(JacobiParams(1.0, 1000.0), 64, "recurrence")

    def test_generator_build_carries_pair(self):
        b = build(P22, 8, "generators")
        pair = b.pair
        assert b.matrix is None
        assert isinstance(pair, semisep.SemiSepGenerators)
        assert np.shares_memory(pair.d, pair.b) and np.array_equal(pair.d, pair.b)
        assert np.array_equal(pair.e, -pair.a)
        assert np.array_equal(pair.c, np.zeros(8))
        for block in pair.blocks:
            assert not block.flags.writeable
        assert semisep.skew_expand(pair) is pair
        assert b.dense().shape == (8, 8)

    def test_dense_build_stores_read_only_matrix(self):
        for source in ("closed_form", "recurrence", "quadrature_oracle"):
            b = build(P22, 8, source)
            assert b.pair is None
            assert b.dense() is b.matrix
            with pytest.raises(ValueError):
                b.matrix[1, 0] = 0.0
            assert np.array_equal(b.matrix, -b.matrix.T)

    @pytest.mark.parametrize("params", [P22, P42, JacobiParams(0.5, 7.0)])
    @pytest.mark.parametrize("n", [1, 2, 24])
    @pytest.mark.parametrize("source", SOURCES)
    def test_bit_identical_to_packed_and_expanded_forms(self, source, n, params):
        """Every route gives, bit for bit, what it gave when dense routes
        stored a packed lower triangle and the skew pair was expanded into
        a separate SemiSepGenerators with d a copy of b.  A dense solve is
        one lu_factor and lu_solve; a generator solve, whose band is
        B0 + s B1, agrees with a fresh reduction to 2e-14."""
        rows, cols = np.tril_indices(n, k=-1)
        kvec = kappa_vector(params, n - 1)
        if source == "generators":
            a, b = jacobidiff._generator_vectors(params, n)
            g = semisep.SemiSepGenerators(n, a, b, np.zeros(n), b.copy(), -a)
            dense, matvec = g.to_dense(), g.matvec

            def solve(s, v):
                return semisep.ShiftedSolver(semisep.scale(g, s), 1.0).solve(v)
        else:
            if source == "closed_form":
                lower_packed = jacobidiff._closed_form_lower(params, rows, cols)
            elif source == "recurrence":
                dtilde = dtilde_lower_triangle(params, n)
                lower_packed = kvec[rows] * kvec[cols] * dtilde[rows, cols]
            else:  # the Gram of the orthonormal rows
                table, weights = jacobidiff._oracle_table(params, n - 1)
                lower_packed = jacobidiff._oracle_gram(table, weights).astype(float)[rows, cols]
            dense = np.zeros((n, n))
            dense[rows, cols] = lower_packed
            dense = dense - dense.T

            def matvec(v):
                return dense @ v

            def solve(s, v):
                return lu_solve(lu_factor(np.eye(n) + s * dense), v)
        built = build(params, n, source)
        v = np.random.default_rng(n).standard_normal(n)
        assert np.array_equal(built.dense(), dense)
        assert np.array_equal(built.matvec(v), matvec(v))
        for s in (0.1, -0.1):
            got, ref = built.solve_shifted(s, v), solve(s, v)
            if source == "generators":
                assert np.abs(got - ref).max() <= 2e-14 * np.abs(ref).max()
            else:
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("source", SOURCES)
    def test_both_paths_reject_the_same_inputs(self, source):
        b = build(P42, 8, source)
        for bad in (math.nan, math.inf):
            v = np.ones(8)
            v[3] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                b.solve_shifted(0.1, v)
            with pytest.raises(FloatingPointError, match="not finite"):
                b.matvec(v)
        for shape in ((8, 2), (7,), (1, 8), ()):
            with pytest.raises(ValueError):
                b.matvec(np.ones(shape))
            with pytest.raises(ValueError):
                b.solve_shifted(0.1, np.ones(shape))

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("n", [1, 2, 24])
    def test_operator_interface_matches_dense(self, source, n):
        b = build(P42, n, source)
        dense = b.dense()
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        assert np.abs(b.matvec(v) - dense @ v).max() <= 1e-12 * max(np.abs(dense).max(), 1.0)
        for s in (0.1, -0.05):
            x = b.solve_shifted(s, v)
            assert np.abs(x + s * (dense @ x) - v).max() <= 1e-12 * max(np.abs(v).max(), 1.0)


class TestFactorCache:
    def test_second_solve_reuses_the_factor(self, monkeypatch):
        calls = []
        original = semisep.reduce_to_banded

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(semisep, "reduce_to_banded", counting)
        b = build(P42, 32, "generators")
        v = np.random.default_rng(4).standard_normal(32)
        first = b.solve_shifted(0.1, v)
        assert len(calls) == 1
        assert np.array_equal(b.solve_shifted(0.1, v), first)
        b.solve_shifted(-0.1, v)
        b.solve_shifted(0.1, v)
        assert calls == [0.0]  # one reduction serves every shift

    def test_one_reduction_per_build(self, monkeypatch):
        calls = {"reduce_to_banded": 0, "_annihilation_coeffs": 0}
        for name in calls:
            original = getattr(semisep, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(semisep, name, counting)
        b = build(P42, 64, "generators")
        v = np.ones(64)
        for s in (0.1, -0.1, -5e-3, 0.37, 0.2, 0.1, -0.1):
            b.solve_shifted(s, v)
        assert calls == {"reduce_to_banded": 1, "_annihilation_coeffs": 1}

    def test_cache_stays_bounded(self):
        b = build(P42, 16, "generators")
        dense = b.dense()
        v = np.random.default_rng(5).standard_normal(16)
        shifts = [0.01 * (k + 1) for k in range(10)]
        for _ in range(3):
            for s in shifts:
                x = b.solve_shifted(s, v)
                assert np.abs(x + s * (dense @ x) - v).max() <= 1e-12
                assert len(b._cache["factors"]) <= 4
        assert list(b._cache["factors"]) == shifts[-4:]

    def test_failed_factor_keeps_the_cached_ones(self, monkeypatch):
        b = build(P42, 16, "generators")
        v = np.ones(16)
        for s in (0.1, 0.2, 0.3, 0.4):
            b.solve_shifted(s, v)

        def singular(bands, p, q):
            raise semisep.SingularityError("singular banded factor", 0)

        monkeypatch.setattr(semisep, "BandedMatrix", singular)
        with pytest.raises(semisep.SingularityError):
            b.solve_shifted(0.5, v)
        assert list(b._cache["factors"]) == [0.1, 0.2, 0.3, 0.4]

    def test_dense_routes_cache_a_bounded_lu(self):
        b = build(P42, 16, "closed_form")
        v = np.random.default_rng(5).standard_normal(16)
        b.matvec(v)
        assert b._cache == {}
        shifts = [0.01 * (k + 1) for k in range(6)]
        for s in shifts + shifts[-2:]:
            ref = lu_solve(lu_factor(np.eye(16) + s * b.matrix), v)
            assert np.array_equal(b.solve_shifted(s, v), ref)
            assert len(b._cache["factors"]) <= 4
        assert list(b._cache["factors"]) == shifts[-4:]

    @pytest.mark.parametrize("source", ["generators", "closed_form"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_raises_before_caching(self, source, bad):
        b = build(P42, 8, source)
        with pytest.raises(DomainError, match="finite"):
            b.solve_shifted(bad, np.ones(8))
        assert b._cache == {}

    def test_stepper_shifts_hold_little_memory(self):
        # The steppers' shifts at N = 16384, dt = 1e-3: +-sqrt(dt) and -dt/2.
        # Each keeps a 6N band factor and shares the build's reduction
        # (x, B0, B1: 12N), 30N or 3.75 MiB in all; a reduction per shift,
        # with its own scaled generators, would hold 45N (5.63 MiB).
        b = build(P22, 16384, "generators")
        v = np.random.default_rng(8).standard_normal(16384)
        tracemalloc.start()
        try:
            for s in (math.sqrt(1e-3), -math.sqrt(1e-3), -5e-4):
                b.solve_shifted(s, v)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 4.5 * 2**20 and peak <= 6.5 * 2**20

    def test_pair_cannot_be_written_in_place(self):
        b = build(P22, 8, "generators")
        with pytest.raises(ValueError):
            b.pair.a[0, 0] = 1.0
        with pytest.raises(ValueError):
            b.pair.b[:] = 0.0

    def test_dense_and_generator_factors_agree(self):
        bg = build(P42, 48, "generators")
        bd = build(P42, 48, "closed_form")
        rng = np.random.default_rng(6)
        for _ in range(3):
            v = rng.standard_normal(48)
            for s in (0.1, -0.1, -5e-3):
                xg, xd = bg.solve_shifted(s, v), bd.solve_shifted(s, v)
                assert np.abs(xg - xd).max() <= 1e-11 * max(np.abs(xd).max(), 1.0)
            assert np.abs(bg.matvec(v) - bd.matvec(v)).max() <= 1e-11 * np.abs(bd.dense()).max()

    def test_cache_is_not_an_option(self):
        b1 = build(P22, 4, "generators")
        b1.solve_shifted(0.1, np.ones(4))
        assert "_cache" not in repr(b1)
        with pytest.raises(TypeError):
            DiffMatrixBuild(params=P22, n=4, source="closed_form", _cache={})


class TestLargeSizeStability:
    def test_entries_finite_and_block_stable(self):
        big = build(P22, 2048, "closed_form").dense()
        small = build(P22, 256, "closed_form").dense()
        assert np.all(np.isfinite(big))
        assert np.array_equal(big[:256, :256], small)

    def test_generator_vectors_finite(self):
        pair = generators(P22, 2048)
        assert np.all(np.isfinite(pair.a)) and np.all(np.isfinite(pair.b))
