"""Unit tests for the differentiation-matrix construction routes."""

import csv
import math

import mpmath
import numpy as np
import pytest

from ssjacobi import jacobidiff, semisep
from ssjacobi.jacobidiff import (
    SOURCES,
    DiffMatrixBuild,
    boundedness_sums,
    build,
    d_entry_closed_form,
    dtilde_first_column,
    dtilde_lower_triangle,
    generators,
    kappa,
    kappa_vector,
    oracle_entry,
    oracle_matrix,
    recurrence_coeffs,
    t_s_integrals,
    write_dense_csv,
)
from ssjacobi.specfun import DomainError, JacobiParams, gauss_jacobi_rule, jacobi_table

P22 = JacobiParams(2.0, 2.0)
P21 = JacobiParams(2.0, 1.0)
P42 = JacobiParams(4.0, 2.0)


class TestKappa:
    def test_frozen_values(self):
        assert kappa(JacobiParams(0.5, 0.5), 0) > 0
        assert kappa(P22, 0) == pytest.approx(math.sqrt(15.0) / 4.0, rel=1e-14)
        assert kappa(P22, 1) == pytest.approx(math.sqrt(35.0 / 48.0), rel=1e-14)

    def test_limit_parameters(self):
        # kappa_0 for the flat weight tends to 1/sqrt(2) as both exponents
        # shrink; probe with a small positive value.
        small = JacobiParams(1e-8, 1e-8)
        assert kappa(small, 0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)

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

    def test_vector_consistency(self):
        kv = kappa_vector(P42, 6)
        for n in range(7):
            assert kv[n] == pytest.approx(kappa(P42, n), rel=1e-15)

    def test_normalizes_unit_mass(self):
        # Orthonormality against the weight: the n-th normalized polynomial
        # has unit weighted L2 norm.
        from ssjacobi.specfun import gauss_jacobi_rule, jacobi_eval

        for n in (0, 3, 7):
            rule = gauss_jacobi_rule(P42.alpha, P42.beta, n + 1)
            nodes = np.asarray(rule.nodes, dtype=float)
            weights = np.asarray(rule.weights, dtype=float)
            vals = kappa(P42, n) * jacobi_eval(P42.alpha, P42.beta, n, nodes)
            assert float(weights @ vals**2) == pytest.approx(1.0, rel=1e-12)


class TestTSIntegrals:
    def test_frozen_values(self):
        p11 = JacobiParams(1.0, 1.0)
        t0, s0 = t_s_integrals(p11, 0)
        assert t0 == pytest.approx(2.0, rel=1e-14)
        assert s0 == pytest.approx(2.0, rel=1e-14)

    def test_odd_index_sign(self):
        for p in (P22, P21, P42):
            _, s1 = t_s_integrals(p, 1)
            assert s1 < 0

    def test_quadrature_cross_check(self):
        # t_m integrates ((1+x)/2)^m against the (a-1, b) weight; s_m
        # integrates ((1-x)/2)^m against the (a, b-1) weight with
        # alternating sign.
        from ssjacobi.specfun import gauss_jacobi_rule

        p = JacobiParams(2.0, 3.0)
        for m in (0, 1, 4):
            rule = gauss_jacobi_rule(p.alpha - 1, p.beta, m + 4)
            nodes = np.asarray(rule.nodes, dtype=float)
            weights = np.asarray(rule.weights, dtype=float)
            t_ref = float(weights @ ((1.0 + nodes) / 2.0) ** m)
            rule2 = gauss_jacobi_rule(p.alpha, p.beta - 1, m + 4)
            nodes2 = np.asarray(rule2.nodes, dtype=float)
            weights2 = np.asarray(rule2.weights, dtype=float)
            s_ref = (-1.0) ** m * float(weights2 @ ((1.0 - nodes2) / 2.0) ** m)
            tm, sm = t_s_integrals(p, m)
            assert tm == pytest.approx(t_ref, rel=1e-12)
            assert sm == pytest.approx(s_ref, rel=1e-12)


class TestFirstColumn:
    def test_frozen_values(self):
        assert dtilde_first_column(P22, 1) == pytest.approx(8.0 / 5.0, rel=1e-13)
        assert dtilde_first_column(P21, 1) == pytest.approx(5.0 / 3.0, rel=1e-13)

    def test_symmetric_even_vanishes(self):
        for m in (2, 4, 6):
            assert abs(dtilde_first_column(P22, m)) <= 1e-14

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
        c0, d0, e0 = recurrence_coeffs(P22, 0)
        assert d0 == 0.0
        assert c0 == pytest.approx(1.0 / 5.0, rel=1e-14)
        assert e0 == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_positivity(self):
        for p in (P22, P42, JacobiParams(0.5, 1.5)):
            for n in range(8):
                cn, _, en = recurrence_coeffs(p, n)
                assert cn > 0 and en > 0


class TestLowerTriangleTable:
    def test_diagonal_zero(self):
        table = dtilde_lower_triangle(P22, 8)
        assert np.abs(np.diag(table)).max() == 0.0

    def test_frozen_entries(self):
        table = dtilde_lower_triangle(P22, 4)
        assert table[1, 0] == pytest.approx(8.0 / 5.0, rel=1e-13)
        assert abs(table[2, 0]) <= 1e-13
        # Cross-check an interior entry against exact quadrature.
        ref = oracle_entry(P22, 2, 1) / (kappa(P22, 2) * kappa(P22, 1))
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
        ref = kappa(P21, 1) * kappa(P21, 0) * (5.0 / 3.0)
        assert d_entry_closed_form(P21, 1, 0) == pytest.approx(ref, rel=1e-13)

    def test_skew_orientation(self):
        assert d_entry_closed_form(P22, 0, 1) == pytest.approx(
            -d_entry_closed_form(P22, 1, 0), rel=1e-15
        )

    def test_symmetric_even_zero(self):
        for m, n in [(2, 0), (3, 1), (5, 3)]:
            assert abs(d_entry_closed_form(P22, m, n)) <= 1e-13

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

    def test_one_rule_and_one_table_per_call(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(jacobidiff, "gauss_jacobi_rule", counted(gauss_jacobi_rule))
        monkeypatch.setattr(jacobidiff, "jacobi_table", counted(jacobi_table))
        oracle_matrix(P42, 12)
        assert calls == ["gauss_jacobi_rule", "jacobi_table"]
        calls.clear()
        oracle_entry(P42, 5, 2)
        assert calls == ["gauss_jacobi_rule", "jacobi_table"]


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
        a separate SemiSepGenerators with d a copy of b."""
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
            else:
                if source == "recurrence":
                    dtilde = dtilde_lower_triangle(params, n)
                else:
                    table, weights = jacobidiff._oracle_table(params, n - 1)
                    dtilde = ((table * weights) @ table.T).astype(float)
                lower_packed = kvec[rows] * kvec[cols] * dtilde[rows, cols]
            dense = np.zeros((n, n))
            dense[rows, cols] = lower_packed
            dense = dense - dense.T

            def matvec(v):
                return dense @ v

            def solve(s, v):
                return np.linalg.solve(np.eye(n) + s * dense, v)
        built = build(params, n, source)
        v = np.random.default_rng(n).standard_normal(n)
        assert np.array_equal(built.dense(), dense)
        assert np.array_equal(built.matvec(v), matvec(v))
        for s in (0.1, -0.1):
            assert np.array_equal(built.solve_shifted(s, v), solve(s, v))

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
        assert len(calls) == 2

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

        def singular(g, shift):
            raise semisep.SingularityError("singular banded factor", 0)

        monkeypatch.setattr(jacobidiff, "ShiftedSolver", singular)
        with pytest.raises(semisep.SingularityError):
            b.solve_shifted(0.5, v)
        assert list(b._cache["factors"]) == [0.1, 0.2, 0.3, 0.4]

    def test_dense_routes_cache_nothing(self):
        b = build(P42, 16, "closed_form")
        v = np.ones(16)
        b.matvec(v)
        b.solve_shifted(0.1, v)
        assert b._cache == {}

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


class TestCsvExport:
    def test_round_trip_17_digits(self, tmp_path):
        b = build(P42, 6, "recurrence")
        path = tmp_path / "d.csv"
        write_dense_csv(b, path)
        with open(path, newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh)]
        assert np.array_equal(np.array(rows), b.dense())
