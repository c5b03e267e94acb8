"""Unit tests for basis evaluation, the coefficient map and the steppers."""

import math
import tracemalloc

import numpy as np
import pytest

from ssjacobi import jacobidiff, semisep, specfun, spectral
from ssjacobi.jacobidiff import kappa_vector
from ssjacobi.spectral import (
    CoeffVector,
    differentiate,
    expand,
    reconstruct,
    step_advection_cayley,
    step_diffusion,
    wfun_table,
)
from ssjacobi.specfun import (
    ConvergenceError,
    DomainError,
    JacobiParams,
    gauss_jacobi_rule,
    jacobi_table,
)

P22 = JacobiParams(2.0, 2.0)
P42 = JacobiParams(4.0, 2.0)


class TestBasisEvaluation:
    def test_endpoints_vanish(self):
        for p in (P22, P42, JacobiParams(0.5, 1.5)):
            for n in (0, 1, 5):
                assert np.array_equal(wfun_table(p, n, [1.0, -1.0])[n], [0.0, 0.0])

    def test_frozen_value_at_zero(self):
        assert wfun_table(P22, 0, 0.0)[0, 0] == pytest.approx(math.sqrt(15.0) / 4.0, rel=1e-14)

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            wfun_table(P22, 0, 1.0001)
        with pytest.raises(DomainError):
            wfun_table(P22, 3, np.array([0.0, -1.5]))

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError, match="degree"):
            wfun_table(P22, -1, 0.0)

    def test_unit_norms(self):
        # phi_n^2 is a polynomial of degree 2n plus the (integer) weight
        # exponents, so 32 flat-weight nodes integrate it exactly here.
        for p in (P22, P42):
            for n in (0, 2, 6):
                rule = gauss_jacobi_rule(0.0, 0.0, n + 32)
                nodes = np.asarray(rule.nodes, dtype=float)
                weights = np.asarray(rule.weights, dtype=float)
                vals = wfun_table(p, n, nodes)[n]
                assert float(weights @ vals**2) == pytest.approx(1.0, rel=1e-12)


class TestExpand:
    def test_basis_function_gives_unit_coordinate(self):
        u = expand(P22, lambda x: wfun_table(P22, 3, x)[3], 8)
        expected = np.zeros(8)
        expected[3] = 1.0
        assert np.abs(u.coeffs - expected).max() <= 1e-12

    def test_linearity(self):
        f = lambda x: 2.0 * wfun_table(P22, 0, x)[0] - wfun_table(P22, 2, x)[2]
        u = expand(P22, f, 6)
        expected = np.array([2.0, 0.0, -1.0, 0.0, 0.0, 0.0])
        assert np.abs(u.coeffs - expected).max() <= 1e-12

    def test_refinement_oracle(self):
        # (1-x^2)^2 is the full weight for these parameters; doubling the
        # node count must reproduce the same coefficients.
        from ssjacobi.specfun import jacobi_table
        from ssjacobi.jacobidiff import kappa_vector

        f = lambda x: (1.0 - x * x) ** 2
        n_size = 12
        u = expand(P22, f, n_size)
        rule = gauss_jacobi_rule(2.0, 2.0, 4 * n_size)
        nodes = np.asarray(rule.nodes, dtype=float)
        weights = np.asarray(rule.weights, dtype=float)
        ratio = np.array([f(x) for x in nodes]) / (
            (1.0 - nodes) ** 1.0 * (1.0 + nodes) ** 1.0
        )
        table = jacobi_table(2.0, 2.0, n_size - 1, nodes)
        ref = kappa_vector(P22, n_size - 1) * (table @ (weights * ratio))
        assert np.abs(u.coeffs - ref).max() <= 1e-12

    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError):
            expand(P22, lambda x: float("nan"), 4)
        with pytest.raises(ValueError):
            expand(P22, lambda x: x * np.nan, 4)
        with pytest.raises(ValueError):
            expand(P22, lambda x: np.inf if x > 0.5 else 0.0, 4)

    def test_array_function_is_called_once(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return (1.0 - x * x) ** 2 * np.cos(2.0 * x)

        expand(P42, f, 40)
        assert calls == [(80,)]

    @pytest.mark.parametrize(
        "scalar_f,array_f",
        [
            (
                lambda x: math.sin(3.0 * x) * (1.0 - x * x),
                lambda x: np.vectorize(math.sin)(3.0 * x) * (1.0 - x * x),
            ),
            (
                lambda x: (1.0 - x) ** 2 if x > 0.2 else (1.0 + x) * 0.64 / 1.2,
                lambda x: np.where(x > 0.2, (1.0 - x) ** 2, (1.0 + x) * 0.64 / 1.2),
            ),
            # Returns a scalar for an array: the wrong shape, so a fallback.
            (lambda x: float(np.max(x)) ** 2, lambda x: np.asarray(x, dtype=float) ** 2),
        ],
    )
    def test_scalar_function_falls_back_to_one_call_per_node(self, scalar_f, array_f):
        calls = []

        def counted(x):
            calls.append(np.ndim(x))
            return scalar_f(x)

        u = expand(P42, counted, 40)
        assert calls[0] == 1 and calls[1:] == [0] * 80
        assert np.array_equal(u.coeffs, expand(P42, array_f, 40).coeffs)

    def test_streamed_sums_equal_the_table_product(self):
        # Blocking the recurrence changes memory, not results: the same
        # double rows q_n of the double rule, each block of rows times the
        # weighted samples, as the same blocks of the full N x Q table,
        # scaled by t_n.  N = 50 is one block; N = 600 is 12 blocks of 54
        # rows.
        f = lambda x: (1.0 - x) ** 2 * (1.0 + x) * np.exp(x)
        for n_size in (50, 600):
            rule = gauss_jacobi_rule(4.0, 2.0, 2 * n_size, dtype=np.float64)
            samples = np.asarray(f(rule.nodes), dtype=float)
            ratio = samples / ((1.0 - rule.nodes) ** 2.0 * (1.0 + rule.nodes) ** 1.0)
            weighted = rule.weights * ratio
            t, blocks = specfun._orthonormal_rows(4.0, 2.0, n_size - 1, rule.nodes, n_size)
            [(_, table)] = blocks
            rows = specfun._block_rows(n_size - 1, rule.nodes.size)
            sums = np.concatenate([table[k : k + rows] @ weighted for k in range(0, n_size, rows)])
            assert table.dtype == t.dtype == np.float64
            assert np.array_equal(expand(P42, f, n_size).coeffs, t * sums)

    @pytest.mark.parametrize(
        "alpha,beta,n_size",
        [(2.0, 2.0, 1024), (1.0, 6.0, 1024), (12.0, 1.0, 1024), (0.5, 12.0, 1024),
         (30.0, 1.0, 1024), (100.0, 150.0, 1024),
         # The weights nearest -1 underflow double, and f with them.
         (2.3, 300.0, 1200)],
    )
    def test_double_rule_matches_the_extended_table_product(self, alpha, beta, n_size):
        # The double rule and double rows against the longdouble rule and
        # table; at most 4.1e-15 of max |c| was measured at N = 1024, and
        # 9.5e-15 at (2.3, 300, 1200).
        params = JacobiParams(alpha, beta)
        ha, hb = alpha / 2 + 1, beta / 2 + 1

        def f(x):
            return (1.0 - x) ** ha * (1.0 + x) ** hb * np.cos(3.0 * x + 0.4)

        got = expand(params, f, n_size).coeffs
        rule = gauss_jacobi_rule(alpha, beta, 2 * n_size)
        x = rule.nodes
        ratio = (1.0 - x) * (1.0 + x) * np.cos(3.0 * x + np.longdouble(0.4))
        table = jacobi_table(alpha, beta, n_size - 1, x)
        ref = (kappa_vector(params, n_size - 1) * (table @ (rule.weights * ratio))).astype(float)
        assert np.abs(got - ref).max() <= 2e-14 * np.abs(ref).max()

    def test_memory_is_linear_in_the_sizes(self):
        f = lambda x: (1.0 - x * x) ** 2 * np.sin(3.0 * x)
        expand(P22, f, 8)
        tracemalloc.start()
        try:
            expand(P22, f, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # An N x Q longdouble table alone would be 134 MB.
        assert peak <= 8 * 2**20

    def test_plancherel(self):
        f = lambda x: (1.0 - x * x) ** 2 * (1.0 + 0.5 * x)
        u = expand(P22, f, 16)
        rule = gauss_jacobi_rule(0.0, 0.0, 64)
        nodes = np.asarray(rule.nodes, dtype=float)
        weights = np.asarray(rule.weights, dtype=float)
        l2sq = float(weights @ np.array([f(x) ** 2 for x in nodes]))
        assert u.norm() ** 2 == pytest.approx(l2sq, abs=1e-11)


class TestExpandRuleCache:
    @pytest.fixture
    def computed(self, monkeypatch):
        """(alpha, beta, Q, dtype) of every rule expand computes."""
        calls = []

        def counted(alpha, beta, n_nodes, dtype=np.longdouble):
            calls.append((alpha, beta, n_nodes, np.dtype(dtype)))
            return gauss_jacobi_rule(alpha, beta, n_nodes, dtype=dtype)

        spectral._expand_rule.cache_clear()
        monkeypatch.setattr(spectral, "gauss_jacobi_rule", counted)
        yield calls
        spectral._expand_rule.cache_clear()

    @staticmethod
    def f(x):
        return (1.0 - x * x) ** 3 * np.exp(x)

    def test_one_rule_per_basis_and_size(self, computed):
        first = expand(P42, self.f, 40)
        second = expand(P42, lambda x: 2.0 * self.f(x), 40)
        assert computed == [(4.0, 2.0, 80, np.dtype(np.float64))]
        assert np.array_equal(second.coeffs, 2.0 * first.coeffs)

    def test_new_alpha_or_size_computes_a_new_rule(self, computed):
        expand(P42, self.f, 40)
        expand(JacobiParams(4.5, 2.0), self.f, 40)
        expand(P42, self.f, 41)
        expand(P42, self.f, 40)
        assert [c[:3] for c in computed] == [(4.0, 2.0, 80), (4.5, 2.0, 80), (4.0, 2.0, 82)]

    def test_keeps_at_most_eight_rules(self, computed):
        sizes = range(40, 49)  # nine Q
        for n in sizes:
            expand(P42, self.f, n)
        assert spectral._expand_rule.cache_info().currsize == 8
        expand(P42, self.f, 40)  # the oldest was evicted
        assert [c[2] for c in computed] == [2 * n for n in sizes] + [80]

    def test_a_rule_that_raises_is_not_cached(self, computed, monkeypatch):
        def failing(alpha, beta, n_nodes, dtype=np.longdouble):
            computed.append((alpha, beta, n_nodes, np.dtype(dtype)))
            raise ConvergenceError("no rule")

        monkeypatch.setattr(spectral, "gauss_jacobi_rule", failing)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                expand(P42, self.f, 40)
        assert len(computed) == 2
        assert spectral._expand_rule.cache_info().currsize == 0


class TestOneRecurrence:
    def test_every_route_runs_the_one_kernel(self, monkeypatch):
        # specfun holds one copy of the three-term recurrence: the rule
        # (once per sweep), the table, the basis table, expand (once its
        # rule is cached) and reconstruct all run _orthonormal_blocks.
        calls = []
        kernel = specfun._orthonormal_blocks

        def counted(*args, **kwargs):
            calls.append(args[2].size)
            return kernel(*args, **kwargs)

        f = lambda x: (1.0 - x * x) ** 2 * np.exp(x)
        u = expand(P42, f, 40)
        monkeypatch.setattr(specfun, "_orthonormal_blocks", counted)
        x = np.linspace(-1.0, 1.0, 11)
        routes = [
            (lambda: gauss_jacobi_rule(2.3, 4.1, 30, dtype=np.float64), [30, 30]),
            (lambda: gauss_jacobi_rule(2.3, 4.1, 30), [30, 30]),
            (lambda: jacobi_table(2.3, 4.1, 8, x), [11]),
            (lambda: wfun_table(P42, 8, x), [11]),
            (lambda: expand(P42, f, 40), [80]),
            (lambda: reconstruct(u, x), [11]),
        ]
        for route, sizes in routes:
            calls.clear()
            route()
            assert calls == sizes
        assert np.array_equal(expand(P42, f, 40).coeffs, u.coeffs)


class TestReconstruct:
    def test_round_trip_interior_points(self):
        n_size = 10
        f = lambda x: (1.0 - x) * (1.0 + x) * (1.0 + x - 0.3 * x**3)
        u = expand(JacobiParams(2.0, 2.0), lambda x: math.sqrt(
            (1.0 - x) ** 2 * (1.0 + x) ** 2
        ) * (1.0 + x - 0.3 * x**3), n_size)
        x = np.cos(np.pi * (np.arange(1, 34)) / 34.0) * 0.9
        vals = reconstruct(u, x)
        ref = np.sqrt((1.0 - x) ** 2 * (1.0 + x) ** 2) * (1.0 + x - 0.3 * x**3)
        assert np.abs(vals - ref).max() <= 1e-8

    def test_scalar_point(self):
        u = expand(P22, lambda x: wfun_table(P22, 1, x)[1], 4)
        got = reconstruct(u, 0.25)
        assert isinstance(got, float)
        assert got == pytest.approx(wfun_table(P22, 1, 0.25)[1, 0], abs=1e-12)

    @pytest.mark.parametrize("x", [1.5, [0.0, -1.0001]])
    def test_outside_domain_rejected(self, x):
        with pytest.raises(DomainError):
            reconstruct(CoeffVector(params=P22, coeffs=np.ones(3)), x)

    @pytest.mark.parametrize("params,n", [(P22, 1), (P22, 64), (P42, 1024),
                                          (JacobiParams(12.0, 1.0), 300)])
    def test_streamed_sum_equals_the_table_product(self, params, n):
        rng = np.random.default_rng(n)
        u = CoeffVector(params=params, coeffs=rng.standard_normal(n))
        x = np.concatenate([[-1.0, 1.0], np.linspace(-1.0, 1.0, 1001)])
        terms = u.coeffs[:, None] * wfun_table(params, n - 1, x)
        scale_ = np.abs(terms).sum(axis=0).max()
        assert np.abs(reconstruct(u, x) - terms.sum(axis=0)).max() <= 1e-14 * scale_

    def test_memory_is_linear_in_the_sizes(self):
        x = np.linspace(-1.0, 1.0, 1001)
        u = CoeffVector(params=P22, coeffs=np.ones(2048))
        reconstruct(CoeffVector(params=P22, coeffs=np.ones(8)), x)
        tracemalloc.start()
        try:
            reconstruct(u, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One N x len(x) double table alone would be 16 MB; the kernel's
        # buffer of 67 rows is 0.54 MB (0.91 MB peak in all).
        assert peak <= 2**20

    def test_zero_at_the_ends_and_raises_where_the_sum_overflows(self):
        # At beta = 300 and N = 1200, P_n reaches 3.3e310 at x = -0.99 and
        # 9.8e322 at -0.999, past the double range, but the orthonormal
        # functions the sum runs on only 4.9e266 and 1.5e279, so the values
        # there are those of f.
        params = JacobiParams(2.3, 300.0)
        ha, hb = 2.3 / 2 + 1, 300.0 / 2 + 1

        def f(x):
            return ((1.0 - x) / 2) ** ha * ((1.0 + x) / 2) ** hb * np.cos(3.0 * x + 0.4)

        u = expand(params, f, 1200)
        x = np.array([-1.0, 1.0, 0.0, 0.5, 0.9])
        vals = reconstruct(u, x)
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert np.abs(vals[2:] - f(x[2:])).max() <= 1e-12
        x = np.array([-0.999, -0.99])
        assert np.abs(reconstruct(u, x) - f(x)).max() <= 1e-12
        # At beta = 1000 the orthonormal functions themselves overflow near -1.
        u = CoeffVector(params=JacobiParams(2.3, 1000.0), coeffs=np.ones(1200))
        for bad in (-0.999, -0.99):
            with pytest.raises(FloatingPointError, match=r"\(2\.3, 1000\.0, 1200\).*-0\.99"):
                reconstruct(u, [0.0, bad, -0.5])


class TestDifferentiate:
    def test_zero_in_zero_out(self):
        b = jacobidiff.build(P22, 8, "generators")
        u = CoeffVector(params=P22, coeffs=np.zeros(8))
        assert np.array_equal(differentiate(b, u).coeffs, np.zeros(8))

    def test_derivative_reconstruction(self):
        # f is the full weight (1-x^2)^2 scaled to the lowest basis
        # function's normalization; its derivative is analytic.
        n_size = 16
        k0 = float(kappa_vector(P22, 0)[0])
        f = lambda x: k0 * (1.0 - x * x) ** 2
        fprime = lambda x: k0 * 2.0 * (1.0 - x * x) * (-2.0 * x)
        u = expand(P22, f, n_size)
        b = jacobidiff.build(P22, n_size, "generators")
        du = differentiate(b, u)
        assert reconstruct(du, 0.3) == pytest.approx(fprime(0.3), abs=1e-6)

    def test_generator_and_dense_routes_agree(self):
        bg = jacobidiff.build(P42, 32, "generators")
        bd = jacobidiff.build(P42, 32, "closed_form")
        rng = np.random.default_rng(1)
        u = CoeffVector(params=P42, coeffs=rng.standard_normal(32))
        g = differentiate(bg, u).coeffs
        d = differentiate(bd, u).coeffs
        assert np.abs(np.linalg.norm(g) - np.linalg.norm(d)) <= 1e-11
        assert np.abs(g - d).max() <= 1e-11

    def test_size_mismatch(self):
        b = jacobidiff.build(P22, 8, "generators")
        with pytest.raises(ValueError):
            differentiate(b, CoeffVector(params=P22, coeffs=np.zeros(9)))

    def test_params_mismatch(self):
        b = jacobidiff.build(P22, 8, "generators")
        with pytest.raises(ValueError):
            differentiate(b, CoeffVector(params=P42, coeffs=np.zeros(8)))


class TestDiffusionStepper:
    def test_zero_fixed_point(self):
        b = jacobidiff.build(P22, 8, "generators")
        u = CoeffVector(params=P22, coeffs=np.zeros(8))
        assert np.array_equal(step_diffusion(b, u, 1e-2).coeffs, np.zeros(8))

    def test_contraction(self):
        b = jacobidiff.build(P22, 64, "generators")
        rng = np.random.default_rng(2)
        u = CoeffVector(params=P22, coeffs=rng.standard_normal(64))
        assert step_diffusion(b, u, 1e-2).norm() <= u.norm()

    def test_structured_matches_dense(self):
        for p in (P22, P42, JacobiParams(0.5, 1.5)):
            bg = jacobidiff.build(p, 64, "generators")
            bd = jacobidiff.build(p, 64, "closed_form")
            rng = np.random.default_rng(3)
            u = CoeffVector(params=p, coeffs=rng.standard_normal(64))
            s = step_diffusion(bg, u, 1e-2).coeffs
            d = step_diffusion(bd, u, 1e-2).coeffs
            assert np.abs(s - d).max() <= 1e-10

    def test_invalid_dt(self):
        b = jacobidiff.build(P22, 8, "generators")
        u = CoeffVector(params=P22, coeffs=np.zeros(8))
        with pytest.raises(DomainError):
            step_diffusion(b, u, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt(self, dt):
        b = jacobidiff.build(P22, 8, "generators")
        u = CoeffVector(params=P22, coeffs=np.ones(8))
        with pytest.raises(DomainError, match="finite"):
            step_diffusion(b, u, dt)


_MARCH_POINTS = np.linspace(-0.9, 0.9, 721)


def _march(step, f, n_steps, t_end):
    """Values at _MARCH_POINTS after n_steps steps of size t_end / n_steps
    from f, at (2, 2) and N = 256."""
    b = jacobidiff.build(P22, 256, "generators")
    u = expand(P22, f, 256)
    for _ in range(n_steps):
        u = step(b, u, t_end / n_steps)
    return reconstruct(u, _MARCH_POINTS)


def _max_error(vals, exact):
    return float(np.abs(vals - exact(_MARCH_POINTS)).max())


class TestExactSolutions:
    def test_diffusion_heat_kernel_first_order(self):
        # g(x, t) = sqrt(t0/(t0+t)) exp(-x^2 / (4 (t0+t))) solves u_t = u_xx;
        # implicit Euler halves its error as the step count doubles.
        t0, t_end = 0.005, 0.002
        g = lambda x, t: np.sqrt(t0 / (t0 + t)) * np.exp(-x * x / (4 * (t0 + t)))
        exact = lambda x: g(x, t_end)
        err200 = _max_error(_march(step_diffusion, lambda x: g(x, 0.0), 200, t_end), exact)
        err400 = _max_error(_march(step_diffusion, lambda x: g(x, 0.0), 400, t_end), exact)
        assert err200 <= 3e-4
        assert 1.8 <= err200 / err400 <= 2.2

    def test_advection_moves_right_second_order(self):
        # The Cayley step solves u_t = -u_x: u(x, t) = f(x - t), not f(x + t).
        f = lambda x: np.exp(-40.0 * x * x)
        right = lambda x: f(x - 0.2)
        err200 = _max_error(_march(step_advection_cayley, f, 200, 0.2), right)
        vals400 = _march(step_advection_cayley, f, 400, 0.2)
        err400 = _max_error(vals400, right)
        assert err400 <= 1e-5
        assert _max_error(vals400, lambda x: f(x + 0.2)) >= 0.5
        assert 3.5 <= err200 / err400 <= 4.5


class TestCayleyStepper:
    def test_zero_fixed_point(self):
        b = jacobidiff.build(P22, 8, "generators")
        u = CoeffVector(params=P22, coeffs=np.zeros(8))
        assert np.array_equal(step_advection_cayley(b, u, 1e-2).coeffs, np.zeros(8))

    def test_norm_drift_100_steps(self):
        b = jacobidiff.build(P22, 64, "generators")
        rng = np.random.default_rng(4)
        u = CoeffVector(params=P22, coeffs=rng.standard_normal(64))
        start = u.norm()
        for _ in range(100):
            u = step_advection_cayley(b, u, 1e-2)
        assert abs(u.norm() - start) <= 1e-10

    @pytest.mark.parametrize("n", [64, 1024])
    def test_one_solve_equals_the_two_term_form(self, n):
        # u+ = 2 (I - hD)^-1 u - u against (I - hD)^-1 (u + hDu), h = dt/2.
        b = jacobidiff.build(P22, n, "generators")
        u = CoeffVector(params=P22, coeffs=np.random.default_rng(n).standard_normal(n))
        two_term = b.solve_shifted(-5e-3, u.coeffs + 5e-3 * b.matvec(u.coeffs))
        got = step_advection_cayley(b, u, 1e-2).coeffs
        assert np.linalg.norm(got - two_term) <= 1e-13 * u.norm()
        dense = step_advection_cayley(jacobidiff.build(P22, n, "closed_form"), u, 1e-2).coeffs
        assert np.linalg.norm(dense - got) <= 1e-10 * u.norm()

    def test_norm_drift_200_steps(self):
        b = jacobidiff.build(P22, 64, "generators")
        u = CoeffVector(params=P22, coeffs=np.random.default_rng(4).standard_normal(64))
        start = u.norm()
        for _ in range(200):
            u = step_advection_cayley(b, u, 1e-2)
        assert abs(u.norm() - start) <= 1e-13 * start

    def test_structured_matches_dense(self):
        bg = jacobidiff.build(P42, 128, "generators")
        bd = jacobidiff.build(P42, 128, "closed_form")
        rng = np.random.default_rng(5)
        u = CoeffVector(params=P42, coeffs=rng.standard_normal(128))
        s = step_advection_cayley(bg, u, 1e-2).coeffs
        d = step_advection_cayley(bd, u, 1e-2).coeffs
        assert np.abs(s - d).max() <= 1e-10

    def test_invalid_dt(self):
        b = jacobidiff.build(P22, 8, "generators")
        u = CoeffVector(params=P22, coeffs=np.zeros(8))
        with pytest.raises(DomainError):
            step_advection_cayley(b, u, -1.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt(self, dt):
        b = jacobidiff.build(P22, 8, "generators")
        u = CoeffVector(params=P22, coeffs=np.ones(8))
        with pytest.raises(DomainError, match="finite"):
            step_advection_cayley(b, u, dt)


class TestSolveTraffic:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.3, 4.1), (6.0, 1.5), (1.2, 5.7), (6.0, 6.0)])
    def test_march_solves_are_two_unit_sweeps(self, alpha, beta, monkeypatch):
        """Every band solve of the steppers' three shifts at N = 16384,
        dt = 1e-3, is two unit-diagonal tbsv sweeps and no gbtrs."""
        sweeps, gbtrs, per_solve = [], [], []
        tbsv, band_solve = semisep.dtbsv, semisep.BandedMatrix._solve

        def dtbsv(*args):
            sweeps.append(args[7])  # diag, passed positionally
            return tbsv(*args)

        def counted_solve(self, rhs):
            start = len(sweeps)
            out = band_solve(self, rhs)
            per_solve.append(sweeps[start:])
            return out

        monkeypatch.setattr(semisep, "dtbsv", dtbsv)
        monkeypatch.setattr(semisep, "dgbtrs", lambda *args: gbtrs.append(args))
        monkeypatch.setattr(semisep.BandedMatrix, "_solve", counted_solve)
        params = JacobiParams(alpha, beta)
        b = jacobidiff.build(params, 16384, "generators")
        coeffs = np.random.default_rng(9).standard_normal(16384) * np.exp(-np.arange(16384) / 2000)
        u = CoeffVector(params=params, coeffs=coeffs)
        for _ in range(2):  # the second round solves from the cached factors
            step_advection_cayley(b, step_diffusion(b, u, 1e-3), 1e-3)
        assert per_solve == [[1, 1]] * 6 and sweeps == [1] * 12 and gbtrs == []
        assert np.array_equal(u.coeffs, coeffs)


class TestCoeffVector:
    def test_norm_is_l2(self):
        u = CoeffVector(params=P22, coeffs=np.array([3.0, 4.0]))
        assert u.norm() == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoeffVector(params=P22, coeffs=np.array([np.inf, 0.0]))
        with pytest.raises(ValueError):
            CoeffVector(params=P22, coeffs=np.zeros((2, 2)))
