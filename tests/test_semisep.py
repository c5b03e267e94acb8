"""Unit tests for the generator-form semi-separable matrix layer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs

from ssjacobi import jacobidiff, semisep
from ssjacobi.semisep import (
    DENSE_CAP,
    BandedMatrix,
    SemiSepGenerators,
    ShiftedSolver,
    SingularityError,
    SkewGeneratorPair,
    dense_blocks,
    from_json,
    product,
    product_blocks,
    reduce_to_banded,
    scale,
    skew_expand,
    solve_structured,
    to_json,
)
from ssjacobi.specfun import JacobiParams


def random_generators(n, rank, rng):
    return SemiSepGenerators(
        n=n,
        a=rng.standard_normal((rank, n)),
        b=rng.standard_normal((rank, n)),
        c=rng.standard_normal(n),
        d=rng.standard_normal((rank, n)),
        e=rng.standard_normal((rank, n)),
    )


def band_offsets(n, p, q):
    """Offsets j - i of the diagonals held in (p, q) band storage of size n."""
    return range(max(-p, 1 - n), min(q, n - 1) + 1)


def band_to_dense(bands, p, q):
    """The matrix held in LAPACK band storage, bands[q + i - j, j] = A[i, j]."""
    n = bands.shape[1]
    dense = np.zeros((n, n))
    for k in band_offsets(n, p, q):
        dense += np.diag(bands[q - k, max(k, 0) : n + min(k, 0)], k)
    return dense


def dense_to_band(dense, p, q):
    """LAPACK band storage of the band |j - i| <= (p below, q above) of dense."""
    n = dense.shape[0]
    bands = np.zeros((p + q + 1, n))
    for k in band_offsets(n, p, q):
        bands[q - k, max(k, 0) : n + min(k, 0)] = np.diagonal(dense, k)
    return bands


def ones_offdiag(n):
    one = np.ones((1, n))
    return SemiSepGenerators(n=n, a=one, b=one, c=np.zeros(n), d=one, e=one)


class TestConstruction:
    def test_rank_zero_diagonal(self):
        g = SemiSepGenerators.diagonal([5.0, 6.0, 7.0])
        assert g.rank == 0
        assert g.entry(1, 1) == 6.0
        assert g.entry(0, 2) == 0.0
        expected = np.zeros((5, 3))
        expected[2] = [5.0, 6.0, 7.0]
        assert np.array_equal(g.diagonals([-3, -1, 0, 2, 4]), expected)

    def test_identity(self):
        assert np.array_equal(SemiSepGenerators.diagonal(np.ones(2)).to_dense(), np.eye(2))

    def test_entry_law_matches_dense(self):
        rng = np.random.default_rng(3)
        g = random_generators(6, 2, rng)
        dense = g.to_dense()
        for m in range(6):
            for n in range(6):
                assert g.entry(m, n) == pytest.approx(dense[m, n], abs=1e-15)
        offsets = range(-7, 8)
        for diag, k in zip(g.diagonals(offsets), offsets):
            along = np.diagonal(dense, k)  # zero-padded at the rows it does not reach
            expected = np.zeros(6)
            expected[max(-k, 0) : max(-k, 0) + along.size] = along
            assert np.abs(diag - expected).max() <= 1e-15

    def test_entry_out_of_range(self):
        g = SemiSepGenerators.diagonal(np.ones(3))
        with pytest.raises(IndexError):
            g.entry(3, 0)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            SemiSepGenerators(
                n=3,
                a=np.ones((1, 2)),
                b=np.ones((1, 3)),
                c=np.zeros(3),
                d=np.ones((1, 3)),
                e=np.ones((1, 3)),
            )
        with pytest.raises(ValueError):
            SemiSepGenerators(
                n=3,
                a=np.ones((1, 3)),
                b=np.ones((2, 3)),
                c=np.zeros(3),
                d=np.ones((1, 3)),
                e=np.ones((1, 3)),
            )

    def test_non_finite_rejected(self):
        bad = np.ones((1, 3))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError):
            SemiSepGenerators(
                n=3, a=bad, b=np.ones((1, 3)), c=np.zeros(3),
                d=np.ones((1, 3)), e=np.ones((1, 3)),
            )

    def test_dense_cap(self):
        n = DENSE_CAP + 1
        g = SemiSepGenerators.diagonal(np.ones(n))
        with pytest.raises(ValueError):
            g.to_dense()


class TestMatvec:
    def test_diagonal_action(self):
        g = SemiSepGenerators.diagonal([2.0, 3.0, 4.0])
        assert np.allclose(g.matvec(np.array([1.0, 1.0, 2.0])), [2.0, 3.0, 8.0])

    def test_all_ones_row_sums(self):
        g = ones_offdiag(3)
        assert np.allclose(g.matvec(np.ones(3)), [2.0, 2.0, 2.0])

    def test_random_rank2_against_dense(self):
        rng = np.random.default_rng(5)
        g = random_generators(50, 2, rng)
        v = rng.standard_normal(50)
        ref = g.to_dense() @ v
        scale_ = np.abs(v).max() * np.abs(g.to_dense()).max()
        assert np.abs(g.matvec(v) - ref).max() <= 1e-12 * max(scale_, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        rank=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matvec_property(self, n, rank, seed):
        rng = np.random.default_rng(seed)
        g = random_generators(n, rank, rng)
        v = rng.standard_normal(n)
        ref = g.to_dense() @ v
        scale_ = max(np.abs(ref).max(), 1.0)
        assert np.abs(g.matvec(v) - ref).max() <= 1e-12 * scale_

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SemiSepGenerators.diagonal(np.ones(3)).matvec(np.ones(4))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_overflowing_result_raises(self, rank):
        # The generators are finite, the entries of A (1e400) are not.
        big = np.full((rank, 8), 1e200)
        g = SemiSepGenerators(n=8, a=big, b=big, c=np.ones(8), d=big, e=-big)
        with pytest.raises(FloatingPointError, match="not finite"):
            g.matvec(np.ones(8))


class TestScale:
    @pytest.mark.parametrize("s", [-1.0, 0.37, -2.5e3])
    def test_matches_scaled_dense(self, s):
        rng = np.random.default_rng(7)
        g = random_generators(10, 2, rng)
        ref = s * g.to_dense()
        assert np.abs(scale(g, s).to_dense() - ref).max() <= 1e-15 * np.abs(ref).max()


class TestProductRank1:
    """`product` on rank-1 operands: the rank-1 special case."""

    def test_all_ones_square(self):
        g = ones_offdiag(3)
        expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        assert np.allclose(np.asarray(product(g, g).to_dense(), dtype=float), expected)

    def test_diagonal_factor_scales_rows(self):
        rng = np.random.default_rng(9)
        n = 8
        diag = SemiSepGenerators(
            n=n, a=np.zeros((1, n)), b=rng.standard_normal((1, n)),
            c=rng.standard_normal(n), d=np.zeros((1, n)),
            e=rng.standard_normal((1, n)),
        )
        gb = random_generators(n, 1, rng)
        got = np.asarray(product(diag, gb).to_dense(), dtype=float)
        assert np.allclose(got, np.diag(diag.c) @ gb.to_dense(), atol=1e-13)

    def test_random_draws_match_dense(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ga = random_generators(20, 1, rng)
            gb = random_generators(20, 1, rng)
            dp = ga.to_dense() @ gb.to_dense()
            got = np.asarray(product(ga, gb).to_dense(), dtype=float)
            assert np.abs(got - dp).max() <= 1e-12 * max(np.abs(dp).max(), 1.0)

    def test_result_rank_is_two(self):
        rng = np.random.default_rng(11)
        assert product(
            random_generators(6, 1, rng), random_generators(6, 1, rng)
        ).rank == 2


class TestProduct:
    def test_identity_neutral(self):
        rng = np.random.default_rng(13)
        g = random_generators(12, 2, rng)
        got = np.asarray(product(SemiSepGenerators.diagonal(np.ones(12)), g).to_dense(), dtype=float)
        assert np.abs(got - g.to_dense()).max() <= 1e-13

    @pytest.mark.parametrize("ra,rb", [(1, 2), (2, 2), (3, 1), (2, 3), (0, 0), (0, 2), (2, 0)])
    def test_random_ranks_match_dense(self, ra, rb):
        rng = np.random.default_rng(100 + 10 * ra + rb)
        for n in (30, 1, 2):
            ga = random_generators(n, ra, rng)
            gb = random_generators(n, rb, rng)
            dp = ga.to_dense() @ gb.to_dense()
            prod = product(ga, gb)
            assert prod.rank == ra + rb
            got = np.asarray(prod.to_dense(), dtype=float)
            assert np.abs(got - dp).max() <= 1e-12 * max(np.abs(dp).max(), 1.0)

    def test_skew_square_structure(self):
        params = JacobiParams(2.0, 2.0)
        g = jacobidiff.generators(params, 16)
        sq = np.asarray(product(g, g).to_dense(), dtype=float)
        dmat = g.to_dense()
        assert np.abs(sq - dmat @ dmat).max() <= 1e-11
        assert np.abs(sq - sq.T).max() <= 1e-11
        assert np.linalg.eigvalsh((sq + sq.T) / 2).max() <= 1e-10 * np.abs(sq).max()


def transpose(g):
    """A^T through the public constructor: (a, b, c, d, e) read as (e, d, c, b, a)."""
    return SemiSepGenerators(g.n, a=g.e, b=g.d, c=g.c, d=g.b, e=g.a)


class TestProductTranspose:
    @pytest.mark.parametrize("ra", [0, 1, 2, 3])
    @pytest.mark.parametrize("rb", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_product_of_transposes_is_the_transpose(self, ra, rb, n):
        rng = np.random.default_rng(40 + 16 * ra + 4 * rb + n)
        ga, gb = random_generators(n, ra, rng), random_generators(n, rb, rng)
        ab = product(ga, gb).to_dense()
        ba = product(transpose(gb), transpose(ga)).to_dense().T
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(ab[off], ba[off])
        # The diagonal sums the same rank-pair terms in the other order, so
        # it may differ in the last bits of extended precision.
        tol = 64 * np.finfo(np.longdouble).eps * np.abs(ab).max()
        assert np.all(np.abs(np.diag(ab) - np.diag(ba)) <= tol)

    def test_one_construction_per_product(self, monkeypatch):
        rng = np.random.default_rng(41)
        ga, gb = random_generators(9, 2, rng), random_generators(9, 1, rng)
        made = []

        class Counting(SemiSepGenerators):
            def __post_init__(self):
                made.append(self.n)
                super().__post_init__()

        monkeypatch.setattr(semisep, "SemiSepGenerators", Counting)
        product(ga, gb)
        assert made == [9]

    def test_rank_zero_dense_form_keeps_the_extended_diagonal(self):
        g = SemiSepGenerators.diagonal(np.random.default_rng(42).standard_normal(5))
        p = product(g, g)
        assert p.rank == 0 and p.c.dtype == np.longdouble
        dense = p.to_dense()
        assert dense.dtype == np.longdouble
        assert np.array_equal(dense, np.diag(p.c))


def stacked_blocks(lead, n, rank, rng, dtype):
    """Random generator blocks (a, b, c, d, e) with leading axes ``lead``."""
    return tuple(
        rng.standard_normal(lead + shape).astype(dtype)
        for shape in ((rank, n), (rank, n), (n,), (rank, n), (rank, n))
    )


def item(blocks, index):
    return SemiSepGenerators(len(blocks[2][index]), *(v[index] for v in blocks))


class TestStackedBlocks:
    """`product_blocks` and `dense_blocks` on stacks: each item as one call."""

    LEAD = (2, 3)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_stacked_product_is_the_product_of_each_pair(self, rank, dtype):
        rng = np.random.default_rng(60 + rank)
        A = stacked_blocks(self.LEAD, 9, rank, rng, dtype)
        B = stacked_blocks(self.LEAD, 9, rank, rng, dtype)
        stack = product_blocks(A, B)
        dense = dense_blocks(stack)
        assert dense.shape == self.LEAD + (9, 9) and dense.dtype == np.longdouble
        for index in np.ndindex(self.LEAD):
            one = product(item(A, index), item(B, index))
            for got, want in zip(stack, one.blocks):
                assert np.array_equal(got[index], want)
            assert np.array_equal(dense[index], one.to_dense())

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_stacked_dense_form_is_each_dense_form(self, rank, dtype):
        blocks = stacked_blocks(self.LEAD, 7, rank, np.random.default_rng(70 + rank), dtype)
        dense = dense_blocks(blocks)
        assert dense.shape == self.LEAD + (7, 7) and dense.dtype == dtype
        for index in np.ndindex(self.LEAD):
            want = item(blocks, index).to_dense()
            assert dense[index].dtype == want.dtype
            assert np.array_equal(dense[index], want)

    @pytest.mark.parametrize("lead", [(), LEAD])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_dense_form_is_the_triangle_formula(self, rank, n, dtype, lead):
        a, b, c, d, e = blocks = stacked_blocks(lead, n, rank, np.random.default_rng(80 + n), dtype)
        want = np.triu(np.swapaxes(a, -1, -2) @ b, 1) + np.tril(np.swapaxes(d, -1, -2) @ e, -1)
        i = np.arange(n)
        want[..., i, i] = c
        got = dense_blocks(blocks)
        assert got.dtype == dtype and np.array_equal(got, want)

    def test_dense_cap_applies_to_stacks(self):
        n = DENSE_CAP + 1
        z = np.zeros((2, 0, n))
        with pytest.raises(ValueError, match="dense cap"):
            dense_blocks((z, z, np.zeros((2, n)), z, z))


class TestSkewGeneratorPair:
    def test_stores_read_only_copies(self):
        a = np.ones((2, 4))
        b = np.arange(8.0).reshape(2, 4)
        pair = SkewGeneratorPair(n=4, a=a, b=b)
        with pytest.raises(ValueError):
            pair.a[0, 0] = 5.0
        a[0, 0] = 7.0  # the caller's array stays writeable and is not shared
        assert pair.a[0, 0] == 1.0
        assert b.flags.writeable


class TestSkewExpand:
    def test_rank_zero_is_zero_matrix(self):
        pair = SkewGeneratorPair(n=3, a=np.zeros((0, 3)), b=np.zeros((0, 3)))
        assert np.array_equal(skew_expand(pair).to_dense(), np.zeros((3, 3)))

    def test_two_by_two(self):
        pair = SkewGeneratorPair(n=2, a=np.ones((1, 2)), b=np.ones((1, 2)))
        assert np.array_equal(skew_expand(pair).to_dense(), [[0.0, 1.0], [-1.0, 0.0]])

    def test_exact_skew_symmetry(self):
        params = JacobiParams(4.0, 2.0)
        dense = jacobidiff.generators(params, 32).to_dense()
        assert np.array_equal(dense, -dense.T)


class TestSolveStructured:
    def test_rank_zero_diagonal(self):
        g = SemiSepGenerators.diagonal([2.0, 4.0, 8.0])
        x = solve_structured(g, 0.0, np.array([2.0, 4.0, 8.0]))
        assert np.allclose(x, np.ones(3))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_overflowing_reduction_raises(self, rank):
        # The generators are finite, the entries of A (1e400) are not.
        big = np.full((rank, 8), 1e200)
        g = SemiSepGenerators(n=8, a=big, b=big, c=np.ones(8), d=big, e=big)
        with pytest.raises(FloatingPointError, match="not finite in column 0"):
            solve_structured(g, 1.0, np.ones(8))

    def test_diffusion_system_matches_dense(self):
        params = JacobiParams(2.0, 2.0)
        g = jacobidiff.generators(params, 64)
        sq = product(g, g)
        rhs = np.zeros(64)
        rhs[0] = 1.0
        x = np.asarray(solve_structured(scale(sq, -1e-2), 1.0, rhs), dtype=float)
        dmat = g.to_dense()
        ref = np.linalg.solve(np.eye(64) - 1e-2 * (dmat @ dmat), rhs)
        assert np.abs(x - ref).max() <= 1e-10

    def test_cayley_system_matches_dense(self):
        params = JacobiParams(2.0, 2.0)
        g = jacobidiff.generators(params, 128)
        rng = np.random.default_rng(15)
        rhs = rng.standard_normal(128)
        x = solve_structured(scale(g, -0.5e-2), 1.0, rhs)
        dmat = g.to_dense()
        ref = np.linalg.solve(np.eye(128) - 0.5e-2 * dmat, rhs)
        assert np.abs(x - ref).max() <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        rank=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_residual_property(self, n, rank, seed):
        rng = np.random.default_rng(seed)
        g = random_generators(n, rank, rng)
        shift = 10.0 * max(np.abs(g.to_dense()).sum(axis=1).max(), 1.0)
        rhs = rng.standard_normal(n)
        x = solve_structured(g, shift, rhs)
        resid = shift * x + g.matvec(x) - rhs
        assert np.abs(resid).max() <= 1e-9 * (1.0 + np.abs(rhs).max())

    def test_dense_cross_check_large(self):
        rng = np.random.default_rng(16)
        g = random_generators(512, 2, rng)
        shift = 10.0 * np.abs(g.to_dense()).sum(axis=1).max()
        rhs = rng.standard_normal(512)
        x = solve_structured(g, shift, rhs)
        ref = np.linalg.solve(shift * np.eye(512) + g.to_dense(), rhs)
        assert np.abs(x - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)

    def test_singular_system_raises(self):
        g = SemiSepGenerators.diagonal(np.zeros(3))
        with pytest.raises(SingularityError):
            solve_structured(g, 0.0, np.ones(3))


def dense_reduction_factors(g, shift):
    """Dense T, M and C of the reduction, built from what it returns.

    T is unit lower banded with T[m, m-i] = -row_coeffs[m, i-1], and C is
    unit upper banded with C[k-j, k] = -col_coeffs[k, j-1].
    """
    bands, row_coeffs, col_coeffs = reduce_to_banded(g, shift)
    n, r = col_coeffs.shape
    assert row_coeffs.shape == (n, r)
    t_mat = np.eye(n)
    c_mat = np.eye(n)
    for j in range(1, min(r, n - 1) + 1):
        t_mat -= np.diag(row_coeffs[j:, j - 1], -j)
        c_mat -= np.diag(col_coeffs[j:, j - 1], j)
    m_mat = shift * np.eye(n) + np.asarray(g.to_dense(), dtype=float)
    return bands, row_coeffs, t_mat, m_mat, c_mat


class TestReduceToBanded:
    CASES = [(n, rank, seed) for n in (1, 2, 3, 5, 12, 40)
             for rank in (0, 1, 2, 3) for seed in (0, 1)]

    @staticmethod
    def check(g, shift, rhs):
        bands, row_coeffs, t_mat, m_mat, c_mat = dense_reduction_factors(g, shift)
        n, r = g.n, g.rank
        assert bands.shape == (2 * r + 1, n)
        rhs2 = semisep._row_transform(row_coeffs, rhs)
        assert np.all(np.abs(rhs2 - t_mat @ rhs) <= 1e-13 * (np.abs(t_mat) @ np.abs(rhs)))
        prod = t_mat @ m_mat @ c_mat
        # Entrywise roundoff scale of the triple product.  Entries of M
        # that cancel in a generator product still carry roundoff of the
        # size of the product of the generator magnitudes.
        g_abs = SemiSepGenerators(n=n, a=np.abs(g.a), b=np.abs(g.b), c=np.abs(g.c),
                                  d=np.abs(g.d), e=np.abs(g.e))
        m_abs = abs(shift) * np.eye(n) + g_abs.to_dense()
        scale_ = np.abs(t_mat) @ m_abs @ np.abs(c_mat)
        in_band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= r
        tol = 1e-13 * scale_ + 1e-300
        assert np.all(np.abs(band_to_dense(bands, r, r) - np.where(in_band, prod, 0.0)) <= tol)
        assert np.all(np.abs(np.where(in_band, 0.0, prod)) <= tol)
        x = c_mat @ solve_banded((r, r), bands, rhs2)
        ref = np.linalg.solve(m_mat, rhs)
        assert np.abs(x - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)

    @pytest.mark.parametrize("n,rank,seed", CASES)
    def test_random_generators(self, n, rank, seed):
        rng = np.random.default_rng(1000 * n + 10 * rank + seed)
        g = random_generators(n, rank, rng)
        shift = 10.0 * max(np.abs(g.to_dense()).sum(axis=1).max(), 1.0)
        self.check(g, shift, rng.standard_normal(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("alpha,beta,s", [(2.0, 2.0, 0.1), (4.0, 2.0, -0.1), (12.0, 1.0, 0.3)])
    def test_differentiation_operator(self, n, alpha, beta, s):
        g = scale(jacobidiff.generators(JacobiParams(alpha, beta), n), s)
        self.check(g, 1.0, np.random.default_rng(n).standard_normal(n))


# Unpivoted band solves multiply by the pivots' reciprocals where gbtrs
# divides (see BandedMatrix): at most 1.6e-14 of max |ref| was measured
# against reference_solve on TestShiftedSolver's grid.
SWEEP_RTOL = 4e-14


def assert_solve_close(x, ref):
    assert np.abs(x - ref).max() <= SWEEP_RTOL * np.abs(ref).max()


def reference_solve(g, shift, rhs):
    """The unfactored solve: reduce, one LAPACK gbsv on the band (scipy's
    solve_banded at rank >= 2), column back-map."""
    bands, row_coeffs, col_coeffs = reduce_to_banded(g, shift)
    z = solve_banded((g.rank, g.rank), bands, semisep._row_transform(row_coeffs, rhs))
    x = z.copy()
    for j in range(1, min(g.rank, g.n - 1) + 1):
        x[:-j] -= col_coeffs[j:, j - 1] * z[j:]
    return x


class TestShiftedSolver:
    PAIRS = [(2.0, 2.0), (1.0, 6.0), (0.5, 1.5), (4.0, 2.0), (8.0, 0.5), (12.0, 1.0)]
    SCALES = (0.1, -0.1, -5e-3, 0.3, -1.0)
    # The (alpha, beta, N) grid of the acceptance suite.
    ACCEPTANCE = [(a, b, n) for a, b in [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (4.0, 2.0),
                                         (2.0, 4.0), (1.0, 3.0)] for n in (4, 16, 64)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1024, 16384])
    @pytest.mark.parametrize("alpha,beta", PAIRS)
    def test_bit_identical_to_unfactored_solve(self, alpha, beta, n):
        """Bit for bit the unfactored solve where the factor pivots (gbtrs
        on both sides); without pivoting, within SWEEP_RTOL of it and of a
        dense solve."""
        g = jacobidiff.generators(JacobiParams(alpha, beta), n)
        rhs = np.random.default_rng(n).standard_normal(n)
        for s in self.SCALES:
            gs = scale(g, s)
            solver = ShiftedSolver(gs, 1.0)
            ref = reference_solve(gs, 1.0, rhs)
            x = solver.solve(rhs)
            assert np.array_equal(solver.solve(rhs), x)  # the factor is not consumed
            assert np.array_equal(solve_structured(gs, 1.0, rhs), x)
            if solver.band.piv is not None:
                assert np.array_equal(x, ref)
                continue
            assert_solve_close(x, ref)
            if n <= 1024:
                assert_solve_close(x, np.linalg.solve(np.eye(n) + gs.to_dense(), rhs))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40])
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_shifts_share_one_reduction(self, rank, n):
        """On general generators B0 is the band of T C, and the factors of
        every shift from one reduction are those of a fresh one."""
        rng = np.random.default_rng(100 * n + rank)
        g = random_generators(n, rank, rng)
        reduction = semisep._reduction(g)
        _, _, t_mat, _, c_mat = dense_reduction_factors(g, 0.0)
        tc = t_mat @ c_mat
        in_band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= rank
        assert not np.where(in_band, 0.0, tc).any()
        # Summed in another order than the matrix product: at most 0.92 ulp
        # of the entrywise scale |T| |C| was measured.
        tol = 4 * np.finfo(float).eps * (np.abs(t_mat) @ np.abs(c_mat))
        assert np.all(np.abs(band_to_dense(reduction[0], rank, rank) - tc) <= tol)
        assert np.array_equal(dense_to_band(band_to_dense(reduction[0], rank, rank), rank, rank), reduction[0])
        rhs = rng.standard_normal(n)
        base = 10.0 * max(np.abs(g.to_dense()).sum(axis=1).max(), 1.0)
        for shift in (base, -base, 0.5 * base, 3.0 * base):
            solver = ShiftedSolver(g, shift, 1.0, reduction)
            x = solver.solve(rhs)
            assert np.array_equal(x, ShiftedSolver(g, shift).solve(rhs))
            ref = reference_solve(g, shift, rhs)
            if rank == 1:  # solve_banded takes gtsv, another elimination: 1.2e-12 measured
                assert np.abs(x - ref).max() <= 1e-11 * np.abs(ref).max()
            elif solver.band.piv is not None:
                assert np.array_equal(x, ref)
            else:
                assert_solve_close(x, ref)
                assert_solve_close(x, np.linalg.solve(shift * np.eye(n) + g.to_dense(), rhs))

    @pytest.mark.parametrize("alpha,beta", PAIRS)
    def test_scale_minus_one_takes_the_pivoting_solve(self, alpha, beta):
        # So that test_bit_identical_to_unfactored_solve covers gbtrs too.
        for n in (2, 64, 16384):
            g = jacobidiff.generators(JacobiParams(alpha, beta), n)
            assert ShiftedSolver(scale(g, -1.0), 1.0).band.piv is not None

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.3, 4.1), (6.0, 1.5), (1.2, 5.7)])
    def test_march_shifts_factor_without_interchanges(self, alpha, beta):
        # The steppers' shifts at N = 16384, dt = 1e-3: +-sqrt(dt) for the
        # diffusion step and -dt/2 for the Cayley step.  The triangular
        # sweeps take U with q superdiagonals, which relies on gbtrf leaving
        # the p fill-in rows exactly 0 when it interchanges no rows.
        n, r = 16384, 2
        g = jacobidiff.generators(JacobiParams(alpha, beta), n)
        for s in (np.sqrt(1e-3), -np.sqrt(1e-3), -5e-4):
            ab = np.zeros((3 * r + 1, n))
            ab[r:] = reduce_to_banded(scale(g, s), 1.0)[0]
            lu, piv, info = dgbtrf(ab, r, r)
            assert info == 0 and np.array_equal(piv, np.arange(n))
            assert not lu[:r].any()
            assert ShiftedSolver(scale(g, s), 1.0).band.piv is None

    @pytest.mark.parametrize("alpha,beta,n", ACCEPTANCE)
    def test_residual_on_acceptance_grid(self, alpha, beta, n):
        g = jacobidiff.generators(JacobiParams(alpha, beta), n)
        rhs = np.random.default_rng(n).standard_normal(n)
        for s in self.SCALES:
            solver = ShiftedSolver(scale(g, s), 1.0)
            assert solver.residual(solver.solve(rhs), rhs) <= 1e-13

    def test_residual_detects_a_wrong_solution(self):
        g = jacobidiff.generators(JacobiParams(2.0, 2.0), 64)
        rhs = np.random.default_rng(3).standard_normal(64)
        solver = ShiftedSolver(scale(g, 0.1), 1.0)
        x = solver.solve(rhs)
        x[10] *= 1.0 + 1e-6
        assert solver.residual(x, rhs) > 1e-9

    def test_growth_is_largest_annihilation_coefficient(self):
        rng = np.random.default_rng(21)
        g = random_generators(30, 2, rng)
        solver = ShiftedSolver(g, 50.0)
        coeffs = np.concatenate([solver.row_coeffs.ravel(), solver.col_coeffs.ravel()])
        assert solver.growth == np.abs(coeffs).max() > 0
        assert ShiftedSolver(SemiSepGenerators.diagonal([2.0, 3.0]), 1.0).growth == 0.0

    def test_growth_of_differentiation_operator_is_contracting(self):
        g = jacobidiff.generators(JacobiParams(4.0, 2.0), 1024)
        assert ShiftedSolver(scale(g, -0.5), 1.0).growth <= 1.0

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_one_reduction_and_two_coefficient_solves(self, rank, monkeypatch):
        calls = {"reduce_to_banded": 0, "_annihilation_coeffs": 0}
        for name in calls:
            original = getattr(semisep, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(semisep, name, counting)
        g = random_generators(12, rank, np.random.default_rng(rank))
        ShiftedSolver(g, 50.0)
        assert calls == {"reduce_to_banded": 1, "_annihilation_coeffs": 2}

    def test_rejects_wrong_rhs_length(self):
        solver = ShiftedSolver(random_generators(5, 2, np.random.default_rng(22)), 20.0)
        with pytest.raises(ValueError):
            solver.solve(np.ones(4))

    def test_singular_band_raises_at_construction(self):
        with pytest.raises(SingularityError):
            ShiftedSolver(SemiSepGenerators.diagonal(np.zeros(3)), 0.0)

    @pytest.mark.parametrize("s", [0.1, -1.0])  # without and with row interchanges
    def test_checks_rhs_once(self, s, monkeypatch):
        # solve checks rhs and hands its row transform, a double array of
        # shape (n,), to the band's unchecked solve, which gives the bits
        # of the public one.
        solver = ShiftedSolver(scale(jacobidiff.generators(JacobiParams(2.3, 4.1), 64), s), 1.0)
        rhs = np.random.default_rng(23).standard_normal(64)
        z = semisep._row_transform(solver.row_coeffs, rhs)
        assert np.array_equal(solver.band._solve(z), solver.band.solve(z))
        expected = solver.solve(rhs)
        checked, as_vector = [], semisep._as_vector
        monkeypatch.setattr(semisep, "_as_vector", lambda *args: checked.append(args) or as_vector(*args))
        assert np.array_equal(solver.solve(rhs), expected) and len(checked) == 1


class TestSkewReduction:
    """The congruence C^T (I + sD) C = B0 + s B1 of a skew pair D."""

    PARAMS = [(a, b) for a in (0.5, 2.0, 12.0) for b in (0.5, 2.0, 12.0)]
    SHIFTS = (0.01, -0.01, 0.37, -5e-4)

    @staticmethod
    def transpose_band(bands, r):
        """Band storage of B^T from that of B: B^T[i, j] = B[j, i]."""
        out = np.zeros_like(bands)
        n = bands.shape[1]
        for p in range(-r, r + 1):  # bands[r - p, k] = B[k - p, k] = B^T[k, k - p]
            lo, hi = max(p, 0), n + min(p, 0)
            out[r + p, lo - p : hi - p] = bands[r - p, lo:hi]
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
    @pytest.mark.parametrize("alpha,beta", PARAMS)
    def test_bands_match_a_fresh_reduction(self, alpha, beta, n):
        g = jacobidiff.generators(JacobiParams(alpha, beta), n)
        b0, b1, _, x = semisep._reduction(g)
        assert np.array_equal(b0, self.transpose_band(b0, 2))  # exactly symmetric
        for s in self.SHIFTS:
            fresh, row_coeffs, col_coeffs = reduce_to_banded(scale(g, s), 1.0)
            band = b0 + s * b1
            assert np.array_equal(col_coeffs, x)
            assert np.abs(band - fresh).max() <= 1e-14 * np.abs(fresh).max()
            flipped = self.transpose_band(b0 - s * b1, 2)
            assert np.abs(flipped - band).max() <= 1e-15 * np.abs(band).max()

    def test_pair_reuses_its_column_coefficients(self, monkeypatch):
        g = jacobidiff.generators(JacobiParams(4.0, 2.0), 40)
        copied = SemiSepGenerators(g.n, g.a, g.b, g.c, g.b.copy(), g.e)
        calls = []
        original = semisep._annihilation_coeffs
        monkeypatch.setattr(semisep, "_annihilation_coeffs", lambda gen: calls.append(gen) or original(gen))
        bands, row_coeffs, col_coeffs = reduce_to_banded(g, 0.3)
        assert len(calls) == 1 and row_coeffs is col_coeffs
        ref = reduce_to_banded(copied, 0.3)
        assert len(calls) == 3
        assert all(map(np.array_equal, (bands, row_coeffs, col_coeffs), ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
    @pytest.mark.parametrize("alpha,beta", PARAMS)
    def test_zero_shift_returns_rhs(self, alpha, beta, n):
        # B0 = C^T C squares the conditioning of C: at most 3.8e-15 was
        # measured up to N = 64 and 3.5e-13 at N = 1024 over PARAMS.
        g = jacobidiff.generators(JacobiParams(alpha, beta), n)
        rhs = np.random.default_rng(n).standard_normal(n)
        x = ShiftedSolver(g, 1.0, 0.0, semisep._reduction(g)).solve(rhs)
        bound = 5e-13 if n == 1024 else 1e-14
        assert np.abs(x - rhs).max() <= bound * np.abs(rhs).max()

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (0.5, 12.0)])
    def test_solver_matches_the_scaled_one(self, alpha, beta):
        g = jacobidiff.generators(JacobiParams(alpha, beta), 1024)
        reduction = semisep._reduction(g)
        rhs = np.random.default_rng(7).standard_normal(1024)
        for s in (0.1, -0.1, -5e-3, 0.37):
            ref = ShiftedSolver(scale(g, s), 1.0)
            solver = ShiftedSolver(g, 1.0, s, reduction)
            x = solver.solve(rhs)
            assert solver.g is g and solver.col_coeffs is reduction[3]
            assert np.abs(x - ref.solve(rhs)).max() <= 2e-14 * np.abs(x).max()
            assert solver.growth == pytest.approx(ref.growth, rel=1e-15)
            assert solver.residual(x, rhs) <= 1e-13


class TestAnnihilationCoeffs:
    @staticmethod
    def batched(gen, n, r):
        """The coefficients by one batched LU solve of every local system."""
        rows = np.arange(r, n)
        idx = rows[:, None] - 1 - np.arange(r)[None, :]
        x = np.zeros((n, r))
        x[rows] = np.linalg.solve(gen[:, idx].transpose(1, 0, 2), gen[:, rows].T[..., None])[..., 0]
        return x

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (2.0, 2.0), (1.0, 6.0), (12.0, 1.0),
                                            (0.5, 12.0), (30.0, 1.0), (2.3, 4.1)])
    def test_cramer_matches_lu_on_the_differentiation_generators(self, alpha, beta):
        # At most 2.1 ulp of each system's largest coefficient was measured
        # at N = 64 and 1024.
        for n in (64, 1024):
            g = jacobidiff.generators(JacobiParams(alpha, beta), n)
            for gen in (g.b, g.d):
                got = semisep._annihilation_coeffs(gen)
                ref = self.batched(np.asarray(gen, dtype=float), n, 2)
                bound = 4 * np.finfo(float).eps * np.abs(ref).max(axis=1, keepdims=True)
                assert np.all(np.abs(got - ref) <= bound)

    def test_other_ranks_are_unchanged(self):
        g = random_generators(40, 3, np.random.default_rng(30))
        assert np.array_equal(semisep._annihilation_coeffs(g.b), self.batched(g.b, 40, 3))

    def test_singular_consistent_system_takes_least_squares(self):
        # Columns 1 and 2 are equal, so the system of m = 3 is exactly
        # singular; column 3 is twice column 2, so it is consistent.
        gen = np.array([[1.0, 2.0, 2.0, 4.0], [3.0, 1.0, 1.0, 2.0]])
        x = semisep._annihilation_coeffs(gen)
        assert np.allclose(x[3, 0] * gen[:, 2] + x[3, 1] * gen[:, 1], gen[:, 3], atol=1e-12)
        assert np.all(np.isfinite(x))

    def test_singular_inconsistent_system_raises(self):
        gen = np.array([[1.0, 2.0, 2.0, 4.0], [3.0, 1.0, 1.0, 5.0]])
        with pytest.raises(SingularityError) as info:
            semisep._annihilation_coeffs(gen)
        assert info.value.pivot_index == 3


class TestSubmatrixRankLaw:
    def test_strictly_upper_blocks(self):
        rng = np.random.default_rng(17)
        for rank in (1, 2, 3):
            g = random_generators(40, rank, rng)
            dense = g.to_dense()
            for _ in range(10):
                i = int(rng.integers(1, 39))
                j = int(rng.integers(i + 1, 40))
                sub = dense[:i, j:]
                if min(sub.shape) > rank:
                    sv = np.linalg.svd(sub, compute_uv=False)
                    if sv[0] > 0:
                        assert sv[rank] <= 1e-10 * sv[0]


class TestBandedMatrix:
    @staticmethod
    def banded_dense(rng, n, p, q):
        return np.triu(np.tril(rng.standard_normal((n, n)), q), -p) + 5 * np.eye(n)

    def test_solve_matches_dense(self):
        rng = np.random.default_rng(19)
        dense = self.banded_dense(rng, 9, 2, 2)
        rhs = rng.standard_normal(9)
        banded = BandedMatrix(dense_to_band(dense, 2, 2), 2, 2)
        assert np.allclose(banded.solve(rhs), np.linalg.solve(dense, rhs))

    def test_solves_twice_from_one_factor(self):
        rng = np.random.default_rng(23)
        dense = self.banded_dense(rng, 11, 2, 1)
        banded = BandedMatrix(dense_to_band(dense, 2, 1), 2, 1)
        for rhs in rng.standard_normal((2, 11)):
            assert np.allclose(banded.solve(rhs), np.linalg.solve(dense, rhs))

    def test_singular_raises(self):
        with pytest.raises(SingularityError) as info:
            BandedMatrix(np.array([[1.0, 0.0, 2.0]]), 0, 0)
        assert info.value.pivot_index == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_band_raises(self, bad):
        bands = np.ones((3, 6))
        bands[0, 4] = bands[2, 5] = bad
        with pytest.raises(FloatingPointError, match="column 4"):
            BandedMatrix(bands, 1, 1)

    def test_wrong_number_of_rows_raises(self):
        with pytest.raises(ValueError):
            BandedMatrix(np.ones((4, 6)), 2, 2)

    @pytest.mark.parametrize("p,q", [(0, 0), (2, 1), (1, 3), (0, 2), (3, 0), (2, 2)])
    def test_sweeps_without_interchanges_match_gbtrs(self, p, q):
        rng = np.random.default_rng(10 * p + q)
        dense = self.banded_dense(rng, 40, p, q)
        dense += np.diag(np.abs(dense).sum(axis=0))  # column dominant: no interchanges
        bands = dense_to_band(dense, p, q)
        banded = BandedMatrix(bands, p, q)
        assert banded.piv is None
        ab = np.zeros((2 * p + q + 1, 40))
        ab[p:] = bands
        lu, piv, _ = dgbtrf(ab, p, q)
        rhs = rng.standard_normal(40)
        kept = rhs.copy()
        x = banded.solve(rhs)
        assert np.array_equal(rhs, kept)
        assert_solve_close(x, dgbtrs(lu, p, q, rhs, piv)[0])
        assert_solve_close(x, np.linalg.solve(dense, rhs))

    @pytest.mark.parametrize("pivoting", [False, True])
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (2, 1), (1, 3)])
    def test_in_place_factor_matches_the_copying_one(self, p, q, pivoting):
        rng = np.random.default_rng(100 * p + 10 * q + pivoting)
        dense = self.banded_dense(rng, 50, p, q) - 5 * np.eye(50)
        if not pivoting:
            dense += np.diag(np.abs(dense).sum(axis=0))  # column dominant: no interchanges
        bands = dense_to_band(dense, p, q)
        banded = BandedMatrix(bands, p, q)
        ab = np.zeros((2 * p + q + 1, 50))  # C order: dgbtrf factors a copy
        ab[p:] = bands
        lu, piv, _ = dgbtrf(ab, p, q)
        assert (banded.piv is not None) == pivoting == (not np.array_equal(piv, np.arange(50)))
        if pivoting:
            assert np.array_equal(banded.lu, lu) and np.array_equal(banded.piv, piv)
        else:
            lower, upper = semisep._unit_factors(lu, p, q)
            assert np.array_equal(banded._lower, lower) and np.array_equal(banded._upper, upper)

    @pytest.mark.parametrize("p,q", [(0, 0), (2, 1), (1, 3), (0, 2), (3, 0), (2, 2)])
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_unit_factors_rebuild_the_band(self, n, p, q):
        """D L~ U^ is the band to a few ulp of |L| |U|, the scale of the
        roundoff of L U itself: at most 1.7 ulp was measured."""
        rng = np.random.default_rng(100 * n + 10 * p + q)
        dense = self.banded_dense(rng, n, p, q)
        dense += np.diag(np.abs(dense).sum(axis=0))  # column dominant: no interchanges
        bands = dense_to_band(dense, p, q)
        banded = BandedMatrix(bands, p, q)
        assert banded.piv is None
        ab = np.zeros((2 * p + q + 1, n))
        ab[p:] = bands
        lu = dgbtrf(ab, p, q)[0]
        lower = np.eye(n) + np.tril(band_to_dense(lu[p + q :], p, 0), -1)
        upper = np.triu(band_to_dense(lu[p : p + q + 1], 0, q))
        pivots = banded._upper[q]
        assert np.array_equal(pivots, np.diag(upper))
        assert np.array_equal(banded._lower[0], 1.0 / pivots)
        unit_lower = np.eye(n) + np.tril(band_to_dense(banded._lower, p, 0), -1)
        unit_upper = np.eye(n) + np.triu(band_to_dense(banded._upper, 0, q), 1)
        rebuilt = pivots[:, None] * unit_lower @ unit_upper
        tol = 4 * np.finfo(float).eps * (np.abs(lower) @ np.abs(upper))
        assert np.all(np.abs(rebuilt - dense) <= tol)

    @pytest.mark.parametrize("what,bands,p,q,column", [
        ("reciprocal", np.vstack([np.zeros((2, 4)), [[1.0, 1.0, 1e-310, 1.0]], np.zeros((2, 4))]), 2, 2, 2),
        ("ratio", np.array([[0.0, 0.0], [1e300, 1e-300], [1e10, 0.0]]), 1, 1, 0),
    ])
    def test_overflowing_pivot_raises(self, what, bands, p, q, column):
        # A pivot of 1e-310 once gave an all-NaN solve with no warning.  The
        # pivots 1e300 and 1e-300 with L = 1e-290 give L~ = 1e310.
        with pytest.raises(SingularityError, match=f"pivot {what} overflows") as info:
            BandedMatrix(bands, p, q)
        assert info.value.pivot_index == column

    def test_wrong_rhs_length_raises(self):
        pivoting = np.array([[1e-3, 1.0, 0.0], [1.0, 1e-3, 1.0], [0.0, 1.0, 1e-3]])
        bandeds = (BandedMatrix(np.ones((1, 3)), 0, 0),
                   BandedMatrix(dense_to_band(pivoting, 1, 1), 1, 1))
        assert [banded.piv is None for banded in bandeds] == [True, False]  # both paths
        for banded in bandeds:
            for rhs in (np.ones(2), np.ones(4), np.ones((3, 1))):
                with pytest.raises(ValueError):
                    banded.solve(rhs)


class TestJsonSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(20)
        for rank in range(4):
            for n in (1, 2, 9):
                g = random_generators(n, rank, rng)
                back = from_json(to_json(g))
                assert back.rank == rank
                assert all(map(np.array_equal, back.blocks, g.blocks))

    def test_refuses_longdouble_blocks(self):
        g = jacobidiff.generators(JacobiParams(2.0, 2.0), 8)
        with pytest.raises(ValueError, match=str(np.dtype(np.longdouble))):
            to_json(product(g, g))

    def test_schema_keys(self):
        payload = json.loads(to_json(SemiSepGenerators.diagonal(np.ones(3))))
        assert sorted(payload) == ["a", "b", "c", "d", "e", "n", "rank"]
        assert payload["n"] == 3 and payload["rank"] == 0
