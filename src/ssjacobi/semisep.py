"""Generator-form semi-separably generated matrices.

An N x N matrix is stored through rank-r generator vectors: entries
strictly above the diagonal are sum_i a[i][m] * b[i][n], the diagonal is
c, and entries strictly below are sum_i d[i][m] * e[i][n].  Matrix-vector
products run in O(N r) via prefix/suffix sweeps, and shifted linear
systems are solved in O(N r^2) by eliminating the off-diagonal generator
structure down to a banded matrix with 2r+1 diagonals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

__all__ = [
    "SemiSepGenerators",
    "SkewGeneratorPair",
    "BandedMatrix",
    "ShiftedSolver",
    "SingularityError",
    "DENSE_CAP",
    "skew_expand",
    "add",
    "scale",
    "product",
    "product_blocks",
    "dense_blocks",
    "solve_structured",
    "truncate",
    "to_json",
    "from_json",
]

DENSE_CAP = 4096


class SingularityError(ArithmeticError):
    """Elimination hit a singular or numerically rank-deficient pivot."""

    def __init__(self, message: str, pivot_index: int):
        super().__init__(f"{message} (pivot index {pivot_index})")
        self.pivot_index = pivot_index


def _gen_dtype(arr: np.ndarray):
    # Extended precision is preserved when supplied (products of large
    # generator vectors lose absolute accuracy if rounded to double);
    # everything else is stored as float64.
    return np.longdouble if arr.dtype == np.longdouble else float


def _as_gen_block(vectors, n: int, what: str) -> np.ndarray:
    arr = np.asarray(vectors)
    arr = arr.astype(_gen_dtype(arr), copy=False)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, n)
    if arr.ndim != 2 or (arr.size and arr.shape[1] != n):
        raise ValueError(f"{what} generators must be (rank, {n}) shaped")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} generators contain non-finite entries")
    return arr.reshape(arr.shape[0], n)


@dataclass(frozen=True)
class SemiSepGenerators:
    """Rank-r generator representation of an N x N matrix.

    The rank is a storage bound, not a guarantee: zero or linearly
    dependent generator vectors are allowed.
    """

    n: int
    a: np.ndarray  # (r, n) upper-left
    b: np.ndarray  # (r, n) upper-right
    c: np.ndarray  # (n,)   diagonal
    d: np.ndarray  # (r, n) lower-left
    e: np.ndarray  # (r, n) lower-right

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"size must be >= 1, got {self.n}")
        object.__setattr__(self, "a", _as_gen_block(self.a, self.n, "upper-left"))
        object.__setattr__(self, "b", _as_gen_block(self.b, self.n, "upper-right"))
        object.__setattr__(self, "d", _as_gen_block(self.d, self.n, "lower-left"))
        object.__setattr__(self, "e", _as_gen_block(self.e, self.n, "lower-right"))
        c = np.asarray(self.c)
        c = c.astype(_gen_dtype(c), copy=False)
        if c.shape != (self.n,):
            raise ValueError("diagonal must have length n")
        if not np.all(np.isfinite(c)):
            raise ValueError("diagonal contains non-finite entries")
        object.__setattr__(self, "c", c)
        ranks = {self.a.shape[0], self.b.shape[0], self.d.shape[0], self.e.shape[0]}
        if len(ranks) != 1:
            raise ValueError("generator blocks disagree on rank")

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def diagonal(c) -> "SemiSepGenerators":
        c = np.asarray(c, dtype=float)
        n = c.size
        z = np.zeros((0, n))
        return SemiSepGenerators(n=n, a=z, b=z, c=c, d=z, e=z)

    @staticmethod
    def identity(n: int) -> "SemiSepGenerators":
        return SemiSepGenerators.diagonal(np.ones(n))

    def entry(self, m: int, n: int) -> float:
        if not (0 <= m < self.n and 0 <= n < self.n):
            raise IndexError(f"index ({m}, {n}) out of range for size {self.n}")
        if m < n:
            return float(self.a[:, m] @ self.b[:, n])
        if m == n:
            return float(self.c[n])
        return float(self.d[:, m] @ self.e[:, n])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A @ v in O(N r) via suffix sums of b*v and prefix sums of e*v."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"vector length {v.shape} does not match size {self.n}")
        out = self.c * v
        if self.rank:
            suffix = _suffix(self.b * v)
            prefix = _excl_prefix(self.e * v)
            out = out + np.einsum("in,in->n", self.a, suffix)
            out = out + np.einsum("in,in->n", self.d, prefix)
        return out

    @property
    def blocks(self) -> tuple:
        """The generator blocks (a, b, c, d, e)."""
        return self.a, self.b, self.c, self.d, self.e

    def to_dense(self) -> np.ndarray:
        return dense_blocks(self.blocks)

    def diagonals(self, offsets) -> np.ndarray:
        """Full-length diagonals of the matrix, zero-padded outside range.

        Row i holds the diagonal at offset k = offsets[i], indexed by
        matrix row: out[i, m] = A[m, m+k] for valid m, zero elsewhere.
        """
        n = self.n
        out = np.zeros((len(offsets), n))
        for diag, k in zip(out, offsets):
            if k == 0:
                diag[:] = self.c
            elif self.rank and abs(k) < n:
                if k > 0:
                    diag[: n - k] = np.einsum("im,im->m", self.a[:, : n - k], self.b[:, k:])
                else:
                    diag[-k:] = np.einsum("im,im->m", self.d[:, -k:], self.e[:, : n + k])
        return out


class SkewGeneratorPair(SemiSepGenerators):
    """Generator form of a skew-symmetric matrix, from its upper-triangle
    generators (a, b): c = 0, d = b and e = -a, so that the dense matrix
    satisfies A + A^T = 0 exactly.

    d is b itself, not a copy.  All five blocks are read-only, and a and b
    are copies of the arguments, so a factorization cached for the pair
    cannot go stale.
    """

    def __init__(self, n: int, a, b):
        a, b = (_as_gen_block(v, n, what).copy() for v, what in ((a, "skew a"), (b, "skew b")))
        if a.shape != b.shape:
            raise ValueError("skew generator blocks must share a shape")
        super().__init__(n=n, a=a, b=b, c=np.zeros(n), d=b, e=-a)
        for block in self.blocks:
            block.flags.writeable = False


def skew_expand(pair: SkewGeneratorPair) -> SemiSepGenerators:
    """The generator form of the pair: the pair itself, since a
    ``SkewGeneratorPair`` is a ``SemiSepGenerators``."""
    return pair


def add(ga: SemiSepGenerators, gb: SemiSepGenerators) -> SemiSepGenerators:
    """Generator-level sum; ranks add, dense forms add exactly."""
    if ga.n != gb.n:
        raise ValueError(f"size mismatch: {ga.n} vs {gb.n}")
    return SemiSepGenerators(
        n=ga.n,
        a=np.vstack([ga.a, gb.a]),
        b=np.vstack([ga.b, gb.b]),
        c=ga.c + gb.c,
        d=np.vstack([ga.d, gb.d]),
        e=np.vstack([ga.e, gb.e]),
    )


def scale(g: SemiSepGenerators, s: float) -> SemiSepGenerators:
    """s * A, scaling the row-side generators and the diagonal."""
    return SemiSepGenerators(n=g.n, a=s * g.a, b=g.b, c=s * g.c, d=s * g.d, e=g.e)


def _excl_prefix(x: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums along the last axis: out[n] = sum_{k<n} x[k]."""
    c = np.cumsum(x, axis=-1)
    out = np.empty_like(c)
    out[..., 0] = 0.0
    out[..., 1:] = c[..., :-1]
    return out


def _suffix(x: np.ndarray) -> np.ndarray:
    """Exclusive suffix sums along the last axis: out[n] = sum_{k>n} x[k]."""
    return _excl_prefix(x[..., ::-1])[..., ::-1]


def dense_blocks(blocks: tuple) -> np.ndarray:
    """Dense form of the generator blocks (a, b, c, d, e): the strict upper
    triangle of a^T b, c on the diagonal and the strict lower triangle of
    d^T e, in c's dtype.

    The blocks may carry the same leading axes, (..., r, n) and (..., n)
    for c; the result is then the stack (..., n, n) of their dense forms.
    """
    a, b, c, d, e = blocks
    n = c.shape[-1]
    if n > DENSE_CAP:
        raise ValueError(f"size {n} exceeds dense cap {DENSE_CAP}")
    dense = np.triu(np.swapaxes(a, -1, -2) @ b, 1) + np.tril(np.swapaxes(d, -1, -2) @ e, -1)
    dense = dense.astype(c.dtype, copy=False)  # the diagonal's dtype, as np.diag(c)
    i = np.arange(n)
    dense[..., i, i] = c
    return dense


def _product_upper(A: tuple, B: tuple):
    """Upper generators (a, b) and diagonal c of A B, from the factors'
    generator blocks A = (a, b, c, d, e) and B, with any leading axes
    that the two share."""
    aA, bA, cA, dA, eA = A
    aB, bB, cB, dB, eB = B
    ra, rb = aA.shape[-2], aB.shape[-2]

    # Pairwise cross sums, shape (..., ra, rb, n).
    pe = _excl_prefix(eA[..., :, None, :] * aB[..., None, :, :])    # sum_{k<m} eA_k aB_k
    bp = _excl_prefix(bA[..., :, None, :] * aB[..., None, :, :])    # sum_{k<m} bA_k aB_k
    bp_inc = bp + bA[..., :, None, :] * aB[..., None, :, :]
    bs = _suffix(bA[..., :, None, :] * dB[..., None, :, :])          # sum_{k>m} bA_k dB_k

    # rb pairs (u_j, bB_j), then ra pairs (aA_i, v_i).
    ups_a, ups_b = [], []
    if rb:
        u = cA[..., None, :] * aB
        if ra:
            u = u + np.einsum("...im,...ijm->...jm", dA, pe)
            u = u - np.einsum("...im,...ijm->...jm", aA, bp_inc)
        ups_a.append(u)
        ups_b.append(bB)
    if ra:
        v = bA * cB[..., None, :]
        if rb:
            v = v + np.einsum("...jm,...ijm->...im", bB, bp)
            v = v + np.einsum("...jm,...ijm->...im", eB, bs)
        ups_a.append(aA)
        ups_b.append(v)
    empty = np.zeros(cA.shape[:-1] + (0, cA.shape[-1]))
    a_out = np.concatenate(ups_a, axis=-2) if ups_a else empty
    b_out = np.concatenate(ups_b, axis=-2) if ups_b else empty

    c_out = cA * cB
    if ra and rb:
        c_out = c_out + np.einsum("...im,...jm,...ijm->...m", dA, bB, pe)
        c_out = c_out + np.einsum("...im,...jm,...ijm->...m", aA, eB, bs)
    return a_out, b_out, c_out


def product_blocks(A: tuple, B: tuple) -> tuple:
    """Generator blocks (a, b, c, d, e) of the product of the generator
    forms with blocks A = (a, b, c, d, e) and B, as ``product`` forms them.

    The blocks may carry the same leading axes, (..., r, n) and (..., n)
    for c: each item of the stack is multiplied with the arithmetic of
    one ``product`` call, so a stack of pairs costs one call.
    """
    # Accumulate the running cross sums in extended precision; entries of
    # the product can be large while the dense cross-check tolerances are
    # absolute.
    A, B = (tuple(v.astype(np.longdouble) for v in blocks) for blocks in (A, B))
    a, b, c = _product_upper(A, B)
    e, d, _ = _product_upper(B[::-1], A[::-1])
    return a, b, c, d, e


def product(ga: SemiSepGenerators, gb: SemiSepGenerators) -> SemiSepGenerators:
    """Product of two generator forms, with rank rA + rB per triangle.

    This realizes the rank-additivity grouping: rB upper pairs share the
    second factor's b-vectors, rA upper pairs share the first factor's
    a-vectors.  The lower triangle is the upper triangle of (A B)^T =
    B^T A^T.  Reversing a block tuple (a, b, c, d, e) to (e, d, c, b, a)
    is the transpose, so the same code forms it from the reversed blocks.
    All cross accumulations are prefix/suffix sums, O(N rA rB) total.  The
    sums are finite-horizon: tail sums over k > n stop at N-1, which makes
    the result exactly the product of the N x N truncations.
    """
    if ga.n != gb.n:
        raise ValueError(f"size mismatch: {ga.n} vs {gb.n}")
    a, b, c, d, e = product_blocks(ga.blocks, gb.blocks)
    return SemiSepGenerators(n=ga.n, a=a, b=b, c=c, d=d, e=e)


def truncate(g: SemiSepGenerators, n_out: int) -> SemiSepGenerators:
    """Leading n_out x n_out block of the represented matrix.

    Combined with forming a product at a larger horizon, this gives the
    extended-tail approximation of an infinite-operator product.
    """
    if not (1 <= n_out <= g.n):
        raise ValueError(f"n_out must be in [1, {g.n}], got {n_out}")
    return SemiSepGenerators(
        n=n_out,
        a=g.a[:, :n_out],
        b=g.b[:, :n_out],
        c=g.c[:n_out],
        d=g.d[:, :n_out],
        e=g.e[:, :n_out],
    )


class BandedMatrix:
    """LU factor of a band matrix with lower bandwidth p and upper bandwidth q.

    ``bands`` is LAPACK band storage, (p + q + 1, n) with
    bands[q + i - j, j] = A[i, j].  Construction factors it once with
    partial pivoting (gbtrf) and raises ``SingularityError`` if the band is
    singular.  If the factorization interchanged no rows, L is a unit lower
    band with p subdiagonals and U an upper band with q superdiagonals
    (there is no fill-in); ``piv`` is then None and each ``solve`` applies
    the two bands as two BLAS banded triangular solves (tbsv).  Otherwise
    ``lu`` and ``piv`` hold the gbtrf factor and each ``solve`` is one
    gbtrs.  Both apply the same factor with the same arithmetic.
    """

    def __init__(self, bands: np.ndarray, p: int, q: int):
        bands = np.asarray(bands, dtype=float)
        if bands.ndim != 2 or bands.shape[0] != p + q + 1:
            raise ValueError(f"band storage must have {p + q + 1} rows, got shape {bands.shape}")
        self.n, self.p, self.q = bands.shape[1], p, q
        ab = np.zeros((2 * p + q + 1, self.n))  # gbtrf needs p more rows for the fill-in
        ab[p:] = bands
        lu, piv, info = dgbtrf(ab, p, q)
        if info > 0:
            raise SingularityError("singular banded factor", info - 1)
        if (piv == np.arange(self.n)).all() and not lu[:p].any():
            # Without interchanges the p fill-in rows stay 0, so U fits in q
            # superdiagonals.  Row p + q is U's diagonal, which the unit-diagonal
            # sweep over L does not read.
            self._lower = np.asfortranarray(lu[p + q :])
            self._upper = np.asfortranarray(lu[p : p + q + 1])
            self.lu = self.piv = None
        else:
            self.lu, self.piv = lu, piv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution x of A x = rhs, as a new array."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs shape {rhs.shape} does not match size {self.n}")
        if self.piv is None:
            # Positional arguments (incx, offx, lower, trans, diag[, overwrite_x])
            # save f2py's keyword parsing, a third of a solve at n = 64.
            y = dtbsv(self.p, self._lower, rhs, 1, 0, 1, 0, 1)  # unit lower
            return dtbsv(self.q, self._upper, y, 1, 0, 0, 0, 0, 1)  # upper, in place
        x, info = dgbtrs(self.lu, self.p, self.q, rhs, self.piv)
        if info < 0:
            raise ValueError(f"illegal argument {-info} to banded solver")
        return x


def _annihilation_coeffs(gen: np.ndarray):
    """Coefficients expressing column m of the (r, n) block gen in the r
    columns before it.

    x solves gen[:, m] = sum_j x_j gen[:, m-1-j] for m = r .. n-1.
    Returns an (n, r) array, zero-filled on unprocessed rows.  For r = 2
    the local systems are solved by Cramer's rule, which is forward
    stable for 2 x 2 systems (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 1.10); other ranks take one batched LU solve.  A
    system whose determinant is 0 or not finite, or that LU finds
    singular, is solved alone, by least squares if need be, and raises
    SingularityError if it is inconsistent.
    """
    gen = np.asarray(gen, dtype=float)  # local solves run in double
    r, n = gen.shape
    x = np.zeros((n, r))
    rows = np.arange(r, n)
    if r == 0 or rows.size == 0:
        return x
    # Local systems G @ x = rhs with G[i, j] = gen[i, m-1-j], rhs = gen[:, m].
    if r == 2:
        (g00, g10), (g01, g11), (h0, h1) = gen[:, 1:-1], gen[:, :-2], gen[:, 2:]
        det = g00 * g11 - g01 * g10
        sol = np.empty((rows.size, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(h0 * g11 - g01 * h1, det, out=sol[:, 0])
            np.divide(g00 * h1 - h0 * g10, det, out=sol[:, 1])
        redo = np.flatnonzero((det == 0) | ~np.isfinite(det))
    else:
        idx = rows[:, None] - 1 - np.arange(r)[None, :]
        try:
            sol = np.linalg.solve(gen[:, idx].transpose(1, 0, 2), gen[:, rows].T[..., None])[..., 0]
            redo = ()
        except np.linalg.LinAlgError:
            sol = np.empty((rows.size, r))
            redo = range(rows.size)
    for k in redo:
        m = int(rows[k])
        gk, rhs = gen[:, m - 1 - np.arange(r)], gen[:, m]
        try:
            sol[k] = np.linalg.solve(gk, rhs)
        except np.linalg.LinAlgError:
            cand, *_ = np.linalg.lstsq(gk, rhs, rcond=None)
            resid = gk @ cand - rhs
            tol = 1e-8 * max(1.0, float(np.abs(rhs).max()))
            if float(np.abs(resid).max()) > tol:
                raise SingularityError("rank-deficient local annihilation system", m) from None
            sol[k] = cand
    x[rows] = sol
    return x


def reduce_to_banded(
    g: SemiSepGenerators, shift: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eliminate the generator structure of M = shift*I + A down to a band.

    Column sweep: column k of M C is column k of M minus a combination of
    columns k-1 .. k-r, with coefficients cancelling the b-generators,
    so M C is zero above offset r.  Row sweep: the mirror image with rows
    m-1 .. m-r cancelling the d-generators, so T M C is also zero below
    offset -r.  Eliminating against the *preceding* index keeps the
    coefficients contracting for generator sequences that decay along
    the diagonal (the differentiation-matrix case), which bounds element
    growth.

    T and C are unit banded with r off-diagonals, so an entry of
    B = T M C at offset p draws on M C at offsets p .. p+r, and those on
    M at offsets p-r .. p+r.  As M C vanishes above offset r, the band
    |p| <= r needs only the diagonals of M at offsets -2r .. r, which are
    read off the generators directly.

    Returns the 2r+1-diagonal band B in LAPACK band storage,
    bands[r + i - j, j] = B[i, j], and the (n, r) row and column
    coefficients, T[m, m-i] = -row_coeffs[m, i-1] and
    C[k-j, k] = -col_coeffs[k, j-1]: (shift*I + A) x = rhs is then
    B z = T rhs with x = C z.
    """
    n, r = g.n, g.rank
    x = _annihilation_coeffs(g.b)                # (n, r), zero for k < r
    y = _annihilation_coeffs(g.d)                # (n, r), zero for m < r
    # Rows of C and T, zero-padded by r on both sides so that every shift
    # below is a plain slice: cx[j, r+k] = C[k-j, k], ty[i, r+m] = T[m, m-i].
    cx = np.zeros((r + 1, n + 2 * r))
    cx[:, r : r + n] = np.vstack([np.ones(n), -x.T])
    ty = np.zeros_like(cx)
    ty[:, r : r + n] = np.vstack([np.ones(n), -y.T])
    md = g.diagonals(range(-2 * r, r + 1))       # md[2r+k, m] = M[m, m+k]
    md[2 * r] += shift
    mc = np.zeros((2 * r + 1, n + 2 * r))        # mc[r+q, r+m] = (M C)[m, m+q]
    for q in range(-r, r + 1):
        for j in range(r + 1):                   # (M C)[m, m+q] += M[m, m+q-j] C[m+q-j, m+q]
            mc[r + q, r : r + n] += md[2 * r + q - j] * cx[j, r + q : r + q + n]
    bands = np.zeros((2 * r + 1, n))             # bands[r-p, k] = B[k-p, k]
    for p in range(-r, r + 1):
        for i in range(min(r, r - p) + 1):       # B[k-p, k] += T[k-p, k-p-i] (M C)[k-p-i, k]
            lo = r - p - i
            bands[r - p] += ty[i, r - p : r - p + n] * mc[r + p + i, lo : lo + n]
    return bands, y, x


def _row_transform(row_coeffs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """T rhs for the unit lower-banded row transform T of the reduction."""
    out = rhs.copy()
    for i in range(1, min(row_coeffs.shape[1], rhs.size - 1) + 1):
        out[i:] -= row_coeffs[i:, i - 1] * rhs[:-i]
    return out


class ShiftedSolver:
    """(shift*I + A) x = rhs, factored once and solved many times.

    Construction runs the band reduction of ``reduce_to_banded`` once and
    factors the 2r+1-diagonal band as a ``BandedMatrix``, in O(N r^2).
    Each ``solve`` is then the row transform of rhs, the band's solve and
    the column back-map, in O(N r).

    ``growth`` is the largest |annihilation coefficient| of the
    reduction: the factor by which elimination can amplify entries.
    ``residual(x, rhs)`` is an O(N) relative backward error of a
    solution; neither is computed unless asked for.

    Raises ``SingularityError`` if the band is singular.
    """

    def __init__(self, g: SemiSepGenerators, shift: float):
        self.g = g
        self.shift = float(shift)
        bands, self.row_coeffs, self.col_coeffs = reduce_to_banded(g, shift)
        self.band = BandedMatrix(bands, g.rank, g.rank)

    @property
    def growth(self) -> float:
        coeffs = np.concatenate([self.row_coeffs.ravel(), self.col_coeffs.ravel()])
        return float(np.abs(coeffs).max(initial=0.0))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution x of (shift*I + A) x = rhs."""
        n, r = self.g.n, self.g.rank
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (n,):
            raise ValueError(f"rhs length {rhs.shape} does not match size {n}")
        # The band's solve is a new array, so the back-map x = C z runs in
        # place on it; every product reads z before any is subtracted from it.
        x = self.band.solve(_row_transform(self.row_coeffs, rhs))
        terms = [self.col_coeffs[j:, j - 1] * x[j:] for j in range(1, min(r, n - 1) + 1)]
        for j, term in enumerate(terms, 1):
            x[:-j] -= term
        return x

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> float:
        """||M x - rhs|| / (|shift| ||x|| + ||A x|| + ||rhs||), M = shift*I + A."""
        x = np.asarray(x, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        ax = self.g.matvec(x)
        denom = abs(self.shift) * np.linalg.norm(x) + np.linalg.norm(ax) + np.linalg.norm(rhs)
        resid = np.linalg.norm(self.shift * x + ax - rhs)
        return float(resid / denom) if denom else 0.0


def solve_structured(
    g: SemiSepGenerators, shift: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (shift*I + A) x = rhs in O(N r^2) time and O(N r) memory."""
    return ShiftedSolver(g, shift).solve(rhs)


def to_json(g: SemiSepGenerators) -> str:
    """Serialize to the shared JSON schema {n, rank, a, b, c, d, e}."""
    payload = {
        "n": g.n,
        "rank": g.rank,
        "a": g.a.tolist(),
        "b": g.b.tolist(),
        "c": g.c.tolist(),
        "d": g.d.tolist(),
        "e": g.e.tolist(),
    }
    return json.dumps(payload)


def from_json(text: str) -> SemiSepGenerators:
    payload = json.loads(text)
    n = int(payload["n"])
    rank = int(payload["rank"])
    blocks = {}
    for key in ("a", "b", "d", "e"):
        arr = np.asarray(payload[key], dtype=float).reshape(rank, n) if rank else np.zeros((0, n))
        blocks[key] = arr
    return SemiSepGenerators(
        n=n, a=blocks["a"], b=blocks["b"],
        c=np.asarray(payload["c"], dtype=float),
        d=blocks["d"], e=blocks["e"],
    )
