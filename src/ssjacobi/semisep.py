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
    "scale",
    "product",
    "product_blocks",
    "dense_blocks",
    "solve_structured",
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

    def entry(self, m: int, n: int) -> float:
        if not (0 <= m < self.n and 0 <= n < self.n):
            raise IndexError(f"index ({m}, {n}) out of range for size {self.n}")
        if m < n:
            return float(self.a[:, m] @ self.b[:, n])
        if m == n:
            return float(self.c[n])
        return float(self.d[:, m] @ self.e[:, n])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A @ v in O(N r) via suffix sums of b*v and prefix sums of e*v.
        Raises ``FloatingPointError`` if the result is not finite."""
        v = _as_vector(v, self.n)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out = self.c * v + np.einsum("in,in->n", self.a, _suffix(self.b * v))
            out = out + np.einsum("in,in->n", self.d, _excl_prefix(self.e * v))
        if not np.isfinite(out).all():
            raise FloatingPointError("matvec result is not finite")
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
            elif 0 < k < n:
                diag[: n - k] = np.einsum("im,im->m", self.a[:, : n - k], self.b[:, k:])
            elif 0 < -k < n:
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
        object.__setattr__(self, "d", self.b)  # b itself, which reduce_to_banded tests for
        for block in self.blocks:
            block.flags.writeable = False


def skew_expand(pair: SkewGeneratorPair) -> SemiSepGenerators:
    """The generator form of the pair: the pair itself, since a
    ``SkewGeneratorPair`` is a ``SemiSepGenerators``."""
    return pair


def scale(g: SemiSepGenerators, s: float) -> SemiSepGenerators:
    """s * A, scaling the row-side generators and the diagonal."""
    return SemiSepGenerators(n=g.n, a=s * g.a, b=g.b, c=s * g.c, d=s * g.d, e=g.e)


def _as_vector(v, n: int, asarray=np.asarray) -> np.ndarray:
    """asarray(v, dtype=float), which must have shape (n,)."""
    v = asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"vector shape {v.shape} does not match size {n}")
    return v


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


def _refuse_dense(n: int) -> None:
    """Raise ValueError if an n x n dense form would exceed DENSE_CAP."""
    if n > DENSE_CAP:
        raise ValueError(f"size {n} exceeds dense cap {DENSE_CAP}")


def dense_blocks(blocks: tuple) -> np.ndarray:
    """Dense form of the generator blocks (a, b, c, d, e): the strict upper
    triangle of a^T b, c on the diagonal and the strict lower triangle of
    d^T e, in c's dtype.

    The blocks may carry the same leading axes, (..., r, n) and (..., n)
    for c; the result is then the stack (..., n, n) of their dense forms.
    One select on the strict upper triangle picks each entry from its
    product, which is triu(a^T b, 1) + tril(d^T e, -1) up to the sign of
    a zero.
    """
    a, b, c, d, e = blocks
    n = c.shape[-1]
    _refuse_dense(n)
    upper = np.arange(n)[:, None] < np.arange(n)
    dense = np.where(upper, np.swapaxes(a, -1, -2) @ b, np.swapaxes(d, -1, -2) @ e)
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

    # Pairwise cross sums, shape (..., ra, rb, n).
    pe = _excl_prefix(eA[..., :, None, :] * aB[..., None, :, :])    # sum_{k<m} eA_k aB_k
    bp = _excl_prefix(bA[..., :, None, :] * aB[..., None, :, :])    # sum_{k<m} bA_k aB_k
    bp_inc = bp + bA[..., :, None, :] * aB[..., None, :, :]
    bs = _suffix(bA[..., :, None, :] * dB[..., None, :, :])          # sum_{k>m} bA_k dB_k

    # rb pairs (u_j, bB_j), then ra pairs (aA_i, v_i).
    u = cA[..., None, :] * aB
    u = u + np.einsum("...im,...ijm->...jm", dA, pe)
    u = u - np.einsum("...im,...ijm->...jm", aA, bp_inc)
    v = bA * cB[..., None, :]
    v = v + np.einsum("...jm,...ijm->...im", bB, bp)
    v = v + np.einsum("...jm,...ijm->...im", eB, bs)
    c = cA * cB
    c = c + np.einsum("...im,...jm,...ijm->...m", dA, bB, pe)
    c = c + np.einsum("...im,...jm,...ijm->...m", aA, eB, bs)
    return np.concatenate([u, aA], axis=-2), np.concatenate([bB, v], axis=-2), c


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


def _unit_factors(lu: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The bands of L~ and U^ in A = D L~ U^, from the gbtrf factor lu of a
    band that took no interchanges: lower[k, j] = L~[j+k, j] for k >= 1
    and upper[q+i-j, j] = U^[i, j], in the storage that tbsv reads.
    Row 0 of lower holds D^-1 and row q of upper holds D: unit sweeps
    read neither.  Raises ``SingularityError``, naming the column, if a
    pivot's reciprocal or a ratio of pivots overflows."""
    n = lu.shape[1]
    lower = np.array(lu[p + q :], order="F")   # copies; row 0 is U's diagonal D
    upper = np.array(lu[p : p + q + 1], order="F")
    d = upper[q]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        np.divide(1.0, d, out=lower[0])
        for k in range(1, p + 1):              # L~[j+k, j] = L[j+k, j] (d[j] / d[j+k])
            m = max(n - k, 0)
            lower[k, :m] *= d[:m] / d[n - m :]
        for k in range(1, q + 1):              # U^[j-k, j] = U[j-k, j] / d[j-k]
            m = max(n - k, 0)
            upper[q - k, n - m :] /= d[:m]
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        # Name the first reciprocal that overflows, else the first ratio.
        for what, rows in (("reciprocal", lower[:1]), ("ratio", np.vstack([lower, upper]))):
            finite = np.isfinite(rows).all(axis=0)
            if not finite.all():
                raise SingularityError(f"pivot {what} overflows in banded factor", int(np.argmin(finite)))
    return lower, upper


class BandedMatrix:
    """LU factor of a band matrix with lower bandwidth p and upper bandwidth q.

    ``bands`` is LAPACK band storage, (p + q + 1, n) with
    bands[q + i - j, j] = A[i, j].  Construction factors it once with
    partial pivoting (gbtrf).  It raises ``FloatingPointError``, naming
    the first column, if the band storage is not finite, and
    ``SingularityError`` if the band is singular.

    If the factorization interchanged no rows, A = L U with L a unit lower
    band of p subdiagonals and U an upper band of q superdiagonals (there
    is no fill-in).  It is stored as A = D L~ U^ with D = diag(U) the
    pivots, U^ = D^-1 U unit upper and L~ = D^-1 L D unit lower,
    L~[i, j] = L[i, j] U[j, j] / U[i, i].  ``piv`` is then None and each
    ``solve`` is one multiply by D^-1 and two unit-diagonal BLAS banded
    triangular solves (tbsv), with no division.  Construction raises
    ``SingularityError``, naming the column, if a pivot's reciprocal or a
    ratio of pivots overflows.  Otherwise ``lu`` and ``piv`` hold the
    gbtrf factor and each ``solve`` is one gbtrs.
    """

    def __init__(self, bands: np.ndarray, p: int, q: int):
        bands = np.asarray(bands, dtype=float)
        if bands.ndim != 2 or bands.shape[0] != p + q + 1:
            raise ValueError(f"band storage must have {p + q + 1} rows, got shape {bands.shape}")
        self.n, self.p, self.q = bands.shape[1], p, q
        finite = np.isfinite(bands).all(axis=0)
        if not finite.all():
            raise FloatingPointError(f"band storage is not finite in column {int(np.argmin(finite))}")
        ab = np.zeros((2 * p + q + 1, self.n), order="F")  # p more rows for the fill-in
        ab[p:] = bands
        lu, piv, info = dgbtrf(ab, p, q, overwrite_ab=1)  # in place: ab is Fortran double
        if info > 0:
            raise SingularityError("singular banded factor", info - 1)
        if (piv == np.arange(self.n)).all() and not lu[:p].any():
            # Without interchanges the p fill-in rows stay 0, so U fits in q
            # superdiagonals.
            self._lower, self._upper = _unit_factors(lu, p, q)
            self.lu = self.piv = None
        else:
            self.lu, self.piv = lu, piv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution x of A x = rhs, as a new array."""
        return self._solve(_as_vector(rhs, self.n))

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """solve for a double array rhs of shape (n,), which is not checked."""
        if self.piv is None:
            # x = inv(U^) inv(L~) inv(D) rhs.  The multiply makes the new array that
            # both sweeps then overwrite.  Positional arguments (incx, offx,
            # lower, trans, diag, overwrite_x) save f2py's keyword parsing, a
            # third of a solve at n = 64.
            x = self._lower[0] * rhs
            x = dtbsv(self.p, self._lower, x, 1, 0, 1, 0, 1, 1)  # unit lower, in place
            return dtbsv(self.q, self._upper, x, 1, 0, 0, 0, 1, 1)  # unit upper, in place
        x, info = dgbtrs(self.lu, self.p, self.q, rhs, self.piv)
        if info < 0:
            raise ValueError(f"illegal argument {-info} to banded solver")
        return x


def _annihilation_coeffs(gen: np.ndarray):
    """Coefficients expressing column m of the (r, n) block gen in the r
    columns before it.

    x solves gen[:, m] = sum_j x_j gen[:, m-1-j] for m = r .. n-1.
    Returns an (n, r) array, zero-filled on unprocessed rows.  It is the
    transpose of a C-contiguous (r, n) array, so that each column, the
    run that a solve reads, is contiguous.  For r = 2
    the local systems are solved by Cramer's rule, which is forward
    stable for 2 x 2 systems (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 1.10); other ranks take one batched LU solve.  A
    system whose determinant is 0 or not finite, or that LU finds
    singular, is solved alone, by least squares if need be, and raises
    SingularityError if it is inconsistent.
    """
    gen = np.asarray(gen, dtype=float)  # local solves run in double
    r, n = gen.shape
    x = np.zeros((r, n)).T
    rows = np.arange(r, n)
    sol = x[r:]  # the rows that the local systems fill
    # Local systems G @ x = rhs with G[i, j] = gen[i, m-1-j], rhs = gen[:, m].
    if r == 2:
        (g00, g10), (g01, g11), (h0, h1) = gen[:, 1:-1], gen[:, :-2], gen[:, 2:]
        det = g00 * g11 - g01 * g10
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(h0 * g11 - g01 * h1, det, out=sol[:, 0])
            np.divide(g00 * h1 - h0 * g10, det, out=sol[:, 1])
        redo = np.flatnonzero((det == 0) | ~np.isfinite(det))
    else:
        idx = rows[:, None] - 1 - np.arange(r)[None, :]
        try:
            sol[:] = np.linalg.solve(gen[:, idx].transpose(1, 0, 2), gen[:, rows].T[..., None])[..., 0]
            redo = ()
        except np.linalg.LinAlgError:
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
    return x


def _congruence_band(row_coeffs: np.ndarray, col_coeffs: np.ndarray, md: np.ndarray | None = None) -> np.ndarray:
    """The band |p| <= r of T M C in LAPACK band storage, from the (n, r)
    coefficients of T and C (see ``reduce_to_banded``) and the diagonals
    md[2r+k, m] = M[m, m+k] of M at offsets -2r .. r; M = I if md is None."""
    n, r = col_coeffs.shape
    # Rows of C and T, zero-padded by r on both sides so that every shift
    # below is a plain slice: cx[j, r+k] = C[k-j, k], ty[i, r+m] = T[m, m-i].
    cx = np.zeros((r + 1, n + 2 * r))
    cx[:, r : r + n] = np.vstack([np.ones(n), -col_coeffs.T])
    ty = np.zeros_like(cx)
    ty[:, r : r + n] = np.vstack([np.ones(n), -row_coeffs.T])
    mc = np.zeros((2 * r + 1, n + 2 * r))        # mc[r+q, r+m] = (M C)[m, m+q]
    if md is None:                               # M C = C, zero below the diagonal
        for q in range(r + 1):
            mc[r + q, r : r + n] = cx[q, r + q : r + q + n]
    else:
        for q in range(-r, r + 1):
            for j in range(r + 1):               # (M C)[m, m+q] += M[m, m+q-j] C[m+q-j, m+q]
                mc[r + q, r : r + n] += md[2 * r + q - j] * cx[j, r + q : r + q + n]
    bands = np.zeros((2 * r + 1, n))             # bands[r-p, k] = B[k-p, k]
    for p in range(-r, r + 1):
        # B[k-p, k] += T[k-p, k-p-i] (M C)[k-p-i, k]; with M = I the terms
        # i < -p read M C below its diagonal, which is 0.
        for i in range(max(-p, 0) if md is None else 0, min(r, r - p) + 1):
            bands[r - p] += ty[i, r - p : r - p + n] * mc[r + p + i, r - p - i : r - p - i + n]
    return bands


def reduce_to_banded(g: SemiSepGenerators, shift: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    read off the generators directly.  T depends on d alone and C on b
    alone, so B is band(T A C) + shift * band(T C), formed by one loop.

    Returns the 2r+1-diagonal band B in LAPACK band storage,
    bands[r + i - j, j] = B[i, j], and the (n, r) row and column
    coefficients, T[m, m-i] = -row_coeffs[m, i-1] and
    C[k-j, k] = -col_coeffs[k, j-1]: (shift*I + A) x = rhs is then
    B z = T rhs with x = C z.  If d is b, row_coeffs is col_coeffs: T = C^T.
    """
    r = g.rank
    x = _annihilation_coeffs(g.b)                # (n, r), zero for k < r
    y = x if g.d is g.b else _annihilation_coeffs(g.d)  # a skew pair's T is C^T
    bands = _congruence_band(y, x, g.diagonals(range(-2 * r, r + 1)))
    if shift:
        bands += shift * _congruence_band(y, x)
    return bands, y, x


def _reduction(g: SemiSepGenerators) -> tuple:
    """(B0, B1, row_coeffs, col_coeffs): the bands B0 of T C and B1 of
    T A C, and the coefficients of T and C, from one ``reduce_to_banded``
    at shift 0.  T (s I + w A) C = s B0 + w B1 for every s and w."""
    with np.errstate(over="ignore", invalid="ignore"):  # BandedMatrix refuses inf and nan
        b1, y, x = reduce_to_banded(g, 0.0)
        return _congruence_band(y, x), b1, y, x


def _row_transform(row_coeffs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """T rhs for the unit lower-banded row transform T of the reduction."""
    out = rhs.copy()
    for i in range(1, row_coeffs.shape[1] + 1):
        out[i:] -= row_coeffs[i:, i - 1] * rhs[:-i]
    return out


class ShiftedSolver:
    """(shift*I + weight*A) x = rhs, factored once and solved many times.

    Construction takes A's ``_reduction`` (B0, B1, T, C), or forms it in
    O(N r^2), and factors the band T (shift*I + weight*A) C = shift*B0 +
    weight*B1 as a ``BandedMatrix``; shifts that share a reduction share
    all but this axpy and factor.  Each ``solve`` is then the row
    transform of rhs, the band's solve and the column back-map, in O(N r).

    ``growth`` is the largest |annihilation coefficient| of the
    reduction: the factor by which elimination can amplify entries.
    ``residual(x, rhs)`` is an O(N) relative backward error of a
    solution; neither is computed unless asked for.

    Raises ``FloatingPointError`` if the reduction overflows, and
    ``SingularityError`` if the band is singular.
    """

    def __init__(self, g: SemiSepGenerators, shift: float, weight: float = 1.0, reduction=None):
        self.g, self.shift, self.weight = g, float(shift), float(weight)
        b0, b1, self.row_coeffs, self.col_coeffs = _reduction(g) if reduction is None else reduction
        with np.errstate(over="ignore", invalid="ignore"):  # BandedMatrix refuses inf and nan
            self.band = BandedMatrix(self.shift * b0 + self.weight * b1, g.rank, g.rank)

    @property
    def growth(self) -> float:
        coeffs = np.concatenate([self.row_coeffs.ravel(), self.col_coeffs.ravel()])
        return float(np.abs(coeffs).max(initial=0.0))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution x of (shift*I + weight*A) x = rhs: the row
        transform T rhs, the band's solve (one multiply by the pivots'
        reciprocals and two unit-diagonal sweeps, unless the factor
        pivoted) and the back-map x = C z, each reading contiguous
        coefficient rows.  Raises ``ValueError`` if rhs is not finite or
        not of shape (n,)."""
        n, r = self.g.n, self.g.rank
        rhs = _as_vector(rhs, n, np.asarray_chkfinite)
        # The band's solve is a new array, so the back-map x = C z runs in
        # place on it; every product reads z before any is subtracted from it.
        x = self.band._solve(_row_transform(self.row_coeffs, rhs))
        terms = [self.col_coeffs[j:, j - 1] * x[j:] for j in range(1, r + 1)]
        for j, term in enumerate(terms, 1):
            x[:-j] -= term
        return x

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> float:
        """||M x - rhs|| / (|shift| ||x|| + ||w A x|| + ||rhs||), M = shift*I + w A."""
        x, rhs = (np.asarray(v, dtype=float) for v in (x, rhs))
        ax = self.weight * self.g.matvec(x)
        denom = abs(self.shift) * np.linalg.norm(x) + np.linalg.norm(ax) + np.linalg.norm(rhs)
        resid = np.linalg.norm(self.shift * x + ax - rhs)
        return float(resid / denom) if denom else 0.0


def solve_structured(g: SemiSepGenerators, shift: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (shift*I + A) x = rhs in O(N r^2) time and O(N r) memory."""
    return ShiftedSolver(g, shift).solve(rhs)


def to_json(g: SemiSepGenerators) -> str:
    """Serialize to the shared JSON schema {n, rank, a, b, c, d, e}.  Raises
    ValueError, naming the dtype, on blocks that are not double, such as
    the longdouble blocks that ``product`` returns."""
    for block in g.blocks:
        if block.dtype != np.float64:
            raise ValueError(f"to_json writes double generator blocks, not {block.dtype}")
    blocks = {key: block.tolist() for key, block in zip("abcde", g.blocks)}
    return json.dumps({"n": g.n, "rank": g.rank, **blocks})


def from_json(text: str) -> SemiSepGenerators:
    payload = json.loads(text)
    n = int(payload["n"])
    rank = int(payload["rank"])
    a, b, d, e = (np.asarray(payload[k], dtype=float).reshape(rank, n) for k in "abde")
    return SemiSepGenerators(n=n, a=a, b=b, c=np.asarray(payload["c"], dtype=float), d=d, e=e)
