"""Special-function primitives: log-gamma, Jacobi polynomials,
Gauss-Jacobi quadrature and generalized hypergeometric series.

Everything here is a pure function of its arguments; quadrature rules are
immutable after construction.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "JacobiParams",
    "QuadratureRule",
    "DomainError",
    "UnsupportedError",
    "ConvergenceError",
    "log_gamma",
    "jacobi_eval",
    "jacobi_table",
    "jacobi_reflection_check",
    "connection_check",
    "gauss_jacobi_rule",
    "jacobi_weight_mass",
    "hyper_pfq_at",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class UnsupportedError(ValueError):
    """Requested regime is deliberately unsupported (e.g. p > q series)."""


class ConvergenceError(ArithmeticError):
    """An iteration failed to converge within its budget."""


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair (alpha, beta) of the Jacobi weight (1-x)^a (1+x)^b.

    Both must be finite and strictly positive so that the weight vanishes
    at the endpoints and the differentiation matrix is skew-symmetric.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            if v <= 0:
                raise DomainError(f"{name} must be > 0, got {v!r}")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1-x)^alpha (1+x)^beta on (-1, 1).

    ``nodes`` are strictly increasing in the open interval, ``weights``
    positive and summing to the weight's total mass.  Both are stored as
    read-only copies, in the dtype of the rule: longdouble by default, or
    double (see gauss_jacobi_rule), where a weight whose true value is
    below about 1e-308 is subnormal or 0.
    """

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def log_gamma(z: float) -> float:
    """ln Gamma(z) for z > 0."""
    z = float(z)
    if not math.isfinite(z) or z <= 0:
        raise DomainError(f"log_gamma requires finite z > 0, got {z!r}")
    return math.lgamma(z)


def _kappa_squares(alpha: float, beta: float, nmax: int) -> np.ndarray:
    """kappa_0^2 .. kappa_nmax^2 (kappa_n P_n orthonormal) in longdouble: 1 / mass
    times, in order, the exact ratios (2n+s+3)(n+s+1)(n+1) / ((2n+s+1)(n+a+1)(n+b+1)),
    s = a + b; at n = 0 it is (s+3) / ((a+1)(b+1)), without the 0/0 at s = -1."""
    al, be = np.longdouble(alpha), np.longdouble(beta)
    s = al + be  # a double sum would shift every ratio
    n = np.arange(1, nmax, dtype=np.longdouble)
    ratios = (2 * n + s + 3) * (n + s + 1) * (n + 1) / ((2 * n + s + 1) * (n + al + 1) * (n + be + 1))
    first = [1 / np.longdouble(jacobi_weight_mass(alpha, beta)), (s + 3) / ((al + 1) * (be + 1))]
    return np.cumprod(np.concatenate([first[: nmax + 1], ratios]))


# The recurrence coefficients of this many (alpha, beta) are kept.
_COEFF_CACHE_SIZE = 8
_coeff_cache: dict = {}  # (alpha, beta) -> the coefficients at the largest nmax asked for
_coeff_lock = threading.Lock()


def _rescaled_coeffs(alpha: float, beta: float, nmax: int):
    """g_k, a_k (k < nmax), t_0 .. t_nmax, p_0 = 1 / sqrt(mass) and b_k
    (k < nmax), in longdouble, read-only.  a_k and b_k are Jacobi matrix
    entries, which depend on k only: a[:q] and b[:q-1] are the Jacobi
    matrix of q <= nmax rows.  With p_k = t_k q_k, t_0 = t_1 = 1 and
    t_{k+1} = t_{k-1} b_{k-1} / b_k, the orthonormal b_k p_{k+1} = (x -
    a_k) p_k - b_{k-1} p_{k-1} (a_k, b_k of _jacobi_matrix) is q_{k+1} =
    g_k (x - a_k) q_k - q_{k-1} from q_0 = p_0, g_k = t_k / (b_k t_{k+1}).
    For k <= 4096, t_k stayed in [0.05, 1.13] at alpha, beta in [0.001,
    1000], and in [0.019, 2.83] down to -0.9.

    Every entry depends on k alone, so the coefficients at nmax are a
    prefix of those at any larger nmax, bit for bit.  They are kept for
    the last 8 (alpha, beta) at the largest nmax asked for, and a smaller
    nmax is served as slices of those.
    """
    with _coeff_lock:
        kept = _coeff_cache.pop((alpha, beta), None)
        if kept is None or len(kept[0]) < nmax:
            kept = _form_rescaled_coeffs(alpha, beta, nmax)
        _coeff_cache[alpha, beta] = kept  # the most recent last
        if len(_coeff_cache) > _COEFF_CACHE_SIZE:
            del _coeff_cache[next(iter(_coeff_cache))]
    g, a, t, p0, off = kept
    return g[:nmax], a[:nmax], t[: nmax + 1], p0, off[:nmax]


def _form_rescaled_coeffs(alpha: float, beta: float, nmax: int):
    """The read-only coefficients of _rescaled_coeffs, formed at nmax."""
    diag, off = _jacobi_matrix(alpha, beta, nmax + 1)
    t = np.ones(nmax + 1, dtype=np.longdouble)
    rho = off[:-1] / off[1:]  # rho[k-1] = b_{k-1} / b_k
    t[2::2], t[3::2] = np.cumprod(rho[0::2]), np.cumprod(rho[1::2])
    g = t[:-1] / (off * t[1:])
    a = diag[:-1]
    for v in (g, a, t, off):
        v.flags.writeable = False
    return g, a, t, 1 / np.sqrt(np.longdouble(jacobi_weight_mass(alpha, beta))), off


# The kernel fills blocks of at most _BLOCK_VALUES values (one row at least)
# and forms its affine rows in chunks of at most _CHUNK_VALUES values (two
# rows at least): 16 rows at 1001 points, 8 at 2048 and 2 beyond 8192.  A
# chunk of 128 KiB in double stays in cache while the steps read it.
_BLOCK_VALUES = 2**16
_CHUNK_VALUES = 2**14


def _block_rows(nmax: int, npts: int) -> int:
    """Rows per block of _orthonormal_blocks for q_0 .. q_nmax at npts points."""
    return min(nmax + 1, max(1, _BLOCK_VALUES // max(npts, 1)))


def _chunk_rows(nmax: int, npts: int) -> int:
    """Affine rows per chunk of _orthonormal_blocks."""
    return max(2, min(nmax, _CHUNK_VALUES // max(npts, 1)))


def _orthonormal_blocks(g, a, x: np.ndarray, q0, rows=None):
    """q_0 = q0 .. q_n (see _rescaled_coeffs) at the 1-d points x, n = len(g),
    in blocks of ``rows`` degrees (default _block_rows): yields (k0, block),
    block[i] = q_{k0+i}(x), k0 = 0, rows, 2 rows ...  The one copy of the
    three-term recurrence; arguments are not checked.  It runs in the dtype
    of x, in two ufunc calls per step: q_{k+1} = r_k q_k - q_{k-1} on the
    affine row r_k = -h_k + g_k x, h_k = g_k a_k.  g_k, h_k and q0 are
    formed in longdouble and rounded once to that dtype.  Each chunk of
    _chunk_rows affine rows is one matmul of the (rows x 2) block [-h, g]
    and the (2 x npts) matrix [1; x], zero-padded to full chunks and to two
    columns at one point.  So in double every product is a BLAS gemm (a
    single row or column would make it a gemv, which may round otherwise),
    and a row's bits do not depend on the chunk size or on the other
    points.  Whether -h_k + g_k x is rounded once (a fused multiply-add, as
    OpenBLAS does on x86-64) or twice is the BLAS's choice; longdouble runs
    through numpy's own loop, which rounds g_k x first.
    Every block is a view of one buffer, which keeps a block's last two
    rows in front of the next (one-row blocks, beyond 2^15 points, rotate
    through three rows instead of copying two per degree): a caller may
    scale columns of those by a power of two before the next block, and
    the recurrence follows.
    """
    nmax, npts = len(g), x.size
    rows = _block_rows(nmax, npts) if rows is None else rows
    chunk = _chunk_rows(nmax, npts)
    coef = np.zeros((nmax + chunk, 2), dtype=x.dtype)  # [-h_k, g_k], then zero rows
    coef[:nmax, 0], coef[:nmax, 1] = -(g * a), g
    ones_x = np.ones((2, max(npts, 2)), dtype=x.dtype)  # [1; x], a second column at one point
    ones_x[1, :npts] = x
    buf = np.empty((rows + 2 * (rows <= nmax), npts), dtype=x.dtype)
    aff = np.empty((chunk, ones_x.shape[1]), dtype=x.dtype)
    q, r = list(buf), [row[:npts] for row in aff]
    mul, sub = np.multiply, np.subtract  # each called with a positional out
    q[0].fill(q0)
    # q[lo] holds q_k0, q[lo-2] and q[lo-1] the two before; aff r_c0 .. r_{c1-1}
    lo = k0 = c0 = c1 = 0
    while True:
        hi = lo + min(rows, nmax + 1 - k0)
        for i in range(lo + (k0 == 0), hi):
            k = i - lo + k0 - 1  # q[i] = q_{k+1}
            if k >= c1:
                c0, c1 = k, k + chunk
                np.matmul(coef[c0:c1], ones_x, out=aff)
            mul(r[k - c0], q[i - 1], q[i])
            if k:
                sub(q[i], q[i - 2], q[i])
        yield k0, (q[hi - 1][None] if rows == 1 else buf[lo:hi])
        k0 += hi - lo
        if k0 > nmax:
            return
        if rows == 1:  # rotate the three row views; nothing is copied
            q = q[hi - 2 :] + q[: hi - 2]
        else:
            keep = min(hi, 2)
            buf[2 - keep : 2] = buf[hi - keep : hi]
        lo = 2


def _orthonormal_rows(alpha: float, beta: float, nmax: int, x: np.ndarray, rows=None):
    """t_n in the dtype of x and the kernel's blocks of q_n from q_0 = p_0: t_n q_n = p_n."""
    g, a, t, p0, _ = _rescaled_coeffs(alpha, beta, nmax)
    return t.astype(x.dtype), _orthonormal_blocks(g, a, x, p0, rows)


def _orthonormal_table(alpha: float, beta: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """p_0 .. p_nmax at the points x: one block of the kernel, row n times t_n."""
    t, blocks = _orthonormal_rows(alpha, beta, nmax, x, nmax + 1)
    _, table = next(blocks)
    table *= t[:, None]
    return table


def jacobi_table(alpha: float, beta: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """All P_0 .. P_nmax at the points x, as an (nmax+1, len(x)) array.

    One block of the kernel from q_0 = 1 in the precision of x (longdouble
    stays longdouble, anything else becomes double), row n times t_n kappa_0
    / kappa_n, formed in longdouble from the kappa^2 product kappa_vector
    rounds (1 at n = 0).  Accepts alpha, beta > -1.
    """
    if alpha <= -1 or beta <= -1:
        raise DomainError("Jacobi polynomials require alpha, beta > -1")
    if nmax < 0:
        raise DomainError(f"degree must be >= 0, got {nmax}")
    x = np.asarray(x)
    x = (x if x.dtype == np.longdouble else np.asarray(x, dtype=float)).reshape(-1)
    g, a, t, _, _ = _rescaled_coeffs(alpha, beta, nmax)
    squares = _kappa_squares(alpha, beta, nmax)
    _, table = next(_orthonormal_blocks(g, a, x, 1, nmax + 1))
    table *= (t * np.sqrt(squares[0] / squares)).astype(x.dtype)[:, None]
    return table


def jacobi_eval(alpha: float, beta: float, n: int, x):
    """Jacobi polynomial P_n^(alpha,beta)(x), in double: row n of jacobi_table."""
    p = jacobi_table(alpha, beta, n, np.ravel(np.asarray(x, dtype=float)))[n].reshape(np.shape(x))
    return p if p.ndim else float(p)


def jacobi_reflection_check(alpha: float, beta: float, n: int, x) -> tuple[float, float]:
    """The pair (P_n^(a,b)(x), (-1)^n P_n^(b,a)(-x)); equal up to roundoff."""
    lhs = jacobi_eval(alpha, beta, n, x)
    rhs = (-1.0) ** n * jacobi_eval(beta, alpha, n, -np.asarray(x, dtype=float))
    return lhs, rhs


def connection_check(alpha: float, beta: float, n: int, x) -> tuple[float, float]:
    """Residuals of the two parameter-lowering connection identities.

    Lowering beta: (2n+a+b) P_n^(a,b-1) = (n+a+b) P_n^(a,b) + (n+a) P_{n-1}^(a,b).
    Lowering alpha: (2n+a+b) P_n^(a-1,b) = (n+a+b) P_n^(a,b) - (n+b) P_{n-1}^(a,b).

    Residuals are reported relative to the largest participating term, so
    a tolerance of a few ulps is meaningful uniformly in n (raw polynomial
    values grow combinatorially with the degree).
    """
    if alpha <= 0 or beta <= 0:
        raise DomainError("connection_check requires alpha, beta > 0")
    s = alpha + beta
    table = jacobi_table(alpha, beta, n, np.ravel(np.asarray(x, dtype=float)))
    table = table.reshape((n + 1,) + np.shape(x))
    mid = (n + s) * table[n]
    pnm1 = table[n - 1] if n >= 1 else 0.0

    def residual(a_low, b_low, tail):  # (2n+s) P_n^(a_low,b_low) - (n+s) P_n - tail
        lead = (2 * n + s) * jacobi_eval(a_low, b_low, n, x)
        scale = np.maximum(np.abs(lead), np.maximum(np.abs(mid), np.abs(tail)))
        return (lead - mid - tail) / np.maximum(scale, 1.0)

    res_alpha = residual(alpha - 1, beta, -(n + beta) * pnm1)
    res_beta = residual(alpha, beta - 1, (n + alpha) * pnm1)
    return res_alpha, res_beta


def jacobi_weight_mass(alpha: float, beta: float) -> float:
    """Total mass 2^(alpha+beta+1) B(alpha+1, beta+1) of the weight
    (1-x)^alpha (1+x)^beta on (-1, 1), for alpha, beta > -1.

    With a = alpha + 1 = a0 + m and b = beta + 1 = b0 + n, m and n the
    integer parts of alpha and beta (0 below 0), the Beta function is
    G(a0) G(b0) / G(a0 + b0) (a0)_m (b0)_n / (a0 + b0)_(m+n), a0, b0 in
    (0, 2), from math.gamma and rational factors, each below 1, multiplied
    in longdouble, so no factorial overflows.  Within 1.3e-15 relative of
    50-digit values for alpha, beta in (-1, 300].  Raises OverflowError if
    the mass exceeds the double range.
    """
    if not (alpha > -1 and beta > -1):
        raise DomainError(f"weight mass requires alpha, beta > -1, got {alpha!r}, {beta!r}")
    m, n = max(math.floor(alpha), 0), max(math.floor(beta), 0)
    a0, b0 = (alpha - m) + 1, (beta - n) + 1
    ld = np.longdouble
    i, j = np.arange(m, dtype=ld), np.arange(n, dtype=ld)
    factors = np.concatenate([
        [ld(math.gamma(a0)) * ld(math.gamma(b0)) / ld(math.gamma(a0 + b0))],
        (ld(a0) + i) / (ld(a0) + ld(b0) + i),
        (ld(b0) + j) / (ld(a0) + ld(b0) + m + j),
    ])
    ratio = np.cumprod(factors)[-1]  # multiplied in order, as a loop would
    e = ld(alpha) + ld(beta) + 1
    whole = math.floor(e)
    mass = float(np.ldexp(ratio * np.exp2(e - whole), whole))
    if not math.isfinite(mass):
        raise OverflowError(f"weight mass at ({alpha!r}, {beta!r}) exceeds the double range")
    return mass


def _jacobi_matrix(alpha: float, beta: float, q: int):
    """Diagonal a_0..a_{q-1} and off-diagonal b_0..b_{q-2} of the Jacobi
    matrix of the weight, in longdouble.

    The orthonormal polynomials satisfy b_k p_{k+1} = (x - a_k) p_k -
    b_{k-1} p_{k-1}.  alpha + beta and beta^2 - alpha^2 are formed in
    longdouble too: in double they carry an error of 1e-16 wherever the
    sum is inexact, which would cap the rule's accuracy there.
    """
    al, be = np.longdouble(alpha), np.longdouble(beta)
    s = al + be
    k = np.arange(1, q, dtype=np.longdouble)
    diag = np.empty(q, dtype=np.longdouble)
    diag[0] = (be - al) / (s + 2)
    diag[1:] = (be - al) * (be + al) / ((2 * k + s) * (2 * k + s + 2))
    off = np.empty(max(q - 1, 0), dtype=np.longdouble)
    if q > 1:
        # k = 1 separately: the generic formula has a removable 0/0 at s = -1.
        off[0] = np.sqrt(4 * (1 + al) * (1 + be) / ((2 + s) ** 2 * (3 + s)))
        k = k[1:]
        off[1:] = np.sqrt(
            4 * k * (k + al) * (k + be) * (k + s)
            / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
        )
    return diag, off


# A sweep runs the kernel in blocks of this many rows.
_RESCALE_EVERY = 16


def _christoffel_sweep(g, a, t, p0, x):
    """One pass of the kernel over the points x for the Q = len(g) node rule:
    the weights 1 / sum_{k<Q} p_k(x)^2, one product per block (one einsum
    pass in longdouble, which has no BLAS matmul), and the Newton correction
    p_Q / p_Q' = b_{Q-1} p_Q p_{Q-1} / sum (Christoffel-Darboux, to second
    order at a zero of p_Q), b_{Q-1} t_Q t_{Q-1} = t_{Q-1}^2 / g_{Q-1}.

    Near the ends of (-1, 1) p_k grows like the inverse square root of the
    weight, past the double range at large alpha, beta and Q.  So between
    blocks, at each node whose sum (which bounds p_k^2 and only grows)
    exceeds 2^(maxexp / 2), the block's last two rows are divided by 2^e
    near sqrt(sum), the sum by 2^(2e), and the node's exponent L gains e.
    That is exact: the correction, a ratio, does not see it, and the weight
    is 2^(-2L) / sum.  q_k^2 = p_k^2 / t_k^2 keeps 2^(maxexp / 4 - 12) of
    headroom, 2^15 per step in double.
    """
    q = len(g)
    limit = np.ldexp(x.dtype.type(1), np.finfo(x.dtype).maxexp // 2)
    scale = np.zeros(x.shape, dtype=int)  # L: the sums are 2^(-2L) times the true ones
    ssum = np.zeros_like(x)
    t2 = (t[:q] ** 2).astype(x.dtype)
    for k0, block in _orthonormal_blocks(g, a, x, p0, _RESCALE_EVERY):
        k1 = k0 + len(block)
        rows = block[: q - k0]  # the rows below q_Q
        if x.dtype == np.longdouble:
            ssum += np.einsum("k,kn,kn->n", t2[k0:k1], rows, rows)
        else:
            ssum += t2[k0:k1] @ np.square(rows)
        big = np.flatnonzero(ssum > limit) if k1 <= q else []
        if len(big):
            e = np.frexp(ssum[big])[1] // 2
            block[-2:, big] = np.ldexp(block[-2:, big], -e)
            ssum[big] = np.ldexp(ssum[big], -2 * e)
            scale[big] += e
        if k0 < q <= k1:
            q_last = block[q - 1 - k0].copy()  # q_{Q-1}, past any rescale
    newton = x.dtype.type(t[q - 1] ** 2 / g[q - 1]) * block[-1] * q_last
    return np.ldexp(1 / ssum, -2 * scale), newton / ssum


# A sweep accepts its nodes once every Newton correction is at most
# _NEWTON_ULPS ulp of its dtype.  On 500 rules (alpha, beta in {-0.9 .. 300},
# Q from 1 to 2048) the longdouble corrections after one Newton step from the
# eigenvalue start were 2.8e-20 in the median and at most 8.3e-19, at (-0.9,
# 1, 2048), 8 times below the bound of 6.9e-18.  On 350 double rules of the
# same range they were 5.8e-17 in the median and at most 1.3e-16, at (0.001,
# 1, 3), against 1.4e-14.  Every rule took 2 sweeps in either dtype.
_NEWTON_ULPS = 64
_MAX_SWEEPS = 3


def gauss_jacobi_rule(
    alpha: float, beta: float, n_nodes: int, dtype=np.longdouble
) -> QuadratureRule:
    """n-point Gauss rule for the Jacobi weight, in O(n) memory.

    The eigenvalues of the Jacobi matrix (Golub-Welsch, eigenvalues only)
    are the starting nodes.  Each sweep runs the recurrence kernel over
    all nodes in ``dtype`` and gives every node's Newton correction and
    weight 1 / sum_k p_k^2.  The first sweep always takes its Newton step
    (the start is only accurate to double); a later sweep whose
    corrections are all at most 64 ulp of ``dtype`` returns the nodes it
    ran at, with its weights.  At most three sweeps run, else
    ConvergenceError.  Exact for polynomials of degree <= 2 n_nodes - 1.

    ``dtype`` is ``np.longdouble`` (the default; the quadrature oracle
    needs it) or ``np.float64`` (what ``spectral.expand`` uses, about 3
    times faster); anything else raises DomainError.  The coefficients are
    formed in longdouble either way, and the sweep does not overflow in
    double.  A double weight below the double underflow threshold (about
    1e-308) comes out subnormal or 0: at (0.001, 150, 2048), for example,
    the weights of the nodes nearest -1 are 0.
    """
    if dtype not in (np.longdouble, np.float64):
        raise DomainError(
            f"gauss_jacobi_rule computes in np.longdouble or np.float64, not {dtype!r}"
        )
    dtype = np.dtype(dtype)
    if alpha <= -1 or beta <= -1:
        raise DomainError("gauss_jacobi_rule requires alpha, beta > -1")
    if n_nodes <= 0:
        raise DomainError(f"n_nodes must be >= 1, got {n_nodes}")
    g, a, t, p0, b = _rescaled_coeffs(alpha, beta, n_nodes)
    try:  # a and b[:-1] are the Jacobi matrix of n_nodes rows
        start = eigh_tridiagonal(a.astype(float), b[:-1].astype(float), eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError("tridiagonal eigensolver failed") from exc
    x = np.asarray(start, dtype=dtype)
    tol = _NEWTON_ULPS * np.finfo(dtype).eps
    for sweep in range(_MAX_SWEEPS):
        weights, delta = _christoffel_sweep(g, a, t, p0, x)
        if sweep and np.max(np.abs(delta)) <= tol:
            break
        x = x - delta
    else:
        raise ConvergenceError(
            f"Gauss-Jacobi nodes did not converge in {_MAX_SWEEPS} Newton sweeps"
        )
    if not (np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1):
        raise ConvergenceError("Gauss-Jacobi nodes are not increasing inside (-1, 1)")
    return QuadratureRule(nodes=x, weights=weights, alpha=alpha, beta=beta)


_SERIES_MAX_TERMS = 10_000


def _sum_series(terms) -> float:
    """Sum of the iterable ``terms`` once three terms in a row are at most
    1e-17 of the partial sum.  The rule is relative, so a sum far below 1
    is not cut short.  Raises ConvergenceError if the terms run out first
    or after _SERIES_MAX_TERMS terms."""
    total = 0.0
    small = 0
    for t in itertools.islice(terms, _SERIES_MAX_TERMS):
        total += t
        if abs(t) <= 1e-17 * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(f"series did not converge in {_SERIES_MAX_TERMS} terms")


def hyper_pfq_at(numerators, denominators, z: float) -> float:
    """pFq(numerators; denominators; z) by direct term summation.

    Requires p <= q, the entire regime.  Each term is the one before times
    a ratio; the sum stops once three terms in a row are at most 1e-17 of
    the partial sum (see _sum_series).
    """
    nums = [float(a) for a in numerators]
    dens = [float(b) for b in denominators]
    if len(nums) > len(dens):
        raise UnsupportedError("hyper_pfq_at supports only p <= q")
    for b in dens:
        if b <= 0 and b == int(b):
            raise DomainError(f"denominator parameter {b} is a non-positive integer")

    def terms():
        term = 1.0
        for k in itertools.count():
            yield term
            ratio = z / (k + 1.0)
            for a in nums:
                ratio *= a + k
            for b in dens:
                ratio /= b + k
            term *= ratio

    return _sum_series(terms())
