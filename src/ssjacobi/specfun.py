"""Special-function primitives: log-gamma, Pochhammer, Jacobi polynomials,
Gauss-Jacobi quadrature and generalized hypergeometric series.

Everything here is a pure function of its arguments; quadrature rules are
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import beta as beta_function

__all__ = [
    "JacobiParams",
    "QuadratureRule",
    "DomainError",
    "UnsupportedError",
    "ConvergenceError",
    "log_gamma",
    "pochhammer",
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

    def integrate(self, values: np.ndarray) -> float:
        """Integrate a function given by its values at the nodes."""
        return float(self.weights @ values)


def log_gamma(z: float) -> float:
    """ln Gamma(z) for z > 0."""
    z = float(z)
    if not math.isfinite(z) or z <= 0:
        raise DomainError(f"log_gamma requires finite z > 0, got {z!r}")
    return math.lgamma(z)


def pochhammer(z: float, m: int) -> float:
    """Rising factorial (z)_m = z (z+1) ... (z+m-1); (z)_0 = 1."""
    if m < 0:
        raise DomainError(f"pochhammer requires m >= 0, got {m}")
    out = 1.0
    for k in range(m):
        out *= z + k
    return out


def _recurrence_coeffs(alpha: float, beta: float, nmax: int, dtype):
    """c1_k, c0_k, c2_k of P_{k+1} = (c1_k x + c0_k) P_k - c2_k P_{k-1},
    for k = 0 .. nmax-1, formed in ``dtype``.

    k = 0 is the explicit P_1 = ((a + b + 2) x + a - b) / 2 (c2_0 = 0):
    the generic formula has a removable 0/0 there when a + b is 0 or -1.
    Returned as lists of scalars, Python floats for double, so that each
    step of the kernel takes them without a conversion.
    """
    al, be = dtype.type(alpha), dtype.type(beta)
    s = al + be
    k = np.arange(nmax, dtype=dtype)
    t = 2 * k + s  # 2k + a + b
    a0 = 2 * (k + 1) * (k + s + 1) * t
    a0[:1] = 1  # k = 0 is set below
    c1 = (t + 1) * t * (t + 2) / a0
    c0 = (t + 1) * ((al - be) * s) / a0
    c2 = 2 * (k + al) * (k + be) * (t + 2) / a0
    c1[:1], c0[:1], c2[:1] = (s + 2) / 2, (al - be) / 2, 0
    if dtype == np.float64:
        return c1.tolist(), c0.tolist(), c2.tolist()
    return list(c1), list(c0), list(c2)


# The kernel fills the rows of P_n in blocks of at most this many values
# (at least one row), so its buffer stays small for any degree and any
# number of points.
_BLOCK_VALUES = 2**16


def _block_rows(nmax: int, npts: int) -> int:
    """Rows per block of _jacobi_blocks for P_0 .. P_nmax at npts points."""
    return min(nmax + 1, max(1, _BLOCK_VALUES // max(npts, 1)))


def _jacobi_blocks(alpha: float, beta: float, nmax: int, x: np.ndarray, rows=None):
    """P_0 .. P_nmax at the 1-d points x, in blocks of ``rows`` degrees
    (by default _block_rows: about 2^16 values).  The one copy of the
    three-term recurrence; the arguments are not checked here.

    Yields (k0, block) with block[i] = P_{k0+i}(x) for k0 = 0, rows,
    2 rows ..., the last block possibly shorter.  The recurrence runs in
    the dtype of x, with its coefficients formed once in that dtype, in
    five in-place ufunc calls per degree.  Every block is a view of one
    buffer, which the next block overwrites; the buffer keeps the last
    two rows of a block in front of the next one.  With rows = nmax + 1
    the single block is the whole table and the buffer holds nothing else.
    """
    if rows is None:
        rows = _block_rows(nmax, x.size)
    c1, c0, c2 = _recurrence_coeffs(alpha, beta, nmax, x.dtype)
    several = rows <= nmax
    buf = np.empty((rows + 2 * several, x.size), dtype=x.dtype)
    tmp = np.empty_like(x)
    lo = k0 = 0  # buf[lo] holds P_k0; buf[lo-2], buf[lo-1] the two before
    while True:
        hi = lo + min(rows, nmax + 1 - k0)
        for i in range(lo, hi):
            p, k = buf[i], k0 + i - lo - 1  # p = P_{k+1}
            if k < 0:
                p.fill(1)
                continue
            np.multiply(x, c1[k], out=p)
            p += c0[k]
            p *= buf[i - 1]
            if k:
                np.multiply(buf[i - 2], c2[k], out=tmp)
                p -= tmp
        yield k0, buf[lo:hi]
        k0 += hi - lo
        if k0 > nmax:
            return
        keep = min(hi, 2)
        buf[2 - keep : 2] = buf[hi - keep : hi]
        lo = 2


def jacobi_table(alpha: float, beta: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """All P_0 .. P_nmax at the points x, as an (nmax+1, len(x)) array.

    One block of the recurrence kernel, in the precision of x
    (longdouble stays longdouble, anything else becomes double), with its
    coefficients formed in that precision too.  Accepts alpha, beta > -1:
    the quadrature oracle needs the shifted weights.
    """
    if alpha <= -1 or beta <= -1:
        raise DomainError("Jacobi polynomials require alpha, beta > -1")
    if nmax < 0:
        raise DomainError(f"degree must be >= 0, got {nmax}")
    x = np.asarray(x)
    x = (x if x.dtype == np.longdouble else np.asarray(x, dtype=float)).reshape(-1)
    _, table = next(_jacobi_blocks(alpha, beta, nmax, x, nmax + 1))
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
    pn = jacobi_eval(alpha, beta, n, x)
    pnm1 = jacobi_eval(alpha, beta, n - 1, x) if n >= 1 else 0.0
    lead_beta = (2 * n + s) * jacobi_eval(alpha, beta - 1, n, x)
    lead_alpha = (2 * n + s) * jacobi_eval(alpha - 1, beta, n, x)
    mid = (n + s) * pn
    tail_beta = (n + alpha) * pnm1
    tail_alpha = (n + beta) * pnm1
    scale_beta = np.maximum(
        np.abs(lead_beta), np.maximum(np.abs(mid), np.abs(tail_beta))
    )
    scale_alpha = np.maximum(
        np.abs(lead_alpha), np.maximum(np.abs(mid), np.abs(tail_alpha))
    )
    res_beta = (lead_beta - mid - tail_beta) / np.maximum(scale_beta, 1.0)
    res_alpha = (lead_alpha - mid + tail_alpha) / np.maximum(scale_alpha, 1.0)
    return res_alpha, res_beta


def jacobi_weight_mass(alpha: float, beta: float) -> float:
    """Total mass 2^(alpha+beta+1) B(alpha+1, beta+1) of the weight
    (1-x)^alpha (1+x)^beta on (-1, 1), for alpha, beta > -1.

    With a = alpha + 1 = a0 + m and b = beta + 1 = b0 + n, m and n the
    integer parts of alpha and beta (0 below 0), the Beta function is
    B(a0, b0) (a0)_m (b0)_n / (a0 + b0)_(m+n).  scipy.special.beta gives
    B(a0, b0) for a0, b0 in (0, 2), and the rational factors are
    multiplied in longdouble, each a ratio below 1, so no factorial
    overflows.  Within 9.3e-16 relative of 50-digit values for alpha,
    beta in (-1, 300], where a sum of double log-gammas was off by up to
    1.9e-13.  Raises OverflowError if the mass exceeds the double range.
    """
    if not (alpha > -1 and beta > -1):
        raise DomainError(f"weight mass requires alpha, beta > -1, got {alpha!r}, {beta!r}")
    m, n = max(math.floor(alpha), 0), max(math.floor(beta), 0)
    a0, b0 = (alpha - m) + 1, (beta - n) + 1
    ld = np.longdouble
    i, j = np.arange(m, dtype=ld), np.arange(n, dtype=ld)
    factors = np.concatenate([
        [ld(beta_function(a0, b0))],
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


# Every this many steps a sweep rescales the nodes whose Christoffel sum
# has grown past 2^(maxexp / 2) of the sweep's dtype (see below).
_RESCALE_EVERY = 16


def _christoffel_sweep(diag, off, p0, x):
    """One pass of the orthonormal recurrence over the points x.

    Keeps only two polynomials at a time.  Returns the Gauss weights
    1 / sum_{k<q} p_k(x)^2 and the Newton correction p_q / p_q' for the
    zeros of p_q: by Christoffel-Darboux the sum equals b_{q-1} p_q'
    p_{q-1} at a zero, so p_q / p_q' = (b_{q-1} p_q) p_{q-1} / sum to
    second order.

    Near the ends of (-1, 1) p_k grows like the inverse square root of
    the weight, past what a double holds at large alpha, beta and q.  So
    every _RESCALE_EVERY steps, at each node whose sum (which bounds p_k^2
    and p_{k-1}^2, and only grows) exceeds 2^(maxexp / 2) of the dtype,
    p_k and p_{k-1} are divided by a power of two 2^e near sqrt(sum) and
    the sum by 2^(2e); the node's exponent L accumulates e.  Scaling by a
    power of two is exact, so the results are those of an unbounded
    exponent range: the Newton correction, a ratio, does not see the
    scale, and the weight is 2^(-2L) / sum.  The threshold leaves p_k a
    factor 2^(maxexp / 4) of headroom before p_k^2 overflows, 2^16 per
    step in double.  In longdouble no rule on the tested grids gets near
    the threshold.
    """
    q = diag.size
    b = np.concatenate(([0], off))  # b[k] = b_{k-1}, with b_{-1} = 0
    limit = np.ldexp(x.dtype.type(1), np.finfo(x.dtype).maxexp // 2)
    scale = np.zeros(x.shape, dtype=int)  # L: the sums are 2^(-2L) times the true ones
    p_prev = np.zeros_like(x)
    p = np.full_like(x, p0)
    ssum = p * p
    nxt = np.empty_like(x)
    for k in range(q - 1):
        np.subtract(x, diag[k], out=nxt)
        nxt *= p
        p_prev *= b[k]
        nxt -= p_prev
        nxt /= b[k + 1]
        p_prev, p, nxt = p, nxt, p_prev
        ssum += p * p
        if k % _RESCALE_EVERY == _RESCALE_EVERY - 1:
            big = np.flatnonzero(ssum > limit)
            if big.size:
                e = np.frexp(ssum[big])[1] // 2
                p[big] = np.ldexp(p[big], -e)
                p_prev[big] = np.ldexp(p_prev[big], -e)
                ssum[big] = np.ldexp(ssum[big], -2 * e)
                scale[big] += e
    bq_pq = (x - diag[q - 1]) * p - b[q - 1] * p_prev
    return np.ldexp(1 / ssum, -2 * scale), bq_pq * p / ssum


# A sweep accepts its nodes once every Newton correction is at most
# _NEWTON_ULPS ulp of its dtype.  On a grid of alpha in {-0.9 .. 300},
# beta in {-0.9 .. 300} and Q from 1 to 2048 (500 rules), the longdouble
# corrections after one Newton step from the eigenvalue start were
# 2.8e-20 in the median and at most 8.4e-19 (at alpha = -0.9, beta = 1,
# Q = 2048); the bound, 6.9e-18, is 8 times that.  In double, on 350 rules
# of the same range, they were 5.7e-17 in the median and at most 1.1e-16,
# against a bound of 1.4e-14; every rule took 2 sweeps in either dtype.
_NEWTON_ULPS = 64
_MAX_SWEEPS = 3


def gauss_jacobi_rule(
    alpha: float, beta: float, n_nodes: int, dtype=np.longdouble
) -> QuadratureRule:
    """n-point Gauss rule for the Jacobi weight, in O(n) memory.

    The eigenvalues of the Jacobi matrix (Golub-Welsch, eigenvalues only)
    are the starting nodes.  Each sweep then runs the orthonormal
    recurrence over all nodes in ``dtype`` and gives both the Newton
    correction of every node and its weight 1 / sum_k p_k^2.  The first
    sweep always takes its Newton step (the start is only accurate to
    double); a later sweep whose corrections are all at most 64 ulp of
    ``dtype`` returns the nodes it ran at, with the weights from that same
    sweep.  At most three sweeps run, else ConvergenceError.  Exact for
    polynomials of degree <= 2 n_nodes - 1.

    ``dtype`` is ``np.longdouble`` (the default; the quadrature oracle
    needs it) or ``np.float64`` (what ``spectral.expand`` uses, about 3
    times faster); anything else raises DomainError.  The recurrence
    coefficients are formed in longdouble either way.  The sweep rescales
    the recurrence by powers of two, so it does not overflow in double.
    A double weight whose true value is below the double underflow
    threshold (about 1e-308) comes out subnormal or 0: at
    (0.001, 150, 2048), for example, the weights of the nodes nearest -1
    are 0.
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
    diag, off = _jacobi_matrix(alpha, beta, n_nodes)
    try:
        start = eigh_tridiagonal(diag.astype(float), off.astype(float), eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError("tridiagonal eigensolver failed") from exc
    diag, off = diag.astype(dtype, copy=False), off.astype(dtype, copy=False)
    x = np.asarray(start, dtype=dtype)
    p0 = dtype.type(1 / np.sqrt(np.longdouble(jacobi_weight_mass(alpha, beta))))
    tol = _NEWTON_ULPS * np.finfo(dtype).eps
    for sweep in range(_MAX_SWEEPS):
        weights, delta = _christoffel_sweep(diag, off, p0, x)
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


_HYPER_MAX_TERMS = 10_000


def hyper_pfq_at(numerators, denominators, z: float) -> float:
    """pFq(numerators; denominators; z) by direct term summation.

    Requires p <= q, the entire regime; summation stops once the term
    magnitude stays below 1e-16 * (1 + |partial sum|) for three
    consecutive terms.
    """
    nums = [float(a) for a in numerators]
    dens = [float(b) for b in denominators]
    if len(nums) > len(dens):
        raise UnsupportedError("hyper_pfq_at supports only p <= q")
    for b in dens:
        if b <= 0 and b == int(b):
            raise DomainError(f"denominator parameter {b} is a non-positive integer")
    total = 0.0
    term = 1.0
    small = 0
    for k in range(_HYPER_MAX_TERMS):
        total += term
        if abs(term) <= 1e-16 * (1.0 + abs(total)):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
        ratio = z / (k + 1.0)
        for a in nums:
            ratio *= a + k
        for b in dens:
            ratio /= b + k
        term *= ratio
    raise ConvergenceError(
        f"hypergeometric series did not converge in {_HYPER_MAX_TERMS} terms"
    )
