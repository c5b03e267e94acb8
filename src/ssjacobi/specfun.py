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

__all__ = [
    "JacobiParams",
    "QuadratureRule",
    "DomainError",
    "UnsupportedError",
    "ConvergenceError",
    "log_gamma",
    "pochhammer",
    "jacobi_eval",
    "jacobi_rows",
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
    strictly positive and summing to the weight's total mass.  Both are
    stored as read-only copies.
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


def _p1(alpha: float, beta: float, x):
    return 0.5 * ((alpha + beta + 2.0) * x + alpha - beta)


def _points(x) -> np.ndarray:
    """x as an array: longdouble if it already is, double otherwise."""
    x = np.asarray(x)
    return x if x.dtype == np.longdouble else np.asarray(x, dtype=float)


def _recurrence(alpha: float, beta: float, nmax: int, x: np.ndarray):
    pm1 = np.ones_like(x)
    yield pm1
    if nmax == 0:
        return
    # n = 0 step of the recurrence degenerates when alpha + beta = 0;
    # start from the explicit P_1 instead.
    p = _p1(alpha, beta, x)
    yield p
    s = alpha + beta
    for k in range(1, nmax):
        a0 = 2.0 * (k + 1) * (k + s + 1) * (2 * k + s)
        a1 = (2 * k + s + 1) * ((2 * k + s) * (2 * k + s + 2) * x + alpha**2 - beta**2)
        a2 = 2.0 * (k + alpha) * (k + beta) * (2 * k + s + 2)
        p, pm1 = (a1 * p - a2 * pm1) / a0, p
        yield p


def jacobi_rows(alpha: float, beta: float, nmax: int, x):
    """P_0 .. P_nmax at the points x, one row at a time.

    The three-term recurrence in the precision of x (longdouble stays
    longdouble, anything else becomes double); it holds two rows at a
    time, so a caller that consumes the rows as they come needs only
    O(len(x)) memory.  Accepts alpha, beta > -1 (the quadrature oracle
    needs the shifted weights).
    """
    if alpha <= -1 or beta <= -1:
        raise DomainError("Jacobi polynomials require alpha, beta > -1")
    if nmax < 0:
        raise DomainError(f"degree must be >= 0, got {nmax}")
    return _recurrence(alpha, beta, nmax, _points(x))


def jacobi_table(alpha: float, beta: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """All P_0 .. P_nmax at the points x, as an (nmax+1, len(x)) array."""
    rows = jacobi_rows(alpha, beta, nmax, x)
    x = _points(x)
    table = np.empty((nmax + 1, x.size), dtype=x.dtype)
    for k, row in enumerate(rows):
        table[k] = row
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
    """Total mass of (1-x)^alpha (1+x)^beta on (-1, 1)."""
    return math.exp(
        (alpha + beta + 1) * math.log(2.0)
        + log_gamma(alpha + 1)
        + log_gamma(beta + 1)
        - log_gamma(alpha + beta + 2)
    )


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


def _christoffel_sweep(diag, off, p0, x):
    """One pass of the orthonormal recurrence over the points x.

    Keeps only two polynomials at a time.  Returns the Christoffel sum
    sum_{k<q} p_k(x)^2 and the Newton correction p_q / p_q' for the zeros
    of p_q: by Christoffel-Darboux the sum equals b_{q-1} p_q' p_{q-1} at
    a zero, so p_q / p_q' = (b_{q-1} p_q) p_{q-1} / sum to second order.
    """
    q = diag.size
    b = np.concatenate(([0], off))  # b[k] = b_{k-1}, with b_{-1} = 0
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
    bq_pq = (x - diag[q - 1]) * p - b[q - 1] * p_prev
    return ssum, bq_pq * p / ssum


# A sweep accepts its nodes once every Newton correction is at most this.
# On a grid of alpha in {-0.9 .. 300}, beta in {-0.9 .. 300} and Q from 1
# to 2048 (500 rules), the corrections after one Newton step from the
# eigenvalue start were 2.8e-20 in the median and at most 8.4e-19 (at
# alpha = -0.9, beta = 1, Q = 2048); the bound, 6.9e-18, is 8 times that.
_NEWTON_TOL = 64 * np.finfo(np.longdouble).eps
_MAX_SWEEPS = 3


def gauss_jacobi_rule(alpha: float, beta: float, n_nodes: int) -> QuadratureRule:
    """n-point Gauss rule for the Jacobi weight, in O(n) memory.

    The eigenvalues of the Jacobi matrix (Golub-Welsch, eigenvalues only)
    are the starting nodes.  Each sweep then runs the orthonormal
    recurrence over all nodes in longdouble and gives both the Newton
    correction of every node and its Christoffel sum sum_k p_k^2.  The
    first sweep always takes its Newton step (the start is only accurate
    to double); a later sweep whose corrections are all at most
    64 longdouble ulp returns the nodes it ran at, with weights
    1 / sum_k p_k^2 from that same sweep.  At most three sweeps run, else
    ConvergenceError.  Exact for polynomials of degree <= 2 n_nodes - 1.
    """
    if alpha <= -1 or beta <= -1:
        raise DomainError("gauss_jacobi_rule requires alpha, beta > -1")
    if n_nodes <= 0:
        raise DomainError(f"n_nodes must be >= 1, got {n_nodes}")
    diag, off = _jacobi_matrix(alpha, beta, n_nodes)
    try:
        start = eigh_tridiagonal(diag.astype(float), off.astype(float), eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError("tridiagonal eigensolver failed") from exc
    x = np.asarray(start, dtype=np.longdouble)
    p0 = 1 / np.sqrt(np.longdouble(jacobi_weight_mass(alpha, beta)))
    for sweep in range(_MAX_SWEEPS):
        ssum, delta = _christoffel_sweep(diag, off, p0, x)
        if sweep and np.max(np.abs(delta)) <= _NEWTON_TOL:
            break
        x = x - delta
    else:
        raise ConvergenceError(
            f"Gauss-Jacobi nodes did not converge in {_MAX_SWEEPS} Newton sweeps"
        )
    if not (np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1):
        raise ConvergenceError("Gauss-Jacobi nodes are not increasing inside (-1, 1)")
    return QuadratureRule(nodes=x, weights=1 / ssum, alpha=alpha, beta=beta)


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
