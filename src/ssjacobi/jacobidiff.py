"""The skew-symmetric differentiation matrix of the weighted Jacobi basis.

Four mutually validating construction routes:

* ``closed_form``       -- per-entry Gamma-ratio formula from exact ratios;
* ``recurrence``        -- bilateral three-term recurrence marched column
                           by column from the explicit first column;
* ``quadrature_oracle`` -- exact Gauss-Jacobi integration of the defining
                           integral: w' is the weight (1-x)^(a-1) (1+x)^(b-1)
                           times a line, so one rule covers every entry;
* ``generators``        -- the rank-2 semi-separable generator vectors.

The normative orientation is the lower triangle (row index larger), where
the entry is -1/2 times the weighted integral of w' P_m P_n scaled by the
normalization constants.  The closed form and the generators are written
with that orientation, so D[1, 0] > 0 on every route (see
``_closed_form_lower``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .specfun import (
    DomainError,
    JacobiParams,
    _kappa_squares,
    _orthonormal_table,
    _sum_series,
    gauss_jacobi_rule,
    hyper_pfq_at,
    log_gamma,
)
from .semisep import ShiftedSolver, SkewGeneratorPair, _as_vector, _reduction, _refuse_dense

__all__ = [
    "DiffMatrixBuild",
    "InternalConsistencyError",
    "SOURCES",
    "kappa_vector",
    "dtilde_lower_triangle",
    "d_entry_closed_form",
    "generators",
    "oracle_entry",
    "oracle_matrix",
    "boundedness_sums",
    "build",
]

SOURCES = ("closed_form", "recurrence", "quadrature_oracle", "generators")


class InternalConsistencyError(ArithmeticError):
    """Two routes to the same quantity disagree beyond tolerance."""


def kappa_vector(params: JacobiParams, nmax: int) -> np.ndarray:
    """Normalization constants kappa_0 .. kappa_nmax making kappa_n P_n^(a,b)
    orthonormal: the square root of the longdouble kappa^2 product,
    rounded to double once."""
    if nmax < 0:
        raise DomainError(f"degree must be >= 0, got {nmax}")
    return np.sqrt(_kappa_squares(params.alpha, params.beta, nmax)).astype(float)


def _first_column_array(params: JacobiParams, mmax: int) -> np.ndarray:
    """Pre-differentiation-matrix first column for m = 0 .. mmax.

    The m = 0 slot is the (zero) diagonal.  Bracket form, log-evaluated:
    2^(a+b-1) [G(a+1) G(m+b+1) - (-1)^m G(b+1) G(m+a+1)] / G(m+a+b+1).
    """
    a, b = params.alpha, params.beta
    s = a + b
    # Build the two Gamma-ratio terms multiplicatively in extended
    # precision: each step multiplies by an exact rational factor, so no
    # roundoff beyond the m = 0 seeds accumulates along the column.
    seed = np.longdouble(math.exp(
        (s - 1) * math.log(2.0) + math.lgamma(a + 1) + math.lgamma(b + 1)
        - math.lgamma(s + 1)
    ))
    m = np.arange(mmax, dtype=np.longdouble)
    term1 = np.cumprod(np.concatenate([[seed], (m + b + 1) / (m + s + 1)]))
    term2 = np.cumprod(np.concatenate([[seed], (m + a + 1) / (m + s + 1)]))
    sign = np.where(np.arange(mmax + 1) % 2 == 0, 1.0, -1.0)
    col = term1 - sign * term2
    col[0] = 0.0
    return col


def _coeff_arrays(params: JacobiParams, nmax: int):
    a, b = params.alpha, params.beta
    s = a + b
    n = np.arange(nmax + 1, dtype=float)
    c = (n + a) * (n + b) / ((2 * n + s) * (2 * n + s + 1))
    d = -(a**2 - b**2) / 2.0 / ((2 * n + s) * (2 * n + s + 2))
    e = (n + 1) * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2))
    return c, d, e


def dtilde_lower_triangle(params: JacobiParams, n_size: int) -> np.ndarray:
    """Strict lower triangle of the pre-differentiation matrix by recurrence.

    The bilateral recurrence links an entry's column neighbours to its row
    neighbours.  Solving it for the next-column entry is valid only when
    every referenced entry lies strictly below the diagonal, which holds
    for rows at least two past the column index; marching column by
    column therefore loses one bottom row per step, so the first column
    is seeded on an extended range of about 2N rows.

    Returns an (n_size, n_size) array, zero on and above the diagonal.
    """
    if n_size < 1:
        raise DomainError(f"size must be >= 1, got {n_size}")
    out = np.zeros((n_size, n_size))
    if n_size == 1:
        return out
    mmax = 2 * n_size - 2
    # March in extended precision: errors compound over ~N column steps.
    cc, dd, ee = (v.astype(np.longdouble) for v in _coeff_arrays(params, mmax + 1))
    prev = np.zeros(mmax + 2, dtype=np.longdouble)  # virtual column -1
    cur = np.zeros(mmax + 2, dtype=np.longdouble)
    cur[: mmax + 1] = _first_column_array(params, mmax)
    out[1:, 0] = cur[1:n_size]
    top = mmax  # highest valid row index of `cur`
    with np.errstate(over="ignore"):  # build raises where the cast to double overflows
        for n in range(0, n_size - 2):
            lo, hi = n + 2, top - 1
            if lo > hi:
                break
            m = np.arange(lo, hi + 1)
            nxt = np.zeros(mmax + 2, dtype=np.longdouble)
            nxt[m] = (
                cc[m] * cur[m - 1]
                + (dd[m] - dd[n]) * cur[m]
                + ee[m] * cur[m + 1]
                - cc[n] * prev[m]
            ) / ee[n]
            col = n + 1
            if col < n_size:
                out[col + 1 : n_size, col] = nxt[col + 1 : n_size]
            prev, cur, top = cur, nxt, hi
    return out


# The orientation is part of the formulas.  For alpha, beta > 0 the
# normative entry D[1, 0] = kappa_0 kappa_1 dtilde[1, 0], with
#   dtilde[1, 0] = 2^(a+b-1) [G(a+1) G(b+2) + G(b+1) G(a+2)] / G(a+b+2),
# is positive.  As written, the closed form at (1, 0) is pref (r + 1/r) / 4
# > 0, and the generators give b_1 . (-a_0) = (b1_1 a1_0 + b2_1 a2_0) / 4
# > 0, a sum of products of positive magnitudes.  So both formulas carry
# the normative orientation for every (alpha, beta).


def _closed_form_lower(params: JacobiParams, m, n) -> np.ndarray:
    """Closed-form values at lower-triangle indices m > n, s = a + b:
    sqrt((2m+s+1)(2n+s+1) rho_m / rho_n) (sqrt(tau_n / tau_m) - (-1)^(m-n) sqrt(tau_m / tau_n)) / 4,
    rho_k = prod_{j<k} (j+1) / (j+s+1) and tau_k = prod_{j<k} (j+a+1) / (j+b+1)
    (Gamma ratios whose seeds cancel), in longdouble, rounded to double
    once.  At a = b, tau is 1 and the entries with m - n even are 0."""
    a, b = np.longdouble(params.alpha), np.longdouble(params.beta)
    s = a + b
    m, n = np.asarray(m), np.asarray(n)
    j = np.arange(m.max(initial=0), dtype=np.longdouble)
    rho = np.cumprod(np.concatenate([[1], (j + 1) / (j + s + 1)]))
    tau = np.cumprod(np.concatenate([[1], (j + a + 1) / (j + b + 1)]))
    width = (2 * np.arange(len(rho), dtype=np.longdouble) + s + 1) / 4  # the 1/4 is exact
    pref = np.sqrt(width[m] * width[n] * (rho[m] / rho[n]))
    ratio = np.sqrt(tau[n] / tau[m])
    return (pref * (ratio - np.where((m - n) % 2, -1, 1) / ratio)).astype(float)


def d_entry_closed_form(params: JacobiParams, m: int, n: int) -> float:
    """Off-diagonal differentiation-matrix entry in closed form."""
    if m == n:
        raise DomainError("diagonal entries are zero and not covered here")
    if m < 0 or n < 0:
        raise DomainError("indices must be >= 0")
    return math.copysign(1, m - n) * float(_closed_form_lower(params, [max(m, n)], [min(m, n)])[0])


def _generator_vectors(params: JacobiParams, n_size: int):
    """Rank-2 generator vectors (a, b) of the differentiation matrix.

    Their magnitudes are sqrt((2m+s+1) R_m) and sqrt((2m+s+1) / R_m), s = p + q,
    R_m = G(m+q+1) G(m+s+1) / (G(m+1) G(m+p+1)), with (p, q) = (alpha, beta)
    in the first vectors and (beta, alpha) in the second.  R is one longdouble
    product of exact ratios from a math.lgamma seed, whose rounding cancels
    in every a_m b_n; each magnitude is rounded to double once.
    """
    m = np.arange(n_size, dtype=np.longdouble)
    alt = np.where(np.arange(n_size) % 2 == 0, 1.0, -1.0)

    def magnitudes(p, q):
        p, q = np.longdouble(p), np.longdouble(q)
        s, k = p + q, m[:-1]
        width = 2 * m + s + 1
        with np.errstate(over="ignore"):  # SkewGeneratorPair raises on non-finite entries
            seed = np.exp(np.longdouble(math.lgamma(q + 1) + math.lgamma(s + 1) - math.lgamma(p + 1)))
            r = np.cumprod(np.concatenate([[seed], (k + q + 1) * (k + s + 1) / ((k + 1) * (k + p + 1))]))
            return np.sqrt(width * r).astype(float), np.sqrt(width / r).astype(float)

    a1, b1 = magnitudes(params.alpha, params.beta)
    a2, b2 = magnitudes(params.beta, params.alpha)
    return np.vstack([-alt * 0.5 * a1, 0.5 * a2]), np.vstack([-alt * 0.5 * b1, -0.5 * b2])


def generators(params: JacobiParams, n_size: int) -> SkewGeneratorPair:
    """Rank-2 skew generator pair of the N x N differentiation matrix.

    The lower-triangle entry (m, n) of the pair is d_m . e_n =
    b_m . (-a_n), with the normative orientation.
    """
    if n_size < 1:
        raise DomainError(f"size must be >= 1, got {n_size}")
    avec, bvec = _generator_vectors(params, n_size)
    return SkewGeneratorPair(n=n_size, a=avec, b=bvec)


def _oracle_table(params: JacobiParams, nmax: int):
    """The orthonormal p_0 .. p_nmax (p_n = kappa_n P_n) at the nodes of the
    (nmax + 1)-node rule for the weight (1-x)^(a-1) (1+x)^(b-1), and the
    rule's weights times the line (a(1+x) - b(1-x)) / 2, in longdouble;
    together they integrate -w'/2."""
    a, b = params.alpha, params.beta
    rule = gauss_jacobi_rule(a - 1, b - 1, nmax + 1)
    x = rule.nodes
    return _orthonormal_table(a, b, nmax, x), 0.5 * (a * (1 + x) - b * (1 - x)) * rule.weights


def oracle_entry(params: JacobiParams, m: int, n: int) -> float:
    """Lower-triangle entry by Gauss quadrature of -1/2 int w' p_m p_n with
    m + 1 nodes: exact, since the line times p_m p_n has degree <= 2m."""
    if m < n + 1 or n < 0:
        raise DomainError("oracle_entry covers the lower triangle m >= n + 1 >= 1")
    table, weights = _oracle_table(params, m)
    return float(weights @ (table[m] * table[n]))


def oracle_matrix(params: JacobiParams, n_size: int) -> np.ndarray:
    """Full N x N differentiation matrix by Gauss quadrature with N nodes:
    exact, since the line times p_m p_n, m, n < N, has degree <= 2N - 1."""
    if n_size < 1:
        raise DomainError(f"size must be >= 1, got {n_size}")
    table, weights = _oracle_table(params, n_size - 1)
    # The Gram is summed in longdouble: its sums cancel heavily near the diagonal.
    gram = ((table * weights) @ table.T).astype(float)
    return _skew(np.tril(gram, -1))


def _skew(lower: np.ndarray) -> np.ndarray:
    """The skew-symmetric matrix with the given strict lower triangle."""
    return lower - lower.T


def _boundedness_routes(params: JacobiParams):
    """The three b-generator sums (sum b1^2, sum b1 b2, sum b2^2) by direct
    term summation, and the same three as hypergeometric combinations."""
    a, b = params.alpha, params.beta
    c = a + b + 1.0

    def square(x, y):  # terms of sum b1^2; sum b2^2 swaps alpha and beta
        return lambda n: 0.25 * (2 * n + c) * math.exp(
            log_gamma(n + x + 1) - log_gamma(n + y + 1) - log_gamma(n + c)
        )

    def b1_b2(n):
        return (-1.0) ** n * 0.25 * (2 * n + c) * math.exp(-log_gamma(n + c))

    direct = tuple(
        _sum_series(map(term, itertools.count())) for term in (square(a, b), b1_b2, square(b, a))
    )

    def mixed_pair(x, y):
        lead = 0.25 * c * math.exp(log_gamma(x + 1) - log_gamma(y + 1) - log_gamma(c))
        lead *= hyper_pfq_at([1.0, x + 1], [y + 1, c], 1.0)
        tail = 0.5 * math.exp(log_gamma(x + 2) - log_gamma(y + 2) - log_gamma(c + 1))
        tail *= hyper_pfq_at([2.0, x + 2], [y + 2, c + 1], 1.0)
        return lead + tail

    hyp = (
        mixed_pair(a, b),
        0.25 * c * math.exp(-log_gamma(c)) * hyper_pfq_at([1.0], [c], -1.0)
        - 0.5 * math.exp(-log_gamma(c + 1)) * hyper_pfq_at([2.0], [c + 1], -1.0),
        mixed_pair(b, a),
    )
    return direct, hyp


def _relative_gap(direct: float, hyp: float) -> float:
    """The gap between the two routes to one sum, relative to the larger."""
    return abs(direct - hyp) / max(abs(direct), abs(hyp), 1e-300)


def boundedness_sums(params: JacobiParams) -> tuple[float, float, float]:
    """The three infinite b-generator sums governing boundedness.

    Each is computed both as the hypergeometric combination and by direct
    term summation; the routes must agree to 1e-8 relative.  Returns
    (sum b1^2, sum b1 b2, sum b2^2) from the direct summation.
    """
    direct, hyp = _boundedness_routes(params)
    for name, dv, hv in zip(("b1.b1", "b1.b2", "b2.b2"), direct, hyp):
        if _relative_gap(dv, hv) > 1e-8:
            raise InternalConsistencyError(
                f"boundedness sum {name}: direct {dv!r} vs hypergeometric {hv!r}"
            )
    return direct


# A build keeps the factors of this many shifts: the three that the two
# steppers use at one dt (+-sqrt(dt) and -dt/2), plus one.
_FACTOR_CACHE_SIZE = 4


@dataclass(frozen=True)
class DiffMatrixBuild:
    """A constructed N x N differentiation matrix D.

    Dense routes store D as a read-only N x N ``matrix``; the generator
    route stores the rank-2 skew ``pair``, which is its generator form.
    Both implement the two operations the steppers need, ``matvec`` and
    ``solve_shifted``: in O(N) through the generators, densely otherwise.
    Both take one vector of shape (N,) and raise alike on a bad one.  A
    build factors I + s D once per shift s, by ``lu_factor`` or by one
    ``ShiftedSolver`` on the pair's one reduction, and keeps the last few
    factors, so repeated steps at one dt only solve.
    """

    params: JacobiParams
    n: int
    source: str
    matrix: np.ndarray | None = None
    pair: SkewGeneratorPair | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def dense(self) -> np.ndarray:
        """D as an N x N array: a new one from the generators, else the
        read-only ``matrix``."""
        if self.pair is not None:
            return self.pair.to_dense()
        return self.matrix

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """D @ v.  Raises ``FloatingPointError`` if the result is not finite."""
        if self.pair is not None:
            return self.pair.matvec(v)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out = self.matrix @ _as_vector(v, self.n)
        if not np.isfinite(out).all():
            raise FloatingPointError("matvec result is not finite")
        return out

    def solve_shifted(self, s: float, rhs: np.ndarray) -> np.ndarray:
        """The solution x of (I + s D) x = rhs.

        Raises ``DomainError`` if s is not finite, ``ValueError`` if rhs is
        not finite or not of shape (N,), and ``semisep.SingularityError``
        if a band factor finds the system singular.  A generator build's
        band B0 + s B1 tends to B0 = C^T C, which squares the conditioning
        of C: at s = 0 it returns rhs only to 1.7e-11 relative at N = 16384.
        """
        s = float(s)
        if not math.isfinite(s):
            raise DomainError(f"shift must be finite, got {s!r}")
        factors = self._cache.setdefault("factors", {})
        if s not in factors:
            if self.pair is None:
                factor = functools.partial(lu_solve, lu_factor(np.eye(self.n) + s * self.matrix))
            else:
                if "reduction" not in self._cache:
                    self._cache["reduction"] = _reduction(self.pair)
                factor = ShiftedSolver(self.pair, 1.0, s, self._cache["reduction"]).solve
            if len(factors) >= _FACTOR_CACHE_SIZE:
                del factors[next(iter(factors))]  # the oldest
            factors[s] = factor
        return factors[s](rhs if self.pair is not None else _as_vector(rhs, self.n))


def build(params: JacobiParams, n_size: int, source: str) -> DiffMatrixBuild:
    """Construct the differentiation matrix by the requested route."""
    if n_size < 1:
        raise DomainError(f"size must be >= 1, got {n_size}")
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}; expected one of {SOURCES}")
    if source == "generators":
        return DiffMatrixBuild(params=params, n=n_size, source=source, pair=generators(params, n_size))
    _refuse_dense(n_size)
    if source == "closed_form":
        rows, cols = np.tril_indices(n_size, k=-1)
        lower = np.zeros((n_size, n_size))
        lower[rows, cols] = _closed_form_lower(params, rows, cols)
        matrix = _skew(lower)
    elif source == "recurrence":
        kvec = kappa_vector(params, n_size - 1)
        matrix = _skew(np.tril(kvec[:, None] * kvec * dtilde_lower_triangle(params, n_size), -1))
    else:
        matrix = oracle_matrix(params, n_size)
    if not np.all(np.isfinite(matrix)):
        raise FloatingPointError(
            f"{source} route gives non-finite entries at "
            f"(alpha, beta, N) = ({params.alpha!r}, {params.beta!r}, {n_size})"
        )
    matrix.flags.writeable = False
    return DiffMatrixBuild(params=params, n=n_size, source=source, matrix=matrix)
