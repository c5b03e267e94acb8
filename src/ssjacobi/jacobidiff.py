"""The skew-symmetric differentiation matrix of the weighted Jacobi basis.

Four mutually validating construction routes:

* ``closed_form``       -- per-entry Gamma-ratio formula, log-evaluated;
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

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .specfun import (
    DomainError,
    JacobiParams,
    gauss_jacobi_rule,
    hyper_pfq_at,
    jacobi_table,
    jacobi_weight_mass,
    log_gamma,
)
from .semisep import ShiftedSolver, SkewGeneratorPair, scale

__all__ = [
    "DiffMatrixBuild",
    "InternalConsistencyError",
    "SOURCES",
    "kappa",
    "kappa_vector",
    "t_s_integrals",
    "dtilde_first_column",
    "recurrence_coeffs",
    "dtilde_lower_triangle",
    "d_entry_closed_form",
    "generators",
    "oracle_entry",
    "oracle_matrix",
    "boundedness_sums",
    "build",
    "write_dense_csv",
]

SOURCES = ("closed_form", "recurrence", "quadrature_oracle", "generators")


class InternalConsistencyError(ArithmeticError):
    """Two routes to the same quantity disagree beyond tolerance."""


def kappa_vector(params: JacobiParams, nmax: int) -> np.ndarray:
    """Normalization constants kappa_0 .. kappa_nmax making kappa_n P_n^(a,b)
    orthonormal.

    kappa_0^2 is the reciprocal weight mass, and each later square is the
    one before times the exact ratio
    kappa_{n+1}^2 / kappa_n^2 = (2n+s+3)(n+s+1)(n+1) / ((2n+s+1)(n+a+1)(n+b+1)),
    s = a + b.  The running product is kept in extended precision and
    rounded to double once, after the square root.
    """
    a, b = params.alpha, params.beta
    s = np.longdouble(a) + b  # a double sum would shift every ratio
    n = np.arange(nmax, dtype=np.longdouble)
    ratios = (2 * n + s + 3) * (n + s + 1) * (n + 1) / ((2 * n + s + 1) * (n + a + 1) * (n + b + 1))
    squares = np.cumprod(np.concatenate([[1 / np.longdouble(jacobi_weight_mass(a, b))], ratios]))
    return np.sqrt(squares).astype(float)


def kappa(params: JacobiParams, n: int) -> float:
    """kappa_n: entry n of ``kappa_vector``."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return float(kappa_vector(params, n)[n])


def t_s_integrals(params: JacobiParams, m: int) -> tuple[float, float]:
    """Closed forms of the two shifted-weight moments of P_m^(a,b)."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    a, b = params.alpha, params.beta
    s = a + b
    t = math.exp(
        s * math.log(2.0) + log_gamma(a) + log_gamma(m + b + 1) - log_gamma(m + s + 1)
    )
    sm = (-1.0) ** m * math.exp(
        s * math.log(2.0) + log_gamma(m + a + 1) + log_gamma(b) - log_gamma(m + s + 1)
    )
    return t, sm


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


def dtilde_first_column(params: JacobiParams, m: int) -> float:
    """First-column entry of the pre-differentiation matrix, m >= 1.

    Computed both from the bracketed Gamma form and from the combination
    (a/2) t_m - (b/2) s_m of the moment integrals; the two must agree.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    a, b = params.alpha, params.beta
    via_bracket = float(_first_column_array(params, m)[m])
    t, sm = t_s_integrals(params, m)
    via_moments = 0.5 * a * t - 0.5 * b * sm
    scale = max(abs(via_bracket), abs(via_moments), 1e-300)
    if abs(via_bracket - via_moments) > 1e-12 * scale:
        raise InternalConsistencyError(
            f"first-column routes disagree at m={m}: "
            f"{via_bracket!r} vs {via_moments!r}"
        )
    return via_bracket


def recurrence_coeffs(params: JacobiParams, n: int) -> tuple[float, float, float]:
    """Coefficients (c_n, d_n, e_n) of the bilateral recurrence."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    c, d, e = _coeff_arrays(params, n)
    return float(c[n]), float(d[n]), float(e[n])


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
# is positive.  As written, the closed form at (1, 0) is pref (e^h + e^-h)
# > 0, and the generators give b_1 . (-a_0) = (b1_1 a1_0 + b2_1 a2_0) / 4
# > 0, a sum of products of positive magnitudes.  So both formulas carry
# the normative orientation for every (alpha, beta).


def _closed_form_lower(params: JacobiParams, m, n) -> np.ndarray:
    """Closed-form values at lower-triangle indices m > n."""
    a, b = params.alpha, params.beta
    s = a + b
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    pref = np.exp(
        -math.log(4.0)
        + 0.5
        * (
            gammaln(m + 1)
            - gammaln(n + 1)
            + gammaln(n + s + 1)
            - gammaln(m + s + 1)
            + np.log(2 * m + s + 1)
            + np.log(2 * n + s + 1)
        )
    )
    half = 0.5 * (
        gammaln(n + a + 1) + gammaln(m + b + 1)
        - gammaln(m + a + 1) - gammaln(n + b + 1)
    )
    sign = np.where(np.asarray(m - n, dtype=int) % 2 == 0, 1.0, -1.0)
    return pref * (np.exp(half) - sign * np.exp(-half))


def d_entry_closed_form(params: JacobiParams, m: int, n: int) -> float:
    """Off-diagonal differentiation-matrix entry in closed form."""
    if m == n:
        raise DomainError("diagonal entries are zero and not covered here")
    if m < 0 or n < 0:
        raise DomainError("indices must be >= 0")
    if m > n:
        return float(_closed_form_lower(params, np.array([m]), np.array([n]))[0])
    return float(-_closed_form_lower(params, np.array([n]), np.array([m]))[0])


def _generator_vectors(params: JacobiParams, n_size: int):
    """Rank-2 generator vectors (a, b) of the differentiation matrix.

    The second a- and b-vectors are the magnitudes of the first ones with
    alpha and beta swapped.
    """
    m = np.arange(n_size, dtype=float)
    alt = np.where(np.arange(n_size) % 2 == 0, 1.0, -1.0)
    lg_m = 0.5 * gammaln(m + 1)

    def magnitudes(p, q):
        s = p + q
        log_2m = np.log(2 * m + s + 1)
        with np.errstate(over="ignore"):  # SkewGeneratorPair raises on non-finite entries
            a_mag = np.exp(-lg_m + 0.5 * (log_2m + gammaln(m + q + 1) + gammaln(m + s + 1) - gammaln(m + p + 1)))
            b_mag = np.exp(lg_m + 0.5 * (log_2m + gammaln(m + p + 1) - gammaln(m + q + 1) - gammaln(m + s + 1)))
        return a_mag, b_mag

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
    """P_0 .. P_nmax at the nodes of the (nmax + 1)-node rule for the weight
    (1-x)^(a-1) (1+x)^(b-1), and the rule's weights times the line
    (a(1+x) - b(1-x)) / 2, in longdouble; together they integrate -w'/2."""
    a, b = params.alpha, params.beta
    rule = gauss_jacobi_rule(a - 1, b - 1, nmax + 1)
    x = rule.nodes
    return jacobi_table(a, b, nmax, x), 0.5 * (a * (1 + x) - b * (1 - x)) * rule.weights


def oracle_entry(params: JacobiParams, m: int, n: int) -> float:
    """Lower-triangle entry by Gauss quadrature of -1/2 int w' P_m P_n with
    m + 1 nodes: exact, since the line times P_m P_n has degree <= 2m."""
    if m < n + 1:
        raise DomainError("oracle_entry covers the lower triangle m >= n + 1")
    table, weights = _oracle_table(params, m)
    kvec = kappa_vector(params, m)
    return float(kvec[m] * kvec[n] * (weights @ (table[m] * table[n])))


def oracle_matrix(params: JacobiParams, n_size: int) -> np.ndarray:
    """Full N x N differentiation matrix by Gauss quadrature with N nodes:
    exact, since the line times P_m P_n, m, n < N, has degree <= 2N - 1."""
    if n_size < 1:
        raise DomainError(f"size must be >= 1, got {n_size}")
    table, weights = _oracle_table(params, n_size - 1)
    # The Gram is summed in longdouble: its sums cancel heavily near the diagonal.
    dtilde = ((table * weights) @ table.T).astype(float)
    return _skew(_scaled_lower(params, dtilde))


def _scaled_lower(params: JacobiParams, dtilde: np.ndarray) -> np.ndarray:
    """kappa_m kappa_n dtilde[m, n] on the strict lower triangle, 0 elsewhere."""
    kvec = kappa_vector(params, dtilde.shape[0] - 1)
    return np.tril(kvec[:, None] * kvec * dtilde, -1)


def _skew(lower: np.ndarray) -> np.ndarray:
    """The skew-symmetric matrix with the given strict lower triangle."""
    return lower - lower.T


_SUM_MAX_TERMS = 10_000


def _direct_series(term_fn) -> float:
    """Sum of term_fn(0), term_fn(1), ... until three terms in a row are at
    most 1e-17 of the partial sum.  The rule is relative, so a sum far
    below 1 is not cut short."""
    total = 0.0
    small = 0
    for n in range(_SUM_MAX_TERMS):
        t = term_fn(n)
        total += t
        if abs(t) <= 1e-17 * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise InternalConsistencyError("generator-sum series failed to converge")


def boundedness_sums(params: JacobiParams) -> tuple[float, float, float]:
    """The three infinite b-generator sums governing boundedness.

    Each is computed both as the hypergeometric combination and by direct
    term summation; the routes must agree to 1e-8 relative.  Returns
    (sum b1^2, sum b1 b2, sum b2^2) from the direct summation.
    """
    a, b = params.alpha, params.beta
    c = a + b + 1.0

    def square(x, y):  # terms of sum b1^2; sum b2^2 swaps alpha and beta
        return lambda n: 0.25 * (2 * n + c) * math.exp(
            log_gamma(n + x + 1) - log_gamma(n + y + 1) - log_gamma(n + c)
        )

    def b1_b2(n):
        return (-1.0) ** n * 0.25 * (2 * n + c) * math.exp(-log_gamma(n + c))

    direct = (_direct_series(square(a, b)), _direct_series(b1_b2), _direct_series(square(b, a)))

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
    for name, dv, hv in zip(("b1.b1", "b1.b2", "b2.b2"), direct, hyp):
        scale = max(abs(dv), abs(hv), 1e-300)
        if abs(dv - hv) > 1e-8 * scale:
            raise InternalConsistencyError(
                f"boundedness sum {name}: direct {dv!r} vs hypergeometric {hv!r}"
            )
    return direct


# A generator build keeps the factors of this many shifts: the three that
# the two steppers use at one dt (+-sqrt(dt) and -dt/2), plus one.
_FACTOR_CACHE_SIZE = 4


@dataclass(frozen=True)
class DiffMatrixBuild:
    """A constructed N x N differentiation matrix D.

    Dense routes store D as a read-only N x N ``matrix``; the generator
    route stores the rank-2 skew ``pair``, which is its generator form.
    Both implement the two operations the steppers need, ``matvec`` and
    ``solve_shifted``: in O(N) through the generators, densely otherwise.
    A generator build factors I + s D once per shift s and keeps the
    factors of the last few shifts, so repeated steps at one dt only
    solve.  A dense build caches nothing: each of its solves is one
    ``numpy.linalg.solve``.
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
        """D @ v."""
        if self.pair is not None:
            return self.pair.matvec(v)
        return self.matrix @ v

    def solve_shifted(self, s: float, rhs: np.ndarray) -> np.ndarray:
        """The solution x of (I + s D) x = rhs.

        Raises ``semisep.SingularityError`` (generators) or
        ``numpy.linalg.LinAlgError`` (dense) if the system is singular.
        """
        if self.pair is None:
            return np.linalg.solve(np.eye(self.n) + s * self.matrix, rhs)
        s = float(s)
        factors = self._cache.setdefault("factors", {})
        if s not in factors:
            solver = ShiftedSolver(scale(self.pair, s), 1.0)
            if len(factors) >= _FACTOR_CACHE_SIZE:
                del factors[next(iter(factors))]  # the oldest
            factors[s] = solver
        return factors[s].solve(rhs)


def build(params: JacobiParams, n_size: int, source: str) -> DiffMatrixBuild:
    """Construct the differentiation matrix by the requested route."""
    if n_size < 1:
        raise DomainError(f"size must be >= 1, got {n_size}")
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}; expected one of {SOURCES}")
    if source == "generators":
        return DiffMatrixBuild(params=params, n=n_size, source=source, pair=generators(params, n_size))
    if source == "closed_form":
        rows, cols = np.tril_indices(n_size, k=-1)
        lower = np.zeros((n_size, n_size))
        lower[rows, cols] = _closed_form_lower(params, rows, cols)
        matrix = _skew(lower)
    elif source == "recurrence":
        matrix = _skew(_scaled_lower(params, dtilde_lower_triangle(params, n_size)))
    else:
        matrix = oracle_matrix(params, n_size)
    if not np.all(np.isfinite(matrix)):
        raise FloatingPointError(
            f"{source} route gives non-finite entries at "
            f"(alpha, beta, N) = ({params.alpha!r}, {params.beta!r}, {n_size})"
        )
    matrix.flags.writeable = False
    return DiffMatrixBuild(params=params, n=n_size, source=source, matrix=matrix)


def write_dense_csv(build_result: DiffMatrixBuild, path) -> None:
    """Row-major CSV with 17-significant-digit entries."""
    dense = build_result.dense()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in dense:
            writer.writerow([f"{v:.17g}" for v in row])
