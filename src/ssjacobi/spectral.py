"""Weighted orthonormal basis evaluation, the coefficient map, and two
model time-steppers: implicit-Euler diffusion u_t = u_xx and Cayley
advection u_t = -u_x, whose solution is u(x, t) = f(x - t).

The basis is phi_n = kappa_n (1-x)^(alpha/2) (1+x)^(beta/2) P_n^(alpha,beta);
it is orthonormal in L2(-1, 1) and vanishes at the endpoints, so the
coefficient map is an isometry and the differentiation matrix acting on
coefficients is skew-symmetric.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import semisep
from .jacobidiff import DiffMatrixBuild, InternalConsistencyError
from .specfun import DomainError, JacobiParams, _orthonormal_rows, _orthonormal_table, gauss_jacobi_rule

__all__ = [
    "CoeffVector",
    "wfun_table",
    "expand",
    "reconstruct",
    "differentiate",
    "step_diffusion",
    "step_advection_cayley",
]


@dataclass(frozen=True)
class CoeffVector:
    """Expansion coefficients of a function in the weighted basis.

    By orthonormality the l2 norm of ``coeffs`` equals the L2 norm of the
    represented truncation.
    """

    params: JacobiParams
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coeffs must be a nonempty vector")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _sqrt_weight(params: JacobiParams, x: np.ndarray) -> np.ndarray:
    return (1.0 - x) ** (params.alpha / 2.0) * (1.0 + x) ** (params.beta / 2.0)


def _domain_points(x) -> np.ndarray:
    """x as a double array of points in [-1, 1]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0):
        raise DomainError("evaluation points must lie in [-1, 1]")
    return x


def wfun_table(params: JacobiParams, nmax: int, x) -> np.ndarray:
    """Basis values phi_0 .. phi_nmax at the points x, shape (nmax+1, len(x)).

    Points must lie in [-1, 1]; the endpoint value is 0.
    """
    if nmax < 0:
        raise DomainError(f"degree must be >= 0, got {nmax}")
    x = _domain_points(x)
    return _orthonormal_table(params.alpha, params.beta, nmax, x) * _sqrt_weight(params, x)[None, :]


def _sample(f, nodes: np.ndarray) -> np.ndarray:
    """f at every node: one call on the node array when f returns one value
    per node, else one call per node."""
    try:
        samples = np.asarray(f(nodes), dtype=float)
    except Exception:
        # A scalar-only f fails here in its own way (TypeError from math.sin,
        # ValueError from an `if`); a genuine error raises again per node.
        samples = None
    if samples is None or samples.shape != nodes.shape:
        samples = np.asarray([f(x) for x in nodes], dtype=float)
    return samples


# expand keeps the rules of this many (alpha, beta, Q).
_RULE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _expand_rule(alpha: float, beta: float, q_nodes: int):
    """The double Gauss rule of expand, computed once per (alpha, beta, Q).

    Sharing is safe: a QuadratureRule is frozen and its arrays are
    read-only.  A rule that raises is not cached.
    """
    return gauss_jacobi_rule(alpha, beta, q_nodes, dtype=np.float64)


def expand(params: JacobiParams, f, n_size: int) -> CoeffVector:
    """First N coefficients of f in the weighted basis, by Gauss quadrature.

    Uses a double-precision rule with Q = max(2N, 64) nodes; the last 8
    rules, by (alpha, beta, Q), are cached, so repeated expansions in one
    basis compute their rule once.  The square root of the weight is
    divided out analytically (all nodes are interior, where the weight is
    positive), so f itself need not be evaluable at the endpoints.

    f must act elementwise: f(x)[i] == f(x[i]).  It is called once on the
    whole (read-only, double) node array, and the result is used if it
    has shape (Q,); if that call raises or returns another shape, f is
    called once per node instead.  The orthonormal recurrence runs over the
    nodes in double, in blocks of about 2^16 values, each block of rows q_n
    summed in one matrix-vector product and scaled by t_n: O(N + Q + 2^16).
    """
    if n_size < 1:
        raise DomainError(f"size must be >= 1, got {n_size}")
    q_nodes = max(2 * n_size, 64)
    rule = _expand_rule(params.alpha, params.beta, q_nodes)
    samples = _sample(f, rule.nodes)
    if not np.all(np.isfinite(samples)):
        raise ValueError("function samples must be finite at the quadrature nodes")
    # A node whose weight underflowed double adds nothing, and is left out:
    # there the square root of the weight can underflow as well, and the
    # P_n can overflow.
    live = rule.weights > 0
    nodes = rule.nodes[live]
    weighted = rule.weights[live] * (samples[live] / _sqrt_weight(params, nodes))
    t, blocks = _orthonormal_rows(params.alpha, params.beta, n_size - 1, nodes)
    sums = np.empty(n_size)
    for k0, block in blocks:
        sums[k0 : k0 + len(block)] = block @ weighted
    coeffs = t * sums
    return CoeffVector(params=params, coeffs=coeffs)


def reconstruct(u: CoeffVector, x) -> np.ndarray:
    """Pointwise values sum_n u_n phi_n(x) of the represented truncation.

    Points must lie in [-1, 1]; the value at x = +-1 is exactly 0.  The
    orthonormal recurrence runs over the points in double, in blocks of
    about 2^16 values, each block of rows q_n adding one matrix-vector
    product with u_n t_n: memory O(N + len(x) + 2^16).  Where the p_n
    overflow double (beta = 1000 near x = -1) and the sum is not finite at
    an interior point, FloatingPointError names the first such point.
    """
    pts = _domain_points(x)
    a, b = u.params.alpha, u.params.beta
    t, blocks = _orthonormal_rows(a, b, u.n - 1, pts)
    scaled = u.coeffs * t
    vals = np.zeros_like(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, block in blocks:
            vals += scaled[k0 : k0 + len(block)] @ block
        vals *= _sqrt_weight(u.params, pts)
    vals[np.abs(pts) == 1.0] = 0.0
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise FloatingPointError(
            f"reconstruct at (alpha, beta, N) = ({a!r}, {b!r}, {u.n}) is not finite"
            f" at x = {float(pts[bad[0]])!r}"
        )
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _check_match(build: DiffMatrixBuild, u: CoeffVector) -> None:
    if u.n != build.n:
        raise ValueError(f"coefficient length {u.n} does not match matrix size {build.n}")
    if u.params != build.params:
        raise ValueError("coefficient parameters do not match the matrix build")


def differentiate(build: DiffMatrixBuild, u: CoeffVector) -> CoeffVector:
    """Coefficients of the derivative of the function represented by u.

    With D_{m,n} = <phi_m', phi_n> the derivative coefficients are
    D^T u = -D u (each basis derivative phi_m' expands along row m, so
    the coefficient map uses the transpose).  Structured O(N) matvec
    when the build carries generators, dense matvec otherwise.
    """
    _check_match(build, u)
    return CoeffVector(params=u.params, coeffs=-build.matvec(u.coeffs))


def step_diffusion(build: DiffMatrixBuild, u: CoeffVector, dt: float) -> CoeffVector:
    """One implicit-Euler step of u_t = u_xx: solve (I - dt D^2) u+ = u.

    D^2 is negative semidefinite, so the system matrix is symmetric
    positive definite and the step contracts the l2 norm.  It is solved
    as (I + sqrt(dt) D)(I - sqrt(dt) D) u+ = u, since the factors commute:
    on the generator path two rank-2 solves are better conditioned after
    banded reduction than one solve on the rank-4 product generators.
    """
    _check_match(build, u)
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    root = math.sqrt(dt)
    try:
        mid = build.solve_shifted(root, u.coeffs)
        out = build.solve_shifted(-root, mid)
    except semisep.SingularityError as exc:  # pragma: no cover
        raise InternalConsistencyError(
            "diffusion system reported singular; it is positive definite"
        ) from exc
    return CoeffVector(params=u.params, coeffs=out)


def step_advection_cayley(build: DiffMatrixBuild, u: CoeffVector, dt: float) -> CoeffVector:
    """One Cayley step of u_t = -u_x: (I - dt/2 D) u+ = (I + dt/2 D) u.

    The derivative coefficients are -D u (see ``differentiate``), so this
    steps u' = D u, the advection to the right whose solution from
    u(x, 0) = f(x) is u(x, t) = f(x - t).

    The Cayley transform of a skew-symmetric matrix is orthogonal, so the
    step conserves the l2 norm.  As I + hD = 2I - (I - hD), the step is
    u+ = 2 (I - hD)^-1 u - u with h = dt/2: one shifted solve and no
    matvec, so hD u, which can be far larger than u, is never formed.
    """
    _check_match(build, u)
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    try:
        solved = build.solve_shifted(-dt / 2.0, u.coeffs)
    except semisep.SingularityError as exc:  # pragma: no cover
        raise InternalConsistencyError(
            "Cayley system reported singular; its spectrum is 1 + imaginary"
        ) from exc
    solved *= 2.0  # a new array from either route's solve
    solved -= u.coeffs
    return CoeffVector(params=u.params, coeffs=solved)
