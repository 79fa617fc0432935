"""Matrix-free linear-algebra kernels: CG solves, truncated Neumann series,
spectral estimation, and seeded Gaussian draws.

Vectors are plain 1-D float64 numpy arrays.  Operators carry only a
dimension and a matvec, so the same code path serves explicit test
matrices and Hessian-vector oracles alike.  Every function here is pure
and calls its operator only from the calling thread, so operators need
not be thread-safe: one process per run, and each run its own problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, NonPositiveCurvatureError

Array = np.ndarray

# Relative threshold below which a CG curvature p'Ap is treated as zero.
_CURV_FLOOR = 1e-14


@dataclass(frozen=True)
class LinearOperator:
    """A square matrix-free operator: a dimension plus the product ``apply``."""

    dim: int
    apply: Callable[[Array], Array]

    def __call__(self, v: Array) -> Array:
        return self.apply(v)


def identity_operator(dim: int) -> LinearOperator:
    return LinearOperator(dim, lambda v: np.array(v, dtype=float))


def diagonal_operator(diag: Array) -> LinearOperator:
    d = np.asarray(diag, dtype=float)
    return LinearOperator(d.size, lambda v: d * v)


def matrix_operator(a: Array) -> LinearOperator:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return LinearOperator(m.shape[0], lambda v: m @ v)


def _norm(a: Array) -> float:
    """Euclidean norm of a 1-D float array, bitwise equal to ``np.linalg.norm``."""
    return math.sqrt(float(a.dot(a)))


@dataclass(frozen=True)
class CGResult:
    x: Array
    iterations: int
    converged: bool
    residual_norm: float


def cg_solve(op: LinearOperator, b: Array, tol: float = 1e-10,
             max_iter: int | None = None) -> CGResult:
    """Solve ``op x = b`` for a symmetric positive-definite operator.

    Classic Hestenes-Stiefel conjugate gradients started from zero.
    Terminates when the residual drops below ``tol * ||b||``; a zero
    right-hand side returns immediately with zero iterations.  If
    ``max_iter`` products do not reach the tolerance the last iterate is
    returned with ``converged=False``.

    Raises
    ------
    NonPositiveCurvatureError
        A search direction had curvature ``p'Ap <= 0`` (relative floor):
        the operator is not positive definite.
    DivergenceError
        The residual became non-finite.
    """
    b = np.asarray(b, dtype=float)
    if max_iter is None:
        max_iter = 10 * op.dim + 10
    b_norm = _norm(b)
    if b_norm == 0.0:
        return CGResult(np.zeros_like(b), 0, True, 0.0)
    apply = op.apply
    stop = tol * b_norm
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r.dot(r))
    for it in range(1, max_iter + 1):
        ap = apply(p)
        pp = float(p.dot(p))
        curv = float(p.dot(ap))
        if curv <= _CURV_FLOOR * pp:
            raise NonPositiveCurvatureError(
                f"curvature {curv:.3e} along a CG direction with |p|^2 = {pp:.3e}; "
                "operator is not positive definite")
        step = rs / curv
        x = x + step * p
        r = r - step * ap
        rs_new = float(r.dot(r))
        if not math.isfinite(rs_new):
            raise DivergenceError("conjugate gradient residual became non-finite")
        if math.sqrt(rs_new) <= stop:
            return CGResult(x, it, True, math.sqrt(rs_new))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CGResult(x, max_iter, False, math.sqrt(rs))


def neumann_apply(op: LinearOperator, b: Array, step: float, terms: int) -> Array:
    """Truncated Neumann series ``step * sum_{j=0}^{terms} (I - step*op)^j b``.

    Approximates ``op^{-1} b`` when ``step * ||op|| < 1``; the caller owns
    that bound, and a visibly divergent accumulation raises.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    b = np.asarray(b, dtype=float)
    term = b.copy()
    acc = b.copy()
    apply = op.apply
    for _ in range(terms):
        term = term - step * apply(term)
        # one dot first; a finite term whose square overflows passes below
        if not math.isfinite(float(term.dot(term))) and not np.isfinite(term).all():
            raise DivergenceError("Neumann series accumulation became non-finite")
        acc += term
    return step * acc


def power_iteration_lmax(op: LinearOperator, iters: int = 100, seed: int = 0) -> float:
    """Rayleigh-quotient estimate of the dominant eigenvalue of a symmetric op.

    Deterministic for a fixed seed.  Returns 0.0 if an iterate is mapped
    to the zero vector (in particular for the zero operator).
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    v = gaussian_vector(op.dim, seed)
    v /= float(np.linalg.norm(v))
    for _ in range(iters):
        w = op.apply(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(v @ op.apply(v))


def gaussian_vector(dim: int, seed: int) -> Array:
    """A standard-normal draw of length ``dim``, deterministic per seed."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return np.random.default_rng(seed).standard_normal(dim)
