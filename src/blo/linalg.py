"""Matrix-free linear-algebra kernels: CG solves, truncated Neumann series,
spectral estimation, and seeded Gaussian draws.

Vectors are plain 1-D float64 numpy arrays; ``cg_solve_rows`` takes a
(K, n) stack of them, one per row.  An operator A is its matvec
``apply(u) = A u`` (a ``Matvec``), so the same code path serves
explicit test matrices and Hessian-vector oracles alike.  Every function
here is pure and calls its operator only from the calling thread, so
operators need not be thread-safe: one process per run, and each run its
own problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, NonPositiveCurvatureError

Array = np.ndarray
Matvec = Callable[[Array], Array]

# Relative threshold below which a CG curvature p'Ap is treated as zero.
_CURV_FLOOR = 1e-14


def _norm(a: Array) -> float:
    """Euclidean norm of a 1-D float array, bitwise equal to ``np.linalg.norm``."""
    return math.sqrt(float(a.dot(a)))


def ensure_finite(vec: Array, message: str) -> None:
    """Raise ``DivergenceError(message)`` unless every entry of ``vec`` is finite."""
    # one dot first; a finite vector whose square overflows passes below
    if not math.isfinite(float(vec.dot(vec))) and not np.isfinite(vec).all():
        raise DivergenceError(message)


@dataclass(frozen=True)
class CGResult:
    x: Array
    iterations: int


def cg_solve(apply: Matvec, b: Array, tol: float = 1e-10,
             max_iter: int | None = None) -> CGResult:
    """Solve ``apply(x) = b`` for a symmetric positive-definite operator.

    Classic Hestenes-Stiefel conjugate gradients started from zero.
    Terminates when the residual drops below ``tol * ||b||``; a zero
    right-hand side returns immediately with zero iterations.  If
    ``max_iter`` products (default ``10 * b.size + 10``) do not reach the
    tolerance the last iterate is returned.

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
        max_iter = 10 * b.size + 10
    b_norm = _norm(b)
    if b_norm == 0.0:
        return CGResult(np.zeros_like(b), 0)
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
            return CGResult(x, it)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CGResult(x, max_iter)


def _row_dots(a: Array, b: Array) -> Array:
    """``a[i].dot(b[i])`` for every row of two (K, n) stacks, bitwise: a
    1 x n @ n x 1 matmul goes through the same BLAS dot as ``ndarray.dot``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def cg_solve_rows(apply: Matvec, B: Array, tol: float = 1e-10,
                  max_iter: int | None = None) -> tuple[Array, Array]:
    """``cg_solve`` on every row of a (K, n) stack at once, in lockstep.

    ``apply`` must map a stack of rows to the stack of their products.
    Returns the (K, n) solutions and the (K,) iteration counts; row i's are
    bitwise those of ``cg_solve(apply, B[i], tol, max_iter)``.  A row leaves
    the active set at the iteration where its own stop test fires.  Raises
    what ``cg_solve`` raises, at the first iteration where an active row
    would.
    """
    B = np.asarray(B, dtype=float)
    if max_iter is None:
        max_iter = 10 * B.shape[1] + 10
    X = np.zeros_like(B)
    iters = np.zeros(B.shape[0], dtype=int)
    b_norm = np.sqrt(_row_dots(B, B))
    live = np.flatnonzero(b_norm != 0.0)
    stop = tol * b_norm[live]
    x = X[live]
    r = B[live]
    p = r.copy()
    rs = _row_dots(r, r)
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        ap = apply(p)
        pp = _row_dots(p, p)
        curv = _row_dots(p, ap)
        bad = curv <= _CURV_FLOOR * pp
        if bad.any():
            i = int(np.argmax(bad))
            raise NonPositiveCurvatureError(
                f"curvature {curv[i]:.3e} along a CG direction with |p|^2 = {pp[i]:.3e}; "
                "operator is not positive definite")
        step = (rs / curv)[:, None]
        x = x + step * p
        r = r - step * ap
        rs_new = _row_dots(r, r)
        if not np.isfinite(rs_new).all():
            raise DivergenceError("conjugate gradient residual became non-finite")
        done = np.sqrt(rs_new) <= stop
        if done.any():
            X[live[done]], iters[live[done]] = x[done], it
            live, stop, x, r, p, rs, rs_new = (
                a[~done] for a in (live, stop, x, r, p, rs, rs_new))
        p = r + (rs_new / rs)[:, None] * p
        rs = rs_new
    X[live], iters[live] = x, max_iter
    return X, iters


def neumann_apply(apply: Matvec, b: Array, step: float, terms: int) -> Array:
    """Truncated Neumann series ``step * sum_{j=0}^{terms} (I - step*A)^j b``.

    Approximates ``A^{-1} b`` when ``step * ||A|| < 1``; the caller owns
    that bound, and a visibly divergent accumulation raises.
    """
    b = np.asarray(b, dtype=float)
    term = b.copy()
    acc = b.copy()
    for _ in range(terms):
        term = term - step * apply(term)
        ensure_finite(term, "Neumann series accumulation became non-finite")
        acc += term
    return step * acc


def power_iteration_lmax(apply: Matvec, dim: int, iters: int = 100, seed: int = 0) -> float:
    """Rayleigh-quotient estimate of the dominant eigenvalue of a symmetric A on R^dim.

    Deterministic for a fixed seed.  Returns 0.0 if an iterate is mapped
    to the zero vector (in particular for the zero operator).
    """
    v = gaussian_vector(dim, seed)
    v /= float(np.linalg.norm(v))
    for _ in range(iters):
        w = apply(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(v @ apply(v))


def gaussian_vector(dim: int, seed: int) -> Array:
    """A standard-normal draw of length ``dim``, deterministic per seed."""
    return np.random.default_rng(seed).standard_normal(dim)
