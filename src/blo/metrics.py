"""Stationarity metrics, analytic oracles, and trace records.

The central quantity is the squared KKT residual of the equality-
constrained reformulation

    min F(x, y)  s.t.  grad_y f(x, y) = 0

with Lagrangian L = F - <v, grad_y f>.  The residual is always taken
with respect to the original lower-level objective f, regardless of any
aggregated surrogate a solver iterates on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable

import numpy as np

from .linalg import Array, Matvec, _row_dots, cg_solve, cg_solve_rows, gaussian_vector
from .problem import BilevelProblem, _trail_cache, psi_product, psi_weights


def _kkt(p: BilevelProblem, w: tuple[float, float] | None, x: Array, y: Array,
         v: Array) -> float:
    rx = p.grad_x_ul(x, y) - psi_product(w, p.jvp_xy_ul, p.jvp_xy_ll, x, y, v)
    ry = p.grad_y_ul(x, y) - psi_product(w, p.hvp_yy_ul, p.hvp_yy_ll, x, y, v)
    rf = psi_product(w, p.grad_y_ul, p.grad_y_ll, x, y)
    return float(rx.dot(rx) + ry.dot(ry) + rf.dot(rf))


def kkt_residual(problem: BilevelProblem, x: Array, y: Array, v: Array) -> float:
    """Squared norm of the Lagrangian gradient at (x, y, v)."""
    return _kkt(problem, None, x, y, v)


def kkt_residual_aggregated(problem: BilevelProblem, x: Array, y: Array,
                            v: Array, mu: float, lam: float) -> float:
    """Same residual with f replaced by psi_mu; diagnostic only."""
    return _kkt(problem, psi_weights(problem, mu, lam), x, y, v)


def hypergrad_error(d: Array, oracle: AnalyticOracle, x: Array) -> Array:
    """For (K, n) stacks of hypergradient estimates d and points x, the K
    distances |d[i] - grad phi(x[i])|; ``nan`` where the oracle gives none."""
    r = d - oracle.grad_phi(x)
    return np.sqrt(_row_dots(r, r))


@dataclass(frozen=True)
class AnalyticOracle:
    """Closed-form ground truth for a testbed.

    ``grad_phi`` takes a point or a (K, n) stack of points, and gives
    one gradient per row; a stack's row it cannot solve is all ``nan``.
    ``y_star_mu`` and ``v_star_mu`` take (x, mu, lam) and describe the
    aggregated lower level; at mu = 0 ``y_star_mu`` is the lower solution
    (the optimistic one where there are several).
    """

    x_star: Array
    grad_phi: Callable[[Array], Array]
    y_star_mu: Callable[[Array, float, float], Array]
    v_star_mu: Callable[[Array, float, float], Array]


def _lyapunov(problem: BilevelProblem, oracle: AnalyticOracle, x: Array,
              ys: Array, dy: Array, v: Array, mu: float, lam: float) -> float:
    """F(x, y*_mu(x)) + 0.5|y - y*_mu(x)|^2 + 0.5|v - v*_mu(x)|^2, at a known
    ys = y*_mu(x) and dy = y - ys (a trace row's dist_y)."""
    dv = v - oracle.v_star_mu(x, mu, lam)
    return float(problem.ul_value(x, ys) + 0.5 * dy.dot(dy) + 0.5 * dv.dot(dv))


def quadratic_oracle(a: Matvec, z0: Array) -> AnalyticOracle:
    """Oracle for F = 0.5|x-z0|^2 + 0.5<y, A y>, f = 0.5<y, A y> - <x, y>.

    ``a`` is A's matvec; all inverse applications go through CG at tolerance
    1e-12, so A may be matrix-free.  A must be symmetric positive
    definite; a handful of seeded Rayleigh quotients are checked.
    ``grad_phi`` of a (K, n) stack solves its rows together
    (``cg_solve_rows``), each bitwise as alone; a row on which the solve
    alone would raise is all ``nan``.  That needs an ``a`` that acts
    row-wise on a stack, as ``make_quadratic``'s diagonal does.

    Single-point solves are kept by ``_trail_cache``; every callback
    returns a new array computed from them.
    Like its problem, it is used by one thread at a time.
    """
    z0 = np.asarray(z0, dtype=float)
    for s in range(5):
        u = gaussian_vector(z0.size, 1000 + s)
        if float(u @ a(u)) <= 0.0:
            raise ValueError("operator failed a positive-definiteness spot check")
    a_inv = _trail_cache(lambda w: (cg_solve(a, w, tol=1e-12).x,))

    def grad_phi(x: Array) -> Array:
        return (x - z0) + (a_inv(x)[0] if x.ndim == 1 else cg_solve_rows(a, x, tol=1e-12)[0])

    # (I + A^-1) x* = z0  <=>  (A + I) x* = A z0
    x_star = cg_solve(lambda u: a(u) + u, a(z0), tol=1e-12).x

    def y_star_mu(x: Array, mu: float, lam: float) -> Array:
        s = mu * lam + 1.0 - mu
        return (1.0 - mu) / s * a_inv(x)[0]

    def v_star_mu(x: Array, mu: float, lam: float) -> Array:
        s = mu * lam + 1.0 - mu
        return y_star_mu(x, mu, lam) / s

    return AnalyticOracle(x_star, grad_phi, y_star_mu, v_star_mu)


@dataclass(slots=True)
class TraceRecord:
    """One row of a solver trace, in the trace CSV's column order; oracle-only
    fields may be empty.  Counters are cumulative for the run."""

    k: int
    wall_seconds: float
    ul_value: float
    ll_value: float
    d_norm: float
    kkt_residual: float
    grad_phi_norm: float | None
    dist_x_rel: float | None
    dist_y: float | None
    lyapunov: float | None
    mu: float
    alpha: float
    beta: float
    eta: float
    hvp_count: int
    jvp_count: int

    def csv_row(self) -> str:
        """Cells by value: None is empty, an int prints as str, anything
        else as repr(float(value))."""
        return ",".join([repr(val) if type(val) is float else "" if val is None
                         else str(val) if isinstance(val, int) else repr(float(val))
                         for val in _row_values(self)])


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))
TRACE_HEADER = ",".join(TRACE_COLUMNS)

_row_values = attrgetter(*TRACE_COLUMNS)
