"""Reference implementations the tests compare the library against.

``aggregate`` builds the psi_mu problem as a whole, and
``counting_problem`` counts the calls made on a problem.  The lean steps,
the unrolling baselines and ``kkt_residual`` at mu > 0 must match
``aggregate`` bit for bit, and the counts they report must match what
``counting_problem`` sees.  A trace row's ``lyapunov`` cell must match
``lyapunov_value`` bit for bit.  ``nosa_step`` is the one-step
alternating scheme written out on its own, which the library's
``nosa_step`` (``bagdc_step`` with ``warm`` off) must match.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from blo.linalg import Array, Matvec, ensure_finite
from blo.metrics import AnalyticOracle
from blo.problem import BilevelProblem, Counts, psi_weights
from blo.solvers import SolverState, StepInfo


def aggregate(base: BilevelProblem, mu: float, lam: float) -> BilevelProblem:
    """Blend the upper objective into the lower level.

    Returns a problem whose ll_* surface evaluates
    psi(x, y) = mu*lam*F(x, y) + (1 - mu)*f(x, y) and whose ul_* surface
    is unchanged.  ``mu = 0`` returns ``base`` itself; see ``psi_weights``.
    """
    w = psi_weights(base, mu, lam)
    if w is None:
        return base
    w_ul, w_ll = w
    return replace(
        base,
        ll_value=lambda x, y: w_ul * base.ul_value(x, y) + w_ll * base.ll_value(x, y),
        grad_y_ll=lambda x, y: w_ul * base.grad_y_ul(x, y) + w_ll * base.grad_y_ll(x, y),
        hvp_yy_ll=lambda x, y, u: w_ul * base.hvp_yy_ul(x, y, u) + w_ll * base.hvp_yy_ll(x, y, u),
        jvp_xy_ll=lambda x, y, u: w_ul * base.jvp_xy_ul(x, y, u) + w_ll * base.jvp_xy_ll(x, y, u),
    )


def counting_problem(problem: BilevelProblem, counts: Counts) -> BilevelProblem:
    """Wrap a problem so every gradient/product call ticks ``counts``."""

    def tick(fn, field):
        if fn is None:
            return None
        def wrapped(*args):
            setattr(counts, field, getattr(counts, field) + 1)
            return fn(*args)
        return wrapped

    return replace(
        problem,
        grad_x_ul=tick(problem.grad_x_ul, "grads"),
        grad_y_ul=tick(problem.grad_y_ul, "grads"),
        grad_y_ll=tick(problem.grad_y_ll, "grads"),
        hvp_yy_ll=tick(problem.hvp_yy_ll, "hvps"),
        jvp_xy_ll=tick(problem.jvp_xy_ll, "jvps"),
        hvp_yy_ul=tick(problem.hvp_yy_ul, "hvps"),
        jvp_xy_ul=tick(problem.jvp_xy_ul, "jvps"),
    )


def lyapunov_value(problem: BilevelProblem, oracle: AnalyticOracle,
                   x: Array, y: Array, v: Array, mu: float, lam: float) -> float:
    """F(x, y*_mu(x)) + 0.5|y - y*_mu(x)|^2 + 0.5|v - v*_mu(x)|^2."""
    ys = oracle.y_star_mu(x, mu, lam)
    dy = y - ys
    dv = v - oracle.v_star_mu(x, mu, lam)
    return float(problem.ul_value(x, ys) + 0.5 * dy.dot(dy) + 0.5 * dv.dot(dv))


def nosa_step(state: SolverState, problem: BilevelProblem, alpha: float,
              beta: float) -> tuple[SolverState, StepInfo]:
    """One-step alternating scheme; no multiplier state is maintained.

        y+ = y - beta * grad_y f(x, y)
        x+ = x - alpha * (grad_x F(x, y+) - beta * [J_xy f(x, y)] grad_y F(x, y+))
    """
    p = problem
    x, y = state.x, state.y
    y1 = y - beta * p.grad_y_ll(x, y)
    ensure_finite(y1, "iterate y became non-finite")
    g_up = p.grad_y_ul(x, y1)
    d = p.grad_x_ul(x, y1) - beta * p.jvp_xy_ll(x, y, g_up)
    x1 = x - alpha * d
    ensure_finite(x1, "iterate x became non-finite")
    return SolverState(x1, y1, state.v), StepInfo(d, Counts(3, 0, 1))


def a_operator(bed) -> Matvec:
    """A quadratic testbed's A, as its lower Hessian product."""
    zeros = np.zeros(bed.problem.n)
    return lambda u: bed.problem.hvp_yy_ll(zeros, zeros, u)


def matrix_operator(a) -> Matvec:
    """An explicit square matrix as its matvec."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return lambda v: m @ v
