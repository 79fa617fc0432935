"""First- and second-order oracle surface for bilevel problems.

A bilevel problem couples an upper-level objective F(x, y) with a
lower-level objective f(x, y) minimized over y.  Solvers only ever see
the oracle calls collected in :class:`BilevelProblem`: values, gradients,
and the two second-order products

    hvp_yy_ll(x, y, u) = [d2f/dy2] u          (R^m -> R^m)
    jvp_xy_ll(x, y, u) = [d2f/dxdy] u         (R^m -> R^n)

Smoothness and convexity of the supplied callables are caller
obligations; they are not checked numerically.  ``fd_check_gradients``
is the finite-difference safety net for hand-derived formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapabilityError

Array = np.ndarray
_Grad = Callable[[Array, Array], Array]
_Prod = Callable[[Array, Array, Array], Array]


@dataclass(frozen=True)
class BilevelProblem:
    """Oracle bundle for min_x F(x, y*(x)) s.t. y*(x) in argmin_y f(x, y)."""

    n: int
    m: int
    ul_value: Callable[[Array, Array], float]
    ll_value: Callable[[Array, Array], float]
    grad_x_ul: _Grad
    grad_y_ul: _Grad
    grad_y_ll: _Grad
    hvp_yy_ll: _Prod
    jvp_xy_ll: _Prod
    # Optional upper-level curvature products; required only by mu > 0
    # aggregation and by BDA.
    hvp_yy_ul: _Prod | None = None
    jvp_xy_ul: _Prod | None = None

    @property
    def has_ul_curvature(self) -> bool:
        return self.hvp_yy_ul is not None and self.jvp_xy_ul is not None


def psi_weights(base: BilevelProblem, mu: float,
                lam: float) -> tuple[float, float] | None:
    """Weights (w_ul, w_ll) = (mu*lam, 1 - mu) of psi = w_ul*F + w_ll*f, or None
    for ``mu = 0`` (psi is f itself); ``mu > 0`` requires the base problem's
    upper-level curvature products."""
    if mu == 0.0:
        return None
    if not base.has_ul_curvature:
        raise CapabilityError(
            "aggregation with mu > 0 needs hvp_yy_ul and jvp_xy_ul, "
            "which this problem does not provide")
    return mu * lam, 1.0 - mu


def psi_product(w: tuple[float, float] | None, ul_prod, ll_prod, *args) -> Array:
    """One psi_mu gradient or product, w_ul*[F term] + w_ll*[f term] with the
    upper term evaluated first; the f term alone when ``w`` is None."""
    if w is None:
        return ll_prod(*args)
    w_ul, w_ll = w
    return w_ul * ul_prod(*args) + w_ll * ll_prod(*args)


def _trail_cache(fn, runs=False):
    """``fn(a)``, a tuple of read-only arrays, for the contents of ``a`` since
    the one before the last miss, or with ``runs`` before the last run of them.
    Lookups see the top two; one that finds the third pops the top, so a walk
    back over the run finds each of its points in turn.  Keys are compared,
    not hashed: hashing the 8 KB key of a 1000-sample x took 2.6 us a call on
    a 2-CPU x86_64 Xeon, comparing it 0.15 us.

    Without ``runs`` it keeps two values whatever the calls.  With them, a
    ``bagdc`` step asks at y, y+, y: its runs of misses are one call long, so
    it keeps two values.  An ``rhg`` forward pass is a run of T misses, and its
    reverse pass asks at the same points newest first: one value per point.
    Every oracle cache uses it: the quadratic oracle's solves and the three
    of the hypercleaning oracle.
    """
    trail: list[tuple[bytes, tuple[Array, ...]]] = []  # newest last
    missed = False  # the last call computed

    def cached(a):
        nonlocal missed
        a = np.asarray(a, dtype=float)
        key = a.tobytes()
        for k, value in trail[-2:]:
            if k == key:
                missed = False
                return value
        if len(trail) > 2 and trail[-3][0] == key:  # one point back
            del trail[-1]
            missed = False
            return trail[-2][1]
        if not (runs and missed):  # a new run starts from the last value
            del trail[:-1]
        value = fn(a)
        for arr in value:
            arr.setflags(write=False)
        trail.append((key, value))
        missed = True
        return value
    return cached


@dataclass
class Counts:
    """Tally of gradients and products a step makes, at the psi surface:
    one blended psi product counts once."""

    grads: int = 0
    hvps: int = 0
    jvps: int = 0

    def add(self, other: "Counts") -> None:
        self.grads += other.grads
        self.hvps += other.hvps
        self.jvps += other.jvps


FD_STEP = 1e-5  # central-difference step h
FD_TOL = 1e-4  # largest relative error that passes
FD_PROBES = 3  # seeded directions u per curvature product


@dataclass(frozen=True)
class FdCheckReport:
    """Max relative error per oracle entry, against central differences;
    an error above ``FD_TOL``, or ``nan``, fails."""

    max_rel_error: dict[str, float]

    @property
    def failures(self) -> list[str]:
        return [k for k, v in self.max_rel_error.items() if not v <= FD_TOL]

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        lines = []
        for name, err in self.max_rel_error.items():
            flag = "ok" if err <= FD_TOL else "FAIL"
            lines.append(f"  {name:<12s} rel err {err:.3e}  [{flag}]")
        verdict = "passed" if self.passed else "FAILED"
        return f"derivative check {verdict} (tol {FD_TOL:g})\n" + "\n".join(lines)


def _rel(a: Array, ref: Array) -> float:
    return float(np.linalg.norm(a - ref) / max(np.linalg.norm(ref), 1e-12))


def fd_check_gradients(problem: BilevelProblem, x: Array, y: Array,
                       seed: int = 0) -> FdCheckReport:
    """Compare every analytic oracle against central differences at (x, y)
    with step ``FD_STEP``: gradients along each unit vector e_i, curvature
    products along ``FD_PROBES`` seeded directions u, <jvp_xy(u), e_i> as
    d/dx_i <grad_y, u>.  An error above ``FD_TOL`` fails.  O(n + m) calls.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)

    def central(fun, z, d):  # fun(z + h d) - fun(z - h d), before its 1/(2h)
        return fun(z + FD_STEP * d) - fun(z - FD_STEP * d)

    def partials(fun, z, u=None):  # d/dz_i of fun, or of <fun, u>, for each i
        diffs = [central(fun, z, np.arange(z.size) == i) for i in range(z.size)]
        return np.array([d if u is None else float(d @ u) for d in diffs]) / (2.0 * FD_STEP)

    def worst(prod, ref):  # the largest error over the seeded directions, nan if any is
        return float(np.max([_rel(prod(x, y, u), ref(u))
                             for u in rng.standard_normal((FD_PROBES, problem.m))]))

    errs = {
        "grad_x_ul": _rel(problem.grad_x_ul(x, y),
                          partials(lambda xs: problem.ul_value(xs, y), x)),
        "grad_y_ul": _rel(problem.grad_y_ul(x, y),
                          partials(lambda ys: problem.ul_value(x, ys), y)),
        "grad_y_ll": _rel(problem.grad_y_ll(x, y),
                          partials(lambda ys: problem.ll_value(x, ys), y)),
    }
    products = [("ll", problem.grad_y_ll, problem.hvp_yy_ll, problem.jvp_xy_ll)]
    if problem.has_ul_curvature:
        products.append(("ul", problem.grad_y_ul, problem.hvp_yy_ul, problem.jvp_xy_ul))
    for level, grad, hvp, jvp in products:
        errs["hvp_yy_" + level] = worst(
            hvp, lambda u: central(lambda ys: grad(x, ys), y, u) / (2.0 * FD_STEP))
        errs["jvp_xy_" + level] = worst(jvp, lambda u: partials(lambda xs: grad(xs, y), x, u))
    return FdCheckReport(errs)
