"""Solver steps, hypergradient baselines, and the run driver.

BAGDC (bilevel alternating gradient with dual correction) sweeps the
lower iterate y, a multiplier estimate v, and the upper iterate x once
per outer iteration, touching exactly one Hessian-vector and one
cross-derivative product.  In merely-convex mode it iterates on the
aggregated lower level psi_mu = mu*lam*F + (1-mu)*f with a vanishing
mu_k schedule; with a strongly convex lower level mu = 0 and all steps
are constant.

The baselines share the oracle surface: NOSA (the BAGDC step with a
multiplier that is not kept from step to step), reverse-mode unrolling
(RHG), implicit differentiation with CG or truncated Neumann inverses,
and BDA (RHG over the aggregated lower level).  Hypergradient methods
are driven by plain upper gradient steps with warm-started y.

Every step calls the base problem directly, blends psi_mu products with
``psi_product``, and reports its ``Counts`` (gradients, HVPs, JVPs) from
its own loop bounds, at the psi surface: one psi product counts once.
BAGDC makes (3, 1, 1), one more HVP under the adaptive eta rule; NOSA
(3, 0, 1); RHG and BDA (T + 2, T, T); implicit-CG (T + 2, CG iterations,
1); implicit-NS (T + 2, M, 1).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .errors import (CapabilityError, DivergenceError, FieldError,
                     NonPositiveCurvatureError, SingularHessianError)
from .linalg import (Array, Matvec, _norm, cg_solve, ensure_finite, neumann_apply,
                     power_iteration_lmax)
from .metrics import AnalyticOracle, TraceRecord, _lyapunov, kkt_residual
from .problem import BilevelProblem, Counts, psi_product, psi_weights

# Degeneracy guard for the adaptive eta Rayleigh quotient.
_ETA_CURV_FLOOR = 1e-12


@dataclass(slots=True)
class SolverState:
    x: Array
    y: Array
    v: Array


@dataclass(frozen=True)
class ScheduleConfig:
    """Step-size schedule.

    ``strongly-convex``: mu_k = 0 and constant (alpha, beta, eta).
    ``merely-convex``:   mu_k = mu_bar/(k+1)^p with 0 < p < 1/11, and
                         alpha_k = alpha*mu_k^11, beta_k = beta,
                         eta_k = eta*mu_k^4.

    Base steps left as None are resolved against the dominant lower
    Hessian eigenvalue L at the initial point: beta = eta = 1/L,
    alpha = 0.1/L.
    """

    mode: str = "strongly-convex"
    alpha: float | None = None
    beta: float | None = None
    eta: float | None = None
    mu_bar: float = 0.5
    p: float = 1.0 / 12.0
    lam: float = 1.0
    eta_rule: str = "fixed"

    def __post_init__(self):
        if self.mode not in ("strongly-convex", "merely-convex"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.eta_rule not in ("fixed", "adaptive"):
            raise ValueError(f"unknown eta_rule {self.eta_rule!r}")
        if self.mode == "merely-convex":
            if not 0.0 < self.p < 1.0 / 11.0:
                raise ValueError(f"merely-convex mode needs 0 < p < 1/11, got {self.p}")
            if not 0.0 < self.mu_bar <= 0.5:
                raise ValueError(f"mu_bar must lie in (0, 1/2], got {self.mu_bar}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        for name in ("alpha", "beta", "eta"):
            val = getattr(self, name)
            if val is not None and val <= 0.0:
                raise ValueError(f"{name} must be positive, got {val}")


def schedule_at(cfg: ScheduleConfig, k: int) -> tuple[float, float, float, float]:
    """(mu_k, alpha_k, beta_k, eta_k) for outer iteration k of a resolved schedule."""
    if cfg.mode == "strongly-convex":
        return 0.0, cfg.alpha, cfg.beta, cfg.eta
    mu = cfg.mu_bar * (k + 1.0) ** (-cfg.p)
    return mu, cfg.alpha * mu ** 11, cfg.beta, cfg.eta * mu ** 4


def resolve_schedule(cfg: ScheduleConfig, problem: BilevelProblem,
                     x0: Array, y0: Array, seed: int = 0
                     ) -> tuple[ScheduleConfig, float | None]:
    """Fill in unset base steps from L = lmax of the lower Hessian at (x0, y0)."""
    if cfg.alpha is not None and cfg.beta is not None and cfg.eta is not None:
        return cfg, None
    l_hat = power_iteration_lmax(lambda u: problem.hvp_yy_ll(x0, y0, u), problem.m,
                                 iters=100, seed=seed)
    if l_hat <= 0.0:
        l_hat = 1.0
    return replace(
        cfg,
        alpha=cfg.alpha if cfg.alpha is not None else 0.1 / l_hat,
        beta=cfg.beta if cfg.beta is not None else 1.0 / l_hat,
        eta=cfg.eta if cfg.eta is not None else 1.0 / l_hat,
    ), l_hat


@dataclass(slots=True)
class StepInfo:
    """Direction, oracle cost, and (for BAGDC) the eta actually used."""

    d: Array
    counts: Counts
    eta: float | None = None


def bagdc_step(state: SolverState, problem: BilevelProblem, mu: float,
               alpha: float, beta: float, eta: float, lam: float = 1.0,
               adaptive: bool = False, warm: bool = True) -> tuple[SolverState, StepInfo]:
    """One alternating sweep on the (possibly aggregated) problem.

        y+ = y - beta * grad_y psi(x, y)
        v+ = v + eta * (grad_y F(x, y+) - [H_yy psi(x, y+)] v)
        x+ = x - alpha * (grad_x F(x, y+) - [J_xy psi(x, y)] v+)

    Note the cross product is taken at the *pre-update* y.  Exactly one
    HVP and one JVP per call (one extra HVP under the adaptive eta rule,
    which replaces eta by <r,r>/<r,Hr> for the residual r, falling back
    to the supplied eta when the quotient degenerates).  With ``warm``
    off (NOSA), v starts at 0 each step, so v+ = eta * grad_y F(x, y+)
    takes no HVP and no adaptive rule; the state keeps the v it came
    with, and StepInfo.eta is None.  Counts are taken at the psi
    surface: one psi product is one product.  A non-finite iterate
    raises DivergenceError naming the first of y, v, x that broke.
    """
    w = psi_weights(problem, mu, lam)
    p = problem
    x, y, v = state.x, state.y, state.v
    y1 = y - beta * psi_product(w, p.grad_y_ul, p.grad_y_ll, x, y)
    r = p.grad_y_ul(x, y1)
    hvps, eta_k = 0, None
    if warm:
        r = r - psi_product(w, p.hvp_yy_ul, p.hvp_yy_ll, x, y1, v)
        hvps, eta_k = 1, eta
        if adaptive:
            rr = float(r @ r)
            if rr > 0.0:
                hvps = 2
                rhr = float(r @ psi_product(w, p.hvp_yy_ul, p.hvp_yy_ll, x, y1, r))
                if rhr > _ETA_CURV_FLOOR * rr:
                    eta_k = rr / rhr
        v1 = v = v + eta_k * r
    else:
        v1 = eta * r  # for d only; the state keeps the v it came with
    d = p.grad_x_ul(x, y1) - psi_product(w, p.jvp_xy_ul, p.jvp_xy_ll, x, y, v1)
    x1 = x - alpha * d
    # one check for all three; a finite sum that overflows passes below
    if not math.isfinite(float(y1.dot(y1)) + float(v.dot(v)) + float(x1.dot(x1))):
        ensure_finite(y1, "iterate y became non-finite")
        ensure_finite(v, "iterate v became non-finite")
        ensure_finite(x1, "iterate x became non-finite")
    return SolverState(x1, y1, v), StepInfo(d, Counts(3, hvps, 1), eta_k)


def nosa_step(state: SolverState, problem: BilevelProblem, alpha: float,
              beta: float) -> tuple[SolverState, StepInfo]:
    """One-step alternating scheme: ``bagdc_step`` with no multiplier kept
    from step to step (``warm`` off) and eta = beta, so

        y+ = y - beta * grad_y f(x, y)
        x+ = x - alpha * (grad_x F(x, y+) - [J_xy f(x, y)] (beta * grad_y F(x, y+)))
    """
    return bagdc_step(state, problem, 0.0, alpha, beta, beta, warm=False)


@dataclass(frozen=True)
class HypergradientResult:
    d: Array
    y_out: Array
    counts: Counts
    multiplier: Array | None = None


def rhg_hypergradient(problem: BilevelProblem, x: Array, y0: Array, T: int,
                      beta: float, mu: float = 0.0, lam: float = 1.0
                      ) -> HypergradientResult:
    """Reverse-mode differentiation through T lower gradient steps on psi_mu
    (f itself at mu = 0).

    Forward stores the trajectory; the reverse pass accumulates

        a <- grad_y F(x, y_T),  d <- grad_x F(x, y_T)
        for t = T-1 .. 0:
            d <- d - beta * [J_xy psi(x, y_t)] a
            a <- a - beta * [H_yy psi(x, y_t)] a

    Cost: T gradients forward, T HVPs + T JVPs in reverse.
    """
    w = psi_weights(problem, mu, lam)
    p = problem
    ys = [np.asarray(y0, dtype=float)]
    for _ in range(T):
        y_next = ys[-1] - beta * psi_product(w, p.grad_y_ul, p.grad_y_ll, x, ys[-1])
        ensure_finite(y_next, "iterate y became non-finite")
        ys.append(y_next)
    a = p.grad_y_ul(x, ys[T])
    d = p.grad_x_ul(x, ys[T])
    for t in range(T - 1, -1, -1):
        d = d - beta * psi_product(w, p.jvp_xy_ul, p.jvp_xy_ll, x, ys[t], a)
        a = a - beta * psi_product(w, p.hvp_yy_ul, p.hvp_yy_ll, x, ys[t], a)
    ensure_finite(d, "iterate d became non-finite")
    return HypergradientResult(d, ys[T], Counts(T + 2, T, T))


def _implicit(problem: BilevelProblem, x: Array, y0: Array, T: int, beta: float,
              solve: Callable[[Matvec, Array], tuple[Array, int]]
              ) -> HypergradientResult:
    """T lower gradient steps to y_hat, then v from ``solve(H, b)`` (v and its
    HVP count) for H = H_yy f(x, y_hat), b = grad_y F(x, y_hat), and
    d = grad_x F - [J_xy f] v; the body of both implicit baselines."""
    p = problem
    y_hat = np.asarray(y0, dtype=float)
    for _ in range(T):
        y_hat = y_hat - beta * p.grad_y_ll(x, y_hat)
        ensure_finite(y_hat, "iterate y became non-finite")
    v, hvps = solve(lambda u: p.hvp_yy_ll(x, y_hat, u), p.grad_y_ul(x, y_hat))
    d = p.grad_x_ul(x, y_hat) - p.jvp_xy_ll(x, y_hat, v)
    ensure_finite(d, "iterate d became non-finite")
    return HypergradientResult(d, y_hat, Counts(T + 2, hvps, 1), multiplier=v)


def implicit_cg_hypergradient(problem: BilevelProblem, x: Array, y0: Array,
                              T: int, beta: float, eps: float) -> HypergradientResult:
    """Implicit differentiation with a CG solve of the adjoint system.

    Runs T lower gradient steps to y_hat, solves
    [H_yy f(x, y_hat)] v = grad_y F(x, y_hat) by CG to relative
    tolerance ``eps``, and returns d = grad_x F - [J_xy f] v.  A
    non-positive-definite Hessian surfaces as SingularHessianError.
    One HVP per CG iteration.
    """
    def solve(hvp: Matvec, b: Array) -> tuple[Array, int]:
        try:
            cg = cg_solve(hvp, b, tol=eps, max_iter=5 * problem.m + 50)
        except NonPositiveCurvatureError as exc:
            raise SingularHessianError(
                f"lower Hessian is singular or indefinite at the inner solution: {exc}") from exc
        return cg.x, cg.iterations
    return _implicit(problem, x, y0, T, beta, solve)


def implicit_ns_hypergradient(problem: BilevelProblem, x: Array, y0: Array,
                              T: int, beta: float, M: int) -> HypergradientResult:
    """Implicit differentiation with a truncated Neumann inverse.

    v = beta * sum_{j<=M} (I - beta*H)^j grad_y F(x, y_hat); with M = 0
    this collapses to v = beta * grad_y F, the multiplier the one-step
    alternating scheme applies implicitly.  M HVPs.
    """
    return _implicit(problem, x, y0, T, beta,
                     lambda hvp, b: (neumann_apply(hvp, b, beta, M), M))


def bda_hypergradient(problem: BilevelProblem, x: Array, y0: Array, T: int,
                      mu: float, lam: float, beta: float) -> HypergradientResult:
    """BDA: ``rhg_hypergradient`` over the aggregated lower level psi_mu.

    Whether mu > 0 has the upper curvature it needs is checked
    (``psi_weights``) before any oracle call.  With mu > 0 each counted
    product is one ``*_ul`` and one ``*_ll`` call.
    """
    return rhg_hypergradient(problem, x, y0, T, beta, mu, lam)


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class MethodSpec:
    """Which solver to drive, with per-method parameters.

    T is the inner step count (rhg/implicit-*/bda), eps the CG tolerance,
    M the Neumann truncation, (mu, lam) the BDA aggregation weights.
    """

    name: str
    T: int = 100
    eps: float = 1e-8
    M: int = 100
    mu: float = 0.5
    lam: float = 1.0

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise FieldError("name", f"unknown method {self.name!r} "
                                     f"(expected one of {METHOD_NAMES})")
        t_min = _STEPS[self.name].t_min
        if self.T < t_min:
            raise ValueError(f"T must be >= {t_min}, got {self.T}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.M < 0:
            raise ValueError(f"M must be >= 0, got {self.M}")
        if not 0.0 <= self.mu <= 0.5:
            raise ValueError(f"mu must lie in [0, 1/2], got {self.mu}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")


@dataclass(frozen=True)
class StopRule:
    """Run until any criterion fires; at least one must be set.

    ``kkt_tol`` is evaluated at trace rows only (it costs oracle calls).
    """

    max_iters: int | None = None
    max_seconds: float | None = None
    d_norm_tol: float | None = None
    kkt_tol: float | None = None

    def __post_init__(self):
        if (self.max_iters is None and self.max_seconds is None
                and self.d_norm_tol is None and self.kkt_tol is None):
            raise ValueError("at least one stop criterion must be set")
        if self.max_iters is not None and self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        for name in ("max_seconds", "d_norm_tol", "kkt_tol"):
            val = getattr(self, name)
            if val is not None and val < 0.0:
                raise ValueError(f"{name} must be >= 0, got {val}")


_OK_STATUSES = ("converged", "max-iters", "time-limit")


@dataclass
class RunSummary:
    status: str
    iterations: int
    wall_seconds: float
    counts: Counts
    schedule: dict
    final: dict
    error: str | None = None
    error_at: int | None = None

    @property
    def ok(self) -> bool:
        return self.status in _OK_STATUSES


# a failing oracle metric (CG on a diverging iterate) blanks its cells, not the run
_METRIC_ERRORS = (NonPositiveCurvatureError, DivergenceError, FloatingPointError)


def _make_record(problem, oracle, k, state, d_norm, mu_k, a_k, b_k, e_k,
                 seconds, totals, lam) -> TraceRecord:
    x, y, v = state.x, state.y, state.v
    grad_phi_norm = dist_x_rel = dist_y = lyap = None
    if oracle is not None:
        try:
            grad_phi_norm = _norm(oracle.grad_phi(x))
        except _METRIC_ERRORS:
            pass
        dist_x_rel = _norm(x - oracle.x_star) / max(_norm(oracle.x_star), 1e-12)
        try:
            ys = oracle.y_star_mu(x, mu_k, lam)
            dy = y - ys
            dist_y = _norm(dy)
            lyap = _lyapunov(problem, oracle, x, ys, dy, v, mu_k, lam)
        except _METRIC_ERRORS:
            pass
    return TraceRecord(
        k, seconds, float(problem.ul_value(x, y)),
        float(problem.ll_value(x, y)), d_norm, kkt_residual(problem, x, y, v),
        grad_phi_norm, dist_x_rel, dist_y, lyap, mu_k, a_k, b_k, e_k,
        totals.hvps, totals.jvps)


def _bagdc(m: MethodSpec, cfg: ScheduleConfig) -> Callable:
    lam, adaptive = cfg.lam, cfg.eta_rule == "adaptive"
    return lambda s, p, mu, a, b, e: bagdc_step(s, p, mu, a, b, e, lam, adaptive=adaptive)


def _outer(hypergradient: Callable[..., HypergradientResult]) -> Callable:
    """A baseline's step: x - alpha_k d, d from hypergradient(method, problem, x, y, beta_k)."""
    def build(m: MethodSpec, cfg: ScheduleConfig) -> Callable:
        def step(s, p, mu, a, b, e):
            res = hypergradient(m, p, s.x, s.y, b)
            x1 = s.x - a * res.d
            ensure_finite(x1, "iterate x became non-finite")
            v1 = res.multiplier if res.multiplier is not None else s.v
            return SolverState(x1, res.y_out, v1), StepInfo(res.d, res.counts)
        return step
    return build


@dataclass(frozen=True)
class _Method:
    # the run's step (state, problem, mu_k, alpha_k, beta_k, eta_k) -> (state, info),
    # built once from its MethodSpec and resolved schedule
    build: Callable[[MethodSpec, ScheduleConfig], Callable]
    t_min: int = 0  # the least T
    aggregated_kkt: bool = False  # a finished merely-convex run reports it


# What each method is.  A step looks its step function up by name when it runs, so
# a module attribute replaced from outside is the one called.
_STEPS: dict[str, _Method] = {
    "bagdc": _Method(_bagdc, aggregated_kkt=True),
    "nosa": _Method(lambda m, cfg: lambda s, p, mu, a, b, e: nosa_step(s, p, a, b)),
    "rhg": _Method(_outer(lambda m, p, x, y, b: rhg_hypergradient(p, x, y, m.T, b)), t_min=1),
    "implicit-cg": _Method(_outer(
        lambda m, p, x, y, b: implicit_cg_hypergradient(p, x, y, m.T, b, m.eps))),
    "implicit-ns": _Method(_outer(
        lambda m, p, x, y, b: implicit_ns_hypergradient(p, x, y, m.T, b, m.M))),
    "bda": _Method(_outer(
        lambda m, p, x, y, b: bda_hypergradient(p, x, y, m.T, m.mu, m.lam, b)), t_min=1),
}
METHOD_NAMES = tuple(_STEPS)

# A failed step's status, from the first entry its exception is an instance of
# (SingularHessianError is a NonPositiveCurvatureError); any other is an ``error``.
_FAILURES = ((SingularHessianError, "singular-hessian"), (DivergenceError, "diverged"),
             ((NonPositiveCurvatureError, CapabilityError), "error"))


def run_solver(problem: BilevelProblem, method: MethodSpec, schedule: ScheduleConfig,
               stop: StopRule, oracle: AnalyticOracle | None = None,
               sink: Callable[[TraceRecord], None] | None = None,
               seed: int = 0, trace_every: int = 1,
               probe: Callable[[int, float, SolverState, SolverState, Array], None]
               | None = None,
               ) -> tuple[SolverState, RunSummary]:
    """Drive a method until a stop criterion fires.

    Emits a TraceRecord every ``trace_every`` iterations (plus the final
    one).  Only the step itself is timed; metric evaluation, the sink,
    and the probe run off the clock and off the oracle counters.  Step
    errors are recorded in the summary (status ``diverged`` /
    ``singular-hessian``, or ``error`` for any other) rather than raised.

    Every run starts at x = y = v = 0.  ``probe(k, seconds, state_before,
    state_after, d)`` is a hook for study-specific measurements; ``seconds``
    is the solver clock after step k, the trace's ``wall_seconds``.
    """
    state = SolverState(np.zeros(problem.n), np.zeros(problem.m), np.zeros(problem.m))
    cfg, l_hat = resolve_schedule(schedule, problem, state.x, state.y, seed)
    sched_info = {**asdict(cfg), "l_hat": l_hat}
    entry = _STEPS[method.name]
    step = entry.build(method, cfg)
    # unset criteria become bounds that never fire
    max_iters = math.inf if stop.max_iters is None else stop.max_iters
    max_seconds = math.inf if stop.max_seconds is None else stop.max_seconds
    d_norm_tol = -math.inf if stop.d_norm_tol is None else stop.d_norm_tol
    kkt_tol = -math.inf if stop.kkt_tol is None else stop.kkt_tol
    totals = Counts()
    seconds = 0.0
    status = error = error_at = None
    last_rec: TraceRecord | None = None
    k = 0
    # overflow is how divergence manifests; detect it, don't warn
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if k >= max_iters:
                status = "max-iters"
                break
            mu_k, a_k, b_k, e_k = schedule_at(cfg, k)
            before = state
            t0 = time.perf_counter()
            try:
                state, info = step(state, problem, mu_k, a_k, b_k, e_k)
            except Exception as exc:  # e.g. a failing callback: the run ends, not the batch
                status, error = next(((s, str(exc)) for c, s in _FAILURES if isinstance(exc, c)),
                                     ("error", f"{type(exc).__name__}: {exc}"))
                error_at = k
                break
            seconds += time.perf_counter() - t0
            totals.add(info.counts)
            d_norm = _norm(info.d)
            converged = d_norm <= d_norm_tol
            timed_out = seconds >= max_seconds
            if k % trace_every == 0 or converged or timed_out or k + 1 >= max_iters:
                e_used = info.eta if info.eta is not None else e_k
                last_rec = _make_record(problem, oracle, k, state, d_norm, mu_k, a_k,
                                        b_k, e_used, seconds, totals, cfg.lam)
                if sink is not None:
                    sink(last_rec)
                if last_rec.kkt_residual <= kkt_tol:
                    converged = True
            if probe is not None:
                probe(k, seconds, before, state, info.d)
            k += 1
            if converged:
                status = "converged"
                break
            if timed_out:
                status = "time-limit"
                break

    final = {} if last_rec is None else {
        name: getattr(last_rec, name)
        for name in ("ul_value", "ll_value", "d_norm", "kkt_residual",
                     "grad_phi_norm", "dist_x_rel", "dist_y", "lyapunov")
    }
    if (status in _OK_STATUSES and entry.aggregated_kkt
            and cfg.mode == "merely-convex" and problem.has_ul_curvature and k > 0):
        mu_last = schedule_at(cfg, k - 1)[0]
        final["kkt_residual_aggregated"] = kkt_residual(
            problem, state.x, state.y, state.v, mu_last, cfg.lam)
    return state, RunSummary(status, k, seconds, totals, sched_info, final, error, error_at)
