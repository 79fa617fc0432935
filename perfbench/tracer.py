"""Per-layer spans for one traced ``blo`` process, recorded from outside.

``install()`` replaces the module attributes that each caller inside
``blo`` looks up at call time (``blo.solvers.bagdc_step``,
``blo.experiments.run_solver``, ``blo.svgplot.emit_svg``, ...) with
timing wrappers, and wraps the oracle callbacks of every problem that
``build_problem`` returns.  Nothing under ``src/blo`` is edited; a hook
whose attribute no longer exists is skipped and listed in ``missing``.

Each thread records into its own tables, so the counts stay exact when
``run_experiments`` runs its pool.  A span keeps the time of its direct
children and the oracle time anywhere below it, which gives self times
(span minus children) and the oracle share of a step.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from array import array

ORACLE_KINDS = ("ul_value", "ll_value", "grad_x_ul", "grad_y_ul", "grad_y_ll",
                "hvp_yy_ll", "jvp_xy_ll", "hvp_yy_ul", "jvp_xy_ul")
ANALYTIC_FIELDS = ("y_star", "phi", "grad_phi", "y_star_mu", "v_star_mu",
                   "grad_phi_mu")
STEP_FUNCTIONS = {
    "bagdc_step": "bagdc",
    "nosa_step": "nosa",
    "rhg_hypergradient": "rhg",
    "implicit_cg_hypergradient": "implicit-cg",
    "implicit_ns_hypergradient": "implicit-ns",
    "bda_hypergradient": "bda",
}
METHODS = tuple(STEP_FUNCTIONS.values())

_now = time.perf_counter_ns


class _Layer:
    """Totals of one span name in one thread."""

    __slots__ = ("calls", "ns", "child_ns", "oracle_ns", "durations",
                 "done", "hvps", "jvps", "items", "nbytes")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.ns = 0
        self.child_ns = 0
        self.oracle_ns = 0
        self.durations = array("q") if keep_durations else None
        self.done = 0      # steps that returned a result
        self.hvps = 0      # products reported by the step itself
        self.jvps = 0
        self.items = 0     # CG iterations
        self.nbytes = 0    # bytes written (svg)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict[str, _Layer]] = []
        self._lock = threading.Lock()
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            table: dict[str, _Layer] = {}
            with self._lock:
                self._tables.append(table)
            st = self._local.st = (table, [])
        return st

    def span(self, name: str, fn, *, keep_durations=False, oracle=False,
             after=None):
        """Wrap ``fn`` so each call records one span called ``name``.

        ``after(layer, result, args)`` sees the return value and the
        positional arguments of calls that returned, to take counts.
        """
        tracer = self

        def wrapped(*args, **kwargs):
            table, stack = tracer._state()
            frame = [0, 0]  # direct-child ns, oracle ns below
            stack.append(frame)
            t0 = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = _now() - t0
                stack.pop()
                layer = table.get(name)
                if layer is None:
                    layer = table[name] = _Layer(keep_durations)
                layer.calls += 1
                layer.ns += dt
                layer.child_ns += frame[0]
                below = frame[1] + (dt if oracle else 0)
                layer.oracle_ns += frame[1]
                if layer.durations is not None:
                    layer.durations.append(dt)
                if after is not None and result is not None:
                    after(layer, result, args)
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += below

        return wrapped

    # -- hooks -------------------------------------------------------------

    def patch(self, module, attr: str, make):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(fn))

    def wrap_problem(self, problem):
        if problem is None or getattr(problem, "__blo_traced__", False):
            return problem
        changes = {}
        for kind in ORACLE_KINDS:
            fn = getattr(problem, kind, None)
            if fn is not None:
                changes[kind] = self.span("oracle." + kind, fn,
                                          keep_durations=True, oracle=True)
        wrapped = dataclasses.replace(problem, **changes)
        object.__setattr__(wrapped, "__blo_traced__", True)
        return wrapped

    def wrap_oracle(self, oracle):
        if oracle is None or getattr(oracle, "__blo_traced__", False):
            return oracle
        changes = {}
        for field in ANALYTIC_FIELDS:
            fn = getattr(oracle, field, None)
            if fn is not None:
                changes[field] = self.span("analytic", fn)
        wrapped = dataclasses.replace(oracle, **changes)
        object.__setattr__(wrapped, "__blo_traced__", True)
        return wrapped

    def _step(self, method: str, fn):
        tracer = self

        def counts_from(layer, result, args):
            layer.done += 1
            info = result[1] if isinstance(result, tuple) else result
            counts = getattr(info, "counts", None) or getattr(info, "inner_cost", None)
            if counts is not None:
                layer.hvps += counts.hvps
                layer.jvps += counts.jvps

        timed = self.span("step." + method, fn, keep_durations=True,
                          after=counts_from)

        def step(*args, **kwargs):
            # bda unrolls through rhg_hypergradient: one step, not two
            local = tracer._local
            depth = getattr(local, "step_depth", 0)
            if depth:
                return fn(*args, **kwargs)
            local.step_depth = 1
            try:
                return timed(*args, **kwargs)
            finally:
                local.step_depth = 0

        return step

    def _run_solver(self, fn):
        tracer = self
        timed = self.span("driver", fn)

        def run_solver(problem, *args, **kwargs):
            problem = tracer.wrap_problem(problem)
            if kwargs.get("oracle") is not None:
                kwargs["oracle"] = tracer.wrap_oracle(kwargs["oracle"])
            if kwargs.get("sink") is not None:
                kwargs["sink"] = tracer.span("io.sink", kwargs["sink"])
            if kwargs.get("probe") is not None:
                kwargs["probe"] = tracer.span("probe", kwargs["probe"])
            return timed(problem, *args, **kwargs)

        return run_solver

    def _build_problem(self, fn):
        tracer = self
        timed = self.span("build", fn)

        def build_problem(*args, **kwargs):
            built = timed(*args, **kwargs)
            return dataclasses.replace(built, problem=tracer.wrap_problem(built.problem),
                                       oracle=tracer.wrap_oracle(built.oracle))

        return build_problem

    def install(self) -> None:
        import blo.cli
        import blo.experiments
        import blo.metrics
        import blo.solvers
        import blo.svgplot

        solvers = blo.solvers
        for attr, method in STEP_FUNCTIONS.items():
            self.patch(solvers, attr, lambda fn, m=method: self._step(m, fn))
        for attr in ("aggregate", "counting_problem"):
            self.patch(solvers, attr, lambda fn: self.span("problem.wrap", fn))
        self.patch(solvers, "_make_record", lambda fn: self.span("metrics.row", fn))

        def cg_iters(layer, result, args):
            layer.items += int(getattr(result, "iterations", 0))

        for module in (solvers, blo.metrics):
            self.patch(module, "cg_solve",
                       lambda fn: self.span("linalg.cg", fn, after=cg_iters))
        self.patch(solvers, "neumann_apply", lambda fn: self.span("linalg.neumann", fn))
        self.patch(solvers, "power_iteration_lmax",
                   lambda fn: self.span("linalg.power", fn))

        experiments = blo.experiments
        self.patch(experiments, "run_solver", self._run_solver)
        self.patch(experiments, "build_problem", self._build_problem)
        self.patch(experiments, "execute_run", lambda fn: self.span("runner.run", fn))

        def svg_bytes(layer, result, args):
            path = args[2] if len(args) > 2 else None
            if path is not None and os.path.exists(path):
                layer.nbytes += os.path.getsize(path)

        self.patch(blo.svgplot, "emit_svg",
                   lambda fn: self.span("svg", fn, after=svg_bytes))
        self.patch(blo.cli, "parse_config", lambda fn: self.span("config.parse", fn))

    # -- results -----------------------------------------------------------

    def merged(self) -> dict[str, _Layer]:
        out: dict[str, _Layer] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, src in table.items():
                dst = out.get(name)
                if dst is None:
                    dst = out[name] = _Layer(src.durations is not None)
                for slot in ("calls", "ns", "child_ns", "oracle_ns", "done",
                             "hvps", "jvps", "items", "nbytes"):
                    setattr(dst, slot, getattr(dst, slot) + getattr(src, slot))
                if src.durations is not None:
                    dst.durations.extend(src.durations)
        return out
