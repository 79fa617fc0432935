import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blo import solvers
from blo.errors import (CapabilityError, DivergenceError, NonPositiveCurvatureError,
                        SingularHessianError)
from blo.linalg import cg_solve, ensure_finite
from blo.metrics import kkt_residual
from blo.problem import BilevelProblem, Counts
from blo.solvers import (METHOD_NAMES, MethodSpec, RunSummary, ScheduleConfig,
                         SolverState, StopRule, bagdc_step,
                         bda_hypergradient, implicit_cg_hypergradient,
                         implicit_ns_hypergradient, nosa_step, resolve_schedule,
                         rhg_hypergradient, run_solver, schedule_at)
from blo.testbeds import (corrupt_labels, hypercleaning_problem, make_multimin,
                          make_quadratic, split_dataset, synth_blobs)

import reference
from reference import a_operator, aggregate, counting_problem


@pytest.fixture(scope="module")
def quad():
    return make_quadratic(2)


@pytest.fixture(scope="module")
def quad_spd():
    return make_quadratic(5, spectrum=(0.5, 1.5), seed=1)


def zero_state(problem):
    return SolverState(np.zeros(problem.n), np.zeros(problem.m),
                       np.zeros(problem.m))


def tiny_problem(hvp_scale=1.0, g_up=(1.0, 1.0)):
    """2-d problem with constant upper gradient and scaled-identity Hessian."""
    g = np.asarray(g_up, dtype=float)
    return BilevelProblem(
        n=2, m=2,
        ul_value=lambda x, y: 0.0,
        ll_value=lambda x, y: 0.0,
        grad_x_ul=lambda x, y: np.zeros(2),
        grad_y_ul=lambda x, y: g.copy(),
        grad_y_ll=lambda x, y: np.zeros(2),
        hvp_yy_ll=lambda x, y, u: hvp_scale * np.asarray(u, dtype=float),
        jvp_xy_ll=lambda x, y, u: np.zeros(2),
    )


class TestScheduleConfig:
    def test_strongly_convex_is_constant(self):
        cfg = ScheduleConfig(alpha=0.1, beta=0.1, eta=0.1)
        assert schedule_at(cfg, 0) == (0.0, 0.1, 0.1, 0.1)
        assert schedule_at(cfg, 999) == (0.0, 0.1, 0.1, 0.1)

    def test_merely_convex_at_zero(self):
        cfg = ScheduleConfig(mode="merely-convex", alpha=1.0, beta=0.3,
                             eta=2.0, mu_bar=0.5, p=1.0 / 12.0)
        mu, a, b, e = schedule_at(cfg, 0)
        assert mu == 0.5
        assert a == pytest.approx(0.5 ** 11)
        assert b == 0.3
        assert e == pytest.approx(2.0 * 0.0625)

    def test_mu_vanishes_slowly(self):
        cfg = ScheduleConfig(mode="merely-convex", alpha=1.0, beta=1.0, eta=1.0)
        mus = [schedule_at(cfg, k)[0] for k in range(0, 2000, 37)]
        assert all(m1 > m2 for m1, m2 in zip(mus, mus[1:]))
        assert schedule_at(cfg, 10 ** 12)[0] < 0.06
        ratio = schedule_at(cfg, 10 ** 6)[0] / schedule_at(cfg, 10 ** 6 + 1)[0]
        assert 1.0 < ratio < 1.0 + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ScheduleConfig(mode="quadratic")
        with pytest.raises(ValueError, match="eta_rule"):
            ScheduleConfig(eta_rule="greedy")
        with pytest.raises(ValueError, match="1/11"):
            ScheduleConfig(mode="merely-convex", p=0.2)
        with pytest.raises(ValueError, match="1/11"):
            ScheduleConfig(mode="merely-convex", p=0.0)
        with pytest.raises(ValueError, match="mu_bar"):
            ScheduleConfig(mode="merely-convex", mu_bar=0.7)
        with pytest.raises(ValueError, match="lam"):
            ScheduleConfig(lam=-1.0)
        with pytest.raises(ValueError, match="alpha"):
            ScheduleConfig(alpha=0.0)

    def test_resolve_from_identity_hessian(self, quad):
        cfg, l_hat = resolve_schedule(ScheduleConfig(), quad.problem,
                                      np.zeros(2), np.zeros(2))
        assert l_hat == pytest.approx(1.0)
        assert cfg.beta == pytest.approx(1.0)
        assert cfg.eta == pytest.approx(1.0)
        assert cfg.alpha == pytest.approx(0.1)

    def test_resolve_keeps_explicit_steps(self, quad):
        base = ScheduleConfig(alpha=0.3, beta=0.2, eta=0.7)
        cfg, l_hat = resolve_schedule(base, quad.problem, np.zeros(2), np.zeros(2))
        assert cfg is base and l_hat is None

    def test_resolve_partial(self, quad):
        cfg, l_hat = resolve_schedule(ScheduleConfig(beta=0.25), quad.problem,
                                      np.zeros(2), np.zeros(2))
        assert cfg.beta == 0.25
        assert cfg.eta == pytest.approx(1.0 / l_hat)

    def test_resolve_degenerate_curvature_falls_back(self):
        flat = tiny_problem(hvp_scale=0.0)
        cfg, l_hat = resolve_schedule(ScheduleConfig(), flat,
                                      np.zeros(2), np.zeros(2))
        assert l_hat == 1.0
        assert cfg.beta == 1.0


class TestMethodAndStop:
    def test_method_names_closed(self):
        assert set(METHOD_NAMES) == {"bagdc", "nosa", "rhg", "implicit-cg",
                                     "implicit-ns", "bda"}
        with pytest.raises(ValueError, match="expected one of"):
            MethodSpec("newton")

    def test_stop_rule_needs_a_criterion(self):
        with pytest.raises(ValueError):
            StopRule()
        StopRule(max_iters=1)

    def test_ok_statuses(self):
        from blo.problem import Counts
        mk = lambda s: RunSummary(s, 0, 0.0, Counts(), {}, {})
        assert mk("converged").ok and mk("max-iters").ok and mk("time-limit").ok
        assert not mk("diverged").ok
        assert not mk("singular-hessian").ok


class TestBagdcStep:
    def test_first_step_by_hand(self, quad):
        state, info = bagdc_step(zero_state(quad.problem), quad.problem,
                                 mu=0.0, alpha=0.1, beta=0.5, eta=0.5)
        np.testing.assert_array_equal(state.x, [0.1, 0.1])
        np.testing.assert_array_equal(state.y, [0.0, 0.0])
        np.testing.assert_array_equal(state.v, [0.0, 0.0])
        np.testing.assert_array_equal(info.d, [-1.0, -1.0])

    def test_fixed_point_is_exactly_stationary(self, quad):
        xs = np.array([0.5, 0.5])
        state = SolverState(xs.copy(), xs.copy(), xs.copy())
        new, info = bagdc_step(state, quad.problem, 0.0, 0.1, 0.5, 0.5)
        np.testing.assert_array_equal(new.x, xs)
        np.testing.assert_array_equal(new.y, xs)
        np.testing.assert_array_equal(new.v, xs)
        np.testing.assert_array_equal(info.d, [0.0, 0.0])

    def test_zero_beta_freezes_lower_iterate(self, quad):
        y0 = np.array([0.3, 0.7])
        state = SolverState(np.ones(2), y0.copy(), np.zeros(2))
        new, _ = bagdc_step(state, quad.problem, 0.0, 0.1, 0.0, 0.5)
        np.testing.assert_array_equal(new.y, y0)

    def test_oracle_cost_is_constant(self, quad):
        state = SolverState(np.array([0.3, -0.2]), np.array([0.1, 0.4]),
                            np.array([0.05, 0.0]))
        for mu in (0.0, 0.25):
            _, info = bagdc_step(state, quad.problem, mu, 0.1, 0.5, 0.5)
            assert (info.counts.grads, info.counts.hvps, info.counts.jvps) == (3, 1, 1)

    def test_adaptive_costs_one_extra_product(self, quad):
        state = SolverState(np.array([0.3, -0.2]), np.array([0.1, 0.4]),
                            np.array([0.05, 0.0]))
        _, info = bagdc_step(state, quad.problem, 0.0, 0.1, 0.5, 0.5,
                             adaptive=True)
        assert info.counts.hvps == 2
        assert info.eta == pytest.approx(1.0)

    def test_adaptive_zero_residual_skips_product(self, quad):
        xs = np.array([0.5, 0.5])
        state = SolverState(xs.copy(), xs.copy(), xs.copy())
        new, info = bagdc_step(state, quad.problem, 0.0, 0.1, 0.5, 0.7,
                               adaptive=True)
        assert info.counts.hvps == 1
        assert info.eta == 0.7
        np.testing.assert_array_equal(new.v, xs)

    def test_cross_product_taken_at_old_y(self, quad):
        seen = {}

        def spy_jvp(x, y, u):
            seen["jvp_y"] = y.copy()
            return quad.problem.jvp_xy_ll(x, y, u)

        def spy_hvp(x, y, u):
            seen.setdefault("hvp_y", y.copy())
            return quad.problem.hvp_yy_ll(x, y, u)

        spied = dataclasses.replace(quad.problem, jvp_xy_ll=spy_jvp,
                                    hvp_yy_ll=spy_hvp)
        y0 = np.array([0.3, 0.7])
        state = SolverState(np.ones(2), y0.copy(), np.zeros(2))
        new, _ = bagdc_step(state, spied, 0.0, 0.1, 0.5, 0.5)
        assert not np.array_equal(new.y, y0)
        np.testing.assert_array_equal(seen["jvp_y"], y0)
        np.testing.assert_array_equal(seen["hvp_y"], new.y)

    def test_nonfinite_iterate_raises(self, quad):
        state = SolverState(np.full(2, 1e200), np.full(2, 1e200), np.zeros(2))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError,
                                                       match="non-finite"):
            bagdc_step(state, quad.problem, 0.0, 1e200, 1e200, 0.5)


class TestAdaptiveEta:
    """The Rayleigh-quotient rule eta = <r,r>/<r,Hr> inside ``bagdc_step``."""

    @staticmethod
    def adaptive_step(problem, y, fallback):
        # beta = 0 keeps y+ = y, so the residual is r = grad_y F(0, y) - H 0
        state = SolverState(np.zeros(2), np.asarray(y, dtype=float), np.zeros(2))
        return bagdc_step(state, problem, 0.0, 0.1, 0.0, fallback, adaptive=True)

    def test_identity_curvature(self, quad):
        new, info = self.adaptive_step(quad.problem, [1.0, 2.0], fallback=9.0)
        assert info.eta == pytest.approx(1.0)
        assert info.counts.hvps == 2
        r = quad.problem.grad_y_ul(np.zeros(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(new.v, r)

    def test_scaled_curvature(self):
        p = tiny_problem(hvp_scale=2.0, g_up=(1.0, 1.0))
        _, info = self.adaptive_step(p, np.zeros(2), fallback=9.0)
        assert info.eta == pytest.approx(0.5)

    def test_zero_residual_falls_back(self):
        p = tiny_problem(hvp_scale=1.0, g_up=(0.0, 0.0))
        _, info = self.adaptive_step(p, np.zeros(2), fallback=0.123)
        assert info.eta == 0.123
        assert info.counts.hvps == 1

    def test_flat_curvature_falls_back(self):
        p = tiny_problem(hvp_scale=0.0, g_up=(1.0, 0.0))
        new, info = self.adaptive_step(p, np.zeros(2), fallback=0.25)
        assert info.eta == 0.25
        assert info.counts.hvps == 2
        np.testing.assert_array_equal(new.v, [0.25, 0.0])


def reference_bagdc(state, problem, mu, alpha, beta, eta, lam, adaptive):
    """The sweep evaluated on the ``aggregate``d problem, as the reference
    the lean step must match bit for bit.  Returns (x+, y+, v+, d, eta,
    hvps)."""
    psi = aggregate(problem, mu, lam)
    x, y, v = state.x, state.y, state.v
    y1 = y - beta * psi.grad_y_ll(x, y)
    r = psi.grad_y_ul(x, y1) - psi.hvp_yy_ll(x, y1, v)
    eta_k, hvps = eta, 1
    if adaptive:
        rr = float(r @ r)
        if rr > 0.0:
            hvps = 2
            rhr = float(r @ psi.hvp_yy_ll(x, y1, r))
            if rhr > 1e-12 * rr:
                eta_k = rr / rhr
    v1 = v + eta_k * r
    d = psi.grad_x_ul(x, y1) - psi.jvp_xy_ll(x, y, v1)
    return x - alpha * d, y1, v1, d, eta_k, hvps


def spy_problem(problem, calls):
    """``problem`` with every oracle callback logging its name to ``calls``."""
    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped
    kinds = ("grad_x_ul", "grad_y_ul", "grad_y_ll", "hvp_yy_ll", "jvp_xy_ll",
             "hvp_yy_ul", "jvp_xy_ul")
    return dataclasses.replace(
        problem, **{k: spy(k, getattr(problem, k)) for k in kinds})


_TESTBEDS = {"quadratic": make_quadratic(3, spectrum=(0.5, 2.0), seed=4).problem,
             "multimin": make_multimin().problem}


class TestLeanStepEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(testbed=st.sampled_from(sorted(_TESTBEDS)),
           mu=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True)),
           lam=st.floats(0.1, 4.0), adaptive=st.booleans(),
           steps=st.tuples(st.floats(1e-3, 2.0), st.floats(0.0, 1.0),
                           st.floats(1e-3, 2.0)),
           seed=st.integers(0, 10_000))
    def test_matches_aggregated_sweep(self, testbed, mu, lam, adaptive, steps, seed):
        problem = _TESTBEDS[testbed]
        alpha, beta, eta = steps
        rng = np.random.default_rng(seed)
        state = SolverState(rng.standard_normal(problem.n),
                            rng.standard_normal(problem.m),
                            rng.standard_normal(problem.m))
        new, info = bagdc_step(state, problem, mu, alpha, beta, eta, lam,
                               adaptive=adaptive)
        x1, y1, v1, d, eta_k, hvps = reference_bagdc(state, problem, mu, alpha,
                                                     beta, eta, lam, adaptive)
        np.testing.assert_array_equal(new.x, x1)
        np.testing.assert_array_equal(new.y, y1)
        np.testing.assert_array_equal(new.v, v1)
        np.testing.assert_array_equal(info.d, d)
        assert info.eta == eta_k
        assert (info.counts.grads, info.counts.hvps, info.counts.jvps) == (3, hvps, 1)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_each_psi_product_is_one_ul_and_one_ll_call(self, adaptive):
        calls = []
        p = spy_problem(_TESTBEDS["quadratic"], calls)
        state = SolverState(np.full(3, 0.3), np.full(3, -0.2), np.full(3, 0.1))
        _, info = bagdc_step(state, p, 0.25, 0.1, 0.5, 0.5, adaptive=adaptive)
        assert info.counts.hvps == (2 if adaptive else 1)
        hvp = ["hvp_yy_ul", "hvp_yy_ll"]
        assert calls == (["grad_y_ul", "grad_y_ll", "grad_y_ul"] + hvp
                         + (hvp if adaptive else [])
                         + ["grad_x_ul", "jvp_xy_ul", "jvp_xy_ll"])

    def test_mu_zero_touches_only_the_lower_level(self):
        calls = []
        p = spy_problem(_TESTBEDS["quadratic"], calls)
        state = SolverState(np.full(3, 0.3), np.full(3, -0.2), np.full(3, 0.1))
        bagdc_step(state, p, 0.0, 0.1, 0.5, 0.5)
        assert calls == ["grad_y_ll", "grad_y_ul", "hvp_yy_ll", "grad_x_ul",
                         "jvp_xy_ll"]


def psi_surface_counts(calls, blended):
    """(grads, hvps, jvps) a spy saw, counted at the psi surface.

    With ``blended`` (mu > 0) each ``*_ul`` call directly followed by its
    ``*_ll`` twin is one psi product, and no ``*_ll`` call or base product
    may be left unpaired."""
    merged = []
    for name in calls:
        stem = name[:-3]
        if blended and name.endswith("_ll") and merged and merged[-1] == stem + "_ul":
            merged[-1] = stem
        else:
            merged.append(name)
    if blended:
        assert not [n for n in merged
                    if n.endswith("_ll") or n in ("hvp_yy_ul", "jvp_xy_ul")], merged
    return tuple(sum(n.startswith(kind) for n in merged)
                 for kind in ("grad", "hvp", "jvp"))


_QUAD3 = _TESTBEDS["quadratic"]
_ZERO_RHS = tiny_problem(g_up=(0.0, 0.0))
# u'Hu = |u|^2 > 0, but H is not symmetric, so CG never meets its tolerance
_NO_CG_CONVERGENCE = dataclasses.replace(
    tiny_problem(), hvp_yy_ll=lambda x, y, u: np.array([u[0] + 0.5 * u[1],
                                                       u[1] - 0.5 * u[0]]))

# name -> (problem, mu, step returning Counts, counts its loop bounds give)
_COUNT_CASES = {
    "bagdc": (_QUAD3, 0.0, lambda p, s: bagdc_step(s, p, 0.0, 0.1, 0.5, 0.5)[1].counts,
              (3, 1, 1)),
    "bagdc-mu-adaptive": (_QUAD3, 0.25, lambda p, s: bagdc_step(
        s, p, 0.25, 0.1, 0.5, 0.5, adaptive=True)[1].counts, (3, 2, 1)),
    "nosa": (_QUAD3, 0.0, lambda p, s: nosa_step(s, p, 0.1, 0.5)[1].counts, (3, 0, 1)),
    "rhg": (_QUAD3, 0.0, lambda p, s: rhg_hypergradient(
        p, s.x, s.y, T=6, beta=0.4).counts, (8, 6, 6)),
    "implicit-cg": (_QUAD3, 0.0, lambda p, s: implicit_cg_hypergradient(
        p, s.x, s.y, T=4, beta=0.4, eps=1e-10).counts, None),
    "implicit-cg-zero-rhs": (_ZERO_RHS, 0.0, lambda p, s: implicit_cg_hypergradient(
        p, s.x[:2], s.y[:2], T=3, beta=0.4, eps=1e-10).counts, (5, 0, 1)),
    # CG stops at its 5m + 50 products
    "implicit-cg-max-iter": (_NO_CG_CONVERGENCE, 0.0, lambda p, s: implicit_cg_hypergradient(
        p, s.x[:2], s.y[:2], T=2, beta=0.4, eps=1e-10).counts, (4, 60, 1)),
    "implicit-ns": (_QUAD3, 0.0, lambda p, s: implicit_ns_hypergradient(
        p, s.x, s.y, T=3, beta=0.4, M=7).counts, (5, 7, 1)),
    "implicit-ns-M0": (_QUAD3, 0.0, lambda p, s: implicit_ns_hypergradient(
        p, s.x, s.y, T=3, beta=0.4, M=0).counts, (5, 0, 1)),
    "bda-mu0": (_QUAD3, 0.0, lambda p, s: bda_hypergradient(
        p, s.x, s.y, T=5, mu=0.0, lam=1.0, beta=0.4).counts, (7, 5, 5)),
    "bda": (_QUAD3, 0.3, lambda p, s: bda_hypergradient(
        p, s.x, s.y, T=5, mu=0.3, lam=2.0, beta=0.4).counts, (7, 5, 5)),
}


class TestReportedCounts:
    """Every method reports the oracle calls it makes, counted from its
    loop bounds; a spy on the base problem sees the same numbers."""

    @pytest.mark.parametrize("case", sorted(_COUNT_CASES))
    def test_reported_counts_match_the_calls_seen(self, case):
        problem, mu, step, expected = _COUNT_CASES[case]
        calls = []
        rng = np.random.default_rng(11)
        state = SolverState(rng.standard_normal(3), rng.standard_normal(3),
                            rng.standard_normal(3))
        counts = step(spy_problem(problem, calls), state)
        got = (counts.grads, counts.hvps, counts.jvps)
        assert got == psi_surface_counts(calls, blended=mu > 0.0)
        if expected is not None:
            assert got == expected


class TestPsiBlendReference:
    """``bda`` and ``kkt_residual`` at mu > 0 blend the base products
    exactly as the ``aggregate``d problem evaluates them."""

    @settings(max_examples=60, deadline=None)
    @given(testbed=st.sampled_from(sorted(_TESTBEDS)),
           mu=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True)),
           lam=st.floats(0.1, 4.0), T=st.integers(1, 12),
           beta=st.floats(1e-3, 1.0), seed=st.integers(0, 10_000))
    def test_bda_equals_unrolling_the_aggregated_problem(self, testbed, mu, lam, T,
                                                         beta, seed):
        problem = _TESTBEDS[testbed]
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(problem.n), rng.standard_normal(problem.m)
        got = bda_hypergradient(problem, x, y, T, mu, lam, beta)
        seen = Counts()
        ref = rhg_hypergradient(counting_problem(aggregate(problem, mu, lam), seen),
                                x, y, T, beta)
        np.testing.assert_array_equal(got.d, ref.d)
        np.testing.assert_array_equal(got.y_out, ref.y_out)
        assert got.counts == ref.counts == seen

    @settings(max_examples=60, deadline=None)
    @given(testbed=st.sampled_from(sorted(_TESTBEDS)),
           mu=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True)),
           lam=st.floats(0.1, 4.0), seed=st.integers(0, 10_000))
    def test_aggregated_residual_equals_residual_of_the_aggregated_problem(
            self, testbed, mu, lam, seed):
        problem = _TESTBEDS[testbed]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(problem.n)
        y, v = rng.standard_normal(problem.m), rng.standard_normal(problem.m)
        assert (kkt_residual(problem, x, y, v, mu, lam)
                == kkt_residual(aggregate(problem, mu, lam), x, y, v))

    # the weights' ranges are MethodSpec's (tests/test_config.py UNWORKABLE)
    @pytest.mark.parametrize("mu, lam, strip, error", [
        (0.3, 1.0, True, CapabilityError),
    ])
    def test_bda_rejects_weights_before_any_oracle_call(self, mu, lam, strip, error):
        calls = []
        problem = spy_problem(_QUAD3, calls)
        if strip:
            problem = dataclasses.replace(problem, hvp_yy_ul=None, jvp_xy_ul=None)
        with pytest.raises(error):
            bda_hypergradient(problem, np.zeros(3), np.zeros(3), T=3, mu=mu,
                              lam=lam, beta=0.4)
        assert calls == []


def breaking_problem(problem, kind, broken):
    """``problem`` whose ``kind`` callback returns inf once ``broken`` is non-empty."""
    fn = getattr(problem, kind)

    def maybe_inf(*args):
        out = fn(*args)
        return np.full_like(out, np.inf) if broken else out
    return dataclasses.replace(problem, **{kind: maybe_inf})


class TestFinitenessCheck:
    """One check per step; on failure the iterate is named in the order y, v, x."""

    @pytest.mark.parametrize("kind, name", [("grad_y_ll", "y"),
                                            ("hvp_yy_ll", "v"),
                                            ("jvp_xy_ll", "x")])
    def test_names_the_iterate_that_broke(self, quad, kind, name):
        message = f"iterate {name} became non-finite"
        state = SolverState(np.full(2, 0.3), np.full(2, -0.2), np.full(2, 0.1))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match=message):
            bagdc_step(state, breaking_problem(quad.problem, kind, [True]),
                       0.0, 0.1, 0.5, 0.5)

        broken = []

        def probe(k, seconds, before, after, d):
            if k == 2:  # the callback returns inf from the next step on
                broken.append(k)

        _, summary = run_solver(breaking_problem(quad.problem, kind, broken),
                                MethodSpec("bagdc"),
                                ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5),
                                StopRule(max_iters=10), quad.oracle, probe=probe)
        assert summary.status == "diverged"
        assert summary.error == message
        assert summary.error_at == 3 and summary.iterations == 3

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_finite_iterates_whose_squares_overflow_pass(self, adaptive):
        problem = _TESTBEDS["quadratic"]
        big = np.array([1e160, -2e160, 3e160])
        state = SolverState(big, 0.5 * big, 0.25 * big)
        with np.errstate(over="ignore"):  # as ``run_solver`` calls a step
            new, info = bagdc_step(state, problem, 0.0, 1e-3, 1e-3, 1e-3,
                                   adaptive=adaptive)
            x1, y1, v1, d, eta_k, _ = reference_bagdc(state, problem, 0.0, 1e-3,
                                                      1e-3, 1e-3, 1.0, adaptive)
        # x alone squares past the largest float: the fast check did fail
        assert np.abs(new.x).max() > math.sqrt(np.finfo(float).max)
        for got, want in ((new.x, x1), (new.y, y1), (new.v, v1), (info.d, d)):
            assert np.isfinite(got).all()
            np.testing.assert_array_equal(got, want)
        assert info.eta == eta_k

    @pytest.mark.parametrize("beta, status", [(0.5, "max-iters"), (2.5, "diverged")])
    def test_numpy_error_state_restored(self, quad, beta, status):
        with np.errstate(all="warn"):
            before = np.geterr()
            _, summary = run_solver(quad.problem, MethodSpec("bagdc"),
                                    ScheduleConfig(alpha=0.1, beta=beta, eta=0.5),
                                    StopRule(max_iters=5000), quad.oracle)
            assert np.geterr() == before
        assert summary.status == status


def reference_ensure_finite(vec, message):
    """``ensure_finite`` before it took one dot first."""
    if not np.isfinite(vec).all():
        raise DivergenceError(message)


def raised(check, vec):
    try:
        check(vec, "iterate y became non-finite")
    except DivergenceError as exc:
        return str(exc)
    return None


class TestEnsureFinite:
    """The inner-loop check (unrolling, Neumann, implicit and NOSA steps) takes
    one dot first and raises exactly when an entry is not finite."""

    @settings(max_examples=300, deadline=None)
    @given(vec=st.lists(st.one_of(st.floats(), st.sampled_from([1e160, -3e200])),
                        min_size=1, max_size=8))
    def test_raises_exactly_where_the_reference_does(self, vec):
        vec = np.array(vec)
        with np.errstate(over="ignore"):
            assert raised(ensure_finite, vec) == raised(reference_ensure_finite, vec)

    @pytest.mark.parametrize("bad", [None, np.inf, -np.inf, np.nan])
    def test_finite_vectors_whose_squares_overflow_pass(self, bad):
        vec = np.array([1e160, -2e160, 3e160])
        if bad is not None:
            vec[1] = bad
        with np.errstate(over="ignore"):
            assert raised(ensure_finite, vec) == (
                None if bad is None else "iterate y became non-finite")

    def test_unrolling_passes_huge_finite_iterates(self, quad):
        y0 = np.array([1e160, -2e160])
        with np.errstate(over="ignore", invalid="ignore"):
            res = rhg_hypergradient(quad.problem, np.zeros(2), y0, 3, 1e-3)
            assert np.isfinite(res.y_out).all() and np.isfinite(res.d).all()
            with pytest.raises(DivergenceError, match="iterate y became non-finite"):
                rhg_hypergradient(quad.problem, np.zeros(2), np.array([1e160, np.inf]),
                                  3, 1e-3)


class TestNosa:
    def test_first_step_by_hand(self, quad):
        state, info = nosa_step(zero_state(quad.problem), quad.problem,
                                alpha=0.1, beta=0.5)
        np.testing.assert_array_equal(state.x, [0.1, 0.1])
        np.testing.assert_array_equal(info.d, [-1.0, -1.0])

    def test_limit_point_is_biased(self, quad):
        state = zero_state(quad.problem)
        for _ in range(20000):
            new, _ = nosa_step(state, quad.problem, 0.1, 0.5)
            done = np.linalg.norm(new.x - state.x) <= 1e-12
            state = new
            if done:
                break
        # fixed point of the scheme is z0/(1+beta), not the true x*
        np.testing.assert_allclose(state.x, [2.0 / 3.0, 2.0 / 3.0], atol=1e-8)
        np.testing.assert_allclose(quad.oracle.grad_phi(state.x),
                                   [1.0 / 3.0, 1.0 / 3.0], atol=1e-6)

    def test_cost_per_step(self, quad):
        _, info = nosa_step(zero_state(quad.problem), quad.problem, 0.1, 0.5)
        assert (info.counts.grads, info.counts.hvps, info.counts.jvps) == (3, 0, 1)

    def test_matches_truncation_free_implicit_direction(self, quad):
        # NOSA's implicit multiplier is the zeroth Neumann truncation
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        state = SolverState(x.copy(), y.copy(), np.zeros(2))
        _, info = nosa_step(state, quad.problem, 0.1, 0.4)
        res = implicit_ns_hypergradient(quad.problem, x, y, T=1, beta=0.4, M=0)
        np.testing.assert_array_equal(info.d, res.d)


class TestNosaIsColdBagdc:
    """``nosa_step`` is ``bagdc_step`` with ``warm`` off; a run of it matches
    the scheme written out on its own (``reference.nosa_step``)."""

    @staticmethod
    def run(problem, alpha):
        rows, steps = [], []
        _, summary = run_solver(problem, MethodSpec("nosa"),
                                ScheduleConfig(alpha=alpha, beta=0.3, eta=0.7),
                                StopRule(max_iters=200), sink=rows.append,
                                probe=lambda k, s, before, after, d: steps.append((after, d)))
        assert summary.status == "max-iters" and len(steps) == 200
        return summary.counts, rows, steps

    @pytest.mark.parametrize("testbed, alpha", [("quadratic", 0.1), ("multimin", 0.5)])
    def test_bitwise_equal_to_the_scheme_written_out(self, monkeypatch, testbed, alpha):
        counts, rows, steps = self.run(_TESTBEDS[testbed], alpha)
        monkeypatch.setattr(solvers, "nosa_step", reference.nosa_step)
        ref_counts, ref_rows, ref_steps = self.run(_TESTBEDS[testbed], alpha)
        for (s1, d1), (s2, d2) in zip(steps, ref_steps):
            for a, b in ((s1.x, s2.x), (s1.y, s2.y), (s1.v, s2.v), (d1, d2)):
                np.testing.assert_array_equal(a, b)
        assert counts == ref_counts == Counts(600, 0, 200)
        # the trace's eta is the schedule's, not the beta nosa uses in its place
        cells = [(r.eta, r.hvp_count, r.jvp_count) for r in rows]
        assert cells == [(r.eta, r.hvp_count, r.jvp_count) for r in ref_rows]
        assert {eta for eta, _, _ in cells} == {0.7}

    def test_hypercleaning_within_rounding(self, monkeypatch):
        # the step scales the cross product's input by beta where the scheme
        # scales its output, and here that product is a GEMM
        pool = synth_blobs(3, 4, 12, 3.0, seed=5)
        train, val = split_dataset(pool, 24, seed=6)
        problem = hypercleaning_problem(corrupt_labels(train, 0.3, seed=7), val).problem
        counts, _, steps = self.run(problem, 1.0)
        monkeypatch.setattr(solvers, "nosa_step", reference.nosa_step)
        ref_counts, _, ref_steps = self.run(problem, 1.0)
        for (s1, _), (s2, _) in zip(steps, ref_steps):
            assert np.linalg.norm(s1.x - s2.x) <= 1e-13 * np.linalg.norm(s2.x)
        assert not np.array_equal(steps[-1][0].x, steps[0][0].x)
        assert counts == ref_counts


class TestRhg:
    def test_one_step_unroll_equals_alternating_direction(self, quad):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        res = rhg_hypergradient(quad.problem, x, y, T=1, beta=0.4)
        _, info = nosa_step(SolverState(x.copy(), y.copy(), np.zeros(2)),
                            quad.problem, 0.1, 0.4)
        np.testing.assert_array_equal(res.d, info.d)

    def test_long_unroll_matches_oracle(self, quad):
        x = np.array([0.3, -1.2])
        res = rhg_hypergradient(quad.problem, x, np.zeros(2), T=1000, beta=0.5)
        ref = quad.oracle.grad_phi(x)
        assert np.linalg.norm(res.d - ref) <= 1e-8 * max(np.linalg.norm(ref), 1.0)

    def test_zero_beta_stays_put(self, quad):
        x, y = np.array([0.2, 0.9]), np.array([1.0, -1.0])
        res = rhg_hypergradient(quad.problem, x, y, T=5, beta=0.0)
        np.testing.assert_array_equal(res.y_out, y)
        np.testing.assert_array_equal(res.d, quad.problem.grad_x_ul(x, y))

    def test_cost_linear_in_t(self, quad):
        for T in (1, 7, 30):
            res = rhg_hypergradient(quad.problem, np.zeros(2), np.zeros(2),
                                    T=T, beta=0.5)
            assert res.counts.hvps == T
            assert res.counts.jvps == T
            assert res.counts.grads == T + 2

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError, match="T must be >= 1, got 0"):
            MethodSpec("rhg", T=0)


class TestImplicitCg:
    def test_matches_oracle(self, quad_spd):
        x = np.random.default_rng(4).standard_normal(5)
        res = implicit_cg_hypergradient(quad_spd.problem, x, np.zeros(5),
                                        T=200, beta=0.6, eps=1e-10)
        ref = quad_spd.oracle.grad_phi(x)
        assert np.linalg.norm(res.d - ref) <= 1e-6

    def test_identity_hessian_multiplier(self, quad):
        x = np.array([0.4, -0.7])
        res = implicit_cg_hypergradient(quad.problem, x, np.zeros(2),
                                        T=60, beta=0.5, eps=1e-12)
        # with H = I the adjoint solve returns the upper gradient itself
        np.testing.assert_allclose(res.multiplier,
                                   quad.problem.grad_y_ul(x, res.y_out),
                                   atol=1e-12)

    def test_singular_hessian_surfaces(self):
        mm = make_multimin()
        with pytest.raises(SingularHessianError, match="singular or indefinite"):
            implicit_cg_hypergradient(mm.problem, np.array([0.3]),
                                      np.zeros(2), T=1, beta=0.9, eps=1e-8)


class TestImplicitNs:
    def test_zero_terms_is_scaled_upper_gradient(self, quad):
        x, y = np.array([0.4, -0.7]), np.array([0.2, 0.2])
        res = implicit_ns_hypergradient(quad.problem, x, y, T=3, beta=0.3, M=0)
        b = quad.problem.grad_y_ul(x, res.y_out)
        np.testing.assert_array_equal(res.multiplier, 0.3 * b)

    def test_long_series_matches_cg(self, quad_spd):
        x = np.random.default_rng(5).standard_normal(5)
        a = implicit_ns_hypergradient(quad_spd.problem, x, np.zeros(5),
                                      T=100, beta=0.9, M=1000)
        b = implicit_cg_hypergradient(quad_spd.problem, x, np.zeros(5),
                                      T=100, beta=0.9, eps=1e-12)
        assert np.linalg.norm(a.d - b.d) <= 1e-6

    def test_truncation_error_monotone(self, quad_spd):
        x = np.random.default_rng(6).standard_normal(5)
        y_fix = quad_spd.oracle.y_star_mu(x, 0.0, 1.0)
        b = quad_spd.problem.grad_y_ul(x, y_fix)
        ref = cg_solve(a_operator(quad_spd), b, tol=1e-13).x
        errs = []
        for M in range(0, 51):
            res = implicit_ns_hypergradient(quad_spd.problem, x, y_fix,
                                            T=1, beta=0.5, M=M)
            errs.append(np.linalg.norm(res.multiplier - ref))
        assert all(e2 <= e1 + 1e-14 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < errs[0] / 100.0

    def test_cost_linear_in_m(self, quad):
        for M in (0, 5, 20):
            res = implicit_ns_hypergradient(quad.problem, np.zeros(2),
                                            np.zeros(2), T=2, beta=0.5, M=M)
            assert res.counts.hvps == M
            assert res.counts.jvps == 1


class TestBda:
    def test_mu_zero_degenerates_to_unrolling(self, quad):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        a = bda_hypergradient(quad.problem, x, y, T=8, mu=0.0, lam=1.0, beta=0.4)
        b = rhg_hypergradient(quad.problem, x, y, T=8, beta=0.4)
        np.testing.assert_array_equal(a.d, b.d)

    def test_single_step_costs_one_product_pair(self, quad):
        res = bda_hypergradient(quad.problem, np.zeros(2), np.zeros(2),
                                T=1, mu=0.5, lam=1.0, beta=0.4)
        assert res.counts.hvps == 1
        assert res.counts.jvps == 1

    def test_finds_true_optimum_where_unrolling_stalls(self):
        mm = make_multimin()
        sched = ScheduleConfig(alpha=0.5, beta=0.9, eta=0.9)
        stop = StopRule(max_iters=2000, d_norm_tol=1e-10)
        bda = MethodSpec("bda", T=100, mu=0.1, lam=1.0)
        state_b, sum_b = run_solver(mm.problem, bda, sched, stop, mm.oracle)
        assert sum_b.ok
        assert abs(state_b.x[0] - 1.0) <= 1e-3
        state_r, sum_r = run_solver(mm.problem, MethodSpec("rhg", T=100),
                                    sched, stop, mm.oracle)
        assert sum_r.status == "converged"
        assert sum_r.iterations == 2
        assert abs(state_r.x[0] - 0.5) <= 1e-6


class TestRunSolver:
    def test_bagdc_reaches_true_solution(self, quad):
        sched = ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5)
        stop = StopRule(max_iters=2000, d_norm_tol=1e-8)
        state, summary = run_solver(quad.problem, MethodSpec("bagdc"), sched,
                                    stop, quad.oracle)
        assert summary.status == "converged"
        np.testing.assert_allclose(state.x, [0.5, 0.5], atol=1e-5)
        assert summary.final["dist_x_rel"] <= 1e-5

    def test_nosa_converges_to_biased_point(self, quad):
        sched = ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5)
        stop = StopRule(max_iters=20000, d_norm_tol=1e-10)
        state, summary = run_solver(quad.problem, MethodSpec("nosa"), sched,
                                    stop, quad.oracle)
        assert summary.status == "converged"
        np.testing.assert_allclose(state.x, [2.0 / 3.0, 2.0 / 3.0], atol=1e-5)
        assert summary.final["grad_phi_norm"] == pytest.approx(
            math.sqrt(2.0) / 3.0, abs=1e-4)

    def test_zero_iterations(self, quad):
        rows = []
        state, summary = run_solver(quad.problem, MethodSpec("bagdc"),
                                    ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5),
                                    StopRule(max_iters=0), quad.oracle,
                                    sink=rows.append)
        assert summary.status == "max-iters"
        assert summary.iterations == 0
        assert summary.final == {}
        assert rows == []
        np.testing.assert_array_equal(state.x, [0.0, 0.0])

    def test_divergence_is_reported_not_raised(self, quad):
        sched = ScheduleConfig(alpha=0.1, beta=2.5, eta=0.5)
        state, summary = run_solver(quad.problem, MethodSpec("bagdc"), sched,
                                    StopRule(max_iters=10000), quad.oracle)
        assert summary.status == "diverged"
        assert not summary.ok
        assert "non-finite" in summary.error
        assert summary.error_at is not None

    def test_singular_hessian_status(self):
        mm = make_multimin()
        sched = ScheduleConfig(alpha=0.5, beta=0.9, eta=0.9)
        _, summary = run_solver(mm.problem, MethodSpec("implicit-cg", T=1),
                                sched, StopRule(max_iters=100), mm.oracle)
        assert summary.status == "singular-hessian"
        assert summary.error_at == 1
        assert "singular or indefinite" in summary.error

    @staticmethod
    def _fail_from_k3(quad, exc):
        """A bagdc run whose lower gradient raises ``exc`` from step 3 on."""
        broken = []

        def failing_grad(x, y):
            if broken:
                raise exc
            return quad.problem.grad_y_ll(x, y)

        def probe(k, seconds, before, after, d):
            if k == 2:  # the callback fails from the next step on
                broken.append(k)

        problem = dataclasses.replace(quad.problem, grad_y_ll=failing_grad)
        rows = []
        _, summary = run_solver(problem, MethodSpec("bagdc"),
                                ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5),
                                StopRule(max_iters=10), quad.oracle,
                                sink=rows.append, probe=probe)
        assert summary.status == "error" and not summary.ok
        assert summary.error_at == 3 and summary.iterations == 3
        assert [r.k for r in rows] == [0, 1, 2]
        return summary

    def test_any_step_exception_is_an_error_status(self, quad):
        summary = self._fail_from_k3(quad, RuntimeError("lower gradient callback failed"))
        assert summary.error == "RuntimeError: lower gradient callback failed"

    def test_library_error_is_an_error_status_with_its_bare_message(self, quad):
        summary = self._fail_from_k3(quad, NonPositiveCurvatureError("operator is not PD"))
        assert summary.error == "operator is not PD"

    @pytest.mark.parametrize("name, attr", [("bagdc", "bagdc_step"),
                                            ("rhg", "rhg_hypergradient")])
    def test_step_function_is_looked_up_when_a_step_runs(self, quad, monkeypatch,
                                                         name, attr):
        # perfbench times each step by replacing these module attributes
        real, calls = getattr(solvers, attr), []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, attr, counted)
        _, summary = run_solver(quad.problem, MethodSpec(name, T=3),
                                ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5),
                                StopRule(max_iters=7))
        assert summary.iterations == 7 and len(calls) == 7

    def test_time_limit(self, quad):
        sched = ScheduleConfig(alpha=0.01, beta=0.5, eta=0.5)
        _, summary = run_solver(quad.problem, MethodSpec("bagdc"), sched,
                                StopRule(max_seconds=1e-9))
        assert summary.status == "time-limit"
        assert summary.ok
        assert summary.iterations >= 1

    def test_kkt_tolerance_stop(self, quad):
        sched = ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5)
        stop = StopRule(max_iters=10000, kkt_tol=1e-10)
        _, summary = run_solver(quad.problem, MethodSpec("bagdc"), sched, stop,
                                quad.oracle, trace_every=5)
        assert summary.status == "converged"
        assert summary.final["kkt_residual"] <= 1e-10

    def test_trace_decimation_keeps_last_row(self, quad):
        rows = []
        sched = ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5)
        run_solver(quad.problem, MethodSpec("bagdc"), sched,
                   StopRule(max_iters=10), quad.oracle, sink=rows.append,
                   trace_every=4)
        assert [r.k for r in rows] == [0, 4, 8, 9]

    def test_trace_every_one_records_all(self, quad):
        rows = []
        sched = ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5)
        run_solver(quad.problem, MethodSpec("bagdc"), sched,
                   StopRule(max_iters=7), quad.oracle, sink=rows.append)
        assert [r.k for r in rows] == list(range(7))
        assert rows[-1].hvp_count == 7
        assert rows[-1].jvp_count == 7

    def test_probe_sees_every_iteration(self, quad):
        calls = []

        def probe(k, seconds, before, after, d):
            calls.append(k)
            np.testing.assert_array_equal(after.x, before.x - 0.1 * d)

        sched = ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5)
        run_solver(quad.problem, MethodSpec("bagdc"), sched,
                   StopRule(max_iters=6), probe=probe, trace_every=100)
        assert calls == list(range(6))

    def test_probe_clock_is_the_trace_clock(self, quad):
        rows, probed = [], []

        def probe(k, seconds, before, after, d):
            probed.append((k, seconds, before))

        run_solver(quad.problem, MethodSpec("bagdc"),
                   ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5),
                   StopRule(max_iters=8), quad.oracle, sink=rows.append, probe=probe)
        assert [k for k, _, _ in probed] == [r.k for r in rows] == list(range(8))
        for (_, seconds, _), rec in zip(probed, rows):
            assert repr(seconds) == repr(rec.wall_seconds), rec.k
        first = probed[0][2]
        for part in (first.x, first.y, first.v):
            assert part.tobytes() == np.zeros(2).tobytes()

    def test_counts_accumulate_for_unrolled_method(self, quad):
        sched = ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5)
        _, summary = run_solver(quad.problem, MethodSpec("rhg", T=3), sched,
                                StopRule(max_iters=4))
        assert summary.counts.hvps == 12
        assert summary.counts.jvps == 12
        assert summary.counts.grads == 20

    def test_adaptive_eta_doubles_products_and_is_traced(self):
        rows = []
        bed = make_multimin()
        sched = ScheduleConfig(alpha=0.1, beta=0.3, eta=0.4, eta_rule="adaptive")
        _, summary = run_solver(bed.problem, MethodSpec("bagdc"), sched,
                                StopRule(max_iters=5), bed.oracle,
                                sink=rows.append)
        assert summary.counts.hvps == 10
        # identity curvature makes the adaptive quotient exactly one
        assert rows[0].eta == pytest.approx(1.0)

    def test_schedule_reported(self, quad):
        _, summary = run_solver(quad.problem, MethodSpec("bagdc"),
                                ScheduleConfig(), StopRule(max_iters=1))
        assert summary.schedule["l_hat"] == pytest.approx(1.0)
        assert summary.schedule["alpha"] == pytest.approx(0.1)
        assert summary.schedule["mode"] == "strongly-convex"

    def test_aggregated_residual_only_for_vanishing_mu_runs(self, quad):
        mc = ScheduleConfig(mode="merely-convex", alpha=0.1, beta=0.5, eta=0.5)
        _, summary = run_solver(quad.problem, MethodSpec("bagdc"), mc,
                                StopRule(max_iters=50), quad.oracle)
        assert summary.ok
        assert "kkt_residual_aggregated" in summary.final
        sc = ScheduleConfig(alpha=0.1, beta=0.5, eta=0.5)
        _, summary2 = run_solver(quad.problem, MethodSpec("bagdc"), sc,
                                 StopRule(max_iters=50), quad.oracle)
        assert "kkt_residual_aggregated" not in summary2.final

    def test_trace_bitwise_deterministic(self, quad):
        def one_run():
            rows = []
            sched = ScheduleConfig(mode="merely-convex", alpha=0.2, beta=0.5,
                                   eta=0.5)
            run_solver(quad.problem, MethodSpec("bagdc"), sched,
                       StopRule(max_iters=200), quad.oracle, sink=rows.append,
                       trace_every=7)
            return [r.csv_row().split(",") for r in rows]

        a, b = one_run(), one_run()
        for ra, rb in zip(a, b):
            # wall clock is the one legitimately nondeterministic column
            assert ra[:1] + ra[2:] == rb[:1] + rb[2:]
        assert len(a) == len(b)


class TestGoldenTrace:
    def test_merely_convex_multimin_trace(self):
        # SHA-256 of the trace rows (without wall_seconds) of the multimin
        # study's bagdc schedule, recorded before the step evaluated psi_mu
        # without wrapping the problem; elementwise arithmetic on 1-2
        # element arrays, so it does not depend on the BLAS build
        mm = make_multimin()
        sched = ScheduleConfig(mode="merely-convex", alpha=2000.0, beta=0.9,
                               eta=16.0, mu_bar=0.5, p=1.0 / 12.0, lam=1.0)
        rows = []
        _, summary = run_solver(mm.problem, MethodSpec("bagdc"), sched,
                                StopRule(max_iters=3000), mm.oracle,
                                sink=rows.append, trace_every=500)
        text = "".join(
            ",".join(c for i, c in enumerate(r.csv_row().split(",")) if i != 1) + "\n"
            for r in rows)
        assert summary.status == "max-iters" and len(rows) == 7
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "eda6a97531a831c2918b50b0f103269182befea37ad94704b3a64c90da105d71")

    def test_trace_sweep_multimin_rows(self):
        # SHA-256 of 300 consecutive rows (without wall_seconds) of the
        # benchmark's trace-sweep schedule at alpha 1000, eta 8: every row
        # carries every oracle metric, so it pins the row computation
        mm = make_multimin()
        sched = ScheduleConfig(mode="merely-convex", alpha=1000.0, beta=0.9,
                               eta=8.0, mu_bar=0.5, p=1.0 / 12.0, lam=1.0)
        rows = []
        _, summary = run_solver(mm.problem, MethodSpec("bagdc"), sched,
                                StopRule(max_iters=300), mm.oracle,
                                sink=rows.append, trace_every=1)
        text = "".join(
            ",".join(c for i, c in enumerate(r.csv_row().split(",")) if i != 1) + "\n"
            for r in rows)
        assert summary.status == "max-iters" and len(rows) == 300
        assert "" not in text.replace("\n", ",").split(",")[:-1]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f9f5e7a6084f03200fd25d1e268a237dd36d12418fb7b6746997793684b50240")

    @staticmethod
    def hypercleaning_trace_digest(classes, dim, per_class, n_train, seed):
        """SHA-256 of the trace rows (without wall_seconds) of a synthetic
        hypercleaning problem under bagdc and rhg, both with the schedule
        resolved by power iteration."""
        pool = synth_blobs(classes, dim, per_class, 3.0, seed=seed)
        train, val = split_dataset(pool, n_train, seed=seed + 1)
        hc = hypercleaning_problem(corrupt_labels(train, 0.3, seed=seed + 2), val)
        sched = ScheduleConfig(mode="strongly-convex")
        rows = []
        for method, iters, every in ((MethodSpec("bagdc"), 200, 10),
                                     (MethodSpec("rhg", T=5), 10, 1)):
            _, summary = run_solver(hc.problem, method, sched,
                                    StopRule(max_iters=iters), sink=rows.append,
                                    seed=3, trace_every=every)
            assert summary.status == "max-iters"
        text = "".join(
            ",".join(c for i, c in enumerate(r.csv_row().split(",")) if i != 1) + "\n"
            for r in rows)
        assert len(rows) == 31
        return hashlib.sha256(text.encode()).hexdigest()

    def test_hypercleaning_trace(self):
        # recorded before the oracle cached its train forward pass.  The
        # oracle runs matrix products, so the digest assumes the same BLAS
        # build and one BLAS thread's summation order
        assert self.hypercleaning_trace_digest(3, 5, 30, 60, seed=11) == (
            "8b2abde5a62ef2af8f2527e98104c806727d85eb56a83fb1a73d8843458af15e")

    def test_hypercleaning_trace_ten_classes(self):
        # the study's class count; recorded before the softmax took its row
        # max from a class-major copy, the sigmoid dropped its masks and the
        # oracle cached its direction product
        assert self.hypercleaning_trace_digest(10, 4, 12, 80, seed=21) == (
            "22c27b5a876aaab8f4e677fc36ff8ccced3959f35b3c39cebf1ed69459c74874")


class TestStepSummability:
    def test_vanishing_schedule_increments_are_summable(self):
        # sum over k of (mu_k - mu_{k+1})^2 / alpha_k must converge; the
        # tail increments drop below 1e-8 well before k = 1e6
        cfg = ScheduleConfig(mode="merely-convex", alpha=2000.0, beta=0.9,
                             eta=16.0, mu_bar=0.5, p=1.0 / 12.0)
        k = np.arange(1_000_000, dtype=float)
        mu = cfg.mu_bar * (k + 1.0) ** (-cfg.p)
        mu_next = cfg.mu_bar * (k + 2.0) ** (-cfg.p)
        alpha_k = cfg.alpha * mu ** 11
        terms = (mu - mu_next) ** 2 / alpha_k
        assert terms[-1] < 1e-8
        assert np.all(np.diff(terms) <= 0.0)
        assert terms[500_000:].sum() < 1e-3
        total = terms.sum()
        assert np.isfinite(total) and total < 1.0
