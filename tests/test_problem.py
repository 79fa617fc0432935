import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blo.errors import CapabilityError
from blo.problem import Counts, fd_check_gradients
from blo.testbeds import make_quadratic

from reference import aggregate, counting_problem


@pytest.fixture(scope="module")
def quad():
    return make_quadratic(2)


def rand_xy(n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(m)


class TestAggregate:
    def test_mu_zero_is_passthrough(self, quad):
        assert aggregate(quad.problem, 0.0, 1.0) is quad.problem

    def test_mu_zero_matches_base_gradients(self, quad):
        psi = aggregate(quad.problem, 0.0, 1.0)
        for seed in range(20):
            x, y = rand_xy(2, 2, seed)
            np.testing.assert_array_equal(psi.grad_y_ll(x, y),
                                          quad.problem.grad_y_ll(x, y))

    def test_value_by_hand(self, quad):
        # mu=1/2, lam=2 at the origin: psi = 1*F(0,0) + 0.5*f(0,0) = 1
        psi = aggregate(quad.problem, 0.5, 2.0)
        zero = np.zeros(2)
        assert psi.ll_value(zero, zero) == pytest.approx(1.0)
        assert quad.problem.ul_value(zero, zero) == pytest.approx(1.0)

    def test_hessian_blend_identity_a(self, quad):
        # both Hessians are A = I, so any convex-ish blend with lam=1 is I
        psi = aggregate(quad.problem, 0.2, 1.0)
        x, y = rand_xy(2, 2, 0)
        u = np.array([1.3, -0.4])
        np.testing.assert_allclose(psi.hvp_yy_ll(x, y, u), u)

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(0.0, 0.5), lam=st.floats(0.01, 10.0), seed=st.integers(0, 999))
    def test_gradient_blend_identity(self, quad, mu, lam, seed):
        # grad psi - grad f == mu * (lam * grad F - grad f), exactly
        psi = aggregate(quad.problem, mu, lam)
        x, y = rand_xy(2, 2, seed)
        lhs = psi.grad_y_ll(x, y) - quad.problem.grad_y_ll(x, y)
        rhs = mu * (lam * quad.problem.grad_y_ul(x, y) - quad.problem.grad_y_ll(x, y))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_needs_ul_curvature(self, quad):
        stripped = dataclasses.replace(quad.problem, hvp_yy_ul=None, jvp_xy_ul=None)
        assert not stripped.has_ul_curvature
        with pytest.raises(CapabilityError):
            aggregate(stripped, 0.25, 1.0)
        # mu = 0 never needs it
        assert aggregate(stripped, 0.0, 1.0) is stripped

    def test_aggregated_keeps_ul_surface(self, quad):
        psi = aggregate(quad.problem, 0.4, 2.0)
        x, y = rand_xy(2, 2, 3)
        np.testing.assert_array_equal(psi.grad_x_ul(x, y), quad.problem.grad_x_ul(x, y))
        np.testing.assert_array_equal(psi.grad_y_ul(x, y), quad.problem.grad_y_ul(x, y))
        assert psi.ul_value(x, y) == quad.problem.ul_value(x, y)


class TestCounting:
    def test_counts_every_surface(self, quad):
        counts = Counts()
        p = counting_problem(quad.problem, counts)
        x, y = rand_xy(2, 2, 1)
        u = np.ones(2)
        p.grad_x_ul(x, y)
        p.grad_y_ul(x, y)
        p.grad_y_ll(x, y)
        p.hvp_yy_ll(x, y, u)
        p.jvp_xy_ll(x, y, u)
        p.hvp_yy_ul(x, y, u)
        p.jvp_xy_ul(x, y, u)
        assert (counts.grads, counts.hvps, counts.jvps) == (3, 2, 2)

    def test_values_unchanged(self, quad):
        p = counting_problem(quad.problem, Counts())
        x, y = rand_xy(2, 2, 2)
        np.testing.assert_array_equal(p.grad_y_ll(x, y), quad.problem.grad_y_ll(x, y))
        assert p.ul_value(x, y) == quad.problem.ul_value(x, y)

    def test_add(self):
        a = Counts(1, 2, 3)
        a.add(Counts(10, 20, 30))
        assert (a.grads, a.hvps, a.jvps) == (11, 22, 33)


class TestFdCheck:
    def test_quadratic_passes(self, quad):
        x, y = rand_xy(2, 2, 11)
        report = fd_check_gradients(quad.problem, x, y)
        assert report.passed, str(report)
        # includes the optional upper-level products
        assert "hvp_yy_ul" in report.max_rel_error

    def test_quadratic_many_points(self, quad):
        for seed in range(10):
            x, y = rand_xy(2, 2, 100 + seed)
            assert fd_check_gradients(quad.problem, x, y).passed

    def test_flags_negated_gradient(self, quad):
        broken = dataclasses.replace(
            quad.problem, grad_y_ll=lambda x, y: -(quad.problem.grad_y_ll(x, y)))
        x, y = rand_xy(2, 2, 12)
        report = fd_check_gradients(broken, x, y)
        assert "grad_y_ll" in report.failures
        assert report.max_rel_error["grad_y_ll"] == pytest.approx(2.0, rel=1e-3)
        assert not report.passed
        assert "FAIL" in str(report)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cross_derivative_consistency(self, seed):
        # <jvp_xy(u), w> == d/dt <grad_y f(x + t w, y), u> at t = 0
        qb = make_quadratic(3, spectrum=(0.5, 5.0), seed=seed % 7)
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        u, w = rng.standard_normal(3), rng.standard_normal(3)
        h = 1e-5
        fd = (qb.problem.grad_y_ll(x + h * w, y) @ u
              - qb.problem.grad_y_ll(x - h * w, y) @ u) / (2 * h)
        got = float(qb.problem.jvp_xy_ll(x, y, u) @ w)
        assert got == pytest.approx(fd, rel=1e-4, abs=1e-8)
