import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blo.metrics
from blo.errors import DivergenceError, NonPositiveCurvatureError
from blo.linalg import cg_solve
from blo.metrics import (TRACE_COLUMNS, TRACE_HEADER, TraceRecord, csv_line,
                         hypergrad_error, kkt_residual, quadratic_oracle)
from blo.problem import Counts
from blo.solvers import (MethodSpec, ScheduleConfig, SolverState, StopRule,
                         _make_record, rhg_hypergradient, run_solver)
from blo.testbeds import make_multimin, make_quadratic

from reference import a_operator, aggregate, lyapunov_value, matrix_operator


@pytest.fixture(scope="module")
def quad():
    return make_quadratic(2)


@pytest.fixture(scope="module")
def quad_spd():
    return make_quadratic(4, spectrum=(0.5, 5.0), seed=3)


class TestKktResidual:
    def test_zero_at_solution(self, quad):
        xs = quad.oracle.x_star
        ys = quad.oracle.y_star_mu(xs, 0.0, 1.0)
        assert kkt_residual(quad.problem, xs, ys, ys) <= 1e-12

    def test_value_at_origin(self, quad):
        z = np.zeros(2)
        assert kkt_residual(quad.problem, z, z, z) == pytest.approx(2.0)

    def test_middle_term_vanishes_with_exact_solve(self, quad_spd):
        p = quad_spd.problem
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            v = cg_solve(a_operator(quad_spd), p.grad_y_ul(x, y), tol=1e-13).x
            rx = p.grad_x_ul(x, y) - p.jvp_xy_ll(x, y, v)
            rf = p.grad_y_ll(x, y)
            total = kkt_residual(p, x, y, v)
            assert total == pytest.approx(float(rx @ rx + rf @ rf), rel=1e-9, abs=1e-12)

    def test_equals_grad_phi_norm_at_inner_optimum(self, quad_spd):
        # with y = y*(x) and the adjoint solved exactly, the residual
        # collapses to |grad phi(x)|^2: zero iff x is stationary
        p, orc = quad_spd.problem, quad_spd.oracle
        for seed in range(20):
            x = np.random.default_rng(100 + seed).standard_normal(4)
            ys = orc.y_star_mu(x, 0.0, 1.0)
            v = cg_solve(a_operator(quad_spd), p.grad_y_ul(x, ys), tol=1e-13).x
            g = orc.grad_phi(x)
            assert kkt_residual(p, x, ys, v) == pytest.approx(float(g @ g),
                                                             rel=1e-8, abs=1e-12)
        xs = orc.x_star
        assert np.linalg.norm(orc.grad_phi(xs)) <= 1e-10
        ys = orc.y_star_mu(xs, 0.0, 1.0)
        assert kkt_residual(p, xs, ys, ys) <= 1e-12

    def test_aggregated_matches_smoothed_gradient(self, quad_spd):
        p, orc = quad_spd.problem, quad_spd.oracle
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            x = rng.standard_normal(4)
            mu = float(rng.uniform(0.05, 0.5))
            lam = float(rng.uniform(0.5, 3.0))
            ys = orc.y_star_mu(x, mu, lam)
            vs = orc.v_star_mu(x, mu, lam)
            # grad phi_mu = (x - z0) + c^2 A^-1 x = grad phi - (1 - c^2) y*(x)
            c = (1.0 - mu) / (mu * lam + 1.0 - mu)
            g = orc.grad_phi(x) - (1.0 - c * c) * orc.y_star_mu(x, 0.0, 1.0)
            got = kkt_residual(p, x, ys, vs, mu, lam)
            assert got == pytest.approx(float(g @ g), rel=1e-7, abs=1e-10)


class TestOracleSelfConsistency:
    def test_aggregated_stationarity(self, quad_spd):
        # y*_mu must zero the aggregated lower gradient
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            x = rng.standard_normal(4)
            mu = float(rng.uniform(0.0, 0.5))
            lam = float(rng.uniform(0.5, 3.0))
            psi = aggregate(quad_spd.problem, mu, lam)
            ys = quad_spd.oracle.y_star_mu(x, mu, lam)
            assert np.linalg.norm(psi.grad_y_ll(x, ys)) <= 1e-9

    def test_x_star_and_value(self, quad):
        xs = quad.oracle.x_star
        np.testing.assert_allclose(xs, [0.5, 0.5], atol=1e-10)
        # phi(x) = F(x, y*(x))
        assert quad.problem.ul_value(xs, quad.oracle.y_star_mu(xs, 0.0, 1.0)) \
            == pytest.approx(0.5)

    def test_grad_phi_at_z0(self, quad):
        np.testing.assert_allclose(quad.oracle.grad_phi(np.ones(2)), [1.0, 1.0],
                                   atol=1e-10)

    def test_mu_zero_inner_solution_is_exact_one(self, quad_spd):
        x = np.random.default_rng(7).standard_normal(4)
        np.testing.assert_array_equal(quad_spd.oracle.y_star_mu(x, 0.0, 1.0),
                                      cg_solve(a_operator(quad_spd), x, tol=1e-12).x)

    def test_rejects_indefinite_operator(self):
        from blo.metrics import quadratic_oracle
        with pytest.raises(ValueError):
            quadratic_oracle(lambda v: np.array([1.0, -1.0]) * v, np.ones(2))


class TestHypergradError:
    def test_exact_gradient_is_zero_error(self, quad):
        x = np.array([0.3, -1.2])
        assert hypergrad_error(quad.oracle.grad_phi(x)[None], quad.oracle,
                               x[None]).tolist() == [0.0]

    def test_biased_limit_error(self, quad):
        # a one-step alternating scheme stalls at (2/3, 2/3) where its own
        # direction is zero but grad phi is (1/3, 1/3)
        xbar = np.array([2.0 / 3.0, 2.0 / 3.0])
        err = hypergrad_error(np.zeros((1, 2)), quad.oracle, xbar[None])
        assert err.shape == (1,) and err[0] == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-10)

    def test_long_unroll_is_accurate(self, quad):
        x = np.array([0.3, -1.2])
        res = rhg_hypergradient(quad.problem, x, np.zeros(2), T=1000, beta=0.5)
        assert hypergrad_error(res.d[None], quad.oracle, x[None])[0] <= 1e-8


class TestLyapunov:
    def test_equals_ul_value_on_manifold(self, quad_spd):
        p, orc = quad_spd.problem, quad_spd.oracle
        x = np.random.default_rng(9).standard_normal(4)
        ys = orc.y_star_mu(x, 0.3, 1.0)
        vs = orc.v_star_mu(x, 0.3, 1.0)
        v_val = lyapunov_value(p, orc, x, ys, vs, 0.3, 1.0)
        assert v_val == p.ul_value(x, ys)

    def test_value_at_origin(self, quad):
        z = np.zeros(2)
        assert lyapunov_value(quad.problem, quad.oracle, z, z, z, 0.3, 1.0) \
            == pytest.approx(1.0)

    def test_swap_symmetry_when_weights_match(self, quad_spd):
        # lam = 1 makes v*_mu == y*_mu, so the two distance terms swap
        p, orc = quad_spd.problem, quad_spd.oracle
        rng = np.random.default_rng(10)
        x, a, b = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)
        lhs = lyapunov_value(p, orc, x, a, b, 0.25, 1.0)
        rhs = lyapunov_value(p, orc, x, b, a, 0.25, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("bed, sched", [
        (make_multimin(), ScheduleConfig(mode="merely-convex", alpha=1000.0, beta=0.9,
                                         eta=8.0, lam=2.0)),
        (make_quadratic(4, spectrum=(0.5, 5.0), seed=3),
         ScheduleConfig(mode="merely-convex", alpha=0.5, beta=0.2, eta=0.2)),
    ])
    def test_trace_cell_matches_reference(self, bed, sched):
        rows, states = [], []
        run_solver(bed.problem, MethodSpec("bagdc"), sched, StopRule(max_iters=12),
                   bed.oracle, sink=rows.append,
                   probe=lambda k, seconds, before, after, d: states.append(after))
        assert len(rows) == len(states) == 12
        for rec, s in zip(rows, states):
            want = lyapunov_value(bed.problem, bed.oracle, s.x, s.y, s.v, rec.mu, sched.lam)
            assert rec.lyapunov == want, rec.k


def _rec(k, kkt):
    return TraceRecord(k=k, wall_seconds=0.0, ul_value=0.0, ll_value=0.0,
                       d_norm=0.0, kkt_residual=kkt, grad_phi_norm=None,
                       dist_x_rel=None, dist_y=None, lyapunov=None,
                       mu=0.0, alpha=0.1, beta=0.1, eta=0.1,
                       hvp_count=k, jvp_count=k)


class TestTraceRecord:
    def test_header_layout(self):
        assert TRACE_HEADER == ("k,wall_seconds,ul_value,ll_value,d_norm,"
                                "kkt_residual,grad_phi_norm,dist_x_rel,dist_y,"
                                "lyapunov,mu,alpha,beta,eta,hvp_count,jvp_count")
        assert len(TRACE_COLUMNS) == 16

    def test_csv_row_cells(self):
        row = _rec(3, 0.5).csv_row().split(",")
        assert len(row) == 16
        assert row[0] == "3"
        assert row[5] == "0.5"
        # oracle-only fields stay empty, never the string "None"
        assert row[6] == row[7] == row[8] == row[9] == ""
        assert row[14] == row[15] == "3"

    def test_round_trip_float_precision(self):
        val = 1.0 / 3.0
        row = _rec(0, val).csv_row().split(",")
        assert float(row[5]) == val

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.none(), st.integers(-10**20, 10**20), st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
        st.floats(allow_nan=True).map(np.float64), st.integers(-99, 99).map(np.int64),
    ), min_size=16, max_size=16))
    def test_csv_row_matches_per_value_formatter(self, values):
        # None, int-valued alpha/mu and numpy scalars may reach a record
        # from Python callers; each cell follows its value, not its column
        rec = TraceRecord(*values)
        assert rec.csv_row() == reference_csv_row(rec)

    def test_csv_row_of_typical_rows(self):
        recs = [_rec(3, 0.5), _rec(0, -0.0),
                dataclasses.replace(_rec(7, math.nan), alpha=1, mu=0,
                                    d_norm=math.inf, dist_y=-math.inf),
                dataclasses.replace(_rec(1, 2.0), eta=np.float64(0.1))]
        for rec in recs:
            assert rec.csv_row() == reference_csv_row(rec)
        assert recs[2].csv_row().split(",")[10:12] == ["0", "1"]


class TestCsvLine:
    def test_cells_by_value(self):
        values = [None, 7, -3, True, np.int64(2), -0.0, 5e-324, math.nan, math.inf,
                  -math.inf, 0.1, np.float64(0.25), "nosa", "dist_x_rel", ""]
        assert csv_line(values) == (",7,-3,True,2.0,-0.0,5e-324,nan,inf,-inf,0.1,0.25,"
                                    "nosa,dist_x_rel,")

    def test_strings_pass_through(self):
        cells = ("label", "metric", "k", "wall_seconds", "value")
        assert csv_line(cells) == ",".join(cells)


def reference_csv_row(rec):
    """Cell by cell with ``getattr``: the reference ``csv_row`` must match."""
    cells = []
    for name in TRACE_COLUMNS:
        val = getattr(rec, name)
        if val is None:
            cells.append("")
        elif isinstance(val, int):
            cells.append(str(val))
        else:
            cells.append(repr(float(val)))
    return ",".join(cells)


def _spd_operator(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return matrix_operator(q @ np.diag(rng.uniform(0.5, 5.0, n)) @ q.T)


_MU_ARGS = (0.3, 2.0)  # (mu, lam)
_ORACLE_FIELDS = ("grad_phi", "y_star_mu", "v_star_mu")


def _ask(oracle, field, x):
    args = (x, *_MU_ARGS) if field.endswith("_mu") else (x,)
    return getattr(oracle, field)(*args)


def _spy_solves(monkeypatch):
    """The right-hand sides of the oracle's ``cg_solve`` calls, in call order."""
    solved = []

    def spy(op, b, *args, **kwargs):
        solved.append(np.asarray(b, dtype=float).tobytes())
        return cg_solve(op, b, *args, **kwargs)

    monkeypatch.setattr(blo.metrics, "cg_solve", spy)
    return solved


class TestQuadraticOracleMemo:
    """``a_inv`` keeps its solves in a trail cache; callbacks return new arrays."""

    def test_returned_arrays_are_the_callers_own(self, quad_spd):
        x = np.array([0.5, -1.0, 2.0, 0.25])
        first = quad_spd.oracle.y_star_mu(x, 0.0, 1.0)
        want = first.copy()
        first[:] = 7.0
        np.testing.assert_array_equal(quad_spd.oracle.y_star_mu(x, 0.0, 1.0), want)
        # the kept solves are read-only; no caller gets one
        oracle = quad_spd.oracle
        for ask in (oracle.grad_phi, lambda x: oracle.y_star_mu(x, 0.0, 1.0),
                    lambda x: oracle.y_star_mu(x, 0.3, 2.0)):
            first, second = ask(x), ask(x)
            assert first.flags.writeable and second.flags.writeable
            assert not np.shares_memory(first, second)
            assert first.tobytes() == second.tobytes()

    def test_one_solve_per_distinct_point(self, monkeypatch):
        bed = make_quadratic(5, spectrum=(0.5, 5.0), seed=2)
        solved = _spy_solves(monkeypatch)
        rng = np.random.default_rng(5)
        x0, x1, y, v = (rng.standard_normal(5) for _ in range(4))
        # a trace row at x1, then single-point grad_phi at x0 and at x1
        rec = _make_record(bed.problem, bed.oracle, 0, SolverState(x1, y, v), 0.1,
                           0.2, 0.1, 0.1, 0.1, 0.0, Counts(), 1.5)
        assert None not in (rec.grad_phi_norm, rec.dist_y, rec.lyapunov)
        bed.oracle.grad_phi(x0)
        bed.oracle.grad_phi(x1)
        assert solved == [x1.tobytes(), x0.tobytes()]

    @pytest.mark.parametrize("method", [MethodSpec("bagdc"), MethodSpec("rhg", T=5)],
                             ids=["bagdc", "rhg"])
    def test_one_solve_per_trace_row(self, monkeypatch, method):
        # a row every step asks grad_phi, y_star_mu and v_star_mu at x_{k+1};
        # the probe solves its points together after the run (cg_solve_rows)
        bed = make_quadratic(5, spectrum=(0.5, 5.0), seed=2)
        solved, rows, probed = _spy_solves(monkeypatch), [], []
        _, summary = run_solver(
            bed.problem, method, ScheduleConfig(alpha=0.1, beta=0.2, eta=0.2),
            StopRule(max_iters=20), bed.oracle, sink=rows.append,
            probe=lambda k, seconds, before, after, d: probed.append((d, before.x, after.x)))
        ds, xs, afters = (np.stack(col) for col in zip(*probed))
        hypergrad_error(ds, bed.oracle, xs)
        assert summary.iterations == len(rows) == 20
        assert solved == [x.tobytes() for x in afters]  # x_1 .. x_20, each once

    @settings(max_examples=60, deadline=None)
    @given(asks=st.lists(st.tuples(st.sampled_from(_ORACLE_FIELDS), st.integers(0, 3)),
                         min_size=1, max_size=16),
           seed=st.integers(0, 1000))
    def test_values_match_a_memo_free_oracle(self, asks, seed):
        a_op = _spd_operator(6, seed)
        z0 = np.random.default_rng(seed + 1).standard_normal(6)
        xs = [np.random.default_rng([seed, i]).standard_normal(6) for i in range(4)]
        oracle = quadratic_oracle(a_op, z0)
        for field, i in asks:
            got = _ask(oracle, field, xs[i])
            # a fresh oracle has nothing kept: every value is a new solve
            want = _ask(quadratic_oracle(a_op, z0), field, xs[i])
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert oracle.x_star.tobytes() == quadratic_oracle(a_op, z0).x_star.tobytes()


def _multimin_rows(oracle, iters=10):
    mm = make_multimin()
    sched = ScheduleConfig(mode="merely-convex", alpha=1000.0, beta=0.9, eta=8.0)
    rows = []
    _, summary = run_solver(mm.problem, MethodSpec("bagdc"), sched,
                            StopRule(max_iters=iters), oracle, sink=rows.append)
    return rows, summary


class TestFailingMetricCells:
    """A metric whose oracle raises leaves its own cells empty; the rest
    of the row and the run go on as without the failure."""

    FAIL_AT = (2, 5, 9)  # trace rows whose x the failing callable refuses

    def _compare(self, oracle, field, exc, blank):
        want_rows, want = _multimin_rows(oracle)
        seen = []
        spy = dataclasses.replace(oracle, grad_phi=lambda x: seen.append(x.tobytes())
                                  or oracle.grad_phi(x))
        _multimin_rows(spy)  # grad_phi is asked once per row, at the row's x
        refused = {seen[k] for k in self.FAIL_AT}
        good = getattr(oracle, field)

        def failing(x, *args):
            if x.tobytes() in refused:
                raise exc("refused")
            return good(x, *args)

        rows, summary = _multimin_rows(dataclasses.replace(oracle, **{field: failing}))
        assert (summary.status, summary.iterations) == (want.status, want.iterations)
        assert len(rows) == len(want_rows) == 10
        for k, (got, ref) in enumerate(zip(rows, want_rows)):
            for name in TRACE_COLUMNS[2:]:
                if k in self.FAIL_AT and name in blank:
                    assert getattr(ref, name) is not None, (k, name)
                    assert getattr(got, name) is None, (k, name)
                else:
                    assert getattr(got, name) == getattr(ref, name), (k, name)
        assert [summary.final[n] for n in blank] == [None] * len(blank)

    @pytest.mark.parametrize("exc", [NonPositiveCurvatureError, DivergenceError,
                                     FloatingPointError])
    @pytest.mark.parametrize("field, blank", [
        ("grad_phi", ("grad_phi_norm",)),
        ("y_star_mu", ("dist_y", "lyapunov")),
        ("v_star_mu", ("lyapunov",)),
    ])
    def test_only_dependent_cells_blank(self, field, blank, exc):
        self._compare(make_multimin().oracle, field, exc, blank)

    def test_other_errors_propagate(self):
        oracle = make_multimin().oracle

        def broken(x):
            raise KeyError("not a metric failure")

        with pytest.raises(KeyError):
            _multimin_rows(dataclasses.replace(oracle, grad_phi=broken))


def test_one_y_star_mu_per_row():
    # dist_y and the Lyapunov value share one y*_mu(x) per trace row
    oracle = make_multimin().oracle
    calls = {"y_star_mu": 0, "v_star_mu": 0, "grad_phi": 0}

    def spy(field):
        def counted(*args):
            calls[field] += 1
            return getattr(oracle, field)(*args)
        return counted

    rows, _ = _multimin_rows(dataclasses.replace(
        oracle, **{field: spy(field) for field in calls}), iters=25)
    assert all(r.dist_y is not None and r.lyapunov is not None for r in rows)
    assert calls == {"y_star_mu": 25, "v_star_mu": 25, "grad_phi": 25}
