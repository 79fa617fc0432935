import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blo.errors import DivergenceError, NonPositiveCurvatureError
from blo.linalg import (CGResult, _row_dots, cg_solve, cg_solve_rows, gaussian_vector,
                        neumann_apply, power_iteration_lmax)

from reference import matrix_operator


def identity(v):
    return np.array(v, dtype=float)


def diagonal(diag):
    d = np.asarray(diag, dtype=float)
    return lambda v: d * v


def random_spd(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(0.5, 5.0, size=dim)
    return q @ np.diag(eigs) @ q.T


class TestCgSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0])
        res = cg_solve(identity, b, tol=1e-10)
        np.testing.assert_allclose(res.x, [3.0, -1.0])
        assert res.iterations == 1
        assert np.linalg.norm(res.x - b) <= 1e-10 * np.linalg.norm(b)

    def test_diagonal(self):
        res = cg_solve(diagonal(np.array([2.0, 4.0])), np.array([2.0, 4.0]))
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
        assert res.iterations <= 2

    def test_zero_rhs(self):
        res = cg_solve(diagonal(np.array([2.0, 4.0])), np.zeros(2))
        np.testing.assert_array_equal(res.x, np.zeros(2))
        assert res.iterations == 0

    def test_matches_dense_solve(self):
        a = random_spd(12, seed=3)
        b = np.random.default_rng(4).standard_normal(12)
        res = cg_solve(matrix_operator(a), b, tol=1e-12)
        np.testing.assert_allclose(res.x, np.linalg.solve(a, b), atol=1e-8)

    def test_indefinite_raises(self):
        op = diagonal(np.array([1.0, -1.0]))
        with pytest.raises(NonPositiveCurvatureError):
            cg_solve(op, np.array([0.0, 1.0]))

    def test_exactly_singular_raises(self):
        op = diagonal(np.array([1.0, 0.0]))
        with pytest.raises(NonPositiveCurvatureError):
            cg_solve(op, np.array([1.0, 1.0]))

    def test_max_iter_returns_unconverged(self):
        a = random_spd(30, seed=5)
        b = np.ones(30)
        res = cg_solve(matrix_operator(a), b, tol=1e-14, max_iter=2)
        assert np.linalg.norm(a @ res.x - b) > 1e-14 * np.linalg.norm(b)
        assert res.iterations == 2

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 50), seed=st.integers(0, 10_000))
    def test_pd_converges_within_dim_iterations(self, dim, seed):
        a = random_spd(dim, seed)
        b = np.random.default_rng(seed + 1).standard_normal(dim)
        res = cg_solve(matrix_operator(a), b, tol=1e-8)
        # the recurrence's residual met tol; the true one agrees up to rounding
        assert np.linalg.norm(a @ res.x - b) <= 1.001e-8 * np.linalg.norm(b)
        assert res.iterations <= dim


class TestNeumannApply:
    def test_single_term_identity(self):
        out = neumann_apply(identity, np.array([1.0, 0.0]), 1.0, 0)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_two_terms_by_hand(self):
        # 0.5 * (1 + 0.5) * b
        out = neumann_apply(identity, np.array([1.0, 0.0]), 0.5, 1)
        np.testing.assert_allclose(out, [0.75, 0.0])

    def test_series_limit_inverts_identity(self):
        out = neumann_apply(identity, np.array([1.0, 0.0]), 0.5, 50)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-10)

    def test_telescoping(self):
        # M+1 terms == M terms + step * (I - step*A)^{M+1} b
        a = random_spd(6, seed=9)
        op = matrix_operator(a)
        b = np.random.default_rng(10).standard_normal(6)
        step = 0.9 / np.linalg.eigvalsh(a).max()
        for m in (0, 1, 5, 13):
            lhs = neumann_apply(op, b, step, m + 1)
            tail = np.linalg.matrix_power(np.eye(6) - step * a, m + 1) @ b
            rhs = neumann_apply(op, b, step, m) + step * tail
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(2, 20), seed=st.integers(0, 10_000))
    def test_agrees_with_cg_at_large_truncation(self, dim, seed):
        a = random_spd(dim, seed)
        op = matrix_operator(a)
        b = np.random.default_rng(seed + 1).standard_normal(dim)
        step = 0.9 / np.linalg.eigvalsh(a).max()
        ns = neumann_apply(op, b, step, 10_000)
        cg = cg_solve(op, b, tol=1e-12).x
        assert np.linalg.norm(ns - cg) <= 1e-6 * np.linalg.norm(b)

    def test_divergent_accumulation_raises(self):
        op = diagonal(np.array([1.0]))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            neumann_apply(op, np.array([1.0]), 1e9, 400)


class TestPowerIteration:
    def test_identity(self):
        assert power_iteration_lmax(identity, 5) == pytest.approx(1.0, abs=1e-8)

    def test_known_spectrum(self):
        op = diagonal(np.array([1.0, 10.0]))
        assert power_iteration_lmax(op, 2, iters=100) == pytest.approx(10.0, abs=1e-6)

    def test_zero_operator(self):
        assert power_iteration_lmax(lambda v: np.zeros(3), 3) == 0.0

    def test_matches_eigvalsh(self):
        # spectrum needs a genuine top gap for fast power convergence
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        a = q @ np.diag(np.concatenate([[8.0], rng.uniform(0.5, 5.0, 19)])) @ q.T
        est = power_iteration_lmax(matrix_operator(a), 20, iters=500)
        assert est == pytest.approx(np.linalg.eigvalsh(a).max(), rel=1e-6)

    def test_deterministic(self):
        a = random_spd(8, seed=2)
        op = matrix_operator(a)
        assert power_iteration_lmax(op, 8, seed=4) == power_iteration_lmax(op, 8, seed=4)


class TestGaussianVector:
    def test_deterministic(self):
        np.testing.assert_array_equal(gaussian_vector(3, 7), gaussian_vector(3, 7))

    def test_mean_near_zero_at_scale(self):
        v = gaussian_vector(100_000, 1)
        assert abs(v.mean()) < 0.02

    def test_scalar_shape(self):
        v = gaussian_vector(1, 0)
        assert v.shape == (1,)
        assert np.isfinite(v[0])


class TestOperators:
    def test_matrix_operator_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matrix_operator(np.ones((2, 3)))


def reference_cg_solve(op, b, tol=1e-10, max_iter=None):
    """``cg_solve`` before its loop was made lean (NumPy scalar functions,
    ``tol * ||b||`` looked up every iteration)."""
    b = np.asarray(b, dtype=float)
    if max_iter is None:
        max_iter = 10 * b.size + 10
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CGResult(np.zeros_like(b), 0)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for it in range(1, max_iter + 1):
        ap = op(p)
        pp = float(p @ p)
        curv = float(p @ ap)
        if curv <= 1e-14 * pp:
            raise NonPositiveCurvatureError(
                f"curvature {curv:.3e} along a CG direction with |p|^2 = {pp:.3e}; "
                "operator is not positive definite")
        step = rs / curv
        x = x + step * p
        r = r - step * ap
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise DivergenceError("conjugate gradient residual became non-finite")
        if np.sqrt(rs_new) <= tol * b_norm:
            return CGResult(x, it)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CGResult(x, max_iter)


def reference_neumann_apply(op, b, step, terms):
    """``neumann_apply`` before its finiteness check took one dot first."""
    b = np.asarray(b, dtype=float)
    term = b.copy()
    acc = b.copy()
    for _ in range(terms):
        term = term - step * op(term)
        if not np.all(np.isfinite(term)):
            raise DivergenceError("Neumann series accumulation became non-finite")
        acc += term
    return step * acc


def counted(op, calls):
    """``op`` recording each product in ``calls``."""
    def apply(v):
        calls.append(v.copy())
        return op(v)
    return apply


def outcome(fn, op, *args):
    """What ``fn(op, *args)`` returned or raised, and the products it took."""
    calls = []
    with np.errstate(all="ignore"):
        try:
            result = ("ok", fn(counted(op, calls), *args))
        except (DivergenceError, NonPositiveCurvatureError) as exc:
            result = (type(exc), str(exc))
    return result, [c.tobytes() for c in calls]


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def random_operator(kind, dim, seed):
    """SPD diagonal or dense operators, and diagonals with one entry that is
    not positive (curvature error) or not finite (divergence)."""
    rng = np.random.default_rng(seed)
    # eigenvalues over up to four decades, so CG takes many steps to converge
    diag = np.exp(rng.uniform(np.log(5e-4), np.log(5.0), size=dim))
    if kind == "dense":
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return matrix_operator(q @ np.diag(diag) @ q.T)
    bad = {"singular": 0.0, "indefinite": -1.0, "inf": np.inf, "nan": np.nan}
    if kind in bad:
        diag[seed % dim] = bad[kind]
    return diagonal(diag)


OPERATOR_KINDS = ["diagonal", "dense", "singular", "indefinite", "inf", "nan"]


class TestLeanLoopsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(OPERATOR_KINDS), dim=st.integers(1, 40),
           seed=st.integers(0, 10_000), tol=st.sampled_from([1e-4, 1e-8, 1e-12]),
           max_iter=st.one_of(st.none(), st.integers(1, 8)),
           scale=st.sampled_from([0.0, 1.0, 1e-150, 1e150, 1e160]))
    def test_cg_solve_bitwise(self, kind, dim, seed, tol, max_iter, scale):
        op = random_operator(kind, dim, seed)
        b = scale * np.random.default_rng(seed + 1).standard_normal(dim)
        got, got_calls = outcome(cg_solve, op, b, tol, max_iter)
        want, want_calls = outcome(reference_cg_solve, op, b, tol, max_iter)
        assert got_calls == want_calls  # raised, if at all, at the same product
        assert got[0] == want[0]
        if got[0] != "ok":
            assert got[1] == want[1]  # same message
            return
        res, ref = got[1], want[1]
        assert bits(res.x) == bits(ref.x)
        assert res.iterations == ref.iterations

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(OPERATOR_KINDS), dim=st.integers(1, 12),
           seed=st.integers(0, 10_000), terms=st.integers(0, 30),
           step=st.sampled_from([0.05, 0.19, 0.5, 3.0, 1e9]),
           scale=st.sampled_from([0.0, 1.0, 1e150, 1e160]))
    def test_neumann_apply_bitwise(self, kind, dim, seed, terms, step, scale):
        op = random_operator(kind, dim, seed)
        b = scale * np.random.default_rng(seed + 1).standard_normal(dim)
        got, got_calls = outcome(neumann_apply, op, b, step, terms)
        want, want_calls = outcome(reference_neumann_apply, op, b, step, terms)
        assert got_calls == want_calls
        assert got[0] == want[0]
        if got[0] == "ok":
            assert bits(got[1]) == bits(want[1])
        else:
            assert got[1] == want[1]

    def test_neumann_passes_finite_terms_whose_squares_overflow(self):
        b = np.array([1e160, -2e160, 3e160])
        op = diagonal(np.full(3, 0.5))
        with np.errstate(over="ignore"):
            out = neumann_apply(op, b, 1.0, 5)
        # every term, b / 2^j, squares past the largest float
        assert float(np.abs(b / 32).max()) > math.sqrt(np.finfo(float).max)
        assert bits(out) == bits(reference_neumann_apply(op, b, 1.0, 5))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_neumann_still_raises_on_a_nonfinite_term(self, bad):
        b = np.array([1e160, bad, 3e160])
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="Neumann series"):
            neumann_apply(diagonal(np.full(3, 0.5)), b, 1.0, 1)


def rowwise(op):
    """``op`` applied to each row of a stack."""
    return lambda rows: np.stack([op(row) for row in rows])


def stacked_outcome(op, stack_op, B, tol, max_iter):
    """``cg_solve_rows`` on B, and what ``cg_solve`` does with each row: its
    result or the exception it raised, and the products it took."""
    with np.errstate(all="ignore"):
        got = cg_solve_rows(stack_op, B, tol, max_iter)
    return got, [outcome(cg_solve, op, b, tol, max_iter) for b in B]


class TestCgSolveRows:
    """Each row of the stacked solve is bitwise ``cg_solve`` on that row alone,
    or all ``nan`` where that raises."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(OPERATOR_KINDS), dim=st.integers(1, 40),
           seed=st.integers(0, 10_000), tol=st.sampled_from([1e-4, 1e-8, 1e-12]),
           max_iter=st.one_of(st.none(), st.integers(0, 8)),
           scales=st.lists(st.sampled_from([0.0, 1.0, 1e-150, 1e150, 1e160]),
                           min_size=0, max_size=8))
    def test_rows_match_cg_solve_bitwise(self, kind, dim, seed, tol, max_iter, scales):
        op = random_operator(kind, dim, seed)
        stack_op = rowwise(op) if kind == "dense" else op  # a diagonal acts row-wise
        rng = np.random.default_rng(seed + 1)
        B = np.array([s * rng.standard_normal(dim) for s in scales]).reshape(-1, dim)
        (x, iters), alone = stacked_outcome(op, stack_op, B, tol, max_iter)
        assert x.shape == B.shape and iters.shape == (len(B),)
        for i, (res, calls) in enumerate(alone):
            # all nan exactly where cg_solve raises, counting the product it raised at
            assert np.isnan(x[i]).all() == (res[0] != "ok")
            if res[0] == "ok":
                assert bits(x[i]) == bits(res[1].x)
                assert iters[i] == res[1].iterations
            else:
                assert iters[i] == len(calls)

    def test_zero_rows(self):
        x, iters = cg_solve_rows(diagonal([1.0, 2.0]), np.zeros((0, 2)))
        assert x.shape == (0, 2) and iters.shape == (0,)

    def test_one_row(self):
        op = random_operator("diagonal", 30, 4)
        b = np.random.default_rng(5).standard_normal(30)
        x, iters = cg_solve_rows(op, b[None, :], 1e-12)
        res = cg_solve(op, b, 1e-12)
        assert bits(x[0]) == bits(res.x) and iters.tolist() == [res.iterations]

    def test_rows_that_hit_max_iter(self):
        op = random_operator("diagonal", 40, 6)
        B = np.random.default_rng(7).standard_normal((5, 40))
        B[1] = 0.0
        x, iters = cg_solve_rows(op, B, 1e-12, max_iter=3)
        assert iters.tolist() == [3, 0, 3, 3, 3]
        for i, b in enumerate(B):
            assert bits(x[i]) == bits(cg_solve(op, b, 1e-12, max_iter=3).x)

    def test_indefinite_diagonal_raises_as_cg_solve(self):
        """Where ``cg_solve`` raises on a row, that row is nan, counted to the
        product it raised at; the other rows are bitwise their own solves."""
        op = diagonal([1.0, -1.0, 2.0])
        B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 3.0]])
        x, iters = cg_solve_rows(op, B)
        raised = []
        for i, b in enumerate(B):
            calls = []
            try:
                res = cg_solve(counted(op, calls), b)
            except NonPositiveCurvatureError:
                raised.append(i)
                assert np.isnan(x[i]).all() and iters[i] == len(calls)
            else:
                assert bits(x[i]) == bits(res.x) and iters[i] == res.iterations
        assert raised == [1, 2] and iters.tolist() == [1, 1, 2, 1]

    def test_zero_curvature_is_not_divided_by(self):
        op = diagonal([1.0, 0.0, 2.0])
        B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(NonPositiveCurvatureError):
            cg_solve(op, B[1])
        with np.errstate(all="raise"):
            x, iters = cg_solve_rows(op, B)
        assert bits(x[0]) == bits(cg_solve(op, B[0]).x)
        assert np.isnan(x[1]).all() and iters.tolist() == [1, 1]

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 1000])
    def test_row_dots_match_dot_bitwise(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((64, n)), rng.standard_normal((64, n))
        pick = rng.permutation(64)[:40]  # gathered rows, as the active set is
        for u, w in ((a, b), (a, a), (a[pick], b[pick])):
            want = np.array([u[i].dot(w[i]) for i in range(len(u))])
            assert bits(_row_dots(u, w)) == bits(want)
