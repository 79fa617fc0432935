import gc
import json
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blo import testbeds
from blo.config import parse_config
from blo.experiments import build_problem
from blo.linalg import power_iteration_lmax
from blo.problem import fd_check_gradients
from blo.solvers import MethodSpec, ScheduleConfig, StopRule, run_solver
from blo.testbeds import (Dataset, classifier_accuracy, corrupt_labels,
                          f1_clean, hypercleaning_problem, make_multimin,
                          make_quadratic, split_dataset, synth_blobs)

from reference import a_operator


class TestQuadratic:
    def test_values_by_hand(self):
        qb = make_quadratic(2)
        z = np.zeros(2)
        assert qb.problem.ul_value(z, z) == pytest.approx(1.0)
        assert qb.problem.ll_value(np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_cross_product_is_negation(self):
        qb = make_quadratic(3)
        u = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(
            qb.problem.jvp_xy_ll(np.zeros(3), np.zeros(3), u), -u)

    def test_derivatives_match_finite_differences(self):
        qb = make_quadratic(3, spectrum=(0.5, 5.0), seed=2)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            report = fd_check_gradients(qb.problem, x, y)
            assert report.passed, str(report)

    def test_inner_solution_solves_linear_system(self):
        qb = make_quadratic(6, spectrum=(0.5, 5.0), seed=4)
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(6)
            ys = qb.oracle.y_star_mu(x, 0.0, 1.0)
            assert np.linalg.norm(a_operator(qb)(ys) - x) <= 1e-10

    def test_spectrum_draw_is_seeded_and_bounded(self):
        a = make_quadratic(50, spectrum=(0.5, 5.0), seed=9)
        b = make_quadratic(50, spectrum=(0.5, 5.0), seed=9)
        x = np.ones(50)
        np.testing.assert_array_equal(a_operator(a)(x), a_operator(b)(x))
        eigs = a_operator(a)(np.ones(50))
        assert eigs.min() >= 0.5 and eigs.max() <= 5.0

    def test_custom_z0_vector(self):
        qb = make_quadratic(2, z0=[2.0, -1.0])
        # grad_x F(0, y) = -z0
        np.testing.assert_array_equal(qb.problem.grad_x_ul(np.zeros(2), np.zeros(2)),
                                      [-2.0, 1.0])

    def test_random_z0_is_seeded_and_solved_for(self):
        def built(seed):  # through the config, as a run builds it
            doc = {"problem": {"family": "quadratic", "n": 8, "spectrum": [0.5, 5.0],
                               "z0": "random", "seed": seed}, "method": {"name": "bagdc"}}
            return build_problem(parse_config(json.dumps(doc))[0].problem)

        def z0_of(qb):  # grad_x F(0, y) = -z0
            return -qb.problem.grad_x_ul(np.zeros(8), np.zeros(8))

        a, b, c = built(3), built(3), built(4)
        np.testing.assert_array_equal(z0_of(a), z0_of(b))
        assert not np.array_equal(z0_of(a), z0_of(c))
        assert np.all(z0_of(a) != 1.0)
        # (A + I) x* = A z0
        apply_a = a_operator(a)
        xs = a.oracle.x_star
        residual = apply_a(xs) + xs - apply_a(z0_of(a))
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(apply_a(z0_of(a)))


class TestMultiMinimizer:
    def test_inner_gradient_on_solution_ray(self):
        mm = make_multimin()
        g = mm.problem.grad_y_ll(np.array([2.0]), np.array([2.0, 17.0]))
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_reduced_objective(self):
        # phi(x) = F(x, y*(x)), with y*(x) the mu = 0 solution
        mm = make_multimin()
        for x, phi in ((np.array([1.0]), 0.0), (np.array([0.0]), 0.5)):
            y = mm.oracle.y_star_mu(x, 0.0, 1.0)
            assert mm.problem.ul_value(x, y) == pytest.approx(phi)

    def test_aggregated_inner_solution_at_optimum(self):
        mm = make_multimin()
        np.testing.assert_array_equal(
            mm.oracle.y_star_mu(np.array([1.0]), 0.5, 1.0), [1.0, 1.0])

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(-100.0, 100.0), x=st.floats(-5.0, 5.0))
    def test_second_coordinate_is_flat(self, t, x):
        mm = make_multimin()
        xa = np.array([x])
        base = mm.problem.ll_value(xa, np.array([0.7, 0.0]))
        assert mm.problem.ll_value(xa, np.array([0.7, t])) == base
        assert mm.problem.grad_y_ll(xa, np.array([0.7, t]))[1] == 0.0

    def test_hessian_is_rank_one(self):
        mm = make_multimin()
        x, y = np.array([0.3]), np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            mm.problem.hvp_yy_ll(x, y, np.array([0.0, 1.0])), [0.0, 0.0])
        np.testing.assert_array_equal(
            mm.problem.hvp_yy_ll(x, y, np.array([1.0, 0.0])), [1.0, 0.0])

    def test_derivatives_match_finite_differences(self):
        mm = make_multimin()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            report = fd_check_gradients(mm.problem, rng.standard_normal(1),
                                        rng.standard_normal(2))
            assert report.passed, str(report)

    def test_aggregated_oracle_stationarity(self):
        from reference import aggregate
        mm = make_multimin()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(1)
            mu = float(rng.uniform(0.05, 0.5))
            lam = float(rng.uniform(0.5, 3.0))
            psi = aggregate(mm.problem, mu, lam)
            ys = mm.oracle.y_star_mu(x, mu, lam)
            assert np.linalg.norm(psi.grad_y_ll(x, ys)) <= 1e-12


@pytest.mark.parametrize("build", [lambda: make_quadratic(50, spectrum=(0.5, 5.0)),
                                   lambda: make_quadratic(3), make_multimin],
                         ids=["quadratic-spectrum", "quadratic-identity", "multimin"])
def test_grad_phi_of_a_stack_is_each_rows_own(build):
    bed = build()
    X = np.random.default_rng(0).standard_normal((70, bed.problem.n))
    X[3] = 0.0  # a zero right-hand side: no CG step
    got = bed.oracle.grad_phi(X)
    assert got.shape == X.shape
    for i, x in enumerate(X):
        assert got[i].tobytes() == bed.oracle.grad_phi(x).tobytes()


class TestSynthBlobs:
    def test_separable_data_trains_accurately(self):
        ds = synth_blobs(classes=2, dim=2, per_class=50, separation=6.0, seed=1)
        hp = hypercleaning_problem(ds, ds)
        x = np.full(ds.n, 50.0)
        w = np.zeros(hp.problem.m)
        lmax = power_iteration_lmax(lambda u: hp.problem.hvp_yy_ll(x, w, u), hp.problem.m,
                                    seed=0)
        step = 1.0 / max(lmax, 1e-6)
        for _ in range(1500):
            w = w - step * hp.problem.grad_y_ll(x, w)
        assert classifier_accuracy(ds, w) >= 0.95

    def test_same_seed_identical(self):
        a = synth_blobs(3, 4, 10, 3.0, seed=5)
        b = synth_blobs(3, 4, 10, 3.0, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_one_per_class(self):
        ds = synth_blobs(4, 3, 1, 2.0, seed=0)
        assert ds.n == 4
        np.testing.assert_array_equal(np.sort(ds.labels), np.arange(4))

    def test_all_clean(self):
        assert synth_blobs(2, 2, 5, 3.0, seed=0).clean_mask.all()


class TestSplitDataset:
    def test_partition(self):
        ds = synth_blobs(2, 3, 20, 3.0, seed=2)
        tr, va = split_dataset(ds, 30, seed=7)
        assert tr.n == 30 and va.n == 10
        merged = np.vstack([tr.features, va.features])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.features))

    def test_seeded(self):
        ds = synth_blobs(2, 3, 20, 3.0, seed=2)
        a, _ = split_dataset(ds, 10, seed=3)
        b, _ = split_dataset(ds, 10, seed=3)
        np.testing.assert_array_equal(a.features, b.features)

    def test_bounds(self):
        # an empty part is a Dataset with N = 0
        ds = synth_blobs(2, 2, 5, 3.0, seed=0)
        with pytest.raises(ValueError, match="N >= 1"):
            split_dataset(ds, 0, seed=0)
        with pytest.raises(ValueError, match="N >= 1"):
            split_dataset(ds, 10, seed=0)


class TestCorruptLabels:
    def test_rho_zero_is_identity(self):
        ds = synth_blobs(3, 2, 10, 3.0, seed=4)
        out = corrupt_labels(ds, 0.0, seed=1)
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert out.clean_mask.all()

    def test_half_corruption_counts(self):
        ds = synth_blobs(2, 2, 50, 3.0, seed=4)
        out = corrupt_labels(ds, 0.5, seed=1)
        flipped = out.labels != ds.labels
        assert int(flipped.sum()) == 50
        np.testing.assert_array_equal(~flipped, out.clean_mask)

    def test_full_corruption_changes_every_label(self):
        ds = synth_blobs(4, 2, 25, 3.0, seed=4)
        out = corrupt_labels(ds, 1.0, seed=2)
        assert not np.any(out.labels == ds.labels)
        assert not out.clean_mask.any()
        assert out.labels.min() >= 0 and out.labels.max() < 4

    def test_features_shared_bit_exact(self):
        ds = synth_blobs(2, 2, 10, 3.0, seed=4)
        out = corrupt_labels(ds, 0.3, seed=1)
        assert out.features is ds.features


class TestF1Clean:
    def test_perfect(self):
        assert f1_clean(np.array([1.0, 2.0, 3.0]),
                        np.array([True, True, True])) == 1.0

    def test_two_thirds(self):
        # one true positive, one false positive, no misses
        assert f1_clean(np.array([1.0, 1.0]),
                        np.array([True, False])) == pytest.approx(2.0 / 3.0)

    def test_zero_when_nothing_predicted(self):
        assert f1_clean(np.array([-1.0, -1.0]),
                        np.array([True, True])) == 0.0


HP_C = 1e-3  # the ridge weight of ``hp``


@pytest.fixture(scope="module")
def hp():
    ds = synth_blobs(3, 4, 10, 3.0, seed=6)
    tr, va = split_dataset(ds, 20, seed=7)
    return hypercleaning_problem(corrupt_labels(tr, 0.3, seed=8), va, c=HP_C)


def reference_sigmoid(z):
    """The sigmoid as written before it dropped its masks."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_softmax(z):
    """The softmax as written before it took its row max class-major."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_callbacks(train, val, n_classes, c=1e-3):
    """The callbacks as written before they shared a forward pass: every
    call recomputes the softmax, the sigmoid and the direction product,
    with the row max taken row by row."""
    a, a_val = (np.hstack([ds.features, np.ones((ds.n, 1))]) for ds in (train, val))
    labels, n, rows = train.labels, train.n, np.arange(train.n)

    def unpack(w):
        return np.asarray(w, dtype=float).reshape(n_classes, train.dim + 1)

    def ce_losses(w, a, labels):
        z = a @ unpack(w).T
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        return lse - z[np.arange(a.shape[0]), labels]

    def ll_value(x, w):
        return float(reference_sigmoid(x) @ ce_losses(w, a, labels) / n
                     + 0.5 * c * (w @ w))

    def ul_value(x, w):
        return float(np.mean(ce_losses(w, a_val, val.labels)))

    def grad_y_ll(x, w):
        r = reference_softmax(a @ unpack(w).T)
        r[rows, labels] -= 1.0
        g = (r * reference_sigmoid(x)[:, None]).T @ a / n
        return g.ravel() + c * w

    def grad_y_ul(x, w):
        r = reference_softmax(a_val @ unpack(w).T)
        r[np.arange(val.n), val.labels] -= 1.0
        return (r.T @ a_val / val.n).ravel()

    def hvp_yy_ll(x, w, u):
        pm = reference_softmax(a @ unpack(w).T)
        zu = a @ unpack(u).T
        t = pm * zu
        t -= pm * t.sum(axis=1, keepdims=True)
        t *= reference_sigmoid(x)[:, None]
        return (t.T @ a / n).ravel() + c * np.asarray(u, dtype=float)

    def jvp_xy_ll(x, w, u):
        r = reference_softmax(a @ unpack(w).T)
        r[rows, labels] -= 1.0
        zu = a @ unpack(u).T
        s = reference_sigmoid(np.asarray(x, dtype=float))
        return s * (1.0 - s) * np.sum(r * zu, axis=1) / n

    return SimpleNamespace(ll_value=ll_value, ul_value=ul_value,
                           grad_y_ll=grad_y_ll, grad_y_ul=grad_y_ul,
                           hvp_yy_ll=hvp_yy_ll, jvp_xy_ll=jvp_xy_ll)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


CACHE_TRAIN, CACHE_VAL = split_dataset(synth_blobs(3, 4, 10, 3.0, seed=6), 20, seed=7)
CALLBACKS = ("ll_value", "grad_y_ll", "hvp_yy_ll", "jvp_xy_ll", "ul_value", "grad_y_ul")


def cache_reference():
    return reference_callbacks(CACHE_TRAIN, CACHE_VAL, CACHE_TRAIN.n_classes)


def call(callbacks, kind, x, w, u):
    fn = getattr(callbacks, kind)
    return fn(x, w, u) if kind in ("hvp_yy_ll", "jvp_xy_ll") else fn(x, w)


def tie_datasets(n_classes, rng, n_train=24, n_val=12, dim=3):
    """Train and val sets in which every third sample has zero features,
    so its logits are exactly the bias column."""
    features = rng.standard_normal((n_train + n_val, dim))
    features[::3] = 0.0
    labels = rng.integers(0, n_classes, n_train + n_val)
    clean = np.ones(n_train + n_val, dtype=bool)
    return (Dataset(features[:n_train], labels[:n_train], n_classes, clean[:n_train]),
            Dataset(features[n_train:], labels[n_train:], n_classes, clean[n_train:]))


def spy_direction_products(monkeypatch):
    """Weak references to the values the hypercleaning direction cache, the
    last trail cache a problem makes, computes; patch before building."""
    trail_cache = testbeds._trail_cache
    made, products = [], []

    def spying_cache(fn, runs=False):
        def counted(a):
            value = fn(a)
            if counted is made[-1]:
                products.append(weakref.ref(value[0]))
            return value
        made.append(counted)
        return trail_cache(counted, runs)

    monkeypatch.setattr(testbeds, "_trail_cache", spying_cache)
    return products


def alive(refs):
    gc.collect()
    return sum(ref() is not None for ref in refs)


def count_per_step(calls, problem, method, trace_every):
    """Entries added to ``calls`` in each step of a 30-step run, with the
    step's trace row if it has one."""
    per_step = []

    def probe(k, seconds, before, after, d):
        per_step.append(len(calls) - sum(per_step))

    run_solver(problem, method, ScheduleConfig(alpha=0.5, beta=0.5, eta=0.5),
               StopRule(max_iters=30), probe=probe, trace_every=trace_every)
    return per_step


class TestHyperCleaningKernels:
    def test_sigmoid_matches_masked_form_on_special_values(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e3, -1e3,
                      745.0, -745.0, 36.0, -36.0, 5e-324, -5e-324])
        assert same_bits(testbeds._sigmoid(z), reference_sigmoid(z))

    @settings(max_examples=100, deadline=None)
    @given(z=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50))
    def test_sigmoid_matches_masked_form(self, z):
        z = np.array(z)
        assert same_bits(testbeds._sigmoid(z), reference_sigmoid(z))

    @settings(max_examples=100, deadline=None)
    @given(n_classes=st.sampled_from([2, 3, 8, 10, 13]),
           cells=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e3, -1e3]),
                          min_size=13 * 6, max_size=13 * 6),
           noise=st.floats(-1e3, 1e3))
    def test_softmax_matches_row_major_max(self, n_classes, cells, noise):
        # few distinct cells, so most rows hold exact ties and signed zeros
        z = np.array(cells[:6 * n_classes]).reshape(6, n_classes)
        z[0, 0] = noise
        assert same_bits(testbeds._softmax(z), reference_softmax(z))

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("n_classes", [*range(2, 34), 64, 128, 129])
    def test_class_sum_replays_numpy_row_sums(self, n_classes):
        # NumPy's pairwise order sets the last bits of a row sum; a NumPy that
        # changes it fails here, not only in the golden digests
        rng = np.random.default_rng(n_classes)
        shape = (50, n_classes)
        signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        random = signs * 10.0 ** rng.uniform(-5.0, 5.0, shape)
        for specials in ([0.0, -0.0], [0.0, -0.0, np.inf, -np.inf], [0.0, -0.0, np.nan]):
            z = random.copy()
            seeded = rng.random(shape) < 0.3
            z[seeded] = rng.choice(specials, seeded.sum())
            z[0] = specials[-1]  # one row of nothing else
            for rows in (random, z):
                assert same_bits(testbeds._class_sum(np.ascontiguousarray(rows.T)),
                                 rows.sum(axis=1)), specials

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_class_sum_where_nans_meet(self):
        # an inf - inf NaN and a seeded NaN differ in their sign bit, and which
        # one a sum keeps depends on the add loop (NumPy's own SIMD body and
        # scalar tail pick differently), so only NaN-ness is replayed there
        rng = np.random.default_rng(0)
        for n_classes in range(2, 34):
            z = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0], (200, n_classes))
            got = testbeds._class_sum(np.ascontiguousarray(z.T))
            want = z.sum(axis=1)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert same_bits(got[~nan], want[~nan])


class TestHyperCleaningCache:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           calls=st.lists(st.tuples(st.sampled_from(CALLBACKS),
                                    st.integers(0, 2), st.integers(0, 3),
                                    st.integers(0, 1)),
                          min_size=1, max_size=40))
    def test_interleaved_calls_match_reference(self, seed, calls):
        # a fresh problem (cold caches) against the uncached formulas, at
        # three x, four w and two u in any order, so both the hits and the
        # first-in-first-out evictions are exercised
        problem = hypercleaning_problem(CACHE_TRAIN, CACHE_VAL).problem
        ref = cache_reference()
        rng = np.random.default_rng(seed)
        xs = [rng.standard_normal(problem.n) for _ in range(3)]
        ws = [0.5 * rng.standard_normal(problem.m) for _ in range(4)]
        us = [rng.standard_normal(problem.m) for _ in range(2)]
        for kind, i, j, k in calls:
            got = call(problem, kind, xs[i], ws[j], us[k])
            assert same_bits(got, call(ref, kind, xs[i], ws[j], us[k])), kind

    @settings(max_examples=60, deadline=None)
    @given(n_classes=st.sampled_from([2, 3, 8, 10, 13]),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    def test_callbacks_match_reference_across_class_counts(self, n_classes,
                                                           seed, scale):
        # biases drawn from four values, so the zero-feature samples hold
        # exact logit ties and zeros; two classes share their weights, and
        # x holds signed zeros
        rng = np.random.default_rng(seed)
        train, val = tie_datasets(n_classes, rng)
        problem = hypercleaning_problem(train, val).problem
        ref = reference_callbacks(train, val, n_classes)
        w = scale * rng.standard_normal((n_classes, train.dim + 1))
        w[:, -1] = np.array([0.0, -0.0, 0.5 * scale, -scale])[
            rng.integers(0, 4, n_classes)]
        w[1] = w[0]
        w = w.ravel()
        x = scale * rng.standard_normal(problem.n)
        x[::5], x[1::5] = 0.0, -0.0
        us = [rng.standard_normal(problem.m) for _ in range(2)]
        for kind in CALLBACKS:
            for u in (us[0], us[0], us[1]):
                assert same_bits(call(problem, kind, x, w, u),
                                 call(ref, kind, x, w, u)), kind

    def test_in_place_changes_are_seen(self):
        problem = hypercleaning_problem(CACHE_TRAIN, CACHE_VAL).problem
        ref = cache_reference()
        rng = np.random.default_rng(9)
        x = rng.standard_normal(problem.n)
        w = 0.5 * rng.standard_normal(problem.m)
        u = rng.standard_normal(problem.m)

        def check():
            for kind in CALLBACKS:
                assert same_bits(call(problem, kind, x, w, u),
                                 call(ref, kind, x, w, u)), kind

        check()
        w += 0.25
        check()
        x[::2] *= -1.0
        check()
        u[1::2] *= -0.5
        check()

    def test_returned_arrays_are_the_callers(self):
        # the second call of each kind, and jvp after hvp at the same u,
        # are cache hits; their outputs are fresh and writable all the same
        problem = hypercleaning_problem(CACHE_TRAIN, CACHE_VAL).problem
        ref = cache_reference()
        rng = np.random.default_rng(10)
        x = rng.standard_normal(problem.n)
        w = 0.5 * rng.standard_normal(problem.m)
        u = rng.standard_normal(problem.m)
        outs = []
        for kind in ("grad_y_ll", "hvp_yy_ll", "jvp_xy_ll", "grad_y_ul"):
            for _ in range(2):
                out = call(problem, kind, x, w, u)
                assert same_bits(out, call(ref, kind, x, w, u)), kind
                assert out.flags.writeable, kind
                assert not any(np.shares_memory(out, o) for o in outs), kind
                outs.append(out)
                out[:] = np.nan

    def test_cached_arrays_are_read_only(self):
        calls = []

        def fn(a):
            calls.append(a)
            return 2.0 * a, a + 1.0
        cached = testbeds._trail_cache(fn)
        first = cached(np.ones(3))
        for arr in first:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert cached(np.ones(3)) is first  # same contents: the kept value
        assert len(calls) == 1

    def test_one_train_softmax_per_bagdc_step(self, monkeypatch):
        problem = hypercleaning_problem(CACHE_TRAIN, CACHE_VAL).problem
        train_shape = (CACHE_TRAIN.n, CACHE_TRAIN.n_classes)
        softmax = testbeds._softmax
        train_calls = []

        def counting_softmax(z):
            if z.shape == train_shape:
                train_calls.append(1)
            return softmax(z)

        monkeypatch.setattr(testbeds, "_softmax", counting_softmax)
        # one trace row per step: its KKT residual asks at the new y too
        per_step = count_per_step(train_calls, problem, MethodSpec("bagdc"), 1)
        assert per_step == [2] + [1] * 29

    @pytest.mark.parametrize("method, expected", [
        # jvp and hvp at each reverse step's u; a trace row asks at v = 0
        (MethodSpec("rhg", T=4), [5] + [4] * 28 + [5]),
        # hvp at v, which the last step's jvp asked at, then jvp at v+; a
        # trace row asks at v+ again
        (MethodSpec("bagdc"), [2] + [1] * 29),
    ], ids=["rhg", "bagdc"])
    def test_direction_products_per_step(self, monkeypatch, method, expected):
        products = spy_direction_products(monkeypatch)
        problem = hypercleaning_problem(CACHE_TRAIN, CACHE_VAL).problem
        # trace rows, with their KKT residual's products, at k = 0 and 29
        assert count_per_step(products, problem, method, 30) == expected

    @pytest.mark.parametrize("T", [4, 20])
    def test_train_softmaxes_per_rhg_step(self, monkeypatch, T):
        # the reverse pass finds each forward point's softmax; a trace row asks
        # at y_T, the point the next step starts from
        problem = hypercleaning_problem(CACHE_TRAIN, CACHE_VAL).problem
        train_shape = (CACHE_TRAIN.n, CACHE_TRAIN.n_classes)
        softmax = testbeds._softmax
        train_calls = []

        def counting_softmax(z):
            if z.shape == train_shape:
                train_calls.append(1)
            return softmax(z)

        monkeypatch.setattr(testbeds, "_softmax", counting_softmax)
        per_step = count_per_step(train_calls, problem, MethodSpec("rhg", T=T), 1)
        assert per_step == [T + 1] + [T] * 29

    @pytest.mark.parametrize("T", [1, 2, 3, 7])
    def test_rhg_call_order_matches_reference(self, T):
        # two unrolled steps, each T points forward and then back, the second
        # from where the first ended; before the second's reverse pass one of
        # its points changes in place, so its cached softmax must not be used
        problem = hypercleaning_problem(CACHE_TRAIN, CACHE_VAL).problem
        ref = cache_reference()
        rng = np.random.default_rng(T)
        x = rng.standard_normal(problem.n)
        y = 0.5 * rng.standard_normal(problem.m)
        for step in range(2):
            ys = [y]
            for _ in range(T):
                g = problem.grad_y_ll(x, ys[-1])
                assert same_bits(g, ref.grad_y_ll(x, ys[-1]))
                ys.append(ys[-1] - 0.5 * g)
            a = problem.grad_y_ul(x, ys[T])
            assert same_bits(a, ref.grad_y_ul(x, ys[T]))
            if step == 1:
                ys[T // 2] += 0.25
            for t in range(T - 1, -1, -1):
                jvp = problem.jvp_xy_ll(x, ys[t], a)
                assert same_bits(jvp, ref.jvp_xy_ll(x, ys[t], a)), t
                hvp = problem.hvp_yy_ll(x, ys[t], a)
                assert same_bits(hvp, ref.hvp_yy_ll(x, ys[t], a)), t
                a = a - 0.5 * hvp
            y = ys[T]

    def test_trail_keeps_one_value_per_point_of_a_pass(self):
        values, calls = [], []

        def fn(a):
            calls.append(1)
            value = np.full(3, a[0])
            values.append(weakref.ref(value))
            return (value,)

        cached = testbeds._trail_cache(fn, runs=True)
        points = [np.full(2, float(i)) for i in range(60)]
        for k in range(40):  # bagdc: y, y+, y, and a trace row at y+
            for i in (k, k + 1, k, k + 1):
                assert cached(points[i])[0][0] == i
        assert len(calls) == 41 and alive(values) <= 2
        calls.clear()
        forward = points[40:51]  # rhg: from the last point, a run of misses,
        for y in forward:        # then the same points backwards
            cached(y)
        assert alive(values) <= len(forward)
        for y in reversed(forward):
            assert cached(y)[0][0] == y[0]
            assert cached(y)[0][0] == y[0]
        assert len(calls) == len(forward) - 1 and alive(values) <= 2

    @pytest.mark.parametrize("method", [MethodSpec("nosa"),
                                        MethodSpec("implicit-cg", T=3)],
                             ids=["nosa", "implicit-cg"])
    def test_direction_cache_stays_bounded(self, monkeypatch, method):
        # every step asks for direction products at new points and only the
        # trace rows ask again, so no run of them is walked back
        products = spy_direction_products(monkeypatch)
        problem = hypercleaning_problem(CACHE_TRAIN, CACHE_VAL).problem
        count_per_step(products, problem, method, 5)
        assert len(products) > 30 and alive(products) <= 2


class TestHyperCleaning:
    def test_strong_convexity_witness(self, hp):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(hp.problem.n)
        w = rng.standard_normal(hp.problem.m)
        for _ in range(10):
            u = rng.standard_normal(hp.problem.m)
            quad_form = float(u @ hp.problem.hvp_yy_ll(x, w, u))
            assert quad_form >= HP_C * float(u @ u) - 1e-12

    def test_all_weights_off_leaves_only_ridge(self, hp):
        x = np.full(hp.problem.n, -50.0)
        w = np.random.default_rng(1).standard_normal(hp.problem.m)
        np.testing.assert_allclose(hp.problem.grad_y_ll(x, w), HP_C * w,
                                   atol=1e-12)

    def test_derivatives_match_finite_differences(self):
        ds = synth_blobs(3, 4, 5, 3.0, seed=3)
        hp = hypercleaning_problem(ds, ds)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(hp.problem.n)
        w = 0.1 * rng.standard_normal(hp.problem.m)
        report = fd_check_gradients(hp.problem, x, w)
        assert report.passed, str(report)

    def test_hessian_product_symmetry(self, hp):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(hp.problem.n)
        w = 0.1 * rng.standard_normal(hp.problem.m)
        for _ in range(10):
            u = rng.standard_normal(hp.problem.m)
            z = rng.standard_normal(hp.problem.m)
            lhs = float(u @ hp.problem.hvp_yy_ll(x, w, z))
            rhs = float(z @ hp.problem.hvp_yy_ll(x, w, u))
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)

    def test_upper_gradient_in_x_is_zero(self, hp):
        x = np.random.default_rng(5).standard_normal(hp.problem.n)
        np.testing.assert_array_equal(
            hp.problem.grad_x_ul(x, np.zeros(hp.problem.m)),
            np.zeros(hp.problem.n))

    def test_no_ul_curvature(self, hp):
        assert not hp.problem.has_ul_curvature

    def test_mismatched_datasets_rejected(self):
        a = synth_blobs(2, 3, 5, 3.0, seed=0)
        b = synth_blobs(3, 3, 5, 3.0, seed=0)
        with pytest.raises(ValueError, match="train/val disagree"):
            hypercleaning_problem(a, b)


class TestDatasetValidation:
    def test_label_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2,
                    np.ones(2, dtype=bool))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0]), 2, np.ones(2, dtype=bool))

    def test_classifier_accuracy_handedness(self):
        # weights that score the true class highest on every sample
        feats = np.array([[5.0, 0.0], [-5.0, 0.0]])
        ds = Dataset(feats, np.array([0, 1]), 2, np.ones(2, dtype=bool))
        w = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]).ravel()
        assert classifier_accuracy(ds, w) == 1.0
