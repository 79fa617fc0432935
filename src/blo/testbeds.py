"""Problem families with known structure, plus small data utilities.

Three testbeds:

* ``make_quadratic``  - strongly convex lower level with a full closed-form
  oracle; the classic setting where one-step alternating schemes converge
  to a provably non-stationary point.
* ``make_multimin``   - a 1x2 instance whose lower level has a continuum of
  minimizers (singular Hessian) but still a closed-form oracle under the
  optimistic selection.
* ``hypercleaning_problem`` - softmax-regression data hyper-cleaning: one
  trainable weight per training sample, validation loss on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Array, LinearOperator, diagonal_operator, identity_operator
from .metrics import AnalyticOracle, quadratic_oracle
from .problem import BilevelProblem


# ---------------------------------------------------------------------------
# quadratic family


@dataclass(frozen=True)
class QuadraticBilevel:
    a_op: LinearOperator
    z0: Array
    problem: BilevelProblem
    oracle: AnalyticOracle


def make_quadratic(n: int, spectrum="identity", z0="ones",
                   seed: int = 0) -> QuadraticBilevel:
    """Build F = 0.5|x-z0|^2 + 0.5<y,Ay>, f = 0.5<y,Ay> - <x,y>.

    ``spectrum`` is ``"identity"`` or a pair (lmin, lmax) from which n
    eigenvalues are drawn log-uniformly (seeded); A is diagonal in that
    basis.  ``z0`` is ``"ones"`` or ``"random"`` (seeded standard normal).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spectrum == "identity":
        a_op = identity_operator(n)
    else:
        lmin, lmax = float(spectrum[0]), float(spectrum[1])
        if not 0.0 < lmin <= lmax:
            raise ValueError(f"spectrum bounds must satisfy 0 < lmin <= lmax, got {spectrum}")
        rng = np.random.default_rng(seed)
        eigs = np.exp(rng.uniform(np.log(lmin), np.log(lmax), size=n))
        a_op = diagonal_operator(eigs)
    if isinstance(z0, str):
        if z0 == "ones":
            z_vec = np.ones(n)
        elif z0 == "random":
            z_vec = np.random.default_rng([seed, 1]).standard_normal(n)
        else:
            raise ValueError(f"z0 must be 'ones', 'random', or an array, got {z0!r}")
    else:
        z_vec = np.asarray(z0, dtype=float)
        if z_vec.shape != (n,):
            raise ValueError(f"z0 has shape {z_vec.shape}, expected ({n},)")

    a = a_op.apply
    problem = BilevelProblem(
        n=n,
        m=n,
        ul_value=lambda x, y: float(0.5 * ((x - z_vec) @ (x - z_vec)) + 0.5 * (y @ a(y))),
        ll_value=lambda x, y: float(0.5 * (y @ a(y)) - x @ y),
        grad_x_ul=lambda x, y: x - z_vec,
        grad_y_ul=lambda x, y: a(y),
        grad_y_ll=lambda x, y: a(y) - x,
        hvp_yy_ll=lambda x, y, u: a(u),
        jvp_xy_ll=lambda x, y, u: -np.asarray(u, dtype=float),
        hvp_yy_ul=lambda x, y, u: a(u),
        jvp_xy_ul=lambda x, y, u: np.zeros(n),
    )
    return QuadraticBilevel(a_op, z_vec, problem, quadratic_oracle(a_op, z_vec))


# ---------------------------------------------------------------------------
# multi-minimizer family


@dataclass(frozen=True)
class MultiMinimizerBilevel:
    problem: BilevelProblem
    oracle: AnalyticOracle


def make_multimin() -> MultiMinimizerBilevel:
    """A fixed instance whose lower level is flat along y2.

    x in R, y in R^2 with f = 0.5*y1^2 - x*y1 (minimizer set
    {(x, t) : t in R}, Hessian diag(1, 0)) and strongly convex
    F = 0.5*(y1-1)^2 + 0.5*(y2-x)^2.  Under the optimistic selection
    phi(x) = 0.5*(x-1)^2, so x* = 1 and y* = (1, 1).  Implicit methods
    that invert the lower Hessian break here by construction; the
    aggregated oracle (y*_mu, v*_mu) is closed-form for mu in (0, 1/2].
    """
    problem = BilevelProblem(
        n=1,
        m=2,
        ul_value=lambda x, y: float(0.5 * (y[0] - 1.0) ** 2 + 0.5 * (y[1] - x[0]) ** 2),
        ll_value=lambda x, y: float(0.5 * y[0] ** 2 - x[0] * y[0]),
        grad_x_ul=lambda x, y: np.array([x[0] - y[1]]),
        grad_y_ul=lambda x, y: np.array([y[0] - 1.0, y[1] - x[0]]),
        grad_y_ll=lambda x, y: np.array([y[0] - x[0], 0.0]),
        hvp_yy_ll=lambda x, y, u: np.array([u[0], 0.0]),
        jvp_xy_ll=lambda x, y, u: np.array([-u[0]]),
        hvp_yy_ul=lambda x, y, u: np.array(u, dtype=float),
        jvp_xy_ul=lambda x, y, u: np.array([-u[1]]),
    )

    def y_star_mu(x: Array, mu: float, lam: float) -> Array:
        s = mu * lam + 1.0 - mu
        return np.array([(mu * lam + (1.0 - mu) * x[0]) / s, x[0]])

    def v_star_mu(x: Array, mu: float, lam: float) -> Array:
        s = mu * lam + 1.0 - mu
        return np.array([(1.0 - mu) * (x[0] - 1.0) / (s * s), 0.0])

    def grad_phi_mu(x: Array, mu: float, lam: float) -> Array:
        s = mu * lam + 1.0 - mu
        return np.array([(1.0 - mu) ** 2 * (x[0] - 1.0) / (s * s)])

    oracle = AnalyticOracle(
        x_star=np.array([1.0]),
        y_star=lambda x: np.array([x[0], x[0]]),
        phi=lambda x: float(0.5 * (x[0] - 1.0) ** 2),
        grad_phi=lambda x: np.array([x[0] - 1.0]),
        y_star_mu=y_star_mu,
        v_star_mu=v_star_mu,
        grad_phi_mu=grad_phi_mu,
    )
    return MultiMinimizerBilevel(problem, oracle)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class Dataset:
    """Features (N, d) float64, integer labels (N,), and a clean mask."""

    features: Array
    labels: Array
    n_classes: int
    clean_mask: Array

    def __post_init__(self):
        n = self.features.shape[0]
        if n < 1 or self.features.ndim != 2:
            raise ValueError(f"features must be (N, d) with N >= 1, got {self.features.shape}")
        if self.labels.shape != (n,) or self.clean_mask.shape != (n,):
            raise ValueError("labels/clean_mask length does not match features")
        if self.n_classes < 2:
            raise ValueError(f"need at least two classes, got {self.n_classes}")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("labels out of range for n_classes")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def synth_blobs(classes: int, dim: int, per_class: int, separation: float,
                seed: int) -> Dataset:
    """Gaussian blobs: one unit-noise cluster per class, means at
    ``separation`` times seeded random unit directions."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((classes, dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    feats = np.vstack([means[c] + rng.standard_normal((per_class, dim))
                       for c in range(classes)])
    labels = np.repeat(np.arange(classes), per_class)
    return Dataset(feats, labels.astype(np.int64), classes,
                   np.ones(classes * per_class, dtype=bool))


def split_dataset(ds: Dataset, n_first: int, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle (seeded) and split into the first ``n_first`` and the rest."""
    if not 0 < n_first < ds.n:
        raise ValueError(f"n_first must be in (0, {ds.n}), got {n_first}")
    perm = np.random.default_rng(seed).permutation(ds.n)
    def take(idx):
        return Dataset(ds.features[idx], ds.labels[idx], ds.n_classes, ds.clean_mask[idx])
    return take(perm[:n_first]), take(perm[n_first:])


def corrupt_labels(ds: Dataset, rho: float, seed: int) -> Dataset:
    """Flip floor(rho*N) uniformly chosen labels to a uniformly chosen
    *different* class; clean_mask is false exactly there.  Features are
    shared bit-exactly with the input."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    rng = np.random.default_rng(seed)
    n_flip = int(np.floor(rho * ds.n))
    labels = ds.labels.copy()
    mask = ds.clean_mask.copy()
    idx = rng.choice(ds.n, size=n_flip, replace=False)
    if n_flip:
        # shift by 1..C-1 mod C: uniform over the other classes
        shift = rng.integers(1, ds.n_classes, size=n_flip)
        labels[idx] = (labels[idx] + shift) % ds.n_classes
        mask[idx] = False
    return Dataset(ds.features, labels, ds.n_classes, mask)


def f1_clean(x: Array, clean_mask: Array, threshold: float = 0.5) -> float:
    """F1 of 'predicted clean' (sigmoid(x_i) > threshold) against the mask.

    Returns 0.0 when positives exist but none are predicted (or none hit).
    """
    pred = _sigmoid(np.asarray(x, dtype=float)) > threshold
    clean = np.asarray(clean_mask, dtype=bool)
    tp = int(np.sum(pred & clean))
    if tp == 0:
        return 0.0
    precision = tp / int(np.sum(pred))
    recall = tp / int(np.sum(clean))
    return float(2.0 * precision * recall / (precision + recall))


# ---------------------------------------------------------------------------
# hyper-cleaning


def _sigmoid(z: Array) -> Array:
    # min(z, -z) is -|z|, but keeps a nan's sign bit, which -abs(z) flips
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _augment(features: Array) -> Array:
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _class_sum(z: Array) -> Array:
    """``z.T.sum(axis=1)`` of a class-major (C, N) array, bit for bit, in row adds:
    NumPy sums a short row from 0.0, left to right below 8 entries, else in eight
    running sums over blocks of 8, paired, then the tail left to right.  Which NaN
    comes out where two different NaNs meet is not replayed."""
    c = len(z)
    if c > 128:  # NumPy halves a longer row first
        return np.ascontiguousarray(z.T).sum(axis=1)
    if c < 8:
        s, tail = z[0] + 0.0, z[1:]
    else:
        r = z[:8]
        for i in range(8, c - c % 8, 8):
            r = r + z[i:i + 8]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])) + 0.0
        tail = z[c - c % 8:]
    for row in tail:
        s += row
    return s


def _softmax(z: Array) -> Array:
    """Row softmax of (N, C) logits, as the view of a class-major array."""
    e = z.T.copy()
    e -= e.max(axis=0)
    np.exp(e, out=e)
    e /= _class_sum(e)
    return e.T


def _ce_losses(w_mat: Array, a: Array, labels: Array) -> Array:
    """Per-sample softmax cross-entropy for logits a @ w_mat.T."""
    z = (a @ w_mat.T).T.copy()
    zmax = z.max(axis=0)
    lse = zmax + np.log(_class_sum(np.exp(z - zmax)))
    return lse - z[labels, np.arange(a.shape[0])]


def _times(r: Array, a: Array) -> Array:
    # r.T @ a for class-major r, with the row-major layout its bits were made with
    return np.ascontiguousarray(r.T).T @ a


def classifier_accuracy(ds: Dataset, w: Array) -> float:
    """Top-1 accuracy of flattened weights w (C x (d+1)) on a dataset."""
    w_mat = np.asarray(w, dtype=float).reshape(ds.n_classes, ds.dim + 1)
    preds = np.argmax(_augment(ds.features) @ w_mat.T, axis=1)
    return float(np.mean(preds == ds.labels))


def _content_cache(fn, size: int):
    """``fn(a)``, read-only, for the last ``size`` contents of ``a`` (FIFO).

    Keys are compared, not hashed: hashing the 8 KB key of a 1000-sample x
    took 2.6 us a call on a 2-CPU x86_64 Xeon, comparing it 0.15 us.
    """
    entries: list[tuple[bytes, tuple[Array, ...]]] = []

    def cached(a):
        a = np.asarray(a, dtype=float)
        key = a.tobytes()
        for k, value in entries:
            if k == key:
                return value
        if len(entries) == size:
            del entries[0]
        value = fn(a)
        for arr in value:
            arr.setflags(write=False)
        entries.append((key, value))
        return value
    return cached


def _trail_cache(fn):
    """``fn(a)``, read-only, for the contents of ``a`` since the one before the
    last run of misses.  Lookups see the top two; one that finds the third pops
    the top, so a walk back over the run finds each of its points in turn.

    A ``bagdc`` step asks at y, y+, y: its runs of misses are one call long, so
    it keeps two values.  An ``rhg`` forward pass is a run of T misses, and its
    reverse pass asks at the same points newest first: one value per point.
    """
    trail: list[tuple[bytes, Array]] = []  # newest last
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
        if not missed:  # a new run starts from the last value
            del trail[:-1]
        value = fn(a)
        value.setflags(write=False)
        trail.append((key, value))
        missed = True
        return value
    return cached


@dataclass(frozen=True)
class HyperCleaningProblem:
    train: Dataset
    val: Dataset
    reg_c: float
    problem: BilevelProblem


def hypercleaning_problem(train: Dataset, val: Dataset,
                          c: float = 1e-3) -> HyperCleaningProblem:
    """Per-sample reweighting of a ridge-regularized softmax classifier.

    Lower level over flattened weights w (C x (d+1), bias column last):

        f(x, w) = mean_i sigmoid(x_i) * ce_i(w) + c/2 |w|^2

    Upper level F(x, w) = mean validation cross-entropy, independent of x.
    The ridge makes f strongly convex in w, so the single-level residual
    is well posed; upper-level curvature products are not provided.

    The callbacks share three caches: the train softmax of the last two w and
    of the points an ``rhg`` forward pass made (see ``_trail_cache``),
    sigmoid(x) of the last x, and the direction product a_tr @ U.T of the last u
    (an ``rhg`` reverse step asks for both products at one u).  Softmax, label
    residual and direction product are kept class-major, (C, N), so the
    per-sample sums over classes run as whole-row adds (``_class_sum``); the
    BLAS products see the row-major layouts their bits were made with.  None
    is locked: call a problem from one thread at a time.
    """
    if val.n_classes != train.n_classes or val.dim != train.dim:
        raise ValueError("train/val disagree on feature dim or class count")
    if c <= 0.0:
        raise ValueError(f"ridge weight c must be positive, got {c}")

    a_tr = _augment(train.features)
    a_val = _augment(val.features)
    y_tr = train.labels
    y_val = val.labels
    n_tr = train.n
    n_val = val.n
    n_cls = train.n_classes
    p = train.dim + 1
    onehot_tr = (np.arange(n_cls)[:, None] == y_tr).astype(float)  # class-major
    onehot_val = (np.arange(n_cls)[:, None] == y_val).astype(float)

    def unpack(w):
        return np.asarray(w, dtype=float).reshape(n_cls, p)

    # class-major (C, N) train softmax; (sigmoid, sigmoid')
    train_softmax = _trail_cache(lambda w: _softmax(a_tr @ unpack(w).T).T)
    sample_weights = _content_cache(lambda x: (s := _sigmoid(x), s * (1.0 - s)), 1)
    # (a_tr @ U.T).T: rhg asks for jvp and hvp at one u, bagdc for hvp at the
    # v its last jvp was asked at
    direction = _content_cache(
        lambda u: (np.ascontiguousarray((a_tr @ unpack(u).T).T),), 1)

    def ll_value(x, w):
        ce = _ce_losses(unpack(w), a_tr, y_tr)
        return float(sample_weights(x)[0] @ ce / n_tr + 0.5 * c * (w @ w))

    def ul_value(x, w):
        return float(np.mean(_ce_losses(unpack(w), a_val, y_val)))

    def grad_y_ll(x, w):
        r = train_softmax(w) - onehot_tr
        r *= sample_weights(x)[0]
        return (_times(r, a_tr) / n_tr).ravel() + c * w

    def grad_y_ul(x, w):
        r = _softmax(a_val @ unpack(w).T).T - onehot_val
        return (_times(r, a_val) / n_val).ravel()

    def hvp_yy_ll(x, w, u):
        pm = train_softmax(w)
        t = pm * direction(u)[0]
        t -= pm * _class_sum(t)
        t *= sample_weights(x)[0]
        return (_times(t, a_tr) / n_tr).ravel() + c * np.asarray(u, dtype=float)

    def jvp_xy_ll(x, w, u):
        r = train_softmax(w) - onehot_tr
        r *= direction(u)[0]
        return sample_weights(x)[1] * _class_sum(r) / n_tr

    problem = BilevelProblem(
        n=n_tr,
        m=n_cls * p,
        ul_value=ul_value,
        ll_value=ll_value,
        grad_x_ul=lambda x, w: np.zeros(n_tr),
        grad_y_ul=grad_y_ul,
        grad_y_ll=grad_y_ll,
        hvp_yy_ll=hvp_yy_ll,
        jvp_xy_ll=jvp_xy_ll,
    )
    return HyperCleaningProblem(train, val, c, problem)
