"""Feature selection, Gaussian-process narcolepsy classifier, HLA gating, ROC.

The classifier is a binary GP with a squared-exponential kernel and constant
mean, fit by Laplace approximation with a probit likelihood in one Newton loop
(one likelihood evaluation per mode; a failed factorisation in it is
``CholeskyFailure``); predictive scores are mapped to [-1, 1], and the ROC
counts each cut by binary search.  Recursive feature elimination ranks
features by the absolute weights of an L2-regularized (ridge) linear
classifier, with per-fold selection frequencies thresholded at 0.40.  Each
fold inverts the ridge matrix once; removing a column is a rank-one downdate
of that inverse and of the weights, exactly the refit on the remaining
columns.  The column removed is the highest-indexed one whose |weight| is
within ``RFE_TIE_RTOL * max|weight|`` of the smallest, so exact ties
(duplicate columns) and rounding-level ones are broken the same way by any
solver.

The factorisations, solves and ``ndtr`` are scipy's own compiled kernels,
called as scipy 1.17.1 calls them and loaded from their files at a first
fit or prediction, and the fit's one ``ndtri`` is a bitwise replay of
scipy's (``linalg``), so fitting and scoring give scipy's results bit for bit
without ``import scipy.linalg`` or ``scipy.special``.  ``rfe``, ``gp_fit`` and
``gp_predict`` run with every loaded OpenBLAS at one thread
(``pool.one_blas_thread``), whatever the host program set.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CholeskyFailure,
    CorruptHeader,
    DimensionMismatch,
    SingleClass,
    TooFewSamples,
)
from .pool import one_blas_thread
from .store import bundle, check_shapes, is_number, read_bundle, write_files

RFE_CUTOFF = 0.40
RFE_TARGET_COUNT = 38
THRESHOLD_NO_HLA = -0.03
THRESHOLD_WITH_HLA = -0.53

LENGTH_SCALE_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
SIGNAL_STD_GRID = (0.5, 1.0, 2.0)
NOISE_GRID = (1e-4, 1e-2, 1e-1)
MAX_LAPLACE_ITERS = 100
RIDGE_LAMBDA = 1e-2
RFE_TIE_RTOL = 1e-7
FAR_VARIANCE = 0.99         # of the prior's latent variance: no training night near
GP_FILE = "gp.gp.json"      # the GP bundle's name in its model directory
SELECTION_FILE = "selection.json"   # its selected feature columns, beside it


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray
    keep: np.ndarray      # constant columns are dropped

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        keep = std > 1e-12
        std = np.where(keep, std, 1.0)
        return cls(mean=mean, std=std, keep=keep)

    def apply(self, X: np.ndarray) -> np.ndarray:
        Z = (np.atleast_2d(X) - self.mean) / self.std
        return Z[:, self.keep]


@dataclass
class SelectionResult:
    frequency: np.ndarray      # per-feature selection frequency in [0,1]
    selected: np.ndarray       # indices with frequency >= RFE_CUTOFF
    target_count: int


def _one_blas_thread(fn):
    """``fn`` run with scipy's kernels loaded (``linalg``), and with them
    scipy's OpenBLAS, then every loaded OpenBLAS held at one thread
    (``pool.one_blas_thread``)."""
    @functools.wraps(fn)
    def held(*args, **kwargs):
        from . import linalg  # noqa: F401  loaded before BLAS is held

        with one_blas_thread():
            return fn(*args, **kwargs)
    return held


def _rfe_survivors(Z: np.ndarray, y: np.ndarray, target: int) -> np.ndarray:
    """Mask of the ``target`` columns of Z left after eliminating the
    smallest-|weight| column of the ridge fit one at a time.

    With P = (Z'Z + lam I)^-1 and w = P Z'y, dropping column j leaves
    w - P[:, j] w[j] / P[j, j] and P - P[:, j] P[j, :] / P[j, j] on the
    remaining columns: O(d^2) per removal instead of a fresh solve.  P is
    symmetric and only its lower triangle is kept up to date.
    """
    from . import linalg

    d = Z.shape[1]
    alive = np.ones(d, dtype=bool)
    if d <= target:
        return alive
    P, _ = linalg.dpotri(linalg.cholesky(Z.T @ Z + RIDGE_LAMBDA * np.eye(d)), lower=1)
    w = linalg.dsymv(1.0, P, Z.T @ y, lower=1)
    for _ in range(d - target):
        live = np.flatnonzero(alive)
        mag = np.abs(w[live])
        j = live[np.flatnonzero(mag <= mag.min() + RFE_TIE_RTOL * mag.max())[-1]]
        col = np.concatenate((P[j, :j], P[j:, j]))
        w -= col * (w[j] / col[j])
        P = linalg.dsyr(-1.0 / col[j], col, lower=1, a=P, overwrite_a=True)
        alive[j] = False
    return alive


@_one_blas_thread
def rfe(X: np.ndarray, y: np.ndarray, folds: int = 5, seed: int = 0,
        target_count: int = RFE_TARGET_COUNT) -> SelectionResult:
    """Recursive feature elimination under cross-validation.

    Per fold, the lowest |weight| feature of the ridge classifier on the
    remaining features is removed until ``target_count`` remain; a feature's
    frequency is the fraction of folds that kept it.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if n < 20:
        raise TooFewSamples(f"need >= 20 samples, got {n}")
    if len(np.unique(y)) < 2:
        raise SingleClass("both classes required")
    target = min(target_count, d)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_ids = np.array_split(order, folds)
    counts = np.zeros(d)
    for held in fold_ids:
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        if len(np.unique(y[mask])) < 2:
            continue
        std = Standardizer.fit(X[mask])
        active = np.flatnonzero(std.keep)
        active = active[_rfe_survivors(std.apply(X[mask]), y[mask], target)]
        counts[active] += 1
    freq = counts / folds
    selected = np.flatnonzero(freq >= RFE_CUTOFF)
    return SelectionResult(frequency=freq, selected=selected, target_count=target)


# what a saved GP holds: arrays by their sizes (n points, d features, k kept)
_GP_ARRAYS = {"grad_ll": ("n",), "W_sqrt": ("n",), "L": ("n", "n"), "X": ("n", "k"),
              "std_mean": ("d",), "std_std": ("d",), "std_keep": ("d",)}
_GP_SCALARS = ("length_scale", "signal_std", "noise", "mean_const", "log_marginal")


@dataclass
class GPModel:
    X: np.ndarray              # standardized training inputs
    length_scale: float
    signal_std: float
    noise: float               # jitter variance on the kernel diagonal
    mean_const: float          # constant latent mean
    standardizer: Standardizer
    grad_ll: np.ndarray        # d log p(y|f) at mode
    W_sqrt: np.ndarray
    L: np.ndarray              # chol(I + W^1/2 K W^1/2)
    log_marginal: float

    def files(self, directory: str) -> dict:
        """The files of the GP's bundle in ``directory``, for ``write_files``."""
        mats = {"X": self.X, "grad_ll": self.grad_ll, "W_sqrt": self.W_sqrt,
                "L": self.L, "std_mean": self.standardizer.mean,
                "std_std": self.standardizer.std,
                "std_keep": self.standardizer.keep.astype(float)}
        return bundle(os.path.join(directory, GP_FILE), mats,
                      {k: getattr(self, k) for k in _GP_SCALARS})

    def save(self, directory: str) -> str:
        return write_files(self.files(directory))

    @classmethod
    def load(cls, path: str) -> "GPModel":
        """The GP ``save`` wrote.  ``CorruptHeader`` naming the array or value
        unless every array ``gp_predict`` reads is there with consistent
        sizes (n training points, d features, X keeping the columns std_keep
        marks), std_std positive in every kept column, every scalar a finite
        number, ``length_scale`` and ``signal_std`` positive with a positive
        finite square and ``noise`` >= 0 (the ranges ``gp_fit``'s grids give);
        other arrays (the ``y`` and ``f_hat`` of older bundles) are ignored."""
        mats, meta = read_bundle(path)
        sizes = check_shapes(path, mats, _GP_ARRAYS, others=True)
        keep = mats["std_keep"] > 0.5
        if keep.sum() != sizes["k"]:
            raise CorruptHeader(f"{path}: array 'X' has {sizes['k']} columns, "
                                f"std_keep keeps {keep.sum()}")
        if not (mats["std_std"][keep] > 0).all():
            raise CorruptHeader(f"{path}: array 'std_std' must be positive in every "
                                f"column std_keep keeps")
        for key in _GP_SCALARS:
            if not (is_number(meta.get(key)) and math.isfinite(meta[key])):
                raise CorruptHeader(f"{path}: {key} must be a finite number")
        scalars = {key: float(meta[key]) for key in _GP_SCALARS}
        for key in ("length_scale", "signal_std"):      # _kernel squares them
            if not (scalars[key] > 0 and 0 < scalars[key] * scalars[key] < math.inf):
                raise CorruptHeader(f"{path}: {key} must be > 0 with a positive finite "
                                    f"square, got {scalars[key]!r}")
        if scalars["noise"] < 0:
            raise CorruptHeader(f"{path}: noise must be >= 0, got {scalars['noise']!r}")
        return cls(X=mats["X"], standardizer=Standardizer(
                       mean=mats["std_mean"], std=mats["std_std"], keep=keep),
                   grad_ll=mats["grad_ll"], W_sqrt=mats["W_sqrt"], L=mats["L"], **scalars)


def _sqdist(Xa, Xb):
    """Squared Euclidean distances between rows in float64, clipped at 0 against rounding."""
    return np.maximum(np.sum(np.square(Xa, dtype=float), axis=1)[:, None]
                      + np.sum(np.square(Xb, dtype=float), axis=1)[None, :]
                      - 2.0 * Xa @ Xb.T, 0.0)


def _kernel(Xa, Xb, ell, sf):
    return sf ** 2 * np.exp(-_sqdist(Xa, Xb) / (2.0 * ell ** 2))


def _probit(y, f):
    """log p(y|f) summed over the points, its gradient and W = -d2 log p/df2
    (floored at 1e-12), from one evaluation of the normal CDF."""
    from . import linalg

    z = y * f
    phi = np.exp(-0.5 * z ** 2) / np.sqrt(2 * np.pi)
    Phi = np.clip(linalg.ndtr(z), 1e-300, None)
    r = phi / Phi
    return np.log(Phi).sum(), y * r, np.maximum(r ** 2 + z * r, 1e-12)


def _laplace_mode(K, y, mean):
    """Newton iteration for the latent posterior mode (RW alg. 3.1 with a
    nonzero constant mean); returns mode, grad, W_sqrt, chol, log marginal.
    Each pass factors B at the current mode, then stops or takes one step."""
    from . import linalg

    n = len(y)
    f = np.full(n, mean, dtype=float)
    obj = -np.inf
    for step in range(MAX_LAPLACE_ITERS + 1):
        ll, grad, W = _probit(y, f)
        sw = np.sqrt(W)
        Lc = linalg.cholesky(np.eye(n) + sw[:, None] * K * sw[None, :])
        if step:
            # f = mean + K a, so a'(f - mean) is (f - mean)' K^-1 (f - mean)
            # (RW alg. 3.1 line 10)
            prev, obj = obj, ll - 0.5 * float(a @ (f - mean))
            if abs(obj - prev) < 1e-9 or step == MAX_LAPLACE_ITERS:
                break
        b = W * (f - mean) + grad
        a = b - sw * linalg.cho_solve(Lc, sw * (K @ b))
        f = mean + K @ a
    return f, grad, sw, Lc, obj - float(np.log(np.diag(Lc)).sum())


def _median_heuristic(X):
    n = len(X)
    if n > 200:
        X = X[:: max(1, n // 200)]
    vals = np.sqrt(_sqdist(X, X)[np.triu_indices(len(X), k=1)])
    med = float(np.median(vals)) if len(vals) else 1.0
    return med if med > 0 else 1.0


@_one_blas_thread
def gp_fit(X: np.ndarray, y: np.ndarray) -> GPModel:
    """Fit the binary GP by Laplace approximation with a log-grid search
    over (length scale, signal std, jitter) maximizing the approximate
    marginal likelihood.  Labels must be in {-1, +1}."""
    from . import linalg

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise DimensionMismatch("X must be (N, d) with d >= 1")
    if len(X) < 10:
        raise TooFewSamples("need N >= 10")
    if not set(np.unique(y)) <= {-1.0, 1.0} or len(np.unique(y)) < 2:
        raise SingleClass("labels must contain both -1 and +1")
    std = Standardizer.fit(X)
    Z = std.apply(X)
    base_ell = _median_heuristic(Z)
    frac_pos = float(np.clip((y > 0).mean(), 1e-3, 1 - 1e-3))
    mean_const = linalg.ndtri(frac_pos)
    # _kernel(Z, Z, ell, sf) + noise * I, with the distances and each length
    # scale's exponential computed once for the grid
    D = _sqdist(Z, Z)
    eye = np.eye(len(Z))
    best = None
    for mult in LENGTH_SCALE_GRID:
        ell = mult * base_ell
        E = np.exp(-D / (2.0 * ell ** 2))
        for sf in SIGNAL_STD_GRID:
            for noise in NOISE_GRID:
                K = sf ** 2 * E + noise * eye
                try:
                    _, grad, sw, Lc, lml = _laplace_mode(K, y, mean_const)
                except CholeskyFailure:
                    continue
                if best is None or lml > best[0] + 1e-12:
                    best = (lml, ell, sf, noise, grad, sw, Lc)
    if best is None:
        raise CholeskyFailure("no hyperparameter setting produced a PD kernel")
    lml, ell, sf, noise, grad, sw, Lc = best
    return GPModel(X=Z, length_scale=ell, signal_std=sf, noise=noise,
                   mean_const=mean_const, standardizer=std,
                   grad_ll=grad, W_sqrt=sw, L=Lc, log_marginal=lml)


@_one_blas_thread
def gp_predict(model: GPModel, x: np.ndarray):
    """(scores in [-1, 1], latent predictive variances), one of each per row
    of ``x``."""
    from . import linalg

    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != len(model.standardizer.mean):
        raise DimensionMismatch(
            f"expected {len(model.standardizer.mean)} features, got {x.shape[1]}")
    Zs = model.standardizer.apply(x)
    Ks = _kernel(Zs, model.X, model.length_scale, model.signal_std)
    mu = model.mean_const + Ks @ model.grad_ll
    v = linalg.solve_lower(model.L, model.W_sqrt[:, None] * Ks.T)
    kss = model.signal_std ** 2 + model.noise
    var = np.maximum(kss - np.sum(v ** 2, axis=0), 1e-12)
    return 2.0 * linalg.ndtr(mu / np.sqrt(1.0 + var)) - 1.0, var


def far_from_data(model: GPModel, variance: float) -> bool:
    """Whether a latent predictive variance from ``gp_predict`` is at least
    ``FAR_VARIANCE`` of the prior's, ``signal_std**2 + noise``: no training
    night is near its vector, and its score is about the prior mean's."""
    return bool(variance >= FAR_VARIANCE * (model.signal_std ** 2 + model.noise))


@dataclass
class DiagnosisReport:
    score: float
    variance: float
    label: bool
    threshold: float
    hla_used: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)


def ensemble_diagnose(scores, hla=None) -> DiagnosisReport:
    """Mean and population variance of per-sleep-model GP scores, labelled
    positive at >= -0.03; with a known HLA-DQB1*06:02 status the threshold
    is -0.53 and a negative status is absorbing (always a negative label)."""
    s = np.asarray(list(scores), dtype=float)
    if s.size < 1:
        raise TooFewSamples("need at least one score")
    mean = float(s.mean())
    if hla is None:
        threshold, label = THRESHOLD_NO_HLA, mean >= THRESHOLD_NO_HLA
    else:
        threshold, label = THRESHOLD_WITH_HLA, bool(hla) and mean >= THRESHOLD_WITH_HLA
    return DiagnosisReport(score=mean, variance=float(s.var()), label=label,
                           threshold=threshold, hla_used=hla is not None)


def _wilson(k: int, n: int, z: float = 1.959963984540054):
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1 + z ** 2 / n
    center = (p + z ** 2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z ** 2 / (4 * n ** 2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def evaluate(scores, truth, threshold: float = THRESHOLD_NO_HLA) -> dict:
    """ROC sweep plus sensitivity/specificity (with Wilson 95% CIs) at the
    chosen threshold.  ``truth`` holds booleans (True = positive class)."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth, dtype=bool)
    if t.all() or not t.any():
        raise SingleClass("both classes required")
    neg, pos = np.sort(s[~t]), np.sort(s[t])
    n_neg, n_pos = len(neg), len(pos)
    cuts = np.concatenate([[np.inf], np.unique(s)[::-1], [-np.inf]])
    # a class's scores at or above a cut: its count less those sorted below it
    fp, tp = n_neg - np.searchsorted(neg, cuts), n_pos - np.searchsorted(pos, cuts)
    points = np.column_stack((fp / n_neg, tp / n_pos))  # (1-specificity, sensitivity)
    auc = float(np.trapezoid(points[:, 1], points[:, 0]))
    tp = n_pos - int(np.searchsorted(pos, threshold))
    tn = int(np.searchsorted(neg, threshold))
    return {
        "sensitivity": tp / n_pos, "specificity": tn / n_neg,
        "sensitivity_ci": _wilson(tp, n_pos),
        "specificity_ci": _wilson(tn, n_neg),
        "roc": points, "auc": auc, "threshold": threshold,
    }
