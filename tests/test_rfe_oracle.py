"""``diagnosis.rfe`` (one inverse per fold, rank-one downdates) against the
refit-per-removal elimination it replaced, kept here verbatim as the
reference.

The reference takes the argmin rule as a parameter: the tie rule of
``diagnosis`` (highest index among |w| within ``RFE_TIE_RTOL * max|w|`` of
the smallest), or a plain ``np.argmin``.  Seeded cases cover n < d and
n > d, duplicate, near-collinear and constant columns, folds whose training
part has one class, and ``target_count >= d``.  Frequencies and selections
must be bitwise equal: each fold keeps the same columns.
"""

import numpy as np
import pytest

from hypnopipe import diagnosis as dg
from hypnopipe.diagnosis import (RFE_CUTOFF, RFE_TARGET_COUNT, RIDGE_LAMBDA,
                                 SelectionResult, Standardizer)
from hypnopipe.errors import SingleClass, TooFewSamples


def tie_rule(w):
    mag = np.abs(w)
    return int(np.flatnonzero(mag <= mag.min() + dg.RFE_TIE_RTOL * mag.max())[-1])


def plain_argmin(w):
    return int(np.argmin(np.abs(w)))


# ----------------------------------------------- the refit loop, kept verbatim

def _ridge_weights(X: np.ndarray, y: np.ndarray, lam: float = RIDGE_LAMBDA):
    d = X.shape[1]
    A = X.T @ X + lam * np.eye(d)
    return np.linalg.solve(A, X.T @ y)


def rfe_refit(X: np.ndarray, y: np.ndarray, folds: int = 5, seed: int = 0,
              target_count: int = RFE_TARGET_COUNT, pick=tie_rule) -> SelectionResult:
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
        Z = std.apply(X[mask])
        active = np.flatnonzero(std.keep)
        while len(active) > target:
            w = _ridge_weights(Z, y[mask])
            drop = pick(w)
            active = np.delete(active, drop)
            Z = np.delete(Z, drop, axis=1)
        counts[active] += 1
    freq = counts / folds
    selected = np.flatnonzero(freq >= RFE_CUTOFF)
    return SelectionResult(frequency=freq, selected=selected, target_count=target)


# ----------------------------------------------------------------- the cases

def informative(rng, n, d, k=3, shift=1.5):
    y = np.where(rng.random(n) < 0.45, 1.0, 0.0)
    y[:2] = (0.0, 1.0)
    X = rng.standard_normal((n, d))
    X[:, rng.choice(d, k, replace=False)] += shift * (2 * y[:, None] - 1)
    return X, y


def make_case(kind, seed):
    """(X, y, rfe keyword arguments) for one seeded case."""
    rng = np.random.default_rng([seed, 7])
    n, d = [(30, 60), (60, 25), (40, 40), (120, 80)][seed % 4]
    X, y = informative(rng, n, d)
    kw = {"target_count": int(rng.integers(3, max(4, d // 3))),
          "seed": int(rng.integers(1000)), "folds": int(rng.integers(3, 7))}
    if kind == "duplicate":
        src = rng.choice(d, 4, replace=False)
        dst = rng.choice(np.setdiff1d(np.arange(d), src), 4, replace=False)
        X[:, dst] = X[:, src]
    elif kind == "collinear":
        src = rng.choice(d, 4, replace=False)
        dst = rng.choice(np.setdiff1d(np.arange(d), src), 4, replace=False)
        X[:, dst] = 2.0 * X[:, src] + 1e-6 * rng.standard_normal((n, 4))
    elif kind == "constant":
        X[:, rng.choice(d, 5, replace=False)] = 3.0
    elif kind == "one_class_fold":
        kw["folds"] = 5
        held = np.array_split(np.random.default_rng(kw["seed"]).permutation(n), 5)
        y[:] = 0.0
        y[held[int(rng.integers(5))]] = 1.0      # that fold trains on one class
    elif kind == "target_ge_d":
        X[:, 0] = 1.0
        kw["target_count"] = d - int(rng.integers(0, 2))
    return X, y, kw


KINDS = ("plain", "duplicate", "collinear", "constant", "one_class_fold", "target_ge_d")
CASES = [(k, s) for k in KINDS for s in range(10)]
TIE_FREE = [(k, s) for k, s in CASES if k in ("plain", "constant", "target_ge_d")]


def assert_same(got, ref):
    assert got.frequency.tobytes() == ref.frequency.tobytes()
    assert got.selected.tobytes() == ref.selected.tobytes()
    assert got.target_count == ref.target_count


@pytest.mark.parametrize("kind,seed", CASES)
def test_rfe_matches_refit_with_tie_rule(kind, seed):
    X, y, kw = make_case(kind, seed)
    assert_same(dg.rfe(X, y, **kw), rfe_refit(X, y, **kw))


@pytest.mark.parametrize("kind,seed", TIE_FREE)
def test_rfe_matches_refit_with_plain_argmin_without_ties(kind, seed):
    X, y, kw = make_case(kind, seed)
    assert_same(dg.rfe(X, y, **kw), rfe_refit(X, y, pick=plain_argmin, **kw))


def test_cases_cover_every_property():
    shapes = {make_case("plain", s)[0].shape for s in range(4)}
    assert any(n < d for n, d in shapes) and any(n > d for n, d in shapes)
    X, y, kw = make_case("one_class_fold", 0)
    held = np.array_split(np.random.default_rng(kw["seed"]).permutation(len(y)), 5)
    assert any(len(np.unique(np.delete(y, h))) < 2 for h in held)
    X, _, kw = make_case("target_ge_d", 0)
    assert kw["target_count"] >= X.shape[1] - 1 and np.ptp(X[:, 0]) == 0
