import numpy as np
import pytest
import scipy.linalg

from hypnopipe import diagnosis as dg, linalg, pool
from hypnopipe.errors import CholeskyFailure, DimensionMismatch, SingleClass, TooFewSamples


def blobs(rng, n_per=50, d=2, sep=4.0):
    X = np.vstack([rng.normal(-sep / 2, 1.0, (n_per, d)),
                   rng.normal(sep / 2, 1.0, (n_per, d))])
    y = np.array([-1.0] * n_per + [1.0] * n_per)
    return X, y


# ------------------------------------------------------------------- rfe

def test_rfe_finds_informative_features(rng):
    n = 120
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    X = rng.standard_normal((n, 52))
    X[:, 3] += 2.0 * y
    X[:, 17] += 2.0 * y
    sel = dg.rfe(X, y, target_count=5, seed=0)
    assert sel.frequency[3] == 1.0
    assert sel.frequency[17] == 1.0
    assert 3 in sel.selected and 17 in sel.selected


def test_rfe_selected_set_matches_cutoff(rng):
    X, y = blobs(rng, n_per=30, d=10)
    sel = dg.rfe(X, y, target_count=4, seed=1)
    assert set(sel.selected) == {i for i, f in enumerate(sel.frequency)
                                 if f >= dg.RFE_CUTOFF}


def test_rfe_duplicate_columns_one_survives(rng):
    n = 80
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    X = rng.standard_normal((n, 10))
    X[:, 0] += 2.0 * y
    X[:, 1] = X[:, 0]
    sel = dg.rfe(X, y, target_count=3, seed=0)
    assert sel.frequency[0] + sel.frequency[1] > 0


FACTORISATIONS = ("inv", "solve", "cholesky", "lstsq", "pinv", "qr", "svd", "eig", "eigh")


def test_rfe_factorises_once_per_fold_with_both_classes(rng, monkeypatch):
    """Each fold factorises its d x d ridge matrix once; removals downdate it."""
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return fn(*args, **kwargs)
        return wrapped

    for name in FACTORISATIONS:
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    for name, fn in list(vars(scipy.linalg).items()):
        if callable(fn) and getattr(fn, "__module__", "").startswith("scipy.linalg"):
            monkeypatch.setattr(scipy.linalg, name, counting(fn))
    # diagnosis's own factorisation, scipy's dpotrf
    monkeypatch.setattr(linalg, "cholesky", counting(linalg.cholesky))
    n, d, folds = 60, 30, 5
    held = np.array_split(np.random.default_rng(0).permutation(n), folds)
    y = np.zeros(n)
    y[held[2]] = 1.0          # the fold that holds these out trains on one class
    X = rng.standard_normal((n, d))
    dg.rfe(X, y, folds=folds, seed=0, target_count=5)
    assert calls == [(d, d)] * (folds - 1)


def test_rfe_preconditions(rng):
    X, y = blobs(rng, n_per=5)
    with pytest.raises(TooFewSamples):
        dg.rfe(X, y)
    X2, _ = blobs(rng, n_per=20)
    with pytest.raises(SingleClass):
        dg.rfe(X2, np.ones(40))


# -------------------------------------------------------------------- gp

def test_gp_separates_blobs(rng):
    X, y = blobs(rng)
    model = dg.gp_fit(X, y)
    scores, var = dg.gp_predict(model, X)
    assert ((scores > 0) == (y > 0)).mean() >= 0.98
    assert np.all(np.abs(scores) < 1.0)
    assert np.all(var >= 0)


def test_gp_label_flip_antisymmetry(rng):
    X, y = blobs(rng, n_per=30)
    grid = rng.standard_normal((20, 2)) * 3
    a, _ = dg.gp_predict(dg.gp_fit(X, y), grid)
    b, _ = dg.gp_predict(dg.gp_fit(X, -y), grid)
    assert np.max(np.abs(a + b)) < 1e-6


def test_gp_conflicting_duplicate_reduces_confidence(rng):
    X, y = blobs(rng, n_per=20)
    (base,), _ = dg.gp_predict(dg.gp_fit(X, y), X[0][None, :])
    X2 = np.vstack([X, X[0]])
    y2 = np.append(y, -y[0])
    (conflicted,), _ = dg.gp_predict(dg.gp_fit(X2, y2), X[0][None, :])
    assert abs(conflicted) < abs(base)
    assert np.sign(conflicted) == np.sign(base)


def test_gp_far_point_returns_prior(rng):
    X, y = blobs(rng, n_per=20)
    model = dg.gp_fit(X, y)
    far = np.full((1, 2), 1e6)
    (s,), (var,) = dg.gp_predict(model, far)
    from scipy.special import ndtr
    prior_var = model.signal_std ** 2 + model.noise
    prior_score = 2 * ndtr(model.mean_const / np.sqrt(1 + prior_var)) - 1
    assert abs(s - prior_score) < 1e-6
    assert abs(var - prior_var) < 1e-6


def test_gp_affine_feature_rescaling_invariance(rng):
    X, y = blobs(rng, n_per=30)
    test = rng.standard_normal((10, 2))
    a, _ = dg.gp_predict(dg.gp_fit(X, y), test)
    X2 = X.copy()
    X2[:, 0] = 100.0 * X2[:, 0] - 7.0
    test2 = test.copy()
    test2[:, 0] = 100.0 * test2[:, 0] - 7.0
    b, _ = dg.gp_predict(dg.gp_fit(X2, y), test2)
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-6


def test_gp_boundary_point_near_zero(rng):
    X, y = blobs(rng)
    model = dg.gp_fit(X, y)
    (s,), _ = dg.gp_predict(model, np.zeros((1, 2)))
    assert abs(s) < 0.05


def test_gp_predict_returns_one_score_and_variance_per_row(rng):
    X, y = blobs(rng, n_per=20)
    model = dg.gp_fit(X, y)
    for n in (1, 3):
        scores, var = dg.gp_predict(model, X[:n])
        assert scores.shape == var.shape == (n,)


def test_gp_dimension_mismatch(rng):
    X, y = blobs(rng, n_per=20)
    model = dg.gp_fit(X, y)
    with pytest.raises(DimensionMismatch):
        dg.gp_predict(model, np.zeros((1, 3)))


def test_gp_archive_round_trip(tmp_path, rng):
    X, y = blobs(rng, n_per=25)
    model = dg.gp_fit(X, y)
    model.save(str(tmp_path))
    back = dg.GPModel.load(str(tmp_path / "gp.gp.json"))
    a, _ = dg.gp_predict(model, X)
    b, _ = dg.gp_predict(back, X)
    assert np.max(np.abs(a - b)) < 1e-4


def test_a_loaded_gp_scores_as_its_float64_copy(tmp_path, rng):
    """A loaded GP's arrays are float32, as stored; the kernel squares them
    in float64, so the scores and variances are those of float64 copies."""
    X, y = blobs(rng, n_per=25, d=3)
    back = dg.GPModel.load(dg.gp_fit(X, y).save(str(tmp_path)))
    std = back.standardizer
    wide = dg.GPModel(
        X=back.X.astype(float), grad_ll=back.grad_ll.astype(float),
        W_sqrt=back.W_sqrt.astype(float), L=back.L.astype(float),
        standardizer=dg.Standardizer(mean=std.mean.astype(float),
                                     std=std.std.astype(float), keep=std.keep),
        **{k: getattr(back, k) for k in dg._GP_SCALARS})
    assert back.X.dtype == np.float32
    for got, want in zip(dg.gp_predict(back, X), dg.gp_predict(wide, X)):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def _gp_fit_kernel_per_point(X, y):
    """``gp_fit`` as it was when each of the 45 grid points built its own
    kernel, ``_kernel(Z, Z, ell, sf) + noise * I``, distances included."""
    from scipy.special import ndtri

    std = dg.Standardizer.fit(X)
    Z = std.apply(X)
    base = dg._median_heuristic(Z)
    mean_const = float(ndtri(float(np.clip((y > 0).mean(), 1e-3, 1 - 1e-3))))
    best = None
    for mult in dg.LENGTH_SCALE_GRID:
        for sf in dg.SIGNAL_STD_GRID:
            for noise in dg.NOISE_GRID:
                ell = mult * base
                K = dg._kernel(Z, Z, ell, sf) + noise * np.eye(len(Z))
                try:
                    _, grad, sw, Lc, lml = dg._laplace_mode(K, y, mean_const)
                except CholeskyFailure:
                    continue
                if best is None or lml > best[0] + 1e-12:
                    best = (lml, ell, sf, noise, grad, sw, Lc)
    lml, ell, sf, noise, grad, sw, Lc = best
    return dg.GPModel(X=Z, length_scale=ell, signal_std=sf, noise=noise,
                      mean_const=mean_const, standardizer=std, grad_ll=grad,
                      W_sqrt=sw, L=Lc, log_marginal=lml)


@pytest.mark.parametrize("n, d", [(60, 5), (300, 38)])
def test_gp_fit_is_bitwise_the_kernel_built_per_grid_point(n, d):
    rng = np.random.default_rng([n, d])
    y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    X = rng.standard_normal((n, d)) + 0.8 * y[:, None] * (rng.random(d) < 0.3)
    got = dg.gp_fit(X, y)
    with pool.one_blas_thread():        # where gp_fit runs its BLAS calls
        ref = _gp_fit_kernel_per_point(X, y)
    for name in ("X", "grad_ll", "W_sqrt", "L"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    for name in ("mean", "std", "keep"):
        assert np.array_equal(getattr(got.standardizer, name),
                              getattr(ref.standardizer, name)), name
    for name in ("length_scale", "signal_std", "noise", "mean_const", "log_marginal"):
        assert getattr(got, name) == getattr(ref, name), name


REAL_CHOLESKY = linalg.cholesky


def _counting_cholesky(monkeypatch, fail_at=None):
    """Count the calls of ``linalg.cholesky``, diagnosis's one factorisation
    helper; call number ``fail_at`` fails as a non-positive-definite matrix
    does, with ``CholeskyFailure``."""
    calls = []

    def cholesky(a):
        calls.append(len(calls) + 1)
        if calls[-1] == fail_at:
            raise CholeskyFailure("forced failure")
        return REAL_CHOLESKY(a)
    monkeypatch.setattr(linalg, "cholesky", cholesky)
    return calls


def test_a_failed_last_factorisation_is_a_cholesky_failure(monkeypatch):
    """The factorisation at the mode the Newton loop stops at fails like
    every other one, as ``CholeskyFailure``."""
    X, y = blobs(np.random.default_rng(3), n_per=20, d=3)
    Z = dg.Standardizer.fit(X).apply(X)
    K = dg._kernel(Z, Z, dg._median_heuristic(Z), 1.0) + 1e-2 * np.eye(len(Z))
    calls = _counting_cholesky(monkeypatch)
    dg._laplace_mode(K, y, 0.0)
    assert len(calls) > 2
    _counting_cholesky(monkeypatch, fail_at=len(calls))
    with pytest.raises(CholeskyFailure, match="forced failure"):
        dg._laplace_mode(K, y, 0.0)


def test_gp_fit_skips_a_grid_point_whose_last_factorisation_fails(monkeypatch):
    X, y = blobs(np.random.default_rng(4), n_per=20, d=3)
    calls = _counting_cholesky(monkeypatch)
    ends, lmls = [], []             # per grid point: calls so far, log marginal
    laplace_mode = dg._laplace_mode

    def recording(K, y, mean):
        out = laplace_mode(K, y, mean)
        ends.append(len(calls))
        lmls.append(out[4])
        return out
    monkeypatch.setattr(dg, "_laplace_mode", recording)
    fit = dg.gp_fit(X, y)
    assert len(lmls) == len(dg.LENGTH_SCALE_GRID) * len(dg.SIGNAL_STD_GRID) * len(
        dg.NOISE_GRID)
    win = lmls.index(fit.log_marginal)
    monkeypatch.setattr(dg, "_laplace_mode", laplace_mode)
    _counting_cholesky(monkeypatch, fail_at=ends[win])
    refit = dg.gp_fit(X, y)
    assert refit.log_marginal == max(lmls[:win] + lmls[win + 1:])
    assert ((refit.length_scale, refit.signal_std, refit.noise)
            != (fit.length_scale, fit.signal_std, fit.noise))


# ------------------------------------------------------------ thresholds

def test_threshold_constants():
    assert dg.THRESHOLD_NO_HLA == -0.03
    assert dg.THRESHOLD_WITH_HLA == -0.53
    assert dg.RFE_CUTOFF == 0.40
    assert dg.RFE_TARGET_COUNT == 38


def test_ensemble_diagnose_threshold_edges():
    assert dg.ensemble_diagnose([1.0, 1.0]).label is True
    assert dg.ensemble_diagnose([-0.02]).label is True
    assert dg.ensemble_diagnose([-0.04]).label is False


def test_hla_gate_rules():
    assert dg.ensemble_diagnose([0.9], hla=False).label is False
    assert dg.ensemble_diagnose([-0.40], hla=True).label is True
    assert dg.ensemble_diagnose([-0.60], hla=True).label is False
    assert dg.ensemble_diagnose([-0.40], hla=1).threshold == dg.THRESHOLD_WITH_HLA
    unknown = dg.ensemble_diagnose([-0.40])
    assert (unknown.hla_used, unknown.threshold) == (False, dg.THRESHOLD_NO_HLA)


def test_hla_negative_is_absorbing(rng):
    for s in rng.uniform(-1, 1, 1000):
        rep = dg.ensemble_diagnose([float(s)], hla=False)
        assert rep.label is False
        assert rep.hla_used is True


# --------------------------------------------------------------- evaluate

def test_roc_perfect_separation():
    out = dg.evaluate([-0.9, -0.5, 0.5, 0.9], [False, False, True, True])
    assert out["auc"] == 1.0


def test_roc_constant_scores_chance_level():
    out = dg.evaluate([0.1] * 50, [i % 2 == 0 for i in range(50)])
    assert abs(out["auc"] - 0.5) < 1e-12


def test_roc_known_counts():
    # threshold 0: predictions (+,+,-,-,+,-) against truth (+,-,+,-,+,-)
    scores = [0.5, 0.5, -0.5, -0.5, 0.5, -0.5]
    truth = [True, False, True, False, True, False]
    out = dg.evaluate(scores, truth, threshold=0.0)
    assert out["sensitivity"] == 2 / 3
    assert out["specificity"] == 2 / 3
    lo, hi = out["sensitivity_ci"]
    assert lo < 2 / 3 < hi


def test_roc_monotone(rng):
    scores = rng.uniform(-1, 1, 200)
    truth = rng.random(200) > 0.4
    roc = dg.evaluate(scores, truth)["roc"]
    assert np.all(np.diff(roc[:, 0]) >= 0)
    assert np.all(np.diff(roc[:, 1]) >= 0)


def _evaluate_per_cut(scores, truth, threshold):
    """``evaluate``'s ROC, sensitivity and specificity as they were: every
    score compared with every cut."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth, dtype=bool)
    n_pos = int(t.sum())
    n_neg = int((~t).sum())
    cuts = np.concatenate([[np.inf], np.sort(np.unique(s))[::-1], [-np.inf]])
    points = []
    for c in cuts:
        pred = s >= c
        tp = int((pred & t).sum())
        fp = int((pred & ~t).sum())
        points.append((fp / n_neg, tp / n_pos))  # (1-specificity, sensitivity)
    pred = s >= threshold
    return (np.array(points), int((pred & t).sum()) / n_pos,
            int((~pred & ~t).sum()) / n_neg)


@pytest.mark.parametrize("seed", range(6))
def test_roc_is_bitwise_the_per_cut_sweep(seed):
    """Scores rounded to 1-3 decimals, so many are tied, within a class and
    across the two; thresholds between, at and beyond the scores."""
    rng = np.random.default_rng([seed, 23])
    n = (7, 40, 200, 1000, 13, 333)[seed]
    scores = np.round(rng.uniform(-1, 1, n), 1 + seed % 3)
    truth = rng.random(n) < 0.4
    truth[:2] = (True, False)
    for threshold in (dg.THRESHOLD_NO_HLA, dg.THRESHOLD_WITH_HLA, scores[0], scores[1],
                      np.inf, -np.inf):
        out = dg.evaluate(scores, truth, threshold)
        roc, sens, spec = _evaluate_per_cut(scores, truth, threshold)
        assert out["roc"].dtype == roc.dtype and out["roc"].shape == roc.shape
        assert out["roc"].tobytes() == roc.tobytes()
        assert out["auc"] == float(np.trapezoid(roc[:, 1], roc[:, 0]))
        assert (out["sensitivity"], out["specificity"]) == (sens, spec)


def test_evaluate_requires_both_classes():
    with pytest.raises(SingleClass):
        dg.evaluate([0.1, 0.2], [True, True])


# ----------------------------------------------------------- standardizer

def test_standardizer_drops_constant_columns(rng):
    X = rng.standard_normal((20, 3))
    X[:, 1] = 5.0
    std = dg.Standardizer.fit(X)
    Z = std.apply(X)
    assert Z.shape == (20, 2)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
