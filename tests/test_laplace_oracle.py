"""``diagnosis._laplace_mode`` against the version that took the quadratic
term of the log marginal likelihood from a dense solve with K, kept here
verbatim as the reference.

The mode, gradient, W^1/2 and Cholesky factor come from the same code and
must be bitwise equal.  The log marginal now reads (f - m)'K^-1(f - m) as
a'(f - m), which differs in rounding only: across the tier-1 suite the
largest change was 2.1e-14 (4.5e-16 relative) and gp_predict scores did not
change; on 300-night cohorts of 38-45 columns it was 5.7e-14.  The bound
below is pinned on seeded cases that include near-singular kernels.
"""

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky
from scipy.special import ndtri

from hypnopipe import diagnosis as dg
from hypnopipe.errors import CholeskyFailure

MAX_LAPLACE_ITERS = dg.MAX_LAPLACE_ITERS


# the two probit functions the reference called, which ``dg._probit`` joins
def _probit_ll(y, f):
    return dg._probit(y, f)[0]


def _probit_derivs(y, f):
    return dg._probit(y, f)[1:]


LML_RTOL = 1e-13


# ----------------------------------------------- the dense solve, kept verbatim

def _laplace_mode(K, y, mean):
    """Newton iteration for the latent posterior mode (RW alg. 3.1 with a
    nonzero constant mean); returns mode, grad, W_sqrt, chol, log marginal."""
    n = len(y)
    f = np.full(n, mean, dtype=float)
    prev_obj = -np.inf
    for _ in range(MAX_LAPLACE_ITERS):
        grad, W = _probit_derivs(y, f)
        sw = np.sqrt(W)
        B = np.eye(n) + sw[:, None] * K * sw[None, :]
        try:
            Lc = cholesky(B, lower=True)
        except np.linalg.LinAlgError as e:
            raise CholeskyFailure(str(e)) from e
        b = W * (f - mean) + grad
        a = b - sw * cho_solve((Lc, True), sw * (K @ b))
        f = mean + K @ a
        obj = _probit_ll(y, f) - 0.5 * float(a @ (f - mean))
        if abs(obj - prev_obj) < 1e-9:
            break
        prev_obj = obj
    grad, W = _probit_derivs(y, f)
    sw = np.sqrt(W)
    B = np.eye(n) + sw[:, None] * K * sw[None, :]
    Lc = cholesky(B, lower=True)
    lml = (_probit_ll(y, f)
           - 0.5 * float((f - mean) @ np.linalg.solve(K, f - mean))
           - float(np.log(np.diag(Lc)).sum()))
    return f, grad, sw, Lc, lml


# ----------------------------------------------------------------- the cases

def make_case(seed):
    """Standardized inputs and labels in {-1, +1}; every other case repeats
    rows with flipped labels, so K is singular but for the jitter."""
    rng = np.random.default_rng([seed, 11])
    n, d = [(30, 2), (60, 5), (90, 10), (120, 30)][seed % 4]
    y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    y[:2] = (-1.0, 1.0)
    X = rng.standard_normal((n, d)) + 0.8 * y[:, None] * (rng.random(d) < 0.3)
    if seed % 2:
        X[-5:] = X[:5]
        y[-5:] = -y[:5]
    return dg.Standardizer.fit(X).apply(X), y, X


SEEDS = range(8)


@pytest.mark.parametrize("seed", SEEDS)
def test_laplace_mode_matches_dense_solve(seed):
    Z, y, _ = make_case(seed)
    mean = float(ndtri(np.clip((y > 0).mean(), 1e-3, 1 - 1e-3)))
    base = dg._median_heuristic(Z)
    for mult in dg.LENGTH_SCALE_GRID:
        for sf in dg.SIGNAL_STD_GRID:
            for noise in dg.NOISE_GRID:
                K = dg._kernel(Z, Z, mult * base, sf) + noise * np.eye(len(Z))
                try:
                    ref = _laplace_mode(K, y, mean)
                except CholeskyFailure:
                    with pytest.raises(CholeskyFailure):
                        dg._laplace_mode(K, y, mean)
                    continue
                got = dg._laplace_mode(K, y, mean)
                for g, r in zip(got[:4], ref[:4]):
                    assert g.tobytes() == r.tobytes()
                assert abs(got[4] - ref[4]) <= LML_RTOL * abs(ref[4])


@pytest.mark.parametrize("seed", SEEDS)
def test_gp_fit_and_predict_unchanged(seed, monkeypatch):
    _, y, X = make_case(seed)
    grid = np.random.default_rng([seed, 12]).standard_normal((25, X.shape[1]))
    new = dg.gp_fit(X, y)
    monkeypatch.setattr(dg, "_laplace_mode", _laplace_mode)
    ref = dg.gp_fit(X, y)
    assert ((new.length_scale, new.signal_std, new.noise)
            == (ref.length_scale, ref.signal_std, ref.noise))
    assert abs(new.log_marginal - ref.log_marginal) <= LML_RTOL * abs(ref.log_marginal)
    for pts in (X, grid):
        for g, r in zip(dg.gp_predict(new, pts), dg.gp_predict(ref, pts)):
            assert g.tobytes() == r.tobytes()
