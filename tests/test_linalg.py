"""scipy's LAPACK, BLAS and ndtr loaded by file path, and the ndtri replay,
give scipy.linalg's and scipy.special's results bit for bit, with their checks."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnopipe import extensions, linalg
from hypnopipe.errors import CholeskyFailure


def spd(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n + 3))
    return a @ a.T + 0.1 * np.eye(n)


def orders(a):
    """``a`` C-ordered and Fortran-ordered, with equal values."""
    c, f = np.ascontiguousarray(a), np.asfortranarray(a)
    assert c.flags.c_contiguous and not c.flags.f_contiguous and f.flags.f_contiguous
    return {"C": c, "F": f}


@pytest.mark.parametrize("n", [2, 7, 64, 300])
@pytest.mark.parametrize("order", ["C", "F"])
def test_cholesky_is_scipys(n, order):
    a = orders(spd(n, n))[order]
    got = linalg.cholesky(a)
    assert got.tobytes() == scipy.linalg.cholesky(a, lower=True).tobytes()
    assert got.flags.f_contiguous and np.array_equal(got, np.tril(got))


@pytest.mark.parametrize("n", [2, 7, 64, 300])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("cols", [None, 1, 5])
def test_cho_solve_is_scipys(n, order, cols):
    c = orders(scipy.linalg.cholesky(spd(n, n + 1), lower=True))[order]
    rng = np.random.default_rng(n)
    b = rng.standard_normal(n if cols is None else (n, cols))
    got = linalg.cho_solve(c, b)
    want = scipy.linalg.cho_solve((c, True), b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 7, 64, 300])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_solve_lower_is_scipys(n, order, dtype):
    """Also for a GP's float32 ``L`` as loaded from its bundle: a
    C-ordered ``L`` takes scipy's transposed call."""
    L = orders(scipy.linalg.cholesky(spd(n, n + 2), lower=True).astype(dtype))[order]
    B = np.random.default_rng(n).standard_normal((n, 9))
    got = linalg.solve_lower(L, B)
    want = scipy.linalg.solve_triangular(L, B, lower=True)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert linalg.solve_lower(L, B[:, :0]).shape == (n, 0)


def test_dpotri_dsymv_dsyr_and_ndtr_are_scipys_own():
    assert linalg.dpotri is scipy.linalg.lapack.dpotri
    assert linalg.dsymv is scipy.linalg.blas.dsymv
    assert linalg.dsyr is scipy.linalg.blas.dsyr
    assert linalg.ndtr is scipy.special.ndtr
    z = np.linspace(-40, 40, 2001)
    assert linalg.ndtr(z).tobytes() == scipy.special.ndtr(z).tobytes()


@pytest.mark.parametrize("a", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),          # indefinite
    np.diag([1.0, 0.0, 1.0]),                     # singular
    -np.eye(3),
])
def test_a_matrix_that_is_not_positive_definite_is_a_cholesky_failure(a):
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cholesky(a, lower=True)
    with pytest.raises(CholeskyFailure, match="leading minor of the array is not "
                                              "positive definite"):
        linalg.cholesky(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_still_raises(bad):
    a = spd(4, 0)
    L = scipy.linalg.cholesky(a, lower=True)
    b = np.ones(4)
    for call, args, at in ((linalg.cholesky, (a,), 0), (linalg.cho_solve, (L, b), 0),
                           (linalg.cho_solve, (L, b), 1), (linalg.solve_lower, (L, b), 0),
                           (linalg.solve_lower, (L, b), 1)):
        args = [x.copy() for x in args]
        args[at].flat[-1] = bad
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            call(*args)


def test_a_singular_triangle_is_refused_as_scipy_refuses_it():
    L = np.tril(np.ones((3, 3)))
    L[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="resolution failed at diagonal 1"):
        scipy.linalg.solve_triangular(L, np.ones(3), lower=True)
    with pytest.raises(np.linalg.LinAlgError, match="resolution failed at diagonal 1"):
        linalg.solve_lower(L, np.ones(3))


def test_each_extension_is_loaded_once():
    """``linalg`` and ``filters`` share one ``_special_ufuncs``, and reuse
    what a regular import loaded first (this process imported scipy.linalg
    before hypnopipe.linalg)."""
    from hypnopipe import filters

    ufuncs = extensions.extension("special", "_special_ufuncs")
    assert sys.modules["scipy.special._special_ufuncs"] is ufuncs
    assert filters._i0 is ufuncs.i0 and linalg.ndtr is ufuncs.ndtr
    assert linalg._flapack is extensions.extension("linalg", "_flapack")
    assert linalg._flapack is sys.modules["scipy.linalg._flapack"]
    assert scipy.linalg._flapack is linalg._flapack


def test_a_regular_import_after_finds_the_modules_loaded_by_path():
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    code = ("import sys\nfrom hypnopipe import filters, linalg\n"
            "assert 'scipy.linalg' not in sys.modules and 'scipy.special' not in sys.modules\n"
            "import scipy.linalg, scipy.special\n"
            "assert scipy.linalg.lapack.dpotrf is linalg._flapack.dpotrf\n"
            "assert scipy.linalg.blas.dsyr is linalg.dsyr\n"
            "assert scipy.special.ndtr is linalg.ndtr and scipy.special.i0 is filters._i0\n"
            "print('ok')")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0 and out.stdout == "ok\n", out.stderr


def same_bits(got, p):
    """``got`` is a float with the bits of scipy's ``ndtri(p)`` (any NaN for NaN)."""
    want = float(scipy.special.ndtri(p))
    assert type(got) is float
    assert (math.isnan(got) and math.isnan(want)) or \
        np.float64(got).tobytes() == np.float64(want).tobytes(), (p, got, want)


E2, E32 = math.exp(-2.0), math.exp(-32.0)


# the ends, the smallest subnormal and the tails, the central branch's edges
# (exp(-2) and 1 - exp(-2)), the x = 8 switch between P1/Q1 and P2/Q2
# (exp(-32)), each with its neighbours, and what lies outside [0, 1]
@pytest.mark.parametrize("p", [
    0.0, 1.0, 5e-324, 1e-300, 1e-3, 0.5, 1 - 1e-3,
    E2, math.nextafter(E2, 0.0), math.nextafter(E2, 1.0),
    1 - E2, math.nextafter(1 - E2, 0.0), math.nextafter(1 - E2, 1.0),
    E32, math.nextafter(E32, 0.0), math.nextafter(E32, 1.0),
    1 - E32, math.nextafter(1.0, 0.0), -0.0, math.nan, -1e-300, 1.5, math.inf])
def test_ndtri_is_scipys_at_its_branch_points(p):
    same_bits(linalg.ndtri(p), p)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(p=st.one_of(st.floats(0.0, 1.0),
                   st.floats(-323.0, 0.0).map(lambda e: 10.0 ** e),
                   st.floats(-16.0, 0.0).map(lambda e: 1.0 - 10.0 ** e)))
def test_ndtri_is_scipys(p):
    """Uniform over [0, 1] and log-uniform into both tails."""
    same_bits(linalg.ndtri(p), p)


def test_ndtri_is_scipys_on_many_points():
    rng = np.random.default_rng(2018)
    p = np.concatenate([rng.random(20000), 10.0 ** rng.uniform(-323.5, 0.0, 20000),
                        1.0 - 10.0 ** rng.uniform(-16.5, 0.0, 20000)])
    got = np.array([linalg.ndtri(v) for v in p])
    assert got.tobytes() == scipy.special.ndtri(p).tobytes()
