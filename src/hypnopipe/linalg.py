"""scipy's LAPACK, BLAS, ``ndtr`` and ``ndtri``, without ``import
scipy.linalg`` or ``scipy.special``.

``diagnosis`` makes five LAPACK and BLAS calls and one ``ndtr`` per fit or
prediction, and one ``ndtri`` per fit; importing the two subpackages for
them takes 0.12-0.16 s per process.  The compiled ``_flapack``, ``_fblas``
and ``_special_ufuncs`` load from their files in a few ms (``extensions``).
``cholesky``, ``cho_solve`` and ``solve_lower`` are the calls scipy 1.17.1's
``cholesky(a, lower=True)``, ``cho_solve((c, True), b)`` and
``solve_triangular(a, b, lower=True)`` make, with their finiteness checks
and their errors, so they give its results bit for bit; ``dpotri``,
``dsymv``, ``dsyr`` and ``ndtr`` are scipy's own functions.  ``ndtri`` is
not loaded: it lives in ``special/_ufuncs``, whose initialisation imports
``scipy.special``.  It is a replay of the cephes ``ndtri`` that scipy
compiles, in the same float operations and with the same libm ``log``, so
it gives scipy's result bit for bit (as ``filters.butter`` replays scipy's
filter design).

The modules load when this module is first imported, under its import lock,
so two threads making a first fit or prediction at once load each one once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CholeskyFailure
from .extensions import extension

_flapack = extension("linalg", "_flapack")
_fblas = extension("linalg", "_fblas")
dpotri = _flapack.dpotri
dsymv, dsyr = _fblas.dsymv, _fblas.dsyr
ndtr = extension("special", "_special_ufuncs").ndtr


def _check(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                         f"on entry to {routine}")


def cholesky(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of ``a`` from ``dpotrf``, its upper triangle
    zeroed; ``CholeskyFailure`` if ``a`` is not positive definite."""
    c, info = _flapack.dpotrf(np.asarray_chkfinite(a), lower=1, clean=1)
    if info > 0:
        raise CholeskyFailure(f"{info}-th leading minor of the array is not "
                              f"positive definite")
    _check(info, "DPOTRF")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``c c' x = b``, ``c`` being a lower factor (``dpotrs``)."""
    x, info = _flapack.dpotrs(np.asarray_chkfinite(c), np.asarray_chkfinite(b), lower=1)
    _check(info, "DPOTRS")
    return x


def solve_lower(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``a x = b`` for a lower-triangular ``a`` (``dtrtrs``): the
    transposed upper system on ``a.T`` unless ``a`` is Fortran-ordered,
    as scipy does."""
    a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    if a.flags.f_contiguous:
        x, info = _flapack.dtrtrs(a, b, lower=1, trans=0)
    else:
        x, info = _flapack.dtrtrs(a.T, b, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal "
                                    f"{info - 1}")
    _check(info, "DTRTRS")
    return x


# cephes ndtri.c (public domain): sqrt(2 pi), exp(-2), and the rational
# approximations for |p - 1/2| <= 1/2 - exp(-2) (P0/Q0) and, with
# x = sqrt(-2 log p), for 2 <= x < 8 (P1/Q1) and x >= 8 (P2/Q2).  Each Q
# has an implicit leading 1.
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coefs: tuple, lead: float) -> float:
    """``lead x^n + coefs[0] x^(n-1) + ...`` in cephes' order: ``polevl``
    when ``lead`` is 0 (its first step, ``0 x + c``, is exact), ``p1evl``
    when it is 1."""
    acc = lead
    for c in coefs:
        acc = acc * x + c
    return acc


def ndtri(p: float) -> float:
    """The ``x`` with ``ndtr(x) == p``, bit for bit scipy's: -inf at 0, inf at
    1, NaN outside [0, 1] or for NaN."""
    p = float(p)
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    y, sign = p, -1.0
    if y > 1.0 - _EXPM2:
        y, sign = 1.0 - y, 1.0
    if y > _EXPM2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0, 0.0) / _horner(y2, _Q0, 1.0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    P, Q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    return sign * ((x - math.log(x) / x) - z * _horner(z, P, 0.0) / _horner(z, Q, 1.0))
