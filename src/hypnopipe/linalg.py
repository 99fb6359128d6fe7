"""scipy's LAPACK, BLAS and ``ndtr``, without ``import scipy.linalg`` or
``scipy.special``.

``diagnosis`` makes five LAPACK and BLAS calls and one ``ndtr`` per fit or
prediction; importing the two subpackages for them takes 0.12-0.16 s per
process.  Their compiled ``_flapack``, ``_fblas`` and ``_special_ufuncs``
load from their files in a few ms (``extensions``).  ``cholesky``,
``cho_solve`` and ``solve_lower`` are the calls scipy 1.17.1's
``cholesky(a, lower=True)``, ``cho_solve((c, True), b)`` and
``solve_triangular(a, b, lower=True)`` make, with their finiteness checks
and their errors, so they give its results bit for bit; ``dpotri``,
``dsymv``, ``dsyr`` and ``ndtr`` are scipy's own functions.

The modules load when this module is first imported, under its import lock,
so two threads making a first fit or prediction at once load each one once.
"""

from __future__ import annotations

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
