"""scipy's filter designs and compiled kernels, without ``import scipy.signal``.

``import scipy.signal`` takes ~0.5 s, more than the filtering of a 1 h night.
The kernels preprocessing runs, ``_sosfilt`` and ``_upfirdn_apply``, and the
``i0`` ufunc of the Kaiser window load from their files in a few ms
(``extensions``).
``butter``, ``kaiser_taps``, ``sosfiltfilt`` and ``resample_poly`` are scipy
1.17.1's Python code around them, cut to the branches the pipeline takes and
kept op for op: they give its results bit for bit at any sample rate.

The kernels load when this module is first imported, not at a first call.
Preprocessing makes its first calls from several pool threads at once, and
the import lock of this module lets one of them load an extension while the
others wait.
"""

from __future__ import annotations

import numpy as np

from .extensions import extension

KAISER_BETA = 5.0

_sosfilt = extension("signal", "_sosfilt")._sosfilt
_upfirdn = extension("signal", "_upfirdn_apply")
_i0 = extension("special", "_special_ufuncs").i0


def butter(order: int, fs: float, cutoff_hz: float,
           btype: str) -> tuple[np.ndarray, np.ndarray]:
    """``(sos, zi)``: scipy's ``butter(order, cutoff_hz, btype, fs=fs,
    output="sos")`` and its ``sosfilt_zi``, for ``btype`` "lowpass" or
    "highpass"."""
    # iirfilter: the cutoff prewarped at fs = 2, buttap's analog prototype
    wn = np.asarray(cutoff_hz, dtype=np.float64) / (float(fs) / 2)
    wo = float(2 * 2.0 * np.tan(np.pi * wn / 2.0))
    p = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=np.float64) / (2 * order))
    if btype == "lowpass":      # lp2lp_zpk
        z, p, k = np.zeros(0), wo * p, wo ** order
    else:                       # lp2hp_zpk: as many zeros at 0 as poles
        z, p, k = np.zeros(order), wo / p, np.real(1.0 / np.prod(-p))
    # bilinear_zpk at fs = 2: the zeros at infinity go to -1
    k = k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))
    z = np.concatenate(((4.0 + z) / (4.0 - z), -np.ones(order - len(z))))
    p = (4.0 + p) / (4.0 - p)
    # zpk2sos, 'nearest' pairing: every zero is real, so the complex-zero
    # branches never run, and real poles come in pairs
    if order % 2:
        p, z = np.concatenate((p, [0.0])), np.concatenate((z, [0.0]))
    # _cplxreal: each conjugate pair as the mean of its upper value and the
    # conjugate of its lower, then the real poles.  A Butterworth's pairs have
    # distinct real parts, so its sort of runs of equal real parts is left out
    p = p[np.lexsort((abs(p.imag), p.real))]
    real = abs(p.imag) <= 100 * np.finfo(float).eps * abs(p)
    p = np.concatenate(((p[~real & (p.imag > 0)] + p[~real & (p.imag < 0)].conj()) / 2,
                        p[real].real))
    z = np.sort(z)
    sos = np.zeros(((order + 1) // 2, 6))
    for si in range(len(sos) - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            i = real[np.argmin(np.abs(1 - np.abs(p[real])))]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):
            i = np.argsort(np.abs(z - p1))[0]
            zeros.append(z[i])
            z = np.delete(z, i)
        sos[si, :3] = _poly(np.asarray(zeros))
        sos[si, 3:] = np.real(_poly(np.asarray([p1, p2])))
    sos[0][:3] *= k
    # sosfilt_zi: lfilter_zi's solve per section, scaled by the earlier gains
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        zi[section] = scale * np.linalg.solve(np.eye(2) - [[-a[1], 1], [-a[2], 0]],
                                              b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return sos, zi


def _poly(roots: np.ndarray) -> np.ndarray:
    """scipy's ``_polyutils.poly``: the monic polynomial with ``roots``."""
    a = np.ones((1,), dtype=roots.dtype)
    for root in roots:
        a = np.convolve(a, [1, -root])
    return a


def kaiser_taps(up: int, down: int) -> np.ndarray:
    """The taps of scipy's ``resample_poly(..., window=("kaiser",
    KAISER_BETA))`` for ``up``/``down`` in lowest terms: ``firwin(20 * max + 1,
    1 / max, window=...)``, ``max`` being the larger of the two."""
    max_rate = max(up, down)
    numtaps = 20 * max_rate + 1
    cutoff = 1.0 / max_rate
    m = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = cutoff * np.sinc(cutoff * m)
    # times the symmetric kaiser(numtaps, KAISER_BETA)
    h *= _i0(KAISER_BETA * np.sqrt(1 - (m / m[-1]) ** 2.0)) / _i0(KAISER_BETA)
    h /= np.sum(h)
    return h


def sosfiltfilt(sos: np.ndarray, zi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy's ``sosfiltfilt(sos, x)`` of a float64 1-D ``x`` longer than its
    odd padding, ``zi`` being ``sosfilt_zi(sos)``.  One padded buffer is
    filtered in place forward, then backward."""
    ntaps = 2 * len(sos) + 1 - min(np.count_nonzero(sos[:, 2] == 0),
                                   np.count_nonzero(sos[:, 5] == 0))
    edge = 3 * ntaps
    y = np.empty((1, len(x) + 2 * edge))
    buf = y[0]
    buf[:edge] = 2 * x[0] - x[edge:0:-1]
    buf[edge:-edge] = x
    buf[-edge:] = 2 * x[-1] - x[-2:-edge - 2:-1]
    for _ in range(2):
        _sosfilt(sos, y, zi[None] * buf[0])
        _reverse(buf)
    return buf[edge:-edge]


def _reverse(a: np.ndarray, block: int = 1 << 16) -> None:
    """Reverse ``a`` in place, one block from each end at a time."""
    n = len(a)
    for i in range(0, n // 2, block):
        j = min(i + block, n // 2)
        head = a[i:j].copy()
        a[i:j] = a[n - j:n - i][::-1]
        a[n - j:n - i] = head[::-1]


def resample_poly(x: np.ndarray, up: int, down: int, taps: np.ndarray) -> np.ndarray:
    """scipy's ``resample_poly(x, up, down, window=...)`` of a float64 1-D
    ``x``, ``taps`` being the window's ``firwin`` design for ``up``/``down``
    in lowest terms."""
    half_len = (len(taps) - 1) // 2
    n_out = -(-len(x) * up // down)
    n_pre_pad = down - half_len % down
    n_pre_remove = (half_len + n_pre_pad) // down
    n_post_pad = 0
    while (_upfirdn._output_len(len(taps) + n_pre_pad + n_post_pad, len(x), up, down)
           < n_out + n_pre_remove):
        n_post_pad += 1
    h = np.concatenate((np.zeros(n_pre_pad), taps * up, np.zeros(n_post_pad)))
    # scipy's _pad_h: the taps of each phase, flipped, one phase after another
    h_flip = np.zeros(len(h) + -len(h) % up)
    h_flip[:len(h)] = h
    h_flip = h_flip.reshape(-1, up).T[:, ::-1].ravel()
    out = np.zeros(_upfirdn._output_len(len(h), len(x), up, down))
    _upfirdn._apply(x, h_flip, out, up, down, 0, _upfirdn.mode_enum("constant"), 0)
    return out[n_pre_remove:n_pre_remove + n_out]
