"""scipy's compiled filter kernels, run without ``import scipy.signal``.

``import scipy.signal`` takes ~0.5 s, more than the filtering of a 1 h night.
The two kernels preprocessing runs, ``_sosfilt`` and ``_upfirdn_apply``, load
from their files in ~6 ms.  ``sosfiltfilt`` and ``resample_poly`` are the few
lines of scipy 1.17.1's glue around them, and give its results bit for bit.
Their coefficients are data: ``filter_table`` holds scipy's designs for the
rates the pipeline meets, as ``table_source`` writes them.  A key not in the
table is designed by ``scipy.signal`` and runs through the same glue.

The kernels load when this module is first imported, not at a first call.
Preprocessing makes its first calls from several pool threads at once, and
the import lock of this module lets one of them load an extension while the
others wait.  Regenerate the table with
``python -m hypnopipe.filters > src/hypnopipe/filter_table.py``.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
import textwrap

import numpy as np

from . import filter_table

KAISER_BETA = 5.0
# the raw rates of the shipped fixtures and the benchmark's nights
TABLED_RATES = (100.0, 128.0, 200.0, 256.0, 500.0, 512.0)


def _extension(name: str):
    """``scipy.signal``'s compiled module ``name``: loaded from its file, or by
    the regular import, which runs ``scipy.signal``'s own, if none is found."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "signal", name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(f"scipy.signal.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(f"scipy.signal.{name}")


_sosfilt = _extension("_sosfilt")._sosfilt
_upfirdn = _extension("_upfirdn_apply")


def butter(order: int, fs: float, cutoff_hz: float,
           btype: str) -> tuple[np.ndarray, np.ndarray]:
    """``(sos, zi)``: scipy's ``butter(order, cutoff_hz, btype, fs=fs,
    output="sos")`` and its ``sosfilt_zi``, from the table if they are in it."""
    key = (order, fs, cutoff_hz, btype)
    if key in filter_table.BUTTER:
        return tuple(map(np.array, filter_table.BUTTER[key]))
    return _design_butter(*key)


def kaiser_taps(up: int, down: int) -> np.ndarray:
    """The Kaiser(KAISER_BETA) ``firwin`` taps of scipy's ``resample_poly`` for
    ``up``/``down`` in lowest terms, from the table if they are in it."""
    if (up, down) in filter_table.KAISER:
        return np.array(filter_table.KAISER[up, down])
    return _design_taps(up, down)


def _design_butter(order, fs, cutoff_hz, btype):
    from scipy import signal as sps

    sos = sps.butter(order, cutoff_hz, btype=btype, fs=fs, output="sos")
    return sos, sps.sosfilt_zi(sos)


def _design_taps(up, down):
    from scipy import signal as sps

    max_rate = max(up, down)
    return sps.firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", KAISER_BETA))


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


def table_source() -> str:
    """The text of ``filter_table``: scipy.signal's designs of the band-limit
    filters and the resampling at each of TABLED_RATES, and of the octave
    cascade at TARGET_FS."""
    from .encoding import OCTAVE_CUTOFFS_HZ
    from .preprocess import (FILTER_ORDER, HIGHPASS_HZ, LOWPASS_HZ, TARGET_FS,
                             _resample_ratio)

    bands = [(HIGHPASS_HZ, "highpass"), (LOWPASS_HZ, "lowpass")]
    butter_keys = sorted({(FILTER_ORDER, fs, hz, btype) for fs in TABLED_RATES
                          for hz, btype in bands}
                         | {(FILTER_ORDER, TARGET_FS, hz, "lowpass")
                            for hz in OCTAVE_CUTOFFS_HZ})
    ratios = sorted({_resample_ratio(fs) for fs in TABLED_RATES if fs != TARGET_FS})
    lines = ['"""scipy.signal\'s filter designs: written by',
             '``hypnopipe.filters.table_source()``; do not edit."""', "", "BUTTER = {"]
    for key in butter_keys:
        lines.append(f"    {key!r}: (")
        for arr in _design_butter(*key):
            lines.append("        (" + ",\n         ".join(
                f"({', '.join(map(repr, map(float, row)))})" for row in arr) + "),")
        lines.append("    ),")
    lines += ["}", "", "KAISER = {"]
    for up, down in ratios:
        lines.append(f"    ({up}, {down}): (")
        lines.append(textwrap.fill(", ".join(map(repr, map(float, _design_taps(up, down)))),
                                   79, initial_indent=" " * 8, subsequent_indent=" " * 8,
                                   break_long_words=False, break_on_hyphens=False) + ",")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(table_source())
