"""scipy's filter kernels without ``import scipy.signal`` (``hypnopipe.filters``).

Preprocessing and octave encoding take their coefficients from
``filter_table`` (or, at a rate not in it, from ``scipy.signal``'s designs)
and run them through scipy's own compiled kernels, loaded by file path (or by
the regular import if no file is found).  Every combination gives scipy's
``sosfiltfilt`` and ``resample_poly`` bit for bit.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sps

from hypnopipe import filter_table, filters, preprocess
from hypnopipe.encoding import OCTAVE_CUTOFFS_HZ
from hypnopipe.errors import SignalTooShort
from hypnopipe.preprocess import FILTER_ORDER, HIGHPASS_HZ, LOWPASS_HZ, TARGET_FS

# the raw rates of test_montage_contract.py; 314.159 Hz is left to the design
RAW_RATES = (200.0, 256.0, 500.0, 512.0, 314.159)
UNTABLED_RATE = 314.159
BANDS = ((HIGHPASS_HZ, "highpass"), (LOWPASS_HZ, "lowpass"))
LENGTHS = (6 * FILTER_ORDER, 31, 4097)     # the shortest signal filtered, and longer


def test_the_table_holds_the_tabled_rates_and_the_octave_cascade():
    assert set(filter_table.BUTTER) == (
        {(FILTER_ORDER, fs, hz, btype) for fs in filters.TABLED_RATES for hz, btype in BANDS}
        | {(FILTER_ORDER, TARGET_FS, hz, "lowpass") for hz in OCTAVE_CUTOFFS_HZ})
    assert set(filter_table.KAISER) == {(25, 32), (1, 2), (25, 64), (1, 5), (25, 128)}
    assert UNTABLED_RATE not in filters.TABLED_RATES


def test_the_table_is_what_the_installed_scipy_designs():
    """A scipy release that changes a design fails here: regenerate the table
    with ``python -m hypnopipe.filters > src/hypnopipe/filter_table.py``.
    ``repr`` round-trips a float, so equal text is equal bits."""
    assert Path(filter_table.__file__).read_text() == filters.table_source()


@pytest.fixture(params=["by_path", "by_import"])
def kernels(request, monkeypatch):
    """``filters`` with its kernels loaded from their files, or with the file
    lookup made to miss, so that the regular import loads them."""
    if request.param == "by_import":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])

        def no_file(*args, **kwargs):
            raise AssertionError("loaded by file path")

        monkeypatch.setattr(importlib.util, "spec_from_file_location", no_file)
        importlib.reload(filters)
    yield request.param
    if request.param == "by_import":
        monkeypatch.undo()
        importlib.reload(filters)


BUTTER_KEYS = sorted(filter_table.BUTTER) + [(FILTER_ORDER, UNTABLED_RATE, hz, btype)
                                             for hz, btype in BANDS]


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("key", BUTTER_KEYS, ids=repr)
def test_butter_zero_phase_is_scipys_sosfiltfilt(kernels, key, n):
    order, fs, cutoff_hz, btype = key
    x = np.random.default_rng([n, int(fs)]).standard_normal(n).cumsum()
    sos = sps.butter(order, cutoff_hz, btype=btype, fs=fs, output="sos")
    y = preprocess.butter_zero_phase(x, cutoff_hz, btype, fs)
    assert y.dtype == np.float64
    assert np.array_equal(y, sps.sosfiltfilt(sos, x))
    with pytest.raises(SignalTooShort):
        preprocess.butter_zero_phase(x[:6 * FILTER_ORDER - 1], cutoff_hz, btype, fs)


def scipy_resample(x, fs):
    """``preprocess.resample`` as it was written on ``scipy.signal``."""
    frac = Fraction(TARGET_FS / fs).limit_denominator(10000)
    y = sps.resample_poly(x, frac.numerator, frac.denominator, window=("kaiser", 5.0))
    n_target = round(len(x) * TARGET_FS / fs)
    return np.pad(y[:n_target], (0, max(0, n_target - len(y))))


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("fs", sorted(set(RAW_RATES) | set(filters.TABLED_RATES)))
def test_resample_is_scipys_resample_poly(kernels, fs, n):
    x = np.random.default_rng([n, int(fs)]).standard_normal(n).cumsum()
    assert np.array_equal(preprocess.resample(x, fs), scipy_resample(x, fs))
    up, down = preprocess._resample_ratio(fs)
    if fs != TARGET_FS:
        assert ((up, down) in filter_table.KAISER) == (fs != UNTABLED_RATE)
        assert np.array_equal(filters.resample_poly(x, up, down, filters.kaiser_taps(up, down)),
                              sps.resample_poly(x, up, down, window=("kaiser", 5.0)))


FIRST_CALLS = """
import os, sys, threading
import numpy as np
sys.setswitchinterval(1e-6)
from hypnopipe import pool, preprocess
assert "hypnopipe.filters" not in sys.modules
os.sched_getaffinity = lambda pid: set(range(4))    # four workers on any machine
gate = threading.Barrier(4)

def first_call(fs):
    gate.wait()
    return preprocess.butter_zero_phase(np.arange(64.0), 0.2, "highpass", fs)

pool.thread_map(first_call, [100.0, 128.0, 256.0, 512.0])
"""


@pytest.mark.parametrize("attempt", range(4))
def test_the_first_filter_calls_may_come_from_several_threads_at_once(attempt):
    """The kernels load under the import lock of ``filters``, so threads that
    make a process's first filter calls together wait for one load."""
    src = os.path.dirname(os.path.dirname(filters.__file__))
    proc = subprocess.run([sys.executable, "-c", FIRST_CALLS], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
