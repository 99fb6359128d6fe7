"""scipy's filter designs and kernels without ``import scipy.signal`` (``hypnopipe.filters``).

Preprocessing and octave encoding design their filters with scipy 1.17.1's
own float operations, at any rate, and run them through scipy's compiled
kernels and its ``i0`` ufunc, loaded by file path (or by the regular import
if no file is found).  Every combination gives scipy's designs,
``sosfiltfilt`` and ``resample_poly`` bit for bit.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from hypnopipe import filters, preprocess
from hypnopipe.encoding import OCTAVE_CUTOFFS_HZ
from hypnopipe.errors import SignalTooShort
from hypnopipe.preprocess import FILTER_ORDER, HIGHPASS_HZ, LOWPASS_HZ, TARGET_FS

# the raw rates of test_montage_contract.py and the benchmark's nights
RAW_RATES = (100.0, 128.0, 200.0, 256.0, 500.0, 512.0, 314.159)
BANDS = ((HIGHPASS_HZ, "highpass"), (LOWPASS_HZ, "lowpass"))
LENGTHS = (6 * FILTER_ORDER, 31, 4097)     # the shortest signal filtered, and longer
# the band-limit filters at each raw rate, and the octave cascade at TARGET_FS
BUTTER_KEYS = sorted({(FILTER_ORDER, fs, hz, btype) for fs in RAW_RATES for hz, btype in BANDS}
                     | {(FILTER_ORDER, TARGET_FS, hz, "lowpass") for hz in OCTAVE_CUTOFFS_HZ})


def assert_designs_are_scipys(key):
    """``filters.butter`` and ``filters.kaiser_taps`` at ``key``'s rate equal
    scipy's designs in every bit, the sign of zero included."""
    order, fs, cutoff_hz, btype = key
    sos, zi = filters.butter(order, fs, cutoff_hz, btype)
    want = sps.butter(order, cutoff_hz, btype=btype, fs=fs, output="sos")
    assert sos.tobytes() == want.tobytes(), key
    assert zi.tobytes() == sps.sosfilt_zi(want).tobytes(), key
    up, down = preprocess._resample_ratio(fs)
    if fs != TARGET_FS:
        max_rate = max(up, down)
        want = sps.firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
        assert filters.kaiser_taps(up, down).tobytes() == want.tobytes(), (up, down)


@pytest.fixture(params=["by_path", "by_import"])
def kernels(request, monkeypatch):
    """``filters`` with its kernels and ``i0`` loaded from their files, or with
    the file lookup made to miss and the modules out of ``sys.modules``, so
    that the regular import loads them."""
    if request.param == "by_import":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        for name in ("scipy.signal._sosfilt", "scipy.signal._upfirdn_apply",
                     "scipy.special._special_ufuncs"):
            monkeypatch.delitem(sys.modules, name, raising=False)

        def no_file(*args, **kwargs):
            raise AssertionError("loaded by file path")

        monkeypatch.setattr(importlib.util, "spec_from_file_location", no_file)
        importlib.reload(filters)
    yield request.param
    if request.param == "by_import":
        monkeypatch.undo()
        importlib.reload(filters)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fs=st.floats(100.0, 5000.0), order=st.sampled_from((FILTER_ORDER, 1, 2, 4, 8)))
def test_the_designs_are_scipys_at_every_rate(fs, order):
    for hz, btype in BANDS:
        assert_designs_are_scipys((order, fs, hz, btype))


@pytest.mark.parametrize("key", BUTTER_KEYS, ids=repr)
def test_the_designs_are_scipys_at_the_pipelines_rates(kernels, key):
    assert_designs_are_scipys(key)


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
@pytest.mark.parametrize("fs", RAW_RATES)
def test_resample_is_scipys_resample_poly(kernels, fs, n):
    x = np.random.default_rng([n, int(fs)]).standard_normal(n).cumsum()
    assert np.array_equal(preprocess.resample(x, fs), scipy_resample(x, fs))
    up, down = preprocess._resample_ratio(fs)
    if fs != TARGET_FS:
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

def calls(fs):
    x = np.arange(64.0)
    return preprocess.resample(x, fs), preprocess.butter_zero_phase(x, 0.2, "highpass", fs)

def first_calls(fs):
    gate.wait()
    return calls(fs)

rates = [128.0, 256.0, 512.0, 314.159]
for got, fs in zip(pool.thread_map(first_calls, rates), rates):
    assert all(map(np.array_equal, got, calls(fs)))
"""


@pytest.mark.parametrize("attempt", range(4))
def test_the_first_filter_calls_may_come_from_several_threads_at_once(attempt):
    """The kernels and ``i0`` load under the import lock of ``filters``, so
    threads that make a process's first filter and resampling calls together
    wait for one load, and get what a later call gets."""
    src = os.path.dirname(os.path.dirname(filters.__file__))
    proc = subprocess.run([sys.executable, "-c", FIRST_CALLS], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
