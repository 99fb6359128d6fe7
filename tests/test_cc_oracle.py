"""CC encoding by block sums (``encoding.cc_segment`` and the chunked
``encode_recording(..., "cc")``) against the per-segment ``np.correlate``
loop and the whole-night encoder it replaced, both kept here verbatim as the
reference.

The block sums add the same products in a different order, so rows differ
from the loop by rounding only.  Over the cases below the largest deviation is
8.1e-16 of the row's peak |value| for raw rows and 8.3e-16 of the window's
peak for encoded windows; ``REL_BOUND`` pins both below 10x the smaller.
Shapes, errors and the zero-row result for short nights must be exactly the
loop's.
"""

import numpy as np
import pytest

from hypnopipe import encoding
from hypnopipe.encoding import (CC_PARAMS, GRID_HOP_S, ROWS_PER_WINDOW, CCParams,
                                cc_scale, segment_starts)
from hypnopipe.errors import EmptySignal, InvalidSpec, MissingChannel, ShapeMismatch

from conftest import make_montage

REL_BOUND = 8e-15
FS = 100.0


# ------------------------------------------ the per-segment loop, kept verbatim

def cc_segment_loop(signal: np.ndarray, fs: float, params: CCParams,
                    opposite: np.ndarray | None = None) -> np.ndarray:
    x = np.asarray(signal, dtype=float)
    ext_src = x if opposite is None else np.asarray(opposite, dtype=float)
    if opposite is not None and len(ext_src) != len(x):
        raise ShapeMismatch("opposite channel length differs")
    seg_len = int(round(params.segment_s * fs))
    ext_len = int(round(params.extension_s * fs))
    wing = (ext_len - seg_len) // 2
    starts = segment_starts(len(x), fs, params)
    padded = np.pad(ext_src, (wing, wing + seg_len))  # generous right pad
    out = np.empty((len(starts), ext_len - seg_len + 1))
    for i, s in enumerate(starts):
        seg = x[s:s + seg_len]
        ext = padded[s:s + ext_len]
        out[i] = np.correlate(ext, seg, mode="valid") / seg_len
    return out


def encode_cc_loop(montage) -> dict:
    fs = 100.0
    for role in ("EEG_C", "EOG_L", "EOG_R", "EMG_CHIN"):
        if role not in montage.channels:
            raise MissingChannel(role)
    eeg, eog_l, eog_r, chin = (montage.channels[role].samples
                               for role in ("EEG_C", "EOG_L", "EOG_R", "EMG_CHIN"))

    # the 4 s EOG segment is the longest; it defines the shared grid
    eog = CC_PARAMS["EOG"]
    n_grid = int(np.floor((montage.duration_s - eog.segment_s) / GRID_HOP_S)) + 1
    n_rows = max(n_grid, 0) // ROWS_PER_WINDOW * ROWS_PER_WINDOW
    emg = CC_PARAMS["EMG"]
    grid_centers = np.arange(n_rows) * GRID_HOP_S + eog.segment_s / 2
    emg_slot = np.round((grid_centers - emg.segment_s / 2) / emg.hop_s).astype(int)

    sources = {"EEG": (eeg, "EEG", None), "EOG_L": (eog_l, "EOG", None),
               "EOG_R": (eog_r, "EOG", None), "EOG_X": (eog_l, "EOG", eog_r),
               "EMG": (chin, "EMG", None)}
    tensors = {}
    for name, (x, kind, opposite) in sources.items():
        scaled = cc_scale(cc_segment_loop(x, fs, CC_PARAMS[kind], opposite))
        rows = (scaled[np.clip(emg_slot, 0, scaled.shape[0] - 1)] if name == "EMG"
                else scaled[:n_rows])
        tensors[name] = rows.reshape(-1, ROWS_PER_WINDOW,
                                     scaled.shape[1]).mean(axis=1)
    return tensors


# ----------------------------------------------------------------- helpers

def rel_dev(got, want):
    """Largest |got - want| over each row's peak |want| (0 for zero rows)."""
    assert got.shape == want.shape
    if want.size == 0:
        return 0.0
    peak = np.max(np.abs(want), axis=1, keepdims=True)
    return float(np.max(np.abs(got - want) / np.where(peak > 0, peak, 1.0)))


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - compared as (type, message)
        return type(e), str(e)


def channels(seed, n):
    """A noisy alpha-like channel and a loosely coupled opposite channel."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    x = 30 * np.sin(2 * np.pi * 10 * t) + 40 * rng.standard_normal(n)
    y = -0.7 * x + 20 * rng.standard_normal(n)
    return x, y


# ---------------------------------------------------------------- cc_segment

@pytest.mark.parametrize("kind,cross", [("EEG", False), ("EOG", False),
                                        ("EOG", True), ("EMG", False)])
@pytest.mark.parametrize("n", [6000, 6001, 6037, 12345])
def test_cc_segment_matches_loop(kind, cross, n):
    x, y = channels(n, n)
    opposite = y if cross else None
    want = cc_segment_loop(x, FS, CC_PARAMS[kind], opposite)
    got = encoding.cc_segment(x, FS, CC_PARAMS[kind], opposite)
    assert rel_dev(got, want) <= REL_BOUND


@pytest.mark.parametrize("params", [
    CCParams(segment_s=0.25, hop_s=0.25, extension_s=0.5),   # one block
    CCParams(segment_s=0.5, hop_s=0.25, extension_s=1.0),    # two blocks
    CCParams(segment_s=0.4, hop_s=0.1, extension_s=0.85),    # odd lag count
])
def test_cc_segment_other_power_of_two_spans_match_loop(params):
    x, y = channels(7, 4001)
    for opposite in (None, y):
        want = cc_segment_loop(x, FS, params, opposite)
        assert rel_dev(encoding.cc_segment(x, FS, params, opposite), want) <= REL_BOUND


@pytest.mark.parametrize("kind", sorted(CC_PARAMS))
def test_cc_segment_shortest_signals_match_loop(kind):
    seg_len = round(CC_PARAMS[kind].segment_s * FS)
    for n in (seg_len - 1, seg_len, seg_len + 1, seg_len + 30):
        x, _ = channels(n, n)
        want = outcome(cc_segment_loop, x, FS, CC_PARAMS[kind])
        got = outcome(encoding.cc_segment, x, FS, CC_PARAMS[kind])
        if isinstance(want, tuple):
            assert got == want == (EmptySignal, "signal shorter than one segment")
        else:
            assert rel_dev(got, want) <= REL_BOUND


def test_cc_segment_length_mismatched_opposite():
    x, y = channels(1, 3000)
    for fn in (cc_segment_loop, encoding.cc_segment):
        with pytest.raises(ShapeMismatch):
            fn(x, FS, CC_PARAMS["EOG"], y[:-1])


@pytest.mark.parametrize("params", [
    CCParams(segment_s=0.3, hop_s=0.1, extension_s=0.6),       # three blocks
    CCParams(segment_s=0.32, hop_s=0.125, extension_s=0.64),   # 12.5-sample hop
])
def test_cc_segment_rejects_segments_that_are_not_2k_hop_blocks(params):
    with pytest.raises(InvalidSpec):
        encoding.cc_segment(np.ones(500), FS, params)


# ---------------------------------------------------------- encode_recording

@pytest.mark.parametrize("duration_s,seed", [(600.0, 0), (600.37, 1), (181.13, 2),
                                             (85.0, 3), (1604.99, 4)])
def test_encoded_windows_match_loop(duration_s, seed):
    """All five tensors, the EMG nearest-slot rows included, over nights
    that end mid-window, mid-segment and on odd sample counts, and one that
    spans several chunks of windows."""
    montage = make_montage(duration_s, seed=seed)
    want = encode_cc_loop(montage)
    got = encoding.encode_recording(montage, "cc").tensors
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert rel_dev(got[name], want[name]) <= REL_BOUND


@pytest.mark.parametrize("duration_s", [0.3, 1.0, 2.5, 3.99, 4.0, 8.0, 8.74])
def test_nights_shorter_than_one_window_match_loop(duration_s):
    montage = make_montage(duration_s)
    want = outcome(encode_cc_loop, montage)
    got = outcome(lambda m: encoding.encode_recording(m, "cc").tensors, montage)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert {k: v.shape for k, v in got.items()} == \
            {k: v.shape for k, v in want.items()}
        assert all(v.shape[0] == 0 for v in got.values())
