import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnopipe import encoding
from hypnopipe.errors import InvalidSpec, NonpositiveP95, ShapeMismatch
from hypnopipe.neuralnet import windows_from_encoded
from conftest import cc_lag0_index, make_montage


def tone(freq, fs, duration_s, amp=1.0):
    t = np.arange(round(fs * duration_s)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


def interior(x):
    q = len(x) // 4
    return x[q:-q]


# ----------------------------------------------------------- robust p95

def test_p95_constant_envelope_equals_single_window():
    x = tone(10, 100, 4 * 3600)
    got = encoding.robust_p95(x, 100)
    expect = np.percentile(np.abs(x[:100 * 90 * 60]), 95)
    assert abs(got - expect) / expect < 0.01


def test_p95_mode_ignores_burst_windows():
    fs = 100
    clean = tone(10, fs, 4 * 3600, amp=1.0)
    burst = clean.copy()
    burst[:fs * 30 * 60] *= 100.0
    clean_val = encoding.robust_p95(clean, fs)
    got = encoding.robust_p95(burst, fs)
    assert abs(got - clean_val) / clean_val < 0.05


def test_p95_short_recording_falls_back_to_global():
    x = tone(10, 100, 45 * 60)
    assert encoding.robust_p95(x, 100) == np.percentile(np.abs(x), 95)


# --------------------------------------------------------- log-modulus

def test_log_modulus_fixed_points():
    p95 = 3.0
    out = encoding.log_modulus_scale(np.array([0.0, p95, -p95]), p95)
    assert out[0] == 0.0
    assert abs(out[1] - np.log(2)) < 1e-12
    assert abs(out[2] + np.log(2)) < 1e-12


def test_log_modulus_rejects_nonpositive_p95():
    with pytest.raises(NonpositiveP95):
        encoding.log_modulus_scale(np.ones(3), 0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=50),
       st.floats(1e-3, 1e3))
def test_log_modulus_odd_and_bounded(values, p95):
    x = np.array(values)
    out = encoding.log_modulus_scale(x, p95)
    neg = encoding.log_modulus_scale(-x, p95)
    assert np.allclose(out, -neg)
    assert np.all(np.abs(out) <= np.log(np.abs(x) / p95 + 1.0) + 1e-12)


# --------------------------------------------------------------- octave

def test_octave_cutoff_constants():
    assert encoding.OCTAVE_CUTOFFS_HZ == (49.0, 25.0, 12.5, 6.25, 3.125)


def test_octave_energy_nesting():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(60000)
    casc = encoding.octave_cascade(x, 100.0)
    energies = (casc ** 2).sum(axis=1)
    assert np.all(np.diff(energies) <= 1e-9)


def test_octave_40hz_band_placement():
    x = tone(40, 100, 600)
    casc = encoding.octave_cascade(x, 100.0)
    a49 = np.max(np.abs(interior(casc[0])))
    a25 = np.max(np.abs(interior(casc[1])))
    assert 20 * np.log10(a49 / 1.0) > -3
    assert 20 * np.log10(a25 / a49) < -20


def test_octave_subtraction_recovers_high_band():
    x = tone(40, 100, 600)
    casc = encoding.octave_cascade(x, 100.0)
    diff = casc[0] - casc[1]
    a49 = np.max(np.abs(interior(casc[0])))
    assert np.max(np.abs(interior(diff))) >= 0.9 * a49


def test_octave_2hz_survives_every_band():
    x = tone(2, 100, 600)
    casc = encoding.octave_cascade(x, 100.0)
    for band in casc:
        assert 20 * np.log10(np.max(np.abs(interior(band)))) > -3


def test_octave_zero_in_zero_out():
    out = encoding.octave_encode(np.zeros(6000), 100.0)
    assert out.shape == (5, 6000)
    assert np.all(out == 0.0)


# ------------------------------------------------------------------- cc

def test_cc_lag0_is_power_of_unit_sine():
    fs = 100.0
    params = encoding.CC_PARAMS["EEG"]
    x = tone(5, fs, 20)
    g = encoding.cc_segment(x, fs, params)
    i0 = cc_lag0_index(params, fs)
    row = 20  # interior, extension fully inside the recording
    start = round(row * params.hop_s * fs)
    seg = x[start:start + round(params.segment_s * fs)]
    power = float(np.mean(seg ** 2))
    assert abs(g[row, i0] - power) / power < 1e-6
    assert abs(power - 0.5) < 1e-12


def test_cc_lag0_dominates_interior_segments():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2000)
    params = encoding.CC_PARAMS["EEG"]
    g = encoding.cc_segment(x, 100.0, params)
    i0 = cc_lag0_index(params, 100.0)
    for row in range(8, len(g) - 8):
        assert g[row, i0] >= np.max(np.abs(g[row])) - 1e-12


def test_cc_white_noise_decorrelates_fast():
    params = encoding.CC_PARAMS["EEG"]
    i0 = cc_lag0_index(params, 100.0)
    ratios = []
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal(3000)
        g = encoding.cc_segment(x, 100.0, params)
        row = g[10]
        far = np.abs(np.concatenate([row[:i0 - 5], row[i0 + 6:]]))
        ratios.append(far / row[i0])
    # per-lag ratio averaged across seeds stays small beyond +/- 5 samples
    assert np.max(np.mean(ratios, axis=0)) < 0.15


def test_cc_cross_of_mirrored_eog():
    params = encoding.CC_PARAMS["EOG"]
    left = tone(0.5, 100, 30)
    right = -left
    g_auto = encoding.cc_segment(left, 100.0, params)
    g_cross = encoding.cc_segment(left, 100.0, params, opposite=right)
    i0 = cc_lag0_index(params, 100.0)
    assert np.allclose(g_cross[:, i0], -g_auto[:, i0])


def test_cc_cross_length_mismatch():
    params = encoding.CC_PARAMS["EOG"]
    with pytest.raises(ShapeMismatch):
        encoding.cc_segment(np.zeros(1000), 100.0, params,
                            opposite=np.zeros(999))


def test_cc_scale_substitution_and_degenerate():
    g = np.array([[0.5, -1.0, 0.25]])
    scaled = encoding.cc_scale(g)
    assert np.allclose(scaled, g * np.log(2.0))
    assert np.all(encoding.cc_scale(np.zeros((2, 4))) == 0.0)


def test_cc_scale_preserves_argmax():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((10, 21))
    scaled = encoding.cc_scale(g)
    assert np.array_equal(np.argmax(np.abs(scaled), axis=1),
                          np.argmax(np.abs(g), axis=1))


# ------------------------------------------------------ encode_recording

def test_cc_grid_row_count_10min():
    montage = make_montage(600.0)
    enc = encoding.encode_recording(montage, "cc")
    # 2385 grid slots of 0.25 s hold 119 whole 5 s windows
    assert all(t.shape[0] == 119 for t in enc.tensors.values())
    assert enc.tensors["EEG"].shape[1] == 201
    assert enc.tensors["EOG_L"].shape[1] == 401
    assert enc.tensors["EMG"].shape[1] == 41


def test_octave_tensor_shapes_10min():
    montage = make_montage(600.0)
    enc = encoding.encode_recording(montage, "octave")
    assert len(enc.tensors) == 5
    total_channels = sum(t.shape[0] for t in enc.tensors.values())
    assert total_channels == 25
    assert all(t.shape[1] == 60000 for t in enc.tensors.values())


def test_encoding_is_deterministic():
    montage = make_montage(120.0)
    a = encoding.encode_recording(montage, "cc")
    b = encoding.encode_recording(montage, "cc")
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_encoded_round_trip(tmp_path):
    montage = make_montage(120.0)
    enc = encoding.encode_recording(montage, "cc")
    path = enc.save(str(tmp_path))
    back = encoding.EncodedRecording.load(path)
    assert back.mode == "cc"
    for name, t in enc.tensors.items():
        assert np.array_equal(back.tensors[name],
                              t.astype(np.float32).astype(np.float64))


def test_unknown_encoding_mode_is_invalid_spec():
    with pytest.raises(InvalidSpec):
        encoding.encode_recording(make_montage(60.0), "wavelet")


# ------------------------------------------------------------- windowing

@pytest.fixture(scope="module")
def montage_600s():
    return make_montage(600.0)


def grid_then_average(montage, segment_s):
    """Oracle: every scaled CC segment on the 0.25 s grid (EMG by nearest
    center), then the mean of each window's rows, one window at a time."""
    fs, params = 100.0, encoding.CC_PARAMS
    ch = {role: c.samples for role, c in montage.channels.items()}
    n_grid = int(np.floor((montage.duration_s - 4.0) / 0.25)) + 1

    def scaled(role, kind, opposite=None):
        return encoding.cc_scale(encoding.cc_segment(ch[role], fs, params[kind],
                                                     opposite))

    grid = {"EEG": scaled("EEG_C", "EEG")[:n_grid],
            "EOG_L": scaled("EOG_L", "EOG")[:n_grid],
            "EOG_R": scaled("EOG_R", "EOG")[:n_grid],
            "EOG_X": scaled("EOG_L", "EOG", ch["EOG_R"])[:n_grid]}
    emg = scaled("EMG_CHIN", "EMG")
    centers = np.arange(n_grid) * 0.25 + 4.0 / 2
    slot = np.round((centers - 0.4 / 2) / 0.15).astype(int)
    grid["EMG"] = emg[np.clip(slot, 0, len(emg) - 1)]
    rows = round(segment_s / 0.25)
    windows = []
    for j in range(n_grid // rows):
        sl = slice(j * rows, (j + 1) * rows)
        windows.append({
            "EEG": grid["EEG"][sl].mean(axis=0)[None, :],
            "EOG": np.stack([grid[k][sl].mean(axis=0)
                             for k in ("EOG_L", "EOG_R", "EOG_X")]),
            "EMG": grid["EMG"][sl].mean(axis=0)[None, :]})
    return {m: np.stack([w[m] for w in windows]) for m in ("EEG", "EOG", "EMG")}


@pytest.mark.parametrize("segment_s,tol", [(5, 0.0), (15, 1e-12), (30, 1e-12)])
def test_cc_windows_match_grid_then_average(montage_600s, segment_s, tol):
    enc = encoding.encode_recording(montage_600s, "cc")
    got = windows_from_encoded(enc, segment_s)
    want = grid_then_average(montage_600s, segment_s)
    for m in want:
        assert got[m].shape == want[m].shape
        assert got[m].flags.c_contiguous
        if tol == 0.0:
            assert np.array_equal(got[m], want[m])
        else:
            assert np.max(np.abs(got[m] - want[m])) <= tol


@pytest.mark.parametrize("segment_s", [5, 30])
def test_octave_windows_are_slices(montage_600s, segment_s):
    enc = encoding.encode_recording(montage_600s, "octave")
    got = windows_from_encoded(enc, segment_s)
    t, width = enc.tensors, segment_s * 100
    n = 60000 // width
    for j in (0, n // 2, n - 1):
        sl = slice(j * width, (j + 1) * width)
        want = {"EEG": np.concatenate([t["EEG_C"][:, sl], t["EEG_O"][:, sl]]),
                "EOG": np.concatenate([t["EOG_L"][:, sl], t["EOG_R"][:, sl]]),
                "EMG": t["EMG_CHIN"][:, sl]}
        for m in want:
            assert np.array_equal(got[m][j], want[m])
    assert all(x.shape[0] == n and x.flags.c_contiguous for x in got.values())


def test_windows_need_one_whole_window():
    enc = encoding.encode_recording(make_montage(8.0), "cc")
    assert all(t.shape[0] == 0 for t in enc.tensors.values())
    with pytest.raises(ShapeMismatch):
        windows_from_encoded(enc, 5)
