import numpy as np
import pytest

from hypnopipe import preprocess, signal_io
from hypnopipe.encoding import MONTAGE
from hypnopipe.errors import (
    AllDegenerate,
    DegenerateSegment,
    InvalidValues,
    LengthMismatch,
    MissingChannel,
    SingularCovariance,
    UnsupportedRate,
)

from conftest import synth_recording


def tone(freq, fs, duration_s, amp=1.0):
    t = np.arange(round(fs * duration_s)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


def projected_amplitude(x, freq, fs):
    """Amplitude of the `freq` component, robust to sample phase."""
    t = np.arange(len(x)) / fs
    c = x @ np.exp(-2j * np.pi * freq * t)
    return 2 * abs(c) / len(x)


def interior(x):
    q = len(x) // 4
    return x[q:-q]


def test_dc_is_rejected():
    y = preprocess.bandlimit(np.full(12000, 100.0), 200.0)
    assert np.max(np.abs(interior(y))) < 1e-3


def test_passband_tone_preserved():
    y = preprocess.bandlimit(tone(10, 200, 60), 200.0)
    assert abs(np.max(np.abs(interior(y))) - 1.0) < 0.01


def test_stopband_70hz_attenuated_30db():
    y = preprocess.bandlimit(tone(70, 200, 60), 200.0)
    residual = np.max(np.abs(interior(y)))
    assert 20 * np.log10(residual) < -30


def test_filtering_is_zero_phase():
    x = tone(10, 200, 60)
    y = preprocess.bandlimit(x, 200.0)
    a, b = interior(x), interior(y)
    xc = np.correlate(a, b, mode="full")
    assert np.argmax(xc) == len(a) - 1


def test_bandlimit_is_linear():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(4000), rng.standard_normal(4000)
    lhs = preprocess.bandlimit(2.0 * x + 3.0 * y, 200.0)
    rhs = 2.0 * preprocess.bandlimit(x, 200.0) + 3.0 * preprocess.bandlimit(y, 200.0)
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-9


def test_bandlimit_rejects_low_rate():
    with pytest.raises(UnsupportedRate):
        preprocess.bandlimit(np.zeros(1000), 80.0)


def test_resample_preserves_tone_amplitude():
    y = preprocess.resample(tone(10, 200, 60), 200)
    assert abs(projected_amplitude(interior(y), 10, 100) - 1.0) < 0.02


def test_resample_identity_at_target_rate():
    x = tone(10, 100, 10)
    assert np.array_equal(preprocess.resample(x, 100), x)


def test_resample_length_arithmetic():
    y = preprocess.resample(tone(5, 256, 60), 256)
    assert len(y) == 6000


def test_resample_refuses_upsampling():
    with pytest.raises(UnsupportedRate):
        preprocess.resample(np.zeros(100), 50)


def test_hjorth_of_sine():
    activity, mobility, _ = preprocess.hjorth(2.0 * tone(5, 100, 30))
    assert abs(activity - 2.0) < 0.01
    assert abs(mobility - 2 * np.sin(np.pi * 5 / 100)) < 1e-3


def test_hjorth_white_noise_complexity_above_one():
    for seed in range(10):
        x = np.random.default_rng(seed).standard_normal(3000)
        assert preprocess.hjorth(x)[2] > 1.0


def test_hjorth_rejects_constant():
    with pytest.raises(DegenerateSegment):
        preprocess.hjorth(np.full(100, 3.0))


def _clean(seed, duration_s=600, fs=100.0):
    rng = np.random.default_rng(seed)
    n = round(fs * duration_s)
    t = np.arange(n) / fs
    return (30 * np.sin(2 * np.pi * 10 * t) + 5 * rng.standard_normal(n))


def _ref_from_clean(n=8):
    recs = []
    for seed in range(n):
        recs.append(signal_io.PolySignalSet(
            channels={"EEG_C_LEFT": signal_io.Channel(_clean(seed), 100.0)},
            duration_s=600, recording_id=f"r{seed}"))
    return preprocess.fit_reference(recs)


def test_reference_is_fitted_at_the_target_rate():
    # the processed copies are band-limited a second time, which moves the
    # log-Hjorth mean by ~1e-3; fitted on the raw rate it moves by 0.4-1.1
    raw = [signal_io.PolySignalSet(
        channels={role: signal_io.Channel(_clean([seed, k], fs=256.0), 256.0)
                  for k, role in enumerate(signal_io.CENTRAL_EEG)},
        duration_s=600, recording_id=f"r{seed}") for seed in range(6)]
    processed = [signal_io.PolySignalSet(
        channels={role: signal_io.Channel(preprocess.to_target_rate(ch), 100.0)
                  for role, ch in psg.channels.items()},
        duration_s=600, recording_id=psg.recording_id) for psg in raw]
    a, b = preprocess.fit_reference(raw), preprocess.fit_reference(processed)
    assert np.max(np.abs(a.mean - b.mean)) < 0.01


def test_a_constant_central_channel_is_left_out_of_the_reference():
    """A DC line is not constant once high-passed, but it is left out as its
    raw samples are all equal: the fit is the fit without that channel."""
    def calibration(left):
        recs = [signal_io.PolySignalSet(
            channels={role: signal_io.Channel(_clean([seed, k]), 100.0)
                      for k, role in enumerate(signal_io.CENTRAL_EEG)},
            duration_s=600, recording_id=f"r{seed}") for seed in range(5)]
        if left is None:
            del recs[2].channels["EEG_C_LEFT"]
        else:
            recs[2].channels["EEG_C_LEFT"] = signal_io.Channel(np.full(60000, left), 100.0)
        return preprocess.fit_reference(recs)

    dropped = calibration(None)
    for level in (0.0, 50.0):
        fit = calibration(level)
        assert np.array_equal(fit.mean, dropped.mean)
        assert np.array_equal(fit.covariance, dropped.covariance)


def test_a_calibration_night_without_a_usable_central_channel_is_refused():
    recs = [signal_io.PolySignalSet(
        channels={"EEG_C_LEFT": signal_io.Channel(_clean(seed), 100.0)},
        duration_s=600, recording_id=f"r{seed}") for seed in range(5)]
    recs[1].channels["EEG_C_LEFT"] = signal_io.Channel(np.full(60000, 50.0), 100.0)
    with pytest.raises(AllDegenerate, match="^EEG_C: every candidate is constant: EEG_C_LEFT$"):
        preprocess.fit_reference(recs)
    recs[1].channels = {"EOG_L": recs[0].channels["EEG_C_LEFT"]}
    with pytest.raises(MissingChannel):
        preprocess.fit_reference(recs)


@pytest.mark.parametrize("bad,error,message", [
    ("nan", InvalidValues, "EEG_C_LEFT has a non-finite value at flat index 100"),
    ("inf", InvalidValues, "EEG_C_LEFT has a non-finite value at flat index 100"),
    ("-inf", InvalidValues, "EEG_C_LEFT has a non-finite value at flat index 100"),
    ("short", LengthMismatch, "EEG_C_LEFT: 59998 samples, expected 60000±1"),
], ids=["nan", "inf", "-inf", "short"])
def test_a_calibration_night_is_validated_as_a_night_to_preprocess(bad, error, message):
    """``fit_reference`` refuses what ``preprocess_recording`` refuses, with
    ``validate``'s error: a NaN was dropped as if constant, an infinity fitted."""
    recs = [signal_io.PolySignalSet(
        channels={role: signal_io.Channel(_clean([seed, k]), 100.0)
                  for k, role in enumerate(signal_io.CENTRAL_EEG)},
        duration_s=600, recording_id=f"r{seed}") for seed in range(5)]
    left = recs[2].channels["EEG_C_LEFT"]
    if bad == "short":
        left.samples = left.samples[:-2]
    else:
        left.samples[100] = float(bad)
    for fn in (recs[2].validate, lambda: preprocess.fit_reference(recs)):
        with pytest.raises(error, match=f"^{message}$"):
            fn()


def test_a_segment_of_mobility_zero_is_left_out_of_the_hjorth_average():
    """An integer ramp's first difference is constant, so its mobility is 0
    and has no log: the segment is skipped, not averaged in as -inf."""
    seg = int(preprocess.SELECTION_SEGMENT_S * preprocess.TARGET_FS)
    ramp, clean = np.arange(seg, dtype=float), _clean(7, duration_s=300)
    assert preprocess.hjorth(ramp)[1] == 0.0
    assert preprocess._avg_log_hjorth(ramp) is None
    assert np.array_equal(preprocess._avg_log_hjorth(np.concatenate([ramp, clean])),
                          preprocess._avg_log_hjorth(clean))


def test_fit_reference_needs_four_recordings():
    with pytest.raises(SingularCovariance):
        preprocess.fit_reference([])


def test_reference_covariance_is_cholesky_factorable():
    ref = _ref_from_clean()
    np.linalg.cholesky(ref.covariance)


def test_reference_json_round_trip():
    ref = _ref_from_clean()
    back = preprocess.ReferenceDistribution.from_json(ref.to_json())
    assert np.allclose(back.mean, ref.mean)
    assert np.allclose(back.covariance, ref.covariance)


def test_selection_prefers_clean_channel():
    ref = _ref_from_clean()
    clean = _clean(99)
    noisy = 5.0 * _clean(98) + 50 * np.random.default_rng(1).standard_normal(len(clean))
    chosen = preprocess.select_eeg_channel(
        [("LEFT", noisy), ("RIGHT", clean)], ref)
    assert chosen == "RIGHT"


def test_flatline_is_worse_than_any_clean_channel():
    ref = _ref_from_clean()
    # a flat channel never yields a usable statistic vector at all
    with pytest.raises(AllDegenerate):
        preprocess.select_eeg_channel([("A", np.zeros(60000))], ref)


def test_all_degenerate_names_the_site_and_its_candidates():
    spec = {role: {"fs": 128, "sinusoids": [(10, 30)], "noise_sigma": 5}
            for role in signal_io.ROLES}
    spec.update({role: {"fs": 128} for role in signal_io.OCCIPITAL_EEG})
    psg = synth_recording(spec, seed=0, duration_s=60)
    with pytest.raises(AllDegenerate, match="^EEG_O: every candidate is constant: "
                                            "EEG_O_LEFT, EEG_O_RIGHT$"):
        preprocess.preprocess_recording(psg, _ref_from_clean(), MONTAGE["octave"])


def test_a_site_degenerate_once_filtered_is_named():
    """Candidates that vary raw, by one subnormal sample, and are constant at
    TARGET_FS: selection finds no Hjorth vector, and the error names the site."""
    spec = {role: {"fs": 128, "sinusoids": [(10, 30)], "noise_sigma": 5}
            for role in signal_io.ROLES}
    psg = synth_recording(spec, seed=0, duration_s=60)
    for role in signal_io.CENTRAL_EEG:
        x = np.zeros_like(psg.channels[role].samples)
        x[100] = 5e-324
        psg.channels[role].samples = x
    with pytest.raises(AllDegenerate, match="^EEG_C: every candidate is degenerate: "
                                            "EEG_C_LEFT, EEG_C_RIGHT$"):
        preprocess.preprocess_recording(psg, _ref_from_clean(), MONTAGE["cc"])


def test_single_candidate_wins_by_default():
    ref = _ref_from_clean()
    assert preprocess.select_eeg_channel([("ONLY", _clean(5))], ref) == "ONLY"


def test_selection_at_mean_has_zero_distance():
    ref = _ref_from_clean()
    assert ref.mahalanobis(ref.mean) == 0.0


@pytest.mark.parametrize("mode,dropped,missing", [
    ("cc", ("EMG_CHIN",), "EMG_CHIN"),
    ("cc", ("EEG_C_LEFT", "EEG_C_RIGHT"), "EEG_C_LEFT|EEG_C_RIGHT"),
    ("octave", ("EEG_O_LEFT", "EEG_O_RIGHT"), "EEG_O_LEFT|EEG_O_RIGHT"),
])
def test_a_role_with_no_channel_is_missing(monkeypatch, mode, dropped, missing):
    psg = synth_recording({role: {"fs": 100} for role in signal_io.ROLES}, 0, 10)
    for role in dropped:
        del psg.channels[role]
    monkeypatch.setattr(preprocess, "bandlimit", None)    # nothing is processed
    with pytest.raises(MissingChannel) as e:
        preprocess.preprocess_recording(psg, None, MONTAGE[mode])
    assert e.value.role == missing


def test_preprocess_recording_builds_montage():
    spec = {
        "EEG_C_LEFT": {"fs": 128, "sinusoids": [(10, 30)], "noise_sigma": 5},
        "EEG_C_RIGHT": {"fs": 128, "sinusoids": [(10, 30)], "noise_sigma": 5},
        "EEG_O_LEFT": {"fs": 128, "sinusoids": [(9, 20)], "noise_sigma": 5},
        "EOG_L": {"fs": 128, "sinusoids": [(0.5, 60)], "noise_sigma": 5},
        "EOG_R": {"fs": 128, "sinusoids": [(0.5, 60)], "noise_sigma": 5},
        "EMG_CHIN": {"fs": 128, "noise_sigma": 8},
    }
    psg = synth_recording(spec, seed=0, duration_s=60)
    montage, report = preprocess.preprocess_recording(psg, None, MONTAGE["octave"])
    assert set(montage.channels) == {"EEG_C", "EEG_O", "EOG_L", "EOG_R", "EMG_CHIN"}
    assert all(c.fs == 100.0 for c in montage.channels.values())
    assert report["EEG_C"] in ("EEG_C_LEFT", "EEG_C_RIGHT")


@pytest.mark.parametrize("with_ref,n_calls,mode,flat", [
    pytest.param(False, 5, "octave", (), id="False-5"),
    pytest.param(True, 7, "octave", (), id="True-7"),
    pytest.param(False, 4, "cc", (), id="cc-False-4"),
    pytest.param(True, 5, "cc", (), id="cc-True-5"),
    pytest.param(True, 4, "cc", ("EEG_C_LEFT",), id="cc-True-flat-4"),
])
def test_only_channels_selection_can_use_are_band_limited(monkeypatch, with_ref, n_calls,
                                                          mode, flat):
    spec = {role: {"fs": 128} if role in flat else
            {"fs": 128, "sinusoids": [(10, 30)], "noise_sigma": 5}
            for role in signal_io.ROLES}
    psg = synth_recording(spec, seed=0, duration_s=60)
    ref = _ref_from_clean() if with_ref else None
    bandlimit, calls = preprocess.bandlimit, []

    def counted(x, fs):
        calls.append(fs)
        return bandlimit(x, fs)

    monkeypatch.setattr(preprocess, "bandlimit", counted)
    montage, report = preprocess.preprocess_recording(psg, ref, MONTAGE[mode])
    assert len(calls) == n_calls
    assert tuple(montage.channels) == MONTAGE[mode]
    if not with_ref:
        assert report == {site: group[0] for site, group in signal_io.SITES.items()
                          if site in MONTAGE[mode]}
    assert not set(report.values()) & set(flat)
    sources = {**report, "EOG_L": "EOG_L", "EOG_R": "EOG_R", "EMG_CHIN": "EMG_CHIN"}
    for site, role in sources.items():
        ch = psg.channels[role]
        want = preprocess.resample(bandlimit(ch.samples, ch.fs), ch.fs)
        assert np.array_equal(montage.channels[site].samples, want)
