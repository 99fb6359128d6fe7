import json
import os

import numpy as np
import pytest

from hypnopipe import preprocess, signal_io
from hypnopipe.encoding import MONTAGE
from hypnopipe.errors import (EmptyFile, InvalidSpec, InvalidValues, LengthMismatch,
                              MissingChannel)
from hypnopipe.preprocess import preprocess_recording

from conftest import save_hypnogram, synth_recording

FIVE_CH = {
    "EEG_C_LEFT": {"fs": 256, "sinusoids": [(10, 30)]},
    "EOG_L": {"fs": 256, "sinusoids": [(0.5, 60)]},
    "EOG_R": {"fs": 256, "sinusoids": [(0.5, 60)]},
    "EMG_CHIN": {"fs": 256, "noise_sigma": 8},
    "EEG_O_LEFT": {"fs": 256, "sinusoids": [(9, 20)]},
}


def test_synth_pure_sine_matches_definition():
    spec = {"EEG_C_LEFT": {"fs": 100, "sinusoids": [(10, 50)]}}
    psg = synth_recording(spec, seed=0, duration_s=2)
    n = np.arange(200)
    expect = 50 * np.sin(2 * np.pi * 10 * n / 100)
    assert np.allclose(psg.channels["EEG_C_LEFT"].samples, expect)


def test_synth_deterministic_per_seed():
    spec = {"EMG_CHIN": {"fs": 100, "noise_sigma": 3}}
    a = synth_recording(spec, seed=7, duration_s=10)
    b = synth_recording(spec, seed=7, duration_s=10)
    assert np.array_equal(a.channels["EMG_CHIN"].samples,
                          b.channels["EMG_CHIN"].samples)


def test_synth_noise_variance_matches_sigma():
    spec = {"EMG_CHIN": {"fs": 100, "noise_sigma": 10}}
    psg = synth_recording(spec, seed=1, duration_s=600)
    var = psg.channels["EMG_CHIN"].samples.var()
    assert abs(var - 100) / 100 < 0.05


def test_synth_rejects_negative_amplitude_and_sigma():
    with pytest.raises(InvalidSpec):
        synth_recording(
            {"EOG_L": {"fs": 100, "sinusoids": [(1, -5)]}}, 0, 10)
    with pytest.raises(InvalidSpec):
        synth_recording(
            {"EOG_L": {"fs": 100, "noise_sigma": -1}}, 0, 10)


def test_recording_round_trip_bit_exact(tmp_path):
    psg = synth_recording(FIVE_CH, seed=3, duration_s=60)
    # float32 on disk: snap in-memory samples to f32 before comparing
    path = signal_io.save_recording(psg, str(tmp_path))
    back = signal_io.load_recording(path)
    assert back.recording_id == psg.recording_id
    for role, ch in psg.channels.items():
        assert back.channels[role].fs == ch.fs
        assert np.array_equal(back.channels[role].samples,
                              ch.samples.astype(np.float32).astype(np.float64))


def test_load_sample_count_arithmetic(tmp_path):
    psg = synth_recording(FIVE_CH, seed=3, duration_s=60)
    path = signal_io.save_recording(psg, str(tmp_path))
    back = signal_io.load_recording(path)
    assert all(len(c.samples) == 15360 for c in back.channels.values())


def test_load_missing_blob_names_role(tmp_path):
    psg = synth_recording(FIVE_CH, seed=3, duration_s=60)
    path = signal_io.save_recording(psg, str(tmp_path))
    os.remove(tmp_path / f"{psg.recording_id}.EOG_R.f32le")
    with pytest.raises(MissingChannel, match="EOG_R"):
        signal_io.load_recording(path)


def test_load_truncated_blob_raises(tmp_path):
    psg = synth_recording(FIVE_CH, seed=3, duration_s=60)
    path = signal_io.save_recording(psg, str(tmp_path))
    blob = tmp_path / f"{psg.recording_id}.EOG_L.f32le"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(LengthMismatch):
        signal_io.load_recording(path)


def test_pipeline_validation_requires_central_eeg_and_eog_emg():
    psg = synth_recording(
        {role: {"fs": 100, "noise_sigma": 1.0}
         for role in ("EEG_C_LEFT", "EOG_L", "EOG_R", "EMG_CHIN")}, 0, 10)
    preprocess_recording(psg, None, MONTAGE["cc"])
    del psg.channels["EOG_R"]
    with pytest.raises(MissingChannel, match="EOG_R"):
        preprocess_recording(psg, None, MONTAGE["cc"])


def test_hypnogram_round_trip_and_unknown_tokens(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("epoch_s=30\nW\nN1\nN2\nX?\nREM\n")
    hyp = signal_io.load_hypnogram(str(path))
    assert hyp.epoch_s == 30
    assert hyp.stages == ["W", "N1", "N2", "UNSCORED", "REM"]
    out = tmp_path / "h2.txt"
    save_hypnogram(hyp, str(out))
    assert signal_io.load_hypnogram(str(out)).stages == hyp.stages


def test_hypnogram_empty_file(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("")
    with pytest.raises(EmptyFile):
        signal_io.load_hypnogram(str(path))


def test_meta_json_is_plain_and_complete(tmp_path):
    psg = synth_recording(FIVE_CH, seed=3, duration_s=60)
    path = signal_io.save_recording(psg, str(tmp_path))
    with open(path) as f:
        meta = json.load(f)
    assert set(meta["channels"]) == set(FIVE_CH)
    assert meta["duration_s"] == 60


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_samples(bad):
    psg = synth_recording(FIVE_CH, seed=3, duration_s=10)
    psg.channels["EOG_R"].samples[[17, 900]] = bad
    with pytest.raises(InvalidValues, match=r"EOG_R.*\b17\b"):
        psg.validate()


def test_a_loaded_recording_is_scanned_for_non_finite_samples_once(tmp_path, monkeypatch):
    """``read_bundle`` checks every sample; ``load_recording`` and
    ``preprocess_recording`` do not scan the samples it returned again."""
    psg = synth_recording(FIVE_CH, seed=3, duration_s=10)
    path = signal_io.save_recording(psg, str(tmp_path))
    scanned, isfinite = [], np.isfinite
    monkeypatch.setattr(np, "isfinite",
                        lambda a: (scanned.append(np.size(a)), isfinite(a))[1])
    monkeypatch.setattr(preprocess, "to_target_rate", lambda ch: ch.samples)
    preprocess_recording(signal_io.load_recording(path), None, MONTAGE["cc"])
    assert sum(scanned) == sum(ch.samples.size for ch in psg.channels.values())


def test_samples_not_checked_at_load_are_checked_by_preprocess(tmp_path):
    psg = synth_recording(FIVE_CH, seed=3, duration_s=10)
    loaded = signal_io.load_recording(signal_io.save_recording(psg, str(tmp_path)))
    eog = loaded.channels["EOG_R"]
    with pytest.raises(ValueError, match="read-only"):
        eog.samples[17] = np.nan
    eog.samples = np.where(np.arange(eog.samples.size) == 17, np.nan, eog.samples)
    psg.channels["EOG_R"].samples[17] = np.inf
    for recording in (loaded, psg):
        with pytest.raises(InvalidValues, match=r"EOG_R.*\b17\b"):
            preprocess_recording(recording, None, MONTAGE["cc"])
