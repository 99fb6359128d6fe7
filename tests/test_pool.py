"""The one thread pool: pooled preprocess, encode and scoring equal a serial map."""

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from hypnopipe import cli, encoding, neuralnet, pool, preprocess, signal_io
from hypnopipe.encoding import CC_TENSORS, MONTAGE, encode_recording
from hypnopipe.errors import SignalTooShort

from conftest import make_montage, synth_recording


def serial(fn, items):
    return [fn(item) for item in items]


@pytest.fixture
def three_cores(monkeypatch):
    """Three cores in the affinity mask, so the pool runs on any machine."""
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 1, 2})


def test_thread_map_runs_at_once_keeps_order_and_raises_the_serial_first_error(
        three_cores):
    together = threading.Barrier(3, timeout=30)   # breaks unless 3 items run at once

    def fn(i):
        if i < 3:
            together.wait()
        if i == 4:
            time.sleep(0.3)                       # fails after item 5 has failed
            raise ValueError("item 4")
        if i == 5:
            raise ValueError("item 5")
        return i * i

    assert pool.thread_map(fn, range(4)) == [0, 1, 4, 9]
    with pytest.raises(ValueError, match="^item 4$"):
        pool.thread_map(fn, range(6))
    with pytest.raises(ValueError, match="^item 4$"):
        serial(fn, [4, 5])


@pytest.mark.parametrize("mode", ["cc", "octave"])
def test_pooled_encoding_equals_a_serial_map(monkeypatch, three_cores, mode):
    montage = make_montage(duration_s=300.0)
    pooled = encode_recording(montage, mode).tensors
    monkeypatch.setattr(encoding, "thread_map", serial)
    alone = encode_recording(montage, mode).tensors
    names = ([name for tensors in CC_TENSORS.values() for name in tensors]
             if mode == "cc" else list(MONTAGE["octave"]))
    assert list(pooled) == list(alone) == names
    for name in names:
        assert np.array_equal(pooled[name], alone[name]), name


def test_pooled_preprocess_equals_a_serial_map(monkeypatch, three_cores):
    spec = {role: {"fs": 256, "sinusoids": [(8.0 + k, 30.0)], "noise_sigma": 5.0}
            for k, role in enumerate(signal_io.ROLES)}
    psg = synth_recording(spec, seed=1, duration_s=600.0)
    ref = preprocess.ReferenceDistribution(mean=np.array([5.0, 0.5, 1.5]),
                                           covariance=np.eye(3))
    pooled, picked = preprocess.preprocess_recording(psg, ref, MONTAGE["octave"])
    monkeypatch.setattr(preprocess, "thread_map", serial)
    alone, picked_alone = preprocess.preprocess_recording(psg, ref, MONTAGE["octave"])
    assert picked == picked_alone
    assert list(pooled.channels) == list(alone.channels) == list(MONTAGE["octave"])
    for role, ch in pooled.channels.items():
        assert np.array_equal(ch.samples, alone.channels[role].samples), role


@pytest.mark.parametrize("mode,encoded", [("FF", "cc"), ("LSTM", "octave")])
def test_pooled_members_equal_a_serial_map(monkeypatch, three_cores, mode, encoded):
    enc = encode_recording(make_montage(duration_s=300.0), encoded)
    base = neuralnet.NetworkConfig(mode=mode, segment_s=5, encoding=encoded)
    # weights 3 times their initial scale, so that each member gives its own
    # hypnodensity rather than about 0.2 for every stage
    models = [({k: v if k.startswith(neuralnet.NORM_PREFIX) else 3.0 * v
                for k, v in neuralnet.init_params(cfg).items()}, cfg)
              for cfg in neuralnet.make_ensemble(base, n=5, seed=3)]
    pooled, pooled_ens = cli._score_ensemble(models, enc)
    monkeypatch.setattr(cli, "thread_map", serial)
    alone, alone_ens = cli._score_ensemble(models, enc)
    assert len(pooled) == len(alone) == 5
    assert not np.array_equal(pooled[0].probs, pooled[1].probs)
    for got, want in zip(pooled, alone):
        assert np.array_equal(got.probs, want.probs)
    assert np.array_equal(pooled_ens.probs, alone_ens.probs)
    assert np.array_equal(pooled_ens.variance, alone_ens.variance)


def test_two_channels_too_short_raise_the_serial_first_error(monkeypatch, three_cores):
    # 0.25 s: 25 samples at 100 Hz and 26 at 104 Hz are fewer than a filter needs
    spec = {role: {"fs": fs, "noise_sigma": 5.0} for role, fs in
            (("EEG_C_LEFT", 256), ("EOG_L", 100), ("EOG_R", 256), ("EMG_CHIN", 104))}
    psg = synth_recording(spec, seed=0, duration_s=0.25)
    to_target_rate = preprocess.to_target_rate

    def eog_l_fails_last(ch):
        if ch.fs == 100:
            time.sleep(0.3)
        return to_target_rate(ch)

    monkeypatch.setattr(preprocess, "to_target_rate", eog_l_fails_last)
    with pytest.raises(SignalTooShort) as pooled:
        preprocess.preprocess_recording(psg, None, MONTAGE["cc"])
    monkeypatch.setattr(preprocess, "thread_map", serial)
    with pytest.raises(SignalTooShort) as alone:
        preprocess.preprocess_recording(psg, None, MONTAGE["cc"])
    assert str(pooled.value) == str(alone.value) == "25 samples < 30"


def test_the_pool_is_the_only_one_in_src():
    src = Path(pool.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "pool.py"
                 and any(tok in p.read_text() for tok in
                         ("concurrent", "multiprocessing", "threading", "Executor"))]
    assert offenders == []
