import numpy as np
import pytest

from hypnopipe import neuralnet as nn
from hypnopipe.encoding import CCParams
from hypnopipe.hypnodensity import Hypnodensity
from hypnopipe.signal_io import Channel, PolySignalSet


def make_montage(duration_s=600.0, seed=0, fs=100.0):
    """A ready-to-encode 5-channel montage recording at 100 Hz."""
    rng = np.random.default_rng(seed)
    n = round(fs * duration_s)
    t = np.arange(n) / fs

    def ch(freq, amp, sigma):
        return Channel(samples=amp * np.sin(2 * np.pi * freq * t)
                       + sigma * rng.standard_normal(n), fs=fs)

    channels = {
        "EEG_C": ch(10, 30, 5),
        "EEG_O": ch(9, 20, 5),
        "EOG_L": ch(0.5, 60, 5),
        "EOG_R": ch(0.5, 60, 5),
        "EMG_CHIN": ch(30, 10, 8),
    }
    return PolySignalSet(channels=channels, duration_s=duration_s,
                         recording_id=f"m{seed}")


def random_hypnodensity(rng, n_rows, resolution_s=30, recording_id="r"):
    p = rng.random((n_rows, 5)) + 1e-3
    p = p / p.sum(axis=1, keepdims=True)
    return Hypnodensity(probs=p, resolution_s=resolution_s,
                        recording_id=recording_id)


def cc_lag0_index(params: CCParams, fs: float) -> int:
    """Column of the zero lag in a ``cc_segment`` row."""
    seg_len = int(round(params.segment_s * fs))
    ext_len = int(round(params.extension_s * fs))
    return (ext_len - seg_len) // 2


def zero_params(config: nn.NetworkConfig) -> dict[str, np.ndarray]:
    """``init_params`` with every trainable array set to zero."""
    p = nn.init_params(config)
    for n in nn.trainable_names(p):
        p[n] = np.zeros_like(p[n])
    return p


def grad_check(params, batch, one_hot, config: nn.NetworkConfig,
               n_samples: int = 64, h: float = 1e-4, seed: int = 0) -> float:
    """Max relative error of analytic vs central finite-difference gradients."""
    _, grads, _ = nn.loss_and_grads(params, batch, one_hot, config,
                                    lam=nn.WEIGHT_DECAY, train_mode=False)

    def loss_only():
        probs, _ = nn.forward(params, batch, config, train_mode=False)
        return nn.loss(probs, one_hot, params, nn.WEIGHT_DECAY, config.loss_kind)

    rng = np.random.default_rng(seed)
    names = nn.trainable_names(params)
    sizes = np.array([params[n].size for n in names])
    cum = np.cumsum(sizes)
    total = int(cum[-1])
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    worst = 0.0
    for flat in picks:
        k = int(np.searchsorted(cum, flat, side="right"))
        offset = int(flat - (cum[k - 1] if k > 0 else 0))
        name = names[k]
        idx = np.unravel_index(offset, params[name].shape)
        orig = params[name][idx]
        params[name][idx] = orig + h
        lp = loss_only()
        params[name][idx] = orig - h
        lm = loss_only()
        params[name][idx] = orig
        fd = (lp - lm) / (2 * h)
        an = grads[name][idx]
        denom = max(abs(fd) + abs(an), 1e-8)
        err = abs(fd - an) / denom
        if abs(fd) < 1e-10 and abs(an) < 1e-10:
            err = 0.0
        worst = max(worst, err)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
