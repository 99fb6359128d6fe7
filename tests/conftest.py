import numpy as np
import pytest

from hypnopipe import neuralnet as nn
from hypnopipe.encoding import CCParams
from hypnopipe.errors import InvalidSpec
from hypnopipe.hypnodensity import Hypnodensity
from hypnopipe.signal_io import Channel, HypnogramLabels, PolySignalSet


def synth_recording(spec: dict, seed: int, duration_s: float,
                    recording_id: str = "synthetic") -> PolySignalSet:
    """Deterministic synthetic recording.

    ``spec`` maps role -> {"fs": Hz, "sinusoids": [(freq_hz, amp_uv), ...],
    "noise_sigma": uv}.  Pure function of (spec, seed, duration_s).
    """
    if duration_s <= 0:
        raise InvalidSpec("duration_s must be > 0")
    channels = {}
    for i, (role, chspec) in enumerate(sorted(spec.items())):
        fs = float(chspec["fs"])
        if fs <= 0:
            raise InvalidSpec(f"{role}: fs must be > 0")
        n = round(fs * duration_s)
        t = np.arange(n) / fs
        x = np.zeros(n)
        for freq, amp in chspec.get("sinusoids", []):
            if amp < 0:
                raise InvalidSpec(f"{role}: negative amplitude")
            x += amp * np.sin(2.0 * np.pi * freq * t)
        sigma = chspec.get("noise_sigma", 0.0)
        if sigma < 0:
            raise InvalidSpec(f"{role}: negative noise sigma")
        if sigma > 0:
            # per-channel stream so adding channels does not shift others
            rng = np.random.default_rng([seed, i])
            x += sigma * rng.standard_normal(n)
        channels[role] = Channel(samples=x, fs=fs)
    return PolySignalSet(channels=channels, duration_s=duration_s,
                         recording_id=recording_id)


def save_hypnogram(hyp: HypnogramLabels, path: str) -> None:
    """Write ``hyp`` in the format ``signal_io.load_hypnogram`` reads."""
    with open(path, "w") as f:
        f.write(f"epoch_s={hyp.epoch_s}\n")
        for s in hyp.stages:
            f.write(s + "\n")


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


def eog_one_sample_short(duration_s, roles=("EOG_L", "EOG_R")):
    """``make_montage(duration_s)`` whose EOG channels (or ``roles``) lack
    their last sample, as ``PolySignalSet.validate`` allows."""
    montage = make_montage(duration_s)
    for role in roles:
        ch = montage.channels[role]
        ch.samples = ch.samples[:-1]
    montage.validate()
    return montage


def random_hypnodensity(rng, n_rows, resolution_s=30):
    p = rng.random((n_rows, 5)) + 1e-3
    p = p / p.sum(axis=1, keepdims=True)
    return Hypnodensity(probs=p, resolution_s=resolution_s)


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
               n_samples: int = 64, h: float = 1e-4, seed: int = 0,
               dropout_seed: int | None = None) -> float:
    """Max relative error of analytic vs central finite-difference gradients;
    with ``dropout_seed``, every forward draws its dropout mask from a fresh
    ``default_rng(dropout_seed)``, so all of them use the same mask."""
    def dropout():
        return None if dropout_seed is None else np.random.default_rng(dropout_seed)
    _, grads = nn.loss_and_grads(params, batch, one_hot, config, rng=dropout())

    def loss_only():
        probs, _ = nn.forward(params, batch, config, rng=dropout())
        return nn.loss(probs, one_hot, params)

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
