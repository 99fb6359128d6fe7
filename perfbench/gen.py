"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its arguments: the same seed gives
the same arrays, and the same bytes on disk.  The program under test only
ever sees the files that ``setup_night`` and ``setup_cohort`` write.
"""

from __future__ import annotations

import json
import os

import numpy as np

from hypnopipe import diagnosis, features, hypnodensity, neuralnet, preprocess, signal_io

FS_RAW = 256.0
EPOCH_S = 30
RESOLUTION_S = 5          # hypnodensity rows per 5 s, as the ensemble scores them
N_MEMBERS = 16
GP_FIT_NIGHTS = 40        # small cohort the nights' GP is fitted on at setup
N_SELECTED = diagnosis.RFE_TARGET_COUNT
OUT_GAIN = 12.0           # softmax input scale: members score confidently

# Per-epoch stage transition matrices (rows: from W, N1, N2, N3, REM).
# The narcolepsy chain enters REM from wake and N1, and fragments N2.
_CONTROL = np.array([
    [0.90, 0.08, 0.015, 0.0, 0.005],
    [0.05, 0.75, 0.17, 0.0, 0.03],
    [0.02, 0.03, 0.88, 0.05, 0.02],
    [0.01, 0.0, 0.06, 0.93, 0.0],
    [0.03, 0.03, 0.04, 0.0, 0.90],
])
_NARCOLEPSY = np.array([
    [0.89, 0.08, 0.015, 0.0, 0.015],
    [0.05, 0.74, 0.17, 0.0, 0.04],
    [0.025, 0.035, 0.87, 0.05, 0.02],
    [0.01, 0.0, 0.06, 0.93, 0.0],
    [0.035, 0.03, 0.04, 0.0, 0.895],
])

# Stage-dependent amplitudes (uV) per epoch, indexed W, N1, N2, N3, REM.
_ALPHA_C = (14.0, 4.0, 2.0, 2.0, 3.0)
_ALPHA_O = (30.0, 6.0, 3.0, 2.0, 4.0)
_THETA = (3.0, 12.0, 6.0, 4.0, 10.0)
_SIGMA = (0.0, 2.0, 25.0, 4.0, 0.0)
_DELTA = (4.0, 8.0, 18.0, 70.0, 5.0)
_SACCADE = (15.0, 0.0, 0.0, 0.0, 80.0)
_SLOW_EYE = (20.0, 45.0, 5.0, 0.0, 5.0)
_EMG = (20.0, 12.0, 8.0, 7.0, 2.0)


def hypnogram(rng: np.random.Generator, n_epochs: int,
              narcoleptic: bool = False) -> np.ndarray:
    """Stage indices (0=W .. 4=REM) for ``n_epochs`` 30 s epochs.

    The night opens with a few wake epochs, then follows a Markov chain.
    """
    cum = np.cumsum(_NARCOLEPSY if narcoleptic else _CONTROL, axis=1)
    u = rng.random(n_epochs)
    out = np.zeros(n_epochs, dtype=np.int64)
    state = 0
    for i in range(4, n_epochs):
        state = min(int(np.searchsorted(cum[state], u[i], side="right")), 4)
        out[i] = state
    return out


def night(seed: int, duration_s: float, recording_id: str = "night",
          fs: float = FS_RAW, bad_channel: bool = True) -> signal_io.PolySignalSet:
    """Seven raw channels whose per-epoch content follows a seeded hypnogram.

    Alpha marks W, sigma bursts N2, delta N3, and REM carries EOG saccades with
    a low chin EMG.  With ``bad_channel`` one EEG candidate per site carries
    extra broadband noise, so channel selection has a real choice to make.
    """
    rng = np.random.default_rng([seed, 1])
    n_ep = int(duration_s // EPOCH_S)
    stages = hypnogram(rng, n_ep)
    per_ep = int(round(EPOCH_S * fs))
    n = round(fs * duration_s)
    t = np.arange(n) / fs

    def env(table):
        amp = np.asarray(table)[stages] * rng.lognormal(0.0, 0.2, n_ep)
        full = np.repeat(amp, per_ep)
        return np.pad(full, (0, n - len(full)), mode="edge")[:n]

    def tone(freq):
        return np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))

    # spindle-like bursts: ~1 s of sigma every ~4 s
    bursts = np.maximum(np.sin(2 * np.pi * 0.25 * t), 0.0) ** 8
    saccades = np.sign(np.sin(2 * np.pi * 0.6 * t + 2 * np.sin(2 * np.pi * 0.13 * t)))
    slow_eye = tone(0.3)
    delta = env(_DELTA) * tone(1.5)

    def eeg(alpha):
        return (env(alpha) * tone(10.0) + env(_THETA) * tone(6.0)
                + env(_SIGMA) * bursts * tone(13.0) + delta
                + 6.0 * rng.standard_normal(n))

    channels = {}
    bad = int(rng.integers(2))
    for pair, alpha in ((signal_io.CENTRAL_EEG, _ALPHA_C), (signal_io.OCCIPITAL_EEG, _ALPHA_O)):
        for k, role in enumerate(pair):
            x = eeg(alpha)
            if bad_channel and k == bad:
                x += 25.0 * rng.standard_normal(n) + 20.0 * tone(40.0)
            channels[role] = x
    eye = env(_SACCADE) * saccades + env(_SLOW_EYE) * slow_eye
    channels["EOG_L"] = eye + 0.3 * delta + 5.0 * rng.standard_normal(n)
    channels["EOG_R"] = -eye + 0.3 * delta + 5.0 * rng.standard_normal(n)
    channels["EMG_CHIN"] = (env(_EMG) + 1.0) * rng.standard_normal(n)
    return signal_io.PolySignalSet(
        channels={r: signal_io.Channel(samples=x, fs=fs) for r, x in channels.items()},
        duration_s=float(duration_s), recording_id=recording_id)


def reference(seed: int, n: int = 6, duration_s: float = 600.0) -> preprocess.ReferenceDistribution:
    """Log-Hjorth reference fitted on short clean 100 Hz calibration nights."""
    cal = [night(seed * 1000 + 500 + i, duration_s, fs=preprocess.TARGET_FS, bad_channel=False)
           for i in range(n)]
    return preprocess.fit_reference(cal)


def _rescale(params: dict, out_gain: float) -> None:
    """Scale the N(0, 0.01) draws of ``init_params`` to fan-in variance.

    At the init variance every member outputs ~0.2 for every stage, and a
    reference check on such a flat hypnodensity would test nothing.
    """
    std0 = np.sqrt(neuralnet.INIT_VARIANCE)
    for name, w in params.items():
        if not name.endswith("w") or name.startswith(neuralnet.NORM_PREFIX):
            continue
        fan_in = int(np.prod(w.shape[1:]))
        if name.startswith("lstm/wh"):
            gain = 1.0
        elif name.startswith("out/"):
            gain = out_gain
        else:
            gain = np.sqrt(2.0)
        params[name] = w * (gain / np.sqrt(fan_in) / std0)


def ensemble(seed: int, directory: str, encoding: str, mode: str,
             n: int = N_MEMBERS) -> None:
    """``n`` members from ``make_ensemble`` over the low-complexity config."""
    template = neuralnet.NetworkConfig(
        mode=mode, complexity="low", segment_s=RESOLUTION_S, encoding=encoding,
        modality_shapes=neuralnet.modality_shapes_for(encoding, RESOLUTION_S),
        seed=seed)
    for i, cfg in enumerate(neuralnet.make_ensemble(template, n=n, seed=seed)):
        params = neuralnet.init_params(cfg)
        _rescale(params, OUT_GAIN)
        neuralnet.save_params(params, cfg, directory, f"model{i:02d}")


def cohort_arrays(seed: int, n: int, hours: float,
                  min_conf: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(probs (n, rows, 5), labels (n,)) at 5 s resolution.

    Narcolepsy nights come from the narcolepsy chain, score less confidently
    and mix wake with REM, so RFE finds real columns and the GP separates the
    classes.  Each night's confidence is further scaled by U(min_conf, 1).
    """
    rng = np.random.default_rng([seed, 3])
    labels = rng.random(n) < 0.4
    labels[:2] = (False, True)
    n_ep = int(hours * 3600 // EPOCH_S)
    reps = EPOCH_S // RESOLUTION_S
    stages = np.stack([hypnogram(rng, n_ep, bool(y)) for y in labels])
    stages = np.repeat(stages, reps, axis=1)                    # (n, rows)
    onehot = np.eye(5)[stages]
    conf = rng.normal(np.where(labels, 3.1, 3.2), 0.4) * rng.uniform(min_conf, 1.0, n)
    conf = conf[:, None, None]
    logits = conf * onehot + rng.normal(0.0, 1.0, onehot.shape)
    mix = np.where(labels, 0.1, 0.0)[:, None]
    logits[..., 0] += mix * onehot[..., 4]
    logits[..., 4] += mix * onehot[..., 0]
    logits -= logits.max(axis=2, keepdims=True)
    probs = np.exp(logits)
    return probs / probs.sum(axis=2, keepdims=True), labels.astype(np.int64)


def feature_matrix(probs: np.ndarray) -> np.ndarray:
    """The 481 features of each hypnodensity in ``probs`` (n, rows, 5)."""
    rows = []
    for p in probs:
        hd = hypnodensity.Hypnodensity(probs=p, resolution_s=RESOLUTION_S)
        hyp = hypnodensity.to_hypnogram(hd, epoch_s=EPOCH_S)
        rows.append(features.assemble(hd, hyp).values)
    return np.array(rows)


def gp_model(seed: int, directory: str, hours: float) -> None:
    """GP plus ``selection.json`` fitted on a small seeded cohort of nights.

    The nights last ``hours``, as the scored night does, and run from
    near-flat to confident hypnodensities, so that an ensemble's output falls
    inside the cohort and the score depends on it.  Columns are the top ones
    by two-sample t statistic; RFE belongs to the cohort workload, where it is
    measured.
    """
    probs, y = cohort_arrays(seed, GP_FIT_NIGHTS, hours, min_conf=0.02)
    X = feature_matrix(probs)
    a, b = X[y == 1], X[y == 0]
    se = np.sqrt(a.var(axis=0) / len(a) + b.var(axis=0) / len(b))
    t = np.abs(a.mean(axis=0) - b.mean(axis=0)) / np.where(se > 0, se, np.inf)
    cols = np.sort(np.argsort(-t, kind="stable")[:N_SELECTED])
    model = diagnosis.gp_fit(X[:, cols], np.where(y > 0, 1.0, -1.0))
    model.save(directory)
    with open(os.path.join(directory, "selection.json"), "w") as f:
        json.dump({"selected": cols.tolist()}, f)


def setup_night(seed: int, directory: str, hours: float, encoding: str,
                mode: str) -> dict:
    """Write a raw night, a reference, an ensemble and a GP; return their paths."""
    paths = {
        "raw": os.path.join(directory, "raw"),
        "ref": os.path.join(directory, "ref.json"),
        "models": os.path.join(directory, "models"),
        "gp": os.path.join(directory, "gp"),
    }
    psg = night(seed, hours * 3600.0, recording_id=f"night{seed}")
    paths["recording"] = signal_io.save_recording(psg, paths["raw"])
    paths["recording_id"] = psg.recording_id
    del psg
    with open(paths["ref"], "w") as f:
        f.write(reference(seed).to_json())
    ensemble(seed, paths["models"], encoding, mode)
    gp_model(seed, paths["gp"], hours)
    return paths


def setup_cohort(seed: int, directory: str, n: int, hours: float) -> dict:
    """Write a cohort of hypnodensities and labels as ``.npy`` files."""
    os.makedirs(directory, exist_ok=True)
    probs, labels = cohort_arrays(seed, n, hours)
    paths = {"probs": os.path.join(directory, "probs.npy"),
             "labels": os.path.join(directory, "labels.npy")}
    np.save(paths["probs"], probs)
    np.save(paths["labels"], labels)
    return paths
