"""Octave and cross-correlation (CC) encodings of preprocessed 100 Hz channels.

Octave encoding: cascade of 5th-order zero-phase low-pass filters at 49, 25,
12.5, 6.25 and 3.125 Hz (never a high-pass), each derived channel scaled to a
robust 95th percentile and log-modulus transformed.

CC encoding: per hop-aligned segment, the correlation of the segment against
a centered, twice-as-long extension of the same channel (or of the opposite
EOG channel for the cross modality).  Lag 0 of an unscaled auto-CC equals the
segment's mean power.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sps

from .errors import EmptySignal, MissingChannel, NonpositiveP95, ShapeMismatch
from .signal_io import PolySignalSet
from .store import read_bundle, write_bundle

OCTAVE_CUTOFFS_HZ = (49.0, 25.0, 12.5, 6.25, 3.125)
P95_WINDOW_S = 90 * 60      # 90 minute windows
P95_HOP_S = 45 * 60         # 50% overlap
P95_MODE_BINS = 64

GRID_HOP_S = 0.25           # common alignment grid for all CC modalities


@dataclass(frozen=True)
class CCParams:
    segment_s: float
    hop_s: float
    extension_s: float

    def __post_init__(self):
        if not (0 < self.hop_s <= self.segment_s < self.extension_s):
            raise ValueError("need 0 < hop_s <= segment_s < extension_s")


# Per-modality parameters; extension is twice the segment, centered.
CC_PARAMS = {
    "EEG": CCParams(segment_s=2.0, hop_s=0.25, extension_s=4.0),
    "EOG": CCParams(segment_s=4.0, hop_s=0.25, extension_s=8.0),
    "EMG": CCParams(segment_s=0.4, hop_s=0.15, extension_s=0.8),
}


@dataclass
class EncodedRecording:
    recording_id: str
    mode: str                      # "octave" or "cc"
    duration_s: float
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    fs: float = 100.0
    grid_hop_s: float = GRID_HOP_S

    def save(self, directory: str) -> str:
        return write_bundle(
            os.path.join(directory, f"{self.recording_id}.{self.mode}.enc.json"),
            self.tensors,
            {"recording_id": self.recording_id, "mode": self.mode,
             "duration_s": self.duration_s, "fs": self.fs,
             "grid_hop_s": self.grid_hop_s})

    @classmethod
    def load(cls, path: str) -> "EncodedRecording":
        tensors, meta = read_bundle(path)
        return cls(recording_id=meta["recording_id"], mode=meta["mode"],
                   duration_s=meta["duration_s"], tensors=tensors, fs=meta["fs"],
                   grid_hop_s=meta["grid_hop_s"])


def robust_p95(x: np.ndarray, fs: float) -> float:
    """Mode of per-window 95th percentiles of |x| (90 min windows, 50% overlap).

    Recordings shorter than one window fall back to the global percentile.
    The mode of the continuous per-window values is estimated with a 64-bin
    histogram over their range (ties go to the lower bin); the returned value
    is the mean of the values landing in that bin.
    """
    x = np.asarray(x, dtype=float)
    if len(x) == 0:
        raise EmptySignal("empty signal")
    win = int(P95_WINDOW_S * fs)
    if len(x) < win:
        return float(np.percentile(np.abs(x), 95))
    hop = int(P95_HOP_S * fs)
    vals = []
    start = 0
    while start + win <= len(x):
        vals.append(np.percentile(np.abs(x[start:start + win]), 95))
        start += hop
    vals = np.asarray(vals)
    lo, hi = vals.min(), vals.max()
    if lo == hi:
        return float(lo)
    counts, edges = np.histogram(vals, bins=P95_MODE_BINS, range=(lo, hi))
    best = int(np.argmax(counts))  # argmax takes the lowest bin on ties
    in_bin = (vals >= edges[best]) & (
        vals <= edges[best + 1] if best == P95_MODE_BINS - 1 else vals < edges[best + 1]
    )
    return float(vals[in_bin].mean())


def log_modulus_scale(x: np.ndarray, p95: float) -> np.ndarray:
    """sign(x) * log(|x|/p95 + 1) elementwise."""
    if p95 <= 0:
        raise NonpositiveP95(f"p95={p95}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.log(np.abs(x) / p95 + 1.0)


def _lowpass(x: np.ndarray, cutoff_hz: float, fs: float) -> np.ndarray:
    sos = sps.butter(5, cutoff_hz, btype="lowpass", fs=fs, output="sos")
    return sps.sosfiltfilt(sos, x)


def octave_cascade(channel: np.ndarray, fs: float = 100.0) -> np.ndarray:
    """Unscaled cascade: row i is the signal after low-passing at the first
    i+1 cutoffs in OCTAVE_CUTOFFS_HZ.  No high-pass is ever applied."""
    x = np.asarray(channel, dtype=float)
    out = np.zeros((len(OCTAVE_CUTOFFS_HZ), len(x)))
    current = x
    for i, cutoff in enumerate(OCTAVE_CUTOFFS_HZ):
        current = _lowpass(current, cutoff, fs)
        out[i] = current
    return out


def octave_encode(channel: np.ndarray, fs: float = 100.0) -> np.ndarray:
    """Five nested low-passed copies of the channel, each p95/log-modulus scaled.

    Returns an array of shape (5, len(channel)); row i is the cascade output
    at cutoff OCTAVE_CUTOFFS_HZ[i].
    """
    cascade = octave_cascade(channel, fs)
    out = np.zeros_like(cascade)
    for i, band in enumerate(cascade):
        if np.allclose(band, 0.0):
            out[i] = 0.0
        else:
            p95 = robust_p95(band, fs)
            if p95 <= 0:
                p95 = float(np.max(np.abs(band))) or 1.0
            out[i] = log_modulus_scale(band, p95)
    return out


def segment_starts(n_samples: int, fs: float, params: CCParams) -> np.ndarray:
    seg = int(round(params.segment_s * fs))
    hop = params.hop_s * fs
    n = int(np.floor((n_samples - seg) / hop)) + 1
    if n < 1:
        raise EmptySignal("signal shorter than one segment")
    return np.round(np.arange(n) * hop).astype(int)


def cc_segment(signal: np.ndarray, fs: float, params: CCParams,
               opposite: np.ndarray | None = None) -> np.ndarray:
    """Raw per-segment correlation against a centered extension window.

    Returns (n_segments, n_lags) with n_lags = extension - segment + 1
    samples; the zero lag sits at index (n_lags - 1) // 2.  The extension
    comes from the same channel, or from ``opposite`` for EOG cross mode;
    recording edges are zero-padded.
    """
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


def cc_lag0_index(params: CCParams, fs: float) -> int:
    seg_len = int(round(params.segment_s * fs))
    ext_len = int(round(params.extension_s * fs))
    return (ext_len - seg_len) // 2


def cc_scale(gamma: np.ndarray) -> np.ndarray:
    """Per-segment scaling D = gamma * log(1 + max|gamma|) / max|gamma|."""
    g = np.atleast_2d(np.asarray(gamma, dtype=float))
    peaks = np.max(np.abs(g), axis=1, keepdims=True)
    scale = np.where(peaks > 0, np.log1p(peaks) / np.where(peaks > 0, peaks, 1.0), 0.0)
    out = g * scale
    return out if np.asarray(gamma).ndim > 1 else out[0]


def _grid_count(duration_s: float) -> int:
    # the 4 s EOG segment is the longest; it defines the shared grid
    return int(np.floor((duration_s - CC_PARAMS["EOG"].segment_s) / GRID_HOP_S)) + 1


def encode_recording(montage: PolySignalSet, mode: str) -> EncodedRecording:
    """Encode a preprocessed 5-channel montage recording.

    mode="octave": one (5, T) tensor per montage channel (25 channels total).
    mode="cc": scaled CC matrices for EEG, EOG_L, EOG_R, EOG_X and EMG, all
    aligned to a shared 0.25 s hop grid (the nearest-in-time EMG row is
    repeated to fill each grid slot).
    """
    enc = EncodedRecording(recording_id=montage.recording_id, mode=mode,
                           duration_s=montage.duration_s)
    fs = 100.0
    if mode == "octave":
        for role in ("EEG_C", "EEG_O", "EOG_L", "EOG_R", "EMG_CHIN"):
            if role not in montage.channels:
                raise MissingChannel(role)
            enc.tensors[role] = octave_encode(montage.channels[role].samples, fs)
        return enc
    if mode != "cc":
        raise ValueError(f"unknown encoding mode {mode!r}")

    for role in ("EEG_C", "EOG_L", "EOG_R", "EMG_CHIN"):
        if role not in montage.channels:
            raise MissingChannel(role)
    eeg = montage.channels["EEG_C"].samples
    eog_l = montage.channels["EOG_L"].samples
    eog_r = montage.channels["EOG_R"].samples
    emg = montage.channels["EMG_CHIN"].samples

    n_grid = _grid_count(montage.duration_s)

    raw = {
        "EEG": cc_segment(eeg, fs, CC_PARAMS["EEG"]),
        "EOG_L": cc_segment(eog_l, fs, CC_PARAMS["EOG"]),
        "EOG_R": cc_segment(eog_r, fs, CC_PARAMS["EOG"]),
        "EOG_X": cc_segment(eog_l, fs, CC_PARAMS["EOG"], opposite=eog_r),
        "EMG": cc_segment(emg, fs, CC_PARAMS["EMG"]),
    }
    for name, gamma in raw.items():
        scaled = cc_scale(gamma)
        if name == "EMG":
            # map each 0.25 s grid slot to the EMG segment whose center is closest
            emg_params = CC_PARAMS["EMG"]
            grid_centers = np.arange(n_grid) * GRID_HOP_S + CC_PARAMS["EOG"].segment_s / 2
            emg_centers_offset = emg_params.segment_s / 2
            idx = np.round((grid_centers - emg_centers_offset) / emg_params.hop_s)
            idx = np.clip(idx.astype(int), 0, scaled.shape[0] - 1)
            enc.tensors[name] = scaled[idx]
        else:
            enc.tensors[name] = scaled[:n_grid]
    return enc
