"""Octave and cross-correlation (CC) encodings of preprocessed 100 Hz channels.

Octave encoding: cascade of 5th-order zero-phase low-pass filters at 49, 25,
12.5, 6.25 and 3.125 Hz (never a high-pass), each derived channel scaled to a
robust 95th percentile and log-modulus transformed.

CC encoding: per hop-aligned segment, the correlation of the segment against
a centered, twice-as-long extension of the same channel (or of the opposite
EOG channel for the cross modality).  Lag 0 of an unscaled auto-CC equals the
segment's mean power.  Scaled segments on a shared 0.25 s grid are stored as
their means over 5 s windows; longer windows are means of consecutive rows.

The correlations are block sums: hop and segment share a block (25 samples
for EEG and EOG, 5 for EMG), each block is correlated once for every segment
that covers it, and a segment's row is the sum of its 8 or 16 blocks'.  The
encoder correlates only the segments the grid reads, CC_CHUNK_WINDOWS
windows at a time.  Rows differ from a per-segment ``np.correlate`` by at
most 8.3e-16 of the row's peak (rounding order only).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import signal as sps

from .errors import (CorruptHeader, EmptySignal, InvalidSpec, MissingChannel,
                     NonpositiveP95, ShapeMismatch)
from .signal_io import PolySignalSet
from .store import read_bundle, write_bundle

OCTAVE_CUTOFFS_HZ = (49.0, 25.0, 12.5, 6.25, 3.125)
P95_WINDOW_S = 90 * 60      # 90 minute windows
P95_HOP_S = 45 * 60         # 50% overlap
P95_MODE_BINS = 64

MODES = ("octave", "cc")
GRID_HOP_S = 0.25           # common alignment grid for all CC modalities
CC_WINDOW_S = 5             # a stored CC row is the mean over one 5 s window
ROWS_PER_WINDOW = round(CC_WINDOW_S / GRID_HOP_S)
CC_CHUNK_WINDOWS = 16       # windows encoded at a time; bounds the raw CC rows held


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

    def save(self, directory: str) -> str:
        meta = {"recording_id": self.recording_id, "mode": self.mode,
                "duration_s": self.duration_s, "fs": self.fs}
        if self.mode == "cc":
            meta["row_s"] = CC_WINDOW_S
        return write_bundle(
            os.path.join(directory, f"{self.recording_id}.{self.mode}.enc.json"),
            self.tensors, meta)

    @classmethod
    def load(cls, path: str) -> "EncodedRecording":
        """Raises ``CorruptHeader`` for a CC encoding whose rows are not 5 s
        window means (0.25 s grid rows, as written by older versions)."""
        tensors, meta = read_bundle(path)
        keys = ("recording_id", "mode", "duration_s", "fs")
        if any(k not in meta for k in keys) or meta["mode"] not in MODES:
            raise CorruptHeader(f"{path}: not an octave or CC encoding manifest")
        if meta["mode"] == "cc" and meta.get("row_s") != CC_WINDOW_S:
            raise CorruptHeader(f"{path}: CC rows are not {CC_WINDOW_S} s window "
                                f"means; encode the recording again")
        return cls(tensors=tensors, **{k: meta[k] for k in keys})


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


def _cc_rows(signal, fs: float, params: CCParams, opposite=None):
    """``(starts, n_lags, rows)``: every segment's first sample, the number of
    lags, and a function that returns the raw CC rows of the segments
    starting at a non-decreasing array of those starts.

    The hop and the segment share a block of ``gcd(segment, hop)`` samples
    (25 for EEG and EOG, 5 for EMG), so a segment's correlation is the sum
    of its 8 or 16 blocks' correlations.  Each block is correlated once, as
    one einsum over a (blocks, lags, block) view of the padded extension,
    and consecutive blocks are summed by doubling.  A row depends only on
    its own blocks, so rows come out the same whichever starts are asked
    for together.
    """
    x = np.asarray(signal, dtype=float)
    ext_src = x if opposite is None else np.asarray(opposite, dtype=float)
    if opposite is not None and len(ext_src) != len(x):
        raise ShapeMismatch("opposite channel length differs")
    seg_len = int(round(params.segment_s * fs))
    ext_len = int(round(params.extension_s * fs))
    n_lags = ext_len - seg_len + 1
    wing = (ext_len - seg_len) // 2
    starts = segment_starts(len(x), fs, params)
    block = math.gcd(seg_len, int(round(params.hop_s * fs)))
    span = seg_len // block                   # blocks per segment
    if span & (span - 1) or np.any(starts % block):
        raise InvalidSpec(f"a CC segment of {seg_len} samples is not 2^k blocks "
                          f"that also tile the hop")
    padded = np.pad(ext_src, (wing, wing + seg_len))  # generous right pad

    def rows(at: np.ndarray) -> np.ndarray:
        k0, k1 = at[0] // block, at[-1] // block + span
        ext = padded[k0 * block:]
        step = ext.strides[0]
        lagged = as_strided(ext, shape=(k1 - k0, n_lags, block),
                            strides=(block * step, step, step), writeable=False)
        sums = np.einsum("ku,klu->kl", x[k0 * block:k1 * block].reshape(-1, block),
                         lagged)
        width = 1
        while width < span:
            sums = sums[:-width] + sums[width:]
            width *= 2
        return sums[at // block - k0] / seg_len

    return starts, n_lags, rows


def cc_segment(signal: np.ndarray, fs: float, params: CCParams,
               opposite: np.ndarray | None = None) -> np.ndarray:
    """Raw per-segment correlation against a centered extension window.

    Returns (n_segments, n_lags) with n_lags = extension - segment + 1
    samples; the zero lag sits at index (n_lags - 1) // 2.  The extension
    comes from the same channel, or from ``opposite`` for EOG cross mode;
    recording edges are zero-padded.  ``InvalidSpec`` unless the segment is
    2^k blocks of ``gcd(segment, hop)`` samples (true of ``CC_PARAMS``).
    """
    starts, _, rows = _cc_rows(signal, fs, params, opposite)
    return rows(starts)


def cc_scale(gamma: np.ndarray) -> np.ndarray:
    """Per-segment scaling D = gamma * log(1 + max|gamma|) / max|gamma|."""
    g = np.atleast_2d(np.asarray(gamma, dtype=float))
    peaks = np.max(np.abs(g), axis=1, keepdims=True)
    scale = np.where(peaks > 0, np.log1p(peaks) / np.where(peaks > 0, peaks, 1.0), 0.0)
    out = g * scale
    return out if np.asarray(gamma).ndim > 1 else out[0]


def encode_recording(montage: PolySignalSet, mode: str) -> EncodedRecording:
    """Encode a preprocessed 5-channel montage recording.

    mode="octave": one (5, T) tensor per montage channel (25 channels total).
    mode="cc": for EEG, EOG_L, EOG_R, EOG_X and EMG, one row per whole 5 s
    window, the mean of its 20 scaled CC segments on the 0.25 s grid of the
    4 s EOG segments (each slot takes the EMG segment of nearest center).
    Only the segments the grid reads are correlated, CC_CHUNK_WINDOWS
    windows at a time, so no whole-night raw CC matrix is ever built.
    """
    if mode not in MODES:
        raise InvalidSpec(f"unknown encoding mode {mode!r}")
    enc = EncodedRecording(recording_id=montage.recording_id, mode=mode,
                           duration_s=montage.duration_s)
    fs = 100.0
    if mode == "octave":
        for role in ("EEG_C", "EEG_O", "EOG_L", "EOG_R", "EMG_CHIN"):
            if role not in montage.channels:
                raise MissingChannel(role)
            enc.tensors[role] = octave_encode(montage.channels[role].samples, fs)
        return enc

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
    chunk = CC_CHUNK_WINDOWS * ROWS_PER_WINDOW
    for name, (x, kind, opposite) in sources.items():
        starts, n_lags, rows = _cc_rows(x, fs, CC_PARAMS[kind], opposite)
        grid = (starts[np.clip(emg_slot, 0, len(starts) - 1)] if name == "EMG"
                else starts[:n_rows])
        out = enc.tensors[name] = np.empty((n_rows // ROWS_PER_WINDOW, n_lags))
        for r in range(0, n_rows, chunk):
            scaled = cc_scale(rows(grid[r:r + chunk]))
            out[r // ROWS_PER_WINDOW:(r + chunk) // ROWS_PER_WINDOW] = scaled.reshape(
                -1, ROWS_PER_WINDOW, n_lags).mean(axis=1)
    return enc
