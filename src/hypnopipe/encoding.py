"""Octave and cross-correlation (CC) encodings of a montage at TARGET_FS.

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

from .errors import (CorruptHeader, EmptySignal, InvalidSpec, MissingChannel,
                     NonpositiveP95, ShapeMismatch, UnsupportedRate)
from .pool import thread_map
from .preprocess import TARGET_FS, butter_zero_phase
from .signal_io import PolySignalSet
from .store import bundle, check_finite, check_shapes, is_file_name, read_bundle, write_files

OCTAVE_CUTOFFS_HZ = (49.0, 25.0, 12.5, 6.25, 3.125)
P95_WINDOW_S = 90 * 60      # 90 minute windows
P95_HOP_S = 45 * 60         # 50% overlap
P95_MODE_BINS = 64

MODES = ("octave", "cc")
# The montage roles each mode reads, by the modality whose sub-network they
# feed: octave stacks both EEG sites, CC correlates the central one only.
INPUTS = {mode: {"EEG": eeg, "EOG": ("EOG_L", "EOG_R"), "EMG": ("EMG_CHIN",)}
          for mode, eeg in (("octave", ("EEG_C", "EEG_O")), ("cc", ("EEG_C",)))}
MONTAGE = {mode: sum(inputs.values(), ()) for mode, inputs in INPUTS.items()}
GRID_HOP_S = 0.25           # common alignment grid for all CC modalities
CC_WINDOW_S = 5             # a stored CC row is the mean over one 5 s window
ROWS_PER_WINDOW = round(CC_WINDOW_S / GRID_HOP_S)
CC_CHUNK_WINDOWS = 16       # windows a tensor encodes at once; bounds the raw CC rows


@dataclass(frozen=True)
class CCParams:
    segment_s: float
    hop_s: float
    extension_s: float

    def __post_init__(self):
        if not (0 < self.hop_s <= self.segment_s < self.extension_s):
            raise ValueError("need 0 < hop_s <= segment_s < extension_s")

    @property
    def n_lags(self) -> int:
        """Columns of a CC row: extension minus segment samples, plus one."""
        return (int(round(self.extension_s * TARGET_FS))
                - int(round(self.segment_s * TARGET_FS)) + 1)


# Per-modality parameters; extension is twice the segment, centered.
CC_PARAMS = {
    "EEG": CCParams(segment_s=2.0, hop_s=0.25, extension_s=4.0),
    "EOG": CCParams(segment_s=4.0, hop_s=0.25, extension_s=8.0),
    "EMG": CCParams(segment_s=0.4, hop_s=0.15, extension_s=0.8),
}
# The CC tensors by the modality whose parameters and sub-network they share:
# name -> (role correlated, role its extension comes from).
CC_TENSORS = {"EEG": {"EEG": ("EEG_C", "EEG_C")},
              "EOG": {"EOG_L": ("EOG_L", "EOG_L"), "EOG_R": ("EOG_R", "EOG_R"),
                      "EOG_X": ("EOG_L", "EOG_R")},
              "EMG": {"EMG": ("EMG_CHIN", "EMG_CHIN")}}


@dataclass
class EncodedRecording:
    recording_id: str
    mode: str                      # "octave" or "cc"
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def files(self, directory: str) -> dict:
        """The files of the encoding's bundle in ``directory``, for ``write_files``."""
        meta = {"recording_id": self.recording_id, "mode": self.mode, "fs": TARGET_FS}
        if self.mode == "cc":
            meta["row_s"] = CC_WINDOW_S
        return bundle(os.path.join(directory, f"{self.recording_id}.{self.mode}.enc.json"),
                      self.tensors, meta)

    def save(self, directory: str) -> str:
        return write_files(self.files(directory))

    @classmethod
    def load(cls, path: str) -> "EncodedRecording":
        """Raises ``CorruptHeader`` for a manifest whose ``recording_id`` is not
        a bare file name or whose ``fs`` is not TARGET_FS,
        a CC encoding whose rows are not 5 s window means (0.25 s grid rows,
        as written by older versions), or, naming the array, tensors other
        than ``encode_recording`` makes: for CC, each of CC_TENSORS as (n, its
        modality's ``n_lags``); for octave, (5, n) for each role of
        ``MONTAGE["octave"]``; one n throughout."""
        tensors, meta = read_bundle(path)
        keys = ("recording_id", "mode")
        if any(k not in meta for k in keys) or meta["mode"] not in MODES:
            raise CorruptHeader(f"{path}: not an octave or CC encoding manifest")
        if not is_file_name(meta["recording_id"]):
            raise CorruptHeader(f"{path}: recording_id {meta['recording_id']!r} is not "
                                f"a bare file name")
        if meta.get("fs") != TARGET_FS:
            raise CorruptHeader(f"{path}: fs is {meta.get('fs')!r}, not {TARGET_FS}")
        if meta["mode"] == "cc" and meta.get("row_s") != CC_WINDOW_S:
            raise CorruptHeader(f"{path}: CC rows are not {CC_WINDOW_S} s window "
                                f"means; encode the recording again")
        if meta["mode"] == "cc":
            shapes = {name: ("n", CC_PARAMS[m].n_lags)
                      for m, names in CC_TENSORS.items() for name in names}
        else:
            shapes = {role: (len(OCTAVE_CUTOFFS_HZ), "n") for role in MONTAGE["octave"]}
        check_shapes(path, tensors, shapes)
        return cls(tensors=tensors, **{k: meta[k] for k in keys})


def robust_p95(x: np.ndarray) -> float:
    """Mode of per-window 95th percentiles of |x| (90 min windows, 50% overlap).

    Recordings shorter than one window fall back to the global percentile.
    The mode of the continuous per-window values is estimated with a 64-bin
    histogram over their range (ties go to the lower bin); the returned value
    is the mean of the values landing in that bin.
    """
    x = np.asarray(x, dtype=float)
    if len(x) == 0:
        raise EmptySignal("empty signal")
    win = int(P95_WINDOW_S * TARGET_FS)
    if len(x) < win:
        return float(np.percentile(np.abs(x), 95))
    hop = int(P95_HOP_S * TARGET_FS)
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
    """sign(x) * log(|x|/p95 + 1) elementwise; ``NonpositiveP95`` unless
    ``p95`` is a finite positive number."""
    if not 0 < p95 < math.inf:
        raise NonpositiveP95(f"p95={p95}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.log(np.abs(x) / p95 + 1.0)


def octave_cascade(channel: np.ndarray) -> np.ndarray:
    """Unscaled cascade: row i is the signal after low-passing at the first
    i+1 cutoffs in OCTAVE_CUTOFFS_HZ.  No high-pass is ever applied."""
    x = np.asarray(channel, dtype=float)
    out = np.zeros((len(OCTAVE_CUTOFFS_HZ), len(x)))
    current = x
    for i, cutoff in enumerate(OCTAVE_CUTOFFS_HZ):
        current = butter_zero_phase(current, cutoff, "lowpass", TARGET_FS)
        out[i] = current
    return out


def octave_encode(channel: np.ndarray) -> np.ndarray:
    """Five nested low-passed copies of the channel, each p95/log-modulus scaled.

    Returns an array of shape (5, len(channel)); row i is the cascade output
    at cutoff OCTAVE_CUTOFFS_HZ[i], scaled in place.  A band whose peak is at
    most 1e-8 (``np.allclose(band, 0.0)``) becomes zeros; a band whose robust
    p95 is 0 is scaled by its peak.
    """
    out = octave_cascade(channel)
    for band in out:
        peak = np.max(np.abs(band))
        if peak <= 1e-8:
            band[:] = 0.0
        else:
            p95 = robust_p95(band)
            band[:] = log_modulus_scale(band, p95 if p95 > 0 else float(peak))
    return out


def segment_starts(n_samples: int, params: CCParams) -> np.ndarray:
    seg = int(round(params.segment_s * TARGET_FS))
    hop = params.hop_s * TARGET_FS
    n = int(np.floor((n_samples - seg) / hop)) + 1
    if n < 1:
        raise EmptySignal("signal shorter than one segment")
    return np.round(np.arange(n) * hop).astype(int)


def _cc_rows(signal, params: CCParams, opposite=None):
    """``(starts, rows)``: every segment's first sample, and a function that
    returns the raw CC rows of the segments starting at a non-decreasing
    array of those starts.

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
    seg_len = int(round(params.segment_s * TARGET_FS))
    n_lags = params.n_lags
    wing = (n_lags - 1) // 2
    starts = segment_starts(len(x), params)
    block = math.gcd(seg_len, int(round(params.hop_s * TARGET_FS)))
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

    return starts, rows


def cc_segment(signal: np.ndarray, params: CCParams,
               opposite: np.ndarray | None = None) -> np.ndarray:
    """Raw per-segment correlation against a centered extension window.

    Returns (n_segments, ``params.n_lags``); the zero lag sits at index
    (n_lags - 1) // 2.  The extension comes from the same channel, or from
    ``opposite`` for EOG cross mode; recording edges are zero-padded.
    ``InvalidSpec`` unless the segment is 2^k blocks of ``gcd(segment, hop)``
    samples (true of ``CC_PARAMS``).
    """
    starts, rows = _cc_rows(signal, params, opposite)
    return rows(starts)


def cc_scale(gamma: np.ndarray) -> np.ndarray:
    """Each segment's row scaled: D = gamma * log(1 + max|gamma|) / max|gamma|."""
    peaks = np.max(np.abs(gamma), axis=1, keepdims=True)
    scale = np.where(peaks > 0, np.log1p(peaks) / np.where(peaks > 0, peaks, 1.0), 0.0)
    return gamma * scale


def _cc_tensor(signal, opposite, params: CCParams, slots: np.ndarray) -> np.ndarray:
    """One CC tensor: the scaled rows of the segments that ``slots`` index,
    as means over ROWS_PER_WINDOW consecutive rows, correlated
    CC_CHUNK_WINDOWS windows at a time."""
    starts, rows = _cc_rows(signal, params, opposite)
    grid = starts[slots]
    out = np.empty((len(grid) // ROWS_PER_WINDOW, params.n_lags))
    chunk = CC_CHUNK_WINDOWS * ROWS_PER_WINDOW
    for r in range(0, len(grid), chunk):
        scaled = cc_scale(rows(grid[r:r + chunk]))
        out[r // ROWS_PER_WINDOW:(r + chunk) // ROWS_PER_WINDOW] = scaled.reshape(
            -1, ROWS_PER_WINDOW, params.n_lags).mean(axis=1)
    return out


def encode_recording(montage: PolySignalSet, mode: str) -> EncodedRecording:
    """Encode a preprocessed 5-channel montage recording.

    The channels the mode reads must be at TARGET_FS (``UnsupportedRate``) and finite
    (``InvalidValues``); they are cut to the shortest one's count before any encoder runs.

    mode="octave": one (5, T) tensor per montage channel (25 channels total).
    mode="cc": for each tensor of CC_TENSORS, one row per whole 5 s window,
    the mean of its 20 scaled CC segments on the 0.25 s grid of the 4 s EOG
    segments (each slot takes the EMG segment of nearest center).
    Only the segments the grid reads are correlated, CC_CHUNK_WINDOWS
    windows at a time, so no whole-night raw CC matrix is ever built.
    """
    if mode not in MODES:
        raise InvalidSpec(f"unknown encoding mode {mode!r}")
    x = {}
    for role in MONTAGE[mode]:
        ch = montage.channels.get(role)
        if ch is None:
            raise MissingChannel(role)
        if ch.fs != TARGET_FS:
            raise UnsupportedRate(f"{role}: {ch.fs} Hz, encoding needs {TARGET_FS} Hz")
        if not montage.known_finite(role):
            check_finite(ch.samples, role)
        x[role] = ch.samples
    n = min(map(len, x.values()))
    x = {role: v[:n] for role, v in x.items()}
    enc = EncodedRecording(recording_id=montage.recording_id, mode=mode)
    if mode == "octave":
        enc.tensors = dict(zip(x, thread_map(octave_encode, x.values())))
        return enc

    # the grid steps by the EEG and EOG hop; the 4 s EOG segment is the longest
    eog, emg = CC_PARAMS["EOG"], CC_PARAMS["EMG"]
    n_rows = len(segment_starts(n, eog)) // ROWS_PER_WINDOW * ROWS_PER_WINDOW
    grid_centers = np.arange(n_rows) * GRID_HOP_S + eog.segment_s / 2
    emg_slot = np.round((grid_centers - emg.segment_s / 2) / emg.hop_s).astype(int)
    jobs = {name: (x[role], x[ext_role], CC_PARAMS[kind],
                   emg_slot if kind == "EMG" else np.arange(n_rows))
            for kind, tensors in CC_TENSORS.items()
            for name, (role, ext_role) in tensors.items()}
    enc.tensors = dict(zip(jobs, thread_map(lambda job: _cc_tensor(*job), jobs.values())))
    return enc
