"""Band-limiting, resampling to 100 Hz, and Hjorth-based channel quality selection.

All recordings are passed through a 5th-order Butterworth high-pass at 0.2 Hz
and low-pass at 49 Hz, both applied forward-backward (zero phase), then
down-sampled to 100 Hz.  EEG channel pairs are ranked by the Mahalanobis
distance of their averaged log-Hjorth parameters to a reference distribution
fit on known-good recordings; the lowest-distance candidate wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import signal as sps

from .errors import (
    AllDegenerate,
    DegenerateSegment,
    SignalTooShort,
    SingularCovariance,
    UnsupportedRate,
)
from .signal_io import CENTRAL_EEG, OCCIPITAL_EEG, Channel, PolySignalSet

FILTER_ORDER = 5
HIGHPASS_HZ = 0.2
LOWPASS_HZ = 49.0
TARGET_FS = 100.0
SELECTION_SEGMENT_S = 300  # 5 minute Hjorth segments


@dataclass
class HjorthTriple:
    activity: float
    mobility: float
    complexity: float

    def as_array(self) -> np.ndarray:
        return np.array([self.activity, self.mobility, self.complexity])


@dataclass
class ReferenceDistribution:
    mean: np.ndarray        # 3-vector of log-Hjorth averages
    covariance: np.ndarray  # 3x3, positive definite

    def to_json(self) -> str:
        return json.dumps({
            "mean": self.mean.tolist(),
            "covariance": self.covariance.reshape(-1).tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "ReferenceDistribution":
        d = json.loads(text)
        return cls(mean=np.array(d["mean"], dtype=float),
                   covariance=np.array(d["covariance"], dtype=float).reshape(3, 3))

    def mahalanobis(self, v: np.ndarray) -> float:
        L = np.linalg.cholesky(self.covariance)
        z = np.linalg.solve(L, np.asarray(v, dtype=float) - self.mean)
        return float(np.sqrt(z @ z))


def bandlimit(x: np.ndarray, fs: float) -> np.ndarray:
    """Zero-phase 5th-order high-pass at 0.2 Hz then low-pass at 49 Hz."""
    x = np.asarray(x, dtype=float)
    if fs < 2 * LOWPASS_HZ + 2:
        raise UnsupportedRate(f"fs={fs} too low for a 49 Hz low-pass")
    if len(x) < 6 * FILTER_ORDER:
        raise SignalTooShort(f"{len(x)} samples < {6 * FILTER_ORDER}")
    hp = sps.butter(FILTER_ORDER, HIGHPASS_HZ, btype="highpass", fs=fs, output="sos")
    lp = sps.butter(FILTER_ORDER, LOWPASS_HZ, btype="lowpass", fs=fs, output="sos")
    return sps.sosfiltfilt(lp, sps.sosfiltfilt(hp, x))


def resample(x: np.ndarray, fs_in: float, fs_out: float = TARGET_FS) -> np.ndarray:
    """Polyphase down-sampling with a Kaiser anti-alias prefilter."""
    x = np.asarray(x, dtype=float)
    if fs_out > fs_in:
        raise UnsupportedRate(f"upsampling {fs_in} -> {fs_out} not supported")
    if fs_in == fs_out:
        return x.copy()
    frac = Fraction(fs_out / fs_in).limit_denominator(10000)
    y = sps.resample_poly(x, frac.numerator, frac.denominator,
                          window=("kaiser", 5.0))
    n_target = round(len(x) * fs_out / fs_in)
    if len(y) > n_target:
        y = y[:n_target]
    elif len(y) < n_target:
        y = np.pad(y, (0, n_target - len(y)))
    return y


def hjorth(segment: np.ndarray) -> HjorthTriple:
    """Activity, mobility, complexity of one segment (first-difference form)."""
    x = np.asarray(segment, dtype=float)
    if len(x) < 3:
        raise DegenerateSegment("need at least 3 samples")
    var_x = float(np.var(x))
    if var_x == 0.0:
        raise DegenerateSegment("constant signal")
    dx = np.diff(x)
    var_dx = float(np.var(dx))
    mobility = float(np.sqrt(var_dx / var_x))
    ddx = np.diff(dx)
    var_ddx = float(np.var(ddx))
    mobility_dx = np.sqrt(var_ddx / var_dx) if var_dx > 0 else 0.0
    complexity = float(mobility_dx / mobility) if mobility > 0 else 0.0
    return HjorthTriple(activity=var_x, mobility=mobility, complexity=complexity)


def _avg_log_hjorth(x: np.ndarray, fs: float) -> np.ndarray | None:
    """Average elementwise log of Hjorth triples over full 5-minute segments.

    Returns None if every segment is constant.  Partial tail segments are
    dropped.  Signals shorter than one segment use a single whole-signal
    segment so short fixtures remain usable.
    """
    seg_len = int(SELECTION_SEGMENT_S * fs)
    if len(x) < seg_len:
        segments = [x]
    else:
        n_seg = len(x) // seg_len
        segments = [x[i * seg_len:(i + 1) * seg_len] for i in range(n_seg)]
    logs = []
    for seg in segments:
        try:
            h = hjorth(seg)
        except DegenerateSegment:
            continue
        vals = h.as_array()
        if np.any(vals <= 0):
            continue
        logs.append(np.log(vals))
    if not logs:
        return None
    return np.mean(logs, axis=0)


def select_eeg_channel(candidates: list[tuple[str, np.ndarray]],
                       ref: ReferenceDistribution,
                       fs: float = TARGET_FS) -> str:
    """Return the candidate role with lowest Mahalanobis distance to ref."""
    if not candidates:
        raise AllDegenerate("no candidates")
    best_role, best_dist = None, np.inf
    for role, x in candidates:
        v = _avg_log_hjorth(np.asarray(x, dtype=float), fs)
        if v is None:
            continue
        d = ref.mahalanobis(v)
        if d < best_dist:
            best_role, best_dist = role, d
    if best_role is None:
        raise AllDegenerate("every candidate is constant")
    return best_role


def fit_reference(training: list[PolySignalSet],
                  roles: tuple[str, ...] = CENTRAL_EEG) -> ReferenceDistribution:
    """Mean/covariance of per-recording averaged log-Hjorth vectors."""
    if len(training) < 4:
        raise SingularCovariance("need at least 4 recordings")
    vectors = []
    for psg in training:
        per_channel = []
        for role in roles:
            if role not in psg.channels:
                continue
            ch = psg.channels[role]
            v = _avg_log_hjorth(np.asarray(ch.samples, dtype=float), ch.fs)
            if v is not None:
                per_channel.append(v)
        if per_channel:
            vectors.append(np.mean(per_channel, axis=0))
    if len(vectors) < 4:
        raise SingularCovariance("fewer than 4 usable recordings")
    V = np.array(vectors)
    mean = V.mean(axis=0)
    cov = np.cov(V, rowvar=False, bias=False)
    cov = np.atleast_2d(cov)
    eps = 1e-6 * max(np.trace(cov) / 3.0, 1e-12)
    cov = cov + eps * np.eye(3)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as e:
        raise SingularCovariance(str(e)) from e
    return ReferenceDistribution(mean=mean, covariance=cov)


def preprocess_recording(psg: PolySignalSet,
                         ref: ReferenceDistribution | None = None
                         ) -> tuple[PolySignalSet, dict]:
    """Band-limit, resample to 100 Hz, and pick one channel per EEG site.

    Returns the 5-channel montage recording (roles EEG_C, EEG_O, EOG_L,
    EOG_R, EMG_CHIN; EEG_O omitted if no occipital candidate exists) plus a
    selection report.  Without ``ref`` a site keeps its first candidate, and
    only the channels kept are band-limited and resampled.
    """
    psg.validate(for_pipeline=True)

    def processed(role):
        ch = psg.channels[role]
        return resample(bandlimit(ch.samples, ch.fs), ch.fs, TARGET_FS)

    report: dict[str, str] = {}
    out: dict[str, Channel] = {}
    for site, group in (("EEG_C", CENTRAL_EEG), ("EEG_O", OCCIPITAL_EEG)):
        cands = [r for r in group if r in psg.channels]
        done = {r: processed(r) for r in (cands if ref is not None else cands[:1])}
        if done:
            report[site] = (select_eeg_channel(list(done.items()), ref, fs=TARGET_FS)
                            if len(done) > 1 else cands[0])
            out[site] = Channel(samples=done[report[site]], fs=TARGET_FS)
    for role in ("EOG_L", "EOG_R", "EMG_CHIN"):
        out[role] = Channel(samples=processed(role), fs=TARGET_FS)
    montage = PolySignalSet(channels=out, duration_s=psg.duration_s,
                            recording_id=psg.recording_id)
    return montage, report
