"""Band-limiting, resampling to 100 Hz, and Hjorth-based channel quality selection.

Every channel a montage role needs is passed through a 5th-order Butterworth
high-pass at 0.2 Hz and low-pass at 49 Hz, both applied forward-backward
(zero phase), then down-sampled to TARGET_FS; nothing downstream takes a
rate.  EEG channel pairs are ranked by the Mahalanobis distance of their
averaged log-Hjorth parameters to a reference distribution fit on known-good
recordings processed the same way; the lowest-distance candidate wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AllDegenerate,
    CorruptHeader,
    DegenerateSegment,
    MissingChannel,
    SignalTooShort,
    SingularCovariance,
    UnsupportedRate,
)
from .pool import thread_map
from .signal_io import SITES, Channel, PolySignalSet
from .store import is_number

FILTER_ORDER = 5
HIGHPASS_HZ = 0.2
LOWPASS_HZ = 49.0
TARGET_FS = 100.0
SELECTION_SEGMENT_S = 300  # 5 minute Hjorth segments


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
        """``CorruptHeader`` unless ``text`` is a JSON object holding exactly a
        finite 3-value ``mean`` and a 9-value symmetric positive definite
        ``covariance``."""
        try:
            d = json.loads(text)
            if not isinstance(d, dict) or set(d) != {"mean", "covariance"}:
                raise ValueError('need an object with exactly "mean" and "covariance"')
            if not all(isinstance(d[k], list) and all(map(is_number, d[k]))
                       for k in ("mean", "covariance")):
                raise ValueError("mean and covariance must be lists of numbers")
            mean, cov = (np.array(d[k], dtype=float) for k in ("mean", "covariance"))
            if (mean.shape, cov.shape) != ((3,), (9,)):
                raise ValueError("need 3 mean values and 9 covariance values")
            cov = cov.reshape(3, 3)
            if not (np.isfinite([*mean, *cov.flat]).all() and np.allclose(cov, cov.T)):
                raise ValueError("need finite values and a symmetric covariance")
            np.linalg.cholesky(cov)       # LinAlgError, a ValueError, unless definite
        except (TypeError, ValueError) as e:
            raise CorruptHeader(f"reference distribution: {e}") from e
        return cls(mean=mean, covariance=cov)

    def mahalanobis(self, v: np.ndarray) -> float:
        L = np.linalg.cholesky(self.covariance)
        z = np.linalg.solve(L, np.asarray(v, dtype=float) - self.mean)
        return float(np.sqrt(z @ z))


def butter_zero_phase(x: np.ndarray, cutoff_hz: float, btype: str,
                      fs: float) -> np.ndarray:
    """A FILTER_ORDER Butterworth of float64 ``x``, run forward and backward:
    bitwise scipy's ``sosfiltfilt(butter(..., output="sos"), x)``, without
    importing ``scipy.signal`` (see ``filters``).
    ``SignalTooShort`` below 6 * FILTER_ORDER samples, which also covers the
    edge padding."""
    from . import filters   # loads scipy's kernels once, under the import lock

    if len(x) < 6 * FILTER_ORDER:
        raise SignalTooShort(f"{len(x)} samples < {6 * FILTER_ORDER}")
    return filters.sosfiltfilt(*filters.butter(FILTER_ORDER, fs, cutoff_hz, btype), x)


def bandlimit(x: np.ndarray, fs: float) -> np.ndarray:
    """Zero-phase 5th-order high-pass at 0.2 Hz then low-pass at 49 Hz."""
    x = np.asarray(x, dtype=float)
    if fs < 2 * LOWPASS_HZ + 2:
        raise UnsupportedRate(f"fs={fs} too low for a 49 Hz low-pass")
    return butter_zero_phase(butter_zero_phase(x, HIGHPASS_HZ, "highpass", fs),
                             LOWPASS_HZ, "lowpass", fs)


def resample(x: np.ndarray, fs_in: float) -> np.ndarray:
    """Polyphase down-sampling to TARGET_FS with a Kaiser anti-alias prefilter:
    scipy's ``resample_poly(..., window=("kaiser", 5.0))``, cut or zero-padded
    to ``round(len(x) * TARGET_FS / fs_in)`` samples."""
    from . import filters

    x = np.asarray(x, dtype=float)
    if TARGET_FS > fs_in:
        raise UnsupportedRate(f"upsampling {fs_in} -> {TARGET_FS} not supported")
    if fs_in == TARGET_FS:
        return x.copy()
    up, down = _resample_ratio(fs_in)
    y = filters.resample_poly(x, up, down, filters.kaiser_taps(up, down))
    n_target = round(len(x) * TARGET_FS / fs_in)
    if len(y) > n_target:
        y = y[:n_target]
    elif len(y) < n_target:
        y = np.pad(y, (0, n_target - len(y)))
    return y


def _resample_ratio(fs_in: float) -> tuple[int, int]:
    """TARGET_FS / fs_in as ``(up, down)`` in lowest terms."""
    frac = Fraction(TARGET_FS / fs_in).limit_denominator(10000)
    return frac.numerator, frac.denominator


def hjorth(segment: np.ndarray) -> np.ndarray:
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
    return np.array([var_x, mobility, complexity])


def to_target_rate(ch: Channel) -> np.ndarray:
    """The channel band-limited and resampled to TARGET_FS."""
    return resample(bandlimit(ch.samples, ch.fs), ch.fs)


def _avg_log_hjorth(x: np.ndarray) -> np.ndarray | None:
    """Average elementwise log of Hjorth triples over full 5-minute segments
    of a TARGET_FS signal, skipping a constant segment or one with a Hjorth
    value of 0 (a ramp's mobility); None if every one is skipped.
    Partial tail segments are dropped.  Signals shorter than one segment use
    a single whole-signal segment so short fixtures remain usable.
    """
    seg_len = int(SELECTION_SEGMENT_S * TARGET_FS)
    if len(x) < seg_len:
        segments = [x]
    else:
        n_seg = len(x) // seg_len
        segments = [x[i * seg_len:(i + 1) * seg_len] for i in range(n_seg)]
    logs = []
    for seg in segments:
        try:
            vals = hjorth(seg)
        except DegenerateSegment:
            continue
        if np.any(vals <= 0):
            continue
        logs.append(np.log(vals))
    if not logs:
        return None
    return np.mean(logs, axis=0)


def select_eeg_channel(candidates: list[tuple[str, np.ndarray]],
                       ref: ReferenceDistribution) -> str:
    """Return the TARGET_FS candidate with lowest Mahalanobis distance to ref."""
    best_role, best_dist = None, np.inf
    for role, x in candidates:
        v = _avg_log_hjorth(np.asarray(x, dtype=float))
        if v is None:
            continue
        d = ref.mahalanobis(v)
        if d < best_dist:
            best_role, best_dist = role, d
    if best_role is None:
        raise AllDegenerate("every candidate is degenerate: "
                            + ", ".join(role for role, _ in candidates))
    return best_role


def usable_candidates(psg: PolySignalSet, roles) -> dict[str, list[str]]:
    """Each role's candidates (its ``SITES`` electrodes, or else the channel of
    its own name) in ``psg`` whose raw samples are not all equal: a constant
    one has no Hjorth activity to rank.  ``psg.validate()``'s errors come first;
    then ``MissingChannel`` for a role with none present, checked for every role;
    then ``AllDegenerate``, naming the role and its candidates, if each is constant."""
    psg.validate()
    present = {role: [r for r in SITES.get(role, (role,)) if r in psg.channels]
               for role in roles}
    for role, cands in present.items():
        if not cands:
            raise MissingChannel("|".join(SITES.get(role, (role,))))
    usable = {role: [r for r in cands if _varies(psg.channels[r].samples)]
              for role, cands in present.items()}
    for role, cands in usable.items():
        if not cands:
            raise AllDegenerate(f"{role}: every candidate is constant: "
                                + ", ".join(present[role]))
    return usable


def _varies(x: np.ndarray) -> bool:
    """Whether the samples ``x`` are not all equal."""
    return x.size > 0 and x.max() > x.min()


def fit_reference(training: list[PolySignalSet]) -> ReferenceDistribution:
    """Mean/covariance of per-recording averaged log-Hjorth vectors of the
    ``usable_candidates`` of ``EEG_C`` (whose errors refuse a recording), each
    first brought to TARGET_FS as ``preprocess_recording`` does."""
    if len(training) < 4:
        raise SingularCovariance("need at least 4 recordings")
    vectors = []
    for psg in training:
        usable = usable_candidates(psg, ("EEG_C",))["EEG_C"]
        per_channel = [_avg_log_hjorth(to_target_rate(psg.channels[r])) for r in usable]
        per_channel = [v for v in per_channel if v is not None]
        if per_channel:
            vectors.append(np.mean(per_channel, axis=0))
    if len(vectors) < 4:
        raise SingularCovariance("fewer than 4 usable recordings")
    V = np.array(vectors)
    cov = np.cov(V, rowvar=False, bias=False)
    eps = 1e-6 * max(np.trace(cov) / 3.0, 1e-12)
    cov = cov + eps * np.eye(3)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as e:
        raise SingularCovariance(str(e)) from e
    return ReferenceDistribution(mean=V.mean(axis=0), covariance=cov)


def preprocess_recording(psg: PolySignalSet, ref: ReferenceDistribution | None,
                         roles: tuple[str, ...]) -> tuple[PolySignalSet, dict]:
    """The montage of ``roles`` at TARGET_FS and the selection report
    ``{site: raw role}``.  A role takes, of its ``usable_candidates`` (whose
    errors come before any channel is processed), the one nearest ``ref``
    when there is a ``ref`` and two or more, else the first.  Only the
    channels taken or compared are processed, on one ``thread_map``; a
    channel's own error, the first in role order, comes before any site is
    compared; ``AllDegenerate`` names a site whose every candidate compared
    is degenerate once filtered."""
    used = {role: cands if ref is not None else cands[:1]
            for role, cands in usable_candidates(psg, roles).items()}
    raw = [r for cands in used.values() for r in cands]
    done = dict(zip(raw, thread_map(to_target_rate, [psg.channels[r] for r in raw])))
    report: dict[str, str] = {}
    out: dict[str, Channel] = {}
    for role, cands in used.items():
        try:
            pick = (select_eeg_channel([(r, done[r]) for r in cands], ref)
                    if len(cands) > 1 else cands[0])
        except AllDegenerate as e:
            raise AllDegenerate(f"{role}: {e}") from None
        if role in SITES:
            report[role] = pick
        out[role] = Channel(samples=done[pick], fs=TARGET_FS)
    return PolySignalSet(channels=out, duration_s=psg.duration_s,
                         recording_id=psg.recording_id), report
