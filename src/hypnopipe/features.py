"""The 481-dimensional narcolepsy feature vector.

Layout: 31 stage combinations x 15 descriptors (465), 7 sleep sequencing
scalars, and 9 stage-transition peak features.  Names are stable across runs
and serialization round-trips via CSV or JSON.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import CorruptHeader, InvalidValues, ShapeMismatch
from .hypnodensity import Hypnodensity, stage_codes
from .signal_io import STAGES, HypnogramLabels
from .store import check_finite, is_number

# 31 nonempty stage subsets: sizes ascending, lexicographic in stage order
STAGE_COMBOS: tuple[tuple[str, ...], ...] = tuple(
    combo
    for k in range(1, 6)
    for combo in itertools.combinations(STAGES, k)
)
# the singletons come first, in STAGES order; then each larger combination's
# row in STAGE_COMBOS, its prefix's row and its last stage's row
_PRODUCTS = tuple((i, STAGE_COMBOS.index(c[:-1]), STAGES.index(c[-1]))
                  for i, c in enumerate(STAGE_COMBOS) if len(c) > 1)

DESCRIPTOR_NAMES = (
    "mean", "max", "std", "mean_abs_diff", "max_abs_diff", "entropy",
    "t5w", "t10w", "t30w", "t50w", "t70w", "t90w",
    "total", "frac_above_half_max", "upcross_per_h",
)

CUMSUM_PERCENTS = (5, 10, 30, 50, 70, 90)
_CUMSUM_FRACS = np.array(CUMSUM_PERCENTS) / 100.0

SEQUENCING_NAMES = (
    "rem_latency_min", "sleep_latency_min", "soremp_count",
    "soremp_total_min", "nrem_frag_count", "wn1_long_bout_count",
    "wn1_short_cum_min",
)

# Merged peak types: W and N1 fuse; 9 transition types retained
MERGED_TYPES = ("WN1", "N2", "N3", "REM")
TRANSITION_TYPES = (
    ("WN1", "N2"), ("WN1", "REM"),
    ("N2", "WN1"), ("N2", "N3"), ("N2", "REM"),
    ("N3", "WN1"), ("N3", "N2"),
    ("REM", "WN1"), ("REM", "N2"),
)
PEAK_MASS_FLOOR = 10.0       # in 30 s epoch-units of probability mass

SOREMP_WAKE_MIN = 2.5        # minutes of W/N1 required before REM
FRAG_NREM_S = 90             # sustained N2/N3 run
FRAG_BREAK_S = 60            # breaking N1/W run
LONG_BOUT_MIN = 3.0          # W/N1 long bout
SHORT_WAKE_MIN = 15.0        # W/N1 bouts below this accumulate


@dataclass
class FeatureVector:
    values: np.ndarray         # the 481 values, in feature_names() order

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(feature_names())
        w.writerow([f"{v:.12g}" for v in self.values])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({"features": dict(zip(feature_names(), map(float, self.values)))},
                          indent=1)

    @classmethod
    def from_json(cls, text: str) -> "FeatureVector":
        """The vector ``to_json`` writes; ``CorruptHeader`` for text that is not
        a JSON object with a ``"features"`` object mapping exactly
        ``feature_names()``, in order, to numbers, or with an ``"hla_positive"``
        other than null (the HLA status is given to ``diagnose``),
        ``InvalidValues`` for a non-finite value."""
        try:
            d = json.loads(text)
        except ValueError as e:
            raise CorruptHeader(f"feature vector: {e}") from e
        feats = d.get("features") if isinstance(d, dict) else None
        if not isinstance(feats, dict) or not all(map(is_number, feats.values())):
            raise CorruptHeader('feature vector: "features" must map names to numbers')
        got, names = list(feats) + [None], feature_names() + [None]   # None: past the end
        i = next((i for i, (a, b) in enumerate(zip(got, names)) if a != b), None)
        if i is not None:
            raise CorruptHeader(f'feature vector: "features" must be the {len(names) - 1} '
                                f'feature names in order; key {i} is {got[i]!r}, not '
                                f'{names[i]!r}')
        if d.get("hla_positive") is not None:
            raise CorruptHeader('feature vector: "hla_positive" is not read from a vector; '
                                'give the HLA status to diagnose --hla')
        return cls(values=check_finite(np.array(list(feats.values()), dtype=float),
                                       "feature vector"))


def feature_names() -> list[str]:
    names = []
    for combo in STAGE_COMBOS:
        tag = "+".join(combo)
        names.extend(f"{tag}.{d}" for d in DESCRIPTOR_NAMES)
    names.extend(SEQUENCING_NAMES)
    names.extend(f"trans_{a}_to_{b}" for a, b in TRANSITION_TYPES)
    return names


def proto_series(hd: Hypnodensity) -> np.ndarray:
    """The (31, T) per-segment products of the stage probabilities of each
    combination, in STAGE_COMBOS order.  A combination's series is its prefix
    combination's series times its last stage's column, the left-to-right
    order of ``np.prod``."""
    probs = hd.probs
    stack = np.empty((len(STAGE_COMBOS), len(probs)), dtype=probs.dtype)
    stack[:len(STAGES)] = probs.T
    for i, prefix, last in _PRODUCTS:
        np.multiply(stack[prefix], stack[last], out=stack[i])
    return stack


class _Workspace:
    """``combo_descriptors``' work arrays for a (k, T) stack: two float ones,
    two boolean masks and ``_time_to_fraction``'s (k, 6, T) mask."""

    def __init__(self, shape: tuple[int, int]):
        self.shape = shape
        self.q, self.w = np.empty(shape), np.empty(shape)
        self.above, self.below = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        self.reached = np.empty((shape[0], len(CUMSUM_PERCENTS), shape[1]), dtype=bool)


# Workspaces no call holds.  A call takes one (``list.pop`` is atomic, so no
# two threads get the same) and puts it back when it returns: calls on series
# of one shape reuse the same arrays instead of faulting in fresh ones.
_SPARE: list[_Workspace] = []


def _take_workspace(shape: tuple[int, int]) -> _Workspace:
    """A spare workspace of ``shape``, or a new one in place of the spare."""
    try:
        ws = _SPARE.pop()
    except IndexError:
        return _Workspace(shape)
    return ws if ws.shape == shape else _Workspace(shape)


def combo_descriptors(series: np.ndarray, resolution_s: int) -> np.ndarray:
    """The 15 descriptors, in DESCRIPTOR_NAMES order, of each row of the
    (k, T) ``series``: a (k, 15) array.  Each row is reduced along its own
    contiguous axis, so its descriptors are bitwise those of the row alone."""
    s = np.ascontiguousarray(series, dtype=float)
    if s.ndim != 2 or s.shape[1] == 0:
        raise ShapeMismatch(f"expected a (k, T) stack of series with T > 0, got {s.shape}")
    n = s.shape[1]
    # every (k, T) intermediate is written through ``out=`` into the workspace
    ws = _take_workspace(s.shape)
    q, w, above, below = ws.q, ws.w, ws.above, ws.below
    out = np.zeros((len(s), len(DESCRIPTOR_NAMES)))
    total = s.sum(axis=1)
    pos = total > 0
    out[:, 0] = total / n
    out[:, 1] = s.max(axis=1)
    np.divide(s, np.where(pos, total, 1.0)[:, None], out=q)
    out[:, 5] = np.where(pos, _entropy(q, w, above), 0.0)
    out[:, 12] = total
    np.greater(s, 0.5 * out[:, 1:2], out=above)
    out[:, 13] = np.where(out[:, 1] > 0, above.sum(axis=1) / n, 0.0)
    # w holds the centred series, then the absolute differences, then the
    # running sums
    np.subtract(s, out[:, :1], out=w)
    if n > 1:
        ups = np.logical_and(np.greater(w[:, 1:], 0, out=above[:, 1:]),
                             np.less_equal(w[:, :-1], 0, out=below[:, :-1]),
                             out=above[:, 1:])
        out[:, 14] = ups.sum(axis=1) / (n * resolution_s / 3600.0)
    out[:, 2] = np.sqrt(np.square(w, out=w).sum(axis=1) / n)
    if n > 1:
        d = np.abs(np.subtract(s[:, 1:], s[:, :-1], out=w[:, 1:]), out=w[:, 1:])
        out[:, 3] = d.sum(axis=1) / (n - 1)
        out[:, 4] = d.max(axis=1)
    cum = np.cumsum(s, axis=1, out=w)
    t_min = _time_to_fraction(s, cum, ws.reached) * resolution_s / 60.0
    out[:, 6:12] = np.where(pos[:, None], t_min * total[:, None], 0.0)
    _SPARE.append(ws)
    return out


def _entropy(q: np.ndarray, terms: np.ndarray, nz: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of ``q`` over its positive entries, with
    ``terms`` and ``nz`` work arrays of its shape.  A row with zeros is
    summed over its positive terms alone, packed with the rows that have as
    many, so that each sum is bitwise that of the row's positive entries."""
    np.greater(q, 0, out=nz)
    terms.fill(0.0)
    np.log(q, out=terms, where=nz)
    terms *= q
    ent = -terms.sum(axis=1)
    counts = nz.sum(axis=1)
    # the distinct short counts in ascending order, as np.unique gives them
    # without importing numpy.ma
    for c in np.flatnonzero(np.bincount(counts[counts < q.shape[1]])):
        rows = counts == c
        ent[rows] = -terms[rows][nz[rows]].reshape(-1, c).sum(axis=1) if c else 0.0
    return ent


def _time_to_fraction(series: np.ndarray, cum: np.ndarray, reached: np.ndarray) -> np.ndarray:
    """(k, 6) fractional segment counts at which the running sums ``cum`` of
    the rows of ``series`` first reach each of CUMSUM_PERCENTS of their
    totals, with linear accumulation inside a segment; ``reached`` is a
    (k, 6, T) boolean work array."""
    target = _CUMSUM_FRACS * cum[:, -1:]
    i = np.argmax(np.greater_equal(cum[:, None, :], target[:, :, None], out=reached), axis=2)
    prev = np.where(i > 0, np.take_along_axis(cum, np.maximum(i - 1, 0), axis=1), 0.0)
    at = np.take_along_axis(series, i, axis=1)
    return i + np.where(at > 0, (target - prev) / np.where(at > 0, at, 1.0), 0.0)


@dataclass
class SoremReport:
    count: int
    total_duration_min: float
    rem_latency_min: float
    sleep_latency_min: float


def _runs(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of equal values as (value, start, length) arrays."""
    change = np.ones(len(values), dtype=bool)
    change[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(change)
    return values[starts], starts, np.diff(np.append(starts, len(values)))


# Sequencing types by stage code (W, N1, N2, N3, REM); UNSCORED (-1) is last
_WN1, _NREM, _REM = 0, 1, 2
_MERGE = np.array([_WN1, _WN1, _NREM, _NREM, _REM, 3])


def sorem_analysis(hyp: HypnogramLabels) -> SoremReport:
    """Sleep/REM latencies and sleep-onset REM period statistics."""
    epoch_min = hyp.epoch_s / 60.0
    codes = stage_codes(hyp.stages)
    duration_min = len(codes) * epoch_min
    asleep = np.flatnonzero(codes > 0)         # neither W nor UNSCORED
    if not asleep.size:
        return SoremReport(count=0, total_duration_min=0.0,
                           rem_latency_min=duration_min,
                           sleep_latency_min=duration_min)
    sleep_idx = int(asleep[0])
    rem = np.flatnonzero(codes == STAGES.index("REM"))
    rem_latency = ((int(rem[0]) - sleep_idx) * epoch_min
                   if rem.size else duration_min)
    # REM runs immediately preceded by >= 2.5 min of contiguous W/N1
    kind, _, length = _runs(_MERGE[codes])
    minutes = length * epoch_min
    soremp = ((kind[1:] == _REM) & (kind[:-1] == _WN1)
              & (minutes[:-1] >= SOREMP_WAKE_MIN))
    return SoremReport(count=int(soremp.sum()),
                       total_duration_min=sum(minutes[1:][soremp].tolist(), 0.0),
                       rem_latency_min=rem_latency,
                       sleep_latency_min=sleep_idx * epoch_min)


def fragmentation_features(hyp: HypnogramLabels) -> np.ndarray:
    """(frag_count, long_bout_count, short_wake_cum_min)."""
    kind, _, length = _runs(_MERGE[stage_codes(hyp.stages)])
    minutes = length * (hyp.epoch_s / 60.0)
    wn1 = kind == _WN1
    # a sustained N2/N3 run broken by a long enough W/N1 run
    frag = ((kind[:-1] == _NREM) & (minutes[:-1] >= FRAG_NREM_S / 60.0)
            & wn1[1:] & (minutes[1:] >= FRAG_BREAK_S / 60.0))
    short = minutes[wn1 & (minutes < SHORT_WAKE_MIN)]
    return np.array([frag.sum(), (wn1 & (minutes >= LONG_BOUT_MIN)).sum(),
                     sum(short.tolist(), 0.0)], dtype=float)


def hypnodensity_peaks(hd: Hypnodensity) -> list[tuple[str, float]]:
    """Probability-mass peaks of merged-type dominance runs, in 30 s units.

    Peaks below the mass floor are discarded, then adjacent same-type peaks
    merge with summed mass.  A run whose length times its largest value
    (times ``unit``, with a margin of its length in ulps of 1 for the sum's
    rounding) is below the floor cannot reach it and is not summed.
    """
    # columns W + N1, N2, N3, REM: the MERGED_TYPES
    merged_probs = np.column_stack([hd.probs[:, 0] + hd.probs[:, 1], hd.probs[:, 2:]])
    unit = hd.resolution_s / 30.0
    fused: list[tuple[str, float]] = []
    kind, starts, lengths = _runs(np.argmax(merged_probs, axis=1))
    top = np.maximum.reduceat(merged_probs.max(axis=1), starts)
    # a float sum of a run lies within its length in ulps of its length x top;
    # an integer one is exact
    eps = np.finfo(merged_probs.dtype).eps if merged_probs.dtype.kind == "f" else 0.0
    # written so that a NaN bound keeps its run, whose sum is then NaN as before
    may_reach = ~(lengths * top * unit * (1 + lengths * eps) < PEAK_MASS_FLOOR)
    for k, start, length in zip(*(r[may_reach].tolist() for r in (kind, starts, lengths))):
        m = float(merged_probs[start:start + length, k].sum()) * unit
        if m < PEAK_MASS_FLOOR:
            continue
        t = MERGED_TYPES[k]
        if fused and fused[-1][0] == t:
            fused[-1] = (t, fused[-1][1] + m)
        else:
            fused.append((t, m))
    return fused


def transition_sums(peaks: list[tuple[str, float]]) -> np.ndarray:
    """Sum sqrt(mass_n * mass_n+1) per enumerated transition type."""
    sums = dict.fromkeys(TRANSITION_TYPES, 0.0)
    for (t1, m1), (t2, m2) in zip(peaks, peaks[1:]):
        key = (t1, t2)
        if key in sums:
            sums[key] += float(np.sqrt(m1 * m2))
    return np.array([sums[k] for k in TRANSITION_TYPES])


def transition_features(hd: Hypnodensity) -> np.ndarray:
    return transition_sums(hypnodensity_peaks(hd))


def assemble(hd: Hypnodensity, hyp: HypnogramLabels) -> FeatureVector:
    """Build the full 481-value vector in canonical name order."""
    hd.validate()
    rep = sorem_analysis(hyp)
    vec = np.concatenate([
        combo_descriptors(proto_series(hd), hd.resolution_s).ravel(),
        [rep.rem_latency_min, rep.sleep_latency_min, float(rep.count),
         rep.total_duration_min],
        fragmentation_features(hyp), transition_features(hd)])
    if not np.all(np.isfinite(vec)):
        raise InvalidValues("non-finite feature value")
    return FeatureVector(values=vec)
