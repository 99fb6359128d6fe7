"""The array implementations of the label logic against the per-epoch loops
they replaced, kept here verbatim as the reference.

Inputs are seeded and random, with many ties (few scorers, quantized
probabilities) and UNSCORED epochs.  Labels, kappas, vote fractions,
confusion matrices, peaks, SOREMP statistics and fragmentation counts must be
bitwise equal; ``weighted_accuracy`` sums its weights in another order and
may differ by 1e-12.
"""

import numpy as np
import pytest

from hypnopipe import features
from hypnopipe import hypnodensity as hyp
from hypnopipe.errors import HypnopipeError, IncompatibleResolution, ShapeMismatch
from hypnopipe.hypnodensity import Hypnodensity
from hypnopipe.signal_io import STAGES, UNSCORED, HypnogramLabels

STAGE_INDEX = {s: i for i, s in enumerate(STAGES)}
MERGED_TYPES = features.MERGED_TYPES
PEAK_MASS_FLOOR = features.PEAK_MASS_FLOOR
FRAG_NREM_S = features.FRAG_NREM_S
FRAG_BREAK_S = features.FRAG_BREAK_S
LONG_BOUT_MIN = features.LONG_BOUT_MIN
SHORT_WAKE_MIN = features.SHORT_WAKE_MIN
SOREMP_WAKE_MIN = features.SOREMP_WAKE_MIN
SoremReport = features.SoremReport
epoch_weight = hyp.epoch_weight


# ------------------------------------------------- the loops, kept verbatim

def _runs(labels) -> list[tuple]:
    """Maximal runs of equal labels as (label, start_index, length)."""
    runs = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            runs.append((labels[start], start, i - start))
            start = i
    return runs


def _merged(stage: str) -> str:
    if stage in ("W", "N1"):
        return "WN1"
    if stage in ("N2", "N3"):
        return "NREM"
    return stage  # REM or UNSCORED


def _argmax_stage(sums: np.ndarray) -> str:
    # np.argmax returns the first maximum: earliest stage wins ties
    return STAGES[int(np.argmax(sums))]


def to_hypnogram(hd: Hypnodensity, epoch_s: int = 30) -> HypnogramLabels:
    """Argmax of summed segment probabilities per epoch."""
    if epoch_s % hd.resolution_s != 0:
        raise IncompatibleResolution(f"{epoch_s} not a multiple of {hd.resolution_s}")
    block = epoch_s // hd.resolution_s
    n_epochs = len(hd.probs) // block
    if n_epochs == 0:
        raise IncompatibleResolution("hypnodensity shorter than one epoch")
    stages = []
    for e in range(n_epochs):
        sums = hd.probs[e * block:(e + 1) * block].sum(axis=0)
        stages.append(_argmax_stage(sums))
    return HypnogramLabels(stages=stages, epoch_s=epoch_s)


def _scored_mask(a: list[str], b: list[str]) -> np.ndarray:
    return np.array([x != UNSCORED and y != UNSCORED for x, y in zip(a, b)])


def cohen_kappa(a: list[str], b: list[str]) -> float:
    """Chance-corrected agreement; UNSCORED epochs are excluded."""
    if len(a) != len(b) or len(a) < 1:
        raise ShapeMismatch("label sequences must be equal length >= 1")
    mask = _scored_mask(a, b)
    aa = [x for x, m in zip(a, mask) if m]
    bb = [x for x, m in zip(b, mask) if m]
    n = len(aa)
    if n == 0:
        raise ShapeMismatch("no jointly scored epochs")
    p_o = sum(x == y for x, y in zip(aa, bb)) / n
    p_e = sum((aa.count(s) / n) * (bb.count(s) / n) for s in STAGES)
    if p_e >= 1.0 - 1e-12:
        return 1.0 if p_o >= 1.0 - 1e-12 else 0.0
    return 1.0 - (1.0 - p_o) / (1.0 - p_e)


def _majority_vote(stacks: list[list[str]]) -> list[str]:
    """Unweighted per-epoch majority over scorers; stage-order tie-break."""
    n_epochs = len(stacks[0])
    out = []
    for e in range(n_epochs):
        counts = np.zeros(5)
        for sc in stacks:
            if sc[e] != UNSCORED:
                counts[STAGE_INDEX[sc[e]]] += 1
        out.append(_argmax_stage(counts))
    return out


def consensus_hypnogram(scorers: list[HypnogramLabels]) -> tuple[HypnogramLabels, list[float]]:
    if len(scorers) < 2:
        raise ShapeMismatch("need at least 2 scorers")
    epoch_s = scorers[0].epoch_s
    n = len(scorers[0].stages)
    for sc in scorers:
        if sc.epoch_s != epoch_s or len(sc.stages) != n:
            raise ShapeMismatch("scorers must align in epoch_s and length")
    stacks = [sc.stages for sc in scorers]
    kappas = []
    for i in range(len(stacks)):
        others = [s for j, s in enumerate(stacks) if j != i]
        ref = _majority_vote(others)
        kappas.append(max(cohen_kappa(stacks[i], ref), 0.0))
    if sum(kappas) == 0.0:
        return HypnogramLabels(_majority_vote(stacks), epoch_s), kappas
    out = []
    total = sum(kappas)
    for e in range(n):
        weights = np.zeros(5)
        for sc, k in zip(stacks, kappas):
            if sc[e] != UNSCORED:
                weights[STAGE_INDEX[sc[e]]] += k
        out.append(_argmax_stage(weights / total))
    return HypnogramLabels(out, epoch_s), kappas


def scorer_vote_fractions(scorers: list[HypnogramLabels]) -> np.ndarray:
    """(T, 5) matrix of per-epoch scorer vote fractions (UNSCORED excluded)."""
    n = len(scorers[0].stages)
    out = np.zeros((n, 5))
    for e in range(n):
        votes = np.zeros(5)
        for sc in scorers:
            if sc.stages[e] != UNSCORED:
                votes[STAGE_INDEX[sc.stages[e]]] += 1
        total = votes.sum()
        out[e] = votes / total if total > 0 else votes
    return out


def weighted_accuracy(model: HypnogramLabels, scorers: list[HypnogramLabels]) -> float:
    fractions = scorer_vote_fractions(scorers)
    if len(model.stages) != len(fractions):
        raise ShapeMismatch("model and scorers must align")
    total_w = 0.0
    agree_w = 0.0
    for e, row in enumerate(fractions):
        w = epoch_weight(row)
        consensus = _argmax_stage(row)
        total_w += w
        if model.stages[e] == consensus:
            agree_w += w
    if total_w == 0.0:
        raise hyp.ZeroTotalWeight("all epochs are perfectly split")
    return agree_w / total_w


def confusion(model: HypnogramLabels, reference: HypnogramLabels) -> dict:
    if len(model.stages) != len(reference.stages):
        raise ShapeMismatch("sequences must align")
    mask = _scored_mask(model.stages, reference.stages)
    m = np.zeros((5, 5))
    for x, y, keep in zip(model.stages, reference.stages, mask):
        if keep:
            m[STAGE_INDEX[x], STAGE_INDEX[y]] += 1
    total = m.sum()
    acc = float(np.trace(m) / total) if total else 0.0
    return {
        "matrix": m / total if total else m,
        "accuracy": acc,
        "kappa": cohen_kappa(model.stages, reference.stages),
    }


def hypnodensity_peaks(hd: Hypnodensity) -> list[tuple[str, float]]:
    merged_probs = np.column_stack([
        hd.probs[:, 0] + hd.probs[:, 1],   # W + N1
        hd.probs[:, 2],                    # N2
        hd.probs[:, 3],                    # N3
        hd.probs[:, 4],                    # REM
    ])
    dominant = np.argmax(merged_probs, axis=1)
    unit = hd.resolution_s / 30.0
    peaks: list[tuple[str, float]] = []
    start = 0
    for i in range(1, len(dominant) + 1):
        if i == len(dominant) or dominant[i] != dominant[start]:
            t = MERGED_TYPES[dominant[start]]
            mass = float(merged_probs[start:i, dominant[start]].sum()) * unit
            peaks.append((t, mass))
            start = i
    peaks = [(t, m) for t, m in peaks if m >= PEAK_MASS_FLOOR]
    fused: list[tuple[str, float]] = []
    for t, m in peaks:
        if fused and fused[-1][0] == t:
            fused[-1] = (t, fused[-1][1] + m)
        else:
            fused.append((t, m))
    return fused


def sorem_analysis(hyp: HypnogramLabels) -> SoremReport:
    """Sleep/REM latencies and sleep-onset REM period statistics."""
    epoch_min = hyp.epoch_s / 60.0
    n = len(hyp.stages)
    duration_min = n * epoch_min
    sleep_idx = next((i for i, s in enumerate(hyp.stages)
                      if s not in ("W", UNSCORED)), None)
    if sleep_idx is None:
        return SoremReport(count=0, total_duration_min=0.0,
                           rem_latency_min=duration_min,
                           sleep_latency_min=duration_min)
    sleep_latency = sleep_idx * epoch_min
    rem_idx = next((i for i, s in enumerate(hyp.stages) if s == "REM"), None)
    rem_latency = ((rem_idx - sleep_idx) * epoch_min
                   if rem_idx is not None else duration_min)

    # REM runs immediately preceded by >= 2.5 min of contiguous W/N1
    merged = [_merged(s) for s in hyp.stages]
    runs = _runs(merged)
    count = 0
    total = 0.0
    for j, (label, start, length) in enumerate(runs):
        if label != "REM":
            continue
        if j > 0 and runs[j - 1][0] == "WN1":
            prev_min = runs[j - 1][2] * epoch_min
            if prev_min >= SOREMP_WAKE_MIN:
                count += 1
                total += length * epoch_min
    return SoremReport(count=count, total_duration_min=total,
                       rem_latency_min=rem_latency,
                       sleep_latency_min=sleep_latency)


def fragmentation_first_three(hyp: HypnogramLabels) -> np.ndarray:
    """The loop behind the first three of the five values the fragmentation
    features had (REM-after-wake minutes and SOREMP presence were dropped)."""
    epoch_min = hyp.epoch_s / 60.0
    merged = [_merged(s) for s in hyp.stages]
    runs = _runs(merged)
    frag = 0
    long_bouts = 0
    short_wake = 0.0
    for j, (label, start, length) in enumerate(runs):
        minutes = length * epoch_min
        if label == "NREM" and minutes >= FRAG_NREM_S / 60.0:
            if j + 1 < len(runs) and runs[j + 1][0] == "WN1" \
                    and runs[j + 1][2] * epoch_min >= FRAG_BREAK_S / 60.0:
                frag += 1
        if label == "WN1":
            if minutes >= LONG_BOUT_MIN:
                long_bouts += 1
            if minutes < SHORT_WAKE_MIN:
                short_wake += minutes
    return np.array([frag, long_bouts, short_wake], dtype=float)


# ------------------------------------------------------------ random inputs

N_CASES = 400
LABELS = list(STAGES) + [UNSCORED]


def _outcome(fn, *args):
    """The result, or the type of the pipeline error it raised."""
    try:
        return fn(*args)
    except HypnopipeError as e:
        return type(e)


def _labels(rng, n, sticky):
    """Random stages with UNSCORED epochs; ``sticky`` repeats the previous
    label often so that runs and agreement are long."""
    p_unscored = rng.choice([0.0, 0.1, 0.5, 1.0], p=[0.4, 0.4, 0.15, 0.05])
    out = []
    for _ in range(n):
        if out and rng.random() < sticky:
            out.append(out[-1])
        elif rng.random() < p_unscored:
            out.append(UNSCORED)
        else:
            out.append(STAGES[int(rng.integers(5))])
    return out


def _probs(rng, n):
    """Rows on a coarse grid (many exact ties) or continuous."""
    if rng.random() < 0.5:
        p = rng.integers(0, 4, (n, 5)).astype(float)
        p[p.sum(axis=1) == 0, 0] = 1.0
    else:
        p = rng.random((n, 5))
    return p / p.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def cases():
    rng = np.random.default_rng(20181206)
    out = []
    for _ in range(N_CASES):
        n = int(rng.integers(1, 80))
        sticky = float(rng.choice([0.0, 0.5, 0.9]))
        scorers = [HypnogramLabels(_labels(rng, n, sticky))
                   for _ in range(int(rng.integers(2, 7)))]
        model = HypnogramLabels(_labels(rng, n, sticky))
        out.append((scorers, model))
    return out


def test_votes_and_consensus_match_the_loops(cases):
    for scorers, _ in cases:
        stacks = [s.stages for s in scorers]
        assert hyp._majority_vote(stacks) == _majority_vote(stacks)
        fractions = hyp.scorer_vote_fractions(scorers)
        assert fractions.shape == (len(stacks[0]), 5)
        assert np.array_equal(fractions, scorer_vote_fractions(scorers))
        new = _outcome(hyp.consensus_hypnogram, scorers)
        old = _outcome(consensus_hypnogram, scorers)
        if isinstance(old, type):
            assert new is old
        else:
            assert new[0].stages == old[0].stages
            assert new[0].epoch_s == old[0].epoch_s
            assert new[1] == old[1]


def test_agreement_matches_the_loops(cases):
    for scorers, model in cases:
        for ref in scorers[:2]:
            old = _outcome(confusion, model, ref)
            new = _outcome(hyp.confusion, model, ref)
            assert _outcome(hyp.cohen_kappa, model.stages, ref.stages) == \
                _outcome(cohen_kappa, model.stages, ref.stages)
            if isinstance(old, type):
                assert new is old
            else:
                assert np.array_equal(new["matrix"], old["matrix"])
                assert new["accuracy"] == old["accuracy"]
                assert new["kappa"] == old["kappa"]
        new = _outcome(hyp.weighted_accuracy, model, scorers)
        old = _outcome(weighted_accuracy, model, scorers)
        if isinstance(old, type):
            assert new is old
        else:
            assert abs(new - old) <= 1e-12


def test_hypnogram_collapse_matches_the_loop():
    rng = np.random.default_rng(5229)
    for _ in range(N_CASES):
        res = int(rng.choice([5, 10, 15, 30]))
        hd = Hypnodensity(_probs(rng, int(rng.integers(1, 200))), res)
        for epoch_s in (30, 60, 90):
            new = _outcome(hyp.to_hypnogram, hd, epoch_s)
            old = _outcome(to_hypnogram, hd, epoch_s)
            if isinstance(old, type):
                assert new is old
            else:
                assert new.stages == old.stages
                assert new.epoch_s == old.epoch_s


def test_peaks_and_fragmentation_match_the_loops(cases):
    rng = np.random.default_rng(1710)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 400))
        # repeat rows so that dominance runs are long enough to pass the floor
        p = np.repeat(_probs(rng, n), int(rng.integers(1, 30)), axis=0)
        hd = Hypnodensity(p, int(rng.choice([5, 15, 30])))
        assert features.hypnodensity_peaks(hd) == hypnodensity_peaks(hd)
    for scorers, model in cases:
        for labels in [model] + scorers:
            for epoch_s in (5, 30):
                h = HypnogramLabels(labels.stages, epoch_s=epoch_s)
                assert np.array_equal(features.fragmentation_features(h),
                                      fragmentation_first_three(h))


def test_sorem_analysis_matches_the_loop(cases):
    for scorers, model in cases:
        for labels in [model] + scorers:
            for epoch_s in (5, 30):
                h = HypnogramLabels(labels.stages, epoch_s=epoch_s)
                new, old = features.sorem_analysis(h), sorem_analysis(h)
                assert new == old
                assert [type(v) for v in vars(new).values()] == \
                    [type(v) for v in vars(old).values()]


def test_an_empty_hypnodensity_has_no_peaks():
    hd = Hypnodensity(np.empty((0, 5)), 30)
    assert features.hypnodensity_peaks(hd) == hypnodensity_peaks(hd) == []
