import itertools
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypnopipe import features, pool
from hypnopipe.errors import InvalidValues, ShapeMismatch
from hypnopipe.hypnodensity import Hypnodensity, to_hypnogram
from hypnopipe.signal_io import STAGES, HypnogramLabels
from conftest import random_hypnodensity
from test_label_oracle import hypnodensity_peaks as peaks_loop


# ------------------------------------------------------------------
# Independent brute-force recomputation of the full vector, written as
# plain loops with no shared helpers, used as an elementwise oracle.
# ------------------------------------------------------------------

def _bf_time_to_frac(series, frac):
    total = sum(series)
    target = frac * total
    acc = 0.0
    for i, v in enumerate(series):
        if acc + v >= target:
            if v > 0:
                return i + (target - acc) / v
            return float(i)
        acc += v
    return float(len(series))


def _bf_descriptors(series, res_s):
    s = list(map(float, series))
    n = len(s)
    mean = sum(s) / n
    mx = max(s)
    std = math.sqrt(sum((v - mean) ** 2 for v in s) / n)
    diffs = [abs(s[i + 1] - s[i]) for i in range(n - 1)]
    mad = sum(diffs) / len(diffs) if diffs else 0.0
    mxd = max(diffs) if diffs else 0.0
    total = sum(s)
    if total > 0:
        ent = -sum((v / total) * math.log(v / total) for v in s if v > 0)
    else:
        ent = 0.0
    times = []
    for p in (5, 10, 30, 50, 70, 90):
        if total > 0:
            times.append(_bf_time_to_frac(s, p / 100) * res_s / 60.0 * total)
        else:
            times.append(0.0)
    frac_hi = sum(1 for v in s if v > 0.5 * mx) / n if mx > 0 else 0.0
    ups = sum(1 for i in range(n - 1)
              if s[i] - mean <= 0 and s[i + 1] - mean > 0)
    per_h = ups / (n * res_s / 3600.0)
    return [mean, mx, std, mad, mxd, ent] + times + [total, frac_hi, per_h]


def _bf_runs(labels):
    runs = []
    for label, grp in itertools.groupby(labels):
        runs.append((label, len(list(grp))))
    return runs


def _bf_merge(stage):
    if stage in ("W", "N1"):
        return "WN1"
    if stage in ("N2", "N3"):
        return "NREM"
    return stage


def _bf_sequencing(stages, epoch_s):
    em = epoch_s / 60.0
    dur = len(stages) * em
    sleep_idx = None
    for i, s in enumerate(stages):
        if s not in ("W", "UNSCORED"):
            sleep_idx = i
            break
    if sleep_idx is None:
        return [dur, dur, 0.0, 0.0]
    sleep_lat = sleep_idx * em
    rem_idx = None
    for i, s in enumerate(stages):
        if s == "REM":
            rem_idx = i
            break
    rem_lat = (rem_idx - sleep_idx) * em if rem_idx is not None else dur
    merged = [_bf_merge(s) for s in stages]
    runs = _bf_runs(merged)
    count, total = 0, 0.0
    for j in range(len(runs)):
        if runs[j][0] == "REM" and j > 0 and runs[j - 1][0] == "WN1" \
                and runs[j - 1][1] * em >= 2.5:
            count += 1
            total += runs[j][1] * em
    return [rem_lat, sleep_lat, float(count), total]


def _bf_frag(stages, epoch_s):
    em = epoch_s / 60.0
    merged = [_bf_merge(s) for s in stages]
    runs = _bf_runs(merged)
    frag, long_bouts, short_w = 0, 0, 0.0
    for j, (label, length) in enumerate(runs):
        mins = length * em
        if label == "NREM" and mins >= 1.5 and j + 1 < len(runs) \
                and runs[j + 1][0] == "WN1" and runs[j + 1][1] * em >= 1.0:
            frag += 1
        if label == "WN1":
            if mins >= 3.0:
                long_bouts += 1
            if mins < 15.0:
                short_w += mins
    return [float(frag), float(long_bouts), short_w]


def _bf_transitions(probs, res_s):
    merged = [[r[0] + r[1], r[2], r[3], r[4]] for r in probs]
    types = ["WN1", "N2", "N3", "REM"]
    dominant = [max(range(4), key=lambda k: row[k]) for row in merged]
    peaks = []
    i = 0
    while i < len(dominant):
        j = i
        mass = 0.0
        while j < len(dominant) and dominant[j] == dominant[i]:
            mass += merged[j][dominant[i]]
            j += 1
        peaks.append((types[dominant[i]], mass * res_s / 30.0))
        i = j
    peaks = [p for p in peaks if p[1] >= 10.0]
    fused = []
    for t, m in peaks:
        if fused and fused[-1][0] == t:
            fused[-1][1] += m
        else:
            fused.append([t, m])
    order = [("WN1", "N2"), ("WN1", "REM"), ("N2", "WN1"), ("N2", "N3"),
             ("N2", "REM"), ("N3", "WN1"), ("N3", "N2"), ("REM", "WN1"),
             ("REM", "N2")]
    sums = {k: 0.0 for k in order}
    for k in range(len(fused) - 1):
        key = (fused[k][0], fused[k + 1][0])
        if key in sums:
            sums[key] += math.sqrt(fused[k][1] * fused[k + 1][1])
    return [sums[k] for k in order]


def brute_force_vector(hd, hyp):
    values = []
    for k in range(1, 6):
        for combo in itertools.combinations(range(5), k):
            series = [float(np.prod([row[c] for c in combo]))
                      for row in hd.probs]
            values.extend(_bf_descriptors(series, hd.resolution_s))
    values.extend(_bf_sequencing(hyp.stages, hyp.epoch_s))
    values.extend(_bf_frag(hyp.stages, hyp.epoch_s))
    values.extend(_bf_transitions(hd.probs, hd.resolution_s))
    return np.array(values)


# ------------------------------------------------------------------ tests

def test_combo_enumeration():
    assert len(features.STAGE_COMBOS) == 31
    assert features.STAGE_COMBOS[0] == ("W",)
    assert features.STAGE_COMBOS[-1] == ("W", "N1", "N2", "N3", "REM")
    assert len(set(features.STAGE_COMBOS)) == 31


def test_vector_has_481_stable_names():
    names = features.feature_names()
    assert len(names) == 481
    assert len(set(names)) == 481
    assert names == features.feature_names()


def _series(hd, combo):
    """The row of ``proto_series``'s stack for ``combo``."""
    return features.proto_series(hd)[features.STAGE_COMBOS.index(combo)]


def test_proto_series_uniform_pair():
    hd = Hypnodensity(probs=np.full((4, 5), 0.2), resolution_s=30)
    assert features.proto_series(hd).shape == (31, 4)
    assert np.allclose(_series(hd, ("W", "N2")), 0.04)


def test_proto_series_singleton_is_raw_column(rng):
    hd = random_hypnodensity(rng, 6)
    assert np.array_equal(_series(hd, ("REM",)), hd.probs[:, 4])


def test_proto_series_zero_annihilates():
    p = np.array([[0.0, 0.5, 0.5, 0.0, 0.0]])
    hd = Hypnodensity(probs=p, resolution_s=30)
    assert _series(hd, ("W", "N1"))[0] == 0.0


def test_proto_series_monotone_in_combo_size(rng):
    hd = random_hypnodensity(rng, 8)
    small = _series(hd, ("N2", "N3"))
    big = _series(hd, ("N2", "N3", "REM"))
    assert np.all(big <= small + 1e-15)


def _time_to_fraction_own_cumsum(series, frac):
    """``features._time_to_fraction`` as it was when every call took its own
    cumulative sum (one per percentage)."""
    cum = np.cumsum(series)
    target = frac * cum[-1]
    i = int(np.searchsorted(cum, target))
    prev = cum[i - 1] if i > 0 else 0.0
    within = (target - prev) / series[i] if series[i] > 0 else 0.0
    return i + within


@pytest.mark.parametrize("n_rows", [1, 2, 7, 960])
def test_one_cumsum_per_series_is_bitwise_the_cumsum_per_percentage(n_rows):
    rng = np.random.default_rng(n_rows)
    hd = random_hypnodensity(rng, n_rows, 5)
    # sure W rows make zeros in every series without W; an all-W night makes
    # every such series all zeros
    hd.probs[rng.random(n_rows) < 0.4] = [1.0, 0, 0, 0, 0]
    for probs in (hd.probs, np.tile([1.0, 0, 0, 0, 0], (n_rows, 1))):
        stack = features.proto_series(Hypnodensity(probs=probs, resolution_s=5))
        got = features.combo_descriptors(stack, 5)[:, 6:12]
        for s, row in zip(stack, got):
            total = s.sum()
            expect = [_time_to_fraction_own_cumsum(s, p / 100.0) * 5 / 60.0 * total
                      if total > 0 else 0.0 for p in features.CUMSUM_PERCENTS]
            assert np.array_equal(row, expect)


# ``proto_series`` and ``combo_descriptors`` as they were when each of the
# 31 series was built and described on its own: the oracle for the stack.

def _proto_series_one(hd, combo):
    idx = [STAGES.index(s) for s in combo]
    return np.prod(hd.probs[:, idx], axis=1)


def _combo_descriptors_one(series, resolution_s):
    s = np.asarray(series, dtype=float)
    out = np.zeros(len(features.DESCRIPTOR_NAMES))
    out[0] = s.mean()
    out[1] = s.max()
    out[2] = s.std()
    if len(s) > 1:
        d = np.abs(np.diff(s))
        out[3] = d.mean()
        out[4] = d.max()
    total = s.sum()
    if total > 0:
        q = s / total
        nz = q[q > 0]
        out[5] = float(-(nz * np.log(nz)).sum())
        cum = np.cumsum(s)
        for j, p in enumerate(features.CUMSUM_PERCENTS):
            target = p / 100.0 * cum[-1]
            i = int(np.searchsorted(cum, target))
            prev = cum[i - 1] if i > 0 else 0.0
            within = (target - prev) / s[i] if s[i] > 0 else 0.0
            out[6 + j] = (i + within) * resolution_s / 60.0 * total
    out[12] = total
    if out[1] > 0:
        out[13] = float(np.mean(s > 0.5 * out[1]))
    if len(s) > 1:
        centered = s - out[0]
        ups = (centered[1:] > 0) & (centered[:-1] <= 0)
        out[14] = float(ups.sum()) / (len(s) * resolution_s / 3600.0)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 400),
       sure_w=st.sampled_from([0.0, 0.3, 1.0]), spread=st.sampled_from([0.5, 3.0, 300.0]))
@example(seed=0, n_rows=1, sure_w=0.0, spread=3.0)
@example(seed=1, n_rows=2, sure_w=0.0, spread=3.0)
@example(seed=2, n_rows=1, sure_w=1.0, spread=3.0)
@example(seed=3, n_rows=2, sure_w=0.3, spread=3.0)
@example(seed=4, n_rows=2880, sure_w=0.3, spread=3.0)
def test_the_stack_is_bitwise_each_series_described_alone(seed, n_rows, sure_w, spread):
    """Softmax rows at several confidences (at ``spread`` 300 small
    probabilities underflow to exact zeros); a fraction ``sure_w`` of rows is
    exactly W, which makes zeros in every series without W, and all of them
    (1.0) makes those series all zeros."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, spread, (n_rows, 5))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[rng.random(n_rows) < sure_w] = [1.0, 0, 0, 0, 0]
    hd = Hypnodensity(probs=probs, resolution_s=5)
    stack = features.proto_series(hd)
    assert stack.shape == (31, n_rows)
    assert np.array_equal(stack, [_proto_series_one(hd, c) for c in features.STAGE_COMBOS])
    for res in (5, 30):
        got = features.combo_descriptors(stack, res)
        expect = np.array([_combo_descriptors_one(s, res) for s in stack])
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))


def test_descriptors_constant_series_closed_forms():
    n, res = 100, 30
    c = 0.3
    out = features.combo_descriptors(np.full((1, n), c), res)[0]
    total = c * n
    duration_min = n * res / 60.0
    assert abs(out[0] - c) < 1e-12                      # mean
    assert out[2] == 0.0                                # std
    assert abs(out[5] - np.log(n)) < 1e-12              # entropy
    assert abs(out[6] - 0.05 * duration_min * total) < 1e-9
    assert abs(out[11] - 0.90 * duration_min * total) < 1e-9
    assert abs(out[12] - total) < 1e-12


def test_descriptors_impulse_series():
    s = np.zeros(60)
    s[17] = 1.0
    out = features.combo_descriptors(s[None], 30)[0]
    assert out[5] == 0.0                                # entropy of a point mass
    # every cumulative-threshold time falls inside the impulse segment
    for j in range(6):
        t_min = out[6 + j] / out[12]
        assert 17 * 0.5 <= t_min <= 18 * 0.5


@pytest.mark.parametrize("shape", [(31, 0), (0,), (5,)])
def test_descriptors_refuse_what_is_not_a_stack_of_series(shape):
    with pytest.raises(ShapeMismatch):
        features.combo_descriptors(np.zeros(shape), 30)


def test_sorem_fixture_count_one():
    stages = ["W"] * 10 + ["N1"] * 5 + ["REM"] * 10
    rep = features.sorem_analysis(HypnogramLabels(stages, epoch_s=30))
    assert rep.sleep_latency_min == 5.0
    assert rep.count == 1
    assert rep.total_duration_min == 5.0


def test_sorem_classic_progression_not_counted():
    stages = (["W"] * 20 + ["N1"] * 20 + ["N2"] * 60 + ["N3"] * 100
              + ["REM"] * 20)
    rep = features.sorem_analysis(HypnogramLabels(stages, epoch_s=30))
    assert rep.count == 0
    assert rep.rem_latency_min == 90.0


def test_sorem_all_wake():
    rep = features.sorem_analysis(HypnogramLabels(["W"] * 40, epoch_s=30))
    assert rep.count == 0
    assert rep.rem_latency_min == 20.0
    assert rep.sleep_latency_min == 20.0


def test_fragmentation_alternating_blocks():
    k = 5
    stages = (["N2"] * 4 + ["W"] * 2) * k      # 2 min N2 / 1 min W
    out = features.fragmentation_features(HypnogramLabels(stages, epoch_s=30))
    assert out[0] == k


def test_fragmentation_continuous_night():
    out = features.fragmentation_features(
        HypnogramLabels(["N2"] * 100, epoch_s=30))
    assert np.all(out == 0.0)


def test_sequencing_invariant_to_resolution_refinement():
    stages = ["W"] * 6 + ["N1"] * 6 + ["N2"] * 12 + ["REM"] * 8
    coarse = HypnogramLabels(stages, epoch_s=30)
    fine = HypnogramLabels([s for s in stages for _ in range(6)], epoch_s=5)
    rc = features.sorem_analysis(coarse)
    rf = features.sorem_analysis(fine)
    assert (rc.count, rc.rem_latency_min, rc.sleep_latency_min,
            rc.total_duration_min) == \
           (rf.count, rf.rem_latency_min, rf.sleep_latency_min,
            rf.total_duration_min)
    assert np.allclose(features.fragmentation_features(coarse),
                       features.fragmentation_features(fine))


def test_transition_single_dominant_stage():
    p = np.zeros((100, 5))
    p[:, 2] = 1.0
    hd = Hypnodensity(probs=p, resolution_s=30)
    assert np.all(features.transition_features(hd) == 0.0)


def test_transition_two_peaks_geometric_mean():
    p = np.zeros((41, 5))
    p[:16, 0] = 1.0         # 16 epochs of W: mass 16
    p[16:, 2] = 1.0         # 25 epochs of N2: mass 25
    hd = Hypnodensity(probs=p, resolution_s=30)
    out = features.transition_features(hd)
    idx = features.TRANSITION_TYPES.index(("WN1", "N2"))
    assert abs(out[idx] - 20.0) < 1e-9
    assert np.all(np.delete(out, idx) == 0.0)


def test_transition_small_peaks_excluded():
    p = np.zeros((40, 5))
    p[:9, 0] = 1.0          # mass 9 < floor
    p[9:, 2] = 1.0
    hd = Hypnodensity(probs=p, resolution_s=30)
    assert np.all(features.transition_features(hd) == 0.0)


def test_transition_scale_homogeneity():
    # tau is the geometric mean of adjacent masses: linear in a common scale
    peaks = [("WN1", 16.0), ("N2", 25.0), ("REM", 36.0)]
    base = features.transition_sums(peaks)
    scaled = features.transition_sums([(t, 4.0 * m) for t, m in peaks])
    assert np.allclose(scaled, 4.0 * base)


def test_assemble_matches_brute_force_on_random_recordings(rng):
    for trial in range(10):
        n = int(rng.integers(60, 200))
        hd = random_hypnodensity(rng, n, 30)
        hyp = HypnogramLabels(
            [STAGES[int(np.argmax(r))] for r in hd.probs], epoch_s=30)
        vec = features.assemble(hd, hyp)
        oracle = brute_force_vector(hd, hyp)
        assert len(vec.values) == 481
        assert np.max(np.abs(vec.values - oracle)) < 1e-9


def test_assemble_uniform_hypnodensity_closed_forms():
    hd = Hypnodensity(probs=np.full((120, 5), 0.2), resolution_s=30)
    hyp = HypnogramLabels(["W"] * 120, epoch_s=30)
    d = dict(zip(features.feature_names(), features.assemble(hd, hyp).values))
    for k in range(1, 6):
        tag = "+".join(features.STAGE_COMBOS[
            [len(c) for c in features.STAGE_COMBOS].index(k)])
        assert abs(d[f"{tag}.mean"] - 0.2 ** k) < 1e-12
        assert d[f"{tag}.std"] < 1e-12


def test_feature_vector_serialization_round_trips(rng):
    hd = random_hypnodensity(rng, 60)
    hyp = HypnogramLabels([STAGES[int(np.argmax(r))] for r in hd.probs],
                          epoch_s=30)
    vec = features.assemble(hd, hyp)
    back = features.FeatureVector.from_json(vec.to_json())
    assert np.allclose(back.values, vec.values)
    assert list(json.loads(vec.to_json())["features"]) == features.feature_names()
    csv_lines = vec.to_csv().splitlines()
    assert csv_lines[0].split(",") == features.feature_names()


def test_assemble_rejects_nonfinite(rng, monkeypatch):
    hd = random_hypnodensity(rng, 10)
    hd.probs = hd.probs.copy()
    hyp = HypnogramLabels(["W"] * 10, epoch_s=30)
    hd.probs[0, 0] = np.nan
    with pytest.raises(InvalidValues):
        features.assemble(hd, hyp)
    hd = random_hypnodensity(rng, 10)
    monkeypatch.setattr(features, "transition_features", lambda hd: np.full(9, np.inf))
    with pytest.raises(InvalidValues, match="non-finite feature"):
        features.assemble(hd, hyp)


# ------------------------------------------------------- the workspace

# A fresh interpreter: in this one, what earlier tests freed sets glibc's
# allocation thresholds, and with them whether fresh (31, T) arrays fault.
# It prints "uncounted" where touching a fresh 8 MB array counts no fault.
_FAULT_PROBE = """
import resource
import numpy as np
from hypnopipe import features
from hypnopipe.hypnodensity import Hypnodensity, to_hypnogram

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

before = faults()
touched = np.ones(1 << 20)   # kept: freeing it would raise those thresholds
if faults() == before:
    print("uncounted")
else:
    rng = np.random.default_rng(2018)
    nights = []
    for _ in range(41):
        p = rng.random((2880, 5)) + 1e-3
        p /= p.sum(axis=1, keepdims=True)
        hd = Hypnodensity(probs=p, resolution_s=5)
        nights.append((hd, to_hypnogram(hd)))
    features.assemble(*nights[0])
    before = faults()
    for hd, hyp in nights[1:]:
        features.assemble(hd, hyp)
    print((faults() - before) / 40)
"""


def test_assemble_makes_no_fresh_large_arrays_for_nights_of_equal_length():
    """After one warm-up night, 40 nights of 8 h at 5 s (T = 2880) cost at
    most 20 minor page faults each: ``combo_descriptors``' work arrays are
    those of the previous call, not arrays the allocator hands back to the
    system between nights (about 860 faults a night when they were, about
    640 when the same arrays were allocated on every call)."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(features.__file__))
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True,
                         text=True, timeout=120, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout.strip()
    if out == "uncounted":
        pytest.skip("this system does not count minor page faults")
    assert float(out) <= 20


def _nights(seed, lengths, resolution_s=5):
    rng = np.random.default_rng(seed)
    nights = [random_hypnodensity(rng, n, resolution_s) for n in lengths]
    return [(hd, to_hypnogram(hd)) for hd in nights]


def test_assemble_on_threads_is_the_serial_loop():
    """Nights of two lengths interleaved, so that a spare workspace is often
    of the other shape; then more threads than cores switching every
    microsecond, so that calls overlap."""
    nights = _nights(24, (2880, 700) * 4)
    serial = [features.assemble(hd, hyp).values for hd, hyp in nights]
    threaded = pool.thread_map(lambda night: features.assemble(*night).values, nights)
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as ex:
            futures = [ex.submit(features.assemble, *night) for night in nights * 2]
            stressed = [f.result(timeout=120).values for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(serial * 2, stressed))


def test_no_result_aliases_the_workspace():
    """What ``assemble``, ``proto_series`` and ``combo_descriptors`` return,
    and the series given to ``combo_descriptors``, stay as they were through
    later calls on nights of the same and of another length."""
    nights = _nights(25, (960, 960, 300))
    hd, hyp = nights[0]
    vector = features.assemble(hd, hyp)
    stack = features.proto_series(hd)
    described = features.combo_descriptors(stack, 5)
    kept = [a.copy() for a in (vector.values, stack, described)]
    for other, other_hyp in nights[1:] + nights[:1]:
        features.assemble(other, other_hyp)
        features.combo_descriptors(features.proto_series(other), 30)
    assert all(np.array_equal(a, b) for a, b in zip((vector.values, stack, described), kept))


def test_float32_probabilities_are_described_as_each_series_alone():
    """A float32 hypnodensity's series multiply in float32, as ``np.prod``
    of its columns does, and are described in float64."""
    hd = random_hypnodensity(np.random.default_rng(32), 700, 5)
    hd = Hypnodensity(hd.probs.astype(np.float32), 5)
    expect = np.concatenate([_combo_descriptors_one(_proto_series_one(hd, c), 5)
                             for c in features.STAGE_COMBOS])
    got = features.assemble(hd, to_hypnogram(hd)).values[:len(expect)]
    assert np.array_equal(got, expect)


def _block(stage, rows, value=1.0, dtype=float):
    """``rows`` rows with ``value`` on ``stage`` and the rest of the row's
    sum on the stage after it, no lower than the -1e-9 ``validate`` allows."""
    p = np.zeros((rows, 5), dtype=dtype)
    p[:, stage] = value
    p[:, (stage + 1) % 5] = max(dtype(1) - p[0, stage], -1e-9)
    return p


@pytest.mark.parametrize("resolution_s", [5, 15, 30])
def test_peak_floor_skip_at_its_edge_is_the_loop(resolution_s):
    """A run whose mass is exactly PEAK_MASS_FLOOR is kept, one a row
    shorter is dropped, and rows at the 1 + 1e-9 edge ``validate`` allows
    agree with the loop that sums every run."""
    at_floor = round(features.PEAK_MASS_FLOOR * 30 / resolution_s)
    # W at the floor, N2 one row short, REM at the floor
    hd = Hypnodensity(np.vstack([_block(0, at_floor), _block(2, at_floor - 1),
                                 _block(4, at_floor)]), resolution_s)
    floor = features.PEAK_MASS_FLOOR
    assert features.hypnodensity_peaks(hd) == peaks_loop(hd) == [("WN1", floor), ("REM", floor)]
    edge = 1 + 1e-9
    rng = np.random.default_rng(resolution_s)
    for _ in range(100):
        blocks = [_block(int(rng.integers(5)), at_floor + int(rng.integers(-1, 2)),
                         rng.choice([1.0, edge, 1 - 1e-9, rng.uniform(0.6, 1.0)]))
                  for _ in range(int(rng.integers(1, 6)))]
        hd = Hypnodensity(np.vstack(blocks), resolution_s)
        hd.validate()
        assert features.hypnodensity_peaks(hd) == peaks_loop(hd)


def test_a_float32_run_whose_sum_rounds_up_to_the_floor_is_kept():
    """11 rows at 30 s of the float32 N2 value 15252014 * 2**-24: their
    exact mass is 9.99999965, but numpy's float32 sum rounds it to 10.0,
    so the loop keeps the peak; a bound with a float64-sized margin would
    skip the run.  Float32 runs near the floor at each resolution agree
    with the loop too."""
    n2 = np.float32(15252014 * 2.0**-24)
    hd = Hypnodensity(_block(2, 11, n2, np.float32), 30)
    hd.validate()
    assert features.hypnodensity_peaks(hd) == peaks_loop(hd) == [("N2", 10.0)]
    rng = np.random.default_rng(33)
    for resolution_s in (5, 15, 30):
        at_floor = round(features.PEAK_MASS_FLOOR * 30 / resolution_s)
        for _ in range(100):
            value = np.float32(1 - rng.uniform(0, 2e-6) * 10.0 ** -rng.integers(0, 3))
            blocks = [_block(int(rng.integers(5)), at_floor + int(rng.integers(-1, 2)),
                             value, np.float32)
                      for _ in range(int(rng.integers(1, 6)))]
            hd = Hypnodensity(np.vstack(blocks), resolution_s)
            assert features.hypnodensity_peaks(hd) == peaks_loop(hd)
