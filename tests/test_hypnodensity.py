from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnopipe import hypnodensity as hyp
from hypnopipe.errors import (IncompatibleResolution, InvalidValues, ShapeMismatch,
                              ZeroTotalWeight)
from hypnopipe.signal_io import STAGES, HypnogramLabels
from conftest import random_hypnodensity


def hd_from(rows, res=30):
    return hyp.Hypnodensity(probs=np.array(rows, dtype=float), resolution_s=res)


# -------------------------------------------------------------- hypnogram

def test_single_row_argmax():
    assert hyp.to_hypnogram(hd_from([[0.1, 0.2, 0.5, 0.1, 0.1]])).stages == ["N2"]


def test_epoch_sums_decide():
    hd = hd_from([[0.6, 0.1, 0.1, 0.1, 0.1],
                  [0.1, 0.0, 0.9, 0.0, 0.0]], res=15)
    assert hyp.to_hypnogram(hd, epoch_s=30).stages == ["N2"]


def test_uniform_ties_go_to_wake():
    hd = hd_from([[0.2] * 5])
    assert hyp.to_hypnogram(hd).stages == ["W"]


def test_argmax_scale_invariant(rng):
    hd = random_hypnodensity(rng, 40, 5)
    base = hyp.to_hypnogram(hd, 30).stages
    scaled = hyp.Hypnodensity(probs=hd.probs * 3.7, resolution_s=5)
    # bypass validation: collapse works on raw weights
    assert hyp.to_hypnogram(scaled, 30).stages == base


def test_incompatible_epoch():
    with pytest.raises(IncompatibleResolution):
        hyp.to_hypnogram(hd_from([[1, 0, 0, 0, 0]] * 4, res=30), epoch_s=5)


# ------------------------------------------------------------ aggregation

def test_aggregate_block_mean():
    rows = [[1, 0, 0, 0, 0]] * 3 + [[0, 0, 1, 0, 0]] * 3
    out = hyp.aggregate_resolution(hd_from(rows, res=5), 30)
    assert out.probs.shape == (1, 5)
    assert np.allclose(out.probs[0], [0.5, 0, 0.5, 0, 0])


def test_aggregate_constant_rows_unchanged(rng):
    row = rng.random(5) + 0.01
    row /= row.sum()
    hd = hd_from([row] * 12, res=5)
    out = hyp.aggregate_resolution(hd, 30)
    assert np.allclose(out.probs, row)


def test_aggregate_preserves_row_stochasticity(rng):
    hd = random_hypnodensity(rng, 60, 5)
    out = hyp.aggregate_resolution(hd, 30)
    assert np.allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)


def test_aggregate_then_argmax_matches_direct(rng):
    for _ in range(200):
        hd = random_hypnodensity(rng, 24, 5)
        agg = hyp.aggregate_resolution(hd, 30)
        assert hyp.to_hypnogram(agg, 30).stages == hyp.to_hypnogram(hd, 30).stages


# ------------------------------------------------------------------ kappa

def test_kappa_identity():
    a = ["W", "N1", "N2", "REM", "N3"] * 4
    assert hyp.cohen_kappa(a, a) == 1.0


def test_kappa_symmetric(rng):
    a = [STAGES[i] for i in rng.integers(0, 5, 200)]
    b = [STAGES[i] for i in rng.integers(0, 5, 200)]
    assert abs(hyp.cohen_kappa(a, b) - hyp.cohen_kappa(b, a)) < 1e-12


def test_kappa_independent_labels_near_zero():
    r = np.random.default_rng(0)
    a = [STAGES[i] for i in r.integers(0, 5, 100000)]
    b = [STAGES[i] for i in r.integers(0, 5, 100000)]
    assert abs(hyp.cohen_kappa(a, b)) < 0.01


def test_kappa_hand_computed_case():
    a = ["W", "W", "N2", "N2"]
    b = ["W", "W", "N2", "REM"]
    p_o = 0.75
    p_e = (2 / 4) * (2 / 4) + (2 / 4) * (1 / 4) + 0.0 * (1 / 4)
    expect = 1 - (1 - p_o) / (1 - p_e)
    assert abs(hyp.cohen_kappa(a, b) - expect) < 1e-12


def test_kappa_excludes_unscored():
    a = ["W", "UNSCORED", "N2"]
    b = ["W", "N1", "N2"]
    assert hyp.cohen_kappa(a, b) == hyp.cohen_kappa(["W", "N2"], ["W", "N2"])


def test_kappa_degenerate_marginals():
    assert hyp.cohen_kappa(["W", "W"], ["W", "W"]) == 1.0
    assert hyp.cohen_kappa(["W", "W"], ["N2", "N2"]) == 0.0


# -------------------------------------------------------------- consensus

def _h(stages):
    return HypnogramLabels(stages=list(stages), epoch_s=30)


def test_consensus_of_identical_scorers():
    s = _h(["W", "N1", "N2", "N3", "REM"] * 10)
    out, kappas = hyp.consensus_hypnogram([s, s, s])
    assert out.stages == s.stages
    assert all(abs(k - 1.0) < 1e-12 for k in kappas)


def test_consensus_downweights_random_scorer():
    r = np.random.default_rng(1)
    good = _h([STAGES[i] for i in r.integers(0, 5, 2000)])
    noise = _h([STAGES[i] for i in r.integers(0, 5, 2000)])
    out, kappas = hyp.consensus_hypnogram([good] * 5 + [noise])
    assert kappas[-1] < 0.05
    assert out.stages == good.stages


def test_consensus_equal_kappa_reduces_to_majority():
    # rotation-symmetric scorers: every leave-one-out kappa is identical
    agree = [["N3", "N3", "N3"], ["REM", "REM", "REM"]] * 6
    cyc = [["W", "N1", "N2"], ["N1", "N2", "W"], ["N2", "W", "N1"]] * 2
    epochs = agree + cyc
    a = _h([e[0] for e in epochs])
    b = _h([e[1] for e in epochs])
    c = _h([e[2] for e in epochs])
    out, kappas = hyp.consensus_hypnogram([a, b, c])
    assert max(kappas) - min(kappas) < 1e-12
    votes = hyp._majority_vote([a.stages, b.stages, c.stages])
    assert out.stages == votes


def test_consensus_total_disagreement_tie_break():
    a = _h(["N2"] * 4)
    b = _h(["REM"] * 4)
    out, _ = hyp.consensus_hypnogram([a, b])
    assert out.stages == ["N2"] * 4  # earlier stage in canonical order


# ----------------------------------------------------------- epoch weight

def test_epoch_weight_unanimity():
    assert hyp.epoch_weight(np.array([1, 0, 0, 0, 0.0])) == 1.0


def test_epoch_weight_even_split():
    assert hyp.epoch_weight(np.array([0.5, 0.5, 0, 0, 0.0])) == 0.0


def test_epoch_weight_four_to_two():
    assert abs(hyp.epoch_weight(np.array([4 / 6, 2 / 6, 0, 0, 0])) - 1 / 3) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
def test_epoch_weight_in_unit_interval(votes):
    v = np.array(votes)
    if v.sum() == 0:
        v[0] = 1.0
    v = v / v.sum()
    w = hyp.epoch_weight(v)
    assert -1e-12 <= w <= 1.0 + 1e-12


def test_epoch_weight_is_one_only_at_unanimity():
    assert hyp.epoch_weight(np.array([0, 0, 1, 0, 0.0])) == 1.0
    assert hyp.epoch_weight(np.array([0.9, 0.1, 0, 0, 0.0])) < 1.0


# ------------------------------------------------------ weighted accuracy

def test_weighted_accuracy_reduces_to_plain_accuracy():
    scorers = [_h(["W", "N2", "REM", "N3"])] * 3  # unanimity: weight 1 everywhere
    model = _h(["W", "N2", "N1", "N3"])
    assert abs(hyp.weighted_accuracy(model, scorers) - 0.75) < 1e-12


def test_weighted_accuracy_ignores_zero_weight_epochs():
    a = _h(["W", "N2"])
    b = _h(["W", "REM"])
    model = _h(["W", "N3"])   # wrong only on the split epoch
    assert hyp.weighted_accuracy(model, [a, b]) == 1.0


def test_weighted_accuracy_all_split_raises():
    a = _h(["N2", "N2"])
    b = _h(["REM", "REM"])
    with pytest.raises(ZeroTotalWeight):
        hyp.weighted_accuracy(_h(["N2", "N2"]), [a, b])


def test_weighted_beats_unweighted_on_consensus_structured_fixture():
    r = np.random.default_rng(7)
    truth = [STAGES[i] for i in r.integers(0, 5, 1200)]
    scorers = []
    for _ in range(6):
        s = list(truth)
        # scorers disagree heavily on the second half only
        for e in range(600, 1200):
            if r.random() < 0.8:
                s[e] = STAGES[r.integers(0, 5)]
        scorers.append(_h(s))
    model = _h(truth)
    fractions = hyp.scorer_vote_fractions(scorers)
    consensus = [STAGES[int(np.argmax(row))] for row in fractions]
    plain = np.mean([m == c for m, c in zip(model.stages, consensus)])
    assert hyp.weighted_accuracy(model, scorers) >= plain


# -------------------------------------------------------------- confusion

def test_confusion_perfect_agreement():
    a = _h(["W", "N1", "N2", "N3", "REM"])
    out = hyp.confusion(a, a)
    assert out["accuracy"] == 1.0
    assert np.allclose(np.diag(out["matrix"]), 0.2)


def test_confusion_disjoint_labels():
    out = hyp.confusion(_h(["W"] * 4), _h(["N2"] * 4))
    assert np.trace(out["matrix"]) == 0.0


def test_confusion_known_counts():
    model = _h(["W", "W", "N2", "REM"])
    ref = _h(["W", "N2", "N2", "REM"])
    out = hyp.confusion(model, ref)
    assert out["matrix"][0, 0] == 0.25       # W/W
    assert out["matrix"][0, 2] == 0.25       # model W, ref N2
    assert out["accuracy"] == 0.75


# --------------------------------------------------------------- ensemble

def test_ensemble_identical_models_zero_variance(rng):
    hd = random_hypnodensity(rng, 10)
    ens = hyp.ensemble_hypnodensity([hd, hd, hd])
    assert np.all(ens.variance < 1e-30)
    assert np.allclose(ens.probs, hd.probs)


def test_ensemble_two_opposed_models():
    a = hd_from([[1, 0, 0, 0, 0]])
    b = hd_from([[0, 1, 0, 0, 0]])
    ens = hyp.ensemble_hypnodensity([a, b])
    assert np.allclose(ens.probs[0], [0.5, 0.5, 0, 0, 0])
    assert np.allclose(ens.variance[0], [0.25, 0.25, 0, 0, 0])


def test_ensemble_mean_rows_sum_to_one(rng):
    models = [random_hypnodensity(rng, 20) for _ in range(16)]
    ens = hyp.ensemble_hypnodensity(models)
    assert np.allclose(ens.probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(ens.variance, np.stack([m.probs for m in models]).var(axis=0))


def test_ensemble_shape_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        hyp.ensemble_hypnodensity([random_hypnodensity(rng, 4),
                                   random_hypnodensity(rng, 5)])


# ---------------------------------------------------------------- CSV I/O

def test_csv_round_trip(rng):
    hd = random_hypnodensity(rng, 8, 5)
    back = hyp.Hypnodensity.from_csv(hd.to_csv())
    assert back.resolution_s == 5
    assert np.allclose(back.probs, hd.probs, atol=1e-8)


def test_ensemble_csv_has_variance_columns(rng):
    models = [random_hypnodensity(rng, 4) for _ in range(3)]
    ens = hyp.ensemble_hypnodensity(models)
    text = ens.to_csv()
    header = text.splitlines()[0]
    assert header == "t_start_s,W,N1,N2,N3,REM,varW,varN1,varN2,varN3,varREM"
    assert models[0].to_csv().splitlines()[0] == "t_start_s,W,N1,N2,N3,REM"
    # the variance columns are ignored on reading
    back = hyp.Hypnodensity.from_csv(text)
    assert back.variance is None
    assert np.allclose(back.probs, ens.probs, atol=1e-8)


def test_from_csv_validates_the_probabilities():
    text = hd_from([[1, 0, 0, 0, 0], [0.5, 0, 0, 0, 0]]).to_csv()
    with pytest.raises(InvalidValues, match="sum to 1"):
        hyp.Hypnodensity.from_csv(text)


def test_only_hypnodensity_knows_the_stage_encoding():
    """Other modules turn labels into numbers through ``stage_codes``."""
    src = Path(hyp.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py"))
                 if p.name != "hypnodensity.py" and "STAGE_INDEX" in p.read_text()]
    assert offenders == []
