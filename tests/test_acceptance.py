"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a single ``criterion <name>:
PASS/FAIL`` line so the suite output doubles as a release checklist.
"""

import contextlib
import json
import os

import numpy as np
from scipy import signal as sps

from hypnopipe import (
    cli,
    diagnosis,
    encoding,
    features,
    hypnodensity,
    neuralnet as nn,
    preprocess,
    signal_io,
)
from hypnopipe.hypnodensity import Hypnodensity
from hypnopipe.signal_io import STAGES, HypnogramLabels

from conftest import cc_lag0_index, grad_check, make_montage, random_hypnodensity
from test_cli import RAW_SPEC
from test_features import brute_force_vector
from test_neuralnet import learner_config, pooled, separable_dataset, toy_config


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"criterion {name}: FAIL")
        raise
    print(f"criterion {name}: PASS")


def tone(freq, fs, duration_s, amp=1.0):
    t = np.arange(round(fs * duration_s)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


def test_criterion_constant_fidelity():
    with criterion("constant-fidelity"):
        assert preprocess.HIGHPASS_HZ == 0.2
        assert preprocess.LOWPASS_HZ == 49.0
        assert preprocess.FILTER_ORDER == 5
        assert preprocess.TARGET_FS == 100.0
        assert encoding.OCTAVE_CUTOFFS_HZ == (49.0, 25.0, 12.5, 6.25, 3.125)
        eog = encoding.CC_PARAMS["EOG"]
        assert (eog.segment_s, eog.segment_s - eog.hop_s) == (4.0, 3.75)
        emg = encoding.CC_PARAMS["EMG"]
        assert (emg.segment_s, emg.segment_s - emg.hop_s) == (0.4, 0.25)
        assert nn.WEIGHT_DECAY == 1e-5
        assert nn.MOMENTUM == 0.9
        assert nn.LEARNING_RATE_0 == 0.005
        assert nn.LR_TAU == 12000
        assert nn.DROPOUT_KEEP == 0.5
        assert nn.INIT_VARIANCE == 0.01
        assert nn.ENSEMBLE_SIZE == 16
        assert nn.ENSEMBLE_SCALE == (0.5, 1.5)
        assert diagnosis.RFE_CUTOFF == 0.40
        assert diagnosis.RFE_TARGET_COUNT == 38
        assert diagnosis.THRESHOLD_NO_HLA == -0.03
        assert diagnosis.THRESHOLD_WITH_HLA == -0.53
        assert features.SOREMP_WAKE_MIN == 2.5
        assert features.FRAG_NREM_S == 90
        assert features.FRAG_BREAK_S == 60
        assert features.LONG_BOUT_MIN == 3.0
        assert features.PEAK_MASS_FLOOR == 10.0


def test_criterion_dsp_suite():
    with criterion("dsp-suite"):
        fs = 256.0
        # DC rejection
        dc = preprocess.bandlimit(np.full(round(60 * fs), 37.0), fs)
        assert np.max(np.abs(dc[len(dc) // 4: -len(dc) // 4])) < 1e-3
        # 30 dB stopband at 70 Hz
        x70 = tone(70, fs, 60)
        out = preprocess.bandlimit(x70, fs)
        atten = 20 * np.log10(np.max(np.abs(out[2000:-2000])))
        assert atten < -30
        # zero phase: peak cross-correlation of in-band tone at lag 0
        x = tone(10, fs, 30)
        y = preprocess.bandlimit(x, fs)
        xc = sps.correlate(y[2000:-2000], x[2000:-2000], mode="full")
        assert np.argmax(xc) == len(x) - 4001
        # octave energy nesting: each stage removes energy
        rng = np.random.default_rng(0)
        casc = encoding.octave_cascade(rng.standard_normal(60000), 100.0)
        energies = (casc ** 2).sum(axis=1)
        assert np.all(np.diff(energies) < 0)
        # CC lag 0 equals mean power, exact for a unit sine
        params = encoding.CC_PARAMS["EEG"]
        g = encoding.cc_segment(tone(5, 100.0, 20), 100.0, params)
        i0 = cc_lag0_index(params, 100.0)
        assert abs(g[20, i0] - 0.5) / 0.5 < 1e-6


def test_criterion_gradient_check(rng):
    with criterion("gradient-check"):
        shapes = {"EEG": (1, 20), "EOG": (3, 20), "EMG": (1, 10)}
        batch = {m: rng.standard_normal((3,) + shapes[m]) for m in shapes}
        y = np.eye(5)[[0, 2, 4]]
        for mode in ("FF", "LSTM"):
            cfg = toy_config(mode)
            err = grad_check(nn.init_params(cfg), batch, y, cfg)
            assert err < 1e-3


def test_criterion_toy_training(rng):
    with criterion("toy-training"):
        cfg = learner_config()
        dataset = separable_dataset(rng)
        params, history = nn.train(dataset, cfg, max_batches=2000)
        batch, labels = pooled(dataset)
        probs, _ = nn.forward(params, batch, cfg)
        assert (probs.argmax(axis=1) == labels).mean() >= 0.95
        assert len(history) * nn.VALIDATE_EVERY < 2000  # early stop fired
        p1, h1 = nn.train(dataset, cfg, max_batches=400)
        p2, h2 = nn.train(dataset, cfg, max_batches=400)
        assert h1 == h2
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)


def test_criterion_consensus_math(rng):
    with criterion("consensus-math"):
        a = HypnogramLabels([STAGES[i] for i in rng.integers(0, 5, 100)])
        assert hypnodensity.cohen_kappa(a.stages, a.stages) == 1.0
        # independent labels: kappa near zero
        u = [STAGES[i] for i in rng.integers(0, 5, 100000)]
        v = [STAGES[i] for i in rng.integers(0, 5, 100000)]
        assert abs(hypnodensity.cohen_kappa(u, v)) < 0.01
        # equal leave-one-out kappas collapse the consensus to majority vote
        epochs = ([["N3"] * 3, ["REM"] * 3] * 6
                  + [["W", "N1", "N2"], ["N1", "N2", "W"],
                     ["N2", "W", "N1"]] * 2)
        scorers = [HypnogramLabels([e[i] for e in epochs]) for i in range(3)]
        out, kappas = hypnodensity.consensus_hypnogram(scorers)
        assert max(kappas) - min(kappas) < 1e-12
        assert out.stages == hypnodensity._majority_vote(
            [s.stages for s in scorers])
        # epoch weight: unanimity 1, even split 0
        assert hypnodensity.epoch_weight(np.array([1.0, 0, 0, 0, 0])) == 1.0
        assert hypnodensity.epoch_weight(np.array([0.5, 0.5, 0, 0, 0])) == 0.0
        # unit weights reduce weighted accuracy to plain accuracy
        model = HypnogramLabels([STAGES[i] for i in rng.integers(0, 5, 60)])
        ref = HypnogramLabels(model.stages[:30] + ["W"] * 30)
        plain = np.mean([m == r for m, r in zip(model.stages, ref.stages)])
        got = hypnodensity.weighted_accuracy(model, [ref])
        assert got == plain


def test_criterion_resolution_property(rng):
    with criterion("resolution-property"):
        for _ in range(1000):
            n = int(rng.integers(1, 30)) * 6
            hd5 = random_hypnodensity(rng, n, resolution_s=5)
            direct = hypnodensity.to_hypnogram(hd5, epoch_s=30)
            via = hypnodensity.to_hypnogram(
                hypnodensity.aggregate_resolution(hd5, 30), epoch_s=30)
            assert via.stages == direct.stages


def test_criterion_feature_oracle(rng):
    with criterion("feature-oracle"):
        assert len(features.feature_names()) == 481
        for trial in range(10):
            n = int(rng.integers(60, 200))
            hd = random_hypnodensity(rng, n, 30)
            hyp = HypnogramLabels(
                [STAGES[int(np.argmax(r))] for r in hd.probs], epoch_s=30)
            vec = features.assemble(hd, hyp)
            assert len(vec.values) == 481
            assert np.max(np.abs(vec.values - brute_force_vector(hd, hyp))) < 1e-9
        # uniform hypnodensity closed forms
        hd = Hypnodensity(probs=np.full((120, 5), 0.2), resolution_s=30)
        vec = features.assemble(hd, HypnogramLabels(["W"] * 120))
        d = vec.as_dict()
        total_h = 120 * 30 / 3600
        for combo in ("W", "W+N1", "W+N1+N2+N3+REM"):
            k = combo.count("+") + 1
            assert abs(d[f"{combo}.mean"] - 0.2 ** k) < 1e-12
            assert d[f"{combo}.std"] < 1e-12
            assert abs(d[f"{combo}.entropy"] - np.log(120)) < 1e-9
            assert abs(d[f"{combo}.t5w"] - 0.05 * total_h * 60
                       * d[f"{combo}.total"]) < 1e-9


def test_criterion_sequencing_fixtures():
    with criterion("sequencing-fixtures"):
        hyp = HypnogramLabels(["W"] * 10 + ["N1"] * 5 + ["REM"] * 10)
        rep = features.sorem_analysis(hyp)
        assert rep.sleep_latency_min == 5.0
        assert rep.count == 1
        assert rep.total_duration_min == 5.0
        # classic descent to N3 has no SOREMP
        classic = HypnogramLabels(["W"] * 40 + ["N1"] * 40 + ["N2"] * 120
                                  + ["N3"] * 200 + ["REM"] * 40)
        assert features.sorem_analysis(classic).count == 0
        # alternating 2-min N2 / 1-min W blocks: one fragmentation per cycle
        for k in (1, 3, 7):
            stages = (["N2"] * 4 + ["W"] * 2) * k
            frag = features.fragmentation_features(HypnogramLabels(stages))
            assert frag[0] == k


def test_criterion_gp_suite(rng):
    with criterion("gp-suite"):
        X = np.vstack([rng.normal(-2, 1, (50, 2)), rng.normal(2, 1, (50, 2))])
        y = np.array([-1.0] * 50 + [1.0] * 50)
        model = diagnosis.gp_fit(X, y)
        scores, _ = diagnosis.gp_predict(model, X)
        assert diagnosis.evaluate(scores, y > 0)["auc"] >= 0.98
        grid = rng.standard_normal((20, 2)) * 3
        flip, _ = diagnosis.gp_predict(diagnosis.gp_fit(X, -y), grid)
        base, _ = diagnosis.gp_predict(model, grid)
        assert np.max(np.abs(base + flip)) < 1e-6
        for s in rng.uniform(-1, 1, 1000):
            rep = diagnosis.apply_hla(
                diagnosis.ensemble_diagnose([float(s)]), False)
            assert rep.label is False
        fixture = diagnosis.evaluate([0.5, 0.5, -0.5, -0.5, 0.5, -0.5],
                                     [True, False, True, False, True, False],
                                     threshold=0.0)
        assert fixture["sensitivity"] == 2 / 3
        assert fixture["specificity"] == 2 / 3


def test_criterion_end_to_end_determinism(tmp_path, rng):
    with criterion("end-to-end-determinism"):
        raw = tmp_path / "raw"
        psg = signal_io.synth_recording(RAW_SPEC, seed=11, duration_s=600.0,
                                        recording_id="e2e")
        meta = signal_io.save_recording(psg, str(raw))
        models = tmp_path / "models"
        base = nn.NetworkConfig(
            mode="FF", complexity="low", segment_s=30, encoding="cc",
            modality_shapes=nn.modality_shapes_for("cc", 30),
            conv_features={m: [3, 4] for m in nn.MODALITIES},
            hidden=6, seed=1)
        for i, cfg in enumerate(nn.make_ensemble(base, n=2, seed=0)):
            nn.save_params(nn.init_params(cfg), cfg, str(models),
                           f"model{i:02d}")
        gp_dir = tmp_path / "gp"
        yb = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        Xb = rng.standard_normal((40, 3)) + yb[:, None]
        os.makedirs(gp_dir)
        diagnosis.gp_fit(Xb, yb).save(str(gp_dir))
        (gp_dir / "selection.json").write_text(
            json.dumps({"selected": [0, 5, 10]}))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "recording": meta, "mode": "cc", "models_dir": str(models),
            "gp_model": str(gp_dir), "hla": 1,
            "out_dir": str(tmp_path / "unused")}))
        bundles = []
        for run in ("o1", "o2"):
            out = tmp_path / run
            assert cli.main(["run-all", "--config", str(cfg_path),
                             "--out-dir", str(out)]) == 0
            bundles.append({name: (out / name).read_bytes()
                            for name in os.listdir(out)})
        assert sorted(bundles[0]) == sorted(
            f"e2e.{s}" for s in ("hypnodensity.csv", "hypnodensity.svg",
                                 "features.csv", "diagnosis.json"))
        assert bundles[0] == bundles[1]
