import ast
import gc
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
import warnings
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from hypnopipe import cli, diagnosis, encoding, features, neuralnet, preprocess, signal_io, store
from hypnopipe.encoding import MONTAGE, EncodedRecording, encode_recording
from hypnopipe.errors import (CholeskyFailure, CorruptHeader, EmptyFile,
                              IncompatibleResolution, InvalidSpec, InvalidValues,
                              NaNGradient, ShapeMismatch)
from hypnopipe.hypnodensity import Hypnodensity, aggregate_resolution, ensemble_hypnodensity
from hypnopipe.signal_io import HypnogramLabels

from conftest import (eog_one_sample_short, make_montage, random_hypnodensity,
                      save_hypnogram, synth_recording)

RAW_SPEC = {
    "EEG_C_LEFT": {"fs": 128.0, "sinusoids": [(10.0, 30.0)], "noise_sigma": 5.0},
    "EEG_C_RIGHT": {"fs": 128.0, "sinusoids": [(10.0, 25.0)], "noise_sigma": 5.0},
    "EEG_O_LEFT": {"fs": 128.0, "sinusoids": [(9.0, 20.0)], "noise_sigma": 5.0},
    "EOG_L": {"fs": 128.0, "sinusoids": [(0.5, 60.0)], "noise_sigma": 5.0},
    "EOG_R": {"fs": 128.0, "sinusoids": [(0.5, 60.0)], "noise_sigma": 5.0},
    "EMG_CHIN": {"fs": 200.0, "sinusoids": [(30.0, 10.0)], "noise_sigma": 8.0},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A raw recording, a two-model ensemble and a fitted GP on disk."""
    root = tmp_path_factory.mktemp("ws")
    raw_dir = root / "raw"
    psg = synth_recording(RAW_SPEC, seed=3, duration_s=600.0,
                          recording_id="rec1")
    meta = signal_io.save_recording(psg, str(raw_dir))

    models_dir = root / "models"
    base = neuralnet.NetworkConfig(
        mode="FF", complexity="low", segment_s=30, encoding="cc",
        modality_shapes=neuralnet.modality_shapes_for("cc", 30),
        conv_features={m: [3, 4] for m in neuralnet.MODALITIES},
        hidden=6, seed=1)
    for i, cfg in enumerate(neuralnet.make_ensemble(base, n=2, seed=0)):
        neuralnet.save_params(neuralnet.init_params(cfg), cfg,
                              str(models_dir), f"model{i:02d}")

    # the GP is fitted on 40 nights around this night's members' selected
    # features: the positives spread about them, the negatives two spreads off
    gp_dir, cols = root / "gp", [0, 5, 10]
    montage, _ = preprocess.preprocess_recording(
        signal_io.load_recording(meta), None, MONTAGE["cc"])
    for ch in montage.channels.values():
        ch.samples = store.as_stored(ch.samples)
    enc = encode_recording(montage, "cc")
    enc.tensors = {name: store.as_stored(x) for name, x in enc.tensors.items()}
    members, _ = cli._score_ensemble(cli._load_models(str(models_dir)),
                                     neuralnet.windows_from_encoded(enc, 30), "rec1")
    night = np.mean([cli._feature_vector(m).values[cols] for m in members], axis=0)
    spread = 0.05 * np.abs(night) + 1e-3
    rng = np.random.default_rng(0)
    y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    X = night + spread * (rng.standard_normal((40, 3)) + 2.0 * (y[:, None] < 0))
    model = diagnosis.gp_fit(X, y)
    os.makedirs(gp_dir, exist_ok=True)
    model.save(str(gp_dir))
    with open(gp_dir / "selection.json", "w") as f:
        json.dump({"selected": cols}, f)

    cfg_path = root / "config.json"
    with open(cfg_path, "w") as f:
        json.dump({"recording": meta, "out_dir": str(root / "out"),
                   "mode": "cc", "models_dir": str(models_dir),
                   "gp_model": str(gp_dir), "hla": 1}, f)
    return {"root": root, "meta": meta, "models": str(models_dir),
            "gp": str(gp_dir), "config": str(cfg_path)}


def write_hd_csv(path, hd):
    with open(path, "w") as f:
        f.write(hd.to_csv())


# ------------------------------------------------------------ basic surface

def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--help"])
    assert e.value.code == 0
    assert "run-all" in capsys.readouterr().out


def usage_error(argv, capsys):
    """The message of the one logfmt line a bad command line ``argv`` logs,
    after checking that it exits 3 and prints nothing to stdout."""
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    entry = parse_log_line(line)
    assert (entry["level"], entry["stage"]) == ("error", "hypnopipe")
    return entry["msg"]


def test_missing_subcommand_usage_error(capsys):
    assert "required: command" in usage_error([], capsys)


def test_bad_choice_usage_error(capsys):
    msg = usage_error(["encode", "a", "b", "--mode", "bogus"], capsys)
    assert msg.startswith("hypnopipe encode: argument --mode: invalid choice: 'bogus'")


_LOGFMT_VALUE = r'("(?:[^"\\]|\\.)*"|[^\s="]+)'
_LOGFMT_LINE = re.compile(rf"level={_LOGFMT_VALUE} stage={_LOGFMT_VALUE} "
                          rf"msg={_LOGFMT_VALUE}")


def parse_log_line(line):
    """``{level, stage, msg}`` of one logfmt line; quoted values unescaped."""
    m = _LOGFMT_LINE.fullmatch(line)
    assert m, f"not a logfmt line: {line!r}"
    return {key: json.loads(v) if v.startswith('"') else v
            for key, v in zip(("level", "stage", "msg"), m.groups())}


def test_logs_go_to_stderr(workspace, tmp_path, capsys):
    out = tmp_path / "mont"
    assert cli.main(["preprocess", workspace["meta"], str(out)]) == 0
    assert cli.main(["run-all", "--config", workspace["config"],
                     "--out-dir", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    entries = [parse_log_line(line) for line in captured.err.strip().splitlines()]
    assert [(e["level"], e["stage"]) for e in entries] == [
        ("info", "preprocess"), ("info", "preprocess"), ("info", "encode"),
        ("info", "score"), ("info", "features"), ("info", "diagnose"),
        ("info", "run-all")]
    assert entries[1]["msg"].startswith("rec1: channel selection {")


def test_the_workspace_gp_scores_the_workspace_night_by_its_data(workspace, tmp_path,
                                                                 capsys):
    """The workspace's GP was fitted around the night's own features, so
    ``run-all`` gives no far-from-data warning, and the score is not the one
    the GP gives a vector far from every night, the prior mean's."""
    assert cli.main(["run-all", "--config", workspace["config"],
                     "--out-dir", str(tmp_path / "o")]) == 0
    levels = [parse_log_line(line)["level"] for line in capsys.readouterr().err.splitlines()]
    assert levels and set(levels) == {"info"}
    score = json.loads((tmp_path / "o" / "rec1.diagnosis.json").read_text())["score"]
    model, cols = cli._load_gp(workspace["gp"])
    far_score, far_var = diagnosis.gp_predict(model, np.full((1, len(cols)), 1e3))
    assert diagnosis.far_from_data(model, far_var[0])
    assert abs(score - far_score[0]) > 0.1


def test_a_value_past_float32s_range_is_refused_before_any_file(workspace, tmp_path,
                                                                capsys):
    """An EOG_L of float32's largest values, a 5 Hz square wave, is finite,
    and band-limited it overshoots float32's range: ``preprocess`` and
    ``run-all`` refuse the channel as stored (exit 3), write nothing, and
    print only logfmt lines, no numpy warning."""
    psg = signal_io.load_recording(workspace["meta"])
    eog = psg.channels["EOG_L"]
    big = np.finfo(np.float32).max
    square = np.sin(2 * np.pi * 5.0 * np.arange(len(eog.samples)) / eog.fs) >= 0
    eog.samples = np.where(square, big, -big).astype(np.float32)
    meta = signal_io.save_recording(psg, str(tmp_path / "raw"))
    capsys.readouterr()
    for argv, out in ((["preprocess", meta, str(tmp_path / "mont")], tmp_path / "mont"),
                      (["run-all", "--config", workspace["config"], "--recording", meta,
                        "--out-dir", str(tmp_path / "o")], tmp_path / "o")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 3, argv
        captured = capsys.readouterr()
        entries = [parse_log_line(line) for line in captured.err.splitlines()]
        assert [e["level"] for e in entries] == ["info"] * (len(entries) - 1) + ["error"]
        assert re.search(r"EOG_L.* as float32 has a non-finite value at flat index \d+$",
                         entries[-1]["msg"]), entries[-1]["msg"]
        assert captured.out == "" and not out.exists(), argv


def test_log_quotes_values_with_space_equals_or_quote(capsys):
    msg = "a \"b\"=c {'d': 1}\\"
    cli.log("x", msg, level="warn")
    line, = capsys.readouterr().err.splitlines()
    assert parse_log_line(line) == {"level": "warn", "stage": "x", "msg": msg}


# ----------------------------------------------------------------- commands

def test_train_drops_unscored_windows(tmp_path, monkeypatch):
    """A 60 s CC encoding is 12 windows of 5 s; its two 30 s epochs are
    N2 and UNSCORED, so only the first 6 windows are trained on."""
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    for rid in ("a", "b"):
        EncodedRecording(recording_id=rid, mode="cc", tensors={
            k: rng.random((12, n)) for k, n in (("EEG", 201), ("EOG_L", 401),
                                                ("EOG_R", 401), ("EOG_X", 401),
                                                ("EMG", 41))}).save(str(data))
        save_hypnogram(HypnogramLabels(["N2", "UNSCORED"], epoch_s=30),
                                 str(data / f"{rid}.hyp.txt"))
    config = tmp_path / "net.json"
    config.write_text(neuralnet.NetworkConfig(mode="FF", segment_s=5).to_json())
    seen = []

    def fake_train(dataset, cfg):
        seen.extend(dataset)
        return neuralnet.init_params(cfg), []

    monkeypatch.setattr(cli.neuralnet, "train", fake_train)
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "m"), "--n-models", "1"]) == 0
    assert len(seen) == 2
    for batch, labels in seen:
        assert list(labels) == [2] * 6
        assert {m: x.shape[0] for m, x in batch.items()} == {
            "EEG": 6, "EOG": 6, "EMG": 6}


CC_LAGS = (("EEG", 201), ("EOG_L", 401), ("EOG_R", 401), ("EOG_X", 401), ("EMG", 41))


def train_on(tmp_path, rows, conv_features, n_windows=120):
    """``train`` one low-complexity FF member on two CC recordings of 5 s
    windows labelled W, N2, W, ..., whose rows are ``rows(rng, labels)``
    (tensor -> (n_windows, lags))."""
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    labels = np.arange(n_windows) % 2 * 2
    for rid in ("a", "b"):
        EncodedRecording(recording_id=rid, mode="cc",
                         tensors=rows(rng, labels)).save(str(data))
        save_hypnogram(HypnogramLabels([("W", "N1", "N2")[s] for s in labels], epoch_s=5),
                       str(data / f"{rid}.hyp.txt"))
    config = tmp_path / "net.json"
    config.write_text(neuralnet.NetworkConfig(
        mode="FF", segment_s=5, hidden=32, seed=7,
        conv_features={m: conv_features for m in neuralnet.MODALITIES}).to_json())
    return cli.main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "m"), "--n-models", "1"])


def identical_windows(rng, labels):
    return {k: np.repeat(rng.random((1, n)), len(labels), axis=0) for k, n in CC_LAGS}


def separable_windows(rng, labels):
    """Noise, with the EEG rows shifted by +1 for W and -1 for N2."""
    rows = {k: 0.1 * rng.standard_normal((len(labels), n)) for k, n in CC_LAGS}
    rows["EEG"] += np.where(labels == 0, 1.0, -1.0)[:, None]
    return rows


def train_log(capsys):
    """``(level, msg)`` of each line ``train`` logged."""
    return [(ln["level"], ln["msg"]) for ln in
            map(parse_log_line, capsys.readouterr().err.splitlines())]


def wrote(directory):
    """The line ``main`` logs once it has written every file in ``directory``."""
    return "info", f"wrote {len(os.listdir(directory))} files to {directory}"


def test_train_warns_of_a_member_that_never_beat_its_first_validation(tmp_path, capsys):
    """Windows of one content cannot be told apart: validation accuracy
    stays at its first check and early stopping ends after 4 checks."""
    assert train_on(tmp_path, identical_windows, [3, 4]) == 0
    assert train_log(capsys) == [
        ("info", "model00: 4 validations, best=0.500"),
        ("warning", "model00: validation accuracy never rose above its first check; "
                    "the model may be untrained"),
        wrote(tmp_path / "m")]


# the smaller member is perfect at its first check, the larger one only later
@pytest.mark.parametrize("conv_features", [[3, 4], [4, 8]])
def test_train_does_not_warn_of_a_member_that_learned(tmp_path, capsys, conv_features):
    assert train_on(tmp_path, separable_windows, conv_features) == 0
    (level, msg), last = train_log(capsys)
    assert level == "info" and msg.endswith("best=1.000")
    assert last == wrote(tmp_path / "m")


@pytest.mark.parametrize("epoch_s,segment_s", [(5, 15), (15, 10)])
def test_train_rejects_epoch_not_a_multiple_of_segment(tmp_path, capsys,
                                                       epoch_s, segment_s):
    """Repeating each label epoch_s // segment_s times only aligns labels
    with windows when segment_s divides epoch_s."""
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    EncodedRecording(recording_id="a", mode="cc", tensors={
        k: rng.random((12, n)) for k, n in (("EEG", 201), ("EOG_L", 401),
                                            ("EOG_R", 401), ("EOG_X", 401),
                                            ("EMG", 41))}).save(str(data))
    save_hypnogram(HypnogramLabels(["N2"] * (60 // epoch_s), epoch_s=epoch_s),
                             str(data / "a.hyp.txt"))
    config = tmp_path / "net.json"
    config.write_text(neuralnet.NetworkConfig(mode="FF", segment_s=segment_s).to_json())
    out = tmp_path / "m"
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out), "--n-models", "1"]) == 3
    err = capsys.readouterr().err
    assert f"epoch_s {epoch_s} " in err and f"segment_s {segment_s}" in err
    assert not out.exists() or not os.listdir(out)


def train_argv(tmp_path, n_models):
    """``train`` of ``n_models`` members into ``tmp_path/m``, on two 60 s CC
    recordings labelled N2."""
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    for rid in ("a", "b"):
        EncodedRecording(recording_id=rid, mode="cc", tensors={
            k: rng.random((12, n)) for k, n in CC_LAGS}).save(str(data))
        save_hypnogram(HypnogramLabels(["N2", "N2"], epoch_s=30), str(data / f"{rid}.hyp.txt"))
    config = tmp_path / "net.json"
    config.write_text(neuralnet.NetworkConfig(mode="FF", segment_s=5).to_json())
    return ["train", "--config", str(config), "--data", str(data),
            "--out", str(tmp_path / "m"), "--n-models", str(n_models)]


def fake_train(calls):
    """A ``neuralnet.train`` whose params differ from member to member."""
    def train(dataset, cfg):
        calls.append(cfg)
        return {k: v + cfg.seed for k, v in neuralnet.init_params(cfg).items()}, []
    return train


def test_train_refuses_to_leave_members_it_would_not_replace(tmp_path, monkeypatch,
                                                              capsys):
    """Two members over an ensemble of three would leave model02, which
    ``score`` and ``run-all`` read with the new two."""
    calls = []
    monkeypatch.setattr(cli.neuralnet, "train", fake_train(calls))
    argv = train_argv(tmp_path, 3)
    assert cli.main(argv) == 0 and len(calls) == 3
    before = _bytes_under(tmp_path)
    monkeypatch.setattr(cli.EncodedRecording, "load", never_read)
    capsys.readouterr()
    assert cli.main(argv[:-1] + ["2"]) == 3
    err = capsys.readouterr().err
    assert "'model02.model.json'" in err and "Traceback" not in err
    assert len(calls) == 3 and _bytes_under(tmp_path) == before


def test_train_that_fails_on_a_member_leaves_the_previous_ensemble(tmp_path, monkeypatch,
                                                                   capsys):
    """The second member's ``NaNGradient`` (exit 4) comes while the first is
    trained on the pool; no member is written, so no new member sits by an
    old one."""
    calls = []
    monkeypatch.setattr(cli.neuralnet, "train", fake_train(calls))
    argv = train_argv(tmp_path, 2)
    assert cli.main(argv) == 0
    before = _bytes_under(tmp_path)
    train = fake_train(calls)
    second = max(cfg.seed for cfg in calls)

    def fails_second(dataset, cfg):
        if cfg.seed == second:              # model01; model00 trains on another thread
            raise NaNGradient("loss is nan")
        return train(dataset, cfg)
    monkeypatch.setattr(cli.neuralnet, "train", fails_second)
    capsys.readouterr()
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert len(calls) == 3 and captured.out == "" and "Traceback" not in captured.err
    assert _bytes_under(tmp_path) == before


def test_train_refuses_an_encoding_it_cannot_pair(tmp_path, monkeypatch, capsys):
    """``b.enc.json`` is not named ``<id>.cc.enc.json``, so no hypnogram pairs
    with it; read as its own hypnogram, every epoch was UNSCORED and the
    recording was dropped with exit 0.  It is refused before any member trains."""
    calls = []
    monkeypatch.setattr(cli.neuralnet, "train", fake_train(calls))
    argv = train_argv(tmp_path, 1)
    data = tmp_path / "data"
    (data / "b.cc.enc.json").rename(data / "b.enc.json")
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"{data / 'b.enc.json'} is not <id>.cc.enc.json, so it has no <id>.hyp.txt" in err
    assert "Traceback" not in err
    assert calls == [] and not (tmp_path / "m").exists()


def test_train_reads_only_the_literal_data_directory(tmp_path, monkeypatch):
    """``--data 'd[1]'`` is that directory, not a pattern that matches ``d1``."""
    monkeypatch.setattr(cli.neuralnet, "train", fake_train([]))
    argv = train_argv(tmp_path, 1)
    literal, other = tmp_path / "d[1]", tmp_path / "d1"
    literal.mkdir()
    (tmp_path / "data").rename(other)
    for name in os.listdir(other):
        if name.startswith("b."):
            (other / name).rename(literal / name)
    load, loaded = EncodedRecording.load, []
    monkeypatch.setattr(cli.EncodedRecording, "load",
                        lambda path: loaded.append(path) or load(path))
    argv[argv.index("--data") + 1] = str(literal)
    assert cli.main(argv) == 0
    assert loaded == [str(literal / "b.cc.enc.json")]


def _evaluate_into_a_directory(tmp_path, workspace, monkeypatch):
    (tmp_path / "scores.csv").write_text("score,label\n0.9,1\n-0.7,0\n")
    (tmp_path / "roc.csv").mkdir()
    return ["evaluate", str(tmp_path / "scores.csv"), "--out", str(tmp_path / "roc.csv")]


def _diagnose_into_a_directory(tmp_path, workspace, monkeypatch):
    shutil.copytree(workspace["gp"], tmp_path / "gp")
    (tmp_path / "vec.json").write_text(vector_json())
    (tmp_path / "report.json").mkdir()
    return ["diagnose", "--model", str(tmp_path / "gp"), "--input", str(tmp_path / "vec.json"),
            "--out", str(tmp_path / "report.json")]


def _train_into_a_directory(tmp_path, workspace, monkeypatch):
    monkeypatch.setattr(cli.neuralnet, "train", fake_train([]))
    (tmp_path / "m" / "model01.model.json").mkdir(parents=True)
    return train_argv(tmp_path, 2)


@pytest.mark.parametrize("setup", [
    _evaluate_into_a_directory, _diagnose_into_a_directory, _train_into_a_directory,
], ids=["evaluate", "diagnose", "train"])
def test_a_command_whose_commit_fails_writes_and_prints_nothing(workspace, tmp_path,
                                                                 monkeypatch, capsys, setup):
    """One of the command's outputs is a directory, so ``main``'s commit of
    its files fails (exit 2): no file is written, the summary or report is
    not printed, and nothing says it was written."""
    argv = setup(tmp_path, workspace, monkeypatch)
    before = _bytes_under(tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "wrote" not in captured.err and "level=error" in captured.err
    assert _bytes_under(tmp_path) == before


def test_preprocess_then_encode(workspace, tmp_path):
    mont = tmp_path / "mont"
    assert cli.main(["preprocess", workspace["meta"], str(mont)]) == 0
    assert (mont / "rec1.psgmeta.json").exists()
    assert (mont / "rec1.selection.json").exists()
    enc_dir = tmp_path / "enc"
    assert cli.main(["encode", str(mont / "rec1.psgmeta.json"),
                     str(enc_dir), "--mode", "cc"]) == 0
    from hypnopipe.encoding import EncodedRecording
    enc = EncodedRecording.load(str(enc_dir / "rec1.cc.enc.json"))
    assert enc.tensors["EEG"].shape == (119, 201)


def test_encode_sizes_the_cc_grid_from_the_samples_held(tmp_path):
    meta = signal_io.save_recording(eog_one_sample_short(8.75), str(tmp_path / "m"))
    assert cli.main(["encode", meta, str(tmp_path / "e"), "--mode", "cc"]) == 0
    enc = EncodedRecording.load(str(tmp_path / "e" / "m0.cc.enc.json"))
    # the last 4 s EOG segment is a sample short, so no whole window is left
    assert all(t.shape[0] == 0 for t in enc.tensors.values())


def test_encode_cuts_the_channels_to_one_count(tmp_path):
    # EOG_R lacks its last sample; EOG_X correlates the common 5999 samples
    meta = signal_io.save_recording(eog_one_sample_short(60.0, ("EOG_R",)),
                                    str(tmp_path / "m"))
    assert cli.main(["encode", meta, str(tmp_path / "e"), "--mode", "cc"]) == 0
    enc = EncodedRecording.load(str(tmp_path / "e" / "m0.cc.enc.json"))
    assert all(t.shape[0] == 11 for t in enc.tensors.values())


def test_octave_encode_of_a_montage_too_short_to_filter_is_a_typed_error(tmp_path,
                                                                         capsys):
    # 31 samples at 256 Hz pass band-limiting and leave a 12-sample montage
    spec = {role: {**s, "fs": 256.0} for role, s in RAW_SPEC.items()}
    raw = signal_io.save_recording(synth_recording(
        spec, seed=0, duration_s=0.12, recording_id="short"), str(tmp_path / "raw"))
    assert cli.main(["preprocess", raw, str(tmp_path / "m")]) == 0
    out = tmp_path / "e"
    assert cli.main(["encode", str(tmp_path / "m" / "short.psgmeta.json"), str(out),
                     "--mode", "octave"]) == 3
    err = capsys.readouterr().err
    assert "12 samples" in err and "Traceback" not in err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("mode", ["cc", "octave"])
def test_encode_refuses_a_montage_not_at_the_target_rate(tmp_path, capsys, mode):
    meta = signal_io.save_recording(make_montage(60.0, fs=128.0), str(tmp_path / "m"))
    out = tmp_path / "e"
    assert cli.main(["encode", meta, str(out), "--mode", mode]) == 3
    err = capsys.readouterr().err
    assert "128.0 Hz" in err and "Traceback" not in err
    assert not out.exists() or not os.listdir(out)


def test_score_writes_ensemble_csv(workspace, tmp_path):
    mont, enc_dir = tmp_path / "m", tmp_path / "e"
    cli.main(["preprocess", workspace["meta"], str(mont)])
    cli.main(["encode", str(mont / "rec1.psgmeta.json"), str(enc_dir)])
    out = tmp_path / "hd.csv"
    assert cli.main(["score", str(enc_dir / "rec1.cc.enc.json"),
                     "--models", workspace["models"], "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == ("t_start_s,W,N1,N2,N3,REM,"
                      "varW,varN1,varN2,varN3,varREM")


def test_features_command_writes_481_columns(tmp_path, rng):
    src = tmp_path / "hd.csv"
    write_hd_csv(src, random_hypnodensity(rng, 40))
    out = tmp_path / "vec.csv"
    assert cli.main(["features", str(src), "--out", str(out)]) == 0
    names, values = out.read_text().splitlines()
    assert len(names.split(",")) == 481
    assert len(values.split(",")) == 481


@pytest.mark.parametrize("hla", [0, 1])
def test_features_hla_feeds_diagnose(workspace, tmp_path, rng, hla):
    """The HLA status goes to ``diagnose --hla``; the report is the GP score of
    the vector gated by that status."""
    src, vec, report = tmp_path / "hd.csv", tmp_path / "v.json", tmp_path / "d.json"
    write_hd_csv(src, random_hypnodensity(rng, 40))
    assert cli.main(["features", str(src), "--out", str(vec)]) == 0
    assert list(json.loads(vec.read_text())) == ["features"]
    assert cli.main(["diagnose", "--model", workspace["gp"], "--input", str(vec),
                     "--out", str(report), "--hla", str(hla)]) == 0
    model, cols = cli._load_gp(workspace["gp"])
    values = features.FeatureVector.from_json(vec.read_text()).values
    score = diagnosis.gp_predict(model, values[cols][None, :])[0][0]
    assert report.read_text() == diagnosis.ensemble_diagnose([score], bool(hla)).to_json()


@pytest.mark.parametrize("hla", [True, False])
def test_a_vector_carrying_an_hla_status_is_refused(workspace, tmp_path, capsys, hla):
    code, out = run_diagnose(workspace, tmp_path, vector_json(hla_positive=hla))
    assert code == 3
    err = capsys.readouterr().err
    assert "hla_positive" in err and "diagnose --hla" in err and "Traceback" not in err
    assert not out.exists()


def test_features_has_no_hla_option(tmp_path, rng, capsys):
    src = tmp_path / "hd.csv"
    write_hd_csv(src, random_hypnodensity(rng, 40))
    argv = ["features", str(src), "--out", str(tmp_path / "v.json"), "--hla", "1"]
    assert "unrecognized arguments: --hla 1" in usage_error(argv, capsys)


@pytest.mark.parametrize("resolution", [20, 60])
def test_features_needs_a_resolution_that_divides_30(tmp_path, rng, capsys, resolution):
    src, out = tmp_path / "hd.csv", tmp_path / "v.csv"
    hd = random_hypnodensity(rng, 40, resolution)
    write_hd_csv(src, hd)
    with pytest.raises(IncompatibleResolution, match=f"the {resolution} s resolution"):
        cli._feature_vector(hd)
    assert cli.main(["features", str(src), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"the {resolution} s resolution" in err and "Traceback" not in err
    assert not out.exists()


def write_matrix(path, X, y):
    with open(path, "w") as f:
        for row, label in zip(X, y):
            f.write(",".join(f"{v:.8g}" for v in row) + f",{label:g}\n")


def test_diagnose_fit_then_predict(tmp_path, rng, capsys):
    n = 60
    y = np.where(rng.random(n) > 0.5, 1.0, 0.0)
    X = rng.standard_normal((n, 481))
    X[:, 2] += 3.0 * (2 * y - 1)
    mat = tmp_path / "matrix.csv"
    write_matrix(mat, X, y)
    gp_dir = tmp_path / "gp"
    assert cli.main(["diagnose", "--fit", "--matrix", str(mat),
                     "--out", str(gp_dir)]) == 0
    assert (gp_dir / "gp.gp.json").exists()
    assert 2 in json.loads((gp_dir / "selection.json").read_text())["selected"]

    vec = features.FeatureVector(values=X[0])
    vec_path = tmp_path / "vec.json"
    vec_path.write_text(vec.to_json())
    capsys.readouterr()
    assert cli.main(["diagnose", "--model", str(gp_dir),
                     "--input", str(vec_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert -1.0 <= report["score"] <= 1.0
    assert isinstance(report["label"], bool)


def test_diagnose_warns_of_a_vector_far_from_the_gps_nights(tmp_path, rng, capsys):
    """A training point's latent variance is well under the prior's; a vector
    far from every training point gets the prior's, and one warning.  The
    report is the GP's score either way."""
    y = np.where(rng.random(60) > 0.5, 1.0, 0.0)
    X = rng.standard_normal((60, 481))
    X[:, 2] += 3.0 * (2 * y - 1)
    mat, gp_dir = tmp_path / "matrix.csv", tmp_path / "gp"
    write_matrix(mat, X, y)
    assert cli.main(["diagnose", "--fit", "--matrix", str(mat), "--out", str(gp_dir)]) == 0
    model, cols = cli._load_gp(str(gp_dir))
    for values, far in ((X[0], False), (X[0] + 50.0, True)):
        vec_path, out = tmp_path / f"vec{far}.json", tmp_path / f"d{far}.json"
        vec_path.write_text(features.FeatureVector(values=values).to_json())
        _, var = diagnosis.gp_predict(model, values[cols][None, :])
        assert diagnosis.far_from_data(model, var[0]) is far
        capsys.readouterr()
        assert cli.main(["diagnose", "--model", str(gp_dir), "--input", str(vec_path),
                         "--out", str(out)]) == 0
        warnings = [e["msg"] for e in map(parse_log_line, capsys.readouterr().err.splitlines())
                    if e["level"] == "warning"]
        assert warnings == (["1 of 1 feature vectors are far from every night the GP was "
                             "fitted on (latent variance >= 99% of the prior's), so their "
                             "scores are about the prior mean's"] if far else [])
        score = diagnosis.gp_predict(model, values[cols][None, :])[0][0]
        assert out.read_text() == diagnosis.ensemble_diagnose([score]).to_json()


def test_diagnose_fit_needs_the_481_feature_columns(tmp_path, rng, capsys):
    """A matrix of other width would fit a GP that scores feature vectors by
    whatever columns it happened to have."""
    y = np.where(rng.random(40) > 0.5, 1.0, 0.0)
    mat, gp_dir = tmp_path / "matrix.csv", tmp_path / "gp"
    write_matrix(mat, rng.standard_normal((40, 6)) + y[:, None], y)
    argv = ["diagnose", "--fit", "--matrix", str(mat), "--out", str(gp_dir)]
    with pytest.raises(ShapeMismatch, match="481 feature columns and a label, got 7"):
        cli.cmd_diagnose(cli.build_parser().parse_args(argv))
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "481 feature columns" in err and "Traceback" not in err
    assert not gp_dir.exists()


def test_diagnose_fit_refuses_a_negative_seed_before_reading(tmp_path, capsys):
    # the matrix does not exist: reading it first would be exit 2
    gp_dir = tmp_path / "gp"
    assert cli.main(["diagnose", "--fit", "--matrix", str(tmp_path / "none.csv"),
                     "--out", str(gp_dir), "--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert "--seed >= 0, got -1" in err and "Traceback" not in err
    assert not gp_dir.exists()


@pytest.mark.parametrize("given,missing", [
    (["--fit", "--out", "gp"], "--matrix"),
    (["--fit", "--matrix", "m.csv"], "--out"),
    (["--input", "v.json"], "--model"),
    (["--model", "gp"], "--input"),
])
def test_diagnose_without_a_needed_option_is_a_typed_error(tmp_path, monkeypatch, capsys,
                                                           given, missing):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["diagnose"] + given) == 3
    assert missing in capsys.readouterr().err


FIT = ["--fit", "--matrix", "m.csv", "--out", "gp"]
PREDICT = ["--model", "gp", "--input", "v.json", "--out", "d.json"]


@pytest.mark.parametrize("given,ignored", [
    (FIT + ["--model", "gp"], "--model"),
    (FIT + ["--input", "v.json"], "--input"),
    (FIT + ["--hla", "1"], "--hla"),
    (PREDICT + ["--matrix", "m.csv"], "--matrix"),
    (PREDICT + ["--seed", "0"], "--seed"),
])
def test_diagnose_with_an_option_its_mode_ignores_is_a_typed_error(
        tmp_path, monkeypatch, capsys, given, ignored):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["diagnose"] + given) == 3
    assert f"takes no {ignored}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_evaluate_command(tmp_path, capsys):
    src = tmp_path / "scores.csv"
    src.write_text("score,label\n0.9,1\n0.8,1\n-0.7,0\n-0.6,0\n")
    out = tmp_path / "roc.csv"
    assert cli.main(["evaluate", str(src), "--out", str(out),
                     "--threshold", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["auc"] == 1.0
    for key in ("sensitivity", "specificity"):
        lo, hi = summary[f"{key}_ci"]
        assert lo <= summary[key] <= hi
    lines = out.read_text().splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) > 2


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_evaluate_refuses_a_non_finite_threshold_before_reading(tmp_path, capsys,
                                                                 threshold):
    out = tmp_path / "roc.csv"
    # the scores file does not exist: reading it first would be exit 2
    assert cli.main(["evaluate", str(tmp_path / "none.csv"), "--out", str(out),
                     f"--threshold={threshold}"]) == 3
    err = capsys.readouterr().err
    assert "--threshold must be finite" in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_reads_exactly_a_score_and_a_label(tmp_path, capsys):
    src, out = tmp_path / "scores.csv", tmp_path / "roc.csv"
    src.write_text("0.9,0,1\n-0.9,1,0\n")
    assert cli.main(["evaluate", str(src), "--out", str(out)]) == 3
    assert "two columns" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------- plot

def test_plot_svg_structure(tmp_path, rng):
    src = tmp_path / "hd.csv"
    write_hd_csv(src, random_hypnodensity(rng, 120))
    out = tmp_path / "hd.svg"
    assert cli.main(["plot", str(src), str(out)]) == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")
             and el.get("class") == "stage-area"]
    assert len(paths) == 5
    fills = {p.get("fill") for p in paths}
    assert fills == {"#ffffff", "#e03030", "#a8d0f0", "#1a3a8a", "#000000"}


def test_plot_all_wake_is_white_band(tmp_path):
    probs = np.zeros((20, 5))
    probs[:, 0] = 1.0
    hd = Hypnodensity(probs=probs, resolution_s=30)
    src, out = tmp_path / "w.csv", tmp_path / "w.svg"
    write_hd_csv(src, hd)
    assert cli.main(["plot", str(src), str(out)]) == 0
    text = out.read_text()
    root = ET.fromstring(text)
    for el in root.iter():
        if el.tag.endswith("path") and el.get("class") == "stage-area":
            d = el.get("d")
            if el.get("fill") == "#ffffff":
                # wake covers the full plot height
                ys = {c.split(",")[1] for c in d.split(" ") if "," in c}
                assert len(ys) == 2
            else:
                # every other band is collapsed to a line
                ys = {c.split(",")[1] for c in d.split(" ") if "," in c}
                assert len(ys) == 1


def test_plot_deterministic(tmp_path, rng):
    src = tmp_path / "hd.csv"
    write_hd_csv(src, random_hypnodensity(rng, 60))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    cli.main(["plot", str(src), str(a)])
    cli.main(["plot", str(src), str(b)])
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ run-all

def test_run_all_bundle_and_reproducibility(workspace, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        code = cli.main(["run-all", "--config", workspace["config"],
                         "--out-dir", str(out)])
        assert code == 0
        for suffix in ("hypnodensity.csv", "hypnodensity.svg",
                       "features.csv", "diagnosis.json"):
            assert (out / f"rec1.{suffix}").exists()
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "rec1.diagnosis.json").read_text())
    assert isinstance(report["label"], bool)
    assert report["hla_used"] is True


def test_run_all_bad_gp_path_fails_before_preprocessing_and_writes_nothing(
        workspace, tmp_path, monkeypatch):
    cfg = json.loads(Path(workspace["config"]).read_text())
    cfg["gp_model"] = str(tmp_path / "no_such_gp")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))

    def never(*a, **k):
        raise AssertionError("preprocessing ran before the GP was loaded")

    monkeypatch.setattr(cli.preprocess, "preprocess_recording", never)
    out = tmp_path / "o"
    assert cli.main(["run-all", "--config", str(bad), "--out-dir", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []


# ----------------------------------------------------------- ensemble shape

def save_member(directory, name, **changes):
    """A low-complexity FF member: the workspace's (CC, 30 s) with ``changes``."""
    settings = {"mode": "FF", "complexity": "low", "segment_s": 30, "encoding": "cc",
                "hidden": 6, "seed": 1, **changes}
    depth = 3 if settings["encoding"] == "octave" else 2
    cfg = neuralnet.NetworkConfig(
        conv_features={m: [3, 4, 3][:depth] for m in neuralnet.MODALITIES}, **settings)
    neuralnet.save_params(neuralnet.init_params(cfg), cfg, str(directory), name)


def never_read(*a, **k):
    raise AssertionError("the input was read before the models were checked")


@pytest.mark.parametrize("names", [("a", "b"), ("b", "a")])
@pytest.mark.parametrize("changes", [{"segment_s": 5}, {"encoding": "octave"}])
def test_a_mixed_ensemble_is_refused_before_any_input_is_read(
        workspace, tmp_path, monkeypatch, capsys, names, changes):
    models = tmp_path / "models"
    save_member(models, names[0])
    save_member(models, names[1], **changes)
    monkeypatch.setattr(cli.signal_io, "load_recording", never_read)
    monkeypatch.setattr(cli.preprocess, "preprocess_recording", never_read)
    monkeypatch.setattr(cli.EncodedRecording, "load", never_read)
    out = tmp_path / "o"
    cfg = _config_with(workspace, tmp_path, models_dir=str(models))
    assert cli.main(["run-all", "--config", cfg, "--out-dir", str(out)]) == 3
    assert cli.main(["score", str(tmp_path / "x.cc.enc.json"), "--models", str(models),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("an ensemble has one of each") == 2 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "run-all"])
@pytest.mark.parametrize("name", ["models", "m[1]"])
def test_a_models_directory_without_members_is_refused(
        workspace, tmp_path, monkeypatch, capsys, command, name):
    """Before any input is read; ``m[1]`` is that directory, not a pattern
    that matches the member in ``m1`` beside it."""
    save_member(tmp_path / "m1", "model00")
    models = tmp_path / name
    models.mkdir(exist_ok=True)
    monkeypatch.setattr(cli.signal_io, "load_recording", never_read)
    monkeypatch.setattr(cli.EncodedRecording, "load", never_read)
    out = tmp_path / "o"
    argv = (["score", str(tmp_path / "x.cc.enc.json"), "--models", str(models),
             "--out", str(out)] if command == "score" else
            ["run-all", "--config", _config_with(workspace, tmp_path, models_dir=str(models)),
             "--out-dir", str(out)])
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"{models}: no *.model.json" in err and "Traceback" not in err
    assert not out.exists()
    with pytest.raises(InvalidSpec):
        cli._load_models(str(models))


def _bare_globs(source: str) -> list[int]:
    """The lines of ``source`` with a ``glob.glob`` or ``glob.iglob`` call whose
    pattern is not built on ``glob.escape``."""
    def is_call_of(node, *names):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "glob"
                and node.func.attr in names)
    bare = []
    for node in ast.walk(ast.parse(source)):
        if is_call_of(node, "glob", "iglob"):
            pattern = node.args[0] if node.args else node.keywords[0].value
            if not any(is_call_of(n, "escape") for n in ast.walk(pattern)):
                bare.append(node.lineno)
    return bare


def test_every_glob_pattern_escapes_its_directory():
    """A directory argument is read literally: ``[``, ``*`` and ``?`` in it
    are not pattern characters."""
    src = Path(cli.__file__).parent
    assert {p.name: _bare_globs(p.read_text()) for p in sorted(src.glob("*.py"))
            if _bare_globs(p.read_text())} == {}
    assert _bare_globs("glob.glob(os.path.join(d, '*.x'))\nglob.iglob(pathname=d)\n"
                       "glob.glob(os.path.join(glob.escape(d), '*.x'))\n") == [1, 2]


@pytest.mark.parametrize("changes,message", [
    ({"mode": "octave"}, "mode 'octave' is not the models' encoding 'cc'"),
    ({"resolution": 10}, "resolution 10 is not a multiple of the models' segment_s 30"),
])
def test_run_all_refuses_a_mode_or_resolution_the_models_cannot_give(
        workspace, tmp_path, monkeypatch, capsys, changes, message):
    monkeypatch.setattr(cli.signal_io, "load_recording", never_read)
    out = tmp_path / "o"
    cfg = _config_with(workspace, tmp_path, **changes)
    assert cli.main(["run-all", "--config", cfg, "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_run_all_without_a_mode_runs_the_models_encoding(workspace, tmp_path):
    models = tmp_path / "models"
    for name in ("m0", "m1"):
        save_member(models, name, encoding="octave")
    out = tmp_path / "o"
    cfg = _config_with(workspace, tmp_path, drop=("mode",), models_dir=str(models))
    assert cli.main(["run-all", "--config", cfg, "--out-dir", str(out)]) == 0
    assert len(os.listdir(out)) == 4
    hd = Hypnodensity.from_csv((out / "rec1.hypnodensity.csv").read_text())
    assert (hd.resolution_s, len(hd.probs)) == (30, 20)


@pytest.fixture(scope="module")
def five_s_models(tmp_path_factory):
    """Two different 5 s FF members in the workspace's encoding."""
    models = tmp_path_factory.mktemp("five_s")
    for seed in (1, 2):
        save_member(models, f"m{seed}", segment_s=5, seed=seed)
    return str(models)


def test_run_all_aggregates_each_member_to_the_resolution(workspace, five_s_models,
                                                           tmp_path):
    out = tmp_path / "o"
    cfg = _config_with(workspace, tmp_path, models_dir=five_s_models, resolution=30)
    assert cli.main(["run-all", "--config", cfg, "--out-dir", str(out)]) == 0
    text = (out / "rec1.hypnodensity.csv").read_text()
    montage, _ = preprocess.preprocess_recording(
        signal_io.load_recording(workspace["meta"]), None, MONTAGE["cc"])
    for ch in montage.channels.values():
        ch.samples = store.as_stored(ch.samples)
    enc = encode_recording(montage, "cc")
    enc.tensors = {name: store.as_stored(x) for name, x in enc.tensors.items()}
    batch = neuralnet.windows_from_encoded(enc, 5)
    members = [aggregate_resolution(Hypnodensity(
        probs=neuralnet.forward(params, batch, config)[0], resolution_s=5), 30)
        for params, config in (neuralnet.load_params(str(p)) for p in
                               sorted(Path(five_s_models).glob("*.model.json")))]
    assert len(members) == 2 and not np.array_equal(members[0].probs, members[1].probs)
    assert Hypnodensity.from_csv(text).resolution_s == 30
    starts = [int(row.split(",")[0]) for row in text.splitlines()[1:]]
    assert len(starts) > 1 and starts == list(range(0, 30 * len(starts), 30))
    assert text == ensemble_hypnodensity(members).to_csv()


@pytest.mark.parametrize("member", [
    {"encoding": "cc", "segment_s": 5, "mode": "FF"},
    {"encoding": "cc", "segment_s": 30, "mode": "FF"},     # the windowing takes means
    {"encoding": "octave", "segment_s": 30, "mode": "LSTM"},
], ids=["cc-5s-FF", "cc-30s-FF", "octave-30s-LSTM"])
def test_run_all_writes_what_the_staged_chain_writes(workspace, tmp_path, member):
    models = tmp_path / "models"
    for seed in (1, 2):
        save_member(models, f"m{seed}", seed=seed, **member)
    staged, one = tmp_path / "staged", tmp_path / "run_all"
    mode, hd = member["encoding"], str(staged / "rec1.hypnodensity.csv")
    for argv in (["preprocess", workspace["meta"], str(staged)],
                 ["encode", str(staged / "rec1.psgmeta.json"), str(staged), "--mode", mode],
                 ["score", str(staged / f"rec1.{mode}.enc.json"), "--models", str(models),
                  "--out", hd],
                 ["features", hd, "--out", str(staged / "rec1.features.csv")],
                 ["plot", hd, str(staged / "rec1.hypnodensity.svg")]):
        assert cli.main(argv) == 0
    cfg = _config_with(workspace, tmp_path, models_dir=str(models), mode=mode)
    assert cli.main(["run-all", "--config", cfg, "--out-dir", str(one)]) == 0
    for suffix in ("hypnodensity.csv", "hypnodensity.svg", "features.csv"):
        assert (one / f"rec1.{suffix}").read_bytes() == \
            (staged / f"rec1.{suffix}").read_bytes(), suffix


def test_run_all_hands_each_stage_what_the_subcommands_files_hold(workspace, tmp_path,
                                                                  monkeypatch):
    """The montage that ``run-all`` encodes and the encoding it windows are,
    dtype and bytes, what ``load_recording`` and ``EncodedRecording.load``
    read from the files of ``preprocess`` and ``encode``."""
    staged = tmp_path / "staged"
    assert cli.main(["preprocess", workspace["meta"], str(staged)]) == 0
    assert cli.main(["encode", str(staged / "rec1.psgmeta.json"), str(staged),
                     "--mode", "cc"]) == 0
    montage = signal_io.load_recording(str(staged / "rec1.psgmeta.json"))
    enc = EncodedRecording.load(str(staged / "rec1.cc.enc.json"))
    handed, windows_from_encoded = {}, neuralnet.windows_from_encoded

    def encode(montage, mode):
        handed["montage"] = montage
        return encode_recording(montage, mode)

    def window(enc, segment_s):
        handed["enc"] = enc
        return windows_from_encoded(enc, segment_s)
    monkeypatch.setattr(cli, "encode_recording", encode)
    monkeypatch.setattr(neuralnet, "windows_from_encoded", window)
    assert cli.main(["run-all", "--config", workspace["config"],
                     "--out-dir", str(tmp_path / "o")]) == 0
    channels = handed["montage"].channels
    assert sorted(channels) == sorted(MONTAGE["cc"])
    assert sorted(handed["enc"].tensors) == sorted(enc.tensors)
    pairs = [*((ch.samples, montage.channels[role].samples) for role, ch in channels.items()),
             *((x, enc.tensors[name]) for name, x in handed["enc"].tensors.items())]
    for got, read in pairs:
        assert got.dtype == read.dtype == np.float32 and got.tobytes() == read.tobytes()
    assert all(ch.fs == montage.channels[role].fs for role, ch in channels.items())


def test_run_all_scans_each_montage_channel_for_non_finite_samples_once(
        workspace, tmp_path, monkeypatch):
    """``run-all`` checks a montage channel finite where it casts it to
    float32, and ``encode_recording`` does not scan the cast samples again."""
    scanned, check_finite = [], store.check_finite

    def check(x, name):
        scanned.append((name.removesuffix(" as float32"), x.ndim))
        return check_finite(x, name)
    for module in (store, signal_io, encoding):
        monkeypatch.setattr(module, "check_finite", check)
    assert cli.main(["run-all", "--config", workspace["config"],
                     "--out-dir", str(tmp_path / "o")]) == 0
    # the 2-D scans named EOG_L and EOG_R are the encoded tensors
    assert sorted(name for name, ndim in scanned if ndim == 1 and name in MONTAGE["cc"]) \
        == sorted(MONTAGE["cc"])


@pytest.mark.parametrize("command,wrapped", [
    ("score", False), ("run-all", False), ("score", True), ("run-all", True)],
    ids=["score", "run-all", "score-wrapped", "run-all-wrapped"])
def test_scoring_starts_with_only_the_windows_held(workspace, tmp_path, monkeypatch,
                                                   command, wrapped):
    """When ``neuralnet.score_ensemble`` starts, the encoded tensors are gone
    (the windows hold their values), and in ``run-all`` the raw recording and
    the montage too: each stage's input goes once its output exists.  That
    holds with ``cli._score_ensemble`` behind a wrapper that keeps its
    arguments, as a decorator or a profiler does."""
    staged = tmp_path / "staged"
    assert cli.main(["preprocess", workspace["meta"], str(staged)]) == 0
    assert cli.main(["encode", str(staged / "rec1.psgmeta.json"), str(staged),
                     "--mode", "cc"]) == 0
    refs = []

    def track(what, objects):
        refs.extend((what, weakref.ref(o)) for o in objects)

    def traced(owner, name, track_args, track_result):
        fn = getattr(owner, name)

        def wrapper(*args):
            track_args(*args)
            result = fn(*args)
            track_result(result)
            return result
        monkeypatch.setattr(owner, name, staticmethod(wrapper) if owner is EncodedRecording
                            else wrapper)

    def recording(what):
        return lambda psg, *_: track(what, [psg, *(ch.samples for ch in psg.channels.values())])

    ignore = lambda *a: None
    traced(EncodedRecording, "load", ignore, lambda enc: track(
        "the loaded encoding", enc.tensors.values()))
    traced(signal_io, "load_recording", ignore, recording("the recording"))
    traced(preprocess, "preprocess_recording", ignore,
           lambda out: recording("the montage")(out[0]))
    traced(cli, "encode_recording", recording("the montage"), lambda enc: track(
        "the encoding", enc.tensors.values()))
    traced(neuralnet, "windows_from_encoded", lambda enc, segment_s: track(
        "the windowed encoding", enc.tensors.values()), ignore)
    alive, score_ensemble = set(), neuralnet.score_ensemble

    def score(models, batch):
        gc.collect()
        alive.update(what for what, ref in refs if ref() is not None)
        return score_ensemble(models, batch)
    monkeypatch.setattr(neuralnet, "score_ensemble", score)
    if wrapped:
        traced(cli, "_score_ensemble", ignore, ignore)
    argv = (["score", str(staged / "rec1.cc.enc.json"), "--models", workspace["models"],
             "--out", str(tmp_path / "hd.csv")] if command == "score" else
            ["run-all", "--config", workspace["config"], "--out-dir", str(tmp_path / "o")])
    assert cli.main(argv) == 0
    assert {what for what, _ in refs} == (
        {"the loaded encoding", "the windowed encoding"} if command == "score" else
        {"the recording", "the montage", "the encoding", "the windowed encoding"})
    assert alive == set()


@pytest.mark.parametrize("change", [{"seed": 1.5}, {"seed": -1}, {"hidden": True},
                                    {"hidden": 16.0}])
def test_train_refuses_a_config_whose_integers_are_not_integers(tmp_path, capsys, change):
    cfg = json.loads(neuralnet.NetworkConfig(mode="FF", segment_s=30).to_json())
    path, out = tmp_path / "cfg.json", tmp_path / "models"
    path.write_text(json.dumps({**cfg, **change}))
    assert cli.main(["train", "--config", str(path), "--data", str(tmp_path),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "must be an integer" in err and "Traceback" not in err
    assert not out.exists()


def test_score_refuses_a_model_whose_hidden_size_is_a_float(workspace, tmp_path, capsys):
    models, out = tmp_path / "models", tmp_path / "hd.csv"
    shutil.copytree(workspace["models"], models)
    manifest = models / "model00.model.json"
    meta = json.loads(manifest.read_text())
    meta["config"]["hidden"] = float(meta["config"]["hidden"])
    manifest.write_text(json.dumps(meta))
    assert cli.main(["score", str(tmp_path / "x.cc.enc.json"), "--models", str(models),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "hidden must be an integer >= 1, got " in err and "Traceback" not in err
    assert not out.exists()


def test_score_refuses_a_model_whose_shapes_lack_a_modality(workspace, tmp_path, capsys):
    models, out = tmp_path / "models", tmp_path / "hd.csv"
    shutil.copytree(workspace["models"], models)
    manifest = models / "model00.model.json"
    meta = json.loads(manifest.read_text())
    del meta["config"]["modality_shapes"]["EMG"]
    manifest.write_text(json.dumps(meta))
    assert cli.main(["score", str(tmp_path / "x.cc.enc.json"), "--models", str(models),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "modality_shapes must name exactly ['EEG', 'EOG', 'EMG']" in err
    assert "Traceback" not in err
    assert not out.exists()


# --------------------------------------------------------------- exit codes

def test_exit_code_io_error(tmp_path):
    assert cli.main(["features", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "v.csv")]) == 2


def test_exit_code_validation_missing_channels(tmp_path):
    spec = {"EEG_C_LEFT": RAW_SPEC["EEG_C_LEFT"]}
    psg = synth_recording(spec, seed=0, duration_s=60.0,
                          recording_id="bare")
    meta = signal_io.save_recording(psg, str(tmp_path / "raw"))
    assert cli.main(["preprocess", meta, str(tmp_path / "m")]) == 3


def test_exit_code_validation_unknown_config_key(workspace, tmp_path):
    cfg = json.loads(Path(workspace["config"]).read_text())
    cfg["tpyo"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["run-all", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 3


def _without(key):
    return lambda cfg: json.dumps({k: v for k, v in cfg.items() if k != key})


PATH_KEYS = ("gp_model", "models_dir", "out_dir", "recording", "ref")
# defect -> the config file's text, made from the valid config
CONFIG_DEFECTS = {
    "missing_recording": _without("recording"),
    "missing_models_dir": _without("models_dir"),
    "missing_gp_model": _without("gp_model"),
    "unknown_mode": lambda cfg: json.dumps({**cfg, "mode": "foo"}),
    "not_an_object": lambda cfg: json.dumps(sorted(cfg)),
    "not_json": lambda cfg: json.dumps(cfg)[:-1],
    "hla_string": lambda cfg: json.dumps({**cfg, "hla": "0"}),
    "hla_two": lambda cfg: json.dumps({**cfg, "hla": 2}),
    "hla_true": lambda cfg: json.dumps({**cfg, "hla": True}),
    "hla_null": lambda cfg: json.dumps({**cfg, "hla": None}),
    "resolution_zero": lambda cfg: json.dumps({**cfg, "resolution": 0}),
    "resolution_negative": lambda cfg: json.dumps({**cfg, "resolution": -30}),
    "resolution_float": lambda cfg: json.dumps({**cfg, "resolution": 30.0}),
    "resolution_7": lambda cfg: json.dumps({**cfg, "resolution": 7}),
    # a path that is not a non-empty string: 999 would be read as a file descriptor
    **{f"{key}_{name}": (lambda key, value: lambda cfg: json.dumps({**cfg, key: value}))(
        key, value)
       for key in PATH_KEYS
       for name, value in (("null", None), ("int", 999), ("list", ["a"]), ("empty", ""))},
}


@pytest.mark.parametrize("defect", sorted(CONFIG_DEFECTS))
def test_exit_code_validation_bad_config(workspace, tmp_path, monkeypatch,
                                         capsys, defect):
    cfg = {**json.loads(Path(workspace["config"]).read_text()),
           "out_dir": str(tmp_path / "o")}
    bad = tmp_path / "bad.json"
    bad.write_text(CONFIG_DEFECTS[defect](cfg))

    def never(*a, **k):
        raise AssertionError("preprocessing ran before the config was checked")

    monkeypatch.setattr(cli.preprocess, "preprocess_recording", never)
    assert cli.main(["run-all", "--config", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    key = defect.rpartition("_")[0]
    if key in PATH_KEYS:
        assert f"{key} must be a non-empty path string" in err
    assert os.listdir(tmp_path) == ["bad.json"]


def test_load_config_keeps_valid_hla_and_resolution(workspace, tmp_path):
    cfg = json.loads(Path(workspace["config"]).read_text())
    path = tmp_path / "c.json"
    for hla, resolution in ((0, 5), (1, 30)):
        path.write_text(json.dumps({**cfg, "hla": hla, "resolution": resolution}))
        got = cli.load_config(str(path))
        assert (got["hla"], got["resolution"]) == (hla, resolution)


MODEL_DEFECTS = {
    "segment_s_7": lambda c: c.update(segment_s=7),
    "unknown_key": lambda c: c.update(extra=1),
    "missing_key": lambda c: c.pop("hidden"),
    "unknown_encoding": lambda c: c.update(encoding="wavelet"),
    "shapes_without_emg": lambda c: c["modality_shapes"].pop("EMG"),
    "shape_float_channels": lambda c: c["modality_shapes"].update(EEG=[1.0, 201]),
}


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_exit_code_validation_bad_model_config(workspace, tmp_path, capsys, defect):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    manifest = models / "model00.model.json"
    meta = json.loads(manifest.read_text())
    MODEL_DEFECTS[defect](meta["config"])
    manifest.write_text(json.dumps(meta))
    cfg = json.loads(Path(workspace["config"]).read_text())
    cfg["models_dir"] = str(models)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["run-all", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "level=error" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["jobs", "seed"])
def test_exit_code_validation_retired_config_key(workspace, tmp_path, key):
    cfg = json.loads(Path(workspace["config"]).read_text())
    cfg[key] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["run-all", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 3


def test_exit_code_numeric_failure(tmp_path, monkeypatch):
    src = tmp_path / "scores.csv"
    src.write_text("0.9,1\n-0.9,0\n")
    monkeypatch.setattr(cli.diagnosis, "evaluate",
                        lambda *a, **k: (_ for _ in ()).throw(
                            CholeskyFailure("kernel not PD")))
    assert cli.main(["evaluate", str(src),
                     "--out", str(tmp_path / "roc.csv")]) == 4


HD_HEADER = "t_start_s,W,N1,N2,N3,REM\n"
HD_DEFECTS = {
    "empty_file": ("", CorruptHeader),
    "bad_header": ("t_start_s,W,N1\n0,0.5,0.5\n", CorruptHeader),
    "bad_cell": (HD_HEADER + "0,0.2,0.2,0.2,0.2,0.2\n30,0.2,x,0.2,0.2,0.2\n",
                 CorruptHeader),
    "time_not_increasing": (HD_HEADER + "0,1,0,0,0,0\n0,1,0,0,0,0\n", CorruptHeader),
    "time_uneven": (HD_HEADER + "0,1,0,0,0,0\n30,1,0,0,0,0\n45,1,0,0,0,0\n",
                    CorruptHeader),
    "short_row": (HD_HEADER + "0,1,0,0,0,0\n30,1,0,0,0\n", ShapeMismatch),
    "no_rows": (HD_HEADER, ShapeMismatch),
    "out_of_range": (HD_HEADER + "0,1.5,-0.5,0,0,0\n", InvalidValues),
    "row_sum_not_one": (HD_HEADER + "0,0.5,0,0,0,0\n", InvalidValues),
    "nan": (HD_HEADER + "0,nan,0,1,0,0\n", InvalidValues),
    "inf": (HD_HEADER + "0,inf,0,0,0,0\n", InvalidValues),
    "time_inf": (HD_HEADER + "0,1,0,0,0,0\ninf,1,0,0,0,0\n", CorruptHeader),
    "time_nan": (HD_HEADER + "0,1,0,0,0,0\nnan,1,0,0,0,0\n", CorruptHeader),
    # one step of 1e300 s: plot's hour ticks would never end
    "time_huge_step": (HD_HEADER + "0,1,0,0,0,0\n1e300,1,0,0,0,0\n",
                       IncompatibleResolution),
}


@pytest.mark.parametrize("command", ["features", "plot"])
@pytest.mark.parametrize("defect", sorted(HD_DEFECTS))
def test_malformed_hypnodensity_csv_is_a_typed_error(tmp_path, capsys, command, defect):
    text, expected = HD_DEFECTS[defect]
    src, out = tmp_path / "hd.csv", tmp_path / "out"
    src.write_text(text)
    with pytest.raises(expected):
        Hypnodensity.from_csv(text)
    argv = ([command, str(src), "--out", str(out)] if command == "features"
            else [command, str(src), str(out)])
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"level=error stage={command}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("resolution", [20, 60])
def test_plot_needs_a_resolution_the_pipeline_writes(tmp_path, rng, capsys, resolution):
    src, out = tmp_path / "hd.csv", tmp_path / "hd.svg"
    write_hd_csv(src, random_hypnodensity(rng, 40, resolution))
    assert cli.main(["plot", str(src), str(out)]) == 3
    err = capsys.readouterr().err
    assert f"the {resolution} s resolution" in err and "Traceback" not in err
    assert not out.exists()


NUMERIC_DEFECTS = {
    "empty_file": ("", EmptyFile),
    "header_only": ("score,label\n", EmptyFile),
    "non_numeric_cell": ("score,label\n0.9,1\nhigh,0\n", CorruptHeader),
    "non_finite_cell": ("0.9,1\nnan,0\n", InvalidValues),
    "short_row": ("0.9,1\n-0.9\n", ShapeMismatch),
    # the label (last column) is exactly 0 or 1 for evaluate and diagnose --fit
    "label_minus_one": ("0.9,1\n0.8,1\n-0.7,0\n-0.6,-1\n0.1,0\n", InvalidValues),
    "label_fraction": ("0.9,1\n0.8,0.6\n-0.7,0\n", InvalidValues),
    "label_two": ("score,label\n0.9,2\n-0.7,0\n", InvalidValues),
    # a first row with a number in it is data; a header is as wide as the data
    "first_row_cell_not_a_number": ("0.9x,1\n0.8,1\n-0.7,0\n0.6,1\n-0.5,0\n", CorruptHeader),
    "header_wider_than_the_data": ("score,label,extra\n0.9,1\n-0.7,0\n", CorruptHeader),
    "header_narrower_than_the_data": ("label\n0.9,1\n-0.7,0\n", CorruptHeader),
}


@pytest.mark.parametrize("command", ["evaluate", "diagnose"])
@pytest.mark.parametrize("defect", sorted(NUMERIC_DEFECTS))
def test_malformed_numeric_csv_is_a_typed_error(tmp_path, capsys, command, defect):
    text, expected = NUMERIC_DEFECTS[defect]
    src, out = tmp_path / "in.csv", tmp_path / "out"
    src.write_text(text)
    with pytest.raises(expected):
        cli._read_numeric_csv(str(src))
    argv = (["evaluate", str(src), "--out", str(out)] if command == "evaluate"
            else ["diagnose", "--fit", "--matrix", str(src), "--out", str(out)])
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"level=error stage={command}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("header", ["", "score,label\n"])
def test_a_label_that_is_not_0_or_1_is_named_by_file_and_row(tmp_path, header):
    src = tmp_path / "in.csv"
    src.write_text(header + "0.9,1\n0.8,1\n-0.7,0\n-0.6,-1\n0.1,0\n")
    row = 5 if header else 4
    with pytest.raises(InvalidValues, match=rf"{re.escape(str(src))}: row {row}: .*'-1'"):
        cli._read_numeric_csv(str(src))


@pytest.mark.parametrize("text,message", [
    ("0.9x,1\n0.8,1\n-0.7,0\n0.6,1\n-0.5,0\n", "row 1: '0.9x' is not a number"),
    ("score,label,extra\n0.9,1\n-0.7,0\n", "row 1: a header of another width than row 2"),
    ("score,label\n0.9,1\nhigh,0\n", "row 3: 'high' is not a number"),
])
def test_a_cell_that_is_not_a_number_or_a_bad_header_is_named_by_row(tmp_path, text,
                                                                      message):
    src = tmp_path / "in.csv"
    src.write_text(text)
    with pytest.raises(CorruptHeader, match=f"^{re.escape(str(src))}: {re.escape(message)}$"):
        cli._read_numeric_csv(str(src))


def vector_json(edit=dict, **extra):
    """A zero vector as ``to_json`` writes it, with ``edit`` applied to its
    "features" object and the keys ``extra`` added."""
    feats = json.loads(features.FeatureVector(values=np.zeros(481)).to_json())["features"]
    return json.dumps({"features": edit(feats), **extra})


SELECTION_DEFECTS = {
    "not_json": "{selected: [0, 5, 10]",
    "not_an_object": "[0, 5, 10]",
    "no_selected_key": '{"frequency": [0.1, 0.9]}',
    "selected_not_a_list": '{"selected": 5}',
    "float_index": '{"selected": [0, 5.5, 10]}',
    "string_index": '{"selected": [0, "5", 10]}',
    "bool_index": '{"selected": [0, true, 10]}',
    "negative_index": '{"selected": [0, -1, 10]}',
    "index_out_of_range": '{"selected": [0, 5, 481]}',
    # the workspace GP has 3 features
    "one_column_short": '{"selected": [0, 5]}',
    "one_column_extra": '{"selected": [0, 5, 10, 15]}',
}
VECTOR_DEFECTS = {
    "not_json": ("features: 1", CorruptHeader),
    "not_an_object": ("[1, 2, 3]", CorruptHeader),
    "no_features_key": ('{"recording_id": "r"}', CorruptHeader),
    "features_not_an_object": ('{"features": [1.0, 2.0]}', CorruptHeader),
    "non_numeric_value": ('{"features": {"a": 1.0, "b": "x"}}', CorruptHeader),
    "boolean_value": (vector_json(lambda f: {**f, "W.mean": True}), CorruptHeader),
    "hla_not_boolean": (vector_json(hla_positive="no"), CorruptHeader),
    "nan_value": (vector_json(lambda f: {**f, "W.mean": float("nan")}), InvalidValues),
    "int_overflow_value": (vector_json(lambda f: {**f, "W.mean": 10 ** 400}), CorruptHeader),
    "too_few_features": ('{"features": {"a": 1.0, "b": 2.0}}', CorruptHeader),
    # the layout is feature_names(), in order: no other keys, none left out
    "sorted_keys": (vector_json(lambda f: dict(sorted(f.items()))), CorruptHeader),
    "renamed_keys": (vector_json(lambda f: {f"x{i}": v for i, v in enumerate(f.values())}),
                     CorruptHeader),
    "cut_to_405_keys": (vector_json(lambda f: dict(list(f.items())[:405])), CorruptHeader),
    "extra_leading_key": (vector_json(lambda f: {"extra": 0.0, **f}), CorruptHeader),
    "extra_trailing_key": (vector_json(lambda f: {**f, "extra": 0.0}), CorruptHeader),
}


def run_diagnose(workspace, tmp_path, vector, selection=None):
    gp_dir, vec, out = tmp_path / "gp", tmp_path / "vec.json", tmp_path / "report.json"
    shutil.copytree(workspace["gp"], gp_dir)
    if selection is not None:
        (gp_dir / "selection.json").write_text(selection)
    vec.write_text(vector)
    code = cli.main(["diagnose", "--model", str(gp_dir), "--input", str(vec),
                     "--out", str(out)])
    return code, out


@pytest.mark.parametrize("defect", sorted(SELECTION_DEFECTS))
def test_malformed_selection_is_a_typed_error(workspace, tmp_path, capsys, defect):
    code, out = run_diagnose(workspace, tmp_path, vector_json(),
                             SELECTION_DEFECTS[defect])
    assert code == 3
    err = capsys.readouterr().err
    assert "level=error stage=diagnose" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("defect", sorted(VECTOR_DEFECTS))
def test_malformed_feature_vector_is_a_typed_error(workspace, tmp_path, capsys, defect):
    text, expected = VECTOR_DEFECTS[defect]
    if expected is not None:
        with pytest.raises(expected):
            features.FeatureVector.from_json(text)
    code, out = run_diagnose(workspace, tmp_path, text)
    assert code == 3
    err = capsys.readouterr().err
    assert "level=error stage=diagnose" in err and "Traceback" not in err
    assert not out.exists()


def test_a_vector_with_a_null_hla_status_is_read(workspace, tmp_path):
    """An empty ``recording_id`` and a null ``hla_positive``, as older vectors
    carry them, change nothing."""
    reports = []
    for name, text in (("bare", vector_json()),
                       ("null", vector_json(recording_id="", hla_positive=None))):
        code, out = run_diagnose(workspace, tmp_path / name, text)
        assert code == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


def test_run_all_refuses_a_selection_short_of_its_gp_before_reading_the_recording(
        workspace, tmp_path, capsys):
    gp_dir, out = tmp_path / "gp", tmp_path / "o"
    shutil.copytree(workspace["gp"], gp_dir)
    (gp_dir / "selection.json").write_text('{"selected": [0, 5]}')
    cfg = _config_with(workspace, tmp_path, gp_model=str(gp_dir))
    assert cli.main(["run-all", "--config", cfg, "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "selection.json: 2 selected columns for a GP of 3 features" in err
    assert "stage=preprocess" not in err and "Traceback" not in err
    assert not out.exists()


# ------------------------------------------------------------ process entry

def _run_module(*args, python=()):
    """``python -m hypnopipe.cli ARGS`` with ``src`` on its path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, *python, "-m", "hypnopipe.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})


def test_diagnose_closes_its_input(workspace, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(vector_json())
    proc = _run_module("diagnose", "--model", workspace["gp"], "--input", str(vec),
                       python=("-W", "error::ResourceWarning"))
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


def test_diagnose_closes_its_input_also_when_a_cycle_holds_it(workspace, tmp_path):
    """The in-process twin of the test above.  ``run`` freezes the heap, so a
    process never finalizes a file that only a reference cycle holds, and the
    ``-m`` path cannot show that leak; a collection here does."""
    vec = tmp_path / "vec.json"
    vec.write_text(vector_json())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert cli.main(["diagnose", "--model", workspace["gp"], "--input", str(vec),
                         "--out", str(tmp_path / "d.json")]) == 0
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_the_installed_command_and_the_module_both_call_run():
    tomllib = pytest.importorskip("tomllib")
    root = Path(cli.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"hypnopipe": "hypnopipe.cli:run"}
    tree = ast.parse(Path(cli.__file__).read_text())
    block, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in block.body] == ["sys.exit(run())"]


def _gc_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.mark.parametrize("text, code", [(None, 0), (HD_HEADER, 3)])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, rng, text, code):
    src = tmp_path / "hd.csv"
    src.write_text(random_hypnodensity(rng, 20).to_csv() if text is None else text)
    before = _gc_state()
    assert cli.main(["plot", str(src), str(tmp_path / "hd.svg")]) == code
    assert _gc_state() == before


def test_run_turns_the_collector_off_and_freezes_the_heap(tmp_path, rng):
    src = tmp_path / "hd.csv"
    write_hd_csv(src, random_hypnodensity(rng, 20))
    out = _fresh_python(
        "import gc, hypnopipe.cli as c; "
        f"code = c.run(['plot', {str(src)!r}, {str(tmp_path / 'hd.svg')!r}]); "
        "print(code, gc.isenabled(), gc.get_freeze_count() > 0)")
    assert out == "0 False True"


@pytest.mark.parametrize("case, code", [("written", 0), ("missing", 2), ("malformed", 3)])
def test_the_module_keeps_the_exit_contract(tmp_path, rng, case, code):
    src, out = tmp_path / "hd.csv", tmp_path / "hd.svg"
    if case == "written":
        write_hd_csv(src, random_hypnodensity(rng, 40))
    elif case == "malformed":
        src.write_text(HD_HEADER + "0,1,0,0,0,0\n30,1,0,0,0\n")
    proc = _run_module("plot", str(src), str(out))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert "level=error stage=plot" in proc.stderr and not out.exists()
    else:
        ref = tmp_path / "ref.svg"
        assert cli.main(["plot", str(src), str(ref)]) == 0
        assert out.read_bytes() == ref.read_bytes()


def test_importing_the_cli_loads_every_layer_and_none_of_the_heavy_scipy():
    """A process imports scipy's filters and solvers only when it runs them,
    and ``import hypnopipe.cli`` still loads the nine layer modules (the
    benchmark's tracer wraps them right after).  In a fresh process, because
    this one has loaded scipy already."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, hypnopipe.cli; "
                               "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src})
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"scipy.signal", "scipy.stats", "scipy.linalg", "scipy.special",
                         "hypnopipe.filters", "hypnopipe.linalg"}
    layers = ("signal_io", "preprocess", "encoding", "neuralnet", "hypnodensity",
              "features", "diagnosis", "plot", "cli")
    assert {f"hypnopipe.{layer}" for layer in layers} <= loaded


def test_commands_at_any_rate_leave_scipy_signal_unloaded(workspace, tmp_path):
    """preprocess with a ``ref``, octave encoding and a CC ``run-all`` of the
    128 and 200 Hz workspace, and preprocess and octave encoding of a
    314.159 Hz recording, design their filters in ``hypnopipe.filters`` and
    run scipy's kernels: each exits 0 in a fresh process that never imports
    ``scipy.signal``, ``scipy.stats``, ``scipy.linalg`` or ``scipy.special``.
    Nor do ``features``, ``plot``, a two-member ``train``, a predicting
    ``diagnose`` and ``diagnose --fit``, whose GP runs scipy's LAPACK and
    ``ndtr`` from ``hypnopipe.linalg`` and its ``ndtri`` replay.  No command
    runs the ``__init__`` of any public scipy subpackage.  ``features`` and
    ``run-all`` leave ``numpy.ma`` unloaded too."""
    ref, mont, odd = tmp_path / "ref.json", tmp_path / "m", tmp_path / "odd"
    ref.write_text(json.dumps(REF))
    odd_meta = signal_io.save_recording(synth_recording(
        {role: {**spec, "fs": 314.159} for role, spec in RAW_SPEC.items()},
        seed=5, duration_s=600.0, recording_id="odd"), str(tmp_path / "raw"))
    vec, mat = tmp_path / "vec.json", tmp_path / "matrix.csv"
    vec.write_text(features.FeatureVector(values=np.linspace(-1, 1, 481)).to_json())
    rng = np.random.default_rng(7)
    y = np.where(rng.random(40) > 0.5, 1.0, 0.0)
    write_matrix(mat, rng.standard_normal((40, 481)) + y[:, None], y)
    filtering = [["preprocess", workspace["meta"], str(mont), "--ref", str(ref)],
                 ["encode", str(mont / "rec1.psgmeta.json"), str(tmp_path / "e"),
                  "--mode", "octave"],
                 ["run-all", "--config", _config_with(workspace, tmp_path, ref=str(ref)),
                  "--out-dir", str(tmp_path / "o")],
                 ["preprocess", odd_meta, str(odd), "--ref", str(ref)],
                 ["encode", str(odd / "odd.psgmeta.json"), str(tmp_path / "oe"),
                  "--mode", "octave"]]
    others = [["features", str(tmp_path / "o" / "rec1.hypnodensity.csv"),
               "--out", str(tmp_path / "f.json")],
              ["plot", str(tmp_path / "o" / "rec1.hypnodensity.csv"),
               str(tmp_path / "p.svg")],
              ["diagnose", "--model", workspace["gp"], "--input", str(vec)],
              ["diagnose", "--fit", "--matrix", str(mat), "--out", str(tmp_path / "gp")],
              train_argv(tmp_path / "train", 2)]
    for argv in filtering + others:
        (code, loaded), packages = map(json.loads, _fresh_python(
            "import json, sys\nfrom hypnopipe import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
            "print(json.dumps(sorted(name for name, module in sys.modules.items()\n"
            "                        if name.startswith('scipy.') and hasattr(module, '__path__'))))"
        ).splitlines()[-2:])
        assert code == 0, argv
        heavy = {"scipy.signal", "scipy.stats", "scipy.linalg", "scipy.special"}
        if argv[0] in ("features", "run-all"):
            heavy.add("numpy.ma")
        assert not set(loaded) & heavy, argv
        assert not [name for name in packages if not name.startswith("scipy._")], argv
        assert ("hypnopipe.filters" in loaded) == (argv in filtering), argv
        assert ("hypnopipe.linalg" in loaded) == (argv[0] in ("run-all", "diagnose")), argv


def _fresh_python(code, **env):
    """What ``code`` prints in a fresh interpreter with ``src`` on its path, and
    with ``OPENBLAS_NUM_THREADS`` unset unless ``env`` sets it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True,
                          env={**base, "PYTHONPATH": src, **env}).stdout.strip()


@pytest.mark.parametrize("code,env,threads", [
    # the CLI and the console script import the package, then numpy
    ("import sys, hypnopipe; assert 'numpy' not in sys.modules", {}, "1"),
    ("import hypnopipe", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
    # a host program that loaded numpy first keeps its own setting and environment
    ("import numpy, hypnopipe", {}, "None"),
])
def test_blas_runs_one_thread_unless_the_user_or_a_host_program_chose(code, env, threads):
    assert _fresh_python(f"{code}; import os; "
                         f"print(os.environ.get('OPENBLAS_NUM_THREADS'))", **env) == threads


def test_diagnose_fit_at_one_or_two_blas_threads_scores_alike(tmp_path):
    """One BLAS thread sums the GP fit's products in another order.  On this
    150-night matrix the fitted log marginal likelihood moves by about 1e-14
    and, since the GP's arrays are stored as float32, every blob and the score
    are unchanged; the bounds allow rounding at the float64 level."""
    rng = np.random.default_rng(44)
    y = np.where(rng.random(150) > 0.5, 1.0, 0.0)
    X = rng.standard_normal((150, 481))
    X[:, 2] += 2 * y - 1
    X[:, 7] += 0.7 * (2 * y - 1)
    write_matrix(tmp_path / "m.csv", X, y)
    (tmp_path / "v.json").write_text(features.FeatureVector(values=X[0]).to_json())
    fits = {}
    for threads in ("1", "2"):
        gp = tmp_path / f"gp{threads}"
        report = _fresh_python(
            "from hypnopipe import cli; raise SystemExit("
            f"cli.main(['diagnose', '--fit', '--matrix', {str(tmp_path / 'm.csv')!r}, "
            f"'--out', {str(gp)!r}]) or "
            f"cli.main(['diagnose', '--model', {str(gp)!r}, "
            f"'--input', {str(tmp_path / 'v.json')!r}]))",
            OPENBLAS_NUM_THREADS=threads)
        fits[threads] = (json.loads(report)["score"],
                         json.loads((gp / "gp.gp.json").read_text())["log_marginal"])
    (s1, lm1), (s2, lm2) = fits["1"], fits["2"]
    assert abs(s1 - s2) <= 1e-12
    assert abs(lm1 - lm2) <= 1e-12 * abs(lm2)


def test_exit_code_malformed_hypnodensity(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("t_start_s,W,N1\n0,definitely,not\n")
    assert cli.main(["plot", str(src), str(tmp_path / "x.svg")]) == 3


# ----------------------------------------------------- non-finite samples

def nan_recording(tmp_path):
    """The workspace recording with 10 NaN samples in EMG_CHIN from 1234."""
    psg = synth_recording(RAW_SPEC, seed=3, duration_s=600.0,
                          recording_id="rec1")
    meta = signal_io.save_recording(psg, str(tmp_path / "raw"))
    blob = tmp_path / "raw" / "rec1.EMG_CHIN.f32le"
    samples = np.fromfile(blob, dtype="<f4")
    samples[1234:1244] = np.nan
    samples.tofile(blob)
    return meta


@pytest.mark.parametrize("command", ["preprocess", "run-all"])
def test_non_finite_samples_fail_before_any_stage(workspace, tmp_path, capsys,
                                                  monkeypatch, command):
    meta, out = nan_recording(tmp_path), tmp_path / "o"

    def never(*a, **k):
        raise AssertionError("a stage ran on non-finite samples")

    monkeypatch.setattr(cli.preprocess, "preprocess_recording", never)
    argv = ([command, meta, str(out)] if command == "preprocess" else
            [command, "--config", workspace["config"], "--recording", meta,
             "--out-dir", str(out)])
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "EMG_CHIN" in err and "1234" in err and "Traceback" not in err
    assert not out.exists()


# -------------------------------------------------------- non-UTF-8 inputs

NOT_UTF8 = b"\xff\xfe{\x00}\x00"      # a UTF-16 byte-order mark, then "{}"


def _copy_gp(ws, tmp_path, name):
    gp = tmp_path / "gp"
    shutil.copytree(ws["gp"], gp)
    (gp / name).write_bytes(NOT_UTF8)
    return str(gp)


def _copy_models(ws, tmp_path):
    models = tmp_path / "models"
    shutil.copytree(ws["models"], models)
    (models / "model00.model.json").write_bytes(NOT_UTF8)
    return str(models)


def _config_with(ws, tmp_path, drop=(), **changes):
    cfg = {k: v for k, v in json.loads(Path(ws["config"]).read_text()).items()
           if k not in drop}
    cfg.update(changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# subcommand and input -> argv for (workspace, tmp_path, the non-UTF-8 file)
NON_UTF8_INPUTS = {
    "preprocess-recording": lambda ws, t, bad: ["preprocess", bad, str(t / "o")],
    "preprocess-ref": lambda ws, t, bad: ["preprocess", ws["meta"], str(t / "o"),
                                          "--ref", bad],
    "encode-montage": lambda ws, t, bad: ["encode", bad, str(t / "o")],
    "train-config": lambda ws, t, bad: ["train", "--config", bad, "--data", str(t),
                                        "--out", str(t / "o")],
    "score-encoding": lambda ws, t, bad: ["score", bad, "--models", ws["models"],
                                          "--out", str(t / "o")],
    "features-csv": lambda ws, t, bad: ["features", bad, "--out", str(t / "o")],
    "plot-csv": lambda ws, t, bad: ["plot", bad, str(t / "o")],
    "evaluate-csv": lambda ws, t, bad: ["evaluate", bad, "--out", str(t / "o")],
    "diagnose-fit-matrix": lambda ws, t, bad: ["diagnose", "--fit", "--matrix", bad,
                                               "--out", str(t / "o")],
    "diagnose-input": lambda ws, t, bad: ["diagnose", "--model", ws["gp"],
                                          "--input", bad, "--out", str(t / "o")],
    "diagnose-selection": lambda ws, t, bad: [
        "diagnose", "--model", _copy_gp(ws, t, "selection.json"), "--input", bad,
        "--out", str(t / "o")],
    "diagnose-gp-manifest": lambda ws, t, bad: [
        "diagnose", "--model", _copy_gp(ws, t, "gp.gp.json"), "--input", bad,
        "--out", str(t / "o")],
    "run-all-config": lambda ws, t, bad: ["run-all", "--config", bad,
                                          "--out-dir", str(t / "o")],
    "run-all-ref": lambda ws, t, bad: ["run-all", "--config",
                                       _config_with(ws, t, ref=bad),
                                       "--out-dir", str(t / "o")],
    "run-all-models": lambda ws, t, bad: ["run-all", "--config",
                                          _config_with(ws, t, models_dir=_copy_models(
                                              ws, t)), "--out-dir", str(t / "o")],
    "run-all-recording": lambda ws, t, bad: ["run-all", "--config", ws["config"],
                                             "--recording", bad,
                                             "--out-dir", str(t / "o")],
}


# --------------------------------------------------- reference distributions

REF = {"mean": [5.0, -0.5, 0.7], "covariance": [1, 0, 0, 0, 1, 0, 0, 0, 1]}

REF_DEFECTS = {
    "not_json": "{mean",
    "not_an_object": "[]",
    "no_covariance": json.dumps({"mean": [0, 0, 0]}),
    "unknown_key": json.dumps({**REF, "scale": 2}),
    "two_means": json.dumps({"mean": [0, 0], "covariance": [1, 0, 0, 1]}),
    "text_value": json.dumps({**REF, "mean": ["a", 0, 0]}),
    "numeric_text_mean": json.dumps({**REF, "mean": ["5.0", "-0.5", "0.7"]}),
    "boolean_mean": json.dumps({**REF, "mean": [True, False, True]}),
    "numeric_text_covariance": json.dumps({**REF, "covariance": [str(v) for v in
                                                                  REF["covariance"]]}),
    "mean_not_a_list": json.dumps({**REF, "mean": 5.0}),
    "nan_mean": json.dumps({**REF, "mean": [float("nan"), 0, 0]}),
    "int_overflow_mean": json.dumps({**REF, "mean": [10 ** 400, 0, 0]}),
    "asymmetric": json.dumps({**REF, "covariance": [1, 0.5, 0, 0, 1, 0, 0, 0, 1]}),
    "indefinite": json.dumps({**REF, "covariance": [1, 0, 0, 0, -1, 0, 0, 0, 1]}),
}


@pytest.mark.parametrize("command", ["preprocess", "run-all"])
@pytest.mark.parametrize("defect", sorted(REF_DEFECTS))
def test_malformed_reference_is_a_typed_error(workspace, tmp_path, capsys, command,
                                              defect):
    ref, out = tmp_path / "ref.json", tmp_path / "o"
    ref.write_text(REF_DEFECTS[defect])
    argv = (["preprocess", workspace["meta"], str(out), "--ref", str(ref)]
            if command == "preprocess" else
            ["run-all", "--config", _config_with(workspace, tmp_path, ref=str(ref)),
             "--out-dir", str(out)])
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "reference distribution" in err and "Traceback" not in err
    assert not out.exists()


def test_cc_run_all_neither_needs_nor_processes_occipital_channels(workspace, tmp_path,
                                                                  capsys):
    spec = {**RAW_SPEC, "EEG_O_LEFT": {"fs": 128.0}, "EEG_O_RIGHT": {"fs": 128.0}}
    meta = signal_io.save_recording(synth_recording(
        spec, seed=3, duration_s=600.0, recording_id="flat"), str(tmp_path / "raw"))
    ref, out = tmp_path / "ref.json", tmp_path / "o"
    ref.write_text(json.dumps(REF))
    assert cli.main(["run-all", "--config", _config_with(workspace, tmp_path, ref=str(ref)),
                     "--recording", meta, "--out-dir", str(out)]) == 0
    assert len(os.listdir(out)) == 4
    selection = [e["msg"] for e in map(parse_log_line, capsys.readouterr().err.splitlines())
                 if "channel selection" in e["msg"]]
    assert len(selection) == 1
    assert selection[0].startswith("flat: channel selection {'EEG_C': 'EEG_C_")
    assert "EEG_O" not in selection[0]


def flat_occipital_recording(tmp_path):
    """The workspace spec with both occipital electrodes constant (zero)."""
    spec = {**RAW_SPEC, "EEG_O_LEFT": {"fs": 128.0}, "EEG_O_RIGHT": {"fs": 128.0}}
    return signal_io.save_recording(synth_recording(
        spec, seed=3, duration_s=120.0, recording_id="flat"), str(tmp_path / "raw"))


def test_staged_cc_scores_a_recording_with_flat_occipital_channels(tmp_path, capsys):
    meta, ref, mont = flat_occipital_recording(tmp_path), tmp_path / "ref.json", tmp_path / "m"
    ref.write_text(json.dumps(REF))
    assert cli.main(["preprocess", meta, str(mont), "--ref", str(ref)]) == 0
    warnings = [e["msg"] for e in map(parse_log_line, capsys.readouterr().err.splitlines())
                if e["level"] == "warning"]
    assert warnings == ["flat: left out EEG_O: every candidate is constant: "
                        "EEG_O_LEFT, EEG_O_RIGHT"]
    assert set(json.loads((mont / "flat.selection.json").read_text())) == {"EEG_C"}
    montage = mont / "flat.psgmeta.json"
    assert cli.main(["encode", str(montage), str(tmp_path / "cc"), "--mode", "cc"]) == 0
    out = tmp_path / "octave"
    assert cli.main(["encode", str(montage), str(out), "--mode", "octave"]) == 3
    err = capsys.readouterr().err
    assert "required channel missing: EEG_O" in err and "Traceback" not in err
    assert not out.exists()


def test_preprocess_writes_the_montage_of_one_octave_call(workspace, tmp_path):
    """The montage and selection are the bytes one ``preprocess_recording``
    call for the octave roles writes."""
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(REF))
    assert cli.main(["preprocess", workspace["meta"], str(tmp_path / "a"),
                     "--ref", str(ref)]) == 0
    psg = signal_io.load_recording(workspace["meta"])
    montage, report = cli.preprocess.preprocess_recording(
        psg, cli._load_ref(str(ref)), cli.MONTAGE["octave"])
    signal_io.save_recording(montage, str(tmp_path / "b"))
    with open(tmp_path / "b" / "rec1.selection.json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b")) and len(names) == 7
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("case", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_is_a_typed_error(workspace, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    assert cli.main(NON_UTF8_INPUTS[case](workspace, tmp_path, str(bad))) == 3
    err = capsys.readouterr().err
    assert "level=error" in err and "UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_non_utf8_hypnogram_is_a_typed_error(tmp_path):
    bad = tmp_path / "h.hyp.txt"
    bad.write_bytes(b"epoch_s=30\n\xff\xfeW\n")
    with pytest.raises(CorruptHeader, match="UTF-8"):
        signal_io.load_hypnogram(str(bad))


# ------------------------------------------------------- manifest headers

def files_under(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


def edited_recording(ws, tmp_path, edit):
    """A copy of the workspace recording under ``tmp_path/raw`` whose
    manifest ``edit`` changed; returns the manifest path."""
    raw = tmp_path / "raw"
    shutil.copytree(Path(ws["meta"]).parent, raw)
    manifest = raw / Path(ws["meta"]).name
    meta = json.loads(manifest.read_text())
    edit(meta)
    manifest.write_text(json.dumps(meta))     # NaN and inf as JSON's NaN, Infinity
    return str(manifest)


def _set_fs(value):
    return lambda meta: meta["channels"]["EEG_C_LEFT"].update(fs=value)


RECORDING_DEFECTS = {
    "fs_nan": (_set_fs(float("nan")), "fs must be finite"),
    "fs_inf": (_set_fs(float("inf")), "fs must be finite"),
    "duration_nan": (lambda meta: meta.update(duration_s=float("nan")),
                     "duration_s must be finite"),
    "duration_inf": (lambda meta: meta.update(duration_s=float("inf")),
                     "duration_s must be finite"),
    "fs_overflow": (_set_fs(1e308), "fs * duration_s overflows (1e+308 * 600.0)"),
    "duration_overflow": (lambda meta: meta.update(duration_s=1e308),
                          "fs * duration_s overflows (128.0 * 1e+308)"),
    "id_parent": (lambda meta: meta.update(recording_id="../evil"), "not a bare file name"),
    "id_subdir": (lambda meta: meta.update(recording_id="sub/evil"), "not a bare file name"),
    "id_int": (lambda meta: meta.update(recording_id=5), "not a bare file name"),
    # the workspace recording is 600 s with EEG_C_LEFT at 128 Hz
    "fs_string": (_set_fs("128"), "must be JSON numbers"),
    "fs_bool": (_set_fs(True), "must be JSON numbers"),
    "duration_string": (lambda meta: meta.update(duration_s="600"), "must be JSON numbers"),
    "duration_bool": (lambda meta: meta.update(duration_s=True), "must be JSON numbers"),
    # a role outside the montage, whose blob is there
    "unknown_role": (lambda meta: (meta["channels"].update(EKG={"fs": 128.0}),
                                   meta["arrays"].update(EKG=meta["arrays"]["EEG_C_LEFT"])),
                     "unknown channel role 'EKG'"),
    "sample_count": (_set_fs(64.0), "EEG_C_LEFT: 76800 samples, expected 38400±1"),
    # JSON integers are unbounded; this one is beyond the largest float
    "duration_int_overflow": (lambda meta: meta.update(duration_s=10 ** 400),
                              "must be JSON numbers"),
}


@pytest.mark.parametrize("command", ["preprocess", "encode", "run-all"])
@pytest.mark.parametrize("defect", sorted(RECORDING_DEFECTS))
def test_a_bad_recording_header_is_refused_before_anything_is_written(
        workspace, tmp_path, capsys, command, defect):
    edit, message = RECORDING_DEFECTS[defect]
    meta = edited_recording(workspace, tmp_path, edit)
    out = tmp_path / "out"
    out.mkdir()
    argv = {"preprocess": ["preprocess", meta, str(out)],
            "encode": ["encode", meta, str(out)],
            "run-all": ["run-all", "--config", workspace["config"], "--recording", meta,
                        "--out-dir", str(out)]}[command]
    before = files_under(tmp_path)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("rid", ["../evil", "", 5])
def test_an_encoding_whose_id_is_not_a_file_name_is_refused(workspace, tmp_path, capsys,
                                                            rid):
    path = Path(encode_recording(make_montage(60.0), "cc").save(str(tmp_path / "enc")))
    meta = json.loads(path.read_text())
    meta["recording_id"] = rid
    path.write_text(json.dumps(meta))
    with pytest.raises(CorruptHeader, match="not a bare file name"):
        EncodedRecording.load(str(path))
    before = files_under(tmp_path)
    assert cli.main(["score", str(path), "--models", workspace["models"],
                     "--out", str(tmp_path / "hd.csv")]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert files_under(tmp_path) == before


def never_windowed(*a, **k):
    raise AssertionError("the recording was windowed before its mode was checked")


@pytest.mark.parametrize("enc_mode,models_encoding", [("cc", "octave"), ("octave", "cc")])
def test_score_refuses_an_encoding_in_another_mode_than_the_models(
        tmp_path, monkeypatch, capsys, enc_mode, models_encoding):
    models = tmp_path / "models"
    save_member(models, "m0", encoding=models_encoding)
    path = encode_recording(make_montage(60.0), enc_mode).save(str(tmp_path / "enc"))
    monkeypatch.setattr(cli.neuralnet, "windows_from_encoded", never_windowed)
    before = files_under(tmp_path)
    assert cli.main(["score", path, "--models", str(models),
                     "--out", str(tmp_path / "hd.csv")]) == 3
    err = capsys.readouterr().err
    assert (f"the encoding is {enc_mode!r}, the models' encoding is {models_encoding!r}"
            in err and "Traceback" not in err)
    assert files_under(tmp_path) == before


# ------------------------------------------------------- flat candidates

FLAT_EEG = {"fs": 128.0}        # constant (zero) samples


def _recording_with(tmp_path, rid, duration_s=600.0, **roles):
    """The workspace spec with ``roles`` changed, saved under ``tmp_path/rid``."""
    return signal_io.save_recording(synth_recording(
        {**RAW_SPEC, **roles}, seed=3, duration_s=duration_s, recording_id=rid),
        str(tmp_path / rid))


def test_run_all_without_ref_skips_a_flat_first_candidate(workspace, tmp_path, capsys):
    """The run reads as if the flat channel were not there."""
    flat = _recording_with(tmp_path, "a", EEG_C_LEFT=FLAT_EEG)
    psg = signal_io.load_recording(flat)
    del psg.channels["EEG_C_LEFT"]
    without = signal_io.save_recording(psg, str(tmp_path / "b"))
    for meta, out in ((flat, tmp_path / "o1"), (without, tmp_path / "o2")):
        assert cli.main(["run-all", "--config", workspace["config"],
                         "--recording", meta, "--out-dir", str(out)]) == 0
    selection = [e["msg"] for e in map(parse_log_line, capsys.readouterr().err.splitlines())
                 if "channel selection" in e["msg"]]
    assert selection == ["a: channel selection {'EEG_C': 'EEG_C_RIGHT'}"] * 2
    names = sorted(os.listdir(tmp_path / "o1"))
    assert names == sorted(os.listdir(tmp_path / "o2")) and len(names) == 4
    for name in names:
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


def test_staged_preprocess_without_ref_skips_a_flat_first_candidate(tmp_path):
    meta = _recording_with(tmp_path, "a", EEG_C_LEFT=FLAT_EEG, EEG_O_LEFT=FLAT_EEG,
                           EEG_O_RIGHT=RAW_SPEC["EEG_O_LEFT"])
    assert cli.main(["preprocess", meta, str(tmp_path / "m")]) == 0
    assert json.loads((tmp_path / "m" / "a.selection.json").read_text()) == {
        "EEG_C": "EEG_C_RIGHT", "EEG_O": "EEG_O_RIGHT"}


# case -> (each constant channel's value, None to leave the channel out;
# whether a ref is given; the role refused and the candidates it names)
FLAT_CENTRAL = {
    "pair_without_ref": ({"EEG_C_LEFT": 0.0, "EEG_C_RIGHT": 0.0}, False,
                         "EEG_C: every candidate is constant: EEG_C_LEFT, EEG_C_RIGHT"),
    "one_candidate_with_ref": ({"EEG_C_LEFT": 0.0, "EEG_C_RIGHT": None}, True,
                               "EEG_C: every candidate is constant: EEG_C_LEFT"),
    # a DC line is not constant once high-passed: the rule reads raw samples
    "dc_pair_with_ref": ({"EEG_C_LEFT": 50.0, "EEG_C_RIGHT": 70.0}, True,
                         "EEG_C: every candidate is constant: EEG_C_LEFT, EEG_C_RIGHT"),
    "eog_left": ({"EOG_L": 0.0}, False, "EOG_L: every candidate is constant: EOG_L"),
    "eog_pair": ({"EOG_L": 0.0, "EOG_R": 0.0}, True,
                 "EOG_L: every candidate is constant: EOG_L"),
    "emg": ({"EMG_CHIN": 0.0}, False, "EMG_CHIN: every candidate is constant: EMG_CHIN"),
}


@pytest.mark.parametrize("case,command", [
    (case, command) for case in sorted(FLAT_CENTRAL) for command in ("preprocess", "run-all")
] + [("eog_pair", "octave-run-all")])
def test_an_all_flat_central_site_is_refused(workspace, tmp_path, monkeypatch, capsys,
                                             command, case):
    """Every role refuses a recording whose candidates for it are all
    constant, before any channel is filtered; each role is named."""
    flat, with_ref, message = FLAT_CENTRAL[case]
    spec = {role: s for role, s in RAW_SPEC.items() if flat.get(role, 0.0) is not None}
    psg = synth_recording(spec, seed=3, duration_s=600.0, recording_id="a")
    for role, level in flat.items():
        if level is not None:
            psg.channels[role].samples = np.full_like(psg.channels[role].samples, level)
    meta = signal_io.save_recording(psg, str(tmp_path / "a"))
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(REF))
    changes = {"ref": str(ref)} if with_ref else {}
    if command == "octave-run-all":
        for name in ("m0", "m1"):
            save_member(tmp_path / "models", name, encoding="octave")
        changes.update(models_dir=str(tmp_path / "models"), mode="octave")
    out = str(tmp_path / "o")
    argv = (["preprocess", meta, out] + (["--ref", str(ref)] if with_ref else [])
            if command == "preprocess" else
            ["run-all", "--config", _config_with(workspace, tmp_path, **changes),
             "--recording", meta, "--out-dir", out])
    before = files_under(tmp_path)
    monkeypatch.setattr(cli.preprocess, "bandlimit", None)    # nothing is filtered
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert files_under(tmp_path) == before


def test_preprocess_without_ref_leaves_out_an_all_flat_occipital_site(tmp_path, capsys):
    meta = _recording_with(tmp_path, "flat", 120.0, EEG_O_LEFT=FLAT_EEG,
                           EEG_O_RIGHT=FLAT_EEG)
    mont = tmp_path / "m"
    assert cli.main(["preprocess", meta, str(mont)]) == 0
    warnings = [e["msg"] for e in map(parse_log_line, capsys.readouterr().err.splitlines())
                if e["level"] == "warning"]
    assert warnings == ["flat: left out EEG_O: every candidate is constant: "
                        "EEG_O_LEFT, EEG_O_RIGHT"]
    assert json.loads((mont / "flat.selection.json").read_text()) == {"EEG_C": "EEG_C_LEFT"}
    assert "EEG_O" not in signal_io.load_recording(str(mont / "flat.psgmeta.json")).channels


# ------------------------------------------------------- the write rule

@pytest.mark.parametrize("out", ["raw", "raw/../raw"])
def test_preprocess_refuses_to_write_over_its_input(workspace, tmp_path, capsys, out):
    raw = tmp_path / "raw"
    shutil.copytree(Path(workspace["meta"]).parent, raw)
    before = {p.name: p.read_bytes() for p in raw.iterdir()}
    assert cli.main(["preprocess", str(raw / "rec1.psgmeta.json"), str(tmp_path / out)]) == 3
    err = capsys.readouterr().err
    assert "would replace its own input" in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in raw.iterdir()} == before


def test_preprocess_refuses_to_write_over_a_blob_of_its_input(workspace, tmp_path, capsys):
    """A manifest renamed from its recording id still names the id's blobs,
    and the montage's EMG_CHIN blob has the raw EMG_CHIN blob's name."""
    raw = tmp_path / "raw"
    shutil.copytree(Path(workspace["meta"]).parent, raw)
    (raw / "rec1.psgmeta.json").rename(raw / "x.psgmeta.json")
    before = {p.name: p.read_bytes() for p in raw.iterdir()}
    assert cli.main(["preprocess", str(raw / "x.psgmeta.json"), str(raw)]) == 3
    err = capsys.readouterr().err
    assert "would replace its own input" in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in raw.iterdir()} == before


def _two_plots(tmp_path, rng):
    """Two hypnodensity CSVs whose plots differ, and those plots' bytes."""
    srcs, svgs = [tmp_path / "1.csv", tmp_path / "2.csv"], []
    for src, n in zip(srcs, (40, 80)):
        hd = random_hypnodensity(rng, n)
        write_hd_csv(src, hd)
        svgs.append(cli.hypnodensity_svg(hd).encode())
    return srcs, svgs


def test_a_rewritten_output_leaves_an_open_reader_the_old_bytes(tmp_path, rng):
    (first, second), (old, new) = _two_plots(tmp_path, rng)
    out = tmp_path / "hd.svg"
    assert cli.main(["plot", str(first), str(out)]) == 0
    with open(out, "rb") as reader:
        assert cli.main(["plot", str(second), str(out)]) == 0
        assert reader.read() == old
    assert out.read_bytes() == new
    assert sorted(os.listdir(tmp_path)) == ["1.csv", "2.csv", "hd.svg"]


def test_a_symlinked_output_is_written_through_the_link(tmp_path, rng):
    (first, _), (svg, _) = _two_plots(tmp_path, rng)
    target, link = tmp_path / "target.svg", tmp_path / "link.svg"
    target.write_text("old")
    link.symlink_to(target)
    assert cli.main(["plot", str(first), str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == svg


def test_a_fifo_output_is_written_in_place(tmp_path, rng):
    (first, _), (svg, _) = _two_plots(tmp_path, rng)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["plot", str(first), str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [svg]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_a_directory_output_is_an_io_error(tmp_path, rng, capsys):
    (first, _), _ = _two_plots(tmp_path, rng)
    (tmp_path / "d").mkdir()
    before = files_under(tmp_path)
    assert cli.main(["plot", str(first), str(tmp_path / "d")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert files_under(tmp_path) == before


def _bytes_under(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in Path(root).rglob("*")}


RUN_ALL_OUTPUTS = ("hypnodensity.csv", "hypnodensity.svg", "features.csv", "diagnosis.json")


@pytest.mark.parametrize("previous", [False, True])
def test_a_run_all_that_cannot_write_one_output_writes_none(workspace, five_s_models,
                                                            tmp_path, capsys, previous):
    """``<id>.features.csv`` is a directory, so it cannot be written; the
    outputs staged before it are not renamed into place, over those of a
    previous run at another resolution if there are any."""
    out = tmp_path / "o"
    if previous:
        cfg = _config_with(workspace, tmp_path, models_dir=five_s_models)
        assert cli.main(["run-all", "--config", cfg, "--out-dir", str(out)]) == 0
        (out / "rec1.features.csv").unlink()
    (out / "rec1.features.csv").mkdir(parents=True)
    before = _bytes_under(tmp_path)
    assert len(before) == (6 if previous else 2)
    assert cli.main(["run-all", "--config", workspace["config"],
                     "--out-dir", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert _bytes_under(tmp_path) == before


def test_a_run_all_cut_short_by_a_file_size_limit_leaves_the_previous_outputs(
        workspace, five_s_models, tmp_path):
    """A second run at 30 s, whose features file is over the limit and whose
    hypnodensity files are under it, exits 2 and leaves the first run's four
    5 s files, not a mix of the two runs."""
    pytest.importorskip("resource")
    first = _config_with(workspace, tmp_path, models_dir=five_s_models)
    out, unlimited = tmp_path / "o", tmp_path / "unlimited"
    assert cli.main(["run-all", "--config", first, "--out-dir", str(out)]) == 0
    second = tmp_path / "second.json"
    second.write_text(json.dumps({**json.loads(Path(first).read_text()), "resolution": 30}))
    assert cli.main(["run-all", "--config", str(second), "--out-dir", str(unlimited)]) == 0
    size = {s: (unlimited / f"rec1.{s}").stat().st_size for s in RUN_ALL_OUTPUTS}
    assert max(size["hypnodensity.csv"], size["hypnodensity.svg"]) < size["features.csv"]
    limit = size["features.csv"] - 1
    before = {s: (out / f"rec1.{s}").read_bytes() for s in RUN_ALL_OUTPUTS}
    assert all(before[s] != (unlimited / f"rec1.{s}").read_bytes()
               for s in RUN_ALL_OUTPUTS[:3])
    argv = ["run-all", "--config", str(second), "--out-dir", str(out)]
    child = subprocess.run(
        [sys.executable, "-c", "import resource, sys; "
         f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit})); "
         f"from hypnopipe import cli; sys.exit(cli.main({argv!r}))"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)),
             "PYTHONDONTWRITEBYTECODE": "1"})
    assert child.returncode == 2 and "Traceback" not in child.stderr
    assert {s: (out / f"rec1.{s}").read_bytes() for s in RUN_ALL_OUTPUTS} == before
    assert sorted(os.listdir(out)) == sorted(f"rec1.{s}" for s in RUN_ALL_OUTPUTS)


def test_preprocess_that_cannot_write_its_selection_writes_no_montage(workspace, tmp_path,
                                                                      capsys):
    out = tmp_path / "m"
    (out / "rec1.selection.json").mkdir(parents=True)
    assert cli.main(["preprocess", workspace["meta"], str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert files_under(out) == ["rec1.selection.json"]


def test_diagnose_fit_that_cannot_write_its_selection_writes_no_gp(tmp_path, rng, capsys):
    y = np.where(rng.random(40) > 0.5, 1.0, 0.0)
    X = rng.standard_normal((40, 481))
    X[:, 2] += 3.0 * (2 * y - 1)
    write_matrix(tmp_path / "matrix.csv", X, y)
    gp_dir = tmp_path / "gp"
    (gp_dir / diagnosis.SELECTION_FILE).mkdir(parents=True)
    assert cli.main(["diagnose", "--fit", "--matrix", str(tmp_path / "matrix.csv"),
                     "--out", str(gp_dir)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert files_under(gp_dir) == [diagnosis.SELECTION_FILE]


def test_a_recording_of_no_duration_is_refused(workspace, tmp_path, capsys):
    """Seven empty channels of a 0 s recording: refused at load as the header
    defect it is, not as seven constant channels."""
    manifest = str(tmp_path / "raw" / "z.psgmeta.json")
    store.write_files(store.bundle(
        manifest, {role: np.zeros(0) for role in signal_io.ROLES},
        {"recording_id": "z", "duration_s": 0.0,
         "channels": {role: {"fs": 256.0} for role in signal_io.ROLES}}))
    with pytest.raises(CorruptHeader, match="duration_s"):
        signal_io.load_recording(manifest)
    assert cli.main(["preprocess", manifest, str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert "duration_s must be finite and > 0, got 0.0" in err and "Traceback" not in err
    assert not (tmp_path / "m").exists()
