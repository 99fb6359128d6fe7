import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from hypnopipe import cli, diagnosis, features, neuralnet, signal_io
from hypnopipe.encoding import EncodedRecording
from hypnopipe.errors import (CholeskyFailure, CorruptHeader, EmptyFile, InvalidValues,
                              ShapeMismatch)
from hypnopipe.hypnodensity import Hypnodensity
from hypnopipe.signal_io import HypnogramLabels

from conftest import random_hypnodensity

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
    psg = signal_io.synth_recording(RAW_SPEC, seed=3, duration_s=600.0,
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

    gp_dir = root / "gp"
    rng = np.random.default_rng(0)
    y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    X = rng.standard_normal((40, 3)) + y[:, None]
    model = diagnosis.gp_fit(X, y)
    os.makedirs(gp_dir, exist_ok=True)
    model.save(str(gp_dir))
    with open(gp_dir / "selection.json", "w") as f:
        json.dump({"selected": [0, 5, 10]}, f)

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


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main([])
    assert e.value.code == 2


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
    assert {e["level"] for e in entries} == {"info"}
    assert [e["stage"] for e in entries] == [
        "preprocess", "preprocess", "encode", "score", "features", "diagnose",
        "run-all"]
    assert entries[1]["msg"].startswith("rec1: channel selection {")


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
        EncodedRecording(recording_id=rid, mode="cc", duration_s=60.0, tensors={
            k: rng.random((12, n)) for k, n in (("EEG", 201), ("EOG_L", 401),
                                                ("EOG_R", 401), ("EOG_X", 401),
                                                ("EMG", 41))}).save(str(data))
        signal_io.save_hypnogram(HypnogramLabels(["N2", "UNSCORED"], epoch_s=30),
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


@pytest.mark.parametrize("epoch_s,segment_s", [(5, 15), (15, 10)])
def test_train_rejects_epoch_not_a_multiple_of_segment(tmp_path, capsys,
                                                       epoch_s, segment_s):
    """Repeating each label epoch_s // segment_s times only aligns labels
    with windows when segment_s divides epoch_s."""
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    EncodedRecording(recording_id="a", mode="cc", duration_s=60.0, tensors={
        k: rng.random((12, n)) for k, n in (("EEG", 201), ("EOG_L", 401),
                                            ("EOG_R", 401), ("EOG_X", 401),
                                            ("EMG", 41))}).save(str(data))
    signal_io.save_hypnogram(HypnogramLabels(["N2"] * (60 // epoch_s), epoch_s=epoch_s),
                             str(data / "a.hyp.txt"))
    config = tmp_path / "net.json"
    config.write_text(neuralnet.NetworkConfig(mode="FF", segment_s=segment_s).to_json())
    out = tmp_path / "m"
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out), "--n-models", "1"]) == 3
    err = capsys.readouterr().err
    assert f"epoch_s {epoch_s} " in err and f"segment_s {segment_s}" in err
    assert not out.exists() or not os.listdir(out)


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


def test_diagnose_fit_then_predict(tmp_path, rng, capsys):
    n = 60
    y = np.where(rng.random(n) > 0.5, 1.0, 0.0)
    X = rng.standard_normal((n, 8))
    X[:, 2] += 3.0 * (2 * y - 1)
    mat = tmp_path / "matrix.csv"
    with open(mat, "w") as f:
        for row, label in zip(X, y):
            f.write(",".join(f"{v:.8g}" for v in row) + f",{label:g}\n")
    gp_dir = tmp_path / "gp"
    assert cli.main(["diagnose", "--fit", "--matrix", str(mat),
                     "--out", str(gp_dir)]) == 0
    assert (gp_dir / "gp.gp.json").exists()
    assert (gp_dir / "selection.json").exists()

    vec = features.FeatureVector(names=[f"f{i}" for i in range(8)],
                                 values=X[0], recording_id="r0")
    vec_path = tmp_path / "vec.json"
    vec_path.write_text(vec.to_json())
    capsys.readouterr()
    assert cli.main(["diagnose", "--model", str(gp_dir),
                     "--input", str(vec_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert -1.0 <= report["score"] <= 1.0
    assert isinstance(report["label"], bool)


def test_evaluate_command(tmp_path, capsys):
    src = tmp_path / "scores.csv"
    src.write_text("score,label\n0.9,1\n0.8,1\n-0.7,0\n-0.6,0\n")
    out = tmp_path / "roc.csv"
    assert cli.main(["evaluate", str(src), "--out", str(out),
                     "--threshold", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["auc"] == 1.0
    lines = out.read_text().splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) > 2


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
    hd = Hypnodensity(probs=probs, resolution_s=30, recording_id="w")
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


# --------------------------------------------------------------- exit codes

def test_exit_code_io_error(tmp_path):
    assert cli.main(["features", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "v.csv")]) == 2


def test_exit_code_validation_missing_channels(tmp_path):
    spec = {"EEG_C_LEFT": RAW_SPEC["EEG_C_LEFT"]}
    psg = signal_io.synth_recording(spec, seed=0, duration_s=60.0,
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


# defect -> the config file's text, made from the valid config
CONFIG_DEFECTS = {
    "missing_recording": _without("recording"),
    "missing_models_dir": _without("models_dir"),
    "missing_gp_model": _without("gp_model"),
    "unknown_mode": lambda cfg: json.dumps({**cfg, "mode": "foo"}),
    "not_an_object": lambda cfg: json.dumps(sorted(cfg)),
    "not_json": lambda cfg: json.dumps(cfg)[:-1],
}


@pytest.mark.parametrize("defect", sorted(CONFIG_DEFECTS))
def test_exit_code_validation_bad_config(workspace, tmp_path, monkeypatch,
                                         capsys, defect):
    cfg = json.loads(Path(workspace["config"]).read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(CONFIG_DEFECTS[defect](cfg))

    def never(*a, **k):
        raise AssertionError("preprocessing ran before the config was checked")

    monkeypatch.setattr(cli.preprocess, "preprocess_recording", never)
    assert cli.main(["run-all", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 3
    assert "Traceback" not in capsys.readouterr().err


MODEL_DEFECTS = {
    "segment_s_7": lambda c: c.update(segment_s=7),
    "unknown_key": lambda c: c.update(extra=1),
    "missing_key": lambda c: c.pop("hidden"),
    "unknown_encoding": lambda c: c.update(encoding="wavelet"),
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
}


@pytest.mark.parametrize("command", ["features", "plot"])
@pytest.mark.parametrize("defect", sorted(HD_DEFECTS))
def test_malformed_hypnodensity_csv_is_a_typed_error(tmp_path, capsys, command, defect):
    text, expected = HD_DEFECTS[defect]
    src, out = tmp_path / "hd.csv", tmp_path / "out"
    src.write_text(text)
    with pytest.raises(expected):
        cli._read_hypnodensity_csv(str(src))
    argv = ([command, str(src), "--out", str(out)] if command == "features"
            else [command, str(src), str(out)])
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"level=error stage={command}" in err and "Traceback" not in err
    assert not out.exists()


NUMERIC_DEFECTS = {
    "empty_file": ("", EmptyFile),
    "header_only": ("score,label\n", EmptyFile),
    "non_numeric_cell": ("score,label\n0.9,1\nhigh,0\n", CorruptHeader),
    "non_finite_cell": ("0.9,1\nnan,0\n", InvalidValues),
    "short_row": ("0.9,1\n-0.9\n", ShapeMismatch),
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


def zero_vector_json(**extra):
    vec = features.FeatureVector(names=features.feature_names(), values=np.zeros(481))
    return json.dumps({**json.loads(vec.to_json()), **extra})


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
}
VECTOR_DEFECTS = {
    "not_json": ("features: 1", CorruptHeader),
    "not_an_object": ("[1, 2, 3]", CorruptHeader),
    "no_features_key": ('{"recording_id": "r"}', CorruptHeader),
    "features_not_an_object": ('{"features": [1.0, 2.0]}', CorruptHeader),
    "non_numeric_value": ('{"features": {"a": 1.0, "b": "x"}}', CorruptHeader),
    "hla_not_boolean": (zero_vector_json(hla_positive="no"), CorruptHeader),
    "nan_value": ('{"features": {"a": NaN}}', InvalidValues),
    "too_few_features": ('{"features": {"a": 1.0, "b": 2.0}}', None),
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
    code, out = run_diagnose(workspace, tmp_path, zero_vector_json(),
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


def test_diagnose_closes_its_input(workspace, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(zero_vector_json())
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-m", "hypnopipe.cli",
         "diagnose", "--model", workspace["gp"], "--input", str(vec)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


def test_exit_code_malformed_hypnodensity(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("t_start_s,W,N1\n0,definitely,not\n")
    assert cli.main(["plot", str(src), str(tmp_path / "x.svg")]) == 3


# ----------------------------------------------------- non-finite samples

def nan_recording(tmp_path):
    """The workspace recording with 10 NaN samples in EMG_CHIN from 1234."""
    psg = signal_io.synth_recording(RAW_SPEC, seed=3, duration_s=600.0,
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


def _config_with(ws, tmp_path, **changes):
    cfg = {**json.loads(Path(ws["config"]).read_text()), **changes}
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
