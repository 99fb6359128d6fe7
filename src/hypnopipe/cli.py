"""Command-line surface for the pipeline.

Subcommands: preprocess, encode, train, score, features, diagnose, evaluate,
plot, run-all.  Results go to files or stdout; structured logs go to stderr
as logfmt ``level=.. stage=.. msg=..`` lines.  Exit codes: 0 success, 2 I/O error,
3 validation error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import os
import sys

import numpy as np

from . import diagnosis, features, hypnodensity, neuralnet, preprocess, signal_io
from .encoding import MODES, EncodedRecording, encode_recording
from .errors import (CholeskyFailure, CorruptHeader, EmptyFile, HypnopipeError,
                     InvalidSpec, InvalidValues, NaNGradient, ShapeMismatch)
from .plot import hypnodensity_svg
from .store import read_text

EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

REQUIRED_KEYS = {"recording", "out_dir", "models_dir", "gp_model"}
CONFIG_KEYS = REQUIRED_KEYS | {"mode", "hla", "resolution", "ref"}


def log(stage: str, msg: str, level: str = "info") -> None:
    """One logfmt line on stderr; the message is quoted as a JSON string."""
    print(f"level={level} stage={stage} msg={json.dumps(msg, ensure_ascii=False)}",
          file=sys.stderr)


def load_config(path: str, overrides: dict | None = None) -> dict:
    """The run-all config with ``overrides`` applied; ``InvalidSpec`` for a file
    that is not a JSON object, an unknown or missing key, or an unknown mode."""
    try:
        cfg = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise InvalidSpec(f"{path}: {e}") from e
    if not isinstance(cfg, dict):
        raise InvalidSpec(f"{path}: config must be a JSON object")
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise InvalidSpec(f"unknown config keys: {sorted(unknown)}")
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    missing = REQUIRED_KEYS - set(cfg)
    if missing:
        raise InvalidSpec(f"missing config keys: {sorted(missing)}")
    cfg.setdefault("mode", "cc")
    if cfg["mode"] not in MODES:
        raise InvalidSpec(f"mode must be one of {MODES}, got {cfg['mode']!r}")
    return cfg


def _load_ref(path):
    if path is None:
        return None
    return preprocess.ReferenceDistribution.from_json(read_text(path))


def cmd_preprocess(args) -> int:
    psg = signal_io.load_recording(args.input)
    montage, report = preprocess.preprocess_recording(psg, _load_ref(args.ref))
    signal_io.save_recording(montage, args.out)
    with open(os.path.join(args.out, f"{psg.recording_id}.selection.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    log("preprocess", f"wrote montage for {psg.recording_id}")
    return 0


def cmd_encode(args) -> int:
    montage = signal_io.load_recording(args.input)
    enc = encode_recording(montage, args.mode)
    enc.save(args.out)
    log("encode", f"{montage.recording_id}: {args.mode} encoding written")
    return 0


def cmd_train(args) -> int:
    config = neuralnet.NetworkConfig.from_json(read_text(args.config))
    dataset = []
    for enc_path in sorted(glob.glob(os.path.join(args.data, "*.enc.json"))):
        enc = EncodedRecording.load(enc_path)
        hyp_path = enc_path.replace(f".{enc.mode}.enc.json", ".hyp.txt")
        hyp = signal_io.load_hypnogram(hyp_path)
        if hyp.epoch_s % config.segment_s:
            raise InvalidSpec(f"{hyp_path}: epoch_s {hyp.epoch_s} is not a multiple "
                              f"of the model's segment_s {config.segment_s}")
        batch = neuralnet.windows_from_encoded(enc, config.segment_s)
        labels = np.repeat(hypnodensity.stage_codes(hyp.stages),
                           hyp.epoch_s // config.segment_s)[:len(batch["EEG"])]
        scored = labels >= 0                  # UNSCORED windows are not learned
        dataset.append(({m: x[:len(labels)][scored] for m, x in batch.items()},
                        labels[scored]))
    configs = neuralnet.make_ensemble(config, n=args.n_models, seed=config.seed)
    for i, cfg in enumerate(configs):
        params, history = neuralnet.train(dataset, cfg)
        neuralnet.save_params(params, cfg, args.out, f"model{i:02d}")
        log("train", f"model{i:02d}: {len(history)} validations, "
                     f"best={max(history) if history else float('nan'):.3f}")
    return 0


# ------------------------------------------------------------------ stages
# Each stage is one function that its subcommand and ``run-all`` both call.

def _load_models(models_dir):
    models = [neuralnet.load_params(path) for path in
              sorted(glob.glob(os.path.join(models_dir, "*.model.json")))]
    if not models:
        raise HypnopipeError(f"no models found in {models_dir}")
    return models


def _score_ensemble(models, enc, resolution=None):
    """Member hypnodensities at ``resolution`` (default: the first member's)
    and their ensemble.  The recording is windowed once per segment length."""
    batches = {s: neuralnet.windows_from_encoded(enc, s)
               for s in {cfg.segment_s for _, cfg in models}}
    members = [hypnodensity.Hypnodensity(
        probs=neuralnet.forward(params, batches[cfg.segment_s], cfg)[0],
        resolution_s=cfg.segment_s, recording_id=enc.recording_id)
        for params, cfg in models]
    target = int(members[0].resolution_s if resolution is None else resolution)
    members = [hypnodensity.aggregate_resolution(m, target)
               if target != m.resolution_s else m for m in members]
    return members, hypnodensity.ensemble_hypnodensity(members)


def _feature_vector(hd, hla=None):
    """The 481 features, from the hypnogram at 30 s epochs where the
    resolution divides 30 and at the resolution otherwise."""
    epoch_s = 30 if 30 % hd.resolution_s == 0 else hd.resolution_s
    return features.assemble(hd, hypnodensity.to_hypnogram(hd, epoch_s=epoch_s),
                             hla=hla)


def _load_gp(model_dir):
    """The GP and its feature columns; ``CorruptHeader`` unless ``selection.json``
    is JSON with a list of non-negative integers under ``"selected"``."""
    model = diagnosis.GPModel.load(os.path.join(model_dir, "gp.gp.json"))
    path = os.path.join(model_dir, "selection.json")
    try:
        sel = json.loads(read_text(path))
    except ValueError as e:
        raise CorruptHeader(f"{path}: {e}") from e
    cols = sel.get("selected") if isinstance(sel, dict) else None
    if not isinstance(cols, list) or not all(type(c) is int and c >= 0 for c in cols):
        raise CorruptHeader(f'{path}: "selected" must be a list of non-negative integers')
    return model, np.array(cols, dtype=int)


def _diagnose(model, cols, vectors, hla=None):
    """GP score of each feature vector, combined, then HLA-gated if known."""
    width = min(len(v.values) for v in vectors)
    if cols.size and cols.max() >= width:
        raise CorruptHeader(f"selected column {cols.max()} is out of range "
                            f"for {width} features")
    report = diagnosis.ensemble_diagnose(
        [diagnosis.gp_predict(model, np.asarray(v.values)[cols][None, :])[0]
         for v in vectors])
    if hla is not None:
        report = diagnosis.apply_hla(report, bool(hla))
    return report


def cmd_score(args) -> int:
    enc = EncodedRecording.load(args.input)
    _, ens = _score_ensemble(_load_models(args.models), enc)
    with open(args.out, "w") as f:
        f.write(ens.to_csv())
    log("score", f"{enc.recording_id}: {ens.n_models} models, "
                 f"{len(ens.mean.probs)} segments")
    return 0


def _read_hypnodensity_csv(path):
    """A parsed and validated hypnodensity CSV; every defect is a typed error."""
    hd = hypnodensity.Hypnodensity.from_csv(read_text(path))
    hd.validate()
    return hd


def cmd_features(args) -> int:
    vec = _feature_vector(_read_hypnodensity_csv(args.input), args.hla)
    with open(args.out, "w") as f:
        if args.out.endswith(".json"):
            f.write(vec.to_json())
        else:
            f.write(vec.to_csv())
    log("features", f"481 features written to {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    if args.fit:
        data = _read_numeric_csv(args.matrix)
        X, y = data[:, :-1], data[:, -1]
        sel = diagnosis.rfe(X, y, seed=args.seed)
        cols = sel.selected if len(sel.selected) else np.arange(X.shape[1])
        model = diagnosis.gp_fit(X[:, cols], np.where(y > 0, 1.0, -1.0))
        model.save(args.out)
        with open(os.path.join(args.out, "selection.json"), "w") as f:
            json.dump({"selected": cols.tolist(),
                       "frequency": sel.frequency.tolist()}, f)
        log("diagnose", f"GP fit on {len(cols)} selected features")
        return 0
    model, cols = _load_gp(args.model)
    vec = features.FeatureVector.from_json(read_text(args.input))
    report = _diagnose(model, cols, [vec],
                       vec.hla_positive if args.hla is None else args.hla)
    out = report.to_json()
    if args.out:
        with open(args.out, "w") as f:
            f.write(out)
    else:
        print(out)
    log("diagnose", f"score={report.score:.4f} label={report.label}")
    return 0


def _read_numeric_csv(path):
    """A CSV of finite numbers, after an optional header row, as a
    (rows, columns >= 2) array; every defect is a typed error."""
    rows = list(csv.reader(io.StringIO(read_text(path))))
    try:
        float(rows[0][0])
    except (IndexError, ValueError):      # not a number: a header row
        rows = rows[1:]
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    if len(rows[0]) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatch(f"{path}: rows need the same number (>= 2) of columns")
    try:
        data = np.array([[float(v) for v in r] for r in rows])
    except ValueError as e:
        raise CorruptHeader(f"{path}: {e}") from e
    if not np.all(np.isfinite(data)):
        raise InvalidValues(f"{path}: non-finite value")
    return data


def cmd_evaluate(args) -> int:
    data = _read_numeric_csv(args.scores)
    res = diagnosis.evaluate(data[:, 0], data[:, 1].astype(int) != 0,
                             threshold=args.threshold)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["fpr", "tpr"])
        for fpr, tpr in res["roc"]:
            w.writerow([f"{fpr:.6g}", f"{tpr:.6g}"])
    log("evaluate", f"auc={res['auc']:.4f} sens={res['sensitivity']:.4f} "
                    f"spec={res['specificity']:.4f}")
    print(json.dumps({k: res[k] for k in
                      ("sensitivity", "specificity", "auc", "threshold")}))
    return 0


def cmd_plot(args) -> int:
    hd = _read_hypnodensity_csv(args.input)
    with open(args.out, "w") as f:
        f.write(hypnodensity_svg(hd))
    log("plot", f"wrote {args.out}")
    return 0


def cmd_run_all(args) -> int:
    """Every stage in memory; the four output files are written only once
    all stages have succeeded, and the models and GP are read first."""
    cfg = load_config(args.config, {
        "recording": args.recording, "out_dir": args.out_dir,
    })
    out_dir = cfg["out_dir"]
    models = _load_models(cfg["models_dir"])
    gp, cols = _load_gp(cfg["gp_model"])
    ref = _load_ref(cfg.get("ref"))
    psg = signal_io.load_recording(cfg["recording"])
    rid = psg.recording_id

    montage, report = preprocess.preprocess_recording(psg, ref)
    log("preprocess", f"{rid}: channel selection {report}")
    enc = encode_recording(montage, cfg["mode"])
    log("encode", f"{rid}: {enc.mode} encoding done")

    members, ens = _score_ensemble(models, enc, cfg.get("resolution"))
    log("score", f"{rid}: hypnodensity over {len(ens.mean.probs)} segments")
    hla = cfg.get("hla")
    vec = _feature_vector(ens.mean, hla)
    log("features", f"{rid}: feature vector done")
    rep = _diagnose(gp, cols, [_feature_vector(m) for m in members], hla)
    log("diagnose", f"{rid}: score={rep.score:.4f} label={rep.label}")

    outputs = {"hypnodensity.csv": ens.to_csv(),
               "hypnodensity.svg": hypnodensity_svg(ens.mean),
               "features.csv": vec.to_csv(),
               "diagnosis.json": rep.to_json()}
    os.makedirs(out_dir, exist_ok=True)
    for suffix, text in outputs.items():
        with open(os.path.join(out_dir, f"{rid}.{suffix}"), "w") as f:
            f.write(text)
    log("run-all", f"{rid}: wrote {len(outputs)} files to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hypnopipe",
                                description="PSG to hypnodensity and "
                                            "narcolepsy score pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("preprocess", help="band-limit, resample, select channels")
    sp.add_argument("input", help="path to .psgmeta.json")
    sp.add_argument("out", help="output directory")
    sp.add_argument("--ref", help="reference distribution JSON")
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("encode", help="octave or CC encoding")
    sp.add_argument("input")
    sp.add_argument("out")
    sp.add_argument("--mode", choices=("octave", "cc"), default="cc")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("train", help="train a sleep-stage model ensemble")
    sp.add_argument("--config", required=True, help="NetworkConfig JSON")
    sp.add_argument("--data", required=True, help="dir of *.enc.json + *.hyp.txt")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-models", type=int, default=neuralnet.ENSEMBLE_SIZE)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("score", help="ensemble hypnodensity for a recording")
    sp.add_argument("input", help="path to .enc.json")
    sp.add_argument("--models", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("features", help="481-dim feature vector from hypnodensity")
    sp.add_argument("input", help="hypnodensity CSV")
    sp.add_argument("--out", required=True)
    sp.add_argument("--hla", type=int, choices=(0, 1), default=None)
    sp.set_defaults(func=cmd_features)

    sp = sub.add_parser("diagnose", help="fit or apply the GP classifier")
    sp.add_argument("--fit", action="store_true")
    sp.add_argument("--matrix", help="CSV of features + last column label (fit)")
    sp.add_argument("--model", help="GP model directory (predict)")
    sp.add_argument("--input", help="feature vector JSON (predict)")
    sp.add_argument("--out")
    sp.add_argument("--hla", type=int, choices=(0, 1), default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("evaluate", help="ROC statistics for scores vs truth")
    sp.add_argument("scores", help="CSV: score,label")
    sp.add_argument("--out", required=True, help="ROC CSV output")
    sp.add_argument("--threshold", type=float, default=diagnosis.THRESHOLD_NO_HLA)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("plot", help="stacked-area SVG of a hypnodensity")
    sp.add_argument("input", help="hypnodensity CSV")
    sp.add_argument("out", help="SVG output path")
    sp.set_defaults(func=cmd_plot)

    sp = sub.add_parser("run-all", help="full pipeline on one recording")
    sp.add_argument("--config", required=True, help="pipeline config JSON")
    sp.add_argument("--recording")
    sp.add_argument("--out-dir")
    sp.set_defaults(func=cmd_run_all)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CholeskyFailure, NaNGradient, np.linalg.LinAlgError,
            FloatingPointError) as e:
        log(args.command, str(e), level="error")
        return EXIT_NUMERIC
    except HypnopipeError as e:
        log(args.command, str(e), level="error")
        return EXIT_VALIDATION
    except OSError as e:
        log(args.command, str(e), level="error")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
