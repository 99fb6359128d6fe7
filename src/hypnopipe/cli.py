"""Command-line surface for the pipeline.

Subcommands: preprocess, encode, train, score, features, diagnose, evaluate,
plot, run-all.  Each returns its files, ``{path: text or array}``, and any
stdout text; ``main`` writes the files in one call, then prints the text, so
a command that fails writes and prints nothing.  Logs go to stderr as logfmt
``level=.. stage=.. msg=..`` lines.  Exit codes: 0 success, 2 I/O error,
3 validation error (a bad command line among them), 4 numeric failure.

``run`` is the entry of a process of its own (``python -m hypnopipe.cli`` and
the ``hypnopipe`` command): it turns the cyclic garbage collector off, calls
``main`` and freezes the heap, so neither the command nor the interpreter's
exit walks the ~75k objects numpy and scipy made.  A command leaves a few
hundred objects in cycles (837 after a 1 h ``run-all``), and its process ends
when it returns.  ``main`` leaves the collector as it found it, for callers
that go on after it returns, such as the tests.
"""

from __future__ import annotations

import argparse
import csv
import gc
import glob
import io
import json
import os
import sys

import numpy as np

from . import diagnosis, features, hypnodensity, neuralnet, preprocess, signal_io
from .encoding import MODES, MONTAGE, EncodedRecording, encode_recording
from .errors import (AllDegenerate, CholeskyFailure, CorruptHeader, EmptyFile,
                     HypnopipeError, InvalidSpec, InvalidValues, MissingChannel,
                     NaNGradient, ShapeMismatch)
from .plot import hypnodensity_svg
from .pool import thread_map
from .store import as_stored, bundle_files, check_finite, read_text, write_files

EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

REQUIRED_KEYS = {"recording", "out_dir", "models_dir", "gp_model"}
PATH_KEYS = REQUIRED_KEYS | {"ref"}
CONFIG_KEYS = PATH_KEYS | {"mode", "hla", "resolution"}


def log(stage: str, msg: str, level: str = "info") -> None:
    """One logfmt line on stderr; the message is quoted as a JSON string."""
    print(f"level={level} stage={stage} msg={json.dumps(msg, ensure_ascii=False)}",
          file=sys.stderr)


def load_config(path: str, overrides: dict | None = None) -> dict:
    """The run-all config with ``overrides`` applied; ``InvalidSpec`` for a file
    that is not a JSON object, an unknown or missing key, or a bad value (a
    path that is not a non-empty string among them)."""
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
    for key in sorted(PATH_KEYS & set(cfg)):
        if not isinstance(cfg[key], str) or not cfg[key]:
            raise InvalidSpec(f"{key} must be a non-empty path string, got {cfg[key]!r}")
    for key, allowed in (("mode", MODES), ("hla", (0, 1)),
                         ("resolution", signal_io.VALID_EPOCH_S)):
        # the type test refuses true for 1 and 30.0 for 30
        if key in cfg and (cfg[key] not in allowed or type(cfg[key]) is not type(allowed[0])):
            raise InvalidSpec(f"{key} must be one of {allowed}, got {cfg[key]!r}")
    return cfg


def _load_ref(path):
    if path is None:
        return None
    return preprocess.ReferenceDistribution.from_json(read_text(path))


def cmd_preprocess(args):
    psg = signal_io.load_recording(args.input)
    # the mode is not known here: the octave roles if EEG_O can be made
    roles = MONTAGE["cc"]
    try:
        preprocess.usable_candidates(psg, ("EEG_O",))
        roles = MONTAGE["octave"]
    except MissingChannel:
        pass
    except AllDegenerate as e:
        log("preprocess", f"{psg.recording_id}: left out {e}", level="warning")
    montage, report = preprocess.preprocess_recording(psg, _load_ref(args.ref), roles)
    files = {**signal_io.recording_files(montage, args.out),
             os.path.join(args.out, f"{psg.recording_id}.selection.json"):
                 json.dumps(report, indent=1, sort_keys=True)}
    if any(os.path.exists(o) and os.path.samefile(o, i)
           for o in files for i in bundle_files(args.input)):
        raise InvalidSpec(f"{args.input}: the montage would replace its own input; "
                          f"give another output directory")
    return files, None


def cmd_encode(args):
    enc = encode_recording(signal_io.load_recording(args.input), args.mode)
    return enc.files(args.out), None


def cmd_train(args):
    """Every member's files, the members trained on the pool; ``InvalidSpec``
    before any encoding is read if ``--out`` holds a member they would not
    replace (``_load_models`` reads all), and before any trains if an
    encoding is not ``<id>.<mode>.enc.json``."""
    config = neuralnet.NetworkConfig.from_json(read_text(args.config))
    configs = neuralnet.make_ensemble(config, n=args.n_models, seed=config.seed)
    names = [f"model{i:02d}" for i in range(len(configs))]
    stale = sorted({os.path.basename(p) for p in _member_paths(args.out)}
                   - {f"{name}.model.json" for name in names})
    if stale:
        raise InvalidSpec(f"{args.out} holds {stale}, which {len(names)} members would "
                          f"not replace; remove them or give another --out")
    dataset = []
    for enc_path in sorted(glob.glob(os.path.join(glob.escape(args.data), "*.enc.json"))):
        enc = EncodedRecording.load(enc_path)
        suffix = f".{enc.mode}.enc.json"
        if not enc_path.endswith(suffix):
            raise InvalidSpec(f"{enc_path} is not <id>{suffix}, so it has no <id>.hyp.txt")
        hyp_path = enc_path[:-len(suffix)] + ".hyp.txt"
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
    # the dataset is shared read-only; files and logs follow member order
    files = {}
    trained = thread_map(lambda cfg: neuralnet.train(dataset, cfg), configs)
    for name, cfg, (params, history) in zip(names, configs, trained):
        files.update(neuralnet.param_files(params, cfg, args.out, name))
        log("train", f"{name}: {len(history)} validations, "
                     f"best={max(history) if history else float('nan'):.3f}")
        if not history or max(history) <= history[0] < 1:
            log("train", f"{name}: validation accuracy never rose above its "
                         "first check; the model may be untrained", level="warning")
    return files, None


# ------------------------------------------------------------------ stages
# Each stage is one function that its subcommand and ``run-all`` both call.

def _member_paths(models_dir):
    """The manifest of each member of the ensemble in ``models_dir``."""
    return sorted(glob.glob(os.path.join(glob.escape(models_dir), "*.model.json")))


def _load_models(models_dir, mode=None, resolution=None):
    """The ensemble's (params, config) pairs.  ``InvalidSpec`` unless there is
    a member, every member has one ``encoding`` and one ``segment_s``, the
    encoding is ``mode`` and ``resolution`` is a multiple of the ``segment_s``
    (each when given)."""
    models = [neuralnet.load_params(path) for path in _member_paths(models_dir)]
    if not models:
        raise InvalidSpec(f"{models_dir}: no *.model.json, so no ensemble to score")
    kinds = sorted({(cfg.encoding, cfg.segment_s) for _, cfg in models})
    if len(kinds) > 1:
        raise InvalidSpec(f"{models_dir}: the members mix (encoding, segment_s) "
                          f"{kinds}; an ensemble has one of each")
    (encoding, segment_s), = kinds
    if mode not in (None, encoding):
        raise InvalidSpec(f"mode {mode!r} is not the models' encoding {encoding!r}")
    if resolution is not None and resolution % segment_s:
        raise InvalidSpec(f"resolution {resolution} is not a multiple of the "
                          f"models' segment_s {segment_s}")
    return models


def _score_ensemble(models, enc, resolution=None):
    """Member hypnodensities at ``resolution`` (default: the members'
    ``segment_s``) and their ensemble.  The recording is windowed once and
    scored by ``neuralnet.score_ensemble``; ``InvalidSpec`` before that
    unless it is in the members' encoding.  The windows copy the encoding's
    values, so it is let go before scoring: a caller that hands over its
    only reference holds the night once."""
    encoding, segment_s = models[0][1].encoding, models[0][1].segment_s
    rid = enc.recording_id
    if enc.mode != encoding:
        raise InvalidSpec(f"{rid}: the encoding is {enc.mode!r}, "
                          f"the models' encoding is {encoding!r}")
    batch = neuralnet.windows_from_encoded(enc, segment_s)
    del enc
    members = [hypnodensity.Hypnodensity(probs=probs, resolution_s=segment_s)
               for probs in neuralnet.score_ensemble(models, batch)]
    if resolution not in (None, segment_s):
        members = [hypnodensity.aggregate_resolution(m, resolution) for m in members]
    ens = hypnodensity.ensemble_hypnodensity(members)
    log("score", f"{rid}: {len(models)} models, {len(ens.probs)} segments")
    return members, ens


def _feature_vector(hd):
    """The 481 features, from the hypnogram at 30 s epochs."""
    return features.assemble(hd, hypnodensity.to_hypnogram(hd))


def _load_gp(model_dir):
    """The GP and its feature columns; ``CorruptHeader`` unless ``selection.json``
    is JSON with a list of feature columns under ``"selected"``, one for each
    feature of the GP."""
    model = diagnosis.GPModel.load(os.path.join(model_dir, diagnosis.GP_FILE))
    path = os.path.join(model_dir, diagnosis.SELECTION_FILE)
    try:
        sel = json.loads(read_text(path))
    except ValueError as e:
        raise CorruptHeader(f"{path}: {e}") from e
    cols = sel.get("selected") if isinstance(sel, dict) else None
    n = len(features.feature_names())
    if not isinstance(cols, list) or not all(type(c) is int and 0 <= c < n for c in cols):
        raise CorruptHeader(f'{path}: "selected" must be a list of integers in [0, {n})')
    if len(cols) != len(model.standardizer.mean):
        raise CorruptHeader(f"{path}: {len(cols)} selected columns for a GP of "
                            f"{len(model.standardizer.mean)} features")
    return model, np.array(cols, dtype=int)


def _diagnose(model, cols, vectors, hla=None):
    """GP score of each feature vector, combined and HLA-gated if known; one
    warning if any vector is far from every night the GP was fitted on."""
    # one call per vector: a batched call moves the scores in the last bits
    scores, variances = zip(*(diagnosis.gp_predict(model, v.values[cols][None, :])
                              for v in vectors))
    far = sum(diagnosis.far_from_data(model, var[0]) for var in variances)
    if far:
        log("diagnose", f"{far} of {len(vectors)} feature vectors are far from every "
                        f"night the GP was fitted on (latent variance >= "
                        f"{diagnosis.FAR_VARIANCE:.0%} of the prior's), so their scores "
                        f"are about the prior mean's", level="warning")
    return diagnosis.ensemble_diagnose([score[0] for score in scores], hla)


def cmd_score(args):
    # the encoding is handed over, not held here (``_score_ensemble``)
    _, ens = _score_ensemble(_load_models(args.models), EncodedRecording.load(args.input))
    return {args.out: ens.to_csv()}, None


def cmd_features(args):
    vec = _feature_vector(hypnodensity.Hypnodensity.from_csv(read_text(args.input)))
    return {args.out: vec.to_json() if args.out.endswith(".json") else vec.to_csv()}, None


def cmd_diagnose(args):
    needed, ignored = ((("matrix", "out"), ("model", "input", "hla")) if args.fit
                       else (("model", "input"), ("matrix", "seed")))
    wrong = ([f"needs --{name}" for name in needed if getattr(args, name) is None]
             + [f"takes no --{name}" for name in ignored if getattr(args, name) is not None])
    if args.fit and args.seed is not None and args.seed < 0:
        wrong.append(f"needs a --seed >= 0, got {args.seed}")
    if wrong:
        raise InvalidSpec(f"diagnose {'--fit' if args.fit else 'without --fit'} "
                          f"{' and '.join(wrong)}")
    if args.fit:
        data = _read_numeric_csv(args.matrix)
        n = len(features.feature_names())
        if data.shape[1] != n + 1:
            raise ShapeMismatch(f"{args.matrix}: diagnose --fit reads {n} feature columns "
                                f"and a label, got {data.shape[1]} columns")
        X, y = data[:, :-1], data[:, -1]
        sel = diagnosis.rfe(X, y, seed=args.seed or 0)
        cols = sel.selected if len(sel.selected) else np.arange(X.shape[1])
        model = diagnosis.gp_fit(X[:, cols], np.where(y > 0, 1.0, -1.0))
        log("diagnose", f"GP fit on {len(cols)} selected features")
        return {**model.files(args.out),
                os.path.join(args.out, diagnosis.SELECTION_FILE):
                    json.dumps({"selected": cols.tolist(),
                                "frequency": sel.frequency.tolist()})}, None
    model, cols = _load_gp(args.model)
    vec = features.FeatureVector.from_json(read_text(args.input))
    report = _diagnose(model, cols, [vec], args.hla)
    log("diagnose", f"score={report.score:.4f} label={report.label}")
    return ({args.out: report.to_json()}, None) if args.out else ({}, report.to_json())


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_numeric_csv(path):
    """A CSV of finite numbers, after an optional header row, as a
    (rows, columns >= 2) array whose last column, the label, is 0 or 1;
    every defect is a typed error.  A first row with no number is the header."""
    rows = list(csv.reader(io.StringIO(read_text(path))))
    header = int(bool(rows) and not any(map(_is_float, rows[0])))
    if header and len(rows) > 1 and len(rows[0]) != len(rows[1]):
        raise CorruptHeader(f"{path}: row 1: a header of another width than row 2")
    rows = rows[header:]
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    if len(rows[0]) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatch(f"{path}: rows need the same number (>= 2) of columns")
    try:
        data = check_finite(np.array([[float(v) for v in r] for r in rows]), path)
    except ValueError:
        row, cell = next((i, v) for i, r in enumerate(rows, header + 1) for v in r
                         if not _is_float(v))
        raise CorruptHeader(f"{path}: row {row}: {cell!r} is not a number") from None
    bad = np.flatnonzero((data[:, -1] != 0) & (data[:, -1] != 1))
    if bad.size:
        raise InvalidValues(f"{path}: row {header + bad[0] + 1}: the label must be "
                            f"0 or 1, got {rows[bad[0]][-1]!r}")
    return data


def cmd_evaluate(args):
    if not np.isfinite(args.threshold):
        raise InvalidSpec(f"evaluate --threshold must be finite, got {args.threshold}")
    data = _read_numeric_csv(args.scores)
    if data.shape[1] != 2:
        raise ShapeMismatch(f"{args.scores}: evaluate reads two columns, score and label")
    res = diagnosis.evaluate(data[:, 0], data[:, 1] == 1, threshold=args.threshold)
    log("evaluate", f"auc={res['auc']:.4f} sens={res['sensitivity']:.4f} "
                    f"spec={res['specificity']:.4f}")
    roc = "fpr,tpr\n" + "".join(f"{fpr:.6g},{tpr:.6g}\n" for fpr, tpr in res["roc"])
    return {args.out: roc}, json.dumps({k: res[k] for k in (
        "sensitivity", "sensitivity_ci", "specificity", "specificity_ci", "auc", "threshold")})


def cmd_plot(args):
    hd = hypnodensity.Hypnodensity.from_csv(read_text(args.input))
    return {args.out: hypnodensity_svg(hd)}, None


def cmd_run_all(args):
    """The four output files, from every stage run in memory; the models and
    GP are read first."""
    cfg = load_config(args.config, {"recording": args.recording, "out_dir": args.out_dir})
    models = _load_models(cfg["models_dir"], cfg.get("mode"), cfg.get("resolution"))
    mode = models[0][1].encoding
    gp, cols = _load_gp(cfg["gp_model"])
    ref = _load_ref(cfg.get("ref"))
    psg = signal_io.load_recording(cfg["recording"])
    rid = psg.recording_id

    # each stage is handed what the subcommands' files would hold, and its
    # input goes once its output exists, so one stage's data is held at a time
    montage, report = preprocess.preprocess_recording(psg, ref, MONTAGE[mode])
    del psg
    for role, ch in montage.channels.items():
        ch.samples = as_stored(ch.samples, role)
    log("preprocess", f"{rid}: channel selection {report}")
    enc = encode_recording(montage, mode)
    del montage, ch         # the loop's last channel holds its samples too
    enc.tensors = {name: as_stored(x, name) for name, x in enc.tensors.items()}
    log("encode", f"{rid}: {enc.mode} encoding done")
    handed = [enc]          # so that ``_score_ensemble`` holds the only reference
    del enc

    members, ens = _score_ensemble(models, handed.pop(), cfg.get("resolution"))
    csv_text = ens.to_csv()
    ens = hypnodensity.Hypnodensity.from_csv(csv_text)
    vec = _feature_vector(ens)
    log("features", f"{rid}: feature vector done")
    rep = _diagnose(gp, cols, [_feature_vector(m) for m in members], cfg.get("hla"))
    log("diagnose", f"{rid}: score={rep.score:.4f} label={rep.label}")

    outputs = {"hypnodensity.csv": csv_text,
               "hypnodensity.svg": hypnodensity_svg(ens),
               "features.csv": vec.to_csv(),
               "diagnosis.json": rep.to_json()}
    return {os.path.join(cfg["out_dir"], f"{rid}.{suffix}"): text
            for suffix, text in outputs.items()}, None


class _Parser(argparse.ArgumentParser):
    """A usage error is an ``InvalidSpec``, not argparse's exit 2 with usage
    text; its subcommands' parsers are of this class too."""

    def error(self, message):
        raise InvalidSpec(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hypnopipe",
                description="PSG to hypnodensity and narcolepsy score pipeline")
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
    sp.set_defaults(func=cmd_features)

    sp = sub.add_parser("diagnose", help="fit or apply the GP classifier")
    sp.add_argument("--fit", action="store_true")
    sp.add_argument("--matrix", help="CSV of features + last column label (fit)")
    sp.add_argument("--model", help="GP model directory (predict)")
    sp.add_argument("--input", help="feature vector JSON (predict)")
    sp.add_argument("--out")
    sp.add_argument("--hla", type=int, choices=(0, 1), default=None)
    sp.add_argument("--seed", type=int, help="RFE fold seed (fit; default 0)")
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
    stage = "hypnopipe"
    try:
        args = build_parser().parse_args(argv)
        stage = args.command
        files, stdout = args.func(args)
        write_files(files)
        if stdout is not None:
            print(stdout)
        if files:
            log(args.command, f"wrote {len(files)} file{'s' * (len(files) > 1)} to "
                              f"{os.path.commonpath(list(files))}")
        return 0
    except (CholeskyFailure, NaNGradient, np.linalg.LinAlgError,
            FloatingPointError) as e:
        log(stage, str(e), level="error")
        return EXIT_NUMERIC
    except HypnopipeError as e:
        log(stage, str(e), level="error")
        return EXIT_VALIDATION
    except OSError as e:
        log(stage, str(e), level="error")
        return EXIT_IO


def run(argv=None) -> int:
    """``main`` with the cyclic collector off, for a process that ends when
    it returns."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
