import ast
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnopipe import cli, diagnosis, features, neuralnet, signal_io, store
from hypnopipe.encoding import MONTAGE, EncodedRecording
from hypnopipe.errors import (CorruptHeader, HypnopipeError, InvalidValues, LengthMismatch,
                              MissingBlob, MissingChannel)

from conftest import make_montage, synth_recording


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """One valid bundle of each kind, plus what the CLI needs to reach it."""
    root = tmp_path_factory.mktemp("bundles")
    rng = np.random.default_rng(0)
    signal_io.save_recording(make_montage(duration_s=60.0), str(root / "raw"))
    n = 12                                       # 60 s of 5 s CC window rows
    EncodedRecording(
        recording_id="r", mode="cc",
        tensors={"EEG": rng.random((n, 201)), "EOG_L": rng.random((n, 401)),
                 "EOG_R": rng.random((n, 401)), "EOG_X": rng.random((n, 401)),
                 "EMG": rng.random((n, 41))}).save(str(root / "enc"))
    cfg = neuralnet.NetworkConfig(
        mode="FF", complexity="low", segment_s=30, encoding="cc",
        modality_shapes=neuralnet.modality_shapes_for("cc", 30),
        conv_features={m: [3, 4] for m in neuralnet.MODALITIES},
        hidden=6, seed=1)
    neuralnet.save_params(neuralnet.init_params(cfg), cfg, str(root / "models"),
                          "model00")
    y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    diagnosis.gp_fit(rng.standard_normal((40, 3)) + y[:, None], y).save(str(root / "gp"))
    (root / "gp" / "selection.json").write_text(json.dumps({"selected": [0, 1, 2]}))
    vec = features.FeatureVector(values=np.zeros(481))
    (root / "vec.json").write_text(vec.to_json())
    spec = {role: {"fs": 128.0, "sinusoids": [(10.0, 30.0)], "noise_sigma": 5.0}
            for role in ("EEG_C_LEFT", "EOG_L", "EOG_R", "EMG_CHIN")}
    signal_io.save_recording(synth_recording(spec, seed=0, duration_s=60.0,
                                             recording_id="p"), str(root / "psg"))
    (root / "config.json").write_text(json.dumps({
        "recording": "psg/p.psgmeta.json", "out_dir": "o", "models_dir": "models",
        "gp_model": "gp"}))
    return root


# kind -> (manifest, loader, CLI command that reads it first); paths relative
# to a copy of the bundles directory
KINDS = {
    "recording": ("raw/m0.psgmeta.json", signal_io.load_recording,
                  ["preprocess", "raw/m0.psgmeta.json", "out"]),
    "encoding": ("enc/r.cc.enc.json", EncodedRecording.load,
                 ["score", "enc/r.cc.enc.json", "--models", "models", "--out", "hd.csv"]),
    "model": ("models/model00.model.json", neuralnet.load_params,
              ["score", "enc/r.cc.enc.json", "--models", "models", "--out", "hd.csv"]),
    "gp": ("gp/gp.gp.json", diagnosis.GPModel.load,
           ["diagnose", "--model", "gp", "--input", "vec.json"]),
}


def _first_blob(manifest: Path) -> tuple[str, Path]:
    key, info = sorted(json.loads(manifest.read_text())["arrays"].items())[0]
    return key, manifest.parent / info["blob"]


def _edit_blob(manifest: Path, edit) -> None:
    blob = _first_blob(manifest)[1]
    blob.write_bytes(edit(blob.read_bytes()))


def _edit_manifest(manifest: Path, edit) -> None:
    meta = json.loads(manifest.read_text())
    edit(meta)
    manifest.write_text(json.dumps(meta))


DEFECTS = {
    "truncated": lambda m: _edit_blob(m, lambda data: data[:-1]),
    "oversized": lambda m: _edit_blob(m, lambda data: data + b"\0" * 4),
    "missing": lambda m: os.remove(_first_blob(m)[1]),
    # a directory next to the manifest where the blob should be
    "directory": lambda m: (os.remove(_first_blob(m)[1]), os.mkdir(_first_blob(m)[1])),
    "no_format": lambda m: _edit_manifest(m, lambda meta: meta.pop("format")),
    "unknown_format": lambda m: _edit_manifest(m, lambda meta: meta.update(format=2)),
    "not_json": lambda m: m.write_text('{"format": 1, "arrays": '),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_malformed_bundle_raises_typed_error_and_exits_3(
        bundles, tmp_path, kind, defect, monkeypatch, capsys):
    work = tmp_path / "b"
    shutil.copytree(bundles, work)
    rel, load, argv = KINDS[kind]
    manifest = work / rel
    key = _first_blob(manifest)[0]
    DEFECTS[defect](manifest)
    if defect == "missing":
        expected = MissingChannel if kind == "recording" else MissingBlob
        match = re.escape(key)
    else:
        expected = LengthMismatch if defect in ("truncated", "oversized") else CorruptHeader
        match = re.escape(key) if defect == "directory" else None
    with pytest.raises(expected, match=match):
        load(str(manifest))
    monkeypatch.chdir(work)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "level=error" in err and "Traceback" not in err


ENCODING_DEFECTS = {
    # a CC encoding written before rows became 5 s window means
    "cc_grid_rows": lambda meta: (meta.pop("row_s"), meta.update(grid_hop_s=0.25)),
    "cc_other_row_s": lambda meta: meta.update(row_s=15),
    "unknown_mode": lambda meta: meta.update(mode="wavelet"),
    "no_recording_id": lambda meta: meta.pop("recording_id"),
    # every encoding is at preprocess.TARGET_FS; another rate is not read as it
    "fs_128": lambda meta: meta.update(fs=128.0),
    "fs_text": lambda meta: meta.update(fs="100"),
    "no_fs": lambda meta: meta.pop("fs"),
}


@pytest.mark.parametrize("defect", sorted(ENCODING_DEFECTS))
def test_encoding_manifest_defect_raises_corrupt_header_and_exits_3(
        bundles, tmp_path, defect, monkeypatch, capsys):
    work = tmp_path / "b"
    shutil.copytree(bundles, work)
    rel, load, argv = KINDS["encoding"]
    _edit_manifest(work / rel, ENCODING_DEFECTS[defect])
    with pytest.raises(CorruptHeader):
        load(str(work / rel))
    monkeypatch.chdir(work)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "level=error" in err and "Traceback" not in err
    assert not (work / "hd.csv").exists()


def test_bundle_round_trip_leaves_only_manifest_and_blobs(tmp_path):
    arrays = {"a/b": np.arange(6.0).reshape(2, 3), "s": np.float64(2.5)}
    path = store.write_files(store.bundle(str(tmp_path / "x.kind.json"), arrays,
                                          {"note": "n"}))
    back, meta = store.read_bundle(path)
    assert meta == {"note": "n"}
    assert {k: v.tolist() for k, v in back.items()} == {k: np.asarray(v).tolist()
                                                        for k, v in arrays.items()}
    assert sorted(os.listdir(tmp_path)) == ["x.a_b.f32le", "x.kind.json", "x.s.f32le"]


def test_every_bundle_kind_reads_back_what_its_blobs_hold(tmp_path, rng):
    """Arrays are float32 at rest and as read: each array a recording,
    encoding, model or GP loads is bitwise ``as_stored`` of what was written."""
    psg = make_montage(duration_s=60.0)
    rec = signal_io.load_recording(signal_io.save_recording(psg, str(tmp_path)))
    enc = EncodedRecording(recording_id="r", mode="cc", tensors={
        k: rng.standard_normal((12, n)) for k, n in (
            ("EEG", 201), ("EOG_L", 401), ("EOG_R", 401), ("EOG_X", 401), ("EMG", 41))})
    enc_back = EncodedRecording.load(enc.save(str(tmp_path)))
    cfg = neuralnet.NetworkConfig(mode="FF", segment_s=5)
    params = {k: v + rng.standard_normal(v.shape)
              for k, v in neuralnet.init_params(cfg).items()}
    params_back, _ = neuralnet.load_params(
        neuralnet.save_params(params, cfg, str(tmp_path), "m"))
    y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    gp = diagnosis.gp_fit(rng.standard_normal((40, 3)) + y[:, None], y)
    gp_back = diagnosis.GPModel.load(gp.save(str(tmp_path)))
    pairs = [*((rec.channels[r].samples, ch.samples) for r, ch in psg.channels.items()),
             *((enc_back.tensors[k], x) for k, x in enc.tensors.items()),
             *((params_back[k], x) for k, x in params.items()),
             *((getattr(gp_back, k), getattr(gp, k)) for k in ("X", "grad_ll", "W_sqrt", "L")),
             *((getattr(gp_back.standardizer, k), getattr(gp.standardizer, k))
               for k in ("mean", "std"))]
    assert len(pairs) == len(psg.channels) + 5 + len(params) + 6
    for got, wrote in pairs:
        assert got.dtype == np.float32 and got.shape == np.shape(wrote)
        assert got.tobytes() == store.as_stored(wrote).tobytes()


def test_only_store_reads_or_writes_blobs():
    src = Path(store.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "store.py"
                 and any(tok in p.read_text()
                         for tok in ("tofile", "fromfile", '"<f4"', "'<f4'"))]
    assert offenders == []


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` opens a file for writing or writes one: ``open`` or
    ``fdopen`` with a mode that is not read-only, ``tofile``, a path's
    ``write_text``/``write_bytes``, ``json.dump`` or numpy's ``save*``."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
    if name in ("open", "fdopen"):
        mode = next((k.value for k in call.keywords if k.arg in ("mode", "flags")),
                    call.args[1] if len(call.args) > 1 else None)
        return mode is not None and not (isinstance(mode, ast.Constant)
                                          and set(str(mode.value)) <= set("rbt"))
    path_write = isinstance(func, ast.Attribute) and owner != "store"
    return (name == "tofile" or (name in ("write_text", "write_bytes") and path_write)
            or (owner == "json" and name == "dump")
            or (owner in ("np", "numpy") and name.startswith("save")))


def test_only_store_writes_files():
    src = Path(store.__file__).parent
    offenders = [f"{p.name}:{node.lineno}" for p in sorted(src.glob("*.py"))
                 if p.name != "store.py"
                 for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, ast.Call) and _writes_a_file(node)]
    assert offenders == []


def _called(node) -> list:
    """The name of each function called under ``node``: ``f`` of ``f(..)``
    and of ``x.f(..)``."""
    return [c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", "")
            for c in ast.walk(node) if isinstance(c, ast.Call)]


def _commits(name: str) -> bool:
    """Whether a call of ``name`` writes a file or prints: a command's part
    that ``cli.main`` does for it."""
    return name == "print" or name.startswith(("save", "write_"))


def test_cli_main_is_the_one_commit_site():
    """Each command returns its files and stdout text; ``main`` makes the
    one ``write_files`` call, so a command that fails writes and prints
    nothing."""
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = {f.name: _called(f) for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert _called(tree).count("write_files") == calls["main"].count("write_files") == 1
    offenders = [f"{name}: {called}" for name, names in calls.items()
                 if name.startswith("cmd_") for called in names if _commits(called)]
    assert offenders == []
    assert not hasattr(store, "write_text")


def test_the_commit_site_check_sees_each_way_to_write():
    calls = _called(ast.parse("print(x); enc.save(d); neuralnet.save_params(p, c, d, n); "
                              "write_files(f); store.write_text(p, t); len(x)"))
    assert [c for c in calls if _commits(c)] == \
        ["print", "save", "save_params", "write_files", "write_text"]


def _renames(tree):
    """The innermost function (None at module level) around each call of
    ``os.replace`` or ``os.rename`` in ``tree``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("replace", "rename") \
                and getattr(node.func.value, "id", None) == "os":
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(tree, None)
    return found


def test_one_function_renames_files():
    src = Path(store.__file__).parent
    sites = {(p.name, function) for p in sorted(src.glob("*.py"))
             for function in _renames(ast.parse(p.read_text()))}
    assert sites == {("store.py", "write_files")}


def test_the_write_check_sees_each_way_to_write():
    writes = ['open(p, "w")', 'open(p, mode="a")', 'open(p, "r+")', "os.open(p, flags)",
              'os.fdopen(fd, "wb")', "x.tofile(p)", "Path(p).write_text(t)",
              "json.dump(v, f)", "np.save(p, x)"]
    reads = ["open(p)", 'open(p, "rb")', "write_text(p, t)", "store.write_text(p, t)",
             "json.dumps(v)", "enc.save(d)"]
    assert [_writes_a_file(ast.parse(c).body[0].value) for c in writes + reads] == \
        [True] * len(writes) + [False] * len(reads)


def test_rewriting_a_bundle_leaves_open_readers_the_old_blobs(tmp_path):
    manifest = str(tmp_path / "x.kind.json")
    store.write_files(store.bundle(manifest, {"a": np.arange(4.0)}, {}))
    blob = tmp_path / "x.a.f32le"
    old = blob.read_bytes()
    mapped = np.memmap(blob, dtype="<f4", mode="r")
    with open(blob, "rb") as reader:
        store.write_files(store.bundle(manifest, {"a": -np.arange(4.0)}, {}))
        assert reader.read() == old
    assert mapped.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert store.read_bundle(manifest)[0]["a"].tolist() == [-0.0, -1.0, -2.0, -3.0]
    assert sorted(os.listdir(tmp_path)) == ["x.a.f32le", "x.kind.json"]


class _Unconvertible:
    def __array__(self, dtype=None, copy=None):
        raise ValueError("no array here")


def test_a_bundle_whose_array_does_not_convert_leaves_the_old_bundle(tmp_path):
    manifest = str(tmp_path / "x.kind.json")
    store.write_files(store.bundle(manifest, {"a": np.zeros(3), "b": np.zeros(3)}, {"v": 1}))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match="no array here"):
        store.write_files(store.bundle(manifest, {"a": np.ones(3), "b": _Unconvertible()},
                                       {"v": 2}))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    arrays, meta = store.read_bundle(manifest)
    assert arrays["a"].tolist() == arrays["b"].tolist() == [0.0, 0.0, 0.0]
    assert meta == {"v": 1}


def test_a_bundle_whose_meta_does_not_encode_leaves_the_old_bundle(tmp_path):
    manifest = str(tmp_path / "x.kind.json")
    store.write_files(store.bundle(manifest, {"a": np.zeros(3), "b": np.zeros(3)}, {"v": 1}))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(TypeError, match="float32"):
        store.write_files(store.bundle(manifest, {"a": np.ones(3), "b": np.ones(3)},
                                       {"v": np.float32(2)}))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    arrays, meta = store.read_bundle(manifest)
    assert arrays["a"].tolist() == arrays["b"].tolist() == [0.0, 0.0, 0.0]
    assert meta == {"v": 1}


def test_files_that_cannot_all_be_written_leave_every_old_file(tmp_path):
    text, blob, folder = tmp_path / "t.txt", tmp_path / "b.f32le", tmp_path / "d"
    store.write_files({str(text): "old", str(blob): np.zeros(2)})
    folder.mkdir()
    before = {p.name: p.read_bytes() for p in (text, blob)}
    with pytest.raises(IsADirectoryError):
        store.write_files({str(text): "new", str(blob): np.ones(2), str(folder): "x"})
    assert {p.name: p.read_bytes() for p in (text, blob)} == before
    assert sorted(os.listdir(tmp_path)) == ["b.f32le", "d", "t.txt"]
    assert os.listdir(folder) == []


@pytest.mark.parametrize("parent", ["new", "new/deeper"])
def test_a_write_that_fails_while_staging_leaves_no_directory_it_made(tmp_path, parent):
    """Those it made go, deepest first; one that was there stays."""
    (tmp_path / "old").mkdir()
    (tmp_path / "d").mkdir()
    with pytest.raises(IsADirectoryError):
        store.write_files({str(tmp_path / parent / "a.txt"): "x",
                           str(tmp_path / "old" / "sub" / "b.txt"): "y",
                           str(tmp_path / "d"): "z"})
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == ["d", "old"]


@pytest.mark.parametrize("later,text,error", [
    ("d", "x", IsADirectoryError),
    ("t.txt", "x \ud800", UnicodeEncodeError),            # a lone surrogate
])
def test_a_write_that_fails_while_staging_has_not_written_through_a_link(
        tmp_path, later, text, error):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old")
    link.symlink_to(target)
    (tmp_path / "d").mkdir()
    with pytest.raises(error):
        store.write_files({str(link): "new", str(tmp_path / later): text})
    assert link.is_symlink() and target.read_text() == "old"
    assert sorted(os.listdir(tmp_path)) == ["d", "link.txt", "target.txt"]
    store.write_files({str(link): "new"})
    assert link.is_symlink() and target.read_text() == "new"


def test_a_text_that_does_not_encode_leaves_the_old_file(tmp_path):
    path = tmp_path / "t.txt"
    store.write_files({str(path): "old"})
    with pytest.raises(UnicodeEncodeError):
        store.write_files({str(path): "new \ud800"})       # a lone surrogate
    assert path.read_bytes() == b"old" and os.listdir(tmp_path) == ["t.txt"]


def test_a_write_that_fails_part_way_leaves_the_old_file_and_no_temporary(
        tmp_path, monkeypatch):
    path = tmp_path / "t.txt"
    store.write_files({str(path): "old"})

    def no_rename(src, dst):
        assert Path(src).read_bytes() == "néw".encode()    # written whole, as UTF-8
        raise OSError("rename refused")
    monkeypatch.setattr(os, "replace", no_rename)
    with pytest.raises(OSError, match="rename refused"):
        store.write_files({str(path): "néw"})
    assert path.read_bytes() == b"old" and os.listdir(tmp_path) == ["t.txt"]


def _transpose(key):
    def edit(arrays, meta):
        arrays[key] = arrays[key].T
    return edit


def _rewrite_bundle(manifest: Path, edit) -> None:
    """The bundle written again with ``edit(arrays, meta)`` applied."""
    arrays, meta = store.read_bundle(str(manifest))
    edit(arrays, meta)
    store.write_files(store.bundle(str(manifest), arrays, meta))


def _set_scalar(key, value):
    return lambda arrays, meta: meta.update({key: value})


# (kind, defect) -> (edit of the bundle's arrays and meta, what the error names)
CONTENT_DEFECTS = {
    ("model", "missing_array"): (lambda arrays, meta: arrays.pop("out/w"), "'out/w'"),
    ("model", "wrong_shape"): (_transpose("out/w"), "'out/w'"),
    ("gp", "missing_array"): (lambda arrays, meta: arrays.pop("L"), "'L'"),
    ("gp", "wrong_shape"): (_transpose("X"), "'X'"),
    ("gp", "missing_scalar"): (lambda arrays, meta: meta.pop("noise"), "noise"),
    # a kept feature whose standard deviation is 0 would divide by zero
    ("gp", "zero_std_kept"): (lambda arrays, meta: arrays["std_std"].__setitem__(0, 0.0),
                              "'std_std'"),
    # X keeps a column more or fewer than std_keep marks
    ("gp", "keep_count"): (lambda arrays, meta: arrays["std_keep"].__setitem__(
        0, 1.0 - arrays["std_keep"][0]), "'X' has 3 columns, std_keep keeps"),
    # the ranges gp_fit's grids draw from; _kernel squares the first two
    **{("gp", f"{key}_{name}"): (_set_scalar(key, value), key) for key, name, value in (
        ("length_scale", "overflow", 1e308), ("length_scale", "zero", 0),
        ("length_scale", "negative", -1), ("length_scale", "int_overflow", 10 ** 400),
        ("length_scale", "square_underflow", 1e-320),
        ("signal_std", "overflow", 1e308), ("signal_std", "zero", 0),
        ("signal_std", "negative", -2), ("noise", "negative", -10))},
    ("encoding", "missing_array"): (lambda arrays, meta: arrays.pop("EOG_X"), "'EOG_X'"),
    ("encoding", "wrong_shape"): (_transpose("EMG"), "'EMG'"),
}
# command -> (argv, what it would write), run inside a copy of the bundles
CONTENT_COMMANDS = {
    "score": (KINDS["model"][2], "hd.csv"),
    "diagnose": (KINDS["gp"][2] + ["--out", "d.json"], "d.json"),
    "run-all": (["run-all", "--config", "config.json"], "o"),
}
# kind -> the commands that read it
READERS = {"model": ("run-all", "score"), "gp": ("run-all", "diagnose"),
           "encoding": ("score",)}
CONTENT_CASES = [(kind, defect, command) for kind, defect in sorted(CONTENT_DEFECTS)
                 for command in READERS[kind]]


def _fails_with_exit_3(work, monkeypatch, capsys, command):
    """``command`` run in ``work`` exits 3 with a logged error, no traceback,
    and writes nothing."""
    monkeypatch.chdir(work)
    argv, written = CONTENT_COMMANDS[command]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "level=error" in err and "Traceback" not in err
    assert not (work / written).exists()


def test_commands_succeed_on_the_valid_bundles(bundles, tmp_path, monkeypatch):
    work = tmp_path / "b"
    shutil.copytree(bundles, work)
    monkeypatch.chdir(work)
    for argv, written in CONTENT_COMMANDS.values():
        assert cli.main(argv) == 0
        assert (work / written).exists()


@pytest.mark.parametrize("kind,defect,command", CONTENT_CASES)
def test_bundle_contents_are_checked_at_load(bundles, tmp_path, monkeypatch, capsys,
                                             kind, defect, command):
    work = tmp_path / "b"
    shutil.copytree(bundles, work)
    rel, load, _ = KINDS[kind]
    edit, named = CONTENT_DEFECTS[(kind, defect)]
    _rewrite_bundle(work / rel, edit)
    with pytest.raises(CorruptHeader, match=named):
        load(str(work / rel))
    _fails_with_exit_3(work, monkeypatch, capsys, command)


# kind -> the array given a NaN
NAN_ARRAYS = {"model": "out/b", "gp": "grad_ll", "encoding": "EEG"}


@pytest.mark.parametrize("kind,command", [(kind, command) for kind in sorted(NAN_ARRAYS)
                                          for command in READERS[kind]])
def test_a_non_finite_array_is_rejected_at_load(bundles, tmp_path, monkeypatch, capsys,
                                                kind, command):
    work = tmp_path / "b"
    shutil.copytree(bundles, work)
    rel, load, _ = KINDS[kind]
    key, manifest = NAN_ARRAYS[kind], work / rel
    blob = manifest.parent / json.loads(manifest.read_text())["arrays"][key]["blob"]
    data = np.frombuffer(blob.read_bytes(), dtype="<f4").copy()
    data[2] = np.nan
    blob.write_bytes(data.tobytes())
    with pytest.raises(InvalidValues, match=re.escape(f"{manifest}: array {key!r}")
                       + r".*flat index 2\b"):
        load(str(manifest))
    _fails_with_exit_3(work, monkeypatch, capsys, command)


def _valid_tensors(bundles, mode):
    if mode == "cc":
        return store.read_bundle(str(bundles / KINDS["encoding"][0]))[0]
    rng = np.random.default_rng(1)
    return {role: rng.random((5, 300)) for role in MONTAGE["octave"]}


# defect -> (mode, edit of that mode's valid tensors, the array the error names)
ENCODING_CONTENTS = {
    "cc_emg_one_row_short": ("cc", lambda t: t.update(EMG=t["EMG"][:-1]), "'EMG'"),
    "cc_eeg_lags": ("cc", lambda t: t.update(EEG=t["EEG"][:, :-1]), "'EEG'"),
    "cc_extra": ("cc", lambda t: t.update(EOG_Y=t["EOG_X"]), "'EOG_Y'"),
    "octave_missing_role": ("octave", lambda t: t.pop("EMG_CHIN"), "'EMG_CHIN'"),
    "octave_four_bands": ("octave", lambda t: t.update(EEG_O=t["EEG_O"][:4]), "'EEG_O'"),
    "octave_one_sample_short": ("octave", lambda t: t.update(EOG_R=t["EOG_R"][:, :-1]),
                                "'EOG_R'"),
}


def test_the_valid_octave_tensors_load(tmp_path, bundles):
    path = EncodedRecording(recording_id="r", mode="octave",
                            tensors=_valid_tensors(bundles, "octave")).save(str(tmp_path))
    assert set(EncodedRecording.load(path).tensors) == set(MONTAGE["octave"])


@pytest.mark.parametrize("defect", sorted(ENCODING_CONTENTS))
def test_encoding_tensors_are_checked_at_load(bundles, tmp_path, monkeypatch, capsys,
                                              defect):
    work = tmp_path / "b"
    shutil.copytree(bundles, work)
    mode, edit, named = ENCODING_CONTENTS[defect]
    tensors = _valid_tensors(bundles, mode)
    edit(tensors)
    shutil.rmtree(work / "enc")
    path = EncodedRecording(recording_id="r", mode=mode,
                            tensors=tensors).save(str(work / "enc"))
    with pytest.raises(CorruptHeader, match=named):
        EncodedRecording.load(path)
    monkeypatch.chdir(work)
    argv = ["score", os.path.relpath(path, work), "--models", "models", "--out", "hd.csv"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "level=error" in err and "Traceback" not in err
    assert not (work / "hd.csv").exists()


def test_a_gp_bundle_with_the_retired_y_and_f_hat_still_loads(bundles, tmp_path):
    path = str(bundles / "gp" / "gp.gp.json")
    arrays, meta = store.read_bundle(path)
    assert "y" not in arrays and "f_hat" not in arrays
    n = len(arrays["X"])
    old = store.write_files(store.bundle(
        str(tmp_path / "gp.gp.json"), {**arrays, "y": np.ones(n), "f_hat": np.zeros(n)}, meta))
    x = np.arange(3.0)[None, :]
    for a, b in zip(diagnosis.gp_predict(diagnosis.GPModel.load(old), x),
                    diagnosis.gp_predict(diagnosis.GPModel.load(path), x)):
        assert np.array_equal(a, b)


# ------------------------------------------------ read_bundle on any manifest

def _point_blob(key, name):
    return lambda meta: meta["arrays"][key].update(blob=name)


# the two verified defects: a shape whose product fits the blob, and a blob
# read from outside the manifest's directory
@pytest.mark.parametrize("edit", [
    lambda meta: meta["arrays"]["a"].update(shape=[-2, -2]),
    _point_blob("a", "../outside/x.a.f32le"),
], ids=["negative_shape", "blob_outside"])
def test_a_manifest_naming_what_it_may_not_is_corrupt(tmp_path, edit):
    store.write_files(store.bundle(str(tmp_path / "outside" / "x.kind.json"),
                                   {"a": np.ones(4)}, {}))
    path = store.write_files(store.bundle(str(tmp_path / "inside" / "x.kind.json"),
                                          {"a": np.zeros((2, 2))}, {}))
    _edit_manifest(Path(path), edit)
    with pytest.raises(CorruptHeader, match="'a'|shape|blob"):
        store.read_bundle(path)


BUNDLE = {"a": np.arange(4.0).reshape(2, 2), "b/c": np.arange(3.0)}
KEYS = st.sampled_from(sorted(BUNDLE))
NOT_A_SHAPE = st.one_of(
    st.lists(st.integers(-3, 4), min_size=1, max_size=3).filter(lambda s: min(s) < 0),
    st.lists(st.one_of(st.integers(0, 4), st.floats(), st.booleans(), st.none(),
                       st.text(max_size=2), st.lists(st.integers(0, 4), max_size=2)),
             min_size=1, max_size=3).filter(lambda s: any(type(n) is not int for n in s)),
    st.integers(), st.text(max_size=3), st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
NOT_A_FILE_NAME = st.one_of(
    st.sampled_from(["../outside/x.a.f32le", "..", ".", "", "/"]),
    st.tuples(st.text(max_size=4), st.text(max_size=4)).map("/".join),
    st.integers(), st.none(), st.lists(st.text(max_size=2), max_size=2))
NOT_FORMAT_1 = st.one_of(st.integers().filter(lambda n: n != 1),
                         st.sampled_from([True, 1.0, "1", None, [1]]))
DEFECT = st.one_of(
    st.tuples(st.just("resize"), KEYS, st.integers(-12, 12).filter(bool)),
    st.tuples(st.just("shape"), KEYS, NOT_A_SHAPE),
    st.tuples(st.just("blob"), KEYS, NOT_A_FILE_NAME),
    st.tuples(st.just("drop"), KEYS, st.sampled_from(["format", "arrays", "blob", "shape"])),
    st.tuples(st.just("format"), KEYS, NOT_FORMAT_1))


def _apply(defect, manifest: Path):
    what, key, value = defect
    meta = json.loads(manifest.read_text())
    if what == "resize":
        blob = manifest.parent / meta["arrays"][key]["blob"]
        data = blob.read_bytes()
        blob.write_bytes(data[:value] if value < 0 else data + b"\x3f" * value)
    elif what in ("shape", "blob"):
        meta["arrays"][key][what] = value
    elif what == "drop":
        (meta if value in ("format", "arrays") else meta["arrays"][key]).pop(value)
    else:
        meta["format"] = value
    manifest.write_text(json.dumps(meta))


@settings(max_examples=300, deadline=None)
@given(defect=DEFECT)
def test_read_bundle_raises_a_typed_error_on_any_defect(defect):
    with tempfile.TemporaryDirectory() as d:
        # what a blob path leaving the directory would find
        store.write_files(store.bundle(os.path.join(d, "outside", "x.kind.json"), BUNDLE, {}))
        path = store.write_files(store.bundle(os.path.join(d, "inside", "x.kind.json"),
                                              BUNDLE, {}))
        _apply(defect, Path(path))
        with pytest.raises(HypnopipeError):
            store.read_bundle(path)
