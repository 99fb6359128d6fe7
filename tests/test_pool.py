"""The one thread pool: pooled preprocess, encode and scoring equal a serial map."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from hypnopipe import cli, diagnosis, encoding, neuralnet, pool, preprocess, signal_io
from hypnopipe.encoding import CC_TENSORS, MONTAGE, encode_recording
from hypnopipe.errors import NaNGradient, SignalTooShort

from conftest import make_montage, save_hypnogram, synth_recording


def serial(fn, items):
    return [fn(item) for item in items]


@pytest.fixture
def three_cores(monkeypatch):
    """Three cores in the affinity mask, so the pool runs on any machine."""
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 1, 2})


def test_thread_map_runs_at_once_keeps_order_and_raises_the_serial_first_error(
        three_cores):
    together = threading.Barrier(3, timeout=30)   # breaks unless 3 items run at once

    def fn(i):
        if i < 3:
            together.wait()
        if i == 4:
            time.sleep(0.3)                       # fails after item 5 has failed
            raise ValueError("item 4")
        if i == 5:
            raise ValueError("item 5")
        return i * i

    assert pool.thread_map(fn, range(4)) == [0, 1, 4, 9]
    with pytest.raises(ValueError, match="^item 4$"):
        pool.thread_map(fn, range(6))
    with pytest.raises(ValueError, match="^item 4$"):
        serial(fn, [4, 5])


@pytest.mark.parametrize("mode", ["cc", "octave"])
def test_pooled_encoding_equals_a_serial_map(monkeypatch, three_cores, mode):
    montage = make_montage(duration_s=300.0)
    pooled = encode_recording(montage, mode).tensors
    monkeypatch.setattr(encoding, "thread_map", serial)
    alone = encode_recording(montage, mode).tensors
    names = ([name for tensors in CC_TENSORS.values() for name in tensors]
             if mode == "cc" else list(MONTAGE["octave"]))
    assert list(pooled) == list(alone) == names
    for name in names:
        assert np.array_equal(pooled[name], alone[name]), name


def test_pooled_preprocess_equals_a_serial_map(monkeypatch, three_cores):
    spec = {role: {"fs": 256, "sinusoids": [(8.0 + k, 30.0)], "noise_sigma": 5.0}
            for k, role in enumerate(signal_io.ROLES)}
    psg = synth_recording(spec, seed=1, duration_s=600.0)
    ref = preprocess.ReferenceDistribution(mean=np.array([5.0, 0.5, 1.5]),
                                           covariance=np.eye(3))
    pooled, picked = preprocess.preprocess_recording(psg, ref, MONTAGE["octave"])
    monkeypatch.setattr(preprocess, "thread_map", serial)
    alone, picked_alone = preprocess.preprocess_recording(psg, ref, MONTAGE["octave"])
    assert picked == picked_alone
    assert list(pooled.channels) == list(alone.channels) == list(MONTAGE["octave"])
    for role, ch in pooled.channels.items():
        assert np.array_equal(ch.samples, alone.channels[role].samples), role


@pytest.mark.parametrize("mode,encoded", [("FF", "cc"), ("LSTM", "octave")])
def test_pooled_members_equal_a_serial_map(monkeypatch, three_cores, mode, encoded):
    enc = encode_recording(make_montage(duration_s=300.0), encoded)
    base = neuralnet.NetworkConfig(mode=mode, segment_s=5, encoding=encoded)
    rng = np.random.default_rng(4)
    models = []
    for j, cfg in enumerate(neuralnet.make_ensemble(base, n=5, seed=3)):
        # weights 3 times their initial scale, so that each member gives its own
        # hypnodensity rather than about 0.2 for every stage
        params = {k: v if k.startswith(neuralnet.NORM_PREFIX) else 3.0 * v
                  for k, v in neuralnet.init_params(cfg).items()}
        if j >= 3:          # two members standardise their inputs each their own way
            for m in neuralnet.MODALITIES:
                shape = params[f"{neuralnet.NORM_PREFIX}{m}/mean"].shape
                params[f"{neuralnet.NORM_PREFIX}{m}/mean"] = rng.normal(0.0, 0.1, shape)
                params[f"{neuralnet.NORM_PREFIX}{m}/std"] = rng.uniform(0.5, 2.0, shape)
        models.append((params, cfg))
    assert all(len(neuralnet._first_layer_groups(models, m)) == 3
               for m in neuralnet.MODALITIES)
    batch = neuralnet.windows_from_encoded(enc, base.segment_s)
    pooled, pooled_ens = cli._score_ensemble(models, batch, enc.recording_id)
    maps, threads = [], set()

    def serial_here(fn, items):
        """A serial loop at one BLAS thread, as ``thread_map`` runs for one core."""
        maps.append(fn)

        def run(item):
            threads.add(threading.get_ident())
            return fn(item)
        with pool.one_blas_thread():
            return [run(item) for item in items]

    monkeypatch.setattr(neuralnet, "thread_map", serial_here)
    alone, alone_ens = cli._score_ensemble(models, batch, enc.recording_id)
    assert len(maps) == 1                          # the features' jobs
    assert threads == {threading.get_ident()}
    assert len(pooled) == len(alone) == 5
    assert not np.array_equal(pooled[0].probs, pooled[1].probs)
    for got, want in zip(pooled, alone):
        assert np.array_equal(got.probs, want.probs)
    assert np.array_equal(pooled_ens.probs, alone_ens.probs)
    assert np.array_equal(pooled_ens.variance, alone_ens.variance)


def train_argv(tmp_path, n_models):
    """``train`` of ``n_models`` small FF members on two CC recordings of
    four 5 s windows of noise labelled W, N2, W, N2."""
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    labels = np.arange(4) % 2 * 2
    for rid in ("a", "b"):
        tensors = {name: 0.1 * rng.standard_normal((len(labels), encoding.CC_PARAMS[m].n_lags))
                   for m, names in CC_TENSORS.items() for name in names}
        encoding.EncodedRecording(recording_id=rid, mode="cc", tensors=tensors).save(str(data))
        save_hypnogram(signal_io.HypnogramLabels(
            [("W", "N1", "N2")[s] for s in labels], epoch_s=5), str(data / f"{rid}.hyp.txt"))
    config = tmp_path / "net.json"
    config.write_text(neuralnet.NetworkConfig(
        mode="FF", segment_s=5, hidden=4, seed=7,
        conv_features={m: [2, 2] for m in neuralnet.MODALITIES}).to_json())
    return ["train", "--config", str(config), "--data", str(data),
            "--out", str(tmp_path / "m"), "--n-models", str(n_models)]


def test_pooled_training_writes_the_files_and_logs_of_a_serial_map(
        monkeypatch, three_cores, tmp_path, capsys):
    """Three members on three threads that switch every 10 us: the shared
    dataset is only read, so the files are the serial map's."""
    argv = train_argv(tmp_path, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert cli.main(argv) == 0
    finally:
        sys.setswitchinterval(interval)
    pooled = {p.name: p.read_bytes() for p in sorted((tmp_path / "m").iterdir())}
    pooled_log = capsys.readouterr().err
    maps = []

    def serial_once(fn, items):
        maps.append(fn)
        return serial(fn, items)

    monkeypatch.setattr(cli, "thread_map", serial_once)
    argv[argv.index("--out") + 1] = str(tmp_path / "alone")
    assert cli.main(argv) == 0
    alone = {p.name: p.read_bytes() for p in sorted((tmp_path / "alone").iterdir())}
    assert len(maps) == 1
    assert {f"model{i:02d}.model.json" for i in range(3)} <= set(pooled)
    assert pooled == alone
    assert pooled_log.replace(str(tmp_path / "m"), str(tmp_path / "alone")) == \
        capsys.readouterr().err
    assert [line.split('msg="')[1][:8] for line in pooled_log.splitlines()[:-1]] == [
        "model00:", "model00:", "model01:", "model01:", "model02:", "model02:"]
    assert pooled_log.count("level=warning") == 3   # each never rose above its first check


def test_a_member_that_fails_on_the_pool_fails_the_train(monkeypatch, three_cores, tmp_path,
                                                         capsys):
    """The middle member's ``NaNGradient`` is exit 4 once the first member
    has trained on another thread; nothing is written."""
    trained = []

    def train(dataset, cfg):
        if cfg.seed == 9:                   # the second member (seed 7 + 2)
            raise NaNGradient("loss is nan")
        trained.append(cfg.seed)
        return neuralnet.init_params(cfg), [1.0]

    monkeypatch.setattr(neuralnet, "train", train)
    argv = train_argv(tmp_path, 3)
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "loss is nan" in err and "Traceback" not in err
    assert 8 in trained       # the pool raises the failure once the first result is in
    assert not (tmp_path / "m").exists()


def test_two_channels_too_short_raise_the_serial_first_error(monkeypatch, three_cores):
    # 0.25 s: 25 samples at 100 Hz and 26 at 104 Hz are fewer than a filter needs
    spec = {role: {"fs": fs, "noise_sigma": 5.0} for role, fs in
            (("EEG_C_LEFT", 256), ("EOG_L", 100), ("EOG_R", 256), ("EMG_CHIN", 104))}
    psg = synth_recording(spec, seed=0, duration_s=0.25)
    to_target_rate = preprocess.to_target_rate

    def eog_l_fails_last(ch):
        if ch.fs == 100:
            time.sleep(0.3)
        return to_target_rate(ch)

    monkeypatch.setattr(preprocess, "to_target_rate", eog_l_fails_last)
    with pytest.raises(SignalTooShort) as pooled:
        preprocess.preprocess_recording(psg, None, MONTAGE["cc"])
    monkeypatch.setattr(preprocess, "thread_map", serial)
    with pytest.raises(SignalTooShort) as alone:
        preprocess.preprocess_recording(psg, None, MONTAGE["cc"])
    assert str(pooled.value) == str(alone.value) == "25 samples < 30"


def test_the_pool_is_the_only_one_in_src():
    src = Path(pool.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "pool.py"
                 and any(tok in p.read_text() for tok in
                         ("concurrent", "multiprocessing", "threading", "Executor"))]
    assert offenders == []


# numpy's and scipy's bundled OpenBLAS, found here as a host program would
# find them, so that the test does not rely on the code it tests
HOST_BLAS = """
import ctypes, glob, importlib.util, json, os
import numpy, scipy.linalg

def blas_counts():
    return [get() for get, _ in BLAS]

BLAS = []
for package, suffix in (("numpy", "64_"), ("scipy", "")):
    libs = os.path.dirname(importlib.util.find_spec(package).submodule_search_locations[0])
    (path,) = glob.glob(os.path.join(glob.escape(libs), package + ".libs",
                                     "libscipy_openblas*.so"))
    lib = ctypes.CDLL(path, os.RTLD_NOLOAD)
    BLAS.append((getattr(lib, "scipy_openblas_get_num_threads" + suffix),
                 getattr(lib, "scipy_openblas_set_num_threads" + suffix)))
for _, set_threads in BLAS:
    set_threads(2)
assert blas_counts() == [2, 2]
"""


def _host_python(code, *args):
    """What ``code`` prints in a fresh interpreter that imports numpy and
    scipy.linalg before hypnopipe and sets both OpenBLAS to 2 threads."""
    src = str(Path(pool.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", HOST_BLAS + code, *args],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**env, "PYTHONPATH": src}).stdout


def test_blas_runs_one_thread_inside_and_the_hosts_count_after():
    """In ``rfe``, ``gp_fit``, ``gp_predict`` and a ``thread_map`` worker every
    loaded OpenBLAS runs one thread, also when entries nest or overlap, and
    the host's 2 comes back after each, also after one that raised."""
    out = _host_python("""
import numpy as np
from hypnopipe import diagnosis, pool
from hypnopipe.errors import DimensionMismatch

inside, after = {}, {}
def probe(name, fn):
    def wrapped(*args, **kwargs):
        inside.setdefault(name, blas_counts())
        return fn(*args, **kwargs)
    return wrapped
diagnosis._rfe_survivors = probe("rfe", diagnosis._rfe_survivors)
diagnosis._laplace_mode = probe("gp_fit", diagnosis._laplace_mode)
diagnosis._kernel = probe("gp_predict", diagnosis._kernel)
rng = np.random.default_rng(0)
y = np.where(rng.random(60) > 0.5, 1.0, -1.0)
X = rng.standard_normal((60, 30)) + y[:, None]
diagnosis.rfe(X, y > 0, target_count=5)
after["rfe"] = blas_counts()
model = diagnosis.gp_fit(X[:, :4], y)
after["gp_fit"] = blas_counts()
diagnosis.gp_predict(model, X[:3, :4])
after["gp_predict"] = blas_counts()
pool.thread_map(lambda i: inside.setdefault(f"worker{i}", blas_counts()), range(3))
after["thread_map"] = blas_counts()
pool.thread_map(lambda i: diagnosis.gp_predict(model, X[i:i + 1, :4]), range(4))
after["nested"] = blas_counts()
try:
    diagnosis.gp_predict(model, X[:3, :3])
except DimensionMismatch:
    after["raised"] = blas_counts()
def fails(i):
    inside.setdefault("failing", blas_counts())
    raise ValueError(i)
try:
    pool.thread_map(fails, range(2))
except ValueError:
    after["worker_raised"] = blas_counts()
print(json.dumps([inside, after]))
""")
    inside, after = json.loads(out)
    assert inside == {name: [1, 1] for name in ("rfe", "gp_fit", "gp_predict", "worker0",
                                                "worker1", "worker2", "failing")}
    assert after == {name: [2, 2] for name in ("rfe", "gp_fit", "gp_predict", "thread_map",
                                               "nested", "raised", "worker_raised")}


# a host that loaded numpy alone and set its OpenBLAS to 2 threads; scipy's
# OpenBLAS loads later, with hypnopipe's first fit or prediction
NUMPY_ONLY_HOST = """
import ctypes, glob, importlib.util, json, os, sys
import numpy as np

def library(package):
    libs = os.path.dirname(importlib.util.find_spec(package).submodule_search_locations[0])
    (path,) = glob.glob(os.path.join(glob.escape(libs), package + ".libs",
                                     "libscipy_openblas*.so"))
    return path

BLAS = ((library("numpy"), "64_"), (library("scipy"), ""))

def blas_counts():
    counts = []
    for path, suffix in BLAS:
        try:
            lib = ctypes.CDLL(path, os.RTLD_NOLOAD)
        except OSError:
            counts.append(None)           # not loaded
        else:
            counts.append(getattr(lib, "scipy_openblas_get_num_threads" + suffix)())
    return counts

ctypes.CDLL(BLAS[0][0], os.RTLD_NOLOAD).scipy_openblas_set_num_threads64_(2)
assert blas_counts() == [2, None] and "scipy" not in sys.modules
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="an OpenBLAS loaded on one core runs one thread anyway")
@pytest.mark.parametrize("first", ["rfe", "gp_fit", "gp_predict"])
def test_scipys_blas_loaded_inside_a_hold_joins_it(tmp_path, first):
    """In a host whose scipy OpenBLAS is not loaded yet, the first ``rfe``,
    ``gp_fit`` or ``gp_predict`` loads it inside its hold: there it runs one
    thread like numpy's, and after it both have the count they had loaded
    with, numpy's 2 and scipy's default, 2 on two cores or more."""
    rng = np.random.default_rng(0)
    y = np.where(rng.random(60) > 0.5, 1.0, -1.0)
    X = rng.standard_normal((60, 30)) + y[:, None]
    np.save(tmp_path / "X.npy", X)
    np.save(tmp_path / "y.npy", y)
    diagnosis.gp_fit(X[:, :4], y).save(str(tmp_path))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", NUMPY_ONLY_HOST + """
from hypnopipe import diagnosis

first, data = sys.argv[1], sys.argv[2]
X, y = np.load(os.path.join(data, "X.npy")), np.load(os.path.join(data, "y.npy"))
model = diagnosis.GPModel.load(os.path.join(data, diagnosis.GP_FILE))
inside = []
def probe(fn):
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)      # after the kernels, and scipy's BLAS, load
        inside.append(blas_counts())
        return result
    return wrapped
for name in ("_rfe_survivors", "_laplace_mode", "_kernel"):
    setattr(diagnosis, name, probe(getattr(diagnosis, name)))
before = blas_counts()
{"rfe": lambda: diagnosis.rfe(X, y > 0, target_count=5),
 "gp_fit": lambda: diagnosis.gp_fit(X[:, :4], y),
 "gp_predict": lambda: diagnosis.gp_predict(model, X[:3, :4])}[first]()
print(json.dumps([before, inside[0], blas_counts()]))
""", first, str(tmp_path)], capture_output=True, text=True, timeout=120, check=True,
        env={**env, "PYTHONPATH": str(Path(pool.__file__).parent.parent)}).stdout
    before, inside, after = json.loads(out)
    assert before == [2, None]
    assert inside == [1, 1]
    assert after == [2, 2]


def test_training_and_a_direct_forward_run_one_blas_thread():
    """Inside ``loss_and_grads`` during ``train``, a direct ``loss_and_grads``,
    a direct ``forward`` and ``score_ensemble``'s heads every loaded OpenBLAS
    runs one thread, and the host's 2 comes back after each."""
    out = _host_python("""
import numpy as np
from hypnopipe import neuralnet as nn

inside, after, probe = {}, {}, ["train"]
def probed(fn):
    def wrapped(*args, **kwargs):
        inside.setdefault(probe[0], blas_counts())
        return fn(*args, **kwargs)
    return wrapped
nn._dlogits = probed(nn._dlogits)            # runs inside loss_and_grads
nn._softmax = probed(nn._softmax)            # runs inside forward's head
shapes = {"EEG": (1, 20), "EOG": (3, 20), "EMG": (1, 10)}
cfg = nn.NetworkConfig(mode="FF", segment_s=5, encoding="cc", modality_shapes=shapes,
                       conv_features={m: [3, 4] for m in nn.MODALITIES}, hidden=6)
rng = np.random.default_rng(0)
def night():
    return ({m: rng.standard_normal((60,) + s) for m, s in shapes.items()},
            rng.integers(0, 5, 60))
params, _ = nn.train([night(), night()], cfg, max_batches=2)
after["train"] = blas_counts()
batch, labels = night()
for name, call in (
        ("loss_and_grads", lambda: nn.loss_and_grads(params, batch, np.eye(5)[labels], cfg)),
        ("forward", lambda: nn.forward(params, batch, cfg)),
        ("score_ensemble", lambda: nn.score_ensemble([(params, cfg)] * 2, batch))):
    probe[0] = name
    call()
    after[name] = blas_counts()
print(json.dumps([inside, after]))
""")
    inside, after = json.loads(out)
    names = ("train", "loss_and_grads", "forward", "score_ensemble")
    assert inside == {name: [1, 1] for name in names}
    assert after == {name: [2, 2] for name in names}


def test_a_host_at_two_blas_threads_fits_the_bytes_the_cli_writes(tmp_path):
    """``cli.main`` in a host at 2 BLAS threads and the ``python -m
    hypnopipe.cli`` process write the same GP and selection.  At 220 rows the
    GP's log marginal moves in its last digits at 2 threads (190 rows do)."""
    rng = np.random.default_rng(28)
    y = rng.random(220) > 0.5
    X = rng.standard_normal((220, 481)) + 0.7 * y[:, None] * (rng.random(481) < 0.05)
    mat = tmp_path / "matrix.csv"
    with open(mat, "w") as f:
        for row, label in zip(X, y):
            f.write(",".join(f"{v:.8g}" for v in row) + f",{label:d}\n")
    host, cli_out = tmp_path / "host", tmp_path / "cli"
    argv = ["diagnose", "--fit", "--matrix", str(mat)]
    _host_python("import sys\nfrom hypnopipe import cli\n"
                 "assert cli.main(sys.argv[1:]) == 0\nassert blas_counts() == [2, 2]\n",
                 *argv, "--out", str(host))
    subprocess.run([sys.executable, "-m", "hypnopipe.cli", *argv, "--out", str(cli_out)],
                   check=True, timeout=120, capture_output=True,
                   env={**os.environ, "PYTHONPATH": str(Path(pool.__file__).parent.parent)})
    names = sorted(p.name for p in cli_out.iterdir())
    assert "selection.json" in names and len(names) > 2
    assert sorted(p.name for p in host.iterdir()) == names
    for name in names:
        assert (host / name).read_bytes() == (cli_out / name).read_bytes(), name


def test_concurrent_holds_keep_one_thread_until_the_last_one_ends():
    """Eight threads on the cores enter and leave holds, nested and
    overlapping, with a short switch interval: each reads one BLAS thread
    inside every hold, and the host's 2 is back once all have ended."""
    out = _host_python("""
import sys, threading
from hypnopipe import pool

seen, start = [], threading.Barrier(8, timeout=30)
def worker():
    start.wait()
    for _ in range(300):
        with pool.one_blas_thread():
            seen.append(tuple(blas_counts()))
            with pool.one_blas_thread():
                seen.append(tuple(blas_counts()))
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
print(json.dumps([any(t.is_alive() for t in threads), len(seen), sorted(set(seen)),
                  blas_counts(), pool._blas_depth]))
""")
    alive, count, seen, after, depth = json.loads(out)
    assert not alive and count == 8 * 300 * 2
    assert seen == [[1, 1]]
    assert after == [2, 2] and depth == 0
