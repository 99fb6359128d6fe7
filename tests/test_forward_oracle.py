"""``neuralnet.forward`` (conv stacks in chunks of CHUNK windows, no cache
unless asked) and ``neuralnet.score_ensemble`` (one shared, stacked first
layer for the members that standardise alike) against the whole-batch
forward they replaced, kept here verbatim as the reference together with the
layer helpers it called.

The arithmetic of every window is unchanged, so probabilities must be
bitwise equal for FF and LSTM heads on CC and octave window shapes, at batch
sizes around the chunk boundaries.  Scoring must also hold no cache: its
``tracemalloc`` peak may not grow with the number of windows.

``loss_and_grads`` is checked the same way against the conv backward of
three helpers it replaced, which also computed the input gradient of layer 0
and dropped it: the gradients must be bitwise equal.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hypnopipe import neuralnet as nn
from hypnopipe import pool
from hypnopipe.errors import ShapeMismatch
from hypnopipe.neuralnet import KERNEL, MODALITIES, NORM_PREFIX

from conftest import grad_check


# ------------------------------------------ the whole-batch forward, verbatim

def _conv1d(x, w, b):
    # x (B,c,L), w (f,c,k) -> (B,f,L-k+1)
    xs = sliding_window_view(x, KERNEL, axis=2)       # (B,c,L_out,k)
    return np.einsum("bclk,fck->bfl", xs, w, optimize=True) + b[None, :, None]


def _meanpool2(x):
    l_out = x.shape[2] // 2
    return x[:, :, :2 * l_out].reshape(x.shape[0], x.shape[1], l_out, 2).mean(axis=3)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _subnet_forward(params, x, modality, config):
    """Conv stack for one modality; returns pooled features and a cache."""
    c, L = config.modality_shapes[modality]
    if x.ndim != 3 or x.shape[1:] != (c, L):
        raise ShapeMismatch(f"{modality}: expected (B,{c},{L}), got {x.shape}")
    mu = params[f"{NORM_PREFIX}{modality}/mean"]
    sd = params[f"{NORM_PREFIX}{modality}/std"]
    h = (x - mu[None]) / sd[None]
    cache = {"inputs": [], "pre": [], "pooled_from": []}
    n_layers = len(config.conv_features[modality])
    for i in range(n_layers):
        w = params[f"conv{i}/{modality}/w"]
        b = params[f"conv{i}/{modality}/b"]
        cache["inputs"].append(h)
        pre = _conv1d(h, w, b)
        cache["pre"].append(pre)
        h = np.maximum(pre, 0.0)
        if i < n_layers - 1:
            cache["pooled_from"].append(h.shape)
            h = _meanpool2(h)
        else:
            cache["pooled_from"].append(None)
            cache["gap_len"] = h.shape[2]
            h = h.mean(axis=2)
    return h, cache


def forward_whole(params, batch, config: nn.NetworkConfig, train_mode: bool = False,
                  rng: np.random.Generator | None = None, state0=None):
    """Probabilities for a batch of windows.

    ``batch`` maps modality name to an array (B, channels, length).  FF mode
    treats the B windows independently; LSTM mode consumes them as a temporal
    sequence, optionally continuing from ``state0`` = (h, c).  Returns
    (probs (B,5), cache).
    """
    feats = []
    caches = {}
    for m in MODALITIES:
        f, c = _subnet_forward(params, np.asarray(batch[m], dtype=float), m, config)
        feats.append(f)
        caches[m] = c
    z = np.concatenate(feats, axis=1)          # (B, F)
    cache = {"subnets": caches, "z": z, "feat_splits":
             np.cumsum([f.shape[1] for f in feats])[:-1]}
    B = z.shape[0]
    H = config.hidden
    if config.mode == "FF":
        pre = z @ params["fc1/w"].T + params["fc1/b"]
        h = np.maximum(pre, 0.0)
        cache["fc1_pre"] = pre
        cache["h"] = h
    else:
        wx, wh, b = params["lstm/wx"], params["lstm/wh"], params["lstm/b"]
        h_prev = np.zeros(H) if state0 is None else state0[0]
        c_prev = np.zeros(H) if state0 is None else state0[1]
        hs = np.zeros((B, H))
        cs = np.zeros((B, H))
        gates_c = np.zeros((B, 4 * H))
        h_prevs = np.zeros((B, H))
        c_prevs = np.zeros((B, H))
        for t in range(B):
            g = wx @ z[t] + wh @ h_prev + b
            i_g = _sigmoid(g[:H])
            f_g = _sigmoid(g[H:2 * H])
            g_g = np.tanh(g[2 * H:3 * H])
            o_g = _sigmoid(g[3 * H:])
            c_t = f_g * c_prev + i_g * g_g
            h_t = o_g * np.tanh(c_t)
            gates_c[t] = np.concatenate([i_g, f_g, g_g, o_g])
            h_prevs[t], c_prevs[t] = h_prev, c_prev
            hs[t], cs[t] = h_t, c_t
            h_prev, c_prev = h_t, c_t
        cache.update(hs=hs, cs=cs, gates=gates_c, h_prevs=h_prevs, c_prevs=c_prevs)
        cache["state"] = (h_prev.copy(), c_prev.copy())
        h = hs
        if train_mode:
            if rng is None:
                rng = np.random.default_rng(config.seed)
            mask = (rng.random(h.shape) < nn.DROPOUT_KEEP) / nn.DROPOUT_KEEP
            cache["dropout_mask"] = mask
            h = h * mask
        cache["h"] = h
    logits = h @ params["out/w"].T + params["out/b"]
    probs = _softmax(logits)
    cache["probs"] = probs
    return probs, cache


# ---------------------------------- the three-helper conv backward, verbatim

def _conv1d_back(x, w, dy):
    xs = sliding_window_view(x, KERNEL, axis=2)
    dw = np.einsum("bclk,bfl->fck", xs, dy, optimize=True)
    db = dy.sum(axis=(0, 2))
    dx = np.zeros_like(x)
    l_out = dy.shape[2]
    for dk in range(KERNEL):
        dx[:, :, dk:dk + l_out] += np.einsum("fc,bfl->bcl", w[:, :, dk], dy,
                                             optimize=True)
    return dx, dw, db


def _meanpool2_back(x_shape, dy):
    dx = np.zeros(x_shape)
    l_out = dy.shape[2]
    dx[:, :, :2 * l_out:2] = dy / 2.0
    dx[:, :, 1:2 * l_out:2] = dy / 2.0
    return dx


def conv_stack_back_three_helpers(params, layers, dfeat, modality, grads):
    gap_len = layers[-1][1].shape[2]
    dh = np.repeat(dfeat[:, :, None], gap_len, axis=2) / gap_len
    for i in reversed(range(len(layers))):
        x, act = layers[i]
        if i < len(layers) - 1:
            dh = _meanpool2_back(act.shape, dh)
        dx, dw, db = _conv1d_back(x, params[f"conv{i}/{modality}/w"], dh * (act > 0))
        grads[f"conv{i}/{modality}/w"] += dw
        grads[f"conv{i}/{modality}/b"] += db
        dh = dx


# --------------------------------------------------------------- fixtures

def fan_in_scaled(params, seed):
    """Weights rescaled to variance 1/fan-in, biases N(0, 0.01)."""
    rng = np.random.default_rng(seed)
    for name in nn.trainable_names(params):
        w = params[name]
        params[name] = (w / np.sqrt(nn.INIT_VARIANCE * w[0].size) if w.ndim > 1
                        else 0.1 * rng.standard_normal(w.shape))
    return params


def member(encoding, mode, seed=3, hidden=16):
    """A network whose outputs are far from uniform: weights at fan-in
    scale, random input standardization."""
    cfg = nn.NetworkConfig(mode=mode, encoding=encoding, segment_s=5, seed=seed,
                           hidden=hidden, modality_shapes=nn.modality_shapes_for(encoding, 5))
    params = fan_in_scaled(nn.init_params(cfg), seed)
    rng = np.random.default_rng(seed)
    for m in MODALITIES:
        c, _ = cfg.modality_shapes[m]
        params[f"{NORM_PREFIX}{m}/mean"] = rng.standard_normal((c, 1))
        params[f"{NORM_PREFIX}{m}/std"] = rng.uniform(0.5, 2.0, (c, 1))
    return params, cfg


def windows(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    return {m: rng.standard_normal((n,) + tuple(cfg.modality_shapes[m]))
            for m in MODALITIES}


SIZES = [1, nn.CHUNK - 1, nn.CHUNK, nn.CHUNK + 1, 2 * nn.CHUNK + 3]
# around the ends of the scorer's stacked layer-0 runs of 16 windows
RUN_SIZES = [15, 16, 17, 31, 33, 47]
NETS = [(e, m) for e in ("cc", "octave") for m in ("FF", "LSTM")]
# LSTM heads of other widths than the default 16; a CC head of one unit at
# seed 3 is too close to uniform for the 0.05 guard, so only octave has one
HEADS = [(*net, 16) for net in NETS] + [
    (e, "LSTM", h) for e in ("cc", "octave") for h in (2, 24)] + [("octave", "LSTM", 1)]


# ------------------------------------------------------------------ tests

@pytest.mark.parametrize("encoding,mode,hidden", HEADS)
@pytest.mark.parametrize("n", SIZES)
def test_forward_is_bitwise_the_whole_batch_forward(encoding, mode, hidden, n):
    params, cfg = member(encoding, mode, hidden=hidden)
    batch = windows(cfg, n)
    want, _ = forward_whole(params, batch, cfg)
    got, cache = nn.forward(params, batch, cfg)
    assert cache is None
    assert got.shape == (n, 5)
    assert np.array_equal(got, want)
    assert np.ptp(want) > 0.05            # far from uniform: a real check


@pytest.mark.parametrize("mode", ["FF", "LSTM"])
def test_kept_cache_gives_the_same_probabilities_and_dropout(mode):
    params, cfg = member("cc", mode)
    batch = windows(cfg, nn.CHUNK + 1)
    want, old = forward_whole(params, batch, cfg, train_mode=True,
                              rng=np.random.default_rng(5))
    got, cache = nn.forward(params, batch, cfg, rng=np.random.default_rng(5),
                            keep_cache=True)
    assert np.array_equal(got, want)
    assert np.array_equal(cache["z"], old["z"])
    if mode == "LSTM":
        assert np.array_equal(cache["dropout_mask"], old["dropout_mask"])
        assert np.array_equal(cache["hs"], old["hs"])
        assert np.array_equal(cache["cs"], old["cs"])
        # the recurrence keeps its gates as i, f, o, g; the reference as i, f, g, o
        B, H = len(cache["gates"]), cfg.hidden
        gates = cache["gates"].reshape(B, 4, H)[:, [0, 1, 3, 2]].reshape(B, 4 * H)
        assert np.array_equal(gates, old["gates"])


def toy_member(mode, seed):
    shapes = {"EEG": (1, 20), "EOG": (3, 20), "EMG": (1, 10)}
    cfg = nn.NetworkConfig(mode=mode, segment_s=5, encoding="cc", modality_shapes=shapes,
                           conv_features={m: [3, 4] for m in MODALITIES},
                           hidden=6, seed=1)
    rng = np.random.default_rng(seed)
    n = nn.CHUNK + 5
    batch = {m: rng.standard_normal((n,) + shapes[m]) for m in MODALITIES}
    return cfg, batch, np.eye(5)[rng.integers(0, 5, n)]


@pytest.mark.parametrize("mode", ["FF", "LSTM"])
def test_gradients_stay_exact_across_chunks(mode):
    cfg, batch, y = toy_member(mode, seed=2)
    # at fan-in scale no gradient is so small that rounding swamps it; a step
    # of 1e-6 rarely crosses a ReLU kink in 133 windows
    params = fan_in_scaled(nn.init_params(cfg), seed=2)
    assert grad_check(params, batch, y, cfg, h=1e-6) < 1e-3


@pytest.mark.parametrize("mode", ["FF", "LSTM"])
def test_chunked_gradients_equal_one_chunk_gradients(mode, monkeypatch):
    cfg, batch, y = toy_member(mode, seed=3)
    params = nn.init_params(cfg)
    value, grads = nn.loss_and_grads(params, batch, y, cfg)
    monkeypatch.setattr(nn, "CHUNK", len(y))
    value1, grads1 = nn.loss_and_grads(params, batch, y, cfg)
    assert value == value1
    for name, g in grads1.items():
        # only the order of the per-window sums in dw and db differs
        assert np.allclose(grads[name], g, rtol=1e-12, atol=1e-18), name


# depths 1 to 3 in one member; pre-pool lengths odd (CC layers 0 and 1,
# octave layer 1) and even (octave layer 0)
LAYOUTS = [None, {"EEG": [3], "EOG": [1, 4], "EMG": [2, 3, 5]}]


def layout_member(encoding, mode, layout):
    params, cfg = member(encoding, mode)
    if layout is not None:
        cfg = replace(cfg, conv_features=layout)
        params = {**fan_in_scaled(nn.init_params(cfg), cfg.seed),
                  **{k: v for k, v in params.items() if k.startswith(NORM_PREFIX)}}
    return params, cfg


@pytest.mark.parametrize("encoding,mode", NETS)
@pytest.mark.parametrize("n", [1, nn.CHUNK + 5])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_gradients_are_bitwise_the_three_helper_backward(encoding, mode, n, layout,
                                                         monkeypatch):
    params, cfg = layout_member(encoding, mode, layout)
    batch = windows(cfg, n)
    y = np.eye(5)[np.random.default_rng(1).integers(0, 5, n)]
    value, grads = nn.loss_and_grads(params, batch, y, cfg, rng=np.random.default_rng(5))
    monkeypatch.setattr(nn, "_conv_stack_back", conv_stack_back_three_helpers)
    value0, grads0 = nn.loss_and_grads(params, batch, y, cfg, rng=np.random.default_rng(5))
    assert value == value0
    assert list(grads) == list(grads0)
    for name, g in grads0.items():
        assert np.array_equal(grads[name], g), name
    assert all(np.any(grads[f"conv0/{m}/w"] != 0) for m in MODALITIES)


def test_the_input_gradient_runs_only_above_layer_0(monkeypatch):
    """Layer 0's input gradient is not computed: its input, the standardised
    windows, holds no parameters.  One product per kernel tap, per layer
    from 1 up, per modality and chunk."""
    params, cfg = layout_member("octave", "FF", LAYOUTS[1])
    batch = windows(cfg, nn.CHUNK + 5)
    y = np.eye(5)[np.zeros(nn.CHUNK + 5, dtype=int)]
    einsum, taps = np.einsum, []

    def counting(subscripts, *operands, **kwargs):
        if subscripts == "fc,bfl->bcl":
            taps.append(operands[1].shape)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    nn.loss_and_grads(params, batch, y, cfg)
    above = sum(len(counts) - 1 for counts in cfg.conv_features.values())
    assert len(taps) == 2 * KERNEL * above == 2 * 3 * 3


def _peak_bytes(params, cfg, batch):
    tracemalloc.start()
    try:
        nn.forward(params, batch, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_memory_does_not_grow_with_the_night():
    params, cfg = member("cc", "FF")
    one = windows(cfg, nn.CHUNK)
    four = windows(cfg, 4 * nn.CHUNK)
    base = _peak_bytes(params, cfg, one)
    # what does grow: about 40 features, the hidden units and 5 outputs per window
    assert _peak_bytes(params, cfg, four) < base + 1_000_000


# ------------------------------------------------------- the ensemble scorer

def random_norm(cfg, rng):
    """A random input standardization for ``cfg``'s windows."""
    out = {}
    for m in MODALITIES:
        c, _ = cfg.modality_shapes[m]
        out[f"{NORM_PREFIX}{m}/mean"] = rng.standard_normal((c, 1))
        out[f"{NORM_PREFIX}{m}/std"] = rng.uniform(0.5, 2.0, (c, 1))
    return out


def ensemble(configs, alike=3, seed=5):
    """Members at fan-in scale: the first ``alike`` keep the initial
    standardization (mean 0, std 1), as members that ``train`` makes share
    theirs; the next three share a random one, and each later member has its
    own."""
    rng = np.random.default_rng(seed)
    shared = random_norm(configs[0], rng)
    models = []
    for j, cfg in enumerate(configs):
        params = fan_in_scaled(nn.init_params(cfg), cfg.seed)
        if j >= alike:
            params.update(shared if j < alike + 3 else random_norm(cfg, rng))
        models.append((params, cfg))
    return models


def ensemble_of(encoding, mode, n=8, alike=3, seed=5):
    template = nn.NetworkConfig(mode=mode, encoding=encoding, segment_s=5, seed=seed)
    return ensemble(nn.make_ensemble(template, n=n, seed=seed), alike, seed)


def assert_the_scorer_is_the_reference(models, batch):
    """Each member's probabilities are bitwise its own ``forward``'s, and its
    conv features bitwise the whole-batch forward's when the batch is one
    chunk.  Over more windows, and in the head, the reference makes its BLAS
    calls on other shapes and orders (one product over every window; an
    F-ordered ``z``, concatenated from K-ordered means), which may round
    otherwise for these widths, as it did against the chunked ``forward``
    before the scorer: within 1e-12 there."""
    got = nn.score_ensemble(models, batch)
    assert len(got) == len(models)
    # the scorer runs inside the pool's hold, at one BLAS thread
    with pool.one_blas_thread():
        for j, (params, cfg) in enumerate(models):
            want, whole = forward_whole(params, batch, cfg)
            alone, cache = nn.forward(params, batch, cfg, keep_cache=True)
            assert np.array_equal(got[j], alone), j
            if len(batch["EEG"]) <= nn.CHUNK:
                assert np.array_equal(cache["z"], whole["z"]), j
            assert np.abs(cache["z"] - whole["z"]).max() <= 1e-12, j
            assert np.abs(got[j] - want).max() <= 1e-12, j
    assert np.median([np.ptp(p) for p in got]) > 0.05    # far from uniform: a real check


@pytest.mark.parametrize("n,encoding,mode", [(n, *net) for net in NETS for n in SIZES]
                         + [(n, "octave", "FF") for n in RUN_SIZES])
def test_the_scorer_is_bitwise_the_reference_for_varied_widths(encoding, mode, n):
    models = ensemble_of(encoding, mode)
    groups = nn._first_layer_groups(models, "EEG")
    assert sorted(len(g[0]) for g in groups) == [1, 1, 3, 3]
    assert len({c.conv_features["EEG"][0] for _, c in models}) > 2
    assert_the_scorer_is_the_reference(models, windows(models[0][1], n))


@pytest.mark.parametrize("n", SIZES + RUN_SIZES)
def test_sixteen_members_that_standardise_alike(n):
    # one group of 16: the stacked product is as wide as the benchmark's, where
    # a short last run stacked would round otherwise at 31 windows (a whole run
    # and 15 more), whether a run is 16 windows or 32
    models = ensemble_of("octave", "FF", n=16, alike=16)
    assert [len(g[0]) for g in nn._first_layer_groups(models, "EEG")] == [16]
    assert_the_scorer_is_the_reference(models, windows(models[0][1], n))


@pytest.mark.parametrize("n", RUN_SIZES)
def test_sixteen_cc_members_that_standardise_alike(n):
    # CC's short windows round otherwise on a run that is not a multiple of 8
    # windows: runs of 13 differ at 33 windows
    models = ensemble_of("cc", "FF", n=16, alike=16)
    assert_the_scorer_is_the_reference(models, windows(models[0][1], n))


@pytest.mark.parametrize("n", [nn.CHUNK - 1, 2 * nn.CHUNK + 3])
def test_a_mixed_ff_and_lstm_ensemble_on_float32_windows(n):
    configs = [cfg for pair in zip(
        *(nn.make_ensemble(nn.NetworkConfig(mode=mode, encoding="octave", segment_s=5),
                           n=4, seed=9) for mode in ("FF", "LSTM"))) for cfg in pair]
    models = ensemble(configs)
    assert [c.mode for _, c in models] == ["FF", "LSTM"] * 4
    # octave windows come as float32 from a stored recording; both sides cast
    batch = {m: x.astype(np.float32) for m, x in windows(configs[0], n).items()}
    assert_the_scorer_is_the_reference(models, batch)


@pytest.mark.parametrize("encoding", ["cc", "octave"])
@pytest.mark.parametrize("n", [2, 17, nn.CHUNK + 1])
def test_lstm_heads_of_one_two_and_24_units_in_lockstep(encoding, n):
    # the lockstep updates every head's units as one vector: a head of one
    # unit is a length-1 slice of it, where its own forward runs on length 1
    template = nn.NetworkConfig(mode="LSTM", encoding=encoding, segment_s=5)
    configs = [replace(template, hidden=h, seed=j) for j, h in enumerate([1, 2, 24, 1, 24, 2])]
    assert_the_scorer_is_the_reference(ensemble(configs), windows(configs[0], n))


def test_only_the_ff_heads_run_their_own_forward(monkeypatch):
    configs = [cfg for pair in zip(
        *(nn.make_ensemble(nn.NetworkConfig(mode=mode, encoding="cc", segment_s=5),
                           n=3, seed=4) for mode in ("FF", "LSTM"))) for cfg in pair]
    models, calls, forward = ensemble(configs), [], nn.forward

    def counting(params, batch, config, **kwargs):
        calls.append(config.mode)
        return forward(params, batch, config, **kwargs)
    monkeypatch.setattr(nn, "forward", counting)
    assert len(nn.score_ensemble(models, windows(configs[0], 5))) == 6
    assert calls == ["FF"] * 3


@pytest.mark.parametrize("n", [1, nn.CHUNK + 1])
def test_members_of_one_filter_and_of_one_layer(n):
    template = nn.NetworkConfig(mode="FF", encoding="cc", segment_s=5)
    layouts = [[1, 4], [3], [2, 3], [1, 4], [4], [3, 5], [1], [6, 2]]
    configs = [replace(template, conv_features={m: counts for m in MODALITIES}, seed=j)
               for j, counts in enumerate(layouts)]
    models = ensemble(configs)
    assert_the_scorer_is_the_reference(models, windows(configs[0], n))


def test_the_scorer_refuses_a_member_of_another_shape():
    models = ensemble_of("cc", "FF", n=3)
    params, cfg = member("octave", "FF")
    with pytest.raises(ShapeMismatch):
        nn.score_ensemble(models + [(params, cfg)], windows(models[0][1], 4))


def _ensemble_peak_bytes(models, batch):
    tracemalloc.start()
    try:
        nn.score_ensemble(models, batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_scoring_memory_does_not_grow_with_the_night(monkeypatch):
    # serially, so that the peak does not depend on which jobs overlap
    monkeypatch.setattr(nn, "thread_map", lambda fn, items: [fn(i) for i in items])
    models = ensemble_of("octave", "LSTM", n=16, alike=16)
    cfg = models[0][1]
    base = _ensemble_peak_bytes(models, windows(cfg, nn.CHUNK))
    # what does grow: each member's features, hidden units and 5 outputs per window
    per_window = 8 * sum(sum(c.conv_features[m][-1] for m in MODALITIES) + c.hidden + 5
                         for _, c in models)
    assert _ensemble_peak_bytes(models, windows(cfg, 4 * nn.CHUNK)) < (
        base + 3 * nn.CHUNK * per_window + 500_000)
    # and layer 0 is not stacked over a whole chunk at once: with its input
    # columns and pooled output that held about two such products
    _, length = cfg.modality_shapes["EEG"]
    stacked = 8 * nn.CHUNK * (length - KERNEL + 1) * sum(
        c.conv_features["EEG"][0] for _, c in models)
    assert base < 1.25 * stacked


def test_ensemble_scoring_holds_a_fraction_of_a_stacked_chunk(monkeypatch):
    # serially, as above.  A job of half a CHUNK holds its pooled layer-0
    # output (a quarter of a chunk-long stacked product) and one run's float64
    # input, tensordot's column copy and product (the product an eighth of it
    # at 16 windows, a quarter at 32)
    monkeypatch.setattr(nn, "thread_map", lambda fn, items: [fn(i) for i in items])
    models = ensemble_of("octave", "LSTM", n=16, alike=16)
    cfg = models[0][1]
    _, length = cfg.modality_shapes["EEG"]
    stacked = 8 * nn.CHUNK * (length - KERNEL + 1) * sum(
        c.conv_features["EEG"][0] for _, c in models)
    assert _ensemble_peak_bytes(models, windows(cfg, nn.CHUNK)) < 0.7 * stacked
