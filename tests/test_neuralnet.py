import json

import numpy as np
import pytest

from hypnopipe import neuralnet as nn
from hypnopipe.encoding import encode_recording
from hypnopipe.errors import DatasetTooSmall, InvalidSpec, NaNGradient, ShapeMismatch

from conftest import grad_check, make_montage, zero_params

TOY_SHAPES = {"EEG": (1, 20), "EOG": (3, 20), "EMG": (1, 10)}


def toy_config(mode="FF", **kw):
    defaults = dict(mode=mode, complexity="low", segment_s=5, encoding="cc",
                    modality_shapes=TOY_SHAPES,
                    conv_features={m: [3, 4] for m in nn.MODALITIES},
                    hidden=6, seed=1)
    defaults.update(kw)
    return nn.NetworkConfig(**defaults)


def toy_batch(rng, n=4):
    return {m: rng.standard_normal((n,) + TOY_SHAPES[m]) for m in TOY_SHAPES}


def one_hot(labels):
    y = np.zeros((len(labels), 5))
    y[np.arange(len(labels)), labels] = 1.0
    return y


# --------------------------------------------------------------- constants

def test_training_constants():
    assert nn.WEIGHT_DECAY == 1e-5
    assert nn.MOMENTUM == 0.9
    assert nn.LEARNING_RATE_0 == 0.005
    assert nn.LR_TAU == 12000
    assert nn.DROPOUT_KEEP == 0.5
    assert nn.INIT_VARIANCE == 0.01
    assert nn.ENSEMBLE_SIZE == 16
    assert nn.ENSEMBLE_SCALE == (0.5, 1.5)


def test_init_distribution_variance():
    cfg = toy_config(hidden=64,
                     conv_features={m: [16, 16] for m in nn.MODALITIES})
    params = nn.init_params(cfg)
    flat = np.concatenate([params[k].ravel() for k in nn.trainable_names(params)])
    assert abs(flat.mean()) < 0.01
    assert abs(flat.var() - nn.INIT_VARIANCE) < 0.002


# ----------------------------------------------------------------- forward

def test_zero_params_give_uniform_output(rng):
    cfg = toy_config()
    params = zero_params(cfg)
    probs, _ = nn.forward(params, toy_batch(rng), cfg)
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_softmax_normalization(rng):
    for mode in ("FF", "LSTM"):
        cfg = toy_config(mode)
        params = nn.init_params(cfg)
        probs, _ = nn.forward(params, toy_batch(rng, 6), cfg)
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_ff_is_stateless_under_permutation(rng):
    cfg = toy_config("FF")
    params = nn.init_params(cfg)
    batch = toy_batch(rng, 5)
    probs, _ = nn.forward(params, batch, cfg)
    perm = [3, 1, 4, 0, 2]
    shuffled = {m: batch[m][perm] for m in batch}
    probs2, _ = nn.forward(params, shuffled, cfg)
    assert np.allclose(probs2, probs[perm])


def test_lstm_carries_state_across_windows(rng):
    cfg = toy_config("LSTM")
    params = nn.init_params(cfg)
    batch = toy_batch(rng, 4)
    probs, _ = nn.forward(params, batch, cfg)
    # the same window scored later in a sequence gives a different output
    repeat = {m: np.concatenate([batch[m], batch[m][:1]]) for m in batch}
    probs2, _ = nn.forward(params, repeat, cfg)
    assert not np.allclose(probs2[4], probs[0])


def test_forward_rejects_bad_shape(rng):
    cfg = toy_config()
    params = nn.init_params(cfg)
    bad = toy_batch(rng)
    bad["EEG"] = bad["EEG"][:, :, :-1]
    with pytest.raises(ShapeMismatch):
        nn.forward(params, bad, cfg)
    # every modality holds the same windows: chunking by the EEG's count
    # would silently drop the others' extra windows
    uneven = toy_batch(rng, nn.CHUNK + 2)
    uneven["EEG"] = uneven["EEG"][:nn.CHUNK]
    with pytest.raises(ShapeMismatch):
        nn.forward(params, uneven, cfg)


def test_forward_refuses_a_given_z_with_a_kept_cache(rng):
    """A kept cache holds the conv stacks' activations, which a given ``z``
    skips; the check comes before the cache is built from layers never run."""
    cfg = toy_config()
    params, batch = nn.init_params(cfg), toy_batch(rng)
    probs, cache = nn.forward(params, batch, cfg, keep_cache=True)
    assert np.array_equal(nn.forward(params, batch, cfg, z=cache["z"])[0], probs)
    with pytest.raises(InvalidSpec, match="must run them"):
        nn.forward(params, batch, cfg, keep_cache=True, z=cache["z"])


def test_inference_deterministic(rng):
    cfg = toy_config("LSTM")
    params = nn.init_params(cfg)
    batch = toy_batch(rng)
    a, _ = nn.forward(params, batch, cfg)
    b, _ = nn.forward(params, batch, cfg)
    assert np.array_equal(a, b)


# -------------------------------------------------------------------- loss

def test_loss_perfect_prediction_near_zero():
    y = one_hot([0, 2])
    p = np.clip(y, 1e-12, 1 - 1e-12)
    assert nn.loss(p, y) < 1e-9


def test_loss_uniform_prediction_value():
    y = one_hot([1])
    p = np.full((1, 5), 0.2)
    expect = -(np.log(0.2) + 4 * np.log(0.8))
    assert abs(nn.loss(p, y) - expect) < 1e-9
    assert abs(expect - 2.5021) < 5e-4


def test_loss_regularizer_isolated():
    cfg = toy_config()
    params = nn.init_params(cfg)
    y = one_hot([0])
    p = np.clip(y, 1e-12, 1 - 1e-12)
    reg = sum(float((params[k] ** 2).sum()) for k in nn.trainable_names(params))
    got = nn.loss(p, y, params)
    assert abs(got - nn.WEIGHT_DECAY * reg) < 1e-9


# --------------------------------------------------------------- optimizer

def test_first_momentum_step():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.5, -0.5])}
    state = nn.TrainState.fresh(params)
    params, state = nn.sgd_momentum_step(params, grads, state)
    assert np.allclose(state.velocity["w"], [-0.5, 0.5])
    assert np.allclose(params["w"], [1.0 - 0.005 * 0.5, 2.0 + 0.005 * 0.5])


def test_learning_rate_decay_value():
    state = nn.TrainState(velocity={}, t=12000)
    assert abs(state.learning_rate() - 0.005 / np.e) < 1e-9


def test_learning_rate_strictly_decreasing():
    state = nn.TrainState(velocity={})
    rates = []
    for t in range(100):
        state.t = t
        rates.append(state.learning_rate())
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_nan_gradient_aborts():
    params = {"w": np.zeros(2)}
    grads = {"w": np.array([np.nan, 0.0])}
    state = nn.TrainState.fresh(params)
    with pytest.raises(NaNGradient):
        nn.sgd_momentum_step(params, grads, state)


def test_momentum_converges_on_quadratic_bowl():
    # f = 0.5*||w||^2, grad = w
    params = {"w": np.array([5.0, -3.0])}
    state = nn.TrainState.fresh(params)
    norms = []
    for _ in range(200):
        params, state = nn.sgd_momentum_step(params, {"w": params["w"]}, state)
        norms.append(np.linalg.norm(params["w"]))
    # momentum rings near the optimum, so check the decay envelope
    window_peaks = [max(norms[i:i + 50]) for i in range(0, 200, 50)]
    assert all(a > b for a, b in zip(window_peaks, window_peaks[1:]))
    assert norms[-1] < 1e-2 * norms[0]


# -------------------------------------------------------------- grad check

def test_grad_check_ff(rng):
    cfg = toy_config("FF")
    params = nn.init_params(cfg)
    err = grad_check(params, toy_batch(rng, 3), one_hot([0, 2, 4]), cfg)
    assert err < 1e-3


def test_grad_check_lstm(rng):
    cfg = toy_config("LSTM")
    params = nn.init_params(cfg)
    err = grad_check(params, toy_batch(rng, 3), one_hot([1, 3, 0]), cfg)
    assert err < 1e-3


def test_grad_check_lstm_with_dropout(rng):
    cfg = toy_config("LSTM")
    params = nn.init_params(cfg)
    batch, labels = toy_batch(rng, 6), one_hot([1, 3, 0, 2, 4, 1])
    err = grad_check(params, batch, labels, cfg, dropout_seed=5)
    assert err < 1e-3
    # the mask is drawn: the gradient is not the one without dropout
    with_mask = nn.loss_and_grads(params, batch, labels, cfg,
                                  rng=np.random.default_rng(5))[1]
    without = nn.loss_and_grads(params, batch, labels, cfg)[1]
    assert not np.array_equal(with_mask["out/w"], without["out/w"])


def test_zero_input_zero_bias_first_layer_gradient():
    cfg = toy_config("FF")
    params = zero_params(cfg)
    batch = {m: np.zeros((2,) + TOY_SHAPES[m]) for m in TOY_SHAPES}
    _, grads = nn.loss_and_grads(params, batch, one_hot([0, 1]), cfg)
    for m in nn.MODALITIES:
        assert np.all(grads[f"conv0/{m}/w"] == 0.0)


# ---------------------------------------------------------------- ensemble

def test_ensemble_size_and_bounds():
    cfg = toy_config(hidden=16)
    configs = nn.make_ensemble(cfg, n=16, seed=0)
    assert len(configs) == 16
    for c in configs:
        assert 8 <= c.hidden <= 24
        for m, counts in c.conv_features.items():
            for got, base in zip(counts, cfg.conv_features[m]):
                assert np.ceil(0.5 * base) - 1 <= got <= np.ceil(1.5 * base)


def test_ensemble_reproducible():
    cfg = toy_config()
    a = nn.make_ensemble(cfg, n=5, seed=9)
    b = nn.make_ensemble(cfg, n=5, seed=9)
    assert a == b


# ---------------------------------------------------------------- training

def separable_dataset(rng, n_rec=2, n_windows=240):
    """Two stages distinguished by the sign of the EEG channel mean; one
    (batch, labels) per recording."""
    dataset = []
    for _ in range(n_rec):
        windows, labels = {m: [] for m in TOY_SHAPES}, []
        for i in range(n_windows):
            label = int(rng.integers(0, 2)) * 2   # stages W or N2
            shift = 1.0 if label == 0 else -1.0
            for m in TOY_SHAPES:
                windows[m].append(0.1 * rng.standard_normal(TOY_SHAPES[m]))
            windows["EEG"][-1] = windows["EEG"][-1] + shift
            labels.append(label)
        dataset.append(({m: np.stack(ws) for m, ws in windows.items()},
                        np.array(labels)))
    return dataset


def pooled(dataset):
    """Every recording's windows as one batch, and their labels."""
    return ({m: np.concatenate([b[m] for b, _ in dataset]) for m in TOY_SHAPES},
            np.concatenate([ls for _, ls in dataset]))


def learner_config(seed=7):
    return toy_config("FF", seed=seed, hidden=32,
                      conv_features={m: [16, 32] for m in nn.MODALITIES})


def test_training_learns_separable_data_and_stops_early(rng):
    cfg = learner_config()
    dataset = separable_dataset(rng)
    params, history = nn.train(dataset, cfg, max_batches=2000)
    batch, labels = pooled(dataset)
    probs, _ = nn.forward(params, batch, cfg)
    acc = (probs.argmax(axis=1) == labels).mean()
    assert acc >= 0.95
    # validation stalled before the batch budget ran out
    assert len(history) * nn.VALIDATE_EVERY < 2000
    assert max(history) == history[np.argmax(history)]


def test_training_is_bit_identical_across_runs(rng):
    cfg = learner_config()
    dataset = separable_dataset(rng, n_windows=120)
    p1, h1 = nn.train(dataset, cfg, max_batches=400)
    p2, h2 = nn.train(dataset, cfg, max_batches=400)
    assert h1 == h2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_lstm_training_is_bit_identical_across_runs(rng):
    """LSTM training consumes whole shuffled blocks, with dropout."""
    cfg = toy_config("LSTM", seed=3)
    dataset = separable_dataset(rng, n_windows=120)
    p1, h1 = nn.train(dataset, cfg, max_batches=2 * nn.VALIDATE_EVERY)
    p2, h2 = nn.train(dataset, cfg, max_batches=2 * nn.VALIDATE_EVERY)
    assert len(h1) >= 1 and h1 == h2
    assert p1.keys() == p2.keys()
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert not np.array_equal(p1["lstm/wx"], nn.init_params(cfg)["lstm/wx"])


def test_training_requires_two_recordings(rng):
    cfg = toy_config("FF")
    with pytest.raises(DatasetTooSmall):
        nn.train(separable_dataset(rng, n_rec=1), cfg)


# ---------------------------------------------------------- serialization

def test_params_round_trip(tmp_path, rng):
    cfg = toy_config("LSTM")
    params = nn.init_params(cfg)
    path = nn.save_params(params, cfg, str(tmp_path), "m0")
    back, cfg2 = nn.load_params(path)
    assert cfg2 == cfg
    for k in params:
        assert np.array_equal(back[k],
                              params[k].astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("encoding,segment_s", [("octave", 10), ("octave", 5),
                                               ("cc", 5), ("cc", 30)])
def test_default_shapes_follow_the_encoding(encoding, segment_s):
    cfg = nn.NetworkConfig(encoding=encoding, segment_s=segment_s)
    assert cfg.modality_shapes == nn.modality_shapes_for(encoding, segment_s)
    assert nn.NetworkConfig.from_json(cfg.to_json()) == cfg


def test_default_octave_config_scores_an_octave_batch():
    cfg = nn.NetworkConfig(mode="FF", encoding="octave", segment_s=10)
    batch = nn.windows_from_encoded(encode_recording(make_montage(30.0), "octave"), 10)
    probs, _ = nn.forward(nn.init_params(cfg), batch, cfg)
    assert probs.shape == (3, 5)


def test_config_json_round_trip():
    cfg = toy_config("LSTM", complexity="high")
    assert nn.NetworkConfig.from_json(cfg.to_json()) == cfg


MALFORMED_CONFIGS = {
    "segment_s_7": lambda d: d.update(segment_s=7),
    "segment_s_6": lambda d: d.update(segment_s=6),
    "segment_s_float": lambda d: d.update(segment_s=5.0),
    "mode": lambda d: d.update(mode="GRU"),
    "encoding": lambda d: d.update(encoding="wavelet"),
    # retired knobs: each held its one value in use, now a constant
    "loss_kind": lambda d: d.update(loss_kind="binary"),
    "dropout_keep": lambda d: d.update(dropout_keep=0.5),
    "hidden": lambda d: d.update(hidden=0),
    # integers have type int: the exact type test refuses true for 1 and 16.0 for 16
    "hidden_true": lambda d: d.update(hidden=True),
    "hidden_float": lambda d: d.update(hidden=16.0),
    "hidden_string": lambda d: d.update(hidden="16"),
    "seed_float": lambda d: d.update(seed=1.5),
    "seed_negative": lambda d: d.update(seed=-1),
    "seed_bool": lambda d: d.update(seed=False),
    "conv_count_float": lambda d: d["conv_features"]["EEG"].__setitem__(0, 4.0),
    "conv_count_bool": lambda d: d["conv_features"]["EEG"].__setitem__(0, True),
    # every modality has a first conv layer, which scoring stacks across members
    "conv_no_layer": lambda d: d["conv_features"].update(EEG=[]),
    "unknown_key": lambda d: d.update(extra=1),
    "missing_key": lambda d: d.pop("segment_s"),
    "shapes_not_a_map": lambda d: d.update(modality_shapes=3),
    # exactly the three modalities, each (channels, length) as two integers > 0
    "shapes_without_emg": lambda d: d["modality_shapes"].pop("EMG"),
    "shapes_extra_modality": lambda d: d["modality_shapes"].update(ECG=[1, 201]),
    "shape_float_channels": lambda d: d["modality_shapes"].update(EEG=[1.0, 201]),
    "shape_bool_length": lambda d: d["modality_shapes"].update(EEG=[1, True]),
    "shape_zero_length": lambda d: d["modality_shapes"].update(EEG=[1, 0]),
    "shape_one_number": lambda d: d["modality_shapes"].update(EEG=[1]),
    "shape_three_numbers": lambda d: d["modality_shapes"].update(EEG=[1, 201, 1]),
    "shape_a_number": lambda d: d["modality_shapes"].update(EEG=201),
    "conv_without_emg": lambda d: d["conv_features"].pop("EMG"),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED_CONFIGS))
def test_config_from_json_rejects_malformed(defect):
    d = json.loads(toy_config().to_json())
    MALFORMED_CONFIGS[defect](d)
    with pytest.raises(InvalidSpec):
        nn.NetworkConfig.from_json(json.dumps(d))
