"""Toy-scale sleep stage classifier with the published training recipe.

Topology: one small 1-D conv sub-network per modality (EEG, EOG, EMG), whose
pooled features are concatenated and fed to either a fully connected layer
(FF mode) or an LSTM cell carrying state across consecutive windows (LSTM
mode), ending in a 5-way softmax.  A recording's windows are one batch
``{modality: (N, channels, length)}`` from ``windows_from_encoded``.
Gradients are analytic and checked against central finite differences.

Training constants: cross-entropy (as printed, with the (1-y)log(1-p) term)
plus L2 at lambda=1e-5, SGD with momentum 0.9, learning rate 0.005 decaying
as exp(-t/12000), init N(0, 0.01), dropout keep 0.5 on LSTM outputs.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DatasetTooSmall, InvalidSpec, NaNGradient, ShapeMismatch
from .encoding import CC_WINDOW_S, MODES, EncodedRecording
from .signal_io import VALID_EPOCH_S
from .store import read_bundle, write_bundle

# Training constants
WEIGHT_DECAY = 0.00001
MOMENTUM = 0.9
LEARNING_RATE_0 = 0.005
LR_TAU = 12000.0
DROPOUT_KEEP = 0.5
INIT_VARIANCE = 0.01
BATCH_SIZE = 64
VALIDATE_EVERY = 50
VALIDATION_FRACTION = 0.10
EARLY_STOP_PATIENCE = 3
BLOCK_S = 300              # recordings shuffle in 5 minute blocks
ENSEMBLE_SIZE = 16
ENSEMBLE_SCALE = (0.5, 1.5)

MODALITIES = ("EEG", "EOG", "EMG")
KERNEL = 3
LOG_EPS = 1e-12


@dataclass(frozen=True)
class NetworkConfig:
    mode: str = "LSTM"                    # "FF" or "LSTM"
    complexity: str = "low"               # "low" or "high"
    segment_s: int = 5                    # one of signal_io.VALID_EPOCH_S
    encoding: str = "cc"                  # "cc" (2 conv layers) or "octave" (3)
    modality_shapes: dict = field(default_factory=lambda: {
        "EEG": (1, 201), "EOG": (3, 401), "EMG": (1, 41)})
    conv_features: dict = field(default_factory=dict)   # modality -> per-layer counts
    hidden: int = 16
    dropout_keep: float = DROPOUT_KEEP
    loss_kind: str = "binary"             # Eq-as-printed; "categorical" optional
    seed: int = 0

    def __post_init__(self):
        for name, allowed in (("mode", ("FF", "LSTM")), ("complexity", ("low", "high")),
                              ("segment_s", VALID_EPOCH_S), ("encoding", MODES),
                              ("loss_kind", ("binary", "categorical"))):
            value = getattr(self, name)
            if value not in allowed or type(value) is not type(allowed[0]):
                raise InvalidSpec(f"{name} must be one of {allowed}, got {value!r}")
        if self.hidden < 1:
            raise InvalidSpec("hidden size must be > 0")
        if not self.conv_features:
            depth = 3 if self.encoding == "octave" else 2
            base = 8 if self.complexity == "high" else 4
            object.__setattr__(self, "conv_features", {
                m: [base * (2 ** i) for i in range(depth)] for m in MODALITIES})
        for counts in self.conv_features.values():
            if any(c < 1 for c in counts):
                raise InvalidSpec("conv feature counts must be > 0")

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode, "complexity": self.complexity,
            "segment_s": self.segment_s, "encoding": self.encoding,
            "modality_shapes": {m: list(v) for m, v in self.modality_shapes.items()},
            "conv_features": self.conv_features, "hidden": self.hidden,
            "dropout_keep": self.dropout_keep, "loss_kind": self.loss_kind,
            "seed": self.seed,
        }, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        """Raises ``InvalidSpec`` unless ``text`` is an object with exactly the
        keys ``to_json`` writes, each holding a valid value."""
        try:
            d = json.loads(text)
            keys = {f.name for f in fields(cls)}
            if set(d) != keys:
                raise InvalidSpec(f"network config needs exactly the keys {sorted(keys)}")
            d["modality_shapes"] = {m: tuple(v) for m, v in d["modality_shapes"].items()}
            return cls(**d)
        except (ValueError, TypeError, AttributeError) as e:
            raise InvalidSpec(f"malformed network config: {e}") from e


NORM_PREFIX = "norm/"


def init_params(config: NetworkConfig) -> dict[str, np.ndarray]:
    """All trainable parameters drawn i.i.d. from N(0, INIT_VARIANCE)."""
    rng = np.random.default_rng(config.seed)
    std = float(np.sqrt(INIT_VARIANCE))
    params: dict[str, np.ndarray] = {}

    def draw(name, shape):
        # biases start at zero so no ReLU unit is dead before training
        if name.endswith("/b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, std, size=shape)

    feat_total = 0
    for m in MODALITIES:
        c_in, _ = config.modality_shapes[m]
        for i, f in enumerate(config.conv_features[m]):
            draw(f"conv{i}/{m}/w", (f, c_in, KERNEL))
            draw(f"conv{i}/{m}/b", (f,))
            c_in = f
        feat_total += c_in
        params[f"{NORM_PREFIX}{m}/mean"] = np.zeros((config.modality_shapes[m][0], 1))
        params[f"{NORM_PREFIX}{m}/std"] = np.ones((config.modality_shapes[m][0], 1))
    h = config.hidden
    if config.mode == "FF":
        draw("fc1/w", (h, feat_total))
        draw("fc1/b", (h,))
    else:
        draw("lstm/wx", (4 * h, feat_total))
        draw("lstm/wh", (4 * h, h))
        draw("lstm/b", (4 * h,))
    draw("out/w", (5, h))
    draw("out/b", (5,))
    return params


def trainable_names(params: dict[str, np.ndarray]) -> list[str]:
    return sorted(n for n in params if not n.startswith(NORM_PREFIX))


# ---------------------------------------------------------------- layers

def _conv1d(x, w, b):
    # x (B,c,L), w (f,c,k) -> (B,f,L-k+1)
    xs = sliding_window_view(x, KERNEL, axis=2)       # (B,c,L_out,k)
    return np.einsum("bclk,fck->bfl", xs, w, optimize=True) + b[None, :, None]


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


def _meanpool2(x):
    l_out = x.shape[2] // 2
    return x[:, :, :2 * l_out].reshape(x.shape[0], x.shape[1], l_out, 2).mean(axis=3)


def _meanpool2_back(x_shape, dy):
    dx = np.zeros(x_shape)
    l_out = dy.shape[2]
    dx[:, :, :2 * l_out:2] = dy / 2.0
    dx[:, :, 1:2 * l_out:2] = dy / 2.0
    return dx


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


def _subnet_backward(params, cache, dfeat, modality, config, grads):
    n_layers = len(config.conv_features[modality])
    gap_len = cache["gap_len"]
    dh = np.repeat(dfeat[:, :, None], gap_len, axis=2) / gap_len
    for i in reversed(range(n_layers)):
        if cache["pooled_from"][i] is not None:
            dh = _meanpool2_back(cache["pooled_from"][i], dh)
        dpre = dh * (cache["pre"][i] > 0)
        dx, dw, db = _conv1d_back(cache["inputs"][i],
                                  params[f"conv{i}/{modality}/w"], dpre)
        grads[f"conv{i}/{modality}/w"] += dw
        grads[f"conv{i}/{modality}/b"] += db
        dh = dx
    # input standardization is an affine map with frozen stats; no grads kept


def forward(params, batch, config: NetworkConfig, train_mode: bool = False,
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
            mask = (rng.random(h.shape) < config.dropout_keep) / config.dropout_keep
            cache["dropout_mask"] = mask
            h = h * mask
        cache["h"] = h
    logits = h @ params["out/w"].T + params["out/b"]
    probs = _softmax(logits)
    cache["probs"] = probs
    return probs, cache


def loss(pred_probs, one_hot, params=None, lam: float = WEIGHT_DECAY,
         kind: str = "binary") -> float:
    """Mean cross-entropy (as printed, with the complement term) + L2."""
    p = np.clip(pred_probs, LOG_EPS, 1.0 - LOG_EPS)
    y = np.asarray(one_hot, dtype=float)
    n = p.shape[0]
    if kind == "binary":
        data = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum() / n
    else:
        data = -(y * np.log(p)).sum() / n
    reg = 0.0
    if params is not None and lam > 0:
        reg = lam * sum(float((params[k] ** 2).sum()) for k in trainable_names(params))
    return float(data + reg)


def _dlogits(probs, one_hot, kind):
    n = probs.shape[0]
    if kind == "categorical":
        return (probs - one_hot) / n
    p = np.clip(probs, LOG_EPS, 1.0 - LOG_EPS)
    inside = (probs > LOG_EPS) & (probs < 1.0 - LOG_EPS)
    dp = -(one_hot / p - (1.0 - one_hot) / (1.0 - p)) / n
    dp = dp * inside
    # softmax jacobian: dL/dlogit_i = p_i * (dp_i - sum_j dp_j p_j)
    dot = (dp * probs).sum(axis=1, keepdims=True)
    return probs * (dp - dot)


def loss_and_grads(params, batch, one_hot, config: NetworkConfig,
                   lam: float = WEIGHT_DECAY, train_mode: bool = False,
                   rng=None, state0=None):
    """Loss value, analytic gradients, and (for LSTM) the final state."""
    probs, cache = forward(params, batch, config, train_mode=train_mode,
                           rng=rng, state0=state0)
    value = loss(probs, one_hot, params, lam, config.loss_kind)
    grads = {n: np.zeros_like(params[n]) for n in trainable_names(params)}
    dlog = _dlogits(probs, np.asarray(one_hot, dtype=float), config.loss_kind)

    h = cache["h"]
    grads["out/w"] += dlog.T @ h
    grads["out/b"] += dlog.sum(axis=0)
    dh = dlog @ params["out/w"]
    z = cache["z"]
    H = config.hidden
    if config.mode == "FF":
        dpre = dh * (cache["fc1_pre"] > 0)
        grads["fc1/w"] += dpre.T @ z
        grads["fc1/b"] += dpre.sum(axis=0)
        dz = dpre @ params["fc1/w"]
    else:
        if "dropout_mask" in cache:
            dh = dh * cache["dropout_mask"]
        wx, wh = params["lstm/wx"], params["lstm/wh"]
        B = z.shape[0]
        dz = np.zeros_like(z)
        dh_next = np.zeros(H)
        dc_next = np.zeros(H)
        for t in reversed(range(B)):
            dht = dh[t] + dh_next
            i_g = cache["gates"][t, :H]
            f_g = cache["gates"][t, H:2 * H]
            g_g = cache["gates"][t, 2 * H:3 * H]
            o_g = cache["gates"][t, 3 * H:]
            c_t = cache["cs"][t]
            tc = np.tanh(c_t)
            do = dht * tc
            dc = dht * o_g * (1 - tc ** 2) + dc_next
            di = dc * g_g
            df = dc * cache["c_prevs"][t]
            dg = dc * i_g
            dgi = di * i_g * (1 - i_g)
            dgf = df * f_g * (1 - f_g)
            dgg = dg * (1 - g_g ** 2)
            dgo = do * o_g * (1 - o_g)
            dgates = np.concatenate([dgi, dgf, dgg, dgo])
            grads["lstm/wx"] += np.outer(dgates, z[t])
            grads["lstm/wh"] += np.outer(dgates, cache["h_prevs"][t])
            grads["lstm/b"] += dgates
            dz[t] = wx.T @ dgates
            dh_next = wh.T @ dgates
            dc_next = dc * f_g
    splits = np.split(dz, cache["feat_splits"], axis=1)
    for m, dfeat in zip(MODALITIES, splits):
        _subnet_backward(params, cache["subnets"][m], dfeat, m, config, grads)
    if lam > 0:
        for n in grads:
            grads[n] += 2.0 * lam * params[n]
    return value, grads, cache.get("state")


@dataclass
class TrainState:
    velocity: dict
    t: int = 0
    eta0: float = LEARNING_RATE_0
    tau: float = LR_TAU
    alpha: float = MOMENTUM

    @classmethod
    def fresh(cls, params) -> "TrainState":
        return cls(velocity={n: np.zeros_like(params[n])
                             for n in trainable_names(params)})

    def learning_rate(self) -> float:
        return self.eta0 * float(np.exp(-self.t / self.tau))


def sgd_momentum_step(params, grads, state: TrainState):
    """w <- w + eta*v with v <- alpha*v - grad; eta = eta0*exp(-t/tau)."""
    eta = state.learning_rate()
    for n in state.velocity:
        g = grads[n]
        if not np.all(np.isfinite(g)):
            raise NaNGradient(f"non-finite gradient in {n} at step {state.t}")
        state.velocity[n] = state.alpha * state.velocity[n] - g
        params[n] = params[n] + eta * state.velocity[n]
    state.t += 1
    return params, state


def make_ensemble(template: NetworkConfig, n: int = ENSEMBLE_SIZE,
                  seed: int = 0) -> list[NetworkConfig]:
    """n configs with every hidden size scaled independently by U(0.5, 1.5)."""
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = ENSEMBLE_SCALE
    out = []
    for j in range(n):
        conv = {m: [max(1, round(c * rng.uniform(lo, hi))) for c in counts]
                for m, counts in template.conv_features.items()}
        hidden = max(1, round(template.hidden * rng.uniform(lo, hi)))
        out.append(replace(template, conv_features=conv, hidden=hidden,
                           seed=template.seed + j + 1))
    return out


# ---------------------------------------------------------------- training

def _one_hot(labels):
    y = np.zeros((len(labels), 5))
    y[np.arange(len(labels)), labels] = 1.0
    return y


def fit_standardization(params, dataset, config):
    """Per-channel mean/std over the training windows, stored in params."""
    for m in MODALITIES:
        xs = np.concatenate([batch[m] for batch, _ in dataset], axis=0)
        mu = xs.mean(axis=(0, 2), keepdims=False)[:, None]
        sd = xs.std(axis=(0, 2), keepdims=False)[:, None]
        sd[sd < 1e-8] = 1.0
        params[f"{NORM_PREFIX}{m}/mean"] = mu
        params[f"{NORM_PREFIX}{m}/std"] = sd
    return params


def _accuracy(params, blocks, config):
    hits = [forward(params, b, config)[0].argmax(axis=1) == ls for b, ls in blocks]
    return float(np.concatenate(hits).mean())


def train(dataset, config: NetworkConfig, max_batches: int = 4000):
    """Train on a list of recordings, each (batch, labels): a batch as
    ``forward`` takes it and one stage index per window.

    Recordings are cut into 5-minute blocks and shuffled across recordings;
    10% of blocks are held out for validation, evaluated every 50 batches,
    with early stopping after 3 consecutive non-improving checks.  Returns
    (best params, validation-accuracy history).
    """
    if len(dataset) < 2:
        raise DatasetTooSmall("need at least 2 recordings")
    rng = np.random.default_rng(config.seed)
    per_block = max(1, BLOCK_S // config.segment_s)     # 5-minute blocks
    blocks = [({m: batch[m][s:s + per_block] for m in MODALITIES},
               np.asarray(labels[s:s + per_block]))
              for batch, labels in dataset for s in range(0, len(labels), per_block)]
    order = rng.permutation(len(blocks))
    blocks = [blocks[i] for i in order]
    n_val = max(1, int(round(VALIDATION_FRACTION * len(blocks))))
    val_blocks, train_blocks = blocks[:n_val], blocks[n_val:]
    if not train_blocks:
        raise DatasetTooSmall("no training blocks left after validation split")

    params = init_params(config)
    fit_standardization(params, dataset, config)
    state = TrainState.fresh(params)

    # batch plan: FF draws shuffled windows, LSTM consumes whole blocks
    if config.mode == "FF":
        all_x = {m: np.concatenate([b[m] for b, _ in train_blocks])
                 for m in MODALITIES}
        all_labels = np.concatenate([ls for _, ls in train_blocks])

        def batches():
            while True:
                idx = rng.permutation(len(all_labels))
                for s in range(0, len(idx), BATCH_SIZE):
                    sel = idx[s:s + BATCH_SIZE]
                    yield {m: x[sel] for m, x in all_x.items()}, all_labels[sel]
    else:
        def batches():
            while True:
                for bi in rng.permutation(len(train_blocks)):
                    yield train_blocks[bi]

    history = []
    best_acc = -1.0
    best_params = copy.deepcopy(params)
    bad = 0
    for n_batch, (batch, ls) in enumerate(batches(), start=1):
        if n_batch > max_batches:
            break
        _, grads, _ = loss_and_grads(params, batch, _one_hot(ls), config,
                                     lam=WEIGHT_DECAY, train_mode=True, rng=rng)
        params, state = sgd_momentum_step(params, grads, state)
        if n_batch % VALIDATE_EVERY == 0:
            acc = _accuracy(params, val_blocks, config)
            history.append(acc)
            if acc > best_acc:
                best_acc = acc
                best_params = copy.deepcopy(params)
                bad = 0
            else:
                bad += 1
                if bad >= EARLY_STOP_PATIENCE:
                    break
    return best_params, history


# ---------------------------------------------------------------- inference

def windows_from_encoded(enc: EncodedRecording, segment_s: int) -> dict:
    """The recording's whole non-overlapping ``segment_s`` windows as one
    C-contiguous batch ``{modality: (N, channels, length)}``.

    A CC window is the mean of its ``segment_s / 5`` consecutive 5 s rows;
    an octave window is the slice of each channel, channels concatenated.
    """
    t = enc.tensors
    if enc.mode == "cc":
        k = segment_s // CC_WINDOW_S
        n = t["EEG"].shape[0] // k

        def means(name):
            rows = t[name][:n * k]
            return rows.reshape(n, k, rows.shape[1]).mean(axis=1)

        batch = {"EEG": means("EEG")[:, None, :],
                 "EOG": np.stack([means(x) for x in ("EOG_L", "EOG_R", "EOG_X")],
                                 axis=1),
                 "EMG": means("EMG")[:, None, :]}
    else:
        width = int(round(segment_s * enc.fs))
        n = t["EEG_C"].shape[1] // width

        def cut(*names):
            parts = [t[k][:, :n * width].reshape(len(t[k]), n, width).transpose(1, 0, 2)
                     for k in names]
            out = np.empty((n, sum(p.shape[1] for p in parts), width))
            return np.concatenate(parts, axis=1, out=out)

        batch = {"EEG": cut("EEG_C", "EEG_O"), "EOG": cut("EOG_L", "EOG_R"),
                 "EMG": cut("EMG_CHIN")}
    if n == 0:
        raise ShapeMismatch("recording shorter than one window")
    return batch


def modality_shapes_for(encoding: str, segment_s: int) -> dict:
    if encoding == "cc":
        return {"EEG": (1, 201), "EOG": (3, 401), "EMG": (1, 41)}
    length = int(100 * segment_s)
    return {"EEG": (10, length), "EOG": (10, length), "EMG": (5, length)}


# ---------------------------------------------------------------- archive

def save_params(params, config: NetworkConfig, directory: str, name: str) -> str:
    return write_bundle(os.path.join(directory, f"{name}.model.json"), params,
                        {"config": json.loads(config.to_json())})


def load_params(path: str):
    params, meta = read_bundle(path)
    return params, NetworkConfig.from_json(json.dumps(meta.get("config")))
