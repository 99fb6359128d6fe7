"""Toy-scale sleep stage classifier with the published training recipe.

Topology: one small 1-D conv sub-network per modality (EEG, EOG, EMG), whose
pooled features are concatenated and fed to either a fully connected layer
(FF mode) or an LSTM cell carrying state across consecutive windows (LSTM
mode), ending in a 5-way softmax.  A recording's windows are one batch
``{modality: (N, channels, length)}`` from ``windows_from_encoded``.

One conv-stack implementation and one head function serve training and
scoring: ``forward`` is their one-member case.  ``score_ensemble`` runs a
whole ensemble in two phases.  First the conv features, on the one pool, in
jobs of (chunk of windows, modality, group): a group is the members whose
input standardization for that modality is equal, byte for byte, so its
windows are standardised once and its layer 0 runs as one product against
the members' stacked filters, STACKED_WINDOWS windows at a time; then each
member's deeper layers run on its slice.  Then the heads run from each
member's features through ``_hidden``: FF ones by way of ``forward``, the
LSTM ones all in one call, which steps them in lockstep.
Beside the batch, scoring a night holds the members' concatenated features
(about 40 floats per window each) and, for each job running, its pooled
layer-0 output and one run's scratch; each member's probabilities are
bitwise those of its own ``forward``.  The backward cache is kept only
when ``loss_and_grads`` asks for it, and dropout runs if and only if a
random generator is passed.  Gradients are analytic and checked against
central finite differences; the conv backward stops above the input, whose
standardization has no trainable parameters.
``forward``, ``loss_and_grads``, ``train`` and ``score_ensemble`` run BLAS
at one thread (``pool.one_blas_thread``), whatever count the host program
set.

Training constants: cross-entropy (as printed, with the (1-y)log(1-p) term)
plus L2 at lambda=1e-5, SGD with momentum 0.9, learning rate 0.005 decaying
as exp(-t/12000), init N(0, 0.01), dropout keep 0.5 on LSTM outputs.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DatasetTooSmall, InvalidSpec, NaNGradient, ShapeMismatch
from .encoding import (CC_PARAMS, CC_TENSORS, CC_WINDOW_S, INPUTS, MODES,
                       OCTAVE_CUTOFFS_HZ, EncodedRecording)
from .pool import one_blas_thread, thread_map
from .preprocess import TARGET_FS
from .signal_io import VALID_EPOCH_S
from .store import bundle, check_shapes, read_bundle, write_files

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
CHUNK = 128                # windows per conv-stack pass; bounds what scoring holds
# Windows per stacked layer-0 product when scoring.  A product has a column
# per window and output sample, and OpenBLAS rounds the last (columns mod 8)
# columns, and every column of a one-row product, in kernels that depend on
# the number of rows (filters).  A run of a multiple of 8 windows leaves no
# such columns, whatever the window length.  So the stacked product runs
# only on whole runs of STACKED_WINDOWS windows and over members of two or
# more filters; a shorter last run, and a one-filter member, run each
# member's own product, as a lone ``forward`` does.  16 windows hold half
# the scratch of 32 (the float64 input, tensordot's column copy and the
# product); each extra run costs ~0.1 ms of calls, ~4% of an 8 h CC night's
# scoring.
STACKED_WINDOWS = CHUNK // 8
LOG_EPS = 1e-12


@dataclass(frozen=True)
class NetworkConfig:
    mode: str = "LSTM"                    # "FF" or "LSTM"
    complexity: str = "low"               # "low" or "high"
    segment_s: int = 5                    # one of signal_io.VALID_EPOCH_S
    encoding: str = "cc"                  # "cc" (2 conv layers) or "octave" (3)
    modality_shapes: dict = field(default_factory=dict)  # default: modality_shapes_for
    conv_features: dict = field(default_factory=dict)   # modality -> per-layer counts
    hidden: int = 16
    seed: int = 0

    def __post_init__(self):
        for name, allowed in (("mode", ("FF", "LSTM")), ("complexity", ("low", "high")),
                              ("segment_s", VALID_EPOCH_S), ("encoding", MODES)):
            value = getattr(self, name)
            if value not in allowed or type(value) is not type(allowed[0]):
                raise InvalidSpec(f"{name} must be one of {allowed}, got {value!r}")
        # the exact type test refuses true for 1 and 16.0 for 16
        for name, least in (("hidden", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise InvalidSpec(f"{name} must be an integer >= {least}, got {value!r}")
        if not self.modality_shapes:
            object.__setattr__(self, "modality_shapes",
                               modality_shapes_for(self.encoding, self.segment_s))
        if not self.conv_features:
            depth = 3 if self.encoding == "octave" else 2
            base = 8 if self.complexity == "high" else 4
            object.__setattr__(self, "conv_features", {
                m: [base * (2 ** i) for i in range(depth)] for m in MODALITIES})
        for name in ("modality_shapes", "conv_features"):
            if set(getattr(self, name)) != set(MODALITIES):
                raise InvalidSpec(f"{name} must name exactly {list(MODALITIES)}, "
                                  f"got {list(getattr(self, name))}")
        for shape in self.modality_shapes.values():
            if (not isinstance(shape, (tuple, list)) or len(shape) != 2
                    or any(type(n) is not int or n < 1 for n in shape)):
                raise InvalidSpec(f"a modality shape must be two integers > 0 "
                                  f"(channels, length), got {shape!r}")
        for counts in self.conv_features.values():
            if not counts or any(type(c) is not int or c < 1 for c in counts):
                raise InvalidSpec(f"conv feature counts must be one or more integers > 0, "
                                  f"got {counts!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

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


def _param_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every array a model of ``config`` holds."""
    shapes: dict[str, tuple[int, ...]] = {}
    feat_total = 0
    for m in MODALITIES:
        c_in, _ = config.modality_shapes[m]
        for i, f in enumerate(config.conv_features[m]):
            shapes[f"conv{i}/{m}/w"] = (f, c_in, KERNEL)
            shapes[f"conv{i}/{m}/b"] = (f,)
            c_in = f
        feat_total += c_in
        shapes[f"{NORM_PREFIX}{m}/mean"] = shapes[f"{NORM_PREFIX}{m}/std"] = (
            config.modality_shapes[m][0], 1)
    h = config.hidden
    if config.mode == "FF":
        shapes.update({"fc1/w": (h, feat_total), "fc1/b": (h,)})
    else:
        shapes.update({"lstm/wx": (4 * h, feat_total), "lstm/wh": (4 * h, h),
                       "lstm/b": (4 * h,)})
    shapes.update({"out/w": (5, h), "out/b": (5,)})
    return shapes


def init_params(config: NetworkConfig) -> dict[str, np.ndarray]:
    """Weights drawn i.i.d. from N(0, INIT_VARIANCE) in ``_param_shapes``
    order; biases start at zero so no ReLU unit is dead before training, and
    the input standardization at mean 0, std 1."""
    rng = np.random.default_rng(config.seed)
    std = float(np.sqrt(INIT_VARIANCE))
    return {name: (np.ones(shape) if name.endswith("/std")
                   else np.zeros(shape) if name.endswith(("/b", "/mean"))
                   else rng.normal(0.0, std, size=shape))
            for name, shape in _param_shapes(config).items()}


def trainable_names(params: dict[str, np.ndarray]) -> list[str]:
    return sorted(n for n in params if not n.startswith(NORM_PREFIX))


# ---------------------------------------------------------------- layers

def _conv_relu(x, w, b):
    # x (B,c,L), w (f,c,k) -> ReLU(conv + bias) (B,f,L-k+1), bias and ReLU in place
    xs = sliding_window_view(x, KERNEL, axis=2)       # (B,c,L_out,k)
    a = np.einsum("bclk,fck->bfl", xs, w, optimize=True)
    a += b[None, :, None]
    return np.maximum(a, 0.0, out=a)


def _meanpool2(a, out=None):
    l_out = a.shape[2] // 2
    out = np.add(a[:, :, 0:2 * l_out:2], a[:, :, 1:2 * l_out:2], out=out)
    return np.divide(out, 2, out=out)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _output(params, h):
    return _softmax(h @ params["out/w"].T + params["out/b"])


def _checked_batch(models, batch) -> dict:
    xs = {m: np.asarray(batch[m]) for m in MODALITIES}
    for _, config in models:
        for m, x in xs.items():
            c, L = config.modality_shapes[m]
            if x.shape[1:] != (c, L) or len(x) != len(xs["EEG"]):
                raise ShapeMismatch(f"{m}: expected (B,{c},{L}) with the EEG's B, "
                                    f"got {x.shape}")
    return xs


def _first_layer_groups(models, modality) -> list:
    """``[(members, mean, std, w, b)]``: the indices of the members that share
    ``modality``'s input standardization (its dtype and bytes) and whether
    layer 0 is their last, with their layer-0 filters and biases stacked.  A
    member of one filter is a group of its own (see ``STACKED_WINDOWS``)."""
    mean, std = f"{NORM_PREFIX}{modality}/mean", f"{NORM_PREFIX}{modality}/std"
    groups: dict = {}
    for i, (params, config) in enumerate(models):
        mu, sd, counts = params[mean], params[std], config.conv_features[modality]
        key = (mu.dtype.str, mu.tobytes(), sd.dtype.str, sd.tobytes(), len(counts) == 1,
               i if counts[0] == 1 else -1)
        groups.setdefault(key, []).append(i)
    out = []
    for members in groups.values():
        w, b = (np.concatenate([models[i][0][f"conv0/{modality}/{p}"] for i in members])
                for p in ("w", "b"))
        params = models[members[0]][0]
        out.append((members, params[mean], params[std], w, b))
    return out


def _conv_job(models, x, modality, group, zs, s, layers):
    """One group's conv stacks of ``modality`` on the chunk ``x`` of windows
    from ``s``: each member's pooled features into its ``zs[i][s:]`` columns,
    and, when ``layers`` is a list, the one member's (input, activation) of
    each layer appended to it.  Layer 0 runs STACKED_WINDOWS windows at a
    time, each standardised once, into one pooled buffer, so a job holds that
    buffer and one run's input, column copy and product; with ``layers`` it
    runs on the whole chunk, whose input and activations the backward pass
    reads.  The deeper layers run member by member on the member's slice."""
    members, mu, sd, w, b = group
    configs = [models[i][1] for i in members]
    bounds = np.cumsum([0] + [c.conv_features[modality][0] for c in configs])
    last = len(configs[0].conv_features[modality]) == 1
    n = len(x)
    # filter-major, as the products come out of ``_conv_relu``: the pooling
    # writes in their order, and a member's slice is one block
    out = np.empty((len(w), n) if last else (len(w), n, (x.shape[2] - KERNEL + 1) // 2))
    out = out.swapaxes(0, 1)
    step = n if layers is not None else STACKED_WINDOWS
    for t in range(0, n, step):
        h = (np.asarray(x[t:t + step], dtype=float) - mu[None]) / sd[None]
        for lo, hi in ([(0, len(w))] if len(h) == step else zip(bounds[:-1], bounds[1:])):
            a = _conv_relu(h, w[lo:hi], b[lo:hi])
            if layers is not None:
                layers.append((h, a))
            if last:
                out[t:t + len(h), lo:hi] = a.mean(axis=2)
            else:
                _meanpool2(a, out=out[t:t + len(h), lo:hi])
    first = MODALITIES.index(modality)
    for i, config, lo, hi in zip(members, configs, bounds[:-1], bounds[1:]):
        params, counts = models[i][0], config.conv_features[modality]
        h = out[:, lo:hi]
        for j in range(1, len(counts)):
            a = _conv_relu(h, params[f"conv{j}/{modality}/w"], params[f"conv{j}/{modality}/b"])
            if layers is not None:
                layers.append((h, a))
            h = _meanpool2(a) if j < len(counts) - 1 else a.mean(axis=2)
        col = sum(config.conv_features[m][-1] for m in MODALITIES[:first])
        zs[i][s:s + n, col:col + counts[-1]] = h


def _conv_features(models, batch, map_fn, keep_cache=False):
    """Each member's pooled conv features (B, F) of ``batch``, from jobs of
    (chunk of windows, modality, ``_first_layer_groups`` group) that
    ``map_fn`` runs; and the list of each job's layers if ``keep_cache`` (one
    member).  A kept cache holds whole CHUNKs, over which the backward pass
    sums; otherwise a chunk is half of one, so that jobs running at once hold
    less."""
    xs = _checked_batch(models, batch)
    B = len(xs["EEG"])
    zs = [np.empty((B, sum(c.conv_features[m][-1] for m in MODALITIES))) for _, c in models]
    groups = {m: _first_layer_groups(models, m) for m in MODALITIES}
    size = CHUNK if keep_cache else CHUNK // 2
    jobs = [(s, m, group) for s in range(0, B, size) for m in MODALITIES
            for group in groups[m]]

    def run(job):
        s, m, group = job
        layers = [] if keep_cache else None
        _conv_job(models, xs[m][s:s + size], m, group, zs, s, layers)
        return layers

    return zs, list(map_fn(run, jobs))


def _conv_stack_back(params, layers, dfeat, modality, grads):
    """Adds each of ``modality``'s conv weight and bias gradients to ``grads``,
    from the gradient ``dfeat`` of its pooled features; input gradients only
    from layer 1 up, as the standardised windows hold no parameters."""
    dh = dfeat[:, :, None] / layers[-1][1].shape[2]      # the global average, broadcast
    for i in reversed(range(len(layers))):
        x, act = layers[i]
        if i < len(layers) - 1:                          # the mean pool of two
            dh = np.repeat(dh / 2.0, 2, axis=2)
            if act.shape[2] % 2:
                dh = np.pad(dh, ((0, 0), (0, 0), (0, 1)))
        dy = dh * (act > 0)
        grads[f"conv{i}/{modality}/w"] += np.einsum(
            "bclk,bfl->fck", sliding_window_view(x, KERNEL, axis=2), dy, optimize=True)
        grads[f"conv{i}/{modality}/b"] += dy.sum(axis=(0, 2))
        if i:
            w, dh = params[f"conv{i}/{modality}/w"], np.zeros(x.shape)
            for k in range(KERNEL):
                dh[:, :, k:k + dy.shape[2]] += np.einsum("fc,bfl->bcl", w[:, :, k], dy,
                                                         optimize=True)


def _hidden(models, zs, cache=None):
    """Each member's hidden outputs (B, H) from its features ``zs[i]`` (B, F):
    an FF member's ReLU of ``fc1``; every LSTM member stepped through the
    windows from a zero state in one loop.  There each member makes its own
    ``wx @ z[t] + wh @ h`` into its slice of one gate vector, and one update
    of the gates, cell and output runs over all members' units, with the
    gates laid out i, f, o, g.  With ``cache`` (one member) the FF
    pre-activations ``fc1_pre``, or the LSTM's ``hs``, ``cs`` and activated
    ``gates`` (i, f, o, g) per window, go into it."""
    out, heads = [], []
    for (params, config), z in zip(models, zs):
        if config.mode == "FF":
            pre = z @ params["fc1/w"].T + params["fc1/b"]
            out.append(np.maximum(pre, 0.0))
            if cache is not None:
                cache["fc1_pre"] = pre
        else:
            out.append(None)
            heads.append((params, z))
    if not heads:
        return out
    sizes = [params["lstm/wh"].shape[1] for params, _ in heads]
    units = np.cumsum([0] + sizes)
    H, B = units[-1], len(heads[0][1])
    order = np.concatenate([4 * units[j] + q * n + np.arange(n)
                            for q in (0, 1, 3, 2) for j, n in enumerate(sizes)])
    b = np.concatenate([params["lstm/b"] for params, _ in heads])[order]
    steps = [(params["lstm/wx"], params["lstm/wh"], z, 4 * lo, 4 * hi, lo, hi)
             for (params, z), lo, hi in zip(heads, units[:-1], units[1:])]
    g, h_t, c_t, h = np.empty(4 * H), np.zeros(H), np.zeros(H), np.empty((B, H))
    if cache is not None:
        cache.update(hs=h, cs=np.empty((B, H)), gates=np.empty((B, 4 * H)))
    for t in range(B):
        for wx, wh, z, glo, ghi, lo, hi in steps:
            g[glo:ghi] = wx @ z[t] + wh @ h_t[lo:hi]
        gates = g[order] + b
        s = _sigmoid(gates[:3 * H])
        i_g, f_g, o_g = s[:H], s[H:2 * H], s[2 * H:]
        g_g = np.tanh(gates[3 * H:])
        c_t = f_g * c_t + i_g * g_g
        h_t = o_g * np.tanh(c_t)
        h[t] = h_t
        if cache is not None:
            cache["cs"][t], cache["gates"][t] = c_t, np.concatenate([s, g_g])
    # each member's outputs in an array of their own, as the output layer reads them
    hs = iter([np.ascontiguousarray(h[:, lo:hi]) for lo, hi in zip(units[:-1], units[1:])])
    return [next(hs) if x is None else x for x in out]


@one_blas_thread()
def forward(params, batch, config: NetworkConfig,
            rng: np.random.Generator | None = None, keep_cache: bool = False, z=None):
    """Probabilities for a batch of windows.

    ``batch`` maps modality name to an array (B, channels, length).  FF mode
    treats the B windows independently; LSTM mode consumes them as one
    temporal sequence from a zero state.  The conv stacks run a chunk of
    windows at a time (``_conv_features``), then the head over their
    concatenated features ``z`` (B, F) (``_hidden``), as in
    ``score_ensemble``, which passes each FF member's ``z``, computed with
    the rest of its ensemble's, so that only the head runs here.
    Dropout masks the LSTM outputs if and only if ``rng`` is given.
    Returns (probs (B, 5), cache): the cache that ``loss_and_grads`` reads
    if ``keep_cache``, else None, so scoring holds no per-layer activations.
    """
    models = [(params, config)]
    if z is None:
        (z,), layers = _conv_features(models, batch, map, keep_cache)
    elif keep_cache:
        raise InvalidSpec("a kept cache holds the conv stacks, so forward must run them")
    cache = None
    if keep_cache:
        k = len(MODALITIES)
        cache = {"z": z, "stacks": [layers[s:s + k] for s in range(0, len(layers), k)]}
    (h,) = _hidden(models, [z], cache)
    if config.mode == "LSTM" and rng is not None:
        mask = (rng.random(h.shape) < DROPOUT_KEEP) / DROPOUT_KEEP
        h = h * mask
        if keep_cache:
            cache["dropout_mask"] = mask
    if keep_cache:
        cache["h"] = h
    return _output(params, h), cache


@one_blas_thread()
def score_ensemble(models, batch) -> list[np.ndarray]:
    """Each member's probabilities (B, 5) of ``batch``, bitwise those of its
    own ``forward``; ``models`` is a list of (params, config), FF and LSTM
    heads mixed as they come.  Two phases:

    1. Conv features, on the one pool, in jobs of (half a CHUNK of windows,
       modality, group of members that share the modality's input
       standardization): each run of STACKED_WINDOWS windows is
       standardised once and the group's layer 0 runs on it as one product
       against its stacked filters, then each member's deeper layers run on
       its slice.  A job holds its pooled layer-0 output and one run's
       scratch, not a product over the whole job.
    2. Heads, at one BLAS thread, as on the pool: each FF member's
       ``forward`` from its own features, and ``_hidden`` over every LSTM
       member, as ``forward`` runs it over one, so they step in lockstep.
       16 LSTM heads of a 0.5 h octave night took
       0.097-0.110 s one member at a time and 0.040-0.048 s in lockstep
       (2-core VM); the step loop holds the GIL, so they stay off the pool.
    """
    zs, _ = _conv_features(models, batch, thread_map)
    lstm = [(m, z) for m, z in zip(models, zs) if m[1].mode == "LSTM"]
    hs = iter(_hidden([m for m, _ in lstm], [z for _, z in lstm]))
    return [_output(params, next(hs)) if config.mode == "LSTM"
            else forward(params, batch, config, z=z)[0] for (params, config), z in zip(models, zs)]


def loss(pred_probs, one_hot, params=None) -> float:
    """Mean cross-entropy (as printed, with the complement term), plus
    WEIGHT_DECAY times the squared trainable weights if ``params`` is given."""
    p = np.clip(pred_probs, LOG_EPS, 1.0 - LOG_EPS)
    y = np.asarray(one_hot, dtype=float)
    data = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum() / p.shape[0]
    reg = 0.0
    if params is not None:
        reg = WEIGHT_DECAY * sum(float((params[k] ** 2).sum())
                                 for k in trainable_names(params))
    return float(data + reg)


def _dlogits(probs, one_hot):
    n = probs.shape[0]
    p = np.clip(probs, LOG_EPS, 1.0 - LOG_EPS)
    inside = (probs > LOG_EPS) & (probs < 1.0 - LOG_EPS)
    dp = -(one_hot / p - (1.0 - one_hot) / (1.0 - p)) / n
    dp = dp * inside
    # softmax jacobian: dL/dlogit_i = p_i * (dp_i - sum_j dp_j p_j)
    dot = (dp * probs).sum(axis=1, keepdims=True)
    return probs * (dp - dot)


@one_blas_thread()
def loss_and_grads(params, batch, one_hot, config: NetworkConfig, rng=None):
    """``loss`` with ``params`` and its analytic gradients, from the one
    ``forward`` that keeps its cache; dropout as in ``forward`` (if and only
    if ``rng`` is given)."""
    probs, cache = forward(params, batch, config, rng=rng, keep_cache=True)
    value = loss(probs, one_hot, params)
    grads = {n: np.zeros_like(params[n]) for n in trainable_names(params)}
    dlog = _dlogits(probs, np.asarray(one_hot, dtype=float))

    grads["out/w"] += dlog.T @ cache["h"]
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
        hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
        zero = np.zeros(H)
        dz = np.zeros_like(z)
        dh_next = np.zeros(H)
        dc_next = np.zeros(H)
        for t in reversed(range(z.shape[0])):
            dht = dh[t] + dh_next
            i_g, f_g, o_g, g_g = gates[t].reshape(4, H)
            tc = np.tanh(cs[t])
            do = dht * tc
            dc = dht * o_g * (1 - tc ** 2) + dc_next
            di = dc * g_g
            df = dc * (cs[t - 1] if t else zero)     # the state starts at zero
            dg = dc * i_g
            dgi = di * i_g * (1 - i_g)
            dgf = df * f_g * (1 - f_g)
            dgg = dg * (1 - g_g ** 2)
            dgo = do * o_g * (1 - o_g)
            dgates = np.concatenate([dgi, dgf, dgg, dgo])
            grads["lstm/wx"] += np.outer(dgates, z[t])
            grads["lstm/wh"] += np.outer(dgates, hs[t - 1] if t else zero)
            grads["lstm/b"] += dgates
            dz[t] = wx.T @ dgates
            dh_next = wh.T @ dgates
            dc_next = dc * f_g
    splits = np.cumsum([config.conv_features[m][-1] for m in MODALITIES])[:-1]
    for k, chunk in enumerate(cache["stacks"]):
        dfeats = np.split(dz[k * CHUNK:(k + 1) * CHUNK], splits, axis=1)
        for m, layers, dfeat in zip(MODALITIES, chunk, dfeats):
            _conv_stack_back(params, layers, dfeat, m, grads)
    for n in grads:
        grads[n] += 2.0 * WEIGHT_DECAY * params[n]
    return value, grads


@dataclass
class TrainState:
    velocity: dict
    t: int = 0

    @classmethod
    def fresh(cls, params) -> "TrainState":
        return cls(velocity={n: np.zeros_like(params[n])
                             for n in trainable_names(params)})

    def learning_rate(self) -> float:
        return LEARNING_RATE_0 * float(np.exp(-self.t / LR_TAU))


def sgd_momentum_step(params, grads, state: TrainState):
    """w <- w + eta*v with v <- MOMENTUM*v - grad; eta = learning_rate()."""
    eta = state.learning_rate()
    for n in state.velocity:
        g = grads[n]
        if not np.all(np.isfinite(g)):
            raise NaNGradient(f"non-finite gradient in {n} at step {state.t}")
        state.velocity[n] = MOMENTUM * state.velocity[n] - g
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


def fit_standardization(params, dataset):
    """Per-channel mean/std over the training windows, stored in params."""
    for m in MODALITIES:
        xs = np.concatenate([batch[m] for batch, _ in dataset], axis=0, dtype=float)
        mu = xs.mean(axis=(0, 2), keepdims=False)[:, None]
        sd = xs.std(axis=(0, 2), keepdims=False)[:, None]
        sd[sd < 1e-8] = 1.0
        params[f"{NORM_PREFIX}{m}/mean"] = mu
        params[f"{NORM_PREFIX}{m}/std"] = sd
    return params


def _accuracy(params, blocks, config):
    hits = [forward(params, b, config)[0].argmax(axis=1) == ls for b, ls in blocks]
    return float(np.concatenate(hits).mean())


@one_blas_thread()
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
    fit_standardization(params, dataset)
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
        _, grads = loss_and_grads(params, batch, _one_hot(ls), config, rng=rng)
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
            rows = np.asarray(t[name][:n * k], dtype=float)
            return rows.reshape(n, k, rows.shape[1]).mean(axis=1)

        batch = {m: np.stack([means(name) for name in names], axis=1)
                 for m, names in CC_TENSORS.items()}
    else:
        width = int(round(segment_s * TARGET_FS))
        n = t["EEG_C"].shape[1] // width

        def cut(*names):
            parts = [t[k][:, :n * width].reshape(len(t[k]), n, width).transpose(1, 0, 2)
                     for k in names]
            out = np.empty((n, sum(p.shape[1] for p in parts), width),
                           dtype=np.result_type(*parts))
            return np.concatenate(parts, axis=1, out=out)

        batch = {m: cut(*roles) for m, roles in INPUTS["octave"].items()}
    if n == 0:
        raise ShapeMismatch("recording shorter than one window")
    return batch


def modality_shapes_for(encoding: str, segment_s: int) -> dict:
    if encoding == "cc":
        return {m: (len(names), CC_PARAMS[m].n_lags) for m, names in CC_TENSORS.items()}
    bands, length = len(OCTAVE_CUTOFFS_HZ), int(TARGET_FS * segment_s)
    return {m: (bands * len(roles), length) for m, roles in INPUTS["octave"].items()}


# ---------------------------------------------------------------- archive

def param_files(params, config: NetworkConfig, directory: str, name: str) -> dict:
    """The files of the model bundle ``<name>.model.json``, for ``write_files``."""
    return bundle(os.path.join(directory, f"{name}.model.json"), params,
                  {"config": json.loads(config.to_json())})


def save_params(params, config: NetworkConfig, directory: str, name: str) -> str:
    return write_files(param_files(params, config, directory, name))


def load_params(path: str):
    """(params, config) of a model bundle; ``CorruptHeader`` naming the array
    unless it holds exactly the arrays, and shapes, that ``init_params`` makes."""
    params, meta = read_bundle(path)
    config = NetworkConfig.from_json(json.dumps(meta.get("config")))
    check_shapes(path, params, _param_shapes(config))
    return params, config
