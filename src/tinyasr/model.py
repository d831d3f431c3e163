"""Bidirectional LSTM stack mapping feature frames to per-frame label logits.

Forward and backward passes are implemented directly in numpy (float64),
with exact backpropagation through time. The two directions of a layer run
in one time loop, stacked on a leading axis of 2. Batches are padded to the
longest utterance; the backward direction reverses each row within its true
length so padding always sits at the processing tail and never touches
valid frames, in either pass.
"""

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import ctc
from .errors import ConfigError, DataError

DIRECTIONS = ("fwd", "bwd")
CHECKPOINT_MAGIC = b"TASRMODL"
CONTAINER_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    vocab_size: int  # labels excluding the blank
    num_layers: int = 3
    hidden_units: int = 250  # per direction

    def __post_init__(self):
        if self.num_layers < 1 or self.hidden_units < 1:
            raise ConfigError("model needs at least 1 layer and 1 hidden unit")
        if self.input_dim < 1 or self.vocab_size < 1:
            raise ConfigError("model needs positive input_dim and vocab_size")

    @property
    def output_dim(self) -> int:
        return self.vocab_size + 1


class ModelParameters:
    """Named parameter tensors plus the config they belong to."""

    def __init__(self, config: ModelConfig, tensors: dict):
        self.config = config
        self.tensors = dict(tensors)

    def __getitem__(self, name):
        return self.tensors[name]

    def names(self):
        return list(self.tensors.keys())


def parameter_shapes(config: ModelConfig) -> dict:
    """Ordered {name: shape}. Gate blocks are packed i, f, g, o."""
    H, shapes = config.hidden_units, {}
    for layer in range(config.num_layers):
        in_dim = config.input_dim if layer == 0 else 2 * H
        for direction in DIRECTIONS:
            prefix = f"layer{layer}.{direction}"
            shapes[f"{prefix}.W"] = (4 * H, in_dim)
            shapes[f"{prefix}.R"] = (4 * H, H)
            shapes[f"{prefix}.b"] = (4 * H,)
    shapes["proj.W"] = (config.output_dim, 2 * H)
    shapes["proj.b"] = (config.output_dim,)
    return shapes


def init_parameters(config: ModelConfig, seed: int) -> ModelParameters:
    """Uniform Glorot weights, zero biases except forget-gate bias of 1."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    H = config.hidden_units
    tensors = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".b"):
            bias = np.zeros(shape)
            if not name.startswith("proj"):
                bias[H:2 * H] = 1.0
            tensors[name] = bias
        else:
            fan_out, fan_in = shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
    return ModelParameters(config, tensors)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reverse_padded(x, lengths):
    """Reverse each row within its true length; padding stays at the tail."""
    out = np.zeros_like(x)
    for b, length in enumerate(lengths):
        out[b, :length] = x[b, length - 1::-1]
    return out


class ForwardCache:
    """Everything the backward pass needs, tied to the parameters used.

    Per layer, a tuple (xs, gates, cs, hs) with a leading axis of 2 for the
    fwd and bwd directions, each in its own processing order: the layer
    inputs (2, B, T, D), the gate activations i, f, g, o (2, B, T, 4H), and
    the cell and hidden states (2, B, T, H)."""

    def __init__(self, params, lengths):
        self.params = params
        self.lengths = lengths
        self.layers = []
        self.top = None


def _stacked(params, layer, name):
    """One layer's fwd and bwd tensor of a name, stacked on a leading axis."""
    return np.stack([params[f"layer{layer}.{d}.{name}"] for d in DIRECTIONS])


def _layer_forward(params, layer, x, lengths):
    """Both directions of one layer in a single time loop. Returns the
    layer output (B, T, 2H), padded tails zeroed, and its cache entry."""
    Wt = _stacked(params, layer, "W").transpose(0, 2, 1)
    Rt = _stacked(params, layer, "R").transpose(0, 2, 1)
    b = _stacked(params, layer, "b")[:, None]
    B, T, _ = x.shape
    H = Rt.shape[1]
    xs = np.stack([x, _reverse_padded(x, lengths)])

    gates = np.zeros((2, B, T, 4 * H))
    cs = np.zeros((2, B, T, H))
    hs = np.zeros((2, B, T, H))
    h = c = np.zeros((2, B, H))
    for t in range(T):
        z = xs[:, :, t] @ Wt + h @ Rt + b
        gi, gf, gg, go = z[..., :H], z[..., H:2 * H], z[..., 2 * H:3 * H], z[..., 3 * H:]
        gi[...], gf[...], gg[...], go[...] = _sigmoid(gi), _sigmoid(gf), np.tanh(gg), _sigmoid(go)
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        gates[:, :, t], cs[:, :, t], hs[:, :, t] = z, c, h

    out = np.concatenate([hs[0], _reverse_padded(hs[1], lengths)], axis=2)
    for b_idx, length in enumerate(lengths):
        out[b_idx, length:] = 0.0
    return out, (xs, gates, cs, hs)


def forward_batch(params: ModelParameters, feature_list):
    """Run the stack over a batch of (T_i, D) arrays.

    Returns ([logits (T_i, V+1)], cache).
    """
    config = params.config
    lengths = []
    for feats in feature_list:
        if feats.ndim != 2 or feats.shape[1] != config.input_dim:
            raise DataError(
                f"feature dimension {feats.shape} does not match model input_dim "
                f"{config.input_dim}"
            )
        if feats.shape[0] < 1:
            raise DataError("empty feature matrix")
        lengths.append(feats.shape[0])

    B, T = len(feature_list), max(lengths)
    x = np.zeros((B, T, config.input_dim))
    for b, feats in enumerate(feature_list):
        x[b, :lengths[b]] = feats

    cache = ForwardCache(params, lengths)
    for layer in range(config.num_layers):
        x, layer_cache = _layer_forward(params, layer, x, lengths)
        cache.layers.append(layer_cache)

    cache.top = x
    logits = x @ params["proj.W"].T + params["proj.b"]
    return [logits[b, :lengths[b]] for b in range(B)], cache


def decode(params: ModelParameters, features, beam_width=None):
    """Forward one utterance, then greedy decoding, or prefix beam search
    when beam_width is set. The only inference path: dev LER, evaluate
    and transcribe all decode through it.

    Deliberately one utterance at a time: a padded batch changes the
    logits' rounding, and at one BLAS thread a B-row recurrent step costs
    about as much as B one-row steps."""
    (logits,), _ = forward_batch(params, [features])
    if beam_width is None:
        return ctc.greedy_decode(logits)
    return ctc.beam_decode(logits, beam_width)


def _layer_backward(params, layer, layer_cache, d_out, lengths, grads):
    """Backpropagate both directions of one layer through time in a single
    loop; adds the layer's gradients to grads and returns d(layer input)."""
    W = _stacked(params, layer, "W")
    R = _stacked(params, layer, "R")
    xs, gates, cs, hs = layer_cache
    _, B, T, H = hs.shape
    dhs = np.stack([d_out[..., :H], _reverse_padded(d_out[..., H:], lengths)])

    dW = np.zeros_like(W)
    dR = np.zeros_like(R)
    db = np.zeros((2, 4 * H))
    dxs = np.zeros_like(xs)
    dz = np.zeros((2, B, 4 * H))
    dzt = dz.transpose(0, 2, 1)
    dh_next = dc_next = np.zeros((2, B, H))
    for t in range(T - 1, -1, -1):
        g = gates[:, :, t]
        gi, gf, gg, go = g[..., :H], g[..., H:2 * H], g[..., 2 * H:3 * H], g[..., 3 * H:]
        tc = np.tanh(cs[:, :, t])
        dh = dhs[:, :, t] + dh_next
        do = dh * tc
        dc = dh * go * (1.0 - tc * tc) + dc_next
        c_prev = cs[:, :, t - 1] if t > 0 else 0.0
        h_prev = hs[:, :, t - 1] if t > 0 else np.zeros((2, B, H))
        dz[..., :H] = dc * gg * gi * (1.0 - gi)
        dz[..., H:2 * H] = dc * c_prev * gf * (1.0 - gf)
        dz[..., 2 * H:3 * H] = dc * gi * (1.0 - gg * gg)
        dz[..., 3 * H:] = do * go * (1.0 - go)
        dW += dzt @ xs[:, :, t]
        dR += dzt @ h_prev
        db += dz.sum(axis=1)
        dxs[:, :, t] = dz @ W
        dh_next = dz @ R
        dc_next = dc * gf

    for d, direction in enumerate(DIRECTIONS):
        prefix = f"layer{layer}.{direction}"
        grads[f"{prefix}.W"], grads[f"{prefix}.R"], grads[f"{prefix}.b"] = dW[d], dR[d], db[d]
    dx = dxs[0]
    dx += _reverse_padded(dxs[1], lengths)
    return dx


def backward_batch(params: ModelParameters, cache: ForwardCache, dlogits_list):
    """Exact gradients of a scalar loss w.r.t. every parameter, given the
    loss gradient on each utterance's logits."""
    if cache.params is not params:
        raise ValueError("forward cache does not belong to these parameters")
    if len(dlogits_list) != len(cache.lengths):
        raise ValueError("gradient list does not match cached batch size")

    config = params.config
    B, T = len(cache.lengths), cache.top.shape[1]
    K = config.output_dim
    dlogits = np.zeros((B, T, K))
    for b, (dl, length) in enumerate(zip(dlogits_list, cache.lengths)):
        if dl.shape != (length, K):
            raise ValueError(f"logits gradient {dl.shape} does not match ({length}, {K})")
        dlogits[b, :length] = dl

    grads = {}
    flat_dl = dlogits.reshape(-1, K)
    grads["proj.W"] = flat_dl.T @ cache.top.reshape(-1, 2 * config.hidden_units)
    grads["proj.b"] = flat_dl.sum(axis=0)

    dx = dlogits @ params["proj.W"]
    for layer in range(config.num_layers - 1, -1, -1):
        dx = _layer_backward(params, layer, cache.layers[layer], dx, cache.lengths, grads)
    return grads


def save_checkpoint(path, params: ModelParameters, vocabulary) -> None:
    """Layout: magic, version, json header (config, vocabulary, tensor
    list), then the named tensors as little-endian float64 in header
    order."""
    header = {
        "config": asdict(params.config),
        "vocabulary": list(vocabulary),
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in params.tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CONTAINER_VERSION, len(blob)))
        fh.write(blob)
        for tensor in params.tensors.values():
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (parameters, vocabulary). A missing, truncated or garbled
    checkpoint, or one whose tensor list or vocabulary does not fit its
    model config, is a DataError."""
    try:
        with open(path, "rb") as fh:
            if fh.read(8) != CHECKPOINT_MAGIC:
                raise DataError(f"{path}: wrong file magic")
            version, header_len = struct.unpack("<II", fh.read(8))
            if version != CONTAINER_VERSION:
                raise DataError(f"{path}: unsupported container version {version}")
            header = json.loads(fh.read(header_len).decode("utf-8"))
            config = ModelConfig(**header["config"])
            shapes = parameter_shapes(config)
            if header["tensors"] != [{"name": n, "shape": list(s)} for n, s in shapes.items()]:
                raise DataError(f"{path}: tensor list does not match the model config")
            tensors = {}
            for name, shape in shapes.items():
                data = np.frombuffer(fh.read(8 * int(np.prod(shape))), dtype="<f8")
                tensors[name] = data.reshape(shape).copy()
            vocabulary = header["vocabulary"]
            if not (isinstance(vocabulary, list) and len(vocabulary) == config.output_dim
                    and all(isinstance(label, str) for label in vocabulary)):
                raise DataError(f"{path}: vocabulary does not match the model config")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (struct.error, ValueError) as exc:
        raise DataError(f"{path}: truncated or garbled ({exc})") from exc
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"{path}: not a checkpoint header ({exc!r})") from exc
    return ModelParameters(config, tensors), vocabulary
