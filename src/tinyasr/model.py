"""Bidirectional LSTM stack mapping feature frames to per-frame label logits.

Forward and backward passes are implemented directly in numpy (float64),
with exact backpropagation through time. Batches are padded to the longest
utterance; the backward direction reverses each row within its true length
so padding always sits at the processing tail and never touches valid
frames, in either pass.
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


class _DirectionCache:
    __slots__ = ("inputs", "i", "f", "g", "o", "c", "tc", "h")


class ForwardCache:
    """Everything the backward pass needs, tied to the parameters used."""

    def __init__(self, params, lengths):
        self.params = params
        self.lengths = lengths
        self.layers = []  # per layer: {"fwd": _DirectionCache, "bwd": ...}
        self.top = None


def _run_direction(params, prefix, x, lengths, reverse):
    W, R, b = params[f"{prefix}.W"], params[f"{prefix}.R"], params[f"{prefix}.b"]
    B, T, _ = x.shape
    H = R.shape[1]
    xp = _reverse_padded(x, lengths) if reverse else x

    cache = _DirectionCache()
    cache.inputs = xp
    for name in ("i", "f", "g", "o", "c", "tc", "h"):
        setattr(cache, name, np.zeros((B, T, H)))

    h = np.zeros((B, H))
    c = np.zeros((B, H))
    for t in range(T):
        z = xp[:, t] @ W.T + h @ R.T + b
        gi = _sigmoid(z[:, :H])
        gf = _sigmoid(z[:, H:2 * H])
        gg = np.tanh(z[:, 2 * H:3 * H])
        go = _sigmoid(z[:, 3 * H:])
        c = gf * c + gi * gg
        tc = np.tanh(c)
        h = go * tc
        cache.i[:, t], cache.f[:, t], cache.g[:, t], cache.o[:, t] = gi, gf, gg, go
        cache.c[:, t], cache.tc[:, t], cache.h[:, t] = c, tc, h

    out = _reverse_padded(cache.h, lengths) if reverse else cache.h.copy()
    for b_idx, length in enumerate(lengths):
        out[b_idx, length:] = 0.0
    return out, cache


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
        caches = {}
        outs = []
        for direction in DIRECTIONS:
            out, dcache = _run_direction(
                params, f"layer{layer}.{direction}", x, lengths,
                reverse=(direction == "bwd"),
            )
            caches[direction] = dcache
            outs.append(out)
        cache.layers.append(caches)
        x = np.concatenate(outs, axis=2)

    cache.top = x
    logits = x @ params["proj.W"].T + params["proj.b"]
    return [logits[b, :lengths[b]] for b in range(B)], cache


def forward(params: ModelParameters, features):
    """Single-utterance forward pass over a (T, D) array."""
    logits_list, cache = forward_batch(params, [np.asarray(features, dtype=np.float64)])
    return logits_list[0], cache


def decode(params: ModelParameters, features, beam_width=None):
    """Forward one utterance, then greedy decoding, or prefix beam search
    when beam_width is set. The only inference path: dev LER, evaluate
    and transcribe all decode through it.

    Deliberately one utterance at a time: a padded batch changes the
    logits' rounding, and at one BLAS thread a B-row recurrent step costs
    about as much as B one-row steps."""
    logits, _ = forward(params, features)
    if beam_width is None:
        return ctc.greedy_decode(logits)
    return ctc.beam_decode(logits, beam_width)


def _direction_backward(params, prefix, cache, d_out, lengths, reverse, grads):
    W, R = params[f"{prefix}.W"], params[f"{prefix}.R"]
    B, T, H = cache.h.shape
    dhp = _reverse_padded(d_out, lengths) if reverse else d_out

    dW = np.zeros_like(W)
    dR = np.zeros_like(R)
    db = np.zeros(4 * H)
    dxp = np.zeros_like(cache.inputs)
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        gi, gf, gg, go = cache.i[:, t], cache.f[:, t], cache.g[:, t], cache.o[:, t]
        tc = cache.tc[:, t]
        dh = dhp[:, t] + dh_next
        do = dh * tc
        dc = dh * go * (1.0 - tc * tc) + dc_next
        c_prev = cache.c[:, t - 1] if t > 0 else 0.0
        h_prev = cache.h[:, t - 1] if t > 0 else np.zeros((B, H))
        dz = np.concatenate(
            [
                dc * gg * gi * (1.0 - gi),
                dc * c_prev * gf * (1.0 - gf),
                dc * gi * (1.0 - gg * gg),
                do * go * (1.0 - go),
            ],
            axis=1,
        )
        dW += dz.T @ cache.inputs[:, t]
        dR += dz.T @ h_prev
        db += dz.sum(axis=0)
        dxp[:, t] = dz @ W
        dh_next = dz @ R
        dc_next = dc * gf

    grads[f"{prefix}.W"] = dW
    grads[f"{prefix}.R"] = dR
    grads[f"{prefix}.b"] = db
    return _reverse_padded(dxp, lengths) if reverse else dxp


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
    H = config.hidden_units
    for layer in range(config.num_layers - 1, -1, -1):
        d_fwd = dx[..., :H]
        d_bwd = dx[..., H:]
        caches = cache.layers[layer]
        dx = _direction_backward(params, f"layer{layer}.fwd", caches["fwd"],
                                 d_fwd, cache.lengths, False, grads)
        dx += _direction_backward(params, f"layer{layer}.bwd", caches["bwd"],
                                  d_bwd, cache.lengths, True, grads)
    return grads


def backward(params: ModelParameters, cache: ForwardCache, dlogits):
    return backward_batch(params, cache, [dlogits])


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
    checkpoint is a DataError."""
    try:
        with open(path, "rb") as fh:
            if fh.read(8) != CHECKPOINT_MAGIC:
                raise DataError(f"{path}: wrong file magic")
            version, header_len = struct.unpack("<II", fh.read(8))
            if version != CONTAINER_VERSION:
                raise DataError(f"{path}: unsupported container version {version}")
            header = json.loads(fh.read(header_len).decode("utf-8"))
            if "tensors" not in header:
                raise DataError(f"{path}: container header lists no tensors")
            tensors = {}
            for entry in header["tensors"]:
                shape = tuple(entry["shape"])
                count = int(np.prod(shape)) if shape else 1
                data = np.frombuffer(fh.read(count * 8), dtype="<f8")
                tensors[entry["name"]] = data.reshape(shape).copy()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (struct.error, ValueError) as exc:
        raise DataError(f"{path}: truncated or garbled ({exc})") from exc
    config = ModelConfig(**header["config"])
    return ModelParameters(config, tensors), header["vocabulary"]
