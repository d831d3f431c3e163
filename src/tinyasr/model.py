"""Bidirectional LSTM stack mapping feature frames to per-frame label logits.

Forward and backward passes are implemented directly in numpy, with exact
backpropagation through time, in the dtype of the parameter vector:
float32, as init_parameters and load_checkpoint give it. The kernels hold
no dtype of their own, so float64 parameters run the same code in float64.
The two directions of a layer run in one time loop, stacked on a leading
axis of 2. A batch comes sorted by length, shortest first, and each time
step runs only the rows still inside their length (at least two). Inside
the stack the batch is packed time-major over just those rows, like
PyTorch's PackedSequence, so a step's rows are one contiguous block and
no array holds a frame that no step runs. The backward direction reverses
each row within its length through one gather index. The logits come back
padded to the longest row, as the CTC loss takes them, and its gradient
goes back the same way; padding never touches valid frames, either way.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import ctc
from .errors import ConfigError, DataError
from .variants import LabelVocabulary

CHECKPOINT_MAGIC = b"TASRMODL"
CONTAINER_VERSION = 3
# decode's batches: at most this many utterances and this many padded
# frames, which is a full batch of the longest utterances `prepare` keeps
DECODE_BATCH = 16
DECODE_FRAMES = 16_000


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
    """One vector, flat, in parameter_shapes order, with tensors as its
    named views; its dtype sets the model's arithmetic. float32 zeros
    unless given a vector of exactly that length, kept in its own dtype."""

    def __init__(self, config: ModelConfig, flat=None):
        self.config = config
        if flat is None:
            count = parameter_count(config)  # before any work that grows with the layers
            try:
                flat = np.zeros(count, np.float32)
            except (MemoryError, ValueError) as exc:  # too large to allocate or to index
                raise ConfigError(f"a model of {count:,} parameters does not fit in "
                                  "memory") from exc
        shapes = parameter_shapes(config)
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
        self.flat = flat.reshape(ends[-1])
        self.tensors = {name: part.reshape(shape) for (name, shape), part
                        in zip(shapes.items(), np.split(self.flat, ends[:-1]))}

    def __getitem__(self, name):
        return self.tensors[name]


def parameter_shapes(config: ModelConfig) -> dict:
    """Ordered {name: shape}. A layer's tensors stack its fwd (index 0) and
    bwd (index 1) direction on a leading axis. Gates are packed i, f, g, o."""
    H, shapes = config.hidden_units, {}
    for layer in range(config.num_layers):
        in_dim = config.input_dim if layer == 0 else 2 * H
        shapes[f"layer{layer}.W"] = (2, 4 * H, in_dim)
        shapes[f"layer{layer}.R"] = (2, 4 * H, H)
        shapes[f"layer{layer}.b"] = (2, 4 * H)
    shapes["proj.W"] = (config.output_dim, 2 * H)
    shapes["proj.b"] = (config.output_dim,)
    return shapes


def parameter_count(config: ModelConfig) -> int:
    """The number of values in parameter_shapes, in closed form: the first
    layer reads input_dim features, each later one the 2H of the layer
    below."""
    H, gates = config.hidden_units, 8 * config.hidden_units  # 4 gates, 2 directions
    return (gates * (config.input_dim + H + 1) + (config.num_layers - 1) * gates * (3 * H + 1)
            + config.output_dim * (2 * H + 1))


def init_parameters(config: ModelConfig, seed: int) -> ModelParameters:
    """Uniform Glorot weights, zero biases except forget-gate bias of 1.
    Weight matrices are drawn in float64 layer by layer, direction by
    direction, W before R, then the projection, and each value is stored
    rounded once to float32."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    H, layers = config.hidden_units, range(config.num_layers)
    params = ModelParameters(config)
    matrices = [params[f"layer{layer}.{kind}"][d] for layer in layers for d in (0, 1)
                for kind in "WR"]
    for matrix in matrices + [params["proj.W"]]:
        fan_out, fan_in = matrix.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        matrix[...] = rng.uniform(-limit, limit, size=matrix.shape)
    for layer in layers:
        params[f"layer{layer}.b"][:, H:2 * H] = 1.0
    return params


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class ForwardCache:
    """A batch's packed layout and all the backward pass needs, tied to the parameters used.

    Row b holds utterance b, of lengths[b] frames, shortest first. Step t
    runs rows s = starts[t]:, those inside their length but never fewer
    than two (numpy multiplies one row by another path, which rounds
    differently); an extra row runs on its padding, which is dropped. The
    N slots hold step 0's rows, then step 1's, and so on: steps lists each
    step's (s, lo, hi), its slots being lo:hi. frames[k] is slot k's index
    among the B * T padded frames. order (2, N) lists the slots in each
    direction's processing order, the bwd one reversing each row within
    its length. outputs (N, 2) picks a layer's output from its stacked
    states (2 * (B + N), H), or a zero state for an extra row.

    Per layer, a tuple (xs, gates, cs, hs), fwd and bwd stacked on axis 0:
    by slot, the inputs (2, N, D) and gate activations i, f, g, o
    (2, N, 4H); the cell and hidden states (2, B + N, H), B zero initial
    states and then the state after each slot, so a step reads the states
    s + lo:s + hi and writes B + lo:B + hi. top is the last layer's output."""

    def __init__(self, params, lengths):
        B, T = len(lengths), lengths[-1]
        starts = np.minimum(np.searchsorted(lengths, np.arange(T), side="right"), max(B - 2, 0))
        ends = np.cumsum(B - starts)  # so row b's slot at step t is ends[t] - B + b
        rows = np.concatenate([np.arange(s, B) for s in starts])
        times, lasts = np.repeat(np.arange(T), B - starts), np.asarray(lengths)[rows] - 1
        inside, N = times <= lasts, len(rows)
        self.params, self.lengths, self.layers, self.top = params, lengths, [], None
        self.steps = list(zip(starts.tolist(), (ends - B + starts).tolist(), ends.tolist()))
        self.frames = rows * T + times
        back = ends[np.where(inside, lasts - times, times)] - B + rows
        self.order = np.stack([np.arange(N), back])
        self.outputs = np.where(inside, self.order + [[B], [2 * B + N]], [[0], [B + N]]).T


def _layer_forward(params, layer, x, cache):
    """Both directions of one layer in a single time loop over the input x
    (N, D), packed as the ForwardCache gives it. Returns the layer output
    (N, 2H), zero in an extra row's slots, and its cache entry."""
    Wt = params[f"layer{layer}.W"].transpose(0, 2, 1)
    # a step's product with a transposed view of R runs about twice as slow
    Rt = np.ascontiguousarray(params[f"layer{layer}.R"].transpose(0, 2, 1))
    b = params[f"layer{layer}.b"][:, None]
    N, B, H = len(x), len(cache.lengths), Rt.shape[1]
    xs = x[cache.order]

    gates = xs @ Wt
    cs, hs = np.zeros((2, 2, B + N, H), gates.dtype)
    for s, lo, hi in cache.steps:
        z = gates[:, lo:hi]
        z[...] = z + hs[:, s + lo:s + hi] @ Rt + b
        gi, gf, gg, go = z[..., :H], z[..., H:2 * H], z[..., 2 * H:3 * H], z[..., 3 * H:]
        gi[...], gf[...], gg[...], go[...] = _sigmoid(gi), _sigmoid(gf), np.tanh(gg), _sigmoid(go)
        cs[:, B + lo:B + hi] = gf * cs[:, s + lo:s + hi] + gi * gg
        hs[:, B + lo:B + hi] = go * np.tanh(cs[:, B + lo:B + hi])

    out = hs.reshape(-1, H)[cache.outputs].reshape(N, 2 * H)
    return out, (xs, gates, cs, hs)


def forward_batch(params: ModelParameters, feature_list, keep_cache=True):
    """Run the stack over a batch of (T_b, D) arrays, sorted shortest first.

    The features are packed (see ForwardCache) in the parameters' dtype,
    which the logits and the cache keep. Returns (logits (B, T, V+1),
    cache): row b holds utterance b's logits in its first T_b frames, T
    being the longest, and the projection bias past them. The cache, which
    backward_batch reads, holds every layer's arrays; without keep_cache it
    is None and each layer's arrays are freed once the next layer has its
    input."""
    config = params.config
    for feats in feature_list:
        if feats.ndim != 2 or feats.shape[1] != config.input_dim:
            raise DataError(f"feature dimension {feats.shape} does not match model "
                            f"input_dim {config.input_dim}")
        if feats.shape[0] < 1:
            raise DataError("empty feature matrix")

    lengths = [len(feats) for feats in feature_list]
    if lengths != sorted(lengths):
        raise ValueError("forward_batch takes a batch sorted shortest first")
    B, T = len(lengths), lengths[-1]
    x = np.zeros((B * T, config.input_dim), params.flat.dtype)
    for row, feats in enumerate(feature_list):
        x[row * T:row * T + lengths[row]] = feats

    cache = ForwardCache(params, lengths)
    x = x[cache.frames]
    for layer in range(config.num_layers):
        x, layer_cache = _layer_forward(params, layer, x, cache)
        if keep_cache:
            cache.layers.append(layer_cache)
        del layer_cache  # else it would live on through the next layer's call

    # numpy runs a stacked product one utterance at a time; a packed one may round otherwise
    cache.top, top = x, np.zeros((B * T, x.shape[1]), x.dtype)
    top[cache.frames] = x
    logits = top.reshape(B, T, -1) @ params["proj.W"].T + params["proj.b"]
    return logits, cache if keep_cache else None


def decode(params: ModelParameters, feature_list, beam_width=None):
    """Decode each (T_i, D) array greedily, or by prefix beam search when
    beam_width is set; returns one list of label ids per input, in input
    order. The only inference path: dev LER, evaluate and transcribe all
    decode through it.

    The input alone sets the batches, so a list decodes to the same bits
    every time. Utterances are sorted by frame count, keeping input order
    among equal counts, and cut into batches of at most DECODE_BATCH
    utterances and DECODE_FRAMES padded frames (count times longest); an
    utterance longer than that runs alone. No cache is kept, so memory
    peaks at one layer's packed arrays for one batch."""
    lengths = [len(feats) for feats in feature_list]
    batches = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if batches and len(batches[-1]) < DECODE_BATCH \
                and (len(batches[-1]) + 1) * lengths[i] <= DECODE_FRAMES:
            batches[-1].append(i)
        else:
            batches.append([i])

    decoded = [None] * len(feature_list)
    for batch in batches:
        logits, _ = forward_batch(params, [feature_list[i] for i in batch],
                                  keep_cache=False)
        for row, i in enumerate(batch):
            row_logits = logits[row, :lengths[i]]
            decoded[i] = (ctc.greedy_decode(row_logits) if beam_width is None
                          else ctc.beam_decode(row_logits, beam_width))
    return decoded


def _layer_backward(params, layer, layer_cache, d_out, cache, grads):
    """Backpropagate both directions of one layer through time in a single
    loop, from the packed d(layer output) (N, 2H); writes the layer's
    gradients into grads, returns d(layer input) (N, D). Each step runs the
    rows its forward step ran; the carried state of the rows it skips stays
    exactly zero."""
    R = params[f"layer{layer}.R"]
    xs, gates, cs, hs = layer_cache
    N, B, H = len(d_out), len(cache.lengths), R.shape[2]
    dhs = d_out.reshape(N, 2, H)[cache.order, [[0], [1]]]

    dz = np.empty_like(gates)
    dh_next, dc_next = np.zeros((2, 2, B, H), gates.dtype)
    for s, lo, hi in reversed(cache.steps):
        g = gates[:, lo:hi]
        gi, gf, gg, go = g[..., :H], g[..., H:2 * H], g[..., 2 * H:3 * H], g[..., 3 * H:]
        tc = np.tanh(cs[:, B + lo:B + hi])
        dh = dhs[:, lo:hi] + dh_next[:, s:]
        dc = dh * go * (1.0 - tc * tc) + dc_next[:, s:]
        dzt = dz[:, lo:hi]
        dzt[..., :H] = dc * gg * gi * (1.0 - gi)
        dzt[..., H:2 * H] = dc * cs[:, s + lo:s + hi] * gf * (1.0 - gf)
        dzt[..., 2 * H:3 * H] = dc * gi * (1.0 - gg * gg)
        dzt[..., 3 * H:] = dh * tc * go * (1.0 - go)
        dh_next[:, s:] = dzt @ R
        dc_next[:, s:] = dc * gf

    np.matmul(dz.transpose(0, 2, 1), xs, out=grads[f"layer{layer}.W"])
    before = np.concatenate([np.arange(s + lo, s + hi) for s, lo, hi in cache.steps])
    np.matmul(dz.transpose(0, 2, 1), hs[:, before], out=grads[f"layer{layer}.R"])
    dz.sum(axis=1, out=grads[f"layer{layer}.b"])
    dxs = dz @ params[f"layer{layer}.W"]
    return dxs[0] + dxs[1, cache.order[1]]


def backward_batch(params: ModelParameters, cache: ForwardCache, dlogits):
    """Exact gradients of a scalar loss w.r.t. every parameter, given the
    loss gradient on forward_batch's padded logits (B, T, V+1), exactly 0.0
    past each row's frames as ctc.ctc_loss gives it, as a ModelParameters
    in the parameters' dtype; the gradient is gathered into the packed
    slots and cast to that dtype once."""
    if cache.params is not params:
        raise ValueError("forward cache does not belong to these parameters")
    config = params.config
    shape = (len(cache.lengths), cache.lengths[-1], config.output_dim)
    if dlogits.shape != shape:
        raise ValueError(f"logits gradient {dlogits.shape} does not match the batch's {shape}")

    grads = ModelParameters(config, np.zeros_like(params.flat))
    dl = np.asarray(dlogits.reshape(-1, config.output_dim)[cache.frames], params.flat.dtype)
    np.matmul(dl.T, cache.top, out=grads["proj.W"])
    dl.sum(axis=0, out=grads["proj.b"])

    dx = dl @ params["proj.W"]
    for layer in range(config.num_layers - 1, -1, -1):
        dx = _layer_backward(params, layer, cache.layers[layer], dx, cache, grads)
    return grads


def save_checkpoint(path, params: ModelParameters, vocabulary) -> None:
    """Layout: magic, version, json header (config, vocabulary, tensor
    list), then the parameter vector as little-endian float32, which holds
    the tensors in header order."""
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
        params.flat.astype("<f4", copy=False).tofile(fh)


def load_checkpoint(path):
    """Returns (parameters, LabelVocabulary). A missing, truncated or
    garbled checkpoint, or one whose tensor list or vocabulary does not fit
    its model config, is a DataError."""
    try:
        with open(path, "rb") as fh:
            if fh.read(8) != CHECKPOINT_MAGIC:
                raise DataError(f"{path}: wrong file magic")
            version, header_len = struct.unpack("<II", fh.read(8))
            if version != CONTAINER_VERSION:
                raise DataError(f"{path}: container version {version}, not "
                                f"{CONTAINER_VERSION}; retrain the run to read it")
            header = json.loads(fh.read(header_len).decode("utf-8"))
            config = ModelConfig(**header["config"])
            # to the end of the file: the file, not the header, bounds the read,
            # and the count is checked before any work that grows with the layers
            flat, count = np.fromfile(fh, dtype="<f4"), parameter_count(config)
            if flat.size != count:
                raise DataError(f"{path}: truncated or garbled (its model config has "
                                f"{count:,} parameters, the file holds {flat.size:,})")
            shapes = parameter_shapes(config)
            if header["tensors"] != [{"name": n, "shape": list(s)} for n, s in shapes.items()]:
                raise DataError(f"{path}: tensor list does not match the model config")
            labels = header["vocabulary"]
            if not isinstance(labels, list) or len(labels) != config.output_dim:
                raise DataError(f"{path}: vocabulary does not match the model config")
            vocabulary = LabelVocabulary(labels=tuple(labels))
            params = ModelParameters(config, flat)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (struct.error, ValueError, RecursionError) as exc:
        raise DataError(f"{path}: truncated or garbled ({exc})") from exc
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"{path}: not a checkpoint header ({exc!r})") from exc
    return params, vocabulary
