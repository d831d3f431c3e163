"""Mini-batch training with Adam, early stopping on dev LER, and full
determinism under a fixed seed.

All randomness flows from the experiment seed through named sub-seeds
(split, init, epoch shuffles, which only reorder equal frame counts), so
identical configs reproduce identical checkpoints bit for bit.
"""

import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ctc
from .errors import ConfigError, DataError, TrainingError
from .evaluation import corpus_ler
from .model import (
    ModelParameters,
    backward_batch,
    decode,
    forward_batch,
    save_checkpoint,
)

# the moment decay rates and denominator offset recommended by Kingma & Ba
# (2015), "Adam: A Method for Stochastic Optimization"
ADAM_BETAS = (0.9, 0.999)
ADAM_EPSILON = 1e-8
# the global gradient norm is clipped to this, as in Pascanu et al. (2013),
# "On the difficulty of training recurrent neural networks"
GRAD_CLIP_NORM = 5.0
# the train and dev shares of the corpus; test takes the rest
SPLIT = (0.8, 0.1)


def rng_for(seed: int, name: str, *extra) -> np.random.Generator:
    """Deterministic generator for a named purpose under one root seed."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8")), *extra])
    )


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.patience <= self.max_epochs:
            raise ConfigError("patience must lie in [0, max_epochs]")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.learning_rate < 0 or self.seed < 0:
            raise ConfigError("learning_rate and seed must be nonnegative")


def split_corpus(records, seed: int):
    """Deterministic shuffled split into (train, dev, test) under the
    seed, each sorted by id. Train and dev land within one utterance of
    their SPLIT share of N; test gets the rest."""
    n = len(records)
    if n < 3:
        raise DataError(f"corpus of {n} utterances is too small to split")
    order = rng_for(seed, "split").permutation(n)
    n_train = round(SPLIT[0] * n)
    n_dev = min(round(SPLIT[1] * n), n - n_train)

    def part(indices):
        return sorted((records[i] for i in indices), key=lambda r: r.id)

    return (part(order[:n_train]),
            part(order[n_train:n_train + n_dev]),
            part(order[n_train + n_dev:]))


@dataclass
class TrainItem:
    """One utterance ready for the training loop."""

    id: str
    features: np.ndarray  # (T, D) float64 until forward_batch pads it
    target: list  # non-blank label indices

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]


def check_feasible(items) -> None:
    """CTC feasibility is a dataset error, surfaced before training."""
    for item in items:
        need = ctc.min_frames(item.target)
        if item.num_frames < need:
            raise DataError(
                f"utterance '{item.id}': {item.num_frames} frames cannot emit "
                f"{len(item.target)} labels (needs {need}); it cannot be trained"
            )


def make_batches(items, batch_size: int, rng=None):
    """Bucket by frame count (shuffle, stable-sort, chunk), shortest first:
    each item in one batch; the shuffle only reorders equal frame counts."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    pool = list(items)
    if rng is not None:
        pool = [pool[i] for i in rng.permutation(len(pool))]
    pool.sort(key=lambda item: item.num_frames)
    return [pool[i:i + batch_size] for i in range(0, len(pool), batch_size)]


@dataclass
class AdamState:
    """The step count and both moments, vectors in the parameter layout."""

    step: int = 0
    m: np.ndarray | float = 0.0
    v: np.ndarray | float = 0.0


def clip_global_norm(grads: ModelParameters):
    """The gradient vector scaled so its L2 norm is at most GRAD_CLIP_NORM,
    and the norm before scaling."""
    if not np.isfinite(grads.flat).all():
        name = next(n for n, grad in grads.tensors.items() if not np.isfinite(grad).all())
        raise TrainingError(f"non-finite gradient in tensor '{name}'")
    norm = np.sqrt(np.sum(grads.flat * grads.flat))
    if norm > GRAD_CLIP_NORM:
        return grads.flat * (GRAD_CLIP_NORM / norm), norm
    return grads.flat, norm


def adam_step(params: ModelParameters, grads, state: AdamState, config: TrainConfig):
    """One Adam update with bias correction, clipping applied first.
    Returns fresh parameter and state objects (inputs are not mutated) and
    the gradient norm before clipping."""
    g, norm = clip_global_norm(grads)
    t = state.step + 1
    b1, b2 = ADAM_BETAS
    m = b1 * state.m + (1 - b1) * g
    v = b2 * state.v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    flat = params.flat - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return ModelParameters(params.config, flat), AdamState(t, m, v), norm


@dataclass
class TrainResult:
    best_dev_ler: float
    best_epoch: int


def dev_label_error_rate(params, items) -> float:
    decoded = decode(params, [item.features for item in items])
    pairs = [(item.target, labels) for item, labels in zip(items, decoded)]
    return corpus_ler(pairs, [item.id for item in items])


@np.errstate(over="raise", invalid="raise")
def train(train_items, dev_items, params: ModelParameters, train_config: TrainConfig,
          run_dir, vocabulary) -> TrainResult:
    """Train params, which it leaves untouched, on CTC-feasible items (see
    check_feasible). Writes one JSON line per epoch and keeps the checkpoint
    with the lowest dev LER in run_dir, which must exist. A non-finite loss,
    or an overflow or invalid value in the arithmetic, is divergence."""
    if not train_items or not dev_items:
        raise DataError("training needs non-empty train and dev splits")
    train_items = sorted(train_items, key=lambda item: item.id)
    dev_items = sorted(dev_items, key=lambda item: item.id)
    run_dir = Path(run_dir)
    checkpoint_path = run_dir / "checkpoint.bin"
    adam = AdamState()

    best = float("inf")
    best_epoch = 0
    since_improvement = 0
    with open(run_dir / "epochs.jsonl", "w", encoding="utf-8") as log:
        for epoch in range(1, train_config.max_epochs + 1):
            started = time.monotonic()
            shuffle = rng_for(train_config.seed, "epoch", epoch)
            total_loss = 0.0
            max_grad_norm, clipped_steps = 0.0, 0
            try:
                for batch in make_batches(train_items, train_config.batch_size, shuffle):
                    logits, cache = forward_batch(params, [item.features for item in batch])
                    losses, grad = ctc.ctc_loss(logits, [item.num_frames for item in batch],
                                                [item.target for item in batch])
                    for loss in losses.tolist():
                        total_loss += loss
                    if not np.isfinite(total_loss):
                        raise FloatingPointError("non-finite loss")
                    grads = backward_batch(params, cache, grad / len(batch))
                    del cache  # the activations are not needed by the update; free them first
                    params, adam, norm = adam_step(params, grads, adam, train_config)
                    max_grad_norm = max(max_grad_norm, float(norm))
                    clipped_steps += int(norm > GRAD_CLIP_NORM)
                dev_ler = dev_label_error_rate(params, dev_items)
            except FloatingPointError as exc:
                kept = (f"last good checkpoint kept at {checkpoint_path}" if best_epoch
                        else "no checkpoint was written")
                raise TrainingError(f"training diverged ({exc}) at epoch {epoch}; "
                                    f"{kept}") from exc

            train_loss = total_loss / len(train_items)
            record = {
                "epoch": epoch,
                "train_loss": train_loss,
                "dev_ler": dev_ler,
                "max_grad_norm": max_grad_norm,
                "clipped_steps": clipped_steps,
                "seconds": round(time.monotonic() - started, 3),
            }
            log.write(json.dumps(record) + "\n")
            log.flush()

            if dev_ler < best:
                best = dev_ler
                best_epoch = epoch
                since_improvement = 0
                save_checkpoint(checkpoint_path, params, vocabulary)
            else:
                since_improvement += 1
                if since_improvement > train_config.patience:
                    break

    return TrainResult(best_dev_ler=best, best_epoch=best_epoch)
