"""Mini-batch training with Adam, early stopping on dev LER, and full
determinism under a fixed seed.

All randomness flows from the experiment seed through named sub-seeds
(split, init, epoch shuffles), so identical configs reproduce identical
checkpoints bit for bit.
"""

import json
import time
import zlib
from dataclasses import dataclass, field
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
    init_parameters,
    save_checkpoint,
)


def rng_for(seed: int, name: str, *extra) -> np.random.Generator:
    """Deterministic generator for a named purpose under one root seed."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8")), *extra])
    )


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 100
    patience: int = 10
    grad_clip_norm: float = 5.0
    seed: int = 0
    split_train: float = 0.8
    split_dev: float = 0.1
    split_test: float = 0.1

    def __post_init__(self):
        ratios = (self.split_train, self.split_dev, self.split_test)
        if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios {ratios} must be nonnegative and sum to 1")
        if not 0 <= self.patience <= self.max_epochs:
            raise ConfigError("patience must lie in [0, max_epochs]")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.learning_rate < 0 or self.seed < 0:
            raise ConfigError("learning_rate and seed must be nonnegative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if not (self.epsilon > 0 and self.grad_clip_norm >= 0):
            raise ConfigError("epsilon must be positive and grad_clip_norm nonnegative "
                              "(0 turns clipping off)")


def split_corpus(records, ratios, seed):
    """Deterministic shuffled split into (train, dev, test), each sorted by
    id. Sizes land within one utterance of ratio * N."""
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise ConfigError(f"split ratios {ratios} must be nonnegative and sum to 1")
    n = len(records)
    if n < 3:
        raise DataError(f"corpus of {n} utterances is too small to split")
    order = rng_for(seed, "split").permutation(n)
    n_train = round(ratios[0] * n)
    n_dev = min(round(ratios[1] * n), n - n_train)

    def part(indices):
        return sorted((records[i] for i in indices), key=lambda r: r.id)

    return (part(order[:n_train]),
            part(order[n_train:n_train + n_dev]),
            part(order[n_train + n_dev:]))


@dataclass
class TrainItem:
    """One utterance ready for the training loop."""

    id: str
    features: np.ndarray  # (T, D) float64
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
        if not item.target:
            raise DataError(f"utterance '{item.id}' has an empty target")


def make_batches(items, batch_size: int, rng=None):
    """Bucket by frame count (shuffle, stable-sort, chunk). Every item
    appears in exactly one batch."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    pool = list(items)
    if rng is not None:
        pool = [pool[i] for i in rng.permutation(len(pool))]
    pool.sort(key=lambda item: item.num_frames)
    return [pool[i:i + batch_size] for i in range(0, len(pool), batch_size)]


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def clip_global_norm(grads, max_norm: float):
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise TrainingError(f"non-finite gradient in tensor '{name}'")
        total += float((grad * grad).sum())
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        return {name: grad * scale for name, grad in grads.items()}, norm
    return grads, norm


def adam_step(params: ModelParameters, grads, state: AdamState, config: TrainConfig):
    """One Adam update with bias correction, clipping applied first.
    Returns fresh parameter and state objects (inputs are not mutated)."""
    grads, _ = clip_global_norm(grads, config.grad_clip_norm)
    t = state.step + 1
    b1, b2 = config.beta1, config.beta2
    new_m, new_v, new_tensors = {}, {}, {}
    for name, value in params.tensors.items():
        g = grads[name]
        m = b1 * state.m.get(name, 0.0) + (1 - b1) * g
        v = b2 * state.v.get(name, 0.0) + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        new_m[name], new_v[name] = m, v
        new_tensors[name] = value - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return ModelParameters(params.config, new_tensors), AdamState(t, new_m, new_v)


@dataclass
class TrainResult:
    best_dev_ler: float
    best_epoch: int
    epochs: list  # per-epoch record dicts


def dev_label_error_rate(params, items) -> float:
    pairs = [(item.target, decode(params, item.features).labels) for item in items]
    return corpus_ler(pairs, [item.id for item in items])


def train(train_items, dev_items, model_config, train_config: TrainConfig,
          run_dir, vocabulary) -> TrainResult:
    """Full training loop. Writes one JSON line per epoch and keeps the
    checkpoint with the lowest dev LER in run_dir."""
    if not train_items or not dev_items:
        raise DataError("training needs non-empty train and dev splits")
    train_items = sorted(train_items, key=lambda item: item.id)
    dev_items = sorted(dev_items, key=lambda item: item.id)
    check_feasible(train_items)
    check_feasible(dev_items)

    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = run_dir / "checkpoint.bin"

    seed = train_config.seed
    params = init_parameters(model_config, int(rng_for(seed, "init").integers(2 ** 31)))
    adam = AdamState()

    best = float("inf")
    best_epoch = 0
    since_improvement = 0
    records = []
    with open(run_dir / "epochs.jsonl", "w", encoding="utf-8") as log:
        for epoch in range(1, train_config.max_epochs + 1):
            started = time.monotonic()
            shuffle = rng_for(seed, "epoch", epoch)
            total_loss = 0.0
            for batch in make_batches(train_items, train_config.batch_size, shuffle):
                logits_list, cache = forward_batch(params, [it.features for it in batch])
                dlogits = []
                for logits, item in zip(logits_list, batch):
                    result = ctc.ctc_loss(logits, item.target)
                    total_loss += result.loss
                    dlogits.append(result.grad / len(batch))
                if not np.isfinite(total_loss):
                    kept = (f"last good checkpoint kept at {checkpoint_path}" if best_epoch
                            else "no checkpoint was written")
                    raise TrainingError(
                        f"training diverged (non-finite loss) at epoch {epoch}; {kept}")
                grads = backward_batch(params, cache, dlogits)
                params, adam = adam_step(params, grads, adam, train_config)

            train_loss = total_loss / len(train_items)
            dev_ler = dev_label_error_rate(params, dev_items)
            record = {
                "epoch": epoch,
                "train_loss": train_loss,
                "dev_ler": dev_ler,
                "seconds": round(time.monotonic() - started, 3),
                "lr": train_config.learning_rate,
            }
            records.append(record)
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

    return TrainResult(best_dev_ler=best, best_epoch=best_epoch, epochs=records)
