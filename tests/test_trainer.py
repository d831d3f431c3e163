import json

import numpy as np
import pytest

from tinyasr.corpus import UtteranceRecord
from tinyasr.errors import ConfigError, DataError, TrainingError
from tinyasr.model import ModelConfig, init_parameters
from tinyasr.training import (
    AdamState,
    TrainConfig,
    TrainItem,
    adam_step,
    check_feasible,
    clip_global_norm,
    make_batches,
    rng_for,
    split_corpus,
    train,
)


def records(n):
    return [UtteranceRecord(id=f"u{i:03d}", audio="a.wav", start_s=float(i),
                            end_s=float(i) + 1.0, transcript="ej", speaker="KP")
            for i in range(n)]


def items(n, dims=3, rng=None, frames=12):
    rng = rng or np.random.default_rng(0)
    return [TrainItem(id=f"u{i:03d}", features=rng.normal(size=(frames, dims)),
                      target=[1 + i % 2]) for i in range(n)]


class TestSplit:
    def test_80_10_10_of_ten(self):
        train_r, dev_r, test_r = split_corpus(records(10), (0.8, 0.1, 0.1), 0)
        assert (len(train_r), len(dev_r), len(test_r)) == (8, 1, 1)

    def test_same_seed_same_split(self):
        a = split_corpus(records(20), (0.8, 0.1, 0.1), 3)
        b = split_corpus(records(20), (0.8, 0.1, 0.1), 3)
        assert [[r.id for r in part] for part in a] == [[r.id for r in part] for part in b]

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            split_corpus(records(10), (0.5, 0.5, 0.5), 0)

    def test_too_small_corpus(self):
        with pytest.raises(DataError):
            split_corpus(records(2), (0.8, 0.1, 0.1), 0)

    def test_ids_disjoint_and_complete(self):
        parts = split_corpus(records(23), (0.7, 0.2, 0.1), 5)
        all_ids = [r.id for part in parts for r in part]
        assert len(all_ids) == 23
        assert len(set(all_ids)) == 23

    def test_sizes_within_one_of_ratio(self):
        for n in (7, 13, 29, 100):
            parts = split_corpus(records(n), (0.6, 0.2, 0.2), 1)
            for part, ratio in zip(parts, (0.6, 0.2, 0.2)):
                assert abs(len(part) - ratio * n) <= 1.0


class TestBatches:
    def test_five_items_batch_two(self):
        assert len(make_batches(items(5), 2)) == 3

    def test_batch_one_no_padding(self):
        batches = make_batches(items(4), 1)
        assert all(len(b) == 1 for b in batches)

    def test_sort_then_chunk_by_length(self):
        rng = np.random.default_rng(1)
        lengths = [10, 100, 11, 99]
        pool = [TrainItem(id=f"u{i}", features=rng.normal(size=(t, 3)), target=[1])
                for i, t in enumerate(lengths)]
        batches = make_batches(pool, 2)
        assert sorted(it.num_frames for it in batches[0]) == [10, 11]
        assert sorted(it.num_frames for it in batches[1]) == [99, 100]

    def test_every_item_exactly_once(self):
        pool = items(17)
        batches = make_batches(pool, 4, rng=np.random.default_rng(2))
        seen = [it.id for b in batches for it in b]
        assert sorted(seen) == sorted(it.id for it in pool)

    def test_feasibility_check_names_utterance(self):
        bad = [TrainItem(id="sick", features=np.zeros((1, 3)), target=[1, 1])]
        with pytest.raises(DataError, match="sick"):
            check_feasible(bad)


class TestAdam:
    def config(self, **kw):
        return TrainConfig(**kw)

    def params(self):
        return init_parameters(
            ModelConfig(input_dim=2, vocab_size=2, num_layers=1, hidden_units=3), 0)

    def test_zero_gradient_keeps_parameters(self):
        params = self.params()
        grads = {n: np.zeros_like(t) for n, t in params.tensors.items()}
        updated, state = adam_step(params, grads, AdamState(), self.config())
        for name in params.names():
            assert np.array_equal(updated[name], params[name])
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        params = self.params()
        grads = {n: np.full_like(t, 0.5) for n, t in params.tensors.items()}
        lr = 1e-3
        updated, _ = adam_step(params, grads, AdamState(),
                               self.config(learning_rate=lr, grad_clip_norm=1e9))
        for name in params.names():
            step = updated[name] - params[name]
            assert np.abs(np.abs(step) - lr).max() < 1e-6 * lr + 1e-10
            assert np.all(np.sign(step) == -1.0)

    def test_clipping_scales_by_half(self):
        grads = {"w": np.array([6.0, 8.0])}  # norm 10
        clipped, norm = clip_global_norm(grads, 5.0)
        assert norm == pytest.approx(10.0)
        assert np.allclose(clipped["w"], [3.0, 4.0])

    def test_non_finite_gradient_names_tensor(self):
        grads = {"layer0.fwd.W": np.array([np.nan])}
        with pytest.raises(TrainingError, match="layer0.fwd.W"):
            clip_global_norm(grads, 5.0)

    def test_zero_learning_rate_is_identity_over_steps(self):
        params = self.params()
        config = self.config(learning_rate=0.0)
        state = AdamState()
        rng = np.random.default_rng(3)
        current = params
        for _ in range(4):
            grads = {n: rng.normal(size=t.shape) for n, t in params.tensors.items()}
            current, state = adam_step(current, grads, state, config)
        for name in params.names():
            assert np.array_equal(current[name], params[name])


class TestTrainConfig:
    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            TrainConfig(split_train=0.5, split_dev=0.5, split_test=0.5)

    def test_patience_cannot_exceed_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=5, patience=6)


class TestRng:
    def test_named_seeds_are_stable(self):
        a = rng_for(7, "epoch", 3).integers(1 << 30)
        b = rng_for(7, "epoch", 3).integers(1 << 30)
        c = rng_for(7, "epoch", 4).integers(1 << 30)
        assert a == b
        assert a != c


def synthetic_items(n, rng, dims=6):
    """Separable toy data: label k places energy in feature block k."""
    out = []
    for i in range(n):
        labels = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 3)))]
        frames = []
        for lab in labels:
            block = rng.normal(0.0, 0.05, size=(6, dims))
            block[:, (lab - 1) * 2:(lab - 1) * 2 + 2] += 2.0
            frames.append(block)
            frames.append(rng.normal(0.0, 0.05, size=(3, dims)))
        feats = np.concatenate(frames)
        out.append(TrainItem(id=f"u{i:03d}", features=feats, target=labels))
    return out


class TestTrainLoop:
    def run(self, tmp_path, seed=0, max_epochs=3, patience=3, name="run"):
        rng = np.random.default_rng(42)
        train_items = synthetic_items(24, rng)
        dev_items = synthetic_items(6, rng)
        config = TrainConfig(batch_size=8, learning_rate=2e-3, max_epochs=max_epochs,
                             patience=patience, seed=seed)
        model_config = ModelConfig(input_dim=6, vocab_size=2, num_layers=1,
                                   hidden_units=8)
        run_dir = tmp_path / name
        result = train(train_items, dev_items, model_config, config, run_dir,
                       ("<blank>", "a", "b"))
        return result, run_dir

    def test_writes_log_and_checkpoint(self, tmp_path):
        result, run_dir = self.run(tmp_path)
        assert (run_dir / "checkpoint.bin").exists()
        assert not (run_dir / "train_state.bin").exists()
        lines = (run_dir / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == len(result.epochs)
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "train_loss", "dev_ler", "seconds", "lr"}

    def test_deterministic_across_runs(self, tmp_path):
        result_a, dir_a = self.run(tmp_path, name="a")
        result_b, dir_b = self.run(tmp_path, name="b")
        assert result_a.best_dev_ler == result_b.best_dev_ler
        assert (dir_a / "checkpoint.bin").read_bytes() == (dir_b / "checkpoint.bin").read_bytes()
        for la, lb in zip((dir_a / "epochs.jsonl").read_text().splitlines(),
                          (dir_b / "epochs.jsonl").read_text().splitlines()):
            ra, rb = json.loads(la), json.loads(lb)
            ra.pop("seconds"), rb.pop("seconds")
            assert ra == rb

    def test_best_dev_ler_is_running_minimum(self, tmp_path):
        result, _ = self.run(tmp_path, max_epochs=5, patience=5)
        lers = [r["dev_ler"] for r in result.epochs]
        assert result.best_dev_ler == min(lers)
        # accepted checkpoints form a non-increasing sequence by construction
        accepted = []
        best = float("inf")
        for value in lers:
            if value < best:
                best = value
                accepted.append(value)
        assert accepted == sorted(accepted, reverse=True)

    def test_patience_zero_stops_after_first_non_improvement(self, tmp_path):
        rng = np.random.default_rng(1)
        train_items = synthetic_items(8, rng)
        dev_items = synthetic_items(3, rng)
        config = TrainConfig(batch_size=4, learning_rate=0.0, max_epochs=10,
                             patience=0, seed=0)
        model_config = ModelConfig(input_dim=6, vocab_size=2, num_layers=1,
                                   hidden_units=4)
        result = train(train_items, dev_items, model_config, config,
                       tmp_path / "p0", ("<blank>", "a", "b"))
        # lr 0 never improves after the first epoch's dev LER is recorded
        assert len(result.epochs) == 2

    def test_zero_learning_rate_checkpoint_equals_initialization(self, tmp_path):
        from tinyasr.model import load_checkpoint
        from tinyasr.training import rng_for

        rng = np.random.default_rng(2)
        train_items = synthetic_items(8, rng)
        dev_items = synthetic_items(3, rng)
        config = TrainConfig(batch_size=4, learning_rate=0.0, max_epochs=3,
                             patience=3, seed=9)
        model_config = ModelConfig(input_dim=6, vocab_size=2, num_layers=1,
                                   hidden_units=4)
        train(train_items, dev_items, model_config, config, tmp_path / "lr0",
              ("<blank>", "a", "b"))
        loaded, _ = load_checkpoint(tmp_path / "lr0" / "checkpoint.bin")
        init_seed = int(rng_for(9, "init").integers(2 ** 31))
        initial = init_parameters(model_config, init_seed)
        for name in initial.names():
            assert np.array_equal(loaded[name], initial[name])

    @pytest.mark.parametrize("nan_from_call,kept", [
        (1, "no checkpoint was written"),
        (25, "last good checkpoint kept at"),
    ])
    def test_divergence_names_checkpoint_only_if_written(self, tmp_path, monkeypatch,
                                                         nan_from_call, kept):
        # one loss per train utterance: calls 1-24 are epoch 1, call 25 is epoch 2
        from tinyasr import ctc

        ctc_loss = ctc.ctc_loss
        calls = []

        def diverging_loss(logits, target):
            calls.append(None)
            result = ctc_loss(logits, target)
            return result if len(calls) < nan_from_call else ctc.CTCResult(np.nan, result.grad)

        monkeypatch.setattr(ctc, "ctc_loss", diverging_loss)
        with pytest.raises(TrainingError, match=kept):
            self.run(tmp_path)
        assert (tmp_path / "run" / "checkpoint.bin").exists() == (nan_from_call > 1)

    def test_empty_split_rejected(self, tmp_path):
        config = TrainConfig()
        model_config = ModelConfig(input_dim=6, vocab_size=2, num_layers=1,
                                   hidden_units=4)
        with pytest.raises(DataError):
            train([], items(3, dims=6), model_config, config, tmp_path / "x",
                  ("<blank>", "a", "b"))
