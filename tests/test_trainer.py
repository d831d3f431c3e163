import json
import tracemalloc

import numpy as np
import pytest

from tinyasr.corpus import UtteranceRecord
from tinyasr.errors import ConfigError, DataError, TrainingError
from tinyasr.model import ModelConfig, ModelParameters, init_parameters, load_checkpoint
from tinyasr.training import (
    ADAM_BETAS,
    ADAM_EPSILON,
    GRAD_CLIP_NORM,
    SPLIT,
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
        train_r, dev_r, test_r = split_corpus(records(10), 0)
        assert (len(train_r), len(dev_r), len(test_r)) == (8, 1, 1)

    def test_same_seed_same_split(self):
        a = split_corpus(records(20), 3)
        b = split_corpus(records(20), 3)
        assert [[r.id for r in part] for part in a] == [[r.id for r in part] for part in b]

    def test_too_small_corpus(self):
        with pytest.raises(DataError):
            split_corpus(records(2), 0)

    def test_ids_disjoint_and_complete(self):
        parts = split_corpus(records(23), 5)
        all_ids = [r.id for part in parts for r in part]
        assert len(all_ids) == 23
        assert len(set(all_ids)) == 23

    def test_sizes_within_one_of_ratio(self):
        shares = (*SPLIT, 1.0 - sum(SPLIT))
        for n in range(3, 101):
            parts = split_corpus(records(n), 1)
            for part, share in zip(parts, shares):
                assert abs(len(part) - share * n) <= 1.0

    def test_dev_empty_below_6_test_empty_below_8(self):
        # the counts the empty-split error of the pipeline states
        for n in range(3, 101):
            empty = [name for name, part in zip(("train", "dev", "test"),
                                                split_corpus(records(n), 1)) if not part]
            assert empty == (["dev"] if n < 6 else ["test"] if n < 8 else []), n


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


def reference_adam(tensors, grad_dicts, config):
    """Adam over tensors keyed by name, one tensor at a time, as the update
    was first written; the clipping norm runs over the gradients
    concatenated in layout order. Returns the tensors and both moments."""
    b1, b2 = ADAM_BETAS
    tensors, m, v = dict(tensors), {}, {}
    for t, grads in enumerate(grad_dicts, start=1):
        flat = np.concatenate([g.ravel() for g in grads.values()])
        norm = np.sqrt(np.sum(flat * flat))
        if norm > GRAD_CLIP_NORM:
            grads = {name: g * (GRAD_CLIP_NORM / norm) for name, g in grads.items()}
        for name, value in tensors.items():
            g = grads[name]
            m[name] = b1 * m.get(name, 0.0) + (1 - b1) * g
            v[name] = b2 * v.get(name, 0.0) + (1 - b2) * g * g
            m_hat = m[name] / (1 - b1 ** t)
            v_hat = v[name] / (1 - b2 ** t)
            tensors[name] = value - config.learning_rate * m_hat / (np.sqrt(v_hat)
                                                                    + ADAM_EPSILON)
    return tensors, m, v


def concatenated(tensors) -> bytes:
    return np.concatenate([t.ravel() for t in tensors.values()]).tobytes()


class TestAdam:
    def config(self, **kw):
        return TrainConfig(**kw)

    def params(self):
        return init_parameters(
            ModelConfig(input_dim=2, vocab_size=2, num_layers=1, hidden_units=3), 0)

    def test_zero_gradient_keeps_parameters(self):
        params = self.params()
        grads = ModelParameters(params.config)
        updated, state, _ = adam_step(params, grads, AdamState(), self.config())
        assert np.array_equal(updated.flat, params.flat)
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        params = self.params()
        grads = ModelParameters(params.config, np.full(params.flat.size, 0.25))
        assert np.sqrt(np.sum(grads.flat * grads.flat)) < GRAD_CLIP_NORM  # no clipping
        lr = 1e-3
        updated, _, _ = adam_step(params, grads, AdamState(), self.config(learning_rate=lr))
        step = updated.flat - params.flat
        assert np.abs(np.abs(step) - lr).max() < 1e-6 * lr + 1e-10
        assert np.all(np.sign(step) == -1.0)

    @pytest.mark.parametrize("scale", [0.1, 0.5])
    def test_matches_per_tensor_reference_bit_for_bit(self, scale):
        params = self.params()
        config = self.config(learning_rate=0.01)
        rng = np.random.default_rng(4)
        grads = [ModelParameters(params.config, scale * rng.normal(size=params.flat.size))
                 for _ in range(4)]
        # 0.1 keeps every step below the clipping norm and 0.5 lifts every one above
        clips = {np.sqrt(np.sum(g.flat * g.flat)) > GRAD_CLIP_NORM for g in grads}
        assert clips == {scale == 0.5}
        current, state = params, AdamState()
        for g in grads:
            current, state, _ = adam_step(current, g, state, config)
        tensors, m, v = reference_adam(params.tensors, [g.tensors for g in grads], config)
        assert current.flat.tobytes() == concatenated(tensors)
        assert state.m.tobytes() == concatenated(m)
        assert state.v.tobytes() == concatenated(v)
        assert state.step == 4

    def test_clipping_scales_by_half(self):
        grads = ModelParameters(self.params().config)
        grads.flat[:2] = [6.0, 8.0]  # norm 10
        clipped, norm = clip_global_norm(grads)
        assert norm == pytest.approx(10.0)
        assert np.allclose(clipped[:2], [3.0, 4.0]) and not clipped[2:].any()

    def test_non_finite_gradient_names_tensor(self):
        grads = ModelParameters(self.params().config)
        grads["layer0.R"][1, 0, 0] = np.nan
        with pytest.raises(TrainingError, match="'layer0.R'"):
            clip_global_norm(grads)

    def test_zero_learning_rate_is_identity_over_steps(self):
        params = self.params()
        config = self.config(learning_rate=0.0)
        state = AdamState()
        rng = np.random.default_rng(3)
        current = params
        for _ in range(4):
            grads = ModelParameters(params.config, rng.normal(size=params.flat.size))
            current, state, _ = adam_step(current, grads, state, config)
        assert np.array_equal(current.flat, params.flat)

    @pytest.mark.parametrize("scale", [1e-4, 1.0], ids=["unclipped", "clipped"])
    def test_allocates_four_vectors(self, scale):
        # the clipped gradient, which turns scratch, both moments and the
        # new parameters; no elementwise temporary of the vector's size
        params = init_parameters(
            ModelConfig(input_dim=20, vocab_size=5, num_layers=2, hidden_units=64), 0)
        rng = np.random.default_rng(6)
        grads = ModelParameters(
            params.config, scale * rng.normal(size=params.flat.size).astype(np.float32))
        assert (clip_global_norm(grads)[1] > GRAD_CLIP_NORM) == (scale == 1.0)
        _, state, _ = adam_step(params, grads, AdamState(), self.config())
        tracemalloc.start()
        try:
            adam_step(params, grads, state, self.config())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * params.flat.nbytes


class TestTrainConfig:
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


def small_params(hidden_units, seed=0):
    return init_parameters(ModelConfig(input_dim=6, vocab_size=2, num_layers=1,
                                       hidden_units=hidden_units), seed)


def run_dir_at(path):
    path.mkdir()
    return path


class TestTrainLoop:
    def run(self, tmp_path, seed=0, max_epochs=3, patience=3, name="run", params=None):
        rng = np.random.default_rng(42)
        train_items = synthetic_items(24, rng)
        dev_items = synthetic_items(6, rng)
        config = TrainConfig(batch_size=8, learning_rate=2e-3, max_epochs=max_epochs,
                             patience=patience, seed=seed)
        run_dir = run_dir_at(tmp_path / name)
        result = train(train_items, dev_items, params or small_params(8), config, run_dir,
                       ("<blank>", "a", "b"))
        return result, run_dir

    def test_writes_log_and_checkpoint(self, tmp_path):
        _, run_dir = self.run(tmp_path)
        assert (run_dir / "checkpoint.bin").exists()
        assert not (run_dir / "train_state.bin").exists()
        lines = (run_dir / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "train_loss", "dev_ler", "max_grad_norm",
                               "clipped_steps", "seconds"}

    def test_log_states_the_largest_norm_and_the_clipped_steps(self, tmp_path, monkeypatch):
        # 3 batches an epoch: each line sums up the norms clipping saw
        from tinyasr import training

        clip, norms = training.clip_global_norm, []

        def recording(grads):
            clipped, norm = clip(grads)
            norms.append(float(norm))
            return clipped, norm

        monkeypatch.setattr(training, "clip_global_norm", recording)
        _, run_dir = self.run(tmp_path)
        records = [json.loads(line)
                   for line in (run_dir / "epochs.jsonl").read_text().splitlines()]
        assert len(norms) == 3 * len(records) == 9
        for record, epoch in zip(records, (norms[i:i + 3] for i in range(0, 9, 3))):
            assert record["max_grad_norm"] == max(epoch)
            assert record["clipped_steps"] == sum(norm > GRAD_CLIP_NORM for norm in epoch)
        # the run clips some steps and not others
        assert 0 < sum(record["clipped_steps"] for record in records) < 9

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
        result, run_dir = self.run(tmp_path, max_epochs=5, patience=5)
        lers = [json.loads(line)["dev_ler"]
                for line in (run_dir / "epochs.jsonl").read_text().splitlines()]
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
        train(train_items, dev_items, small_params(4), config, run_dir_at(tmp_path / "p0"),
              ("<blank>", "a", "b"))
        # lr 0 never improves after the first epoch's dev LER is recorded
        assert len((tmp_path / "p0" / "epochs.jsonl").read_text().splitlines()) == 2

    def test_zero_learning_rate_checkpoint_equals_initialization(self, tmp_path):
        rng = np.random.default_rng(2)
        train_items = synthetic_items(8, rng)
        dev_items = synthetic_items(3, rng)
        config = TrainConfig(batch_size=4, learning_rate=0.0, max_epochs=3,
                             patience=3, seed=9)
        initial = small_params(4, seed=5)
        train(train_items, dev_items, initial, config, run_dir_at(tmp_path / "lr0"),
              ("<blank>", "a", "b"))
        loaded, _ = load_checkpoint(tmp_path / "lr0" / "checkpoint.bin")
        assert np.array_equal(loaded.flat, initial.flat)

    def test_leaves_the_given_parameters_untouched(self, tmp_path):
        # several runs may start from one vector
        params = small_params(8)
        before = params.flat.tobytes()
        result, run_dir = self.run(tmp_path, params=params)
        assert result.best_epoch > 0
        assert params.flat.tobytes() == before
        assert load_checkpoint(run_dir / "checkpoint.bin")[0].flat.tobytes() != before

    @pytest.mark.parametrize("nan_from_call,kept", [
        (1, "no checkpoint was written"),
        (4, "last good checkpoint kept at"),
    ])
    def test_divergence_names_checkpoint_only_if_written(self, tmp_path, monkeypatch,
                                                         nan_from_call, kept):
        # one call per batch of 8 of the 24 train utterances: calls 1-3 are
        # epoch 1, call 4 starts epoch 2
        from tinyasr import ctc

        ctc_loss = ctc.ctc_loss
        calls = []

        def diverging_loss(logits, frames, targets):
            calls.append(None)
            losses, grad = ctc_loss(logits, frames, targets)
            if len(calls) < nan_from_call:
                return losses, grad
            return np.full_like(losses, np.nan), grad

        monkeypatch.setattr(ctc, "ctc_loss", diverging_loss)
        with pytest.raises(TrainingError, match=kept):
            self.run(tmp_path)
        assert (tmp_path / "run" / "checkpoint.bin").exists() == (nan_from_call > 1)

    def test_overflow_is_divergence(self, tmp_path):
        # a learning rate beyond float32 overflows the first update, which
        # would otherwise leave a NaN checkpoint after a one-epoch run
        rng = np.random.default_rng(42)
        config = TrainConfig(batch_size=8, learning_rate=1e200, max_epochs=1, patience=1)
        with pytest.raises(TrainingError, match=r"^training diverged \(overflow .*\) at "
                                                r"epoch 1; no checkpoint was written$"):
            train(synthetic_items(24, rng), synthetic_items(6, rng), small_params(8), config,
                  run_dir_at(tmp_path / "run"), ("<blank>", "a", "b"))
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_empty_split_rejected(self, tmp_path):
        with pytest.raises(DataError):
            train([], items(3, dims=6), small_params(4), TrainConfig(), tmp_path,
                  ("<blank>", "a", "b"))
