import numpy as np
import pytest

from tinyasr.errors import ConfigError, DataError
from tinyasr.model import (
    ModelConfig,
    ModelParameters,
    backward_batch,
    forward_batch,
    init_parameters,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
)


def tiny_config(rng):
    return ModelConfig(
        input_dim=int(rng.integers(1, 4)),
        vocab_size=int(rng.integers(1, 4)),
        num_layers=int(rng.integers(1, 3)),
        hidden_units=int(rng.integers(1, 5)),
    )


def scalar_loss(params, feats, weights):
    (logits,), _ = forward_batch(params, [feats])
    return float((logits * weights).sum())


def finite_difference(params, feats, weights, name, h=1e-6):
    tensor = params.tensors[name]
    fd = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + h
        up = scalar_loss(params, feats, weights)
        tensor[idx] = orig - h
        down = scalar_loss(params, feats, weights)
        tensor[idx] = orig
        fd[idx] = (up - down) / (2 * h)
        it.iternext()
    return fd


class TestInit:
    def test_same_seed_is_byte_identical(self):
        config = ModelConfig(input_dim=5, vocab_size=3, num_layers=2, hidden_units=7)
        a = init_parameters(config, 42)
        b = init_parameters(config, 42)
        for name in a.names():
            assert a[name].tobytes() == b[name].tobytes()

    def test_different_seeds_differ(self):
        config = ModelConfig(input_dim=5, vocab_size=3, num_layers=2, hidden_units=7)
        a = init_parameters(config, 1)
        b = init_parameters(config, 2)
        assert any(not np.array_equal(a[n], b[n]) for n in a.names())

    def test_projection_shape(self):
        config = ModelConfig(input_dim=123, vocab_size=3, num_layers=3,
                             hidden_units=250)
        shapes = parameter_shapes(config)
        assert shapes["proj.W"] == (4, 500)
        params = init_parameters(config, 0)
        assert params["proj.W"].shape == (4, 500)

    def test_forget_gate_bias_is_one(self):
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=1, hidden_units=4)
        params = init_parameters(config, 0)
        bias = params["layer0.fwd.b"]
        assert np.all(bias[4:8] == 1.0)
        assert np.all(bias[:4] == 0.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_dim=3, vocab_size=2, num_layers=0, hidden_units=4)


class TestForward:
    def test_zero_parameters_give_uniform_logits(self):
        config = ModelConfig(input_dim=3, vocab_size=3, num_layers=2, hidden_units=4)
        params = init_parameters(config, 0)
        zeroed = ModelParameters(config, {n: np.zeros_like(t)
                                          for n, t in params.tensors.items()})
        (logits,), _ = forward_batch(zeroed, [np.random.default_rng(0).normal(size=(6, 3))])
        assert np.allclose(logits, logits[0, 0])

    def test_single_frame_shape(self):
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=1, hidden_units=4)
        params = init_parameters(config, 0)
        (logits,), _ = forward_batch(params, [np.zeros((1, 3))])
        assert logits.shape == (1, 3)

    def test_dimension_mismatch_rejected(self):
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=1, hidden_units=4)
        params = init_parameters(config, 0)
        with pytest.raises(DataError):
            forward_batch(params, [np.zeros((4, 5))])

    def test_time_reversal_symmetry(self):
        # swapping the direction weights (projection blocks included) and
        # reversing the input must reverse the logits of a 1-layer model
        rng = np.random.default_rng(11)
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=1, hidden_units=5)
        params = init_parameters(config, 7)
        H = config.hidden_units
        swapped = {
            "layer0.fwd.W": params["layer0.bwd.W"],
            "layer0.fwd.R": params["layer0.bwd.R"],
            "layer0.fwd.b": params["layer0.bwd.b"],
            "layer0.bwd.W": params["layer0.fwd.W"],
            "layer0.bwd.R": params["layer0.fwd.R"],
            "layer0.bwd.b": params["layer0.fwd.b"],
            "proj.W": np.concatenate(
                [params["proj.W"][:, H:], params["proj.W"][:, :H]], axis=1),
            "proj.b": params["proj.b"],
        }
        mirrored = ModelParameters(config, swapped)
        feats = rng.normal(size=(7, 3))
        (logits,), _ = forward_batch(params, [feats])
        (logits_rev,), _ = forward_batch(mirrored, [feats[::-1].copy()])
        assert np.allclose(logits_rev, logits[::-1], atol=1e-12)

    def test_hidden_states_stay_inside_unit_interval(self):
        rng = np.random.default_rng(12)
        config = ModelConfig(input_dim=4, vocab_size=2, num_layers=2, hidden_units=6)
        params = init_parameters(config, 3)
        _, cache = forward_batch(params, [rng.normal(size=(20, 4))])
        for _, _, _, hs in cache.layers:
            assert np.all(hs > -1.0)
            assert np.all(hs < 1.0)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(13)
        config = ModelConfig(input_dim=4, vocab_size=3, num_layers=2, hidden_units=5)
        params = init_parameters(config, 5)
        feats = [rng.normal(size=(t, 4)) for t in (9, 3, 6)]
        batched, _ = forward_batch(params, feats)
        for f, lb in zip(feats, batched):
            (single,), _ = forward_batch(params, [f])
            assert np.allclose(single, lb, atol=1e-12)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        # 20 random tiny configurations, every parameter tensor
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            config = tiny_config(rng)
            params = init_parameters(config, trial)
            T = int(rng.integers(1, 6))
            feats = rng.normal(size=(T, config.input_dim))
            weights = rng.normal(size=(T, config.output_dim))
            (logits,), cache = forward_batch(params, [feats])
            grads = backward_batch(params, cache, [weights])
            for name in params.names():
                fd = finite_difference(params, feats, weights, name)
                scale = max(np.abs(grads[name]).max(), np.abs(fd).max(), 1e-8)
                err = np.abs(grads[name] - fd).max() / scale
                worst = max(worst, err)
        assert worst < 1e-4

    def test_zero_upstream_gradient_gives_zero_grads(self):
        rng = np.random.default_rng(14)
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=2, hidden_units=4)
        params = init_parameters(config, 1)
        feats = rng.normal(size=(5, 3))
        (logits,), cache = forward_batch(params, [feats])
        grads = backward_batch(params, cache, [np.zeros_like(logits)])
        for name, grad in grads.items():
            assert np.all(grad == 0.0), name

    def test_doubling_upstream_doubles_gradients(self):
        rng = np.random.default_rng(15)
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=1, hidden_units=4)
        params = init_parameters(config, 2)
        feats = rng.normal(size=(5, 3))
        weights = rng.normal(size=(5, config.output_dim))
        (logits,), cache = forward_batch(params, [feats])
        g1 = backward_batch(params, cache, [weights])
        (logits,), cache = forward_batch(params, [feats])
        g2 = backward_batch(params, cache, [2.0 * weights])
        for name in g1:
            assert np.allclose(2.0 * g1[name], g2[name], atol=1e-12)

    def test_batched_gradients_sum_per_utterance_gradients(self):
        rng = np.random.default_rng(16)
        config = ModelConfig(input_dim=4, vocab_size=2, num_layers=2, hidden_units=5)
        params = init_parameters(config, 4)
        feats = [rng.normal(size=(t, 4)) for t in (8, 3, 5)]
        weights = [rng.normal(size=(t, config.output_dim)) for t in (8, 3, 5)]
        _, cache = forward_batch(params, feats)
        batched = backward_batch(params, cache, weights)
        summed = {n: np.zeros_like(t) for n, t in params.tensors.items()}
        for f, w in zip(feats, weights):
            _, cache1 = forward_batch(params, [f])
            for name, grad in backward_batch(params, cache1, [w]).items():
                summed[name] += grad
        for name in summed:
            assert np.allclose(summed[name], batched[name], atol=1e-10), name

    def test_mismatched_cache_rejected(self):
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=1, hidden_units=4)
        params = init_parameters(config, 1)
        other = init_parameters(config, 2)
        (logits,), cache = forward_batch(params, [np.zeros((4, 3))])
        with pytest.raises(ValueError, match="cache"):
            backward_batch(other, cache, [np.zeros_like(logits)])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        config = ModelConfig(input_dim=6, vocab_size=4, num_layers=2, hidden_units=5)
        params = init_parameters(config, 9)
        path = tmp_path / "model.bin"
        save_checkpoint(path, params, ["<blank>", "a", "b", "c", " "])
        loaded, vocab = load_checkpoint(path)
        assert vocab == ["<blank>", "a", "b", "c", " "]
        assert loaded.config == config
        for name in params.names():
            assert loaded[name].tobytes() == params[name].tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)
