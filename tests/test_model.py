import json
import math
import shutil
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import memory_capped
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyasr import ctc, model, pipeline
from tinyasr.audio import AudioBuffer, write_wav
from tinyasr.cli import main
from tinyasr.errors import ConfigError, DataError
from tinyasr.model import (
    ModelConfig,
    ModelParameters,
    _sigmoid,
    backward_batch,
    decode,
    forward_batch,
    init_parameters,
    load_checkpoint,
    parameter_count,
    parameter_shapes,
    save_checkpoint,
)
from tinyasr.training import AdamState, TrainConfig, adam_step


def tiny_config(rng):
    return ModelConfig(
        input_dim=int(rng.integers(1, 4)),
        vocab_size=int(rng.integers(1, 4)),
        num_layers=int(rng.integers(1, 3)),
        hidden_units=int(rng.integers(1, 5)),
    )


def float64_parameters(config, seed):
    """init_parameters' values in float64, so that the model runs in
    float64 and finite differences can resolve its gradients."""
    return ModelParameters(config, init_parameters(config, seed).flat.astype(np.float64))


def pad(arrays):
    """The (T_b, K) arrays as rows of one (B, T, K) array, zero past each."""
    out = np.zeros((len(arrays), max(map(len, arrays)), arrays[0].shape[1]))
    for row, array in enumerate(arrays):
        out[row, :len(array)] = array
    return out


def scalar_loss(params, feature_list, weights):
    """The logits weighted by (B, T, K) weights, zero past each row's frames."""
    logits, _ = forward_batch(params, feature_list)
    return float((logits * weights).sum())


def finite_difference(params, feature_list, weights, name, h=1e-6):
    tensor = params.tensors[name]
    fd = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + h
        up = scalar_loss(params, feature_list, weights)
        tensor[idx] = orig - h
        down = scalar_loss(params, feature_list, weights)
        tensor[idx] = orig
        fd[idx] = (up - down) / (2 * h)
        it.iternext()
    return fd


class TestInit:
    def test_same_seed_is_byte_identical(self):
        config = ModelConfig(input_dim=5, vocab_size=3, num_layers=2, hidden_units=7)
        a = init_parameters(config, 42)
        b = init_parameters(config, 42)
        assert a.flat.tobytes() == b.flat.tobytes()

    def test_different_seeds_differ(self):
        config = ModelConfig(input_dim=5, vocab_size=3, num_layers=2, hidden_units=7)
        a = init_parameters(config, 1)
        b = init_parameters(config, 2)
        assert any(not np.array_equal(a[n], b[n]) for n in a.tensors)

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
        bias = params["layer0.b"]
        assert bias.shape == (2, 16)
        assert np.all(bias[:, 4:8] == 1.0)
        assert np.all(bias[:, :4] == 0.0) and np.all(bias[:, 8:] == 0.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_dim=3, vocab_size=2, num_layers=0, hidden_units=4)


class TestArithmeticDtype:
    """The parameter vector's dtype is the model's arithmetic: one float64
    temporary would silently run a float32 model in float64."""

    CONFIG = ModelConfig(input_dim=3, vocab_size=2, num_layers=2, hidden_units=4)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_init_rounds_the_float64_draw_once(self, seed):
        # the draw as init_parameters makes it, in float64
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        H = self.CONFIG.hidden_units
        expected = {name: np.zeros(shape)
                    for name, shape in parameter_shapes(self.CONFIG).items()}
        matrices = [expected[f"layer{layer}.{kind}"][d] for layer in range(2)
                    for d in (0, 1) for kind in "WR"] + [expected["proj.W"]]
        for matrix in matrices:
            limit = np.sqrt(6.0 / sum(matrix.shape))
            matrix[...] = rng.uniform(-limit, limit, size=matrix.shape)
        for layer in range(2):
            expected[f"layer{layer}.b"][:, H:2 * H] = 1.0
        flat = init_parameters(self.CONFIG, seed).flat
        assert flat.dtype == np.float32
        assert flat.tobytes() == np.concatenate(
            [t.ravel() for t in expected.values()]).astype(np.float32).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_array_keeps_the_parameters_dtype(self, dtype):
        params = ModelParameters(self.CONFIG, init_parameters(self.CONFIG, 3).flat.astype(dtype))
        rng = np.random.default_rng(5)
        feats = [rng.normal(size=(t, 3)) for t in (2, 4, 5)]  # float64, as extracted
        logits, cache = forward_batch(params, feats)
        arrays = [logits, cache.top] + [a for layer in cache.layers for a in layer]
        # a float64 gradient, as ctc.ctc_loss gives it
        grads = backward_batch(params, cache, rng.normal(size=logits.shape))
        updated, state, _ = adam_step(params, grads, AdamState(), TrainConfig())
        updated, state, _ = adam_step(updated, grads, state, TrainConfig())
        inferred, _ = forward_batch(updated, feats, keep_cache=False)
        arrays += [grads.flat, updated.flat, state.m, state.v, inferred]
        assert [a.dtype for a in arrays] == [dtype] * len(arrays)


class TestParameterVector:
    CONFIG = ModelConfig(input_dim=3, vocab_size=2, num_layers=2, hidden_units=2)

    def test_tensors_are_views_in_shape_order(self):
        vector = np.arange(ModelParameters(self.CONFIG).flat.size, dtype=float)
        params = ModelParameters(self.CONFIG, vector)
        assert [(n, t.shape) for n, t in params.tensors.items()] == list(
            parameter_shapes(self.CONFIG).items())
        assert np.array_equal(np.concatenate([t.ravel() for t in params.tensors.values()]),
                              vector)
        params["proj.b"][0] = -1.0
        assert vector[-params["proj.b"].size] == -1.0

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_vector_of_wrong_length_rejected(self, delta):
        size = ModelParameters(self.CONFIG).flat.size
        with pytest.raises(ValueError):
            ModelParameters(self.CONFIG, np.zeros(size + delta))

    @pytest.mark.parametrize("config", [
        CONFIG,
        ModelConfig(input_dim=1, vocab_size=1, num_layers=1, hidden_units=1),
        ModelConfig(input_dim=123, vocab_size=30, num_layers=3, hidden_units=250),
        ModelConfig(input_dim=7, vocab_size=4, num_layers=5, hidden_units=3),
    ])
    def test_parameter_count_is_the_sum_over_the_shapes(self, config):
        assert parameter_count(config) == sum(
            math.prod(shape) for shape in parameter_shapes(config).values())


class TestSigmoid:
    X = np.concatenate([np.linspace(-800.0, 800.0, 100001), [np.inf, -np.inf, 0.0, -0.0]])

    @staticmethod
    def masked_sigmoid(x):
        """The overflow-safe two-branch form, kept as the reference."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_matches_masked_form(self):
        diff = np.abs(_sigmoid(self.X) - self.masked_sigmoid(self.X))
        assert diff.max() <= np.finfo(float).eps  # 2.2e-16

    def test_stays_inside_unit_interval(self):
        y = _sigmoid(self.X)
        assert y.min() >= 0.0 and y.max() <= 1.0

    def test_raises_no_warning(self):
        with np.errstate(all="raise"):
            _sigmoid(self.X)


class TestForward:
    def test_zero_parameters_give_uniform_logits(self):
        config = ModelConfig(input_dim=3, vocab_size=3, num_layers=2, hidden_units=4)
        feats = np.random.default_rng(0).normal(size=(6, 3))
        (logits,), _ = forward_batch(ModelParameters(config), [feats])
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
        mirrored = ModelParameters(config)
        for name in ("layer0.W", "layer0.R", "layer0.b"):
            mirrored[name][...] = params[name][::-1]
        mirrored["proj.W"][...] = np.concatenate(
            [params["proj.W"][:, H:], params["proj.W"][:, :H]], axis=1)
        mirrored["proj.b"][...] = params["proj.b"]
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
        feats = [rng.normal(size=(t, 4)) for t in (3, 6, 9)]
        batched, _ = forward_batch(params, feats)
        for f, lb in zip(feats, batched):
            (single,), _ = forward_batch(params, [f])
            assert np.allclose(single, lb[:len(f)], atol=1e-12)

    def test_logits_do_not_depend_on_batch_mates(self):
        # a step runs at least two rows: numpy multiplies a single row by
        # another path, which rounds differently at this size
        rng = np.random.default_rng(18)
        config = ModelConfig(input_dim=4, vocab_size=3, num_layers=2, hidden_units=64)
        params = init_parameters(config, 8)
        long = rng.normal(size=(60, 4))
        (with_copy, _), _ = forward_batch(params, [long, long])
        for mate_lengths in ((5,), (3, 30)):
            mates = [rng.normal(size=(t, 4)) for t in mate_lengths]
            logits, _ = forward_batch(params, mates + [long])
            assert np.array_equal(logits[-1], with_copy), mate_lengths

    def test_unsorted_batch_rejected(self):
        config = ModelConfig(input_dim=2, vocab_size=2, num_layers=1, hidden_units=3)
        params = init_parameters(config, 9)
        with pytest.raises(ValueError, match="sorted shortest first"):
            forward_batch(params, [np.zeros((3, 2)), np.zeros((5, 2)), np.zeros((4, 2))])


class TestDecode:
    @pytest.fixture
    def batches(self, monkeypatch):
        """Replaces forward_batch by a recorder of each batch. Its logits
        are zero but for frame 0 of an utterance whose features start with
        k > 0, which emits label k."""
        seen = []

        def recording(params, feature_list, keep_cache=True):
            seen.append(feature_list)
            logits = np.zeros((len(feature_list), len(feature_list[-1]),
                               params.config.output_dim))
            for row, feats in enumerate(feature_list):
                logits[row, 0, int(feats[0, 0])] = 1.0
            return logits, None

        monkeypatch.setattr(model, "forward_batch", recording)
        return seen

    @staticmethod
    def params(vocab_size=1):
        return ModelParameters(ModelConfig(input_dim=1, vocab_size=vocab_size,
                                           num_layers=1, hidden_units=1))

    def test_sorted_chunks_of_16(self, batches):
        lengths = np.random.default_rng(21).integers(1, 1001, size=40)
        decode(self.params(), [np.zeros((t, 1)) for t in lengths])
        assert [len(batch) for batch in batches] == [16, 16, 8]
        assert [len(feats) for batch in batches for feats in batch] == sorted(lengths)

    def test_padded_frames_bound_the_batch(self, batches):
        decode(self.params(), [np.zeros((t, 1)) for t in (16001, 5, 1000, 16000, 1000)])
        assert [[len(feats) for feats in batch] for batch in batches] == [
            [5, 1000, 1000], [16000], [16001]]

    def test_results_come_back_in_input_order(self, batches):
        lengths = [7, 3, 7, 1, 20, 3] * 5
        feature_list = [np.full((t, 1), float(i + 1)) for i, t in enumerate(lengths)]
        decoded = decode(self.params(vocab_size=len(lengths)), feature_list)
        assert decoded == [[i + 1] for i in range(30)]
        # sorted by length, equal lengths in input order
        assert [len(batch) for batch in batches] == [16, 14]
        assert [int(feats[0, 0]) - 1 for batch in batches for feats in batch] == sorted(
            range(30), key=lengths.__getitem__)

    @pytest.mark.parametrize("beam_width", [None, 4], ids=["greedy", "beam"])
    def test_batched_labels_equal_one_at_a_time(self, trained_run, beam_width):
        run = trained_run["run"]
        info, params, vocab = pipeline._open_run(run)
        items, _ = pipeline._load_split(run, info, "train", vocab)
        feature_list = [item.features for item in items]
        assert len(feature_list) > model.DECODE_BATCH
        alone = [decode(params, [feats], beam_width)[0] for feats in feature_list]
        assert decode(params, feature_list, beam_width) == alone

    def test_inference_keeps_no_cache(self):
        config = ModelConfig(input_dim=123, vocab_size=20, num_layers=3, hidden_units=64)
        params = init_parameters(config, 0)
        feats = np.random.default_rng(22).normal(size=(2000, 123))
        (logits,), cache = forward_batch(params, [feats])
        cached = cache.top.nbytes + sum(a.nbytes for arrays in cache.layers for a in arrays)
        del cache
        (uncached,), none = forward_batch(params, [feats], keep_cache=False)
        assert none is None and np.array_equal(uncached, logits)
        tracemalloc.start()
        try:
            decode(params, [feats])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cached / 2


class TestBackward:
    def test_gradients_match_finite_differences(self):
        # 20 random tiny configurations, every parameter tensor
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            config = tiny_config(rng)
            params = float64_parameters(config, trial)
            T = int(rng.integers(1, 6))
            feats = rng.normal(size=(T, config.input_dim))
            weights = rng.normal(size=(T, config.output_dim))
            (logits,), cache = forward_batch(params, [feats])
            grads = backward_batch(params, cache, weights[None])
            for name in params.tensors:
                fd = finite_difference(params, [feats], weights[None], name)
                scale = max(np.abs(grads[name]).max(), np.abs(fd).max(), 1e-8)
                err = np.abs(grads[name] - fd).max() / scale
                worst = max(worst, err)
        assert worst < 1e-4

    def test_mixed_length_batch_matches_finite_differences(self):
        # rows leave the time loop at different steps, one after its first
        # frame, and the last steps run a row on its padding
        rng = np.random.default_rng(17)
        config = ModelConfig(input_dim=2, vocab_size=2, num_layers=2, hidden_units=3)
        params = float64_parameters(config, 6)
        lengths = (1, 2, 4, 6)
        feats = [rng.normal(size=(t, 2)) for t in lengths]
        weights = pad([rng.normal(size=(t, config.output_dim)) for t in lengths])
        _, cache = forward_batch(params, feats)
        grads = backward_batch(params, cache, weights)
        for name in params.tensors:
            fd = finite_difference(params, feats, weights, name)
            scale = max(np.abs(grads[name]).max(), np.abs(fd).max(), 1e-8)
            assert np.abs(grads[name] - fd).max() / scale < 1e-4, name

    def test_zero_upstream_gradient_gives_zero_grads(self):
        rng = np.random.default_rng(14)
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=2, hidden_units=4)
        params = init_parameters(config, 1)
        feats = rng.normal(size=(5, 3))
        (logits,), cache = forward_batch(params, [feats])
        grads = backward_batch(params, cache, np.zeros_like(logits)[None])
        for name, grad in grads.tensors.items():
            assert np.all(grad == 0.0), name

    def test_doubling_upstream_doubles_gradients(self):
        rng = np.random.default_rng(15)
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=1, hidden_units=4)
        params = init_parameters(config, 2)
        feats = rng.normal(size=(5, 3))
        weights = rng.normal(size=(5, config.output_dim))
        (logits,), cache = forward_batch(params, [feats])
        g1 = backward_batch(params, cache, weights[None])
        (logits,), cache = forward_batch(params, [feats])
        g2 = backward_batch(params, cache, 2.0 * weights[None])
        for name in g1.tensors:
            assert np.allclose(2.0 * g1[name], g2[name], atol=1e-12)

    def test_batched_gradients_sum_per_utterance_gradients(self):
        rng = np.random.default_rng(16)
        config = ModelConfig(input_dim=4, vocab_size=2, num_layers=2, hidden_units=5)
        params = float64_parameters(config, 4)
        feats = [rng.normal(size=(t, 4)) for t in (3, 5, 8)]
        weights = [rng.normal(size=(t, config.output_dim)) for t in (3, 5, 8)]
        _, cache = forward_batch(params, feats)
        batched = backward_batch(params, cache, pad(weights))
        summed = ModelParameters(config)
        for f, w in zip(feats, weights):
            _, cache1 = forward_batch(params, [f])
            summed.flat += backward_batch(params, cache1, w[None]).flat
        for name in summed.tensors:
            assert np.allclose(summed[name], batched[name], atol=1e-10), name

    def test_step_memory_follows_the_real_frames(self):
        # 15 utterances of 20 frames and one of 400: 700 frames, padded to
        # 6400. Forward, CTC loss and backward stay under five times the
        # layer arrays of the 700 real frames; padded arrays would not.
        config = ModelConfig(input_dim=10, vocab_size=4, num_layers=2, hidden_units=32)
        params = init_parameters(config, 0)
        rng = np.random.default_rng(23)
        lengths = [20] * 15 + [400]
        feats = [rng.normal(size=(t, config.input_dim)) for t in lengths]
        H = config.hidden_units
        # per frame and direction: the layer's input, 4 gates, cell and hidden state
        frame_bytes = 4 * 2 * (config.input_dim + 6 * H + (config.num_layers - 1) * 8 * H)
        tracemalloc.start()
        try:
            logits, cache = forward_batch(params, feats)
            _, grad = ctc.ctc_loss(logits, lengths, [[1, 2, 1]] * len(lengths))
            backward_batch(params, cache, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * sum(lengths) * frame_bytes

    def test_mismatched_cache_rejected(self):
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=1, hidden_units=4)
        params = init_parameters(config, 1)
        other = init_parameters(config, 2)
        (logits,), cache = forward_batch(params, [np.zeros((4, 3))])
        with pytest.raises(ValueError, match="cache"):
            backward_batch(other, cache, np.zeros_like(logits)[None])

    def test_gradient_of_another_shape_rejected(self):
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=1, hidden_units=4)
        params = init_parameters(config, 1)
        logits, cache = forward_batch(params, [np.zeros((2, 3)), np.zeros((4, 3))])
        assert logits.shape == (2, 4, 3)
        for shape in [(2, 2, 3), (2, 4, 2), (1, 4, 3), (4, 3)]:
            with pytest.raises(ValueError, match="logits gradient"):
                backward_batch(params, cache, np.zeros(shape))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        config = ModelConfig(input_dim=6, vocab_size=4, num_layers=2, hidden_units=5)
        params = init_parameters(config, 9)
        path = tmp_path / "model.bin"
        save_checkpoint(path, params, ["<blank>", "a", "b", "c", " "])
        loaded, vocab = load_checkpoint(path)
        assert vocab.labels == ("<blank>", "a", "b", "c", " ")
        assert loaded.config == config
        for name, tensor in params.tensors.items():
            assert loaded[name].tobytes() == tensor.tobytes()

    def test_tensors_follow_header_in_shape_order(self, tmp_path):
        config = ModelConfig(input_dim=3, vocab_size=2, num_layers=2, hidden_units=2)
        params = init_parameters(config, 5)
        path = tmp_path / "model.bin"
        save_checkpoint(path, params, ["<blank>", "a", "b"])
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[12:16])
        assert data[16 + header_len:] == b"".join(
            params[name].astype("<f4").tobytes() for name in parameter_shapes(config))

    def test_header_declaring_a_larger_model_rejected(self, tmp_path):
        # 8e12 parameters: the reader must not allocate them before reading
        config = ModelConfig(input_dim=2, vocab_size=1, num_layers=1, hidden_units=2)
        huge = ModelConfig(input_dim=2, vocab_size=1, num_layers=1, hidden_units=10 ** 6)
        path = tmp_path / "model.bin"
        save_checkpoint(path, init_parameters(config, 0), ["<blank>", "a"])
        data = path.read_bytes()
        version, length = struct.unpack("<II", data[8:16])
        header = json.loads(data[16:16 + length])
        header["config"]["hidden_units"] = huge.hidden_units
        header["tensors"] = [{"name": n, "shape": list(s)}
                             for n, s in parameter_shapes(huge).items()]
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<II", version, len(blob)) + blob
                         + data[16 + length:])
        with pytest.raises(DataError, match="truncated or garbled"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_earlier_container_version_names_version(self, tmp_path):
        config = ModelConfig(input_dim=2, vocab_size=1, num_layers=1, hidden_units=2)
        path = tmp_path / "model.bin"
        save_checkpoint(path, init_parameters(config, 0), ["<blank>", "a"])
        data = path.read_bytes()
        path.write_bytes(data[:8] + struct.pack("<I", 1) + data[12:])
        with pytest.raises(DataError, match="container version 1"):
            load_checkpoint(path)


SAVED_CONFIG = ModelConfig(input_dim=3, vocab_size=2, num_layers=2, hidden_units=2)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """The bytes of a small saved model, and a directory to damage copies in."""
    root = tmp_path_factory.mktemp("checkpoint")
    save_checkpoint(root / "model.bin", init_parameters(SAVED_CONFIG, 4),
                    ["<blank>", "a", "b"])
    return root, (root / "model.bin").read_bytes()


def load_or_data_error(path):
    """A damaged checkpoint loads with the saved shapes or is a DataError."""
    try:
        params, _ = load_checkpoint(path)
    except DataError:
        return
    assert params.config == SAVED_CONFIG
    assert [(n, t.shape) for n, t in params.tensors.items()] == list(
        parameter_shapes(SAVED_CONFIG).items())


class TestDamagedCheckpoint:
    @settings(max_examples=150, deadline=None)
    @given(drawn=st.data())
    def test_cut_at_any_length(self, saved_checkpoint, drawn):
        root, data = saved_checkpoint
        path = root / "cut.bin"
        path.write_bytes(data[:drawn.draw(st.integers(0, len(data)), label="length")])
        load_or_data_error(path)

    @settings(max_examples=300, deadline=None)
    @given(drawn=st.data(), byte=st.integers(0, 255))
    def test_any_byte_replaced(self, saved_checkpoint, drawn, byte):
        root, data = saved_checkpoint
        at = drawn.draw(st.integers(0, len(data) - 1), label="position")
        path = root / "changed.bin"
        path.write_bytes(data[:at] + bytes([byte]) + data[at + 1:])
        load_or_data_error(path)

    # 1-4 bytes set within the magic, the version and length words and the
    # JSON header: the load returns or raises a DataError, nothing else
    @settings(max_examples=300, deadline=None)
    @given(drawn=st.data())
    def test_header_bytes_replaced(self, saved_checkpoint, drawn):
        root, data = saved_checkpoint
        (length,) = struct.unpack("<I", data[12:16])
        header = bytearray(data[:16 + length])
        edits = drawn.draw(st.lists(st.tuples(st.integers(0, len(header) - 1),
                                              st.integers(0, 255)), min_size=1, max_size=4),
                           label="edits")
        for index, value in edits:
            header[index] = value
        path = root / "header.bin"
        path.write_bytes(bytes(header) + data[16 + length:])
        try:
            load_checkpoint(path)
        except DataError:
            pass

    @pytest.mark.parametrize("command", ["evaluate", "transcribe"])
    def test_header_of_too_many_layers_exits_2(self, trained_run, tmp_path, capsys, command):
        # the header's layer count is checked against the values the file
        # holds before any work that grows with it
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        path = run / "checkpoint.bin"
        data = path.read_bytes()
        version, length = struct.unpack("<II", data[8:16])
        header = json.loads(data[16:16 + length])
        header["config"]["num_layers"] = 2 ** 31
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<II", version, len(blob)) + blob
                         + data[16 + length:])
        argv = [command, "--run", str(run)]
        if command == "transcribe":
            write_wav(tmp_path / "hush.wav", AudioBuffer(np.zeros(16000), 16000))
            argv.append(str(tmp_path / "hush.wav"))
        with memory_capped():
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: truncated or garbled (its model config has ")
        assert err.count("\n") == 1
