import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyasr.ctc import (
    _sequence_log_prob,
    beam_decode,
    collapse,
    ctc_loss,
    greedy_decode,
    log_softmax,
    min_frames,
)
from tinyasr.errors import DataError


def enumerate_sequences(logits):
    """Oracle: total probability of every collapsed sequence, by brute
    force over all (V+1)^T frame paths."""
    lp = log_softmax(np.asarray(logits, dtype=np.float64))
    T, K = lp.shape
    table = {}
    for path in itertools.product(range(K), repeat=T):
        log_p = sum(lp[t, k] for t, k in enumerate(path))
        seq = tuple(collapse(path))
        table[seq] = np.logaddexp(table.get(seq, -np.inf), log_p)
    return table


def loss_alone(logits, target):
    """ctc_loss over a batch of one (T, K) row: (loss, grad (T, K))."""
    losses, grad = ctc_loss(logits[None], [len(logits)], [target])
    return losses[0], grad[0]


class TestCollapse:
    def test_blank_separates_repeat(self):
        assert collapse([1, 1, 0, 1, 2]) == [1, 1, 2]

    def test_all_blanks(self):
        assert collapse([0, 0, 0]) == []

    def test_adjacent_repeat_merges(self):
        assert collapse([1, 2, 2]) == [1, 2]


class TestMinFrames:
    def test_no_repeats(self):
        assert min_frames([1, 2, 3]) == 3

    def test_adjacent_repeat_needs_separator(self):
        assert min_frames([1, 1]) == 3


class TestLoss:
    def test_single_frame_single_label(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 4))
        lp = log_softmax(logits)
        loss, _ = loss_alone(logits, [2])
        assert loss == pytest.approx(-lp[0, 2])

    def test_two_frames_single_label_three_paths(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 3))
        p = np.exp(log_softmax(logits))
        a = 1
        expected = p[0, a] * p[1, a] + p[0, a] * p[1, 0] + p[0, 0] * p[1, a]
        loss, _ = loss_alone(logits, [a])
        assert loss == pytest.approx(-math.log(expected))

    def test_infeasible_target_is_explicit_error(self):
        with pytest.raises(DataError, match="batch row 1: CTC-infeasible"):
            ctc_loss(np.zeros((2, 4, 3)), [4, 2], [[1, 2], [1, 1]])

    def test_blank_in_target_rejected(self):
        with pytest.raises(DataError, match="batch row 1: target label 0"):
            ctc_loss(np.zeros((2, 3, 3)), [3, 3], [[2], [0, 1]])

    @pytest.mark.parametrize("shape, frames", [
        ((1, 4, 3), [0]), ((1, 4, 3), [5]), ((1, 4, 3), [2.5]), ((1, 4, 3), [4, 4]),
        ((0, 4, 3), []), ((4, 3), [4]),
    ], ids=["zero", "past-T", "fraction", "too-many", "empty-batch", "2-D"])
    def test_frame_counts_must_fit_the_logits(self, shape, frames):
        with pytest.raises(ValueError, match="frame count"):
            ctc_loss(np.zeros(shape), frames, [[1]] * len(frames))

    def test_empty_target_is_the_all_blank_path(self):
        logits = np.random.default_rng(12).normal(size=(5, 3))
        loss, _ = loss_alone(logits, [])
        assert loss == pytest.approx(-log_softmax(logits)[:, 0].sum(), abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 60:
            T = int(rng.integers(1, 7))
            V = int(rng.integers(1, 5))
            logits = rng.normal(size=(T, V + 1)) * 2.0
            table = enumerate_sequences(logits)
            feasible = [s for s in table if 0 < len(s) <= 3 and min_frames(s) <= T]
            if not feasible:
                continue
            target = list(feasible[int(rng.integers(len(feasible)))])
            loss, _ = loss_alone(logits, target)
            assert loss == pytest.approx(-table[tuple(target)], abs=1e-9)
            checked += 1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(25):
            T = int(rng.integers(2, 6))
            V = int(rng.integers(1, 4))
            logits = rng.normal(size=(T, V + 1))
            target = [int(rng.integers(1, V + 1))]
            while len(target) < min(3, T) and rng.random() < 0.6:
                target.append(int(rng.integers(1, V + 1)))
            if min_frames(target) > T:
                continue
            grad = loss_alone(logits, target)[1]
            h = 1e-7
            fd = np.zeros_like(logits)
            for t in range(T):
                for k in range(V + 1):
                    up = logits.copy()
                    up[t, k] += h
                    down = logits.copy()
                    down[t, k] -= h
                    fd[t, k] = (loss_alone(up, target)[0]
                                - loss_alone(down, target)[0]) / (2 * h)
            scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-8)
            worst = max(worst, np.abs(grad - fd).max() / scale)
        assert worst < 1e-6

    def test_loss_invariant_to_row_shift(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 4))
        target = [1, 2]
        base = loss_alone(logits, target)[0]
        shifted = logits.copy()
        shifted[2] += 7.3
        assert loss_alone(shifted, target)[0] == pytest.approx(base, abs=1e-12)

    def test_path_probabilities_partition_unity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            logits = rng.normal(size=(4, 3))
            table = enumerate_sequences(logits)
            total = np.logaddexp.reduce(list(table.values()))
            assert abs(total) < 1e-9

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(6, 4))
        grad = loss_alone(logits, [1, 2, 3])[1]
        assert np.abs(grad.sum(axis=1)).max() < 1e-12
        assert np.all(np.isfinite(grad))


class TestBatch:
    # each row: its target and its frames beyond min_frames; one K and one
    # seed for the logits of the whole batch
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.lists(st.integers(1, 3), min_size=1, max_size=5),
                                   st.integers(0, 8)), min_size=1, max_size=6),
           K=st.integers(4, 6), seed=st.integers(0, 2 ** 32 - 1))
    @example(rows=[([2, 2, 1], 0)], K=4, seed=0)  # B=1, repeats, T == min_frames
    @example(rows=[([1], 0), ([3, 3, 3], 5), ([2], 8), ([1, 2, 1, 2, 1], 0)], K=4, seed=1)
    def test_each_row_equals_itself_run_alone(self, rows, K, seed):
        rng = np.random.default_rng(seed)
        targets = [target for target, _ in rows]
        frames = [min_frames(target) + extra for target, extra in rows]
        # the padding past a row's frames holds values that must not matter
        logits = rng.normal(size=(len(rows), max(frames), K)) * 3.0
        batch = ctc_loss(logits, frames, targets)
        flipped = [a[::-1] for a in ctc_loss(logits[::-1], frames[::-1], targets[::-1])]
        for row, (n, target) in enumerate(zip(frames, targets)):
            loss, grad = loss_alone(logits[row, :n], target)
            for losses, grads in (batch, flipped):
                assert losses[row] == loss
                assert np.array_equal(grads[row, :n], grad)
                assert np.all(grads[row, n:] == 0.0)


class TestGreedy:
    def peaked(self, path, K):
        logits = np.full((len(path), K), -10.0)
        for t, k in enumerate(path):
            logits[t, k] = 10.0
        return logits

    def test_argmax_then_collapse(self):
        assert greedy_decode(self.peaked([1, 1, 0, 2], 3)) == [1, 2]

    def test_all_blank(self):
        assert greedy_decode(self.peaked([0, 0, 0], 3)) == []

    def test_single_frame(self):
        assert greedy_decode(self.peaked([2], 3)) == [2]

    def test_tie_goes_to_lowest_index(self):
        assert greedy_decode(np.zeros((1, 4))) == []  # index 0 is blank


class TestBeam:
    def test_wide_beam_finds_exhaustive_argmax(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            T, V = 2, 2
            logits = rng.normal(size=(T, V + 1)) * 2.0
            table = enumerate_sequences(logits)
            best = max(table.items(), key=lambda kv: kv[1])
            decoded = beam_decode(logits, 9)
            assert tuple(decoded) == best[0]
            assert _sequence_log_prob(log_softmax(logits), decoded) \
                == pytest.approx(best[1], abs=1e-9)

    def test_wide_beam_matches_oracle_up_to_t5(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            T = int(rng.integers(1, 6))
            V = int(rng.integers(1, 4))
            logits = rng.normal(size=(T, V + 1)) * 2.0
            table = enumerate_sequences(logits)
            best = max(table.items(), key=lambda kv: kv[1])
            assert tuple(beam_decode(logits, 4096)) == best[0]

    def test_width_one_on_peaked_distribution_equals_greedy(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(6, 4)) * 0.01
        for t, k in enumerate([1, 1, 0, 2, 0, 3][:6]):
            logits[t, k] = 12.0  # >= 0.99 probability each frame
        assert beam_decode(logits, 1) == greedy_decode(logits)

    def test_blank_favoring_logits_decode_empty(self):
        logits = np.zeros((4, 3))
        logits[:, 0] = 8.0
        assert beam_decode(logits, 4) == []

    def test_never_scores_below_greedy_sequence(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            T = int(rng.integers(1, 6))
            V = int(rng.integers(1, 4))
            logits = rng.normal(size=(T, V + 1)) * 2.0
            lp = log_softmax(logits)
            greedy_total = _sequence_log_prob(lp, greedy_decode(logits))
            decoded = beam_decode(logits, V + 1)
            assert _sequence_log_prob(lp, decoded) >= greedy_total - 1e-9

    def test_invalid_width(self):
        with pytest.raises(DataError):
            beam_decode(np.zeros((2, 3)), 0)


class TestSequenceLogProb:
    def test_matches_oracle_table(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(4, 3))
        table = enumerate_sequences(logits)
        for seq, log_p in table.items():
            assert _sequence_log_prob(log_softmax(logits), list(seq)) \
                == pytest.approx(log_p, abs=1e-9)

    def test_infeasible_sequence_is_neg_inf(self):
        assert _sequence_log_prob(log_softmax(np.zeros((1, 3))), [1, 2]) == -np.inf
