"""Connectionist temporal classification: loss, exact logits gradient,
and greedy / prefix-beam decoding.

All recursions run in log space. Blank is always label index 0. There is
one recursion, _log_alpha, over a padded batch of rows. The loss takes a
training batch as the model's padded logits, and runs the forward and the
backward variables as one stack of rows, the backward ones as the forward
recursion on each row reversed within its length; beam search scores a
sequence as a batch of one. Padding never reaches a row's own values, so
each row's loss and gradient are bit-identical to that row run alone.
Both decoders return one utterance's label ids as a plain list.
"""

import numbers
from collections import defaultdict

import numpy as np

from .errors import DataError

BLANK_ID = 0
NEG_INF = -np.inf


def log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def collapse(path):
    """Merge adjacent repeats, then drop blanks."""
    out = []
    prev = None
    for label in path:
        if label != prev:
            if label != BLANK_ID:
                out.append(label)
            prev = label
    return out


def min_frames(target) -> int:
    """Shortest T that can emit the target: one frame per label plus a
    separating blank between adjacent repeats."""
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def _extended_batch(targets):
    """Each target with a blank before, between and after its labels, as
    rows of one (B, S) array padded with blanks, and each row's length."""
    lengths = [2 * len(target) + 1 for target in targets]
    ext = np.zeros((len(targets), max(lengths)), dtype=np.int64)
    for row, target in enumerate(targets):
        ext[row, 1:lengths[row]:2] = target
    return ext, lengths


def reverse_padded(x, lengths):
    """Reverse each row within its true length; padded slots keep their values."""
    t, lengths = np.arange(x.shape[1]), np.asarray(lengths)[:, None]
    return x[np.arange(len(x))[:, None], np.where(t < lengths, lengths - 1 - t, t)]


def _log_alpha(lp, ext, frames, ext_lengths):
    """Log-space forward variables (B, T, S) of each row's blank-extended
    target ext[b] under its per-frame log-probabilities lp[b] (B, T, K);
    row b holds frames[b] frames and ext_lengths[b] extended-target slots.
    alpha[b, t, s] includes the emission at t, and is -inf in the padded
    frames and slots. Run on each row reversed within its lengths, it gives
    the backward variables, reversed."""
    B, T, S = lp.shape[0], lp.shape[1], ext.shape[1]
    emit = np.take_along_axis(lp, ext[:, None, :], axis=2)  # (B, T, S)
    valid = ((np.arange(T)[None, :, None] < np.asarray(frames)[:, None, None])
             & (np.arange(S)[None, None, :] < np.asarray(ext_lengths)[:, None, None]))
    emit = np.where(valid, emit, NEG_INF)

    # skip transition s-2 -> s exists unless it would jump over a needed
    # blank (same label on both sides) or land on a blank
    can_skip = np.zeros((B, S), dtype=bool)
    can_skip[:, 2:] = (ext[:, 2:] != BLANK_ID) & (ext[:, 2:] != ext[:, :-2])

    # two leading -inf columns stand for the slots before s = 0, so
    # columns [2:], [1:-1] and [:-2] of a step are s, s-1 and s-2
    padded = np.full((B, T, S + 2), NEG_INF)
    alpha = padded[:, :, 2:]
    alpha[:, 0, :2] = emit[:, 0, :2]
    for t in range(1, T):
        prev, now = padded[:, t - 1], alpha[:, t]
        np.logaddexp(prev[:, 2:], prev[:, 1:-1], out=now)
        np.logaddexp(now, np.where(can_skip, prev[:, :-2], NEG_INF), out=now)
        now += emit[:, t]
    return alpha


def _total_log_prob(alpha, frames, ext_lengths):
    """Each row's total log-probability, from its forward variables at its
    last frame: complete paths end on the last label, if there is one, or
    on the final blank. -inf if no path reaches either."""
    rows, last, ends = np.arange(len(alpha)), np.asarray(frames) - 1, np.asarray(ext_lengths)
    return np.logaddexp(np.where(ends > 1, alpha[rows, last, ends - 2], NEG_INF),
                        alpha[rows, last, ends - 1])


def ctc_loss(logits, frames, targets):
    """Negative log-likelihood of each row's target under its logits, with
    the exact gradient, via the log-space forward-backward recursion over
    the blank-extended targets. Row b of the padded logits (B, T, K) holds
    frames[b] frames, 1 <= frames[b] <= T; values past them do not matter.
    Returns (losses (B,), grad (B, T, K)), grad exactly 0.0 past each row's
    frames, and each row bit-identical to that row run alone."""
    logits = np.asarray(logits, dtype=np.float64)
    frames, targets = list(frames), [list(target) for target in targets]
    if logits.ndim != 3 or not 0 < len(logits) == len(frames) == len(targets):
        raise ValueError(f"ctc_loss takes logits (B, T, K), B >= 1, and B frame counts "
                         f"and targets, not {logits.shape}, {len(frames)}, {len(targets)}")
    B, T, K = logits.shape
    for row, (n, target) in enumerate(zip(frames, targets)):
        if not (isinstance(n, numbers.Integral) and 1 <= n <= T):
            raise ValueError(f"batch row {row}: frame count {n!r} is not an int in [1, {T}]")
        for label in target:
            if not 0 < label < K:
                raise DataError(f"batch row {row}: target label {label} outside "
                                f"[1, {K - 1}]")
        need = min_frames(target)
        if n < need:
            raise DataError(
                f"batch row {row}: CTC-infeasible target: {n} frames cannot emit "
                f"{len(target)} labels (needs at least {need})"
            )

    ext, ext_lengths = _extended_batch(targets)
    lp = log_softmax(logits)

    # alpha and beta in one recursion over 2B rows; beta includes the
    # emission at t, as alpha does, so alpha + beta - emit is the total
    # log-probability of complete paths that pass through (t, s)
    both = _log_alpha(np.concatenate([lp, reverse_padded(lp, frames)]),
                      np.concatenate([ext, reverse_padded(ext, ext_lengths)]),
                      frames + frames, ext_lengths + ext_lengths)
    alpha = both[:B]
    beta = reverse_padded(reverse_padded(both[B:], frames).transpose(0, 2, 1),
                          ext_lengths).transpose(0, 2, 1)
    log_p = _total_log_prob(alpha, frames, ext_lengths)
    gamma = alpha + beta - np.take_along_axis(lp, ext[:, None, :], axis=2)

    # each label's occupancy sums its columns in column order, starting
    # from -inf: logaddexp(-inf, x) == x, so this is logaddexp.reduce
    occupancy = np.full((B, T, K), NEG_INF)
    rows = np.arange(B)
    for s in range(ext.shape[1]):
        k = ext[:, s]
        occupancy[rows, :, k] = np.logaddexp(occupancy[rows, :, k], gamma[:, :, s])
    grad = np.exp(lp) - np.exp(occupancy - log_p[:, None, None])
    grad[np.arange(T)[None, :] >= np.asarray(frames)[:, None]] = 0.0
    return -log_p, grad


def _sequence_log_prob(lp, labels) -> float:
    """Total log-probability under the per-frame log-probabilities lp
    (T, K) of all paths collapsing to the label sequence; -inf if the
    sequence cannot be emitted in T frames."""
    ext, ext_lengths = _extended_batch([labels])
    frames = [len(lp)]
    alpha = _log_alpha(lp[None], ext, frames, ext_lengths)
    return float(_total_log_prob(alpha, frames, ext_lengths)[0])


def greedy_decode(logits) -> list:
    """Best-path decoding: per-frame argmax of the log-probabilities (ties
    to the lowest index), then collapse."""
    return collapse(log_softmax(np.asarray(logits, dtype=np.float64)).argmax(axis=1).tolist())


def beam_decode(logits, beam_width: int) -> list:
    """Prefix beam search over collapsed prefixes, merging the blank and
    non-blank path probabilities of each prefix.

    When pruning loses enough mass that the chosen sequence is less
    probable than the greedy sequence, the greedy sequence is returned
    instead, so the decoder never does worse than best-path decoding."""
    if beam_width < 1:
        raise DataError(f"beam width must be >= 1, got {beam_width}")
    lp = log_softmax(np.asarray(logits, dtype=np.float64))
    T, K = lp.shape

    # prefix -> [log p ending in blank, log p ending in non-blank]
    beams = {(): [0.0, NEG_INF]}
    for t in range(T):
        step = defaultdict(lambda: [NEG_INF, NEG_INF])
        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            entry = step[prefix]
            entry[0] = np.logaddexp(entry[0], total + lp[t, BLANK_ID])
            if prefix:
                # repeating the final label extends only the non-blank mass
                entry[1] = np.logaddexp(entry[1], pnb + lp[t, prefix[-1]])
            for label in range(1, K):
                grown = step[prefix + (label,)]
                if prefix and label == prefix[-1]:
                    mass = pb + lp[t, label]
                else:
                    mass = total + lp[t, label]
                grown[1] = np.logaddexp(grown[1], mass)
        ranked = sorted(
            step.items(),
            key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]),
        )
        beams = dict(ranked[:beam_width])

    labels = list(next(iter(beams)))  # beams stay in rank order
    greedy = greedy_decode(logits)
    if _sequence_log_prob(lp, greedy) > _sequence_log_prob(lp, labels):
        return greedy
    return labels
