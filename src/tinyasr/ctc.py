"""Connectionist temporal classification: loss, exact logits gradient,
and greedy / prefix-beam decoding.

All recursions run in log space. Blank is always label index 0.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DataError

BLANK_ID = 0
NEG_INF = -np.inf


@dataclass
class CTCResult:
    loss: float  # negative log-likelihood
    grad: np.ndarray  # d loss / d logits, same shape as the logits


@dataclass
class DecodedSequence:
    labels: list
    score: float


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


def _extended(target):
    ext = np.zeros(2 * len(target) + 1, dtype=np.int64)
    ext[1::2] = target
    return ext


def _check_target(target, n_labels):
    for label in target:
        if not 0 < label < n_labels:
            raise DataError(f"target label {label} outside [1, {n_labels - 1}]")


def _log_alpha(lp, ext):
    """Log-space forward variables (T, S) of the blank-extended target
    ext under the per-frame log-probabilities lp. alpha[t, s] includes the
    emission at t. Run on both sequences reversed, it gives the backward
    variables, reversed."""
    T, S = lp.shape[0], len(ext)
    emit = lp[:, ext]  # (T, S)

    # skip transition s-2 -> s exists unless it would jump over a needed
    # blank (same label on both sides) or land on a blank
    can_skip = np.zeros(S, dtype=bool)
    if S > 2:
        can_skip[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])

    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = emit[0, 0]
    if S > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, T):
        prev = alpha[t - 1]
        shift1 = np.concatenate(([NEG_INF], prev[:-1]))
        shift2 = np.concatenate(([NEG_INF, NEG_INF], prev[:-2]))
        shift2 = np.where(can_skip, shift2, NEG_INF)
        alpha[t] = np.logaddexp(np.logaddexp(prev, shift1), shift2) + emit[t]
    return alpha


def ctc_loss(logits, target) -> CTCResult:
    """Negative log-likelihood of the target under the logits, with the
    exact gradient, via the log-space forward-backward recursion over the
    blank-extended target."""
    logits = np.asarray(logits, dtype=np.float64)
    T, K = logits.shape
    target = list(target)
    _check_target(target, K)
    need = min_frames(target)
    if T < need:
        raise DataError(
            f"CTC-infeasible target: {T} frames cannot emit {len(target)} labels "
            f"(needs at least {need})"
        )

    lp = log_softmax(logits)
    ext = _extended(target)
    alpha = _log_alpha(lp, ext)
    log_p = np.logaddexp.reduce(alpha[-1, -2:])  # end on the last label or blank
    # beta includes the emission at t, as alpha does, so alpha + beta - emit
    # is the total log-probability of complete paths that pass through (t, s)
    beta = _log_alpha(lp[::-1], ext[::-1])[::-1, ::-1]
    gamma = alpha + beta - lp[:, ext]
    occupancy = np.full((T, K), NEG_INF)
    for k in set(ext.tolist()):
        cols = gamma[:, ext == k]
        occupancy[:, k] = np.logaddexp.reduce(cols, axis=1)
    grad = np.exp(lp) - np.exp(occupancy - log_p)
    return CTCResult(loss=float(-log_p), grad=grad)


def _sequence_log_prob(lp, labels) -> float:
    if lp.shape[0] < min_frames(labels):
        return NEG_INF
    if len(labels) == 0:
        return float(lp[:, BLANK_ID].sum())
    return float(np.logaddexp.reduce(_log_alpha(lp, _extended(labels))[-1, -2:]))


def sequence_log_prob(logits, labels) -> float:
    """Total log-probability of all paths collapsing to the label
    sequence; -inf if the sequence cannot be emitted in T frames."""
    lp = log_softmax(np.asarray(logits, dtype=np.float64))
    labels = list(labels)
    _check_target(labels, lp.shape[1])
    return _sequence_log_prob(lp, labels)


def greedy_decode(logits) -> DecodedSequence:
    """Best-path decoding: per-frame argmax (ties to the lowest index),
    then collapse. The score is the best path's log-probability."""
    lp = log_softmax(np.asarray(logits, dtype=np.float64))
    path = lp.argmax(axis=1)
    score = float(lp[np.arange(len(path)), path].sum())
    return DecodedSequence(labels=collapse(path), score=score)


def beam_decode(logits, beam_width: int) -> DecodedSequence:
    """Prefix beam search over collapsed prefixes, merging the blank and
    non-blank path probabilities of each prefix.

    The returned score is the exact sequence log-probability of the chosen
    sequence. When pruning loses enough mass that the search would come out
    below the greedy sequence, the greedy sequence is returned instead, so
    the decoder never scores under best-path decoding."""
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
    score = _sequence_log_prob(lp, labels)
    greedy = collapse(lp.argmax(axis=1))
    greedy_score = _sequence_log_prob(lp, greedy)
    if greedy_score > score:
        return DecodedSequence(labels=greedy, score=greedy_score)
    return DecodedSequence(labels=labels, score=score)
