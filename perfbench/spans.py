"""Outside-in span recorder for the traced benchmark run.

The benchmark wraps tinyasr's public functions from here, in every module
namespace that holds them (the package uses ``from .model import
forward_batch`` and similar, so patching only the defining module would
miss most calls). Nothing under ``src/`` is changed. Spans stay in memory
and are written out when the run ends.
"""

import functools
import hashlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "tinyasr"


def _count_forward(args, kwargs, result):
    features = args[1]
    lengths = [f.shape[0] for f in features]
    return {"batch": len(lengths), "frames": sum(lengths),
            "padded_frames": len(lengths) * max(lengths)}


def _count_backward(args, kwargs, result):
    dlogits = args[2]
    return {"batch": len(dlogits), "frames": sum(d.shape[0] for d in dlogits)}


def _count_ctc(args, kwargs, result):
    return {"frames": args[0].shape[0], "labels": len(args[1])}


def _count_decode(args, kwargs, result):
    return {"frames": len(args[0]), "labels": len(result.labels)}


def _count_features(args, kwargs, result):
    # a cheap fingerprint of the audio tells re-extractions of one
    # utterance apart from distinct utterances
    digest = hashlib.blake2b(args[0].samples.tobytes(), digest_size=8).hexdigest()
    return {"frames": result.frames.shape[0], "utt": digest}


def _count_batch(args, kwargs, result):
    return {"batch": len(args[0])}


def _count_dev(args, kwargs, result):
    return {"batch": len(args[1])}


# (module, function, work counter). A target that a refactor renamed or
# deleted is reported as missing; the run goes on without it.
TARGETS = (
    ("audio", "read_wav", None),
    ("corpus", "prepare_corpus_dir", None),
    ("corpus", "read_manifest", None),
    ("features", "extract_features", _count_features),
    ("model", "forward_batch", _count_forward),
    ("model", "backward_batch", _count_backward),
    ("model", "load_checkpoint", None),
    ("model", "save_checkpoint", None),
    ("ctc", "ctc_loss", _count_ctc),
    ("ctc", "greedy_decode", _count_decode),
    ("ctc", "beam_decode", _count_decode),
    ("training", "train", _count_batch),
    ("training", "adam_step", None),
    ("training", "dev_label_error_rate", _count_dev),
    ("evaluation", "build_report", _count_batch),
    ("pipeline", "run_experiment", None),
    ("pipeline", "build_items", _count_batch),
    ("pipeline", "evaluate_run", None),
    ("pipeline", "transcribe_files", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None


class SpanRecorder:
    """Records one span per wrapped call: name, start, end, parent index
    and work counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []
        self.uncounted = set()

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span.counts = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the signature changed under a refactor: keep the span
                    self.uncounted.add(name)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs, then restore the
        original functions."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        patches = []
        self.missing = []
        for module_name, func_name, count in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original, count)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        patches.append((namespace, attr, original))
                        setattr(namespace, attr, wrapper)
        try:
            yield self
        finally:
            for namespace, attr, original in reversed(patches):
                setattr(namespace, attr, original)

    def mark(self):
        return len(self.spans)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "start": span.start, "end": span.end, "counts": span.counts,
                }) + "\n")


def _ancestors(spans, span):
    while span.parent >= 0:
        span = spans[span.parent]
        yield span.name


def _is_training_forward(spans, span):
    """A forward call inside the training loop, but not one made by dev
    decoding; every other forward call is inference."""
    for name in _ancestors(spans, span):
        if name == "training.dev_label_error_rate":
            return False
        if name == "training.train":
            return True
    return False


SELF_TIME_LAYERS = (
    "model.forward_batch.train",
    "model.forward_batch.infer",
    "model.backward_batch",
    "ctc.ctc_loss",
    "ctc.beam_decode",
    "ctc.greedy_decode",
    "training.adam_step",
    "training.train",
    "features.extract_features",
    "evaluation.build_report",
    "model.load_checkpoint",
    "model.save_checkpoint",
    "audio.read_wav",
    "pipeline.run_experiment",
    "pipeline.build_items",
    "pipeline.evaluate_run",
    "pipeline.transcribe_files",
    "corpus.prepare_corpus_dir",
    "corpus.read_manifest",
)


def layer_totals(spans, first, last, window):
    """Per-layer figures of spans[first:last], which ran within a wall-clock
    window of ``window`` seconds."""
    child_time = Counter()
    for index in range(first, last):
        if spans[index].parent >= first:
            child_time[spans[index].parent] += spans[index].end - spans[index].start

    self_s, total_s, calls, frames, padded = (Counter() for _ in range(5))
    utts = set()
    covered = 0.0
    for index in range(first, last):
        span = spans[index]
        name = span.name
        if name == "model.forward_batch":
            name += ".train" if _is_training_forward(spans, span) else ".infer"
        duration = span.end - span.start
        if span.parent < first:
            covered += duration
        self_s[name] += duration - child_time[index]
        total_s[name] += duration
        calls[name] += 1
        counts = span.counts or {}
        frames[name] += counts.get("frames", 0)
        padded[name] += counts.get("padded_frames", 0)
        if "utt" in counts:
            utts.add(counts["utt"])

    def ratio(num, den):
        return num / den if den else 0.0

    train, infer = "model.forward_batch.train", "model.forward_batch.infer"
    out = {f"{name}.self_s": self_s[name] for name in SELF_TIME_LAYERS}
    out.update({
        f"{train}.frames": frames[train],
        f"{train}.pad_useful": ratio(frames[train], padded[train]),
        "model.backward_batch.frames_per_s":
            ratio(frames["model.backward_batch"], self_s["model.backward_batch"]),
        f"{infer}.calls": calls[infer],
        f"{infer}.frames_per_s": ratio(frames[infer], self_s[infer]),
        "ctc.ctc_loss.calls": calls["ctc.ctc_loss"],
        "training.dev_label_error_rate.total_s": total_s["training.dev_label_error_rate"],
        "features.extract_features.calls": calls["features.extract_features"],
        "features.extract_per_utt": ratio(calls["features.extract_features"], len(utts)),
        "audio.read_wav.calls": calls["audio.read_wav"],
        "trace.uncovered_share": 1.0 - ratio(covered, window),
    })
    return out
