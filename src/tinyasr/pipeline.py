"""Experiment orchestration: prepare -> train -> evaluate, incremental-data
sweeps, and transcription of new audio.

Every run directory is self-describing: it carries the resolved config, a
copy of the corpus manifest, the split membership, and the checkpoint, so
evaluation can be reproduced from the directory alone (plus the audio).
"""

import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .audio import read_wav, slice_audio
from .config import FEATURE_TYPES, ExperimentConfig, check_section, check_sizes
from .corpus import read_manifest, write_manifest
from .errors import ConfigError, DataError, PipelineError
from .evaluation import build_report, confusion_report, report_to_json
from .features import FeatureConfig, extract_features
from .model import ModelConfig, decode, load_checkpoint
from .training import TrainItem, rng_for, split_corpus, train
from .variants import (
    G2PRuleSet,
    LabelVocabulary,
    build_vocabulary,
    load_alignments,
    variant_units,
)

RUN_FILE = "run.json"
# what evaluate and transcribe read back from a run record, by type
_RUN_TYPES = {"experiment": str, "variant": str, "audio_root": str,
              "pause_gap_threshold": float, "feature_config": dict, "splits": dict,
              "subset": list | None}


@contextmanager
def _stage(name):
    """Failures abort with the stage they happened in; partial artifacts
    written so far stay on disk for debugging."""
    try:
        yield
    except PipelineError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from exc


@dataclass
class ResultsRow:
    experiment_id: str
    utterances: int  # training utterances
    minutes: float  # training minutes of audio
    ler: float


def emit_results_table(rows) -> str:
    """Fixed-width table with the Experiment / Utterances / Minutes / LER
    columns, LER to three decimals."""
    header = ("Experiment", "Utterances", "Minutes", "LER")
    lines = ["  ".join(header)]
    cells = [
        (row.experiment_id, str(row.utterances), str(round(row.minutes)),
         f"{row.ler:.3f}")
        for row in rows
    ]
    if cells:
        widths = [max(len(c[i]) for c in cells) for i in range(4)]
        for c in cells:
            first = c[0].ljust(widths[0])
            rest = [c[i].rjust(widths[i]) for i in range(1, 4)]
            lines.append("  ".join([first] + rest).rstrip())
    return "\n".join(lines) + "\n"


def corpus_units(records, variant, g2p_path, alignments_path, gap_threshold):
    """Each record's label units under the variant, which reads its G2P
    rules and word alignments from the given paths when it needs them."""
    g2p = alignments = None
    if variant.startswith("ipa"):
        if g2p_path is None or not Path(g2p_path).exists():
            raise ConfigError(f"variant '{variant}' needs a G2P rule file")
        g2p = G2PRuleSet.from_tsv(g2p_path)
    if variant == "ipa-pause-boundaries":
        if alignments_path is None or not Path(alignments_path).exists():
            raise ConfigError("variant 'ipa-pause-boundaries' needs word alignments")
        alignments = load_alignments(alignments_path)
    return {
        record.id: variant_units(record, variant, g2p, alignments, gap_threshold)
        for record in records
    }


def build_items(records, unit_map, vocab, audio_root, feature_config):
    """Slice audio, extract features, and encode targets for each record."""
    audio_root = Path(audio_root)
    buffers = {}
    items = []
    for record in records:
        if record.audio not in buffers:
            buffers[record.audio] = read_wav(audio_root / record.audio)
        clip = slice_audio(buffers[record.audio], record.start_s, record.end_s)
        matrix = extract_features(clip, feature_config)
        target = vocab.encode(unit_map[record.id], record.id)
        items.append(TrainItem(id=record.id, features=matrix.frames, target=target))
    return items


@dataclass
class _Corpus:
    """A corpus read, encoded and split once per command; items holds the
    utterances extracted so far, by id, so none is extracted twice."""

    records: list
    audio_root: Path
    unit_map: dict
    vocab: LabelVocabulary
    train: list
    dev: list
    test: list
    items: dict = field(default_factory=dict)

    def extract(self, records, feature_config) -> None:
        todo = [r for r in records if r.id not in self.items]
        for item in build_items(todo, self.unit_map, self.vocab, self.audio_root,
                                feature_config):
            self.items[item.id] = item


def _load_corpus(config: ExperimentConfig) -> _Corpus:
    if config.corpus is None or not Path(config.corpus).exists():
        raise DataError(f"prepared corpus manifest not found: {config.corpus}")
    records = read_manifest(config.corpus)
    unit_map = corpus_units(records, config.variant, config.g2p_rules,
                            config.alignments, config.pause_gap_threshold)
    ratios = (config.train.split_train, config.train.split_dev, config.train.split_test)
    return _Corpus(records, Path(config.corpus).resolve().parent, unit_map,
                   build_vocabulary(unit_map.values()),
                   *split_corpus(records, ratios, config.seed))


def _append_results(out_dir: Path, row: ResultsRow) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "experiment": row.experiment_id,
            "utterances": row.utterances,
            "minutes": row.minutes,
            "ler": row.ler,
        }) + "\n")


def run_experiment(config: ExperimentConfig, fast=False, subset_ids=None,
                   run_dir=None, experiment_id=None, corpus=None) -> ResultsRow:
    """End-to-end train and test-evaluate one experiment.

    subset_ids restricts the train split (dev/test stay identical); the
    vocabulary always comes from the full corpus so subsets stay comparable.
    corpus is the caller's _Corpus of this config, when it has one; its
    extracted utterances are reused.
    """
    experiment_id = experiment_id or config.name
    run_dir = Path(run_dir) if run_dir is not None else config.out_dir / experiment_id

    with _stage("data"):
        if corpus is None:
            corpus = _load_corpus(config)
        layers, hidden = (2, 64) if fast else (config.model_layers, config.model_hidden)
        model_config = ModelConfig(
            input_dim=config.features.dims,
            vocab_size=corpus.vocab.size - 1,
            num_layers=layers,
            hidden_units=hidden,
        )
        train_records = corpus.train
        if subset_ids is not None:
            chosen = set(subset_ids)
            missing = chosen - {r.id for r in train_records}
            if missing:
                raise DataError(
                    f"subset ids not in the train split: {sorted(missing)[:5]}"
                )
            train_records = [r for r in train_records if r.id in chosen]

    run_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(corpus.records, run_dir / "manifest.jsonl")
    if config.g2p_rules is not None:
        shutil.copyfile(config.g2p_rules, run_dir / "g2p.tsv")
    if config.alignments is not None:
        shutil.copyfile(config.alignments, run_dir / "words.jsonl")

    run_info = {
        "schema_version": 1,
        "experiment": experiment_id,
        "variant": config.variant,
        "seed": config.seed,
        "fast": fast,
        "audio_root": str(corpus.audio_root),
        "pause_gap_threshold": config.pause_gap_threshold,
        "feature_config": asdict(config.features),
        "model": asdict(model_config),
        "train": asdict(config.train),
        "splits": {
            "train": [r.id for r in train_records],
            "dev": [r.id for r in corpus.dev],
            "test": [r.id for r in corpus.test],
        },
        "subset": sorted(subset_ids) if subset_ids is not None else None,
    }
    _write_run_info(run_dir, run_info)

    with _stage("features"):
        corpus.extract(train_records + corpus.dev + corpus.test, config.features)
    train_items, dev_items, test_items = (
        [corpus.items[r.id] for r in part] for part in (train_records, corpus.dev, corpus.test))

    with _stage("train"):
        result = train(train_items, dev_items, model_config, config.train, run_dir,
                       corpus.vocab.labels)

    with _stage("evaluate"):
        params, vocab, _ = _load_run_model(run_dir, run_info)
        row, _ = _report_split(run_dir, run_info, "test", params, vocab, test_items,
                               {r.id: r for r in corpus.records})
    run_info["results"] = {
        "utterances": row.utterances,
        "minutes": row.minutes,
        "ler": row.ler,
        "best_dev_ler": result.best_dev_ler,
        "best_epoch": result.best_epoch,
    }
    _write_run_info(run_dir, run_info)
    _append_results(config.out_dir, row)
    return row


def _write_run_info(run_dir: Path, info: dict) -> None:
    (run_dir / RUN_FILE).write_text(
        json.dumps(info, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_run_info(run_dir) -> dict:
    """The run record of a run directory, checked for every key that
    evaluate and transcribe read and for the type of its value."""
    path = Path(run_dir) / RUN_FILE
    if not path.exists():
        raise DataError(f"not a run directory (no {RUN_FILE}): {run_dir}")
    try:
        info = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: unreadable ({exc})") from exc
    if not isinstance(info, dict) or any(key not in info for key in _RUN_TYPES):
        raise DataError(f"{path}: not a run record (needs {', '.join(_RUN_TYPES)})")
    try:
        check_section({key: info[key] for key in _RUN_TYPES}, _RUN_TYPES, RUN_FILE)
        check_section(info["feature_config"], FEATURE_TYPES, "feature_config")
        FeatureConfig(**info["feature_config"])  # rejects values that cannot work
        id_lists = [*info["splits"].values(), info["subset"] or []]
        if sorted(info["splits"]) != ["dev", "test", "train"] or not all(
                isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                for ids in id_lists):
            raise ConfigError("splits and subset must list utterance ids")
    except ConfigError as exc:
        raise DataError(f"{path}: not a run record ({exc})") from exc
    return info


def _load_run_model(run_dir, run_info):
    """A finished run's parameters, label vocabulary and feature config."""
    params, labels = load_checkpoint(Path(run_dir) / "checkpoint.bin")
    feature_config = FeatureConfig(**run_info["feature_config"])
    return params, LabelVocabulary(labels=tuple(labels)), feature_config


def _load_split(run_dir, run_info, split, vocab, feature_config):
    """Rebuild one split's items from a run directory; also returns the
    run's records by id."""
    if split not in run_info["splits"]:
        raise ConfigError(f"unknown split '{split}' (expected train, dev, or test)")
    records = {r.id: r for r in read_manifest(run_dir / "manifest.jsonl")}
    listed = [*run_info["splits"].values(), run_info["subset"] or []]
    missing = sorted({i for ids in listed for i in ids} - records.keys())
    if missing:
        raise DataError(
            f"run manifest lacks {len(missing)} utterance(s) that {RUN_FILE} lists: "
            f"{missing[:5]}"
        )
    split_records = [records[i] for i in run_info["splits"][split]]
    if not split_records:
        raise DataError(f"split '{split}' is empty")

    unit_map = corpus_units(split_records, run_info["variant"], run_dir / "g2p.tsv",
                            run_dir / "words.jsonl", run_info["pause_gap_threshold"])
    items = build_items(split_records, unit_map, vocab, run_info["audio_root"],
                        feature_config)
    return items, records


def _report_split(run_dir, run_info, split, params, vocab, items, records,
                  beam_width=None):
    """Decode a split's items (greedy, or prefix beam search when
    beam_width is set), write report-<split>.{json,txt}, and return the
    results row and the report."""
    entries = []
    for item in items:
        labels = decode(params, item.features, beam_width).labels
        entries.append((item.id, tuple(vocab.labels[i] for i in item.target),
                        tuple(vocab.labels[i] for i in labels), vocab.decode(labels)))
    report = build_report(entries, "greedy" if beam_width is None else "beam")

    (run_dir / f"report-{split}.json").write_text(report_to_json(report) + "\n",
                                                  encoding="utf-8")
    (run_dir / f"report-{split}.txt").write_text(
        f"split: {split}\nmicro LER: {report.ler:.6f}\n"
        f"macro LER: {report.ler_macro:.6f}\nutterances: {report.n_utterances}\n"
        f"decoder: {report.decoder}\n\n" + confusion_report(report, 20),
        encoding="utf-8",
    )

    train_ids = run_info["subset"] if run_info["subset"] is not None \
        else run_info["splits"]["train"]
    minutes = sum(records[i].duration for i in train_ids) / 60.0
    row = ResultsRow(run_info["experiment"], len(train_ids), minutes, report.ler)
    return row, report


def evaluate_run(run_dir, split="test", beam_width=None):
    """Re-evaluate a finished run from its directory alone, decoding
    greedily or, when beam_width is set, by prefix beam search."""
    run_dir = Path(run_dir)
    run_info = _read_run_info(run_dir)
    params, vocab, feature_config = _load_run_model(run_dir, run_info)
    items, records = _load_split(run_dir, run_info, split, vocab, feature_config)
    return _report_split(run_dir, run_info, split, params, vocab, items, records,
                         beam_width)


def augmentation_sweep(config: ExperimentConfig, sizes, fast=False) -> list:
    """Train on nested, growing subsets of the train split.

    Subsets come from one seeded shuffle, so each smaller subset is
    contained in every larger one; dev and test stay identical throughout.
    The corpus is read once, and each utterance that some size uses is
    extracted once.
    """
    sizes = check_sizes(sizes, "sweep sizes")
    if not sizes:
        raise ConfigError("no sweep sizes given (use --sizes or subset_sizes)")
    with _stage("data"):
        corpus = _load_corpus(config)
    if sizes[-1] > len(corpus.train):
        raise ConfigError(
            f"sweep size {sizes[-1]} exceeds the train split "
            f"({len(corpus.train)} utterances)"
        )
    shuffled = rng_for(config.seed, "subset").permutation(len(corpus.train))
    ordered = [corpus.train[i] for i in shuffled]
    with _stage("features"):
        corpus.extract(ordered[:sizes[-1]] + corpus.dev + corpus.test, config.features)

    rows = []
    for size in sizes:
        rows.append(
            run_experiment(
                config,
                fast=fast,
                subset_ids=[r.id for r in ordered[:size]],
                run_dir=config.out_dir / f"{config.name}-n{size}",
                experiment_id=f"{config.name}-n{size}",
                corpus=corpus,
            )
        )
    return rows


def transcribe_files(run_dir, wav_paths, beam_width=None):
    """Decode new WAV files with a finished run's model.

    Returns [(path, text_or_None, error_or_None)]; failures do not stop
    the remaining files. Output text is written next to each input.
    """
    run_dir = Path(run_dir)
    params, vocab, feature_config = _load_run_model(run_dir, _read_run_info(run_dir))

    outputs = []
    for wav_path in wav_paths:
        wav_path = Path(wav_path)
        try:
            if not wav_path.exists():
                raise DataError(f"file not found: {wav_path}")
            audio = read_wav(wav_path)
            matrix = extract_features(audio, feature_config)
            decoded = decode(params, matrix.frames, beam_width)
            text = vocab.decode(decoded.labels)
            wav_path.with_suffix(".txt").write_text(text + "\n", encoding="utf-8")
            outputs.append((str(wav_path), text, None))
        except DataError as exc:
            outputs.append((str(wav_path), None, str(exc)))
    return outputs


def relocate_audio_paths(records, corpus_dir, out_dir):
    """Rewrite record audio paths relative to out_dir (used by prepare so
    the emitted manifest resolves audio from its own location)."""
    corpus_dir = Path(corpus_dir).resolve()
    out_dir = Path(out_dir).resolve()
    for record in records:
        record.audio = os.path.relpath(corpus_dir / record.audio, out_dir)
    return records
