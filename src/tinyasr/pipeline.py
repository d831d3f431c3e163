"""Experiment orchestration: prepare -> train -> evaluate, incremental-data
sweeps, and transcription of new audio.

Every run directory is self-describing: it carries the resolved config, a
copy of the corpus manifest, the split membership, and the checkpoint, so
evaluation can be reproduced from the directory alone (plus the audio).
"""

import json
import os
import shutil
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import read_wav, slice_audio, wav_info
from .config import ExperimentConfig, check_section
from .corpus import read_manifest, write_manifest
from .errors import ConfigError, DataError, PipelineError
from .evaluation import build_report, confusion_report, report_to_json
from .features import DIMS, extract_features, frame_sizes
from .model import ModelConfig, decode, init_parameters, load_checkpoint
from .training import TrainItem, check_feasible, rng_for, split_corpus, train
from .variants import VARIANTS, LabelVocabulary, build_vocabulary, corpus_units

RUN_FILE = "run.json"
# each rule file's config key and its name in a run directory
RULE_FILES = {"g2p_rules": "g2p.tsv", "alignments": "words.jsonl"}
# the BLAS thread variables: the thread count changes a checkpoint's bytes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# what evaluate and transcribe read back from a run record, by type
_RUN_TYPES = {"experiment": str, "variant": str, "audio_root": str,
              "pause_gap_threshold": float, "sample_rate": int, "splits": dict}


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
    experiment: str
    utterances: int  # training utterances
    minutes: float  # training minutes of audio
    ler: float


def emit_results_table(rows) -> str:
    """Fixed-width table with the Experiment / Utterances / Minutes / LER
    columns, LER to three decimals."""
    header = ("Experiment", "Utterances", "Minutes", "LER")
    lines = ["  ".join(header)]
    cells = [
        (row.experiment, str(row.utterances), str(round(row.minutes)),
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


def build_items(records, unit_map, vocab, audio_root, sample_rate):
    """Slice audio, extract features, and encode targets for each record;
    a span or sample rate that does not fit its audio is a DataError naming
    the utterance and its file."""
    audio_root = Path(audio_root)
    buffers = {}
    items = []
    for record in records:
        path = audio_root / record.audio
        if record.audio not in buffers:
            buffers[record.audio] = read_wav(path)
        try:
            clip = slice_audio(buffers[record.audio], record.start_s, record.end_s)
            matrix = extract_features(clip, sample_rate)
        except DataError as exc:
            raise DataError(f"utterance '{record.id}' in {path}: {exc}") from exc
        target = vocab.encode(unit_map[record.id], record.id)
        items.append(TrainItem(id=record.id, features=matrix.frames, target=target))
    return items


@dataclass
class _Corpus:
    """A corpus read, encoded and split once per command; its first
    utterance's audio sets the sample rate."""

    records: list
    audio_root: Path
    sample_rate: int
    unit_map: dict
    vocab: LabelVocabulary
    train: list
    dev: list
    test: list

    def extract(self, records) -> dict:
        """The records' TrainItems, by id."""
        items = build_items(records, self.unit_map, self.vocab, self.audio_root,
                            self.sample_rate)
        return {item.id: item for item in items}


def _load_corpus(config: ExperimentConfig) -> _Corpus:
    if config.corpus is None or not Path(config.corpus).exists():
        raise DataError(f"prepared corpus manifest not found: {config.corpus}")
    # each named rule file is copied into the run, also where the variant
    # does not read it
    paths = {key: getattr(config, key) for key in RULE_FILES}
    for key, path in paths.items():
        if path is not None and not Path(path).is_file():
            raise DataError(f"{key} file not found: {path}")
    records = read_manifest(config.corpus)
    unit_map = corpus_units(records, config.variant, paths, config.pause_gap_threshold)
    splits = split_corpus(records, config.train.seed)
    audio_root = Path(config.corpus).resolve().parent
    sample_rate, _ = wav_info(audio_root / records[0].audio)
    frame_sizes(sample_rate)  # rejects a rate too low for the front end
    empty = [name for name, part in zip(("train", "dev", "test"), splits) if not part]
    if empty:
        raise DataError(f"empty split: {', '.join(empty)} (of {len(records)} "
                        f"utterances; the 80/10/10 split fills train, dev and test "
                        f"from 8 utterances on)")
    return _Corpus(records, audio_root, sample_rate, unit_map,
                   build_vocabulary(unit_map.values()), *splits)


def _append_results(out_dir: Path, row: ResultsRow) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(row)) + "\n")


def run_experiment(config: ExperimentConfig, corpus: _Corpus, items, train_records,
                   run_dir: Path, experiment) -> ResultsRow:
    """Train on train_records and test-evaluate one run named experiment,
    writing only run_dir.

    items holds the extracted utterances of train_records, dev and test, by
    id. The vocabulary always comes from the full corpus, so subsets stay
    comparable. Stage data settles the run before run_dir is written: the
    train and dev items must be CTC-feasible, and the initial parameters are
    drawn from the seed, so neither fault leaves a run directory behind.
    """
    parts = {"train": train_records, "dev": corpus.dev, "test": corpus.test}
    train_items, dev_items, test_items = (
        [items[r.id] for r in part] for part in parts.values())
    with _stage("data"):
        check_feasible(train_items + dev_items)
        model_config = ModelConfig(input_dim=DIMS, vocab_size=corpus.vocab.size - 1,
                                   **config.model)
        params = init_parameters(
            model_config, int(rng_for(config.train.seed, "init").integers(2 ** 31)))

    run_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(corpus.records, run_dir / "manifest.jsonl")
    for key, name in RULE_FILES.items():
        if getattr(config, key) is not None:
            shutil.copyfile(getattr(config, key), run_dir / name)

    run_info = {
        "schema_version": 1,
        "experiment": experiment,
        "variant": config.variant,
        "audio_root": str(corpus.audio_root),
        "pause_gap_threshold": config.pause_gap_threshold,
        "sample_rate": corpus.sample_rate,
        "model": asdict(model_config),
        "train": asdict(config.train),
        "splits": {name: [r.id for r in part] for name, part in parts.items()},
        "environment": _environment(),
    }
    _write_run_info(run_dir, run_info)

    with _stage("train"):
        result = train(train_items, dev_items, params, config.train, run_dir,
                       corpus.vocab.labels)

    with _stage("evaluate"):
        params, vocab = _load_run_model(run_dir)
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
    return row


def train_experiment(config: ExperimentConfig, run_dir: Path) -> ResultsRow:
    """Train and test-evaluate the config's experiment on the whole train
    split, in run_dir, and append its results row."""
    with _stage("data"):
        corpus = _load_corpus(config)
    with _stage("features"):
        items = corpus.extract(corpus.train + corpus.dev + corpus.test)
    row = run_experiment(config, corpus, items, corpus.train, run_dir, config.name)
    _append_results(config.out_dir, row)
    return row


def _environment() -> dict:
    """What a run's bytes depend on beyond its config and data: the numpy
    and BLAS builds, and the BLAS thread variables (None when unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


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
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"{path}: unreadable ({exc})") from exc
    missing = [key for key in _RUN_TYPES if not isinstance(info, dict) or key not in info]
    if missing:
        raise DataError(f"{path}: not a run record (lacks {', '.join(missing)})")
    try:
        check_section({key: info[key] for key in _RUN_TYPES}, _RUN_TYPES, RUN_FILE)
        if info["variant"] not in VARIANTS:
            raise ConfigError(f"unknown transcript variant '{info['variant']}'")
        frame_sizes(info["sample_rate"])  # rejects a rate that cannot work
        if sorted(info["splits"]) != ["dev", "test", "train"] or not all(
                isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                for ids in info["splits"].values()):
            raise ConfigError("splits must list utterance ids")
    except (ConfigError, DataError) as exc:
        raise DataError(f"{path}: not a run record ({exc})") from exc
    return info


def _load_run_model(run_dir):
    """A finished run's parameters and label vocabulary."""
    path = Path(run_dir) / "checkpoint.bin"
    params, vocab = load_checkpoint(path)
    if params.config.input_dim != DIMS:
        raise DataError(f"{path}: the model takes {params.config.input_dim} feature "
                        f"dimensions; the front end gives {DIMS}")
    return params, vocab


def _load_split(run_dir, run_info, split, vocab):
    """Rebuild one split's items from a run directory; also returns the
    run's records by id."""
    if split not in run_info["splits"]:
        raise ConfigError(f"unknown split '{split}' (expected train, dev, or test)")
    records = {r.id: r for r in read_manifest(run_dir / "manifest.jsonl")}
    missing = sorted({i for ids in run_info["splits"].values() for i in ids} - records.keys())
    if missing:
        raise DataError(
            f"run manifest lacks {len(missing)} utterance(s) that {RUN_FILE} lists: "
            f"{missing[:5]}"
        )
    split_records = [records[i] for i in run_info["splits"][split]]
    if not split_records:
        raise DataError(f"split '{split}' is empty")

    unit_map = corpus_units(split_records, run_info["variant"],
                            {key: run_dir / name for key, name in RULE_FILES.items()},
                            run_info["pause_gap_threshold"])
    items = build_items(split_records, unit_map, vocab, run_info["audio_root"],
                        run_info["sample_rate"])
    return items, records


def _report_split(run_dir, run_info, split, params, vocab, items, records,
                  beam_width=None):
    """Decode a split's items (greedy, or prefix beam search when
    beam_width is set), write report-<split>.{json,txt}, and return the
    results row and the report."""
    decoded = decode(params, [item.features for item in items], beam_width)
    entries = []
    for item, labels in zip(items, decoded):
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

    train_ids = run_info["splits"]["train"]
    minutes = sum(records[i].duration for i in train_ids) / 60.0
    row = ResultsRow(run_info["experiment"], len(train_ids), minutes, report.ler)
    return row, report


def evaluate_run(run_dir, split="test", beam_width=None):
    """Re-evaluate a finished run from its directory alone, decoding
    greedily or, when beam_width is set, by prefix beam search."""
    run_dir = Path(run_dir)
    run_info = _read_run_info(run_dir)
    params, vocab = _load_run_model(run_dir)
    items, records = _load_split(run_dir, run_info, split, vocab)
    return _report_split(run_dir, run_info, split, params, vocab, items, records,
                         beam_width)


def augmentation_sweep(config: ExperimentConfig, sizes) -> list:
    """Train on nested, growing subsets of the train split.

    Subsets come from one seeded shuffle, so each smaller subset is
    contained in every larger one; dev and test stay identical throughout.
    The corpus is read once, each utterance that some size uses is
    extracted once, and each size's results row is appended after its run.
    """
    sizes = list(sizes)
    if not sizes or any(type(s) is not int or s < 1 for s in sizes) \
            or sizes != sorted(set(sizes)):
        raise ConfigError(f"sweep sizes must be strictly ascending positive counts, "
                          f"got {sizes}")
    with _stage("data"):
        corpus = _load_corpus(config)
    if sizes[-1] > len(corpus.train):
        raise ConfigError(
            f"sweep size {sizes[-1]} exceeds the train split "
            f"({len(corpus.train)} utterances)"
        )
    shuffled = rng_for(config.train.seed, "subset").permutation(len(corpus.train))
    ordered = [corpus.train[i] for i in shuffled]
    with _stage("features"):
        items = corpus.extract(ordered[:sizes[-1]] + corpus.dev + corpus.test)

    rows = []
    for size in sizes:
        chosen = {r.id for r in ordered[:size]}
        subset = [r for r in corpus.train if r.id in chosen]
        name = f"{config.name}-n{size}"
        rows.append(run_experiment(config, corpus, items, subset, config.out_dir / name, name))
        _append_results(config.out_dir, rows[-1])
    return rows


def transcribe_files(run_dir, wav_paths, beam_width=None):
    """Decode new WAV files with a finished run's model, all in one decode
    call.

    Returns [(path, text_or_None, error_or_None)] in input order; a file
    that fails does not stop the others. Output text is written next to
    each input, with the suffix .txt; a file whose transcript would
    overwrite an input or another input's transcript fails.
    """
    run_dir = Path(run_dir)
    sample_rate = _read_run_info(run_dir)["sample_rate"]
    params, vocab = _load_run_model(run_dir)

    wav_paths = [Path(wav_path) for wav_path in wav_paths]
    # the files the inputs and transcripts are; realpath passes over symlink loops
    inputs = {os.path.realpath(wav_path) for wav_path in wav_paths}
    targets = [os.path.realpath(wav_path.with_suffix(".txt")) if wav_path.name else None
               for wav_path in wav_paths]
    shared = Counter(targets)
    frames, errors = {}, {}
    for index, wav_path in enumerate(wav_paths):
        try:
            target = targets[index]
            if target in inputs or (target is not None and shared[target] > 1):
                raise DataError(f"{wav_path}: its transcript {wav_path.with_suffix('.txt')} "
                                "would overwrite an input or another input's transcript")
            if not wav_path.exists():
                raise DataError(f"file not found: {wav_path}")
            frames[index] = extract_features(read_wav(wav_path), sample_rate).frames
        except DataError as exc:
            errors[index] = str(exc)
    decoded = dict(zip(frames, decode(params, list(frames.values()), beam_width)))

    outputs = []
    for index, wav_path in enumerate(wav_paths):
        if index in errors:
            outputs.append((str(wav_path), None, errors[index]))
            continue
        text = vocab.decode(decoded[index])
        wav_path.with_suffix(".txt").write_text(text + "\n", encoding="utf-8")
        outputs.append((str(wav_path), text, None))
    return outputs

