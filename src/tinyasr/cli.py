"""Command-line entry point.

Subcommands: prepare, train, evaluate, transcribe, sweep, error-report.
Exit codes: 0 success, 1 config error or an output that cannot be written,
2 data error, 3 training failure.
"""

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_experiment_config
from .corpus import prepare_corpus_dir, stats_table, write_manifest, write_rejections
from .errors import ConfigError, DataError, PipelineError
from .evaluation import confusion_report, report_from_json
from .pipeline import (
    augmentation_sweep,
    emit_results_table,
    evaluate_run,
    train_experiment,
    transcribe_files,
)

FAST_MODEL = {"num_layers": 2, "hidden_units": 64}


def _whole_number(text, minimum, what) -> int:
    if not text.isdecimal() or int(text) < minimum:
        raise argparse.ArgumentTypeError(f"{what} must be a whole number >= {minimum}, "
                                         f"got {text!r}")
    return int(text)


def _beam_width(text) -> int:
    """Type of --beam: a whole number of at least 1."""
    return _whole_number(text, 1, "beam width")


def _top_k(text) -> int:
    """Type of --top-k: a whole number of at least 0."""
    return _whole_number(text, 0, "top-k")


def _path(text) -> str:
    """Type of an output or run directory option: a path without NUL."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"path holds a NUL character: {text!r}")
    return text


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on usage errors; bad usage is a
    # configuration error under this tool's exit-code contract
    def error(self, message):
        raise ConfigError(message)


def _cmd_prepare(args) -> int:
    out_dir = Path(args.out)
    records, rejections, sample_rate = prepare_corpus_dir(args.corpus_dir, tier=args.tier)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the manifest names each WAV relative to its own directory; resolving
    # only the directories keeps a symlinked WAV's own name
    corpus_dir, manifest_dir = Path(args.corpus_dir).resolve(), out_dir.resolve()
    for record in records:
        record.audio = os.path.relpath(corpus_dir / record.audio, manifest_dir)
    write_manifest(records, out_dir / "manifest.jsonl")
    write_rejections(rejections, out_dir / "rejections.jsonl")
    table = stats_table(records, rejections)
    (out_dir / "stats.txt").write_text(table, encoding="utf-8")
    print(f"sample rate: {sample_rate} Hz")
    print(table, end="")
    print(f"manifest: {out_dir / 'manifest.jsonl'}")
    return 0


def _experiment_config(args):
    """The --config file's experiment; under --fast, its model is FAST_MODEL."""
    config = load_experiment_config(args.config)
    return replace(config, model=FAST_MODEL) if args.fast else config


def _cmd_train(args) -> int:
    config = _experiment_config(args)
    row = train_experiment(config)
    print(emit_results_table([row]), end="")
    return 0


def _cmd_evaluate(args) -> int:
    # --beam alone selects beam search; --decoder beam alone uses width 8
    beam_width = None if args.decoder == "greedy" else args.beam
    if args.decoder == "beam" and beam_width is None:
        beam_width = 8
    row, report = evaluate_run(args.run, split=args.split, beam_width=beam_width)
    print(f"split: {args.split}  micro LER: {report.ler:.6f}  "
          f"macro LER: {report.ler_macro:.6f}")
    print(emit_results_table([row]), end="")
    return 0


def _cmd_transcribe(args) -> int:
    outputs = transcribe_files(args.run, args.wav, beam_width=args.beam)
    failed = 0
    for path, text, error in outputs:
        if error is None:
            print(f"{path}\t{text}")
        else:
            failed += 1
            print(f"error: {error}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_sweep(args) -> int:
    config = _experiment_config(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--sizes takes comma-separated counts, got {args.sizes!r}") from exc
    rows = augmentation_sweep(config, sizes)
    print(emit_results_table(rows), end="")
    return 0


def _cmd_error_report(args) -> int:
    report_path = Path(args.run) / f"report-{args.split}.json"
    try:
        data = report_path.read_bytes()
    except OSError as exc:
        raise DataError(f"no readable report for split '{args.split}' in {args.run} "
                        f"({exc.strerror}; run evaluate first)") from exc
    report = report_from_json(data, report_path)
    print(confusion_report(report, args.top_k), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    fast_help = "use a reduced {num_layers}-layer, {hidden_units}-unit model".format(**FAST_MODEL)
    parser = _Parser(prog="tinyasr",
                     description="Train and evaluate character-level BiLSTM-CTC "
                                 "recognizers on very small corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="clean and filter a corpus directory")
    p.add_argument("corpus_dir")
    p.add_argument("--out", type=_path, required=True,
                   help="output directory for the manifest")
    p.add_argument("--tier", default=None, help="only ingest this EAF tier")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="train and test-evaluate one experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--fast", action="store_true", help=fast_help)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="re-evaluate a finished run")
    p.add_argument("--run", required=True)
    p.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p.add_argument("--decoder", default=None, choices=("greedy", "beam"),
                   help="greedy (the default) or beam; --decoder greedy ignores --beam")
    p.add_argument("--beam", type=_beam_width, default=None,
                   help="use prefix beam search with this width (8 under --decoder beam)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("transcribe", help="decode WAV files with a trained run")
    p.add_argument("--run", required=True)
    p.add_argument("wav", nargs="+")
    p.add_argument("--beam", type=_beam_width, default=None,
                   help="use prefix beam search with this width")
    p.set_defaults(func=_cmd_transcribe)

    p = sub.add_parser("sweep", help="incremental-data sweep over train subsets")
    p.add_argument("--config", required=True)
    p.add_argument("--sizes", required=True,
                   help="comma-separated, strictly ascending utterance counts")
    p.add_argument("--fast", action="store_true", help=fast_help)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("error-report", help="print the confusion table of a run")
    p.add_argument("--run", type=_path, required=True)
    p.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p.add_argument("--top-k", type=_top_k, default=20)
    p.set_defaults(func=_cmd_error_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # not wrapped in a DataError: an output that cannot be written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
