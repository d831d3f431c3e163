"""Command-line entry point.

Subcommands: prepare, train, evaluate, transcribe, sweep, error-report.
Exit codes: 0 success, 1 config error, 2 data error, 3 training failure.
"""

import argparse
import sys
from pathlib import Path

from .config import load_experiment_config
from .corpus import prepare_corpus_dir, stats_table, write_manifest, write_rejections
from .errors import ConfigError, DataError, PipelineError
from .evaluation import confusion_report, report_from_json
from .pipeline import (
    augmentation_sweep,
    emit_results_table,
    evaluate_run,
    relocate_audio_paths,
    run_experiment,
    transcribe_files,
)


def _beam_width(text) -> int:
    """Type of --beam: a whole number of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"beam width must be a whole number >= 1, "
                                         f"got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on usage errors; bad usage is a
    # configuration error under this tool's exit-code contract
    def error(self, message):
        raise ConfigError(message)


def _cmd_prepare(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest, rejections = prepare_corpus_dir(args.corpus_dir, tier=args.tier)
    relocate_audio_paths(manifest.records, args.corpus_dir, out_dir)
    write_manifest(manifest.records, out_dir / "manifest.jsonl")
    write_rejections(rejections, out_dir / "rejections.jsonl")
    table = stats_table(manifest.stats)
    (out_dir / "stats.txt").write_text(table, encoding="utf-8")
    print(f"sample rate: {manifest.sample_rate} Hz")
    print(table, end="")
    print(f"manifest: {out_dir / 'manifest.jsonl'}")
    return 0


def _cmd_train(args) -> int:
    config = load_experiment_config(args.config)
    run_dir = Path(args.run_dir) if args.run_dir else None
    row = run_experiment(config, fast=args.fast, run_dir=run_dir)
    print(emit_results_table([row]), end="")
    return 0


def _cmd_evaluate(args) -> int:
    beam_width = args.beam if args.decoder == "beam" else None
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
            named = error if path in error else f"{path}: {error}"
            print(f"error: {named}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_sweep(args) -> int:
    config = load_experiment_config(args.config)
    sizes = config.subset_sizes
    if args.sizes:
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(
                f"--sizes takes comma-separated counts, got {args.sizes!r}"
            ) from exc
    rows = augmentation_sweep(config, sizes, fast=args.fast)
    print(emit_results_table(rows), end="")
    return 0


def _cmd_error_report(args) -> int:
    report_path = Path(args.run) / f"report-{args.split}.json"
    if not report_path.exists():
        raise DataError(
            f"no report for split '{args.split}' in {args.run} (run evaluate first)"
        )
    report = report_from_json(report_path.read_bytes())
    print(confusion_report(report, args.top_k), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tinyasr",
                     description="Train and evaluate character-level BiLSTM-CTC "
                                 "recognizers on very small corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="clean and filter a corpus directory")
    p.add_argument("corpus_dir")
    p.add_argument("--out", required=True, help="output directory for the manifest")
    p.add_argument("--tier", default=None, help="only ingest this EAF tier")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="train and test-evaluate one experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--fast", action="store_true",
                   help="use a reduced 2-layer, 64-unit model")
    p.add_argument("--run-dir", default=None,
                   help="override the run directory (default: out_dir/name)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="re-evaluate a finished run")
    p.add_argument("--run", required=True)
    p.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p.add_argument("--decoder", default=None, choices=("greedy", "beam"))
    p.add_argument("--beam", type=_beam_width, default=8)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("transcribe", help="decode WAV files with a trained run")
    p.add_argument("--run", required=True)
    p.add_argument("wav", nargs="+")
    p.add_argument("--beam", type=_beam_width, default=None,
                   help="use prefix beam search with this width")
    p.set_defaults(func=_cmd_transcribe)

    p = sub.add_parser("sweep", help="incremental-data sweep over train subsets")
    p.add_argument("--config", required=True)
    p.add_argument("--sizes", default=None, help="comma-separated utterance counts")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("error-report", help="print the confusion table of a run")
    p.add_argument("--run", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--top-k", type=int, default=20)
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


if __name__ == "__main__":
    raise SystemExit(main())
