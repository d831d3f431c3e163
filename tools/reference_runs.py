"""Reference runs for the determinism check.

    python tools/reference_runs.py OUT_DIR

Generates the 60-utterance tone corpus (seed 3) under OUT_DIR and runs
`prepare` on it into OUT_DIR/records/prepare, which keeps the manifest.jsonl,
rejections.jsonl and stats.txt it writes and its standard output
(stdout.txt, without OUT_DIR). Training reads corpus/utterances.jsonl, not
that manifest. For the variants orig-no-spaces and ipa-pause-boundaries
(pause gap 0.05 s), it runs `sweep --fast --sizes 10,20,40` and then
`train --fast`, with seed 7 and max_epochs = patience = 3, at one BLAS
thread. One more run, orig-no-spaces-3x250, runs `train` at the default
model size (3x250, which rounds differently from --fast) with seed 7 and
max_epochs = patience = 2. Each of the 9 runs is then evaluated on dev and
test, greedy and with beam 8, and transcribes tone0000-tone0005 both ways;
those outputs are kept under OUT_DIR/evaluations and OUT_DIR/transcripts.
Each run's run.json (without audio_root, the absolute corpus path) and
epochs.jsonl (without the wall-clock seconds) are kept under
OUT_DIR/records.

Prints one line per run: its name, the sha256 of its checkpoint.bin, the
test LER, best_dev_ler, best_epoch, and one sha256 over its kept evaluate
reports and transcripts (each file's name and bytes, in sorted name order),
and writes the same lines to OUT_DIR/summary.tsv, after a first line
`environment<TAB>{json}` with the first run's run.json environment (numpy,
BLAS and BLAS thread variables), which the checkpoint bytes depend on. It
then compares that summary with the expected one,
tools/reference_summary.tsv, and exits 1 if they differ: it names the
expected and the actual environment when those differ, and each run whose
line differs, so a change to any kept report or transcript fails the check
by itself.
Run it on two trees and compare the outputs with
`diff -r --exclude=runs OLD NEW` to see whether a change moved any bit; a
change that moves rounding on purpose updates tools/reference_summary.tsv.
"""

import hashlib
import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

# the bytes depend on the BLAS thread count; set it before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tinyasr.cli import main  # noqa: E402
from tinyasr.synthetic import generate_tone_corpus  # noqa: E402

EXPECTED = Path(__file__).resolve().parent / "reference_summary.tsv"
VARIANTS = ("orig-no-spaces", "ipa-pause-boundaries")
SIZES = (10, 20, 40)
# (variant, run name, max_epochs = patience) of the run at the default size
FULL_SIZE = ("orig-no-spaces", "orig-no-spaces-3x250", 2)
WAVS = [f"tone{i:04d}.wav" for i in range(6)]


def tinyasr(*argv) -> str:
    """Run one tinyasr command; returns its standard output."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"tinyasr {' '.join(argv)} exited {code}")
    return out.getvalue()


def write_config(out_dir: Path, variant: str, name=None, epochs=3) -> Path:
    name = name or variant
    config = {
        "schema_version": 1,
        "name": name,
        "corpus": "corpus/utterances.jsonl",
        "variant": variant,
        "out_dir": "runs",
        "seed": 7,
        "train": {"max_epochs": epochs, "patience": epochs},
    }
    if variant == "ipa-pause-boundaries":
        config.update(g2p_rules="corpus/g2p.tsv", alignments="corpus/words.jsonl",
                      pause_gap_threshold=0.05)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def check_run(out_dir: Path, run: Path) -> str:
    """Evaluates and transcribes with a finished run; returns its line."""
    kept = out_dir / "evaluations" / run.name
    kept.mkdir(parents=True)
    for decoder in ("beam", "greedy"):  # greedy last: the run keeps its reports
        for split in ("dev", "test"):
            tinyasr("evaluate", "--run", str(run), "--split", split, "--decoder", decoder)
            for suffix in ("json", "txt"):
                shutil.copyfile(run / f"report-{split}.{suffix}",
                                kept / f"{decoder}-{split}.{suffix}")
    outputs = list(kept.iterdir())
    wavs = [str(out_dir / "corpus" / "wav" / name) for name in WAVS]
    for decoder, beam in (("greedy", ()), ("beam", ("--beam", "8"))):
        text = tinyasr("transcribe", "--run", str(run), *beam, *wavs)
        text = text.replace(str(out_dir / "corpus" / "wav") + os.sep, "")
        transcript = out_dir / "transcripts" / f"{run.name}-{decoder}.tsv"
        transcript.write_text(text, encoding="utf-8")
        outputs.append(transcript)
    outputs_digest = hashlib.sha256()
    for path in sorted(outputs, key=lambda p: p.name):
        outputs_digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())

    records = out_dir / "records" / run.name
    records.mkdir(parents=True)
    info = json.loads((run / "run.json").read_text(encoding="utf-8"))
    del info["audio_root"]
    (records / "run.json").write_text(json.dumps(info, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    epochs = [json.loads(line) for line in
              (run / "epochs.jsonl").read_text(encoding="utf-8").splitlines()]
    (records / "epochs.jsonl").write_text(
        "".join(json.dumps({k: v for k, v in e.items() if k != "seconds"}) + "\n"
                for e in epochs), encoding="utf-8")

    digest = hashlib.sha256((run / "checkpoint.bin").read_bytes()).hexdigest()
    results = info["results"]
    return (f"{run.name}\t{digest}\tler={results['ler']!r}\t"
            f"best_dev_ler={results['best_dev_ler']!r}\tbest_epoch={results['best_epoch']}\t"
            f"outputs={outputs_digest.hexdigest()}")


def reference_runs(out_dir: Path) -> None:
    out_dir.mkdir(parents=True)
    generate_tone_corpus(out_dir / "corpus", n_utterances=60, seed=3)
    prepared = out_dir / "records" / "prepare"
    text = tinyasr("prepare", str(out_dir / "corpus"), "--out", str(prepared))
    (prepared / "stdout.txt").write_text(text.replace(str(out_dir) + os.sep, ""),
                                         encoding="utf-8")
    names = []
    for variant in VARIANTS:
        config = str(write_config(out_dir, variant))
        tinyasr("sweep", "--config", config, "--fast",
                "--sizes", ",".join(str(s) for s in SIZES))
        tinyasr("train", "--config", config, "--fast")
        names += [f"{variant}-n{size}" for size in SIZES] + [variant]
    variant, name, epochs = FULL_SIZE
    tinyasr("train", "--config", str(write_config(out_dir, variant, name, epochs)))
    names.append(name)

    (out_dir / "transcripts").mkdir()
    info = json.loads((out_dir / "runs" / names[0] / "run.json").read_text(encoding="utf-8"))
    environment = f"environment\t{json.dumps(info['environment'], sort_keys=True)}"
    print(environment, flush=True)
    with open(out_dir / "summary.tsv", "w", encoding="utf-8") as summary:
        summary.write(environment + "\n")
        for name in names:
            line = check_run(out_dir, out_dir / "runs" / name)
            print(line, flush=True)
            summary.write(line + "\n")


def differences(summary: Path) -> list:
    """What differs from the expected summary: the environment, naming the
    expected and the actual one, and the names of the runs whose line is
    not the expected one."""
    def by_key(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        return dict(line.split("\t", 1) for line in lines)
    expected, got = by_key(EXPECTED), by_key(summary)
    found = []
    environments = expected.pop("environment", None), got.pop("environment", None)
    if environments[0] != environments[1]:
        found.append("the environment differs: expected {}, got {}".format(*environments))
    runs = [name for name in {**expected, **got} if expected.get(name) != got.get(name)]
    if runs:
        found.append(f"runs that differ: {', '.join(runs)}")
    return found


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    target = Path(sys.argv[1]).resolve()
    if target.exists():
        raise SystemExit(f"{target} exists; give a new directory")
    reference_runs(target)
    found = differences(target / "summary.tsv")
    if found:
        raise SystemExit(f"{target / 'summary.tsv'} differs from {EXPECTED}:\n"
                         + "\n".join(found))
