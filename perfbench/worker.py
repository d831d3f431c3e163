"""Runs one workload of the tinyasr benchmark in this process.

run.py starts this file in a fresh interpreter, after pinning the BLAS
thread variables, because they must be set before numpy is imported. It
prints an environment line, a details line, and the result JSON as the
last line of standard output. The exit code is 1 when any check fails.
"""

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from tinyasr.cli import main as tinyasr_main  # noqa: E402
from tinyasr.synthetic import generate_tone_corpus  # noqa: E402

from run import THREAD_VARS, WORKLOADS  # noqa: E402
from spans import SpanRecorder, layer_totals  # noqa: E402

TONE_COUNTS = (1, 2, 3, 4, 5)
# fixed, so that with the length-matched corpus (make_corpus) splits, sweep
# subsets and batches do the same work for every workload seed
CONFIG_SEED = 0
SETUPS = 3
BEAM_WIDTH = 8

SIZES = {
    "sweep-fast": {"per_class": 8, "sweep": (8, 16, 32), "epochs": 2},
    "train-full": {"per_class": 4, "epochs": 1},
    "decode": {"per_class": 8, "epochs": 2},
}
SMOKE_SIZES = {
    "sweep-fast": {"per_class": 2, "sweep": (2, 4, 8), "epochs": 1},
    "train-full": {"per_class": 2, "epochs": 1},
    "decode": {"per_class": 2, "epochs": 1},
}


def expected_seconds(tones):
    """Mean length of a synthetic utterance with this many tones: 0.32 s
    of lead and trail silence, 0.2 s a tone, and a gap of 0.18 s on
    average before two thirds of the later tones."""
    return 0.32 + 0.2 * tones + 0.12 * (tones - 1)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def split_ids(run_dir, split):
    info = json.loads((Path(run_dir) / "run.json").read_text(encoding="utf-8"))
    return info["splits"][split]


def last_train_loss(run_dir):
    lines = (Path(run_dir) / "epochs.jsonl").read_text(encoding="utf-8").splitlines()
    return json.loads(lines[-1])["train_loss"]


class Bench:
    """Set-up, timed work and output checks of one workload."""

    def __init__(self, workload, seed, sizes, work):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cli_output = io.StringIO()

    # -- operations and checks -------------------------------------------

    def op(self, argv):
        """Run one tinyasr command in-process; a nonzero exit or an
        escaped exception is a failed operation."""
        self.attempted += 1
        self.cli_output.seek(0)
        self.cli_output.truncate()
        try:
            with redirect_stdout(self.cli_output):
                code = tinyasr_main(argv)
        except Exception:  # noqa: BLE001 - an escaped error is a failed operation
            traceback.print_exc()
            code = -1
        if code != 0:
            self.failed += 1
            self.check(False, f"tinyasr {' '.join(argv)} exited {code}")

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def check_value(self, name, value):
        self.check(isinstance(value, (int, float)) and math.isfinite(value) and value >= 0,
                   f"{name} is not a finite nonnegative number: {value!r}")

    def check_repeats(self, name, values):
        self.check(len(set(values)) == 1,
                   f"{name} differs between iterations: {sorted(set(values))}")

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Generate the corpus from the seed, prepare it, write the config
        and, for decode, train the checkpoint that is decoded."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        corpus = self.work / "corpus"
        self.records = self.make_corpus(corpus)
        self.op(["prepare", str(corpus), "--out", str(self.work / "prepared")])
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({
            "schema_version": 1,
            "name": self.workload,
            "corpus": "prepared/manifest.jsonl",
            "variant": "orig-no-spaces",
            "out_dir": "runs",
            "seed": CONFIG_SEED,
            "train": {"max_epochs": self.sizes["epochs"],
                      "patience": self.sizes["epochs"]},
        }), encoding="utf-8")
        if self.workload == "decode":
            self.op(["train", "--config", str(self.config), "--fast"])
            self.checkpoint = sha256(self.run_dir / "checkpoint.bin")

    def make_corpus(self, corpus):
        """Pick, for each tone count, the utterances whose length is closest
        to that count's expected length, out of a pool five times larger
        than needed. Every seed then gets nearly the same frame counts."""
        per_class = self.sizes["per_class"]
        pool = 5 * len(TONE_COUNTS) * per_class
        while True:
            shutil.rmtree(corpus, ignore_errors=True)
            manifest = generate_tone_corpus(corpus, n_utterances=pool, seed=self.seed)
            rows = [json.loads(line) for line in
                    manifest.read_text(encoding="utf-8").splitlines()]
            by_count = {k: [r for r in rows if len(r["transcript"].split()) == k]
                        for k in TONE_COUNTS}
            if all(len(group) >= per_class for group in by_count.values()):
                break
            pool *= 2
        for k, group in by_count.items():
            group.sort(key=lambda r: (abs(r["end_s"] - expected_seconds(k)), r["id"]))
        chosen = [by_count[k][i] for i in range(per_class) for k in TONE_COUNTS]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in chosen),
                            encoding="utf-8")
        return {r["id"]: {"wav": corpus / r["audio"], "seconds": r["end_s"]}
                for r in chosen}

    @property
    def run_dir(self):
        return self.work / "runs" / self.workload

    # -- timed work --------------------------------------------------------

    def iterate(self):
        """One iteration of the workload's timed phase; returns the
        outputs that must repeat exactly between iterations."""
        if self.workload == "sweep-fast":
            shutil.rmtree(self.work / "runs", ignore_errors=True)
            sizes = ",".join(str(s) for s in self.sizes["sweep"])
            start = time.perf_counter()
            self.op(["sweep", "--config", str(self.config), "--fast",
                     "--sizes", sizes])
            wall = time.perf_counter() - start
            return wall, self.sweep_outputs()
        if self.workload == "train-full":
            shutil.rmtree(self.work / "runs", ignore_errors=True)
            start = time.perf_counter()
            self.op(["train", "--config", str(self.config)])
            wall = time.perf_counter() - start
            return wall, self.train_outputs(self.run_dir)
        start = time.perf_counter()
        outputs = self.decode_pass(("train", "dev", "test"), self.records)
        wall = time.perf_counter() - start
        outputs["checkpoint"] = sha256(self.run_dir / "checkpoint.bin")
        outputs["train_loss"] = last_train_loss(self.run_dir)
        return wall, outputs

    def step(self):
        """The timed phase; then, for the workloads that train, one decode
        pass over the model just trained, timed on its own."""
        gc.collect()
        wall, outputs = self.iterate()
        if self.workload == "decode":
            return wall, outputs, outputs
        held_out = split_ids(self.last_run, "dev") + split_ids(self.last_run, "test")
        use = self.decode_pass(("dev", "test"), held_out, self.last_run)
        self.check(use["ler"] == outputs["last_ler"],
                   "evaluate and train disagree on the test LER")
        return wall, outputs, use

    def sweep_outputs(self):
        runs = [self.work / "runs" / f"{self.workload}-n{size}"
                for size in self.sizes["sweep"]]
        rows = [self.train_outputs(run) for run in runs]
        return {
            "ler": statistics.fmean(row["ler"] for row in rows),
            "train_loss": statistics.fmean(row["train_loss"] for row in rows),
            "checkpoint": tuple(row["checkpoint"] for row in rows),
            "last_ler": rows[-1]["ler"],
        }

    def train_outputs(self, run):
        self.last_run = run
        info = json.loads((run / "run.json").read_text(encoding="utf-8"))
        ler = info["results"]["ler"]
        return {"ler": ler, "train_loss": last_train_loss(run),
                "checkpoint": sha256(run / "checkpoint.bin"), "last_ler": ler}

    def decode_pass(self, greedy_splits, wavs, run=None):
        """evaluate each split greedily, evaluate test with beam search,
        then transcribe each WAV with its own call."""
        run = str(run or self.run_dir)
        eval_s = audio_s = 0.0
        outputs = {}
        for split, decoder in [(s, "greedy") for s in greedy_splits] + [("test", "beam")]:
            start = time.perf_counter()
            self.op(["evaluate", "--run", run, "--split", split,
                     "--decoder", decoder, "--beam", str(BEAM_WIDTH)])
            eval_s += time.perf_counter() - start
            audio_s += sum(self.records[i]["seconds"] for i in split_ids(run, split))
            report = json.loads(Path(run, f"report-{split}.json").read_text(
                encoding="utf-8"))
            if split == "test":
                outputs["beam_ler" if decoder == "beam" else "ler"] = report["ler"]
        latencies = []
        for utt_id in sorted(wavs):
            wav = self.records[utt_id]["wav"]
            start = time.perf_counter()
            self.op(["transcribe", "--run", run, str(wav)])
            latencies.append(time.perf_counter() - start)
            printed = self.cli_output.getvalue().splitlines()
            written = wav.with_suffix(".txt")
            self.check(
                len(printed) == 1 and printed[0].startswith(f"{wav}\t")
                and written.exists()
                and written.read_text(encoding="utf-8") == printed[0].split("\t", 1)[1] + "\n",
                f"transcribe {wav.name} returned no text",
            )
        outputs["speed"] = audio_s / eval_s
        outputs["latencies"] = latencies
        return outputs


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_steps(bench, outputs, uses, checkpoints):
    """What a step outputs must repeat exactly, and the quality figures
    must be finite and nonnegative. LER is not capped at 1: insertions
    take a weak model above it."""
    for key in ("ler", "train_loss", "checkpoint"):
        bench.check_repeats(key, [out[key] for out in outputs])
    for key in ("ler", "train_loss"):
        bench.check_value(key, outputs[0][key])
    if uses:
        bench.check_repeats("beam_ler", [use["beam_ler"] for use in uses])
        bench.check_value("beam_ler", uses[0]["beam_ler"])
    if checkpoints:
        bench.check_repeats("decoded checkpoint sha256",
                            checkpoints + [out["checkpoint"] for out in outputs])


def run_plain(bench, seconds):
    """End-to-end run: several set-ups, then steps for the given number of
    seconds; every figure is a median over set-ups or steps."""
    setup_times, checkpoints = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        bench.setup()
        setup_times.append(time.perf_counter() - start)
        if bench.workload == "decode":
            checkpoints.append(bench.checkpoint)

    walls, outputs, uses = [], [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        wall, out, use = bench.step()
        walls.append(wall)
        outputs.append(out)
        uses.append(use)

    check_steps(bench, outputs, uses, checkpoints)

    latencies = [t for use in uses for t in use["latencies"]]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1.0 - bench.failed / bench.attempted, "ratio"),
        "train_loss": (outputs[0]["train_loss"], "nats"),
        "decode_speed_x": (statistics.median(use["speed"] for use in uses), "x"),
        "transcribe_p50_s": (quantile(latencies, 50), "s"),
        "transcribe_p90_s": (quantile(latencies, 90), "s"),
    }
    details = {"ler": outputs[0]["ler"], "beam_ler": uses[0]["beam_ler"],
               "setup_s": setup_times, "wall_s": walls,
               "transcribe_samples": len(latencies),
               "checkpoint_sha256": outputs[0]["checkpoint"]}
    return metrics, details


def run_traced(bench, seconds, spans_path):
    """Per-layer run: one traced set-up, then untraced and traced
    iterations in turn; per-layer figures are medians over the traced
    iterations."""
    recorder = SpanRecorder()
    with recorder.installed():
        first = recorder.mark()
        start = time.perf_counter()
        bench.setup()
        setup_layers = layer_totals(recorder.spans, first, recorder.mark(),
                                    time.perf_counter() - start)
    plain, traced, per_iteration, outputs = [], [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        gc.collect()
        wall, out = bench.iterate()
        plain.append(wall)
        outputs.append(out)
        gc.collect()
        with recorder.installed():
            first = recorder.mark()
            wall, out = bench.iterate()
            per_iteration.append(layer_totals(recorder.spans, first, recorder.mark(),
                                              wall))
        traced.append(wall)
        outputs.append(out)
    decoded = bench.workload == "decode"
    check_steps(bench, outputs, outputs if decoded else [],
                [bench.checkpoint] if decoded else [])
    recorder.write(spans_path)
    if recorder.missing or recorder.uncounted:
        print(f"missing wrap targets: {recorder.missing}; "
              f"work not counted: {sorted(recorder.uncounted)}", file=sys.stderr)

    metrics = {}
    for key in per_iteration[0]:
        metrics[key] = (statistics.median(it[key] for it in per_iteration), unit_of(key))
    metrics["corpus.prepare_corpus_dir.self_s"] = (
        setup_layers["corpus.prepare_corpus_dir.self_s"], "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    details = {"traced_iterations": len(traced), "plain_iterations": len(plain),
               "missing_targets": recorder.missing,
               "uncounted_targets": sorted(recorder.uncounted), "spans": str(spans_path)}
    return metrics, details


def unit_of(key):
    if key.endswith("frames_per_s"):
        return "frames/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith((".calls", ".frames")):
        return "count"
    return "ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    sizes = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    out_root = ROOT / ".perfbench"
    work = out_root / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, sizes, work)
    print(json.dumps({"environment": environment(args.seed)}))
    try:
        if args.trace:
            spans_path = out_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, details = run_traced(bench, args.seconds, spans_path)
        else:
            metrics, details = run_plain(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["problems"] = bench.problems
    print(json.dumps({"workload": args.workload, "details": details}))
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
