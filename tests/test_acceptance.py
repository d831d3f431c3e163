"""Acceptance suite.

One test per criterion, each asserting its stated tolerance and printing a
PASS line (run with -s to see them; a pytest failure is the fail line).
The end-to-end criteria share one 300-utterance synthetic tone corpus.
"""

import itertools
import json
import time
from collections import Counter

import numpy as np
import pytest

from tinyasr.cli import main as cli_main
from tinyasr.corpus import prepare_corpus_dir, read_manifest
from tinyasr.ctc import collapse, ctc_loss, log_softmax, min_frames
from tinyasr.evaluation import align_and_count_confusions, edit_distance
from tinyasr.features import build_mel_filterbank, hz_to_mel, power_spectrum
from tinyasr.model import (
    ModelConfig,
    ModelParameters,
    backward_batch,
    forward_batch,
    init_parameters,
)
from tinyasr.synthetic import generate_tone_corpus
from tinyasr.variants import load_alignments, pause_boundaries, strip_spaces

from conftest import EXPECTED_DROPS, EXPECTED_KEPT


@pytest.fixture(scope="module")
def synthetic300(tmp_path_factory):
    """The end-to-end corpus: 300 utterances of 1-5 pure tones."""
    root = tmp_path_factory.mktemp("accept")
    corpus = root / "corpus"
    generate_tone_corpus(corpus, n_utterances=300, seed=11)
    prepared = root / "prepared"
    assert cli_main(["prepare", str(corpus), "--out", str(prepared)]) == 0
    return {"root": root, "corpus": corpus, "prepared": prepared}


def write_config(path, prepared, name, out_dir, seed, train_overrides=None):
    config = {
        "schema_version": 1,
        "name": name,
        "corpus": str(prepared / "manifest.jsonl"),
        "variant": "orig-no-spaces",
        "out_dir": str(out_dir),
        "seed": seed,
        "train": {"max_epochs": 50, "patience": 8, "batch_size": 16},
    }
    if train_overrides:
        config["train"].update(train_overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def enumerate_sequences(logits):
    lp = log_softmax(np.asarray(logits, dtype=np.float64))
    T, K = lp.shape
    table = {}
    for path in itertools.product(range(K), repeat=T):
        log_p = sum(lp[t, k] for t, k in enumerate(path))
        seq = tuple(collapse(path))
        table[seq] = np.logaddexp(table.get(seq, -np.inf), log_p)
    return table


def test_criterion_1_ctc_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 200:
        T = int(rng.integers(1, 6))
        V = int(rng.integers(1, 4))
        logits = rng.normal(size=(T, V + 1)) * 2.0
        table = enumerate_sequences(logits)
        feasible = [s for s in table if 0 < len(s) <= 3 and min_frames(s) <= T]
        if not feasible:
            continue
        target = list(feasible[int(rng.integers(len(feasible)))])
        loss = ctc_loss(logits[None], [len(logits)], [target])[0][0]
        worst = max(worst, abs(loss - (-table[tuple(target)])))
        checked += 1
    elapsed = time.monotonic() - started
    assert worst < 1e-9
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: CTC matches exhaustive enumeration on 200 "
          f"instances (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_gradient_checks():
    started = time.monotonic()
    rng = np.random.default_rng(202)

    worst_ctc = 0.0
    checked = 0
    while checked < 20:
        T = int(rng.integers(2, 6))
        V = int(rng.integers(1, 4))
        logits = rng.normal(size=(T, V + 1))
        target = [int(rng.integers(1, V + 1)) for _ in range(int(rng.integers(1, 4)))]
        if min_frames(target) > T:
            continue
        grad = ctc_loss(logits[None], [len(logits)], [target])[1][0]
        h = 1e-7
        fd = np.zeros_like(logits)
        for t in range(T):
            for k in range(V + 1):
                up, down = logits.copy(), logits.copy()
                up[t, k] += h
                down[t, k] -= h
                fd[t, k] = (ctc_loss(up[None], [len(up)], [target])[0][0]
                            - ctc_loss(down[None], [len(down)], [target])[0][0]) / (2 * h)
        scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-8)
        worst_ctc = max(worst_ctc, np.abs(grad - fd).max() / scale)
        checked += 1
    assert worst_ctc < 1e-6

    worst_lstm = 0.0
    for trial in range(20):
        trial_rng = np.random.default_rng(300 + trial)
        config = ModelConfig(
            input_dim=int(trial_rng.integers(1, 4)),
            vocab_size=int(trial_rng.integers(1, 4)),
            num_layers=int(trial_rng.integers(1, 3)),
            hidden_units=int(trial_rng.integers(1, 5)),
        )
        # float64, so that finite differences can resolve the gradients
        params = ModelParameters(config, init_parameters(config, trial).flat.astype(np.float64))
        T = int(trial_rng.integers(1, 6))
        feats = trial_rng.normal(size=(T, config.input_dim))
        weights = trial_rng.normal(size=(T, config.output_dim))
        _, cache = forward_batch(params, [feats])
        grads = backward_batch(params, cache, weights[None])
        h = 1e-6
        for name, tensor in params.tensors.items():
            fd = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + h
                (lg,), _ = forward_batch(params, [feats])
                up = float((lg * weights).sum())
                tensor[idx] = orig - h
                (lg,), _ = forward_batch(params, [feats])
                down = float((lg * weights).sum())
                tensor[idx] = orig
                fd[idx] = (up - down) / (2 * h)
                it.iternext()
            scale = max(np.abs(grads[name]).max(), np.abs(fd).max(), 1e-8)
            worst_lstm = max(worst_lstm, np.abs(grads[name] - fd).max() / scale)
    assert worst_lstm < 1e-4

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: gradient checks (CTC {worst_ctc:.2e} < 1e-6, "
          f"BiLSTM {worst_lstm:.2e} < 1e-4, {elapsed:.1f}s)")


def test_criterion_3_fft_and_mel_correctness():
    rng = np.random.default_rng(303)

    def naive_dft_power(frame, nfft):
        padded = np.zeros(nfft)
        padded[:len(frame)] = frame
        n = np.arange(nfft)
        out = np.zeros(nfft // 2 + 1)
        for k in range(nfft // 2 + 1):
            re = (padded * np.cos(-2 * np.pi * k * n / nfft)).sum()
            im = (padded * np.sin(-2 * np.pi * k * n / nfft)).sum()
            out[k] = re * re + im * im
        return out

    worst = 0.0
    for nfft in (8, 16, 32, 64, 128):
        frame = rng.normal(size=nfft)
        spec = power_spectrum(frame, nfft)
        oracle = naive_dft_power(frame, nfft)
        worst = max(worst, np.abs(spec - oracle).max() / max(oracle.max(), 1.0))
        # Parseval over the mirrored full spectrum
        full = np.concatenate([spec, spec[-2:0:-1]])
        lhs = (frame * frame).sum()
        assert abs(lhs - full.sum() / nfft) / abs(lhs) < 1e-9
    assert worst < 1e-9

    mel_700 = hz_to_mel(700.0)
    assert abs(mel_700 - 2595.0 * np.log10(2.0)) < 1e-9
    bank = build_mel_filterbank(40, 512, 16000)
    assert bank.shape == (40, 257)
    print(f"\nPASS criterion 3: FFT vs naive DFT ({worst:.2e} rel), Parseval, "
          f"mel(700)={mel_700:.4f}")


def test_criterion_4_edit_distance_oracle():
    def dp_oracle(ref, hyp):
        m, n = len(ref), len(hyp)
        dp = [[0] * (n + 1) for _ in range(m + 1)]
        for i in range(m + 1):
            dp[i][0] = i
        for j in range(n + 1):
            dp[0][j] = j
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                dp[i][j] = min(
                    dp[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                    dp[i - 1][j] + 1,
                    dp[i][j - 1] + 1,
                )
        return dp[m][n]

    started = time.monotonic()
    seqs = [p for L in range(7) for p in itertools.product("abc", repeat=L)]
    assert len(seqs) == 1093
    for ref in seqs:
        for hyp in seqs:
            expected = dp_oracle(ref, hyp)
            assert edit_distance(ref, hyp) == expected
            counts = align_and_count_confusions(ref, hyp)
            errors = sum(c for (r, h), c in counts.items() if r != h)
            assert errors == expected

    rng = np.random.default_rng(404)
    for _ in range(1000):
        a, b, c = (list(rng.choice(list("abc"), size=rng.integers(0, 9)))
                   for _ in range(3))
        assert edit_distance(a, a) == 0
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
    elapsed = time.monotonic() - started
    print(f"\nPASS criterion 4: edit distance vs DP oracle on all "
          f"{len(seqs) ** 2} pairs up to length 6, metric axioms, confusion "
          f"sums ({elapsed:.0f}s)")


def test_criterion_5_preprocessing_golden_fixtures(golden_corpus):
    records, rejections, _ = prepare_corpus_dir(golden_corpus)
    got = [(r.id, r.start_s, r.end_s, r.transcript) for r in records]
    assert got == EXPECTED_KEPT
    assert Counter(r["reason"] for r in rejections) == EXPECTED_DROPS
    assert len(records) == 4
    assert len(records) + len(rejections) == 11
    assert len(rejections) == 7
    print("\nPASS criterion 5: golden corpus produced the expected manifest "
          "and per-reason drop counts")


def test_criterion_6_synthetic_end_to_end(synthetic300):
    started = time.monotonic()
    root = synthetic300["root"]
    config_path = write_config(root / "c6.json", synthetic300["prepared"],
                               "accept-e2e", root / "runs6", seed=7)
    rc = cli_main(["train", "--config", str(config_path), "--fast"])
    elapsed = time.monotonic() - started
    assert rc == 0
    epochs = [json.loads(l) for l in
              (root / "runs6" / "accept-e2e" / "epochs.jsonl").read_text().splitlines()]
    best = min(r["dev_ler"] for r in epochs)
    assert len(epochs) <= 50
    assert best < 0.05
    assert elapsed < 900.0
    print(f"\nPASS criterion 6: dev LER {best:.4f} < 0.05 after "
          f"{len(epochs)} epochs ({elapsed:.0f}s < 900s)")


def test_criterion_7_incremental_data_trend(synthetic300):
    root = synthetic300["root"]
    sizes = [25, 50, 100, 200]
    config_path = write_config(
        root / "c7.json", synthetic300["prepared"], "accept-sweep",
        root / "runs7", seed=7,
        train_overrides={"max_epochs": 4, "patience": 4},
    )
    rc = cli_main(["sweep", "--config", str(config_path),
                   "--sizes", ",".join(map(str, sizes)), "--fast"])
    assert rc == 0
    ler = {}
    subsets = {}
    for size in sizes:
        run_dir = root / "runs7" / f"accept-sweep-n{size}"
        info = json.loads((run_dir / "run.json").read_text())
        ler[size] = info["results"]["ler"]
        subsets[size] = set(info["splits"]["train"])

    # nested subsets from one shuffle
    assert subsets[25] < subsets[50] < subsets[100] < subsets[200]
    # more transcribed audio must not hurt at toy scale
    assert ler[200] <= ler[50] <= ler[25]
    print(f"\nPASS criterion 7: LER(200)={ler[200]:.3f} <= "
          f"LER(50)={ler[50]:.3f} <= LER(25)={ler[25]:.3f}, subsets nested")


def test_criterion_8_determinism(synthetic300):
    root = synthetic300["root"]
    # one experiment, trained twice: the same name in two out_dirs
    for tag in ("a", "b"):
        config_path = write_config(
            root / f"c8{tag}.json", synthetic300["prepared"], "accept-det",
            root / "runs8" / tag, seed=3,
            train_overrides={"max_epochs": 4, "patience": 4},
        )
        rc = cli_main(["train", "--config", str(config_path), "--fast"])
        assert rc == 0

    ck_a = (root / "runs8" / "a" / "accept-det" / "checkpoint.bin").read_bytes()
    ck_b = (root / "runs8" / "b" / "accept-det" / "checkpoint.bin").read_bytes()
    assert ck_a == ck_b

    # the epoch log is compared without its wall-clock field, which cannot
    # be identical between runs by nature
    def canonical(path):
        rows = []
        for line in path.read_text().splitlines():
            row = json.loads(line)
            row.pop("seconds")
            rows.append(json.dumps(row, sort_keys=True))
        return "\n".join(rows)

    log_a = canonical(root / "runs8" / "a" / "accept-det" / "epochs.jsonl")
    log_b = canonical(root / "runs8" / "b" / "accept-det" / "epochs.jsonl")
    assert log_a == log_b
    print("\nPASS criterion 8: identical config and seed give byte-identical "
          "checkpoints and epoch logs (timing field excluded)")


def test_criterion_9_variant_consistency(synthetic300, golden_corpus):
    checked = 0
    for source in ("synthetic", "fixture"):
        if source == "synthetic":
            records = read_manifest(synthetic300["prepared"] / "manifest.jsonl")
            alignments = load_alignments(synthetic300["corpus"] / "words.jsonl")
        else:
            records, _, _ = prepare_corpus_dir(golden_corpus)
            alignments = load_alignments(golden_corpus / "words.jsonl")
        for record in records:
            words = record.transcript.split(" ")
            alignment = alignments[record.id]
            with_spaces = pause_boundaries(words, alignment, 0.0)
            no_spaces = pause_boundaries(words, alignment, 1e9)
            assert with_spaces == record.transcript, record.id
            assert no_spaces == strip_spaces(record.transcript), record.id
            checked += 1
    assert checked == 304
    print(f"\nPASS criterion 9: pause boundaries reproduce the with-spaces "
          f"and no-spaces variants at the threshold limits ({checked} utterances)")
