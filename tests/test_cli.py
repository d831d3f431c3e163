import json
import shutil
import struct
from collections import Counter

import numpy as np
import pytest

from tinyasr import pipeline
from tinyasr.audio import AudioBuffer, write_wav
from tinyasr.cli import main
from tinyasr.config import load_experiment_config, parse_experiment_config
from tinyasr.errors import ConfigError
from tinyasr.model import load_checkpoint
from tinyasr.pipeline import ResultsRow, emit_results_table, evaluate_run
from tinyasr.training import rng_for


def _remove(name):
    return lambda run: (run / name).unlink()


def _truncate(name, size=None):
    """Cut a run file to size bytes, or to half its length."""
    def damage(run):
        data = (run / name).read_bytes()
        (run / name).write_bytes(data[:len(data) // 2 if size is None else size])
    return damage


def _replace(name, data):
    return lambda run: (run / name).write_bytes(data)


def _set_run_key(key, value):
    def damage(run):
        info = json.loads((run / "run.json").read_text())
        info[key] = value
        (run / "run.json").write_text(json.dumps(info))
    return damage


def _drop_from_manifest(split):
    """Remove the manifest line of a split's first utterance."""
    def damage(run):
        dropped = json.loads((run / "run.json").read_text())["splits"][split][0]
        lines = (run / "manifest.jsonl").read_text(encoding="utf-8").splitlines(True)
        (run / "manifest.jsonl").write_text(
            "".join(line for line in lines if json.loads(line)["id"] != dropped),
            encoding="utf-8")
    return damage


def _edit_checkpoint_header(edit):
    """Rewrite the JSON header of checkpoint.bin with edit(header)."""
    def damage(run):
        data = (run / "checkpoint.bin").read_bytes()
        version, length = struct.unpack("<II", data[8:16])
        header = json.loads(data[16:16 + length])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        (run / "checkpoint.bin").write_bytes(
            data[:8] + struct.pack("<II", version, len(blob)) + blob + data[16 + length:])
    return damage


class TestResultsTable:
    def test_single_row_rendering(self):
        table = emit_results_table([ResultsRow("1", 1152, 108.0, 0.334)])
        assert "1152  108  0.334" in table
        assert table.splitlines()[0] == "Experiment  Utterances  Minutes  LER"

    def test_empty_rows_header_only(self):
        table = emit_results_table([])
        assert table == "Experiment  Utterances  Minutes  LER\n"

    def test_ler_rounded_to_three_decimals(self):
        table = emit_results_table([ResultsRow("x", 10, 2.0, 0.3336)])
        assert "0.334" in table
        assert "0.3336" not in table

    def test_columns_align_across_rows(self):
        table = emit_results_table([
            ResultsRow("a", 25, 1.2, 0.5),
            ResultsRow("b-long", 1000, 99.7, 0.0123),
        ])
        lines = table.splitlines()[1:]
        assert len({line.index("0.") for line in lines}) == 1


class TestConfigParsing:
    def base(self):
        return {
            "schema_version": 1,
            "name": "x",
            "corpus": "manifest.jsonl",
            "variant": "orig-no-spaces",
        }

    def test_minimal_config(self):
        config = parse_experiment_config(self.base())
        assert config.variant == "orig-no-spaces"
        assert config.model_layers == 3
        assert config.model_hidden == 250

    def test_unknown_top_level_key(self):
        raw = self.base()
        raw["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_experiment_config(raw)

    def test_unknown_section_key(self):
        raw = self.base()
        raw["train"] = {"batchsize": 4}
        with pytest.raises(ConfigError, match="batchsize"):
            parse_experiment_config(raw)

    def test_unknown_variant(self):
        raw = self.base()
        raw["variant"] = "phoneme-soup"
        with pytest.raises(ConfigError, match="variant"):
            parse_experiment_config(raw)

    def test_wrong_schema_version(self):
        raw = self.base()
        raw["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            parse_experiment_config(raw)

    def test_ipa_variant_requires_rules(self):
        raw = self.base()
        raw["variant"] = "ipa-no-spaces"
        with pytest.raises(ConfigError, match="g2p"):
            parse_experiment_config(raw)

    def test_subset_sizes_must_ascend(self):
        raw = self.base()
        raw["subset_sizes"] = [50, 25]
        with pytest.raises(ConfigError, match="ascending"):
            parse_experiment_config(raw)

    def test_weight_decay_is_no_longer_a_key(self):
        raw = self.base()
        raw["train"] = {"weight_decay": 0.01}
        with pytest.raises(ConfigError, match="unknown config key 'weight_decay'"):
            parse_experiment_config(raw)

    @pytest.mark.parametrize("section,key,value", [
        (None, "seed", "abc"),
        ("model", "num_layers", "x"),
        ("features", "n_mels", "x"),
        ("features", "frame_shift_s", 0),
        ("features", "frame_shift_s", -0.01),
        ("features", "frame_length_s", 0),
        ("features", "n_mels", 0),
        ("features", "sample_rate", 0),
        ("features", "log_floor", 0),
        ("train", "beta1", -0.5),
        ("train", "beta1", 1.0),
        ("train", "beta2", 1.0),
        ("train", "epsilon", -1.0),
        ("train", "epsilon", 0),
        ("train", "grad_clip_norm", -1.0),
    ])
    def test_bad_value_exits_1_before_any_run(self, tmp_path, capsys, section, key, value):
        raw = self.base()
        raw["out_dir"] = str(tmp_path / "runs")
        if section is None:
            raw[key] = value
        else:
            raw[section] = {key: value}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=key):
            load_experiment_config(path)
        assert main(["train", "--config", str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_experiment_config(tmp_path / "nope.json")


class TestExitCodes:
    def test_unknown_variant_exits_1_before_compute(self, tmp_path):
        config = {"schema_version": 1, "name": "x", "corpus": "m.jsonl",
                  "variant": "bogus"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 1

    def test_missing_corpus_exits_2(self, tmp_path):
        config = {"schema_version": 1, "name": "x", "corpus": "missing.jsonl",
                  "variant": "orig-no-spaces"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 2

    def test_sweep_missing_corpus_exits_2(self, tmp_path, capsys):
        config = {"schema_version": 1, "name": "x", "corpus": "missing.jsonl",
                  "variant": "orig-no-spaces"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--sizes", "1"]) == 2
        err = capsys.readouterr().err
        assert "missing.jsonl" in err
        assert "Traceback" not in err

    def test_prepare_missing_dir_exits_2(self, tmp_path):
        assert main(["prepare", str(tmp_path / "nowhere"), "--out",
                     str(tmp_path / "out")]) == 2

    def test_bad_usage_exits_1(self, capsys):
        assert main(["train"]) == 1  # --config required
        assert "error" in capsys.readouterr().err

    def test_exception_exit_code_contract(self):
        from tinyasr.errors import ConfigError, DataError, TrainingError

        assert ConfigError("x").exit_code == 1
        assert DataError("x").exit_code == 2
        assert TrainingError("x").exit_code == 3

    def test_stage_named_on_abort(self, tmp_path, capsys):
        config = {"schema_version": 1, "name": "x", "corpus": "missing.jsonl",
                  "variant": "orig-no-spaces"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 2
        assert "stage 'data'" in capsys.readouterr().err


class TestPrepareCommand:
    def test_outputs_written(self, golden_corpus, tmp_path, capsys):
        out = tmp_path / "prepared"
        assert main(["prepare", str(golden_corpus), "--out", str(out)]) == 0
        assert (out / "manifest.jsonl").exists()
        assert (out / "rejections.jsonl").exists()
        assert (out / "stats.txt").exists()
        stdout = capsys.readouterr().out
        assert "kept" in stdout
        rows = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
        assert len(rows) == 4
        # audio paths resolve relative to the prepared directory
        assert (out / rows[0]["audio"]).resolve().exists()

    def test_tier_filter(self, golden_corpus, tmp_path, capsys):
        out = tmp_path / "tiered"
        assert main(["prepare", str(golden_corpus), "--out", str(out),
                     "--tier", "ref"]) == 0
        rows = (out / "manifest.jsonl").read_text().splitlines()
        assert len(rows) == 4
        capsys.readouterr()
        rc = main(["prepare", str(golden_corpus), "--out", str(tmp_path / "none"),
                   "--tier", "translation"])
        assert rc == 2
        assert "no annotations" in capsys.readouterr().err


class TestTrainedRun:
    def test_run_directory_is_self_describing(self, trained_run):
        run = trained_run["run"]
        for name in ("run.json", "manifest.jsonl", "checkpoint.bin",
                     "epochs.jsonl", "report-test.json", "report-test.txt"):
            assert (run / name).exists(), name
        # the decoder is chosen per evaluate call, not recorded with the run
        assert "decoder" not in json.loads((run / "run.json").read_text())

    def test_evaluate_reproduces_results_row(self, trained_run):
        results = [json.loads(l) for l in
                   (trained_run["out_dir"] / "results.jsonl").read_text().splitlines()]
        recorded = results[0]
        row, report = evaluate_run(trained_run["run"], split="test")
        assert row.ler == recorded["ler"]
        assert row.utterances == recorded["utterances"]
        assert row.minutes == pytest.approx(recorded["minutes"])

    def test_evaluate_dev_reproduces_training_dev_ler(self, trained_run, capsys):
        # training's dev LER and evaluate share one decode path
        run = trained_run["run"]
        assert main(["evaluate", "--run", str(run), "--split", "dev"]) == 0
        capsys.readouterr()
        info = json.loads((run / "run.json").read_text())
        report = json.loads((run / "report-dev.json").read_text())
        assert report["ler"] == info["results"]["best_dev_ler"]

    def test_evaluate_split_id_missing_from_manifest_exits_2(self, trained_run,
                                                             tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        dropped = json.loads((run / "run.json").read_text())["splits"]["test"][0]
        lines = (run / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if json.loads(line)["id"] != dropped]
        assert len(kept) == len(lines) - 1
        (run / "manifest.jsonl").write_text("\n".join(kept) + "\n", encoding="utf-8")
        assert main(["evaluate", "--run", str(run), "--split", "test"]) == 2
        err = capsys.readouterr().err
        assert dropped in err
        assert "Traceback" not in err

    def test_evaluate_command_exit_zero(self, trained_run, capsys):
        assert main(["evaluate", "--run", str(trained_run["run"]),
                     "--split", "dev"]) == 0
        assert "LER" in capsys.readouterr().out

    def test_evaluate_with_beam_decoder(self, trained_run, capsys):
        assert main(["evaluate", "--run", str(trained_run["run"]),
                     "--split", "dev", "--decoder", "beam", "--beam", "4"]) == 0
        capsys.readouterr()
        report = json.loads(
            (trained_run["run"] / "report-dev.json").read_text())
        assert report["decoder"] == "beam"

    def test_evaluate_non_run_directory_exits_2(self, tmp_path, capsys):
        assert main(["evaluate", "--run", str(tmp_path)]) == 2
        assert "run.json" in capsys.readouterr().err

    def test_error_report_command(self, trained_run, capsys):
        assert main(["error-report", "--run", str(trained_run["run"]),
                     "--top-k", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("top 5 confusion pairs")
        assert "deletions per label" in out

    def test_transcribe_memorized_training_utterance(self, trained_run, capsys):
        run = trained_run["run"]
        info = json.loads((run / "run.json").read_text())
        utt_id = info["splits"]["train"][0]
        manifest = {json.loads(l)["id"]: json.loads(l)
                    for l in (run / "manifest.jsonl").read_text().splitlines()}
        record = manifest[utt_id]
        wav = (trained_run["corpus"]["prepared"] / record["audio"]).resolve()
        assert main(["transcribe", "--run", str(run), str(wav)]) == 0
        out = capsys.readouterr().out
        text = out.strip().split("\t")[1] if "\t" in out else ""
        expected = record["transcript"].replace(" ", "")
        assert text == expected
        assert wav.with_suffix(".txt").read_text().strip() == expected

    def test_transcribe_silence_is_near_empty(self, trained_run, tmp_path, capsys):
        wav = tmp_path / "silence.wav"
        write_wav(wav, AudioBuffer(np.zeros(16000), 16000))
        assert main(["transcribe", "--run", str(trained_run["run"]), str(wav)]) == 0
        out = capsys.readouterr().out.strip()
        text = out.split("\t")[1] if "\t" in out else ""
        assert len(text) <= 2

    def test_transcribe_with_beam_flag(self, trained_run, capsys):
        run = trained_run["run"]
        info = json.loads((run / "run.json").read_text())
        utt_id = info["splits"]["train"][0]
        manifest = {json.loads(l)["id"]: json.loads(l)
                    for l in (run / "manifest.jsonl").read_text().splitlines()}
        wav = (trained_run["corpus"]["prepared"] / manifest[utt_id]["audio"]).resolve()
        assert main(["transcribe", "--run", str(run), str(wav), "--beam", "4"]) == 0
        out = capsys.readouterr().out
        assert manifest[utt_id]["transcript"].replace(" ", "") in out

    @pytest.mark.parametrize("argv", [
        ["transcribe", "--beam", "0"],
        ["transcribe", "--beam", "-2"],
        ["transcribe", "--beam", "x"],
        ["evaluate", "--decoder", "beam", "--beam", "0"],
    ], ids=["transcribe-0", "transcribe-negative", "transcribe-text", "evaluate-0"])
    def test_beam_width_below_1_exits_1(self, trained_run, tmp_path, capsys, argv):
        argv = argv + ["--run", str(trained_run["run"])]
        if argv[0] == "transcribe":
            wav = tmp_path / "hush.wav"
            write_wav(wav, AudioBuffer(np.zeros(16000), 16000))
            argv.append(str(wav))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "beam width" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_transcribe_directory_named_once(self, trained_run, tmp_path, capsys):
        folder = tmp_path / "folder.wav"
        folder.mkdir()
        assert main(["transcribe", "--run", str(trained_run["run"]), str(folder)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {folder}: ")
        assert err.count(f"{folder}:") == 1

    def test_transcribe_missing_file_continues_and_exits_2(self, trained_run,
                                                           tmp_path, capsys):
        wav = tmp_path / "hush.wav"
        write_wav(wav, AudioBuffer(np.zeros(16000), 16000))
        missing = tmp_path / "ghost.wav"
        rc = main(["transcribe", "--run", str(trained_run["run"]),
                   str(missing), str(wav)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "ghost.wav" in captured.err
        assert str(wav) in captured.out  # the good file still decoded

    def test_transcribe_wrong_sample_rate_continues(self, trained_run, tmp_path,
                                                    capsys):
        slow = tmp_path / "slow.wav"
        write_wav(slow, AudioBuffer(np.zeros(8000), 8000))
        good = tmp_path / "good.wav"
        write_wav(good, AudioBuffer(np.zeros(16000), 16000))
        rc = main(["transcribe", "--run", str(trained_run["run"]),
                   str(slow), str(good)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "sample rate" in captured.err
        assert str(good) in captured.out

    def test_degenerate_sweep_equals_full_run(self, trained_run, capsys):
        info = json.loads((trained_run["run"] / "run.json").read_text())
        n_train = len(info["splits"]["train"])
        assert main(["sweep", "--config", str(trained_run["config"]),
                     "--sizes", str(n_train)]) == 0
        results = [json.loads(l) for l in
                   (trained_run["out_dir"] / "results.jsonl").read_text().splitlines()]
        full = next(r for r in results if r["experiment"] == "fixture-run")
        swept = next(r for r in results
                     if r["experiment"] == f"fixture-run-n{n_train}")
        assert swept["ler"] == full["ler"]
        assert swept["utterances"] == full["utterances"]

    @pytest.mark.parametrize("sizes", ["a,b", "-30", "0,10"])
    def test_sweep_sizes_not_positive_counts_exit_1(self, trained_run, capsys, sizes):
        rc = main(["sweep", "--config", str(trained_run["config"]), "--sizes", sizes])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_sweep_size_beyond_train_split_lists_maximum(self, trained_run, capsys):
        rc = main(["sweep", "--config", str(trained_run["config"]),
                   "--sizes", "5000"])
        assert rc == 1
        assert "80" in capsys.readouterr().err

    def test_sweep_extracts_each_utterance_once(self, tone_corpus, tmp_path,
                                                monkeypatch):
        extracted = Counter()
        original = pipeline.extract_features

        def counting(audio, config):
            extracted[audio.samples.tobytes()] += 1
            return original(audio, config)

        monkeypatch.setattr(pipeline, "extract_features", counting)
        config = {
            "schema_version": 1,
            "name": "once",
            "corpus": str(tone_corpus["manifest"]),
            "variant": "orig-no-spaces",
            "out_dir": str(tmp_path / "runs"),
            "seed": 3,
            "model": {"num_layers": 1, "hidden_units": 8},
            "train": {"max_epochs": 1, "patience": 1, "batch_size": 16},
        }
        path = tmp_path / "once.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--sizes", "5,10,20"]) == 0
        info = json.loads((tmp_path / "runs" / "once-n20" / "run.json").read_text())
        used = len(info["subset"]) + len(info["splits"]["dev"]) + len(info["splits"]["test"])
        assert len(extracted) == used
        assert set(extracted.values()) == {1}

    @pytest.mark.parametrize("command,damage", [
        ("evaluate", _remove("checkpoint.bin")),
        ("transcribe", _remove("checkpoint.bin")),
        ("evaluate", _truncate("checkpoint.bin")),
        ("evaluate", _truncate("checkpoint.bin", 10)),
        ("evaluate", _truncate("run.json")),
        ("error-report", _replace("report-test.json", b"{}")),
        ("error-report", _truncate("report-test.json")),
        ("error-report", _replace("report-test.json", b"\xff\xfe")),
        ("evaluate", _replace("run.json", b"[]")),
        ("transcribe", _replace("run.json", b"{}")),
        ("evaluate", _remove("manifest.jsonl")),
        ("evaluate", _set_run_key("splits", 5)),
        ("transcribe", _set_run_key("feature_config", 5)),
        ("evaluate", _edit_checkpoint_header(lambda h: h.pop("config"))),
        ("transcribe", _edit_checkpoint_header(
            lambda h: h["config"].update(input_dim="x"))),
        ("evaluate", _edit_checkpoint_header(lambda h: h["tensors"][0].pop("shape"))),
        ("evaluate", _edit_checkpoint_header(lambda h: h.update(vocabulary=5))),
        ("evaluate", _drop_from_manifest("train")),
        ("transcribe", _set_run_key("feature_config", {"frame_shift_s": 0})),
    ], ids=["evaluate-no-checkpoint", "transcribe-no-checkpoint",
            "evaluate-half-checkpoint", "evaluate-10-byte-checkpoint",
            "evaluate-truncated-run-json", "error-report-empty-report",
            "error-report-truncated-report", "error-report-binary-report",
            "evaluate-list-run-json", "transcribe-empty-run-json",
            "evaluate-no-manifest", "evaluate-int-splits",
            "transcribe-int-feature-config", "evaluate-header-without-config",
            "transcribe-text-input-dim", "evaluate-tensor-without-shape",
            "evaluate-int-vocabulary", "evaluate-manifest-lacks-train-id",
            "transcribe-zero-frame-shift"])
    def test_damaged_run_directory_exits_2(self, trained_run, tmp_path, capsys,
                                           command, damage):
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        damage(run)
        argv = [command, "--run", str(run)]
        if command == "transcribe":
            wav = tmp_path / "hush.wav"
            write_wav(wav, AudioBuffer(np.zeros(16000), 16000))
            argv.append(str(wav))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestSubSeeds:
    def test_named_streams_differ(self):
        split = rng_for(7, "split").integers(1 << 30)
        init = rng_for(7, "init").integers(1 << 30)
        subset = rng_for(7, "subset").integers(1 << 30)
        assert len({int(split), int(init), int(subset)}) == 3


class TestIpaPauseVariant:
    def test_end_to_end_with_rules_and_alignments(self, tone_corpus, tmp_path):
        config = {
            "schema_version": 1,
            "name": "ipa-pause",
            "corpus": str(tone_corpus["manifest"]),
            "variant": "ipa-pause-boundaries",
            "g2p_rules": str(tone_corpus["corpus"] / "g2p.tsv"),
            "alignments": str(tone_corpus["corpus"] / "words.jsonl"),
            "pause_gap_threshold": 0.05,
            "out_dir": str(tmp_path / "runs"),
            "seed": 2,
            "model": {"num_layers": 1, "hidden_units": 8},
            "train": {"max_epochs": 2, "patience": 2, "batch_size": 16},
        }
        path = tmp_path / "ipa.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 0
        run = tmp_path / "runs" / "ipa-pause"
        info = json.loads((run / "run.json").read_text())
        assert info["variant"] == "ipa-pause-boundaries"
        assert (run / "g2p.tsv").exists()
        assert (run / "words.jsonl").exists()
        # evaluation reproduces from the run directory copies alone
        row, report = evaluate_run(run, split="test")
        assert report.n_utterances == len(info["splits"]["test"])
        _, vocab = load_checkpoint(run / "checkpoint.bin")
        assert " " in vocab  # pause variant keeps a space label
