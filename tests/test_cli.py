import hashlib
import io
import json
import os
import re
import runpy
import shutil
import struct
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from conftest import build_eaf, memory_capped
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tinyasr import config as config_module
from tinyasr import pipeline
from tinyasr.audio import AudioBuffer, write_wav
from tinyasr.cli import main
from tinyasr.config import load_experiment_config, parse_experiment_config
from tinyasr.corpus import UtteranceRecord
from tinyasr.errors import ConfigError
from tinyasr.model import ModelConfig, init_parameters, load_checkpoint, save_checkpoint
from tinyasr.pipeline import ResultsRow, emit_results_table, evaluate_run
from tinyasr.synthetic import generate_tone_corpus
from tinyasr.training import rng_for
from tinyasr.variants import build_vocabulary

README = Path(__file__).resolve().parent.parent / "README.md"


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


def _make_dir(name):
    """Replace a run file by a directory of the same name."""
    def damage(run):
        (run / name).unlink()
        (run / name).mkdir()
    return damage


def _set_run_key(key, value):
    def damage(run):
        info = json.loads((run / "run.json").read_text())
        info[key] = value
        (run / "run.json").write_text(json.dumps(info))
    return damage


def _record_before_the_rate(**feature_config):
    """Rewrite run.json as a run from before the audio set the sample rate
    wrote it: a feature_config section holding the rate, and no
    sample_rate key."""
    def damage(run):
        info = json.loads((run / "run.json").read_text())
        info["feature_config"] = {"sample_rate": info.pop("sample_rate"), **feature_config}
        (run / "run.json").write_text(json.dumps(info))
    return damage


def _model_of_input_dim(input_dim):
    """Replace the checkpoint by a model of another input dimension, with
    the same vocabulary."""
    def damage(run):
        _, vocab = load_checkpoint(run / "checkpoint.bin")
        config = ModelConfig(input_dim=input_dim, vocab_size=vocab.size - 1,
                             num_layers=1, hidden_units=4)
        save_checkpoint(run / "checkpoint.bin", init_parameters(config, 0), vocab.labels)
    return damage


def _set_checkpoint_version(version):
    def damage(run):
        data = (run / "checkpoint.bin").read_bytes()
        (run / "checkpoint.bin").write_bytes(data[:8] + struct.pack("<I", version) + data[12:])
    return damage


def _as_container_version_2(run):
    """Rewrite the checkpoint as container version 2 wrote it: the same
    header, then the parameter vector as little-endian float64."""
    params, _ = load_checkpoint(run / "checkpoint.bin")
    data = (run / "checkpoint.bin").read_bytes()
    (length,) = struct.unpack("<I", data[12:16])
    (run / "checkpoint.bin").write_bytes(data[:8] + struct.pack("<II", 2, length)
                                         + data[16:16 + length]
                                         + params.flat.astype("<f8").tobytes())


def _set_report_confusions(confusions):
    def damage(run):
        report = json.loads((run / "report-test.json").read_text(encoding="utf-8"))
        report["confusions"] = confusions
        (run / "report-test.json").write_text(json.dumps(report), encoding="utf-8")
    return damage


def _both(first, second):
    def damage(run):
        first(run)
        second(run)
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


def _set_manifest_span(start_s, end_s):
    """Give every utterance of the run manifest the same span."""
    def damage(run):
        lines = (run / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        (run / "manifest.jsonl").write_text("".join(
            json.dumps({**json.loads(line), "start_s": start_s, "end_s": end_s}) + "\n"
            for line in lines), encoding="utf-8")
    return damage


def _repeat_first_id(manifest):
    """Append a line with the first line's id and the second line's audio."""
    rows = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    rows.append({**rows[1], "id": rows[0]["id"]})
    manifest.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _blank_transcript(manifest, utt_id):
    """Empty the transcript of one utterance of a manifest."""
    rows = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    manifest.write_text("".join(
        json.dumps({**row, "transcript": "" if row["id"] == utt_id else row["transcript"]})
        + "\n" for row in rows), encoding="utf-8")


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
        assert config.model == {}
        assert config.train.seed == 0
        assert config.out_dir == Path("runs").resolve()

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

    def test_subset_sizes_is_no_longer_a_key(self):
        raw = self.base()
        raw["subset_sizes"] = [25, 50]
        with pytest.raises(ConfigError, match="unknown config key 'subset_sizes'"):
            parse_experiment_config(raw)

    def test_split_test_is_no_longer_a_key(self):
        raw = self.base()
        raw["train"] = {"split_test": 0.1}
        with pytest.raises(ConfigError, match="unknown config key 'split_test'"):
            parse_experiment_config(raw)

    def test_readme_table_names_exactly_the_config_keys(self):
        section = README.read_text(encoding="utf-8").split("## Experiment config\n")[1]
        section = section.split("\n## ")[0]
        named = set()
        for key, default, meaning in re.findall(r"^\| `(\w+)` \|([^|]*)\|([^|]*)\|$",
                                                section, re.M):
            if default.strip():
                named.add(key)
            else:  # a section, whose row lists its keys with their defaults
                named |= {f"{key}.{sub}" for sub in re.findall(r"`(\w+)` \(", meaning)}
        accepted = {key for key in config_module._TOP_TYPES if key not in ("model", "train")}
        accepted |= {f"model.{key}" for key in config_module._MODEL_TYPES}
        accepted |= {f"train.{key}" for key in config_module._TRAIN_TYPES}
        assert named == accepted
        assert f"It sets\nat most {len(accepted)} values;" in section
        for name in named - {"schema_version"}:
            # a list is ill-typed for every key, so only an unknown key says so
            raw = self.base()
            *section_name, key = name.split(".")
            (raw.setdefault(section_name[0], {}) if section_name else raw)[key] = []
            with pytest.raises(ConfigError, match=f"ill-typed config key '{key}'"):
                parse_experiment_config(raw)

    @pytest.mark.parametrize("key", ["grad_clip_norm", "split_train", "split_dev"])
    def test_clipping_and_split_are_no_longer_keys(self, tmp_path, capsys, key):
        raw = {**self.base(), "out_dir": str(tmp_path / "runs"), "train": {key: 0.5}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unknown config key '{key}' in train section\n"
        assert not (tmp_path / "runs").exists()

    def test_seed_is_the_train_seed(self):
        raw = self.base()
        raw["seed"] = 7
        assert parse_experiment_config(raw).train.seed == 7

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
        ("features", "preemphasis", 1.5),
        ("features", "preemphasis", -0.1),
        ("features", "fmin", 9000.0),
        ("features", "fmin", -1.0),
        ("features", "fmax", 9000.0),
        ("train", "split_train", float("nan")),
        ("train", "split_dev", float("nan")),
        ("train", "split_dev", -0.1),
        ("train", "split_dev", 0.3),
        ("train", "learning_rate", float("nan")),
        (None, "pause_gap_threshold", float("nan")),
        ("features", "deltas", False),
        ("features", "frame_length_s", 1e308),
        ("features", "n_mels", 258),
        pytest.param("features", "n_mels", 10 ** 12, id="features-n_mels-10**12"),
        pytest.param("features", "frame_length_s", 10 ** 308, id="features-frame_length_s-10**308"),
        *(pytest.param(section, key, 10 ** 400, id=f"{section}-{key}-401-digits")
          for section, key in [(None, "pause_gap_threshold"), ("features", "frame_length_s"),
                               ("train", "learning_rate"), ("train", "grad_clip_norm"),
                               ("features", "sample_rate"), ("train", "batch_size")]),
        ("features", "sample_rate", 8000),
        *(pytest.param(None, key, value, id=f"None-{key}-NUL")
          for key, value in [("name", "x\0"), ("corpus", "m\0.jsonl"),
                             ("out_dir", "runs\0"), ("g2p_rules", "g2p\0.tsv"),
                             ("alignments", "\0")]),
        (None, "name", ""),
        (None, "name", ".."),
        (None, "name", "../x"),
        (None, "name", "group/../../x"),
        (None, "name", "/abs"),
    ])
    def test_bad_value_exits_1_before_any_run(self, tmp_path, capsys, section, key, value):
        # the audio sets the sample rate and the front end is fixed, so a
        # features section is itself the unknown key, whatever it sets
        match = "unknown config key 'features'" if section == "features" else key
        raw = self.base()
        raw["out_dir"] = str(tmp_path / "runs")
        if section is None:
            raw[key] = value
        else:
            raw[section] = {key: value}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=match):
            load_experiment_config(path)
        for argv in (["train"], ["sweep", "--sizes", "1"]):
            assert main([*argv, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_nested_relative_name_stays_under_out_dir(self):
        raw = self.base()
        raw["name"] = "group/run"
        config = parse_experiment_config(raw)
        assert config.out_dir / config.name == Path("runs").resolve() / "group" / "run"

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_experiment_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("argv", [["train"], ["sweep", "--sizes", "1"]])
    def test_config_not_utf8_exits_1(self, tmp_path, capsys, argv):
        path = tmp_path / "c.json"
        path.write_bytes(b'\xff\xfe{"a":1}')
        with pytest.raises(ConfigError, match="c.json"):
            load_experiment_config(path)
        assert main([argv[0], "--config", str(path), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "c.json" in err and "Traceback" not in err


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

    def test_sweep_without_sizes_exits_1(self, tone_corpus, tmp_path, capsys):
        config = {"schema_version": 1, "name": "x", "corpus": str(tone_corpus["manifest"]),
                  "variant": "orig-no-spaces", "out_dir": str(tmp_path / "runs")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--sizes" in err and "Traceback" not in err
        assert main(["sweep", "--config", str(path), "--sizes", ","]) == 1
        assert "sweep sizes" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_duplicate_manifest_id_exits_2_before_any_run(self, tone_corpus, tmp_path,
                                                           capsys):
        manifest = tmp_path / "manifest.jsonl"
        shutil.copyfile(tone_corpus["manifest"], manifest)
        _repeat_first_id(manifest)
        config = {"schema_version": 1, "name": "x", "corpus": str(manifest),
                  "variant": "orig-no-spaces", "out_dir": str(tmp_path / "runs")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--fast"]) == 2
        err = capsys.readouterr().err
        assert "duplicate utterance id" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_missing_g2p_rules_exits_2(self, tone_corpus, tmp_path, capsys):
        config = {"schema_version": 1, "name": "x", "corpus": str(tone_corpus["manifest"]),
                  "variant": "ipa-no-spaces", "g2p_rules": "missing.tsv",
                  "out_dir": str(tmp_path / "runs")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--fast"]) == 2
        err = capsys.readouterr().err
        assert "missing.tsv" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key,name", [("g2p_rules", "missing.tsv"),
                                          ("alignments", "missing.jsonl")])
    def test_unread_missing_rule_file_exits_2(self, tone_corpus, tmp_path, capsys,
                                              key, name):
        config = {"schema_version": 1, "name": "x", "corpus": str(tone_corpus["manifest"]),
                  "variant": "orig-no-spaces", key: name,
                  "out_dir": str(tmp_path / "runs")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--fast"]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def first_rows_config(self, tone_corpus, tmp_path, n, first_transcript=None):
        """A config over the first n utterances of the tone corpus, their
        audio by absolute path, the first transcript replaced when given."""
        manifest = tmp_path / "manifest.jsonl"
        rows = [json.loads(line) for line in
                tone_corpus["manifest"].read_text(encoding="utf-8").splitlines()[:n]]
        if first_transcript is not None:
            rows[0]["transcript"] = first_transcript
        manifest.write_text("".join(
            json.dumps({**row, "audio": str(tone_corpus["prepared"] / row["audio"])}) + "\n"
            for row in rows), encoding="utf-8")
        config = {"schema_version": 1, "name": "x", "corpus": str(manifest),
                  "variant": "orig-no-spaces", "out_dir": str(tmp_path / "runs")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        return path, rows[0]["id"]

    @pytest.mark.parametrize("n,empty,command", [
        pytest.param(5, "dev", ["train"], id="5-dev"),
        pytest.param(7, "test", ["train"], id="7-test"),
        pytest.param(5, "dev", ["sweep", "--sizes", "1"], id="5-dev-sweep"),
        pytest.param(7, "test", ["sweep", "--sizes", "1"], id="7-test-sweep")])
    def test_empty_split_exits_2_before_any_run(self, tone_corpus, tmp_path, capsys,
                                                n, empty, command):
        path, _ = self.first_rows_config(tone_corpus, tmp_path, n)
        assert main([*command, "--config", str(path), "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage 'data': empty split: {empty} (of {n} "
                              f"utterances; ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", [["train"], ["sweep", "--sizes", "4,8"]],
                             ids=["train", "sweep"])
    def test_infeasible_utterance_exits_2_before_any_run(self, tone_corpus, tmp_path,
                                                         capsys, command):
        # 80 labels, more than the utterance has frames; it lands in the
        # train split, and in the first subset of the sweep
        path, first = self.first_rows_config(tone_corpus, tmp_path, 20, "a b " * 40)
        assert main([*command, "--config", str(path), "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage 'data': utterance '{first}': ")
        assert "cannot emit 80 labels" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", [["train"], ["sweep", "--sizes", "4,8"]],
                             ids=["train", "sweep"])
    def test_label_less_test_utterance_exits_2_before_any_run(self, tone_corpus, tmp_path,
                                                              capsys, command):
        # only the test split holds it, which no training step reads
        path, _ = self.first_rows_config(tone_corpus, tmp_path, 20)
        config = load_experiment_config(path)
        blank = pipeline._load_corpus(config).test[0].id
        _blank_transcript(config.corpus, blank)
        assert main([*command, "--config", str(path), "--fast"]) == 2
        assert capsys.readouterr().err == (
            f"error: stage 'data': utterance '{blank}' has no labels under variant "
            "'orig-no-spaces'\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command,model,count", [
        (["train"], {"num_layers": 1, "hidden_units": 10 ** 7}, "800,010,000,000,004"),
        (["sweep", "--sizes", "4,8"], {"num_layers": 1, "hidden_units": 10 ** 7},
         "800,010,000,000,004"),
        (["train"], {"num_layers": 2 ** 31}, "3,225,520,438,544,004"),
        (["sweep", "--sizes", "4,8"], {"num_layers": 2 ** 31}, "3,225,520,438,544,004"),
    ], ids=["train", "sweep", "train-num-layers", "sweep-num-layers"])
    def test_model_too_large_to_allocate_exits_1(self, tone_corpus, tmp_path, capsys,
                                                 command, model, count):
        # 2.8 and 11 PiB of float32: the allocation fails at once, using no
        # memory, and before any work that grows with the layer count
        config = {"schema_version": 1, "name": "x", "corpus": str(tone_corpus["manifest"]),
                  "variant": "orig-no-spaces", "out_dir": str(tmp_path / "runs"),
                  "model": model}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        with memory_capped():
            assert main([*command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: stage 'data': a model of {count} parameters "
                       "does not fit in memory\n")
        assert not (tmp_path / "runs").exists()

    def test_prepare_out_is_a_file_exits_1(self, golden_corpus, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["prepare", str(golden_corpus), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and "Traceback" not in err

    def test_train_out_dir_is_a_file_exits_1(self, tone_corpus, tmp_path, capsys):
        out_dir = tmp_path / "taken"
        out_dir.write_text("")
        config = {"schema_version": 1, "name": "x", "corpus": str(tone_corpus["manifest"]),
                  "variant": "orig-no-spaces", "out_dir": str(out_dir)}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--fast"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out_dir / 'x'}: ") and "Traceback" not in err

    def test_prepare_missing_dir_exits_2(self, tmp_path):
        assert main(["prepare", str(tmp_path / "nowhere"), "--out",
                     str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_prepare_eaf_without_its_wav_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "s.eaf").write_text(build_eaf([KEPT_ANNOTATION]), encoding="utf-8")
        assert main(["prepare", str(corpus), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: no audio file for s.eaf (expected s.wav)\n"
        assert not (tmp_path / "out").exists()

    def test_prepare_manifest_line_without_its_audio_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "m.jsonl").write_text(json.dumps(
            {"id": "u1", "audio": "gone.wav", "start_s": 0.0, "end_s": 1.0,
             "transcript": "ej ku?pi", "speaker": "KP"}) + "\n", encoding="utf-8")
        assert main(["prepare", str(corpus), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: audio file not found: {corpus / 'gone.wav'}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,named", [
        (["prepare", "{corpus}", "--out", "o\0"], "NUL"),
        (["error-report", "--run", "r\0"], "NUL"),
        (["error-report", "--run", "{tmp}", "--split", "a\0b"], "invalid choice"),
    ], ids=["prepare-out", "error-report-run", "error-report-split"])
    def test_nul_in_a_path_option_exits_1(self, tone_corpus, tmp_path, capsys, argv, named):
        config = {"schema_version": 1, "name": "x", "corpus": str(tone_corpus["manifest"]),
                  "variant": "orig-no-spaces", "out_dir": str(tmp_path / "runs")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv = [arg.format(config=path, corpus=tone_corpus["corpus"], tmp=tmp_path)
                for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

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


# what prepare writes for the golden corpus
GOLDEN_STATS = """\
reason            count
kept                  4
empty                 1
punctuation-only      1
contains-digit        1
contains-cyrillic     1
unclear-marker        1
too-short             1
too-long              1
total                11
"""
GOLDEN_REJECTIONS = """\
{"id": "session_a1", "reason": "too-long"}
{"id": "session_a2", "reason": "too-short"}
{"id": "session_a3", "reason": "empty"}
{"id": "session_a4", "reason": "punctuation-only"}
{"id": "session_a5", "reason": "contains-digit"}
{"id": "session_a6", "reason": "contains-cyrillic"}
{"id": "session_a7", "reason": "unclear-marker"}
"""


class TestPrepareCommand:
    def test_synthetic_module_writes_a_corpus(self, tmp_path, monkeypatch, capsys):
        # python -m tinyasr.synthetic, the README quick start's first command
        monkeypatch.delitem(sys.modules, "tinyasr.synthetic")
        monkeypatch.setattr(sys, "argv", ["synthetic", str(tmp_path / "tones"),
                                          "--utterances", "3", "--seed", "11"])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("tinyasr.synthetic", run_name="__main__")
        assert exit_info.value.code == 0
        manifest = tmp_path / "tones" / "utterances.jsonl"
        assert capsys.readouterr().out == f"wrote 3 utterances; manifest at {manifest}\n"
        assert len(manifest.read_text(encoding="utf-8").splitlines()) == 3
        assert main(["prepare", str(tmp_path / "tones"), "--out", str(tmp_path / "out")]) == 0

    def test_golden_outputs_byte_for_byte(self, golden_corpus, tmp_path, capsys):
        out = tmp_path / "prepared"
        assert main(["prepare", str(golden_corpus), "--out", str(out)]) == 0
        assert (out / "stats.txt").read_bytes() == GOLDEN_STATS.encode()
        assert (out / "rejections.jsonl").read_bytes() == GOLDEN_REJECTIONS.encode()
        assert capsys.readouterr().out == (f"sample rate: 16000 Hz\n{GOLDEN_STATS}"
                                           f"manifest: {out / 'manifest.jsonl'}\n")

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

    def test_evaluate_label_less_utterance_exits_2_before_decoding(
            self, trained_run, tmp_path, monkeypatch, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        blank = json.loads((run / "run.json").read_text())["splits"]["test"][0]
        _blank_transcript(run / "manifest.jsonl", blank)
        monkeypatch.setattr(pipeline, "decode", None)  # decoding would raise TypeError
        assert main(["evaluate", "--run", str(run)]) == 2
        assert capsys.readouterr().err == (
            f"error: utterance '{blank}' has no labels under variant 'orig-no-spaces'\n")

    def test_evaluate_split_listing_no_ids_exits_2(self, trained_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        info = json.loads((run / "run.json").read_text())
        info["splits"]["dev"] = []
        (run / "run.json").write_text(json.dumps(info))
        (run / "report-dev.json").unlink(missing_ok=True)
        assert main(["evaluate", "--run", str(run), "--split", "dev"]) == 2
        assert capsys.readouterr().err == "error: split 'dev' is empty\n"
        assert not (run / "report-dev.json").exists()

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

    @pytest.mark.parametrize("flags,decoder,width", [
        (["--beam", "4"], "beam", 4),
        (["--decoder", "greedy", "--beam", "8"], "greedy", None),
        (["--decoder", "beam"], "beam", 8),
    ], ids=["beam-alone", "greedy-ignores-beam", "decoder-beam-alone"])
    def test_evaluate_decoder_flags(self, trained_run, tmp_path, monkeypatch, capsys,
                                    flags, decoder, width):
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        widths = set()
        original = pipeline.decode

        def recording(params, feature_list, beam_width=None):
            widths.add(beam_width)
            return original(params, feature_list, beam_width)

        monkeypatch.setattr(pipeline, "decode", recording)
        assert main(["evaluate", "--run", str(run), "--split", "dev", *flags]) == 0
        capsys.readouterr()
        assert f"\ndecoder: {decoder}\n" in (run / "report-dev.txt").read_text()
        assert widths == {width}

    def test_run_from_before_the_fixed_front_end_exits_2(self, trained_run, tmp_path,
                                                         capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        _record_before_the_rate(frame_length_s=0.025, frame_shift_s=0.01, n_mels=40)(run)
        for argv in (["evaluate", "--run", str(run)],
                     ["transcribe", "--run", str(run), str(trained_run["corpus"]["corpus"]
                                                         / "wav" / "tone0000.wav")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "not a run record (lacks sample_rate)" in err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_checkpoint_of_container_version_2_exits_2(self, trained_run, tmp_path, capsys):
        # version 2 stored the vector as float64; version 3 stores float32
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        _as_container_version_2(run)
        for argv in (["evaluate", "--run", str(run)],
                     ["transcribe", "--run", str(run), str(trained_run["corpus"]["corpus"]
                                                         / "wav" / "tone0000.wav")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "container version 2, not 3; retrain the run to read it" in err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_run_record_states_the_environment(self, trained_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        info = json.loads((run / "run.json").read_text())
        environment = info.pop("environment")
        assert environment["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert environment["blas"] == f"{blas['name']} {blas['version']}"
        assert environment["threads"] == {var: os.environ.get(var)
                                          for var in pipeline.BLAS_THREAD_VARS}
        # a record from before the environment was kept still reads
        (run / "run.json").write_text(json.dumps(info))
        assert main(["evaluate", "--run", str(run), "--split", "dev"]) == 0
        capsys.readouterr()

    def test_evaluate_non_run_directory_exits_2(self, tmp_path, capsys):
        assert main(["evaluate", "--run", str(tmp_path)]) == 2
        assert "run.json" in capsys.readouterr().err

    def test_error_report_command(self, trained_run, capsys):
        for top_k in ("5", "0"):
            assert main(["error-report", "--run", str(trained_run["run"]),
                         "--top-k", top_k]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"top {top_k} confusion pairs")
            assert "deletions per label" in out

    @pytest.mark.parametrize("top_k", ["-5", "x", "1.5"], ids=["negative", "text", "fraction"])
    def test_error_report_top_k_below_0_exits_1(self, trained_run, capsys, top_k):
        assert main(["error-report", "--run", str(trained_run["run"]),
                     "--top-k", top_k]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "top-k must be a whole number >= 0" in captured.err
        assert captured.out == ""

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

    def test_transcribe_error_lines_start_with_the_file(self, trained_run, tmp_path,
                                                        monkeypatch, capsys):
        # the name "a" occurs in the message it fails with ("audio sample rate")
        monkeypatch.chdir(tmp_path)
        for name in ("a", "clip.wav"):
            write_wav(tmp_path / name, AudioBuffer(np.zeros(8000), 8000))
        assert main(["transcribe", "--run", str(trained_run["run"]), "a", "clip.wav"]) == 2
        reason = "audio sample rate 8000 does not match the run's 16000"
        assert capsys.readouterr().err.splitlines() == [
            f"error: a: {reason} (resampling is unsupported)",
            f"error: clip.wav: {reason} (resampling is unsupported)"]

    @staticmethod
    def _copy_wavs(trained_run, tmp_path, count):
        run = trained_run["run"]
        info = json.loads((run / "run.json").read_text())
        manifest = {json.loads(l)["id"]: json.loads(l)
                    for l in (run / "manifest.jsonl").read_text().splitlines()}
        wavs = []
        for utt_id in info["splits"]["dev"][:count]:
            wav = tmp_path / f"{utt_id}.wav"
            shutil.copyfile(trained_run["corpus"]["prepared"] / manifest[utt_id]["audio"], wav)
            wavs.append(wav)
        return wavs

    def test_transcribe_decodes_every_file_in_one_call(self, trained_run, tmp_path,
                                                       monkeypatch, capsys):
        wavs = self._copy_wavs(trained_run, tmp_path, 5)
        write_wav(tmp_path / "silence.wav", AudioBuffer(np.zeros(16000), 16000))
        wavs.insert(2, tmp_path / "silence.wav")
        run = str(trained_run["run"])
        alone = []
        for wav in wavs:
            assert main(["transcribe", "--run", run, str(wav)]) == 0
            alone.append(capsys.readouterr().out)
        calls = []
        original = pipeline.decode

        def recording(params, feature_list, beam_width=None):
            calls.append(len(feature_list))
            return original(params, feature_list, beam_width)

        monkeypatch.setattr(pipeline, "decode", recording)
        assert main(["transcribe", "--run", run, *map(str, wavs)]) == 0
        assert calls == [len(wavs)]
        assert capsys.readouterr().out == "".join(alone)

    def test_transcribe_bad_files_in_the_middle_keep_their_place(self, trained_run,
                                                                 tmp_path, capsys):
        first, last = self._copy_wavs(trained_run, tmp_path, 2)
        slow = tmp_path / "slow.wav"
        write_wav(slow, AudioBuffer(np.zeros(8000), 8000))
        missing = tmp_path / "ghost.wav"
        rc = main(["transcribe", "--run", str(trained_run["run"]),
                   str(first), str(missing), str(slow), str(last)])
        captured = capsys.readouterr()
        assert rc == 2
        assert [line.split("\t")[0] for line in captured.out.splitlines()] == [
            str(first), str(last)]
        errors = captured.err.splitlines()
        assert len(errors) == 2
        assert errors[0].startswith("error: ") and "ghost.wav" in errors[0]
        assert "slow.wav" in errors[1] and "sample rate" in errors[1]
        assert last.with_suffix(".txt").exists() and not slow.with_suffix(".txt").exists()

    def test_transcribe_never_writes_over_an_input(self, trained_run, tmp_path, capsys):
        # clip.wav's transcript would be clip.txt, an input that holds audio;
        # clip.txt's own transcript path is itself
        clip_txt, clip_wav, other = self._copy_wavs(trained_run, tmp_path, 3)
        clip_txt = clip_txt.rename(tmp_path / "clip.txt")
        clip_wav = clip_wav.rename(tmp_path / "clip.wav")
        audio = clip_txt.read_bytes()
        rc = main(["transcribe", "--run", str(trained_run["run"]),
                   str(clip_txt), str(clip_wav), str(other)])
        captured = capsys.readouterr()
        assert rc == 2
        assert clip_txt.read_bytes() == audio
        assert [line.split("\t")[0] for line in captured.out.splitlines()] == [str(other)]
        errors = captured.err.splitlines()
        assert len(errors) == 2
        assert errors[0].startswith(f"error: {clip_txt}: ")
        assert errors[1].startswith(f"error: {clip_wav}: ")
        assert other.with_suffix(".txt").exists()

    def test_transcribe_writes_no_shared_transcript(self, trained_run, tmp_path, capsys):
        # take.wav and take.flac would both write take.txt
        take_wav, take_flac, other = self._copy_wavs(trained_run, tmp_path, 3)
        take_wav = take_wav.rename(tmp_path / "take.wav")
        take_flac = take_flac.rename(tmp_path / "take.flac")
        rc = main(["transcribe", "--run", str(trained_run["run"]),
                   str(take_wav), str(other), str(tmp_path / "." / "take.flac")])
        captured = capsys.readouterr()
        assert rc == 2
        assert [line.split("\t")[0] for line in captured.out.splitlines()] == [str(other)]
        errors = captured.err.splitlines()
        assert len(errors) == 2
        assert errors[0].startswith(f"error: {take_wav}: ") and "take.flac" in errors[1]
        assert not (tmp_path / "take.txt").exists()

    def test_transcribe_symlink_loop_is_one_error_line(self, trained_run, tmp_path, capsys):
        loop = tmp_path / "loop.wav"
        loop.symlink_to(loop)
        assert main(["transcribe", "--run", str(trained_run["run"]), str(loop)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "loop.wav" in err

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

    def test_train_and_whole_split_sweep_train_the_same_model(self, tone_corpus,
                                                              tmp_path):
        config = {"schema_version": 1, "name": "x", "corpus": str(tone_corpus["manifest"]),
                  "variant": "orig-no-spaces", "out_dir": str(tmp_path / "runs"),
                  "seed": 3, "model": {"num_layers": 1, "hidden_units": 8},
                  "train": {"max_epochs": 2, "patience": 2, "batch_size": 16}}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 0
        trained = tmp_path / "runs" / "x"
        n_train = len(json.loads((trained / "run.json").read_text())["splits"]["train"])
        assert main(["sweep", "--config", str(path), "--sizes", str(n_train)]) == 0
        swept = tmp_path / "runs" / f"x-n{n_train}"

        def epochs(run):
            rows = [json.loads(l) for l in (run / "epochs.jsonl").read_text().splitlines()]
            return [{k: v for k, v in row.items() if k != "seconds"} for row in rows]

        def sha256(run):
            return hashlib.sha256((run / "checkpoint.bin").read_bytes()).hexdigest()

        assert sha256(trained) == sha256(swept)
        assert (trained / "report-test.json").read_bytes() == (
            swept / "report-test.json").read_bytes()
        assert epochs(trained) == epochs(swept)
        results = (tmp_path / "runs" / "results.jsonl").read_text().splitlines()
        assert [json.loads(l)["experiment"] for l in results] == ["x", f"x-n{n_train}"]

    def test_fast_is_the_2x64_model(self, tone_corpus, tmp_path):
        config = {"schema_version": 1, "name": "x", "corpus": str(tone_corpus["manifest"]),
                  "variant": "orig-no-spaces", "seed": 3,
                  "train": {"max_epochs": 1, "patience": 1}}
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps({**config, "out_dir": str(tmp_path / "a")}))
        sized = tmp_path / "sized.json"
        sized.write_text(json.dumps({**config, "out_dir": str(tmp_path / "b"),
                                     "model": {"num_layers": 2, "hidden_units": 64}}))
        assert main(["train", "--config", str(fast), "--fast"]) == 0
        assert main(["train", "--config", str(sized)]) == 0
        a, b = tmp_path / "a" / "x", tmp_path / "b" / "x"
        for name in ("checkpoint.bin", "run.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_run_experiment_writes_only_its_run_directory(self, tone_corpus, tmp_path):
        config = parse_experiment_config({
            "schema_version": 1, "name": "x", "corpus": str(tone_corpus["manifest"]),
            "variant": "orig-no-spaces", "out_dir": str(tmp_path / "runs"),
            "model": {"num_layers": 1, "hidden_units": 8},
            "train": {"max_epochs": 1, "patience": 1, "batch_size": 16}})
        corpus = pipeline._load_corpus(config)
        items = pipeline.build_items(corpus.train[:4] + corpus.dev + corpus.test,
                                     corpus.unit_map, corpus.vocab, corpus.audio_root,
                                     corpus.sample_rate)
        items = {item.id: item for item in items}
        row = pipeline.run_experiment(config, corpus, items, corpus.train[:4], "four")
        assert (row.experiment, row.utterances) == ("four", 4)
        # no results.jsonl: the loop over a command's runs appends the rows
        assert [p.name for p in (tmp_path / "runs").iterdir()] == ["four"]
        run = tmp_path / "runs" / "four"
        assert json.loads((run / "run.json").read_text())["results"]["ler"] == row.ler

    @pytest.mark.parametrize("sizes", ["a,b", "-30", "0,10", "10,10"])
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
        used = sum(len(ids) for ids in info["splits"].values())
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
        ("transcribe", _set_run_key("sample_rate", "16000")),
        ("evaluate", _edit_checkpoint_header(lambda h: h.pop("config"))),
        ("transcribe", _edit_checkpoint_header(
            lambda h: h["config"].update(input_dim="x"))),
        ("evaluate", _edit_checkpoint_header(lambda h: h["tensors"][0].pop("shape"))),
        ("evaluate", _edit_checkpoint_header(lambda h: h.update(vocabulary=5))),
        ("evaluate", _drop_from_manifest("train")),
        ("transcribe", _set_run_key("sample_rate", 0)),
        ("evaluate", lambda run: _repeat_first_id(run / "manifest.jsonl")),
        ("evaluate", _set_run_key("variant", "bogus")),
        ("evaluate", _set_run_key("variant", "ipa-pause-boundaries")),
        ("evaluate", _both(_set_run_key("variant", "ipa-pause-boundaries"),
                           _replace("g2p.tsv", b""))),
        ("evaluate", _set_checkpoint_version(1)),
        ("evaluate", _edit_checkpoint_header(
            lambda h: h.update(vocabulary=["x", *h["vocabulary"][1:]]))),
        ("evaluate", _edit_checkpoint_header(
            lambda h: h.update(vocabulary=[*h["vocabulary"][:-1], 5]))),
        ("evaluate", _set_run_key("pause_gap_threshold", 10 ** 400)),
        ("evaluate", _make_dir("run.json")),
        ("error-report", _make_dir("report-test.json")),
        ("evaluate", _record_before_the_rate(append_energy=True)),
        ("transcribe", _model_of_input_dim(63)),
        ("evaluate", _set_run_key("sample_rate", 10 ** 400)),
        ("transcribe", _set_run_key("sample_rate", 2000)),
        ("evaluate", _set_run_key("audio_root", "a\x00b")),
        ("error-report", _set_report_confusions(
            [{"ref": 1, "hyp": "a", "count": 1}, {"ref": "b", "hyp": "a", "count": 1}])),
        ("error-report", _set_report_confusions([{"ref": "b", "hyp": "a", "count": "x"}])),
        ("evaluate", _record_before_the_rate(fmax=8000.0)),
        ("evaluate", _set_manifest_span(1e305, 1e306)),
    ], ids=["evaluate-no-checkpoint", "transcribe-no-checkpoint",
            "evaluate-half-checkpoint", "evaluate-10-byte-checkpoint",
            "evaluate-truncated-run-json", "error-report-empty-report",
            "error-report-truncated-report", "error-report-binary-report",
            "evaluate-list-run-json", "transcribe-empty-run-json",
            "evaluate-no-manifest", "evaluate-int-splits",
            "transcribe-text-sample-rate", "evaluate-header-without-config",
            "transcribe-text-input-dim", "evaluate-tensor-without-shape",
            "evaluate-int-vocabulary", "evaluate-manifest-lacks-train-id",
            "transcribe-zero-sample-rate", "evaluate-manifest-duplicate-id",
            "evaluate-bogus-variant", "evaluate-pause-run-without-g2p",
            "evaluate-pause-run-without-words", "evaluate-container-version-1",
            "evaluate-vocabulary-without-blank", "evaluate-vocabulary-with-number",
            "evaluate-huge-pause-gap", "evaluate-run-json-is-a-directory",
            "error-report-report-is-a-directory", "evaluate-deleted-feature-switch",
            "transcribe-features-not-model-input", "evaluate-huge-sample-rate",
            "transcribe-sample-rate-2000", "evaluate-nul-in-audio-root",
            "error-report-numeric-ref", "error-report-text-count",
            "evaluate-deleted-filterbank-band", "evaluate-span-far-beyond-audio"])
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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)
# the values a uniform draw seldom reaches: a NUL byte in a string, an
# integer beyond any float, and containers nested in containers
NUL_TEXT = st.builds("{}\0{}".format, st.text(max_size=3), st.text(max_size=3))
HUGE_INTEGERS = st.integers(min_value=10 ** 308 + 1) | st.integers(max_value=-10 ** 308 - 1)
NESTED = st.recursive(NUL_TEXT | HUGE_INTEGERS | JSON_VALUES,
                      lambda inner: st.lists(inner, min_size=1, max_size=2)
                      | st.dictionaries(st.text(max_size=3), inner, min_size=1, max_size=2),
                      max_leaves=4).filter(lambda v: isinstance(v, (list, dict)))
TARGETED_VALUES = NUL_TEXT | HUGE_INTEGERS | NESTED


def _run_record_keys(trained_run):
    """Every top-level run.json key."""
    return sorted(json.loads((trained_run["run"] / "run.json").read_text()))


class TestAnyRunRecordValue:
    @staticmethod
    def check_exit_codes(trained_run, key, value):
        # one top-level run.json value replaced by the value: each command
        # exits 0, 1 or 2 without a traceback
        with tempfile.TemporaryDirectory() as tmp:
            run = Path(tmp) / "run"
            shutil.copytree(trained_run["run"], run)
            _set_run_key(key, value)(run)
            wav = Path(tmp) / "hush.wav"
            write_wav(wav, AudioBuffer(np.zeros(8000), 16000))
            for argv in (["evaluate", "--run", str(run), "--split", "dev"],
                         ["transcribe", "--run", str(run), str(wav)]):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), (argv[0], key, value, err.getvalue())
                assert "Traceback" not in err.getvalue()

    @settings(max_examples=50, deadline=None)
    @given(drawn=st.data(), value=JSON_VALUES | TARGETED_VALUES)
    def test_evaluate_and_transcribe_keep_the_exit_codes(self, trained_run, drawn, value):
        key = drawn.draw(st.sampled_from(_run_record_keys(trained_run)), label="key")
        self.check_exit_codes(trained_run, key, value)

    def test_every_key_takes_nul_huge_and_nested_values(self, trained_run):
        for key in _run_record_keys(trained_run):
            for value in ("tone\0", 10 ** 309, [{"a\0": [10 ** 309]}], {"": [[]]}):
                self.check_exit_codes(trained_run, key, value)


def _cli(argv):
    """Run the CLI; returns its exit code and standard error."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """A prepared 10-utterance tone corpus, the fewest that fill train, dev
    and test, with its G2P rules and word alignments."""
    root = tmp_path_factory.mktemp("tiny")
    generate_tone_corpus(root / "corpus", n_utterances=10, seed=11)
    assert _cli(["prepare", str(root / "corpus"), "--out", str(root / "prepared")])[0] == 0
    return {"manifest": root / "prepared" / "manifest.jsonl",
            "g2p_rules": root / "corpus" / "g2p.tsv",
            "alignments": root / "corpus" / "words.jsonl"}


def _tiny_config(tiny_corpus, **paths):
    """A valid config that reads every input of the ipa-pause-boundaries
    variant and trains one epoch of a 1x4 model into runs/ beside it."""
    return {"schema_version": 1, "name": "x", "corpus": str(tiny_corpus["manifest"]),
            "variant": "ipa-pause-boundaries",
            "g2p_rules": str(paths.get("g2p_rules", tiny_corpus["g2p_rules"])),
            "alignments": str(paths.get("alignments", tiny_corpus["alignments"])),
            "pause_gap_threshold": 0.05, "out_dir": "runs", "seed": 2,
            "model": {"num_layers": 1, "hidden_units": 4},
            "train": {"batch_size": 16, "learning_rate": 1e-3, "max_epochs": 1,
                      "patience": 1}}


def check_train_exit_codes(root, config, case):
    """train on a config written into root: it exits 0, 1, 2 or 3 and, on
    failure, prints one error line and no traceback; a stage-data error
    leaves no run directory. The memory cap turns a model that asks for
    real memory into an allocation failure instead of a long run."""
    path = root / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with memory_capped():
        code, err = _cli(["train", "--config", str(path)])
    assert code in (0, 1, 2, 3), (case, err)
    assert "Traceback" not in err, (case, err)
    if code:
        assert err.startswith("error: ") and err.count("error: ") == 1, (case, err)
    else:
        assert err == "", (case, err)
    if "stage 'data'" in err:
        assert not (root / "runs").exists(), (case, err)


# an integer between these would ask for a model or a run of real size
# that trains for long; below and beyond them, the values cost nothing
CONFIG_VALUES = (JSON_VALUES | TARGETED_VALUES | st.sampled_from([2 ** 31, 10 ** 12])).filter(
    lambda v: not (type(v) is int and 16 < v < 2 ** 31))
CONFIG_PATHS = (["", "schema_version", "name", "corpus", "variant", "g2p_rules", "alignments",
                 "pause_gap_threshold", "out_dir", "seed", "model", "train"]
                + [f"model.{key}" for key in ("num_layers", "hidden_units")]
                + [f"train.{key}" for key in ("batch_size", "learning_rate", "max_epochs",
                                              "patience")])


class TestAnyExperimentConfigValue:
    # one config value replaced by the value, or deleted (None)
    @pytest.mark.parametrize("key", CONFIG_PATHS, ids=lambda key: key or "document")
    @settings(max_examples=10, deadline=None)
    @given(value=st.none() | CONFIG_VALUES)
    def test_train_keeps_the_exit_codes(self, tiny_corpus, key, value):
        # an absolute or climbing out_dir would write outside the test's
        # directory; a NUL one is still drawn
        assume(key != "out_dir" or not isinstance(value, str) or "\0" in value)
        config = _tiny_config(tiny_corpus)
        *sections, last = key.split(".")
        section = config[sections[0]] if sections else config
        if not key:  # the whole document
            config = {} if value is None else value
        elif value is None:
            del section[last]
        else:
            section[last] = value
        with tempfile.TemporaryDirectory() as tmp:
            check_train_exit_codes(Path(tmp), config, (key, value))


def _words_paths(lines):
    """Where a words.jsonl value can be set: a line's keys, and each key of
    its first word."""
    paths = []
    for index, line in enumerate(lines):
        paths += [(index, key) for key in line]
        if isinstance(line.get("words"), list) and line["words"]:
            paths += [(index, "words", 0, key) for key in line["words"][0]]
    return paths


class TestAnyAlignmentValue:
    # one value of one words.jsonl line replaced by the value, or deleted (None)
    @settings(max_examples=40, deadline=None)
    @given(drawn=st.data(), value=st.none() | JSON_VALUES | TARGETED_VALUES)
    def test_train_keeps_the_exit_codes(self, tiny_corpus, drawn, value):
        lines = [json.loads(line) for line in
                 tiny_corpus["alignments"].read_text(encoding="utf-8").splitlines()]
        *path, last = drawn.draw(st.sampled_from(_words_paths(lines)), label="path")
        target = lines
        for step in path:
            target = target[step]
        if value is None:
            del target[last]
        else:
            target[last] = value
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "words.jsonl").write_text(
                "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
            config = _tiny_config(tiny_corpus, alignments=root / "words.jsonl")
            check_train_exit_codes(root, config, (path, last, value))


class TestAnyG2PRuleValue:
    # one field of one rule line replaced by the text
    @settings(max_examples=25, deadline=None)
    @given(drawn=st.data(), text=st.text(max_size=4) | NUL_TEXT
           | st.sampled_from(["#", "\t", "\n", "<blank>", " "]))
    def test_train_keeps_the_exit_codes(self, tiny_corpus, drawn, text):
        lines = [line.split("\t") for line in
                 tiny_corpus["g2p_rules"].read_text(encoding="utf-8").splitlines()]
        index = drawn.draw(st.integers(0, len(lines) - 1), label="line")
        field = drawn.draw(st.integers(0, len(lines[index]) - 1), label="field")
        lines[index][field] = text
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "g2p.tsv").write_text("".join("\t".join(line) + "\n" for line in lines),
                                          encoding="utf-8")
            config = _tiny_config(tiny_corpus, g2p_rules=root / "g2p.tsv")
            check_train_exit_codes(root, config, (index, field, text))


# where a report value can be set: its keys, and each key of one of its
# pairs and of one of its confusions (None: an index drawn per example)
REPORT_PATHS = ([(key,) for key in ("ler", "ler_macro", "averaging", "n_utterances",
                                    "decoder", "pairs", "confusions")]
                + [("pairs", None, key) for key in ("id", "distance", "ref_len", "hyp")]
                + [("confusions", None, key) for key in ("ref", "hyp", "count")])


class TestAnyReportValue:
    # one value of report-test.json replaced by the value, or deleted (None)
    @pytest.mark.parametrize("path", REPORT_PATHS,
                             ids=lambda path: ".".join(map(str, path)))
    @settings(max_examples=15, deadline=None)
    @given(drawn=st.data(), value=st.none() | JSON_VALUES | TARGETED_VALUES)
    def test_error_report_keeps_the_exit_codes(self, trained_run, path, drawn, value):
        report = json.loads((trained_run["run"] / "report-test.json").read_text())
        # a substitution, a deletion and an insertion, whose counts the table sums
        report["confusions"] += [{"ref": "a", "hyp": "b", "count": 2},
                                 {"ref": "a", "hyp": None, "count": 1},
                                 {"ref": None, "hyp": "c", "count": 1}]
        *path, last = path
        target = report
        for step in path:
            if step is None:
                step = drawn.draw(st.integers(0, len(target) - 1), label="index")
            target = target[step]
        if value is None:
            del target[last]
        else:
            target[last] = value
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "report-test.json").write_text(json.dumps(report), encoding="utf-8")
            code, err = _cli(["error-report", "--run", tmp])
        assert code in (0, 2), (path, last, value, err)
        assert "Traceback" not in err
        assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1


VALID_MANIFEST_LINE = json.dumps({"id": "u1", "audio": "a.wav", "start_s": 0.25,
                                  "end_s": 1.0, "transcript": "ej ku?pi",
                                  "speaker": "KP"}).encode()


class TestAnyDamagedManifestLine:
    # bytes of a valid corpus manifest line set, then the line cut at some
    # length or kept: prepare exits 0 or 2 with at most one error line
    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, len(VALID_MANIFEST_LINE) - 1),
                                    st.integers(0, 255)), min_size=1, max_size=4),
           cut=st.none() | st.integers(0, len(VALID_MANIFEST_LINE)))
    def test_prepare_keeps_the_exit_codes(self, edits, cut):
        line = bytearray(VALID_MANIFEST_LINE)
        for index, value in edits:
            line[index] = value
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus"
            corpus.mkdir()
            write_wav(corpus / "a.wav", AudioBuffer(np.zeros(16000), 16000))
            (corpus / "utterances.jsonl").write_bytes(
                bytes(line if cut is None else line[:cut]) + b"\n")
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["prepare", str(corpus), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2), (bytes(line), err.getvalue())
        assert err.getvalue().count("error: ") <= 1 and "Traceback" not in err.getvalue()


def _prepare(corpus, out):
    """Run prepare; returns its exit code and standard error."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["prepare", str(corpus), "--out", str(out)])
    return code, err.getvalue()


def _corpus_dir(root, files):
    """A corpus directory with a 2 s silent WAV and the given text files."""
    corpus = root / "corpus"
    corpus.mkdir()
    for name, text in files.items():
        (corpus / name).write_text(text, encoding="utf-8")
        write_wav((corpus / name).with_suffix(".wav"), AudioBuffer(np.zeros(32000), 16000))
    return corpus


# time slot values of about +-1.7e308 ms, and one beyond any float
HUGE_MS = "17" + "0" * 307
BEYOND_A_FLOAT_MS = "9" * 400
KEPT_ANNOTATION = ("a1", 250, 1000, "ej ku?pi")


class TestTimesBeyondAFloat:
    @staticmethod
    def manifest(tmp_path, start_s, end_s):
        kept = json.loads(VALID_MANIFEST_LINE)
        lines = [kept, {**kept, "id": "u2", "start_s": start_s, "end_s": end_s}]
        return _corpus_dir(tmp_path, {"a.jsonl": "".join(json.dumps(line) + "\n"
                                                         for line in lines)})

    def test_manifest_span_length_beyond_a_float_names_the_line(self, tmp_path):
        corpus = self.manifest(tmp_path, -1.7e308, 1.7e308)
        code, err = _prepare(corpus, tmp_path / "out")
        assert code == 2 and err.count("error: ") == 1 and "Traceback" not in err
        assert "a.jsonl line 2" in err

    def test_manifest_end_whose_milliseconds_overflow_is_too_long(self, tmp_path):
        corpus = self.manifest(tmp_path, 0.0, 1e306)
        assert _prepare(corpus, tmp_path / "out") == (0, "")
        assert (tmp_path / "out" / "rejections.jsonl").read_text(encoding="utf-8") \
            == '{"id": "u2", "reason": "too-long"}\n'

    def test_eaf_slots_whose_milliseconds_overflow_are_too_long(self, tmp_path):
        eaf = build_eaf([KEPT_ANNOTATION, ("a2", "-" + HUGE_MS, HUGE_MS, "ej")])
        corpus = _corpus_dir(tmp_path, {"session.eaf": eaf})
        assert _prepare(corpus, tmp_path / "out") == (0, "")
        assert (tmp_path / "out" / "rejections.jsonl").read_text(encoding="utf-8") \
            == '{"id": "session_a2", "reason": "too-long"}\n'

    def test_eaf_time_value_beyond_a_float_names_the_slot(self, tmp_path):
        eaf = build_eaf([KEPT_ANNOTATION, ("a2", 1000, BEYOND_A_FLOAT_MS, "ej")])
        corpus = _corpus_dir(tmp_path, {"session.eaf": eaf})
        code, err = _prepare(corpus, tmp_path / "out")
        assert code == 2 and err.count("error: ") == 1 and "Traceback" not in err
        assert "session.eaf" in err and "'ts4'" in err

    def test_evaluate_with_a_train_span_length_beyond_a_float_exits_2(
            self, trained_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        damaged = json.loads((run / "run.json").read_text())["splits"]["train"][0]
        lines = (run / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
        (run / "manifest.jsonl").write_text("".join(
            json.dumps({**row, "start_s": -1.7e308, "end_s": 1.7e308}
                       if row["id"] == damaged else row) + "\n" for row in rows),
            encoding="utf-8")
        assert main(["evaluate", "--run", str(run), "--split", "test"]) == 2
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and "Traceback" not in err
        assert "manifest.jsonl line" in err


EAF_FIELDS = ([("TIME_SLOT", slot, "TIME_VALUE") for slot in range(4)]
              + [("ALIGNABLE_ANNOTATION", ann, key) for ann in range(2)
                 for key in ("TIME_SLOT_REF1", "TIME_SLOT_REF2", "ANNOTATION_ID")]
              + [("ANNOTATION_VALUE", ann, None) for ann in range(2)])
# None removes an attribute; the integers run past a float both ways
EAF_VALUES = (st.none() | st.text(max_size=4)
              | st.sampled_from(["", "x", "1.5", "1e3", "-1", "ts1", "ts9", HUGE_MS,
                                 "-" + HUGE_MS, BEYOND_A_FLOAT_MS, "-" + BEYOND_A_FLOAT_MS])
              | (st.integers() | HUGE_INTEGERS).map(str))


class TestAnyDamagedEaf:
    # attributes and annotation values of a valid EAF file set, or
    # attributes removed: prepare exits 0 or 2 with at most one error line
    @settings(max_examples=100, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(EAF_FIELDS), EAF_VALUES),
                          min_size=1, max_size=3))
    @example(edits=[(("TIME_SLOT", 3, "TIME_VALUE"), BEYOND_A_FLOAT_MS)])
    def test_prepare_keeps_the_exit_codes(self, edits):
        root = ET.fromstring(build_eaf([KEPT_ANNOTATION, ("a2", 1000, 1800, "ej")]))
        for (tag, index, key), value in edits:
            element = list(root.iter(tag))[index]
            if key is None:
                element.text = value
            elif value is None:
                element.attrib.pop(key, None)
            else:
                element.set(key, value)
        with tempfile.TemporaryDirectory() as tmp:
            eaf = ET.tostring(root, encoding="unicode")
            corpus = _corpus_dir(Path(tmp), {"session.eaf": eaf})
            code, err = _prepare(corpus, Path(tmp) / "out")
        assert code in (0, 2), (edits, err)
        assert err.count("error: ") <= 1 and "Traceback" not in err


# JSON nested deeper than the parser's recursion limit
TOO_DEEP = "[" * 200000 + "]" * 200000


class TestJsonNestedTooDeep:
    @staticmethod
    def _nest_checkpoint_header(run):
        data = (run / "checkpoint.bin").read_bytes()
        version, length = struct.unpack("<II", data[8:16])
        (run / "checkpoint.bin").write_bytes(
            data[:8] + struct.pack("<II", version, len(TOO_DEEP)) + TOO_DEEP.encode()
            + data[16 + length:])

    @pytest.mark.parametrize("target,command,code,named", [
        ("config", "train", 1, "c.json"),
        ("corpus manifest", "prepare", 2, "utterances.jsonl line 1"),
        ("run manifest", "evaluate", 2, "manifest.jsonl line 1"),
        ("run.json", "evaluate", 2, "run.json"),
        ("checkpoint header", "transcribe", 2, "checkpoint.bin"),
        ("report", "error-report", 2, "report-test.json")])
    def test_exits_with_one_error_line(self, trained_run, tmp_path, capsys, target,
                                       command, code, named):
        run = tmp_path / "run"
        shutil.copytree(trained_run["run"], run)
        if target == "config":
            (tmp_path / "c.json").write_text(TOO_DEEP)
            argv = ["train", "--config", str(tmp_path / "c.json")]
        elif target == "corpus manifest":
            (tmp_path / "corpus").mkdir()
            (tmp_path / "corpus" / "utterances.jsonl").write_text(TOO_DEEP + "\n")
            argv = ["prepare", str(tmp_path / "corpus"), "--out", str(tmp_path / "out")]
        else:
            if target == "checkpoint header":
                self._nest_checkpoint_header(run)
            else:
                name = {"run manifest": "manifest.jsonl", "report": "report-test.json"}
                (run / name.get(target, target)).write_text(TOO_DEEP + "\n")
            argv = [command, "--run", str(run)]
            if command == "transcribe":
                wav = tmp_path / "hush.wav"
                write_wav(wav, AudioBuffer(np.zeros(16000), 16000))
                argv.append(str(wav))
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err


class TestDamagedWav:
    @pytest.mark.parametrize("fmt_size_byte", [1, 173, 255])
    def test_transcribe_fmt_chunk_past_the_end_exits_2(self, trained_run, tmp_path,
                                                        capsys, fmt_size_byte):
        data = (trained_run["corpus"]["corpus"] / "wav" / "tone0000.wav").read_bytes()
        good, bad = tmp_path / "good.wav", tmp_path / "bad.wav"
        good.write_bytes(data)
        # header byte 17 is the second byte of the fmt chunk size
        bad.write_bytes(data[:17] + bytes([fmt_size_byte]) + data[18:])
        assert main(["transcribe", "--run", str(trained_run["run"]),
                     str(bad), str(good)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: not a readable WAV file")
        assert captured.err.count("\n") == 1
        assert captured.out.startswith(f"{good}\t")

    def test_transcribe_cut_inside_a_sample_reads_like_a_cut_between(
            self, trained_run, tmp_path, capsys):
        data = (trained_run["corpus"]["corpus"] / "wav" / "tone0000.wav").read_bytes()
        inside, between = tmp_path / "inside.wav", tmp_path / "between.wav"
        cut = len(data) // 2 | 1  # odd: inside a 2-byte sample, as the header is 44 bytes
        inside.write_bytes(data[:cut])
        between.write_bytes(data[:cut - 1])
        assert main(["transcribe", "--run", str(trained_run["run"]),
                     str(inside), str(between)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[0] for line in lines] == [str(inside), str(between)]
        assert lines[0].split("\t")[1:] == lines[1].split("\t")[1:]


class TestSampleRateFromAudio:
    @staticmethod
    def prepared_config(tmp_path, sample_rate, n_utterances):
        """A tone corpus at sample_rate, prepared, and a config for it
        with no features section."""
        corpus = tmp_path / "corpus"
        generate_tone_corpus(corpus, n_utterances=n_utterances, seed=3,
                             sample_rate=sample_rate)
        assert main(["prepare", str(corpus), "--out", str(tmp_path / "prepared")]) == 0
        config = {"schema_version": 1, "name": "x", "variant": "orig-no-spaces",
                  "corpus": str(tmp_path / "prepared" / "manifest.jsonl"),
                  "out_dir": str(tmp_path / "runs"),
                  "train": {"max_epochs": 1, "patience": 1}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        return corpus, path

    def test_8_khz_corpus_trains_and_its_run_rejects_16_khz_audio(self, tmp_path, capsys):
        corpus, config = self.prepared_config(tmp_path, 8000, 30)
        assert main(["train", "--config", str(config), "--fast"]) == 0
        assert json.loads((tmp_path / "runs" / "x" / "run.json").read_text())[
            "sample_rate"] == 8000
        wide = tmp_path / "wide.wav"
        write_wav(wide, AudioBuffer(np.zeros(16000), 16000))
        narrow = corpus / "wav" / "tone0000.wav"
        capsys.readouterr()
        assert main(["transcribe", "--run", str(tmp_path / "runs" / "x"),
                     str(wide), str(narrow)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {wide}") and captured.err.count("\n") == 1
        assert "16000" in captured.err and "8000" in captured.err
        assert captured.out.startswith(f"{narrow}\t")

    @pytest.mark.parametrize("fault", ["16 kHz audio", "span past the end"])
    def test_manifest_line_that_does_not_fit_its_audio_exits_2_before_any_run(
            self, tmp_path, capsys, fault):
        # the last line of a prepared 8 kHz manifest, edited by hand
        _, config = self.prepared_config(tmp_path, 8000, 20)
        manifest = tmp_path / "prepared" / "manifest.jsonl"
        *rows, last = [json.loads(line) for line in manifest.read_text().splitlines()]
        if fault == "16 kHz audio":
            wide = tmp_path / "wide.wav"
            write_wav(wide, AudioBuffer(np.zeros(16000 * 4), 16000))
            last["audio"], shown = str(wide), "audio sample rate 16000 does not match"
        else:
            last["end_s"] += 5.0
            shown = f"audio span [{last['start_s']}, {last['end_s']}] ends beyond buffer"
        manifest.write_text("".join(json.dumps(row) + "\n" for row in [*rows, last]))
        path = manifest.parent / last["audio"]
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage 'features': utterance '{last['id']}' in "
                              f"{path}: {shown}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_corpus_below_the_rate_floor_exits_2_before_any_run(self, tmp_path, capsys):
        _, config = self.prepared_config(tmp_path, 2000, 6)
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'data': sample rate 2000 Hz is too low")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "runs").exists()


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
        assert " " in vocab.labels  # pause variant keeps a space label


_G2P_DEFECTS = [("\tx", "empty source"), ("a\t<blank>", "'<blank>'"), ("a\t", "''")]


class TestG2PRuleDefects:
    """A G2P rule file line that holds no usable rule is a data error
    naming the file and the line, from train and from evaluate alike."""

    def ipa_config(self, tone_corpus, tmp_path, rules):
        config = {
            "schema_version": 1,
            "name": "ipa",
            "corpus": str(tone_corpus["manifest"]),
            "variant": "ipa-no-spaces",
            "g2p_rules": str(rules),
            "out_dir": str(tmp_path / "runs"),
            "model": {"num_layers": 1, "hidden_units": 8},
            "train": {"max_epochs": 1, "patience": 1},
        }
        path = tmp_path / "ipa.json"
        path.write_text(json.dumps(config))
        return path

    def with_defect(self, source, target, line):
        """Copy the rule file with a defective line put before its last."""
        lines = source.read_text(encoding="utf-8").splitlines(True)
        target.write_text("".join(lines[:-1]) + line + "\n" + lines[-1], encoding="utf-8")
        return len(lines)

    @pytest.mark.parametrize("line,shown", _G2P_DEFECTS)
    def test_train_exits_2_before_any_run(self, tone_corpus, tmp_path, capsys, line,
                                          shown):
        rules = tmp_path / "rules.tsv"
        lineno = self.with_defect(tone_corpus["corpus"] / "g2p.tsv", rules, line)
        path = self.ipa_config(tone_corpus, tmp_path, rules)
        assert main(["train", "--config", str(path), "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage 'data': rules.tsv line {lineno}: ")
        assert shown in err and err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    def test_evaluate_exits_2_on_a_defective_copy(self, tone_corpus, tmp_path, capsys):
        rules = tone_corpus["corpus"] / "g2p.tsv"
        assert main(["train", "--config",
                     str(self.ipa_config(tone_corpus, tmp_path, rules))]) == 0
        run = tmp_path / "runs" / "ipa"
        capsys.readouterr()
        for line, shown in _G2P_DEFECTS:
            lineno = self.with_defect(rules, run / "g2p.tsv", line)
            assert main(["evaluate", "--run", str(run)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: g2p.tsv line {lineno}: ")
            assert shown in err and err.count("\n") == 1


class TestBuildItems:
    """build_items over session WAVs of 30 s, two utterances each, the
    sessions interleaved, as an ELAN corpus lists them."""

    @staticmethod
    def sessions(root, count):
        for session in range(count):
            noise = np.random.default_rng(session).normal(0.0, 0.1, 30 * 16000)
            write_wav(root / f"s{session}.wav", AudioBuffer(noise, 16000))
        return [UtteranceRecord(id=f"s{session}u{u}", audio=f"s{session}.wav",
                                start_s=10.0 * u, end_s=10.0 * u + 1.0, transcript="a",
                                speaker="x")
                for u in range(2) for session in range(count)]

    @staticmethod
    def build(root, records):
        return pipeline.build_items(records, {r.id: ["a"] for r in records},
                                    build_vocabulary([["a"]]), root, 16000)

    def test_each_wav_read_once_and_items_in_input_order(self, tmp_path, monkeypatch):
        records = self.sessions(tmp_path, 3)
        alone = [self.build(tmp_path, [record])[0] for record in records]
        reads, read_wav = Counter(), pipeline.read_wav
        monkeypatch.setattr(pipeline, "read_wav",
                            lambda path: reads.update([path.name]) or read_wav(path))
        items = self.build(tmp_path, records)
        assert reads == {"s0.wav": 1, "s1.wav": 1, "s2.wav": 1}
        assert [item.id for item in items] == [record.id for record in records]
        for item, expected in zip(items, alone):
            assert np.array_equal(item.features, expected.features)
            assert item.target == expected.target

    def test_holds_one_wav_at_a_time(self, tmp_path):
        records = self.sessions(tmp_path, 4)
        tracemalloc.start()
        try:
            self.build(tmp_path, records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 30 * 16000 * 8  # two sessions' samples as float64
