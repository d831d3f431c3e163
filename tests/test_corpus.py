import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXPECTED_DROPS, EXPECTED_KEPT, build_eaf
from tinyasr.corpus import (
    UtteranceRecord,
    build_corpus,
    clean_transcript,
    filter_duration,
    manifest_line,
    parse_eaf_subset,
    prepare_corpus_dir,
    read_manifest,
    stats_table,
    write_manifest,
)
from tinyasr.errors import DataError


class TestEafParsing:
    def test_single_annotation(self, tmp_path):
        eaf = build_eaf([("a1", 1000, 2500, "ej ku?pi")])
        path = tmp_path / "one.eaf"
        path.write_text(eaf, encoding="utf-8")
        anns = parse_eaf_subset(path)
        assert len(anns) == 1
        assert anns[0].start_s == 1.0
        assert anns[0].end_s == 2.5
        assert anns[0].transcript == "ej ku?pi"
        assert anns[0].id == "one_a1"
        assert anns[0].speaker == "KP"

    def test_zero_annotations(self, tmp_path):
        path = tmp_path / "empty.eaf"
        path.write_text(build_eaf([]), encoding="utf-8")
        assert parse_eaf_subset(path) == []

    def test_dangling_time_slot_named_in_error(self, tmp_path):
        eaf = build_eaf([("a1", 1000, 2500, "x")]).replace('TIME_SLOT_REF2="ts2"',
                                                           'TIME_SLOT_REF2="ts9"')
        path = tmp_path / "dangling.eaf"
        path.write_text(eaf, encoding="utf-8")
        with pytest.raises(DataError, match="ts9"):
            parse_eaf_subset(path)

    def test_time_value_not_a_number_names_slot(self, tmp_path):
        eaf = build_eaf([("a1", 1000, "abc", "x")])
        path = tmp_path / "badtime.eaf"
        path.write_text(eaf, encoding="utf-8")
        with pytest.raises(DataError, match="time slot 'ts2'"):
            parse_eaf_subset(path)

    def test_tier_filter_keeps_numbering_and_checks_skipped_tiers(self, tmp_path):
        eaf = build_eaf([("a1", 1000, 2500, "ej")]).replace(
            'ANNOTATION_ID="a1" ', "")
        other = eaf[eaf.index("  <TIER"):eaf.index("</ANNOTATION_DOCUMENT>")]
        eaf = eaf.replace(other, other.replace('TIER_ID="ref"', 'TIER_ID="other"')
                          + other)
        path = tmp_path / "two.eaf"
        path.write_text(eaf, encoding="utf-8")
        assert [r.id for r in parse_eaf_subset(path)] == ["two_a1", "two_a2"]
        (record,) = parse_eaf_subset(path, tier="ref")
        assert (record.id, record.audio) == ("two_a2", "two.wav")
        path.write_text(eaf.replace('TIME_SLOT_REF2="ts2"', 'TIME_SLOT_REF2="ts9"', 1),
                        encoding="utf-8")
        with pytest.raises(DataError, match="ts9"):
            parse_eaf_subset(path, tier="ref")

    def test_malformed_xml_reports_position(self, tmp_path):
        path = tmp_path / "broken.eaf"
        path.write_text("<ANNOTATION_DOCUMENT><TIER>", encoding="utf-8")
        with pytest.raises(DataError, match="line"):
            parse_eaf_subset(path)

    def test_unreadable_file_is_data_error(self, tmp_path):
        path = tmp_path / "folder.eaf"
        path.mkdir()
        with pytest.raises(DataError, match="cannot read"):
            parse_eaf_subset(path)


class TestManifestParsing:
    def test_valid_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({
            "id": "u1", "audio": "a.wav", "start_s": 0.0, "end_s": 1.0,
            "transcript": "ej", "speaker": "KP",
        }) + "\n", encoding="utf-8")
        anns = read_manifest(path)
        assert len(anns) == 1 and anns[0].id == "u1"

    def test_missing_key_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"id": "u1", "audio": "a.wav", "start_s": 0.0, "end_s": 1.0,
               "transcript": "ej", "speaker": "KP"}
        bad = {k: v for k, v in row.items() if k != "speaker"}
        path.write_text(json.dumps(row) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="line 2.*speaker"):
            read_manifest(path)

    def test_inverted_range_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({
            "id": "u1", "audio": "a.wav", "start_s": 2.0, "end_s": 1.0,
            "transcript": "ej", "speaker": "KP",
        }) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="before"):
            read_manifest(path)

    def test_line_that_is_not_an_object_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("5\n")
        with pytest.raises(DataError, match="line 1"):
            read_manifest(path)

    def test_line_that_is_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(json.dumps({
            "id": "u1", "audio": "a.wav", "start_s": 0.0, "end_s": 1.0,
            "transcript": "ej", "speaker": "KP",
        }).encode("utf-8") + b"\n\xff\xfe\n")
        with pytest.raises(DataError, match="m.jsonl line 2"):
            read_manifest(path)

    @pytest.mark.parametrize("key", ["id", "audio", "transcript", "speaker", "tier"])
    @pytest.mark.parametrize("value", [None, 7, ["a b", "c"], {"a": "b"}],
                             ids=["null", "number", "list", "object"])
    def test_text_key_that_is_not_a_string_names_line(self, tmp_path, key, value):
        path = tmp_path / "m.jsonl"
        row = {"id": "u1", "audio": "a.wav", "start_s": 0.0, "end_s": 1.0,
               "transcript": "ej", "speaker": "KP"}
        path.write_text(json.dumps(row) + "\n" + json.dumps({**row, "id": "u2", key: value})
                        + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"m.jsonl line 2: key '{key}' must be a JSON "
                                            f"string"):
            read_manifest(path)

    def test_empty_id_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"id": "u1", "audio": "a.wav", "start_s": 0.0, "end_s": 1.0,
               "transcript": "ej", "speaker": "KP"}
        path.write_text(json.dumps(row) + "\n" + json.dumps({**row, "id": ""}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="m.jsonl line 2: empty utterance id"):
            read_manifest(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"id": "u1", "audio": "a.wav", "start_s": 0.0, "end_s": 1.0,
               "transcript": "ej", "speaker": "KP"}
        lines = [row, {**row, "id": "u2"}, {**row, "audio": "b.wav"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
        with pytest.raises(DataError, match=r"m.jsonl line 3: duplicate utterance id "
                                            r"'u1' \(first on line 1\)"):
            read_manifest(path)

    @pytest.mark.parametrize("key,value", [
        ("start_s", float("nan")), ("end_s", float("inf")), ("start_s", float("-inf")),
        pytest.param("end_s", 10 ** 400, id="end_s-401-digits"),
    ])
    def test_non_finite_time_names_line(self, tmp_path, key, value):
        path = tmp_path / "m.jsonl"
        row = {"id": "u1", "audio": "a.wav", "start_s": 0.0, "end_s": 1.0,
               "transcript": "ej", "speaker": "KP"}
        path.write_text(json.dumps(row) + "\n" + json.dumps({**row, "id": "u2", key: value})
                        + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="m.jsonl line 2: start_s/end_s must be finite"):
            read_manifest(path)

    def test_empty_speaker_falls_back_to_tier(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({
            "id": "u1", "audio": "a.wav", "start_s": 0.0, "end_s": 1.0,
            "transcript": "ej", "speaker": "", "tier": "ref",
        }) + "\n", encoding="utf-8")
        assert read_manifest(path)[0].speaker == "ref"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_manifest(path) == []


class TestCleaning:
    def test_self_correction(self):
        text, reason = clean_transcript("I dī poʔto (kuzab-) kuzazi mobi.")
        assert reason is None
        assert text == "I dī poʔto kuzab kuzazi mobi."

    @pytest.mark.parametrize("value,expected_reason", [
        ("...", "punctuation-only"),
        ("3 poʔto", "contains-digit"),
        ("он пошёл", "contains-cyrillic"),
        ("", "empty"),
        ("   ", "empty"),
        ("ej ((xxx)) ku?pi", "unclear-marker"),
    ])
    def test_rejections(self, value, expected_reason):
        text, reason = clean_transcript(value)
        assert text is None
        assert reason == expected_reason

    def test_invisible_spaces_normalized(self):
        text, reason = clean_transcript("ej ku?pi​ber go")
        assert reason is None
        assert text == "ej ku?pi ber go"

    def test_event_token_stripped_text_kept(self):
        text, reason = clean_transcript("ej ((COUGH)) ku?pi")
        assert (text, reason) == ("ej ku?pi", None)

    def test_event_only_annotation_becomes_empty(self):
        text, reason = clean_transcript("((LAUGH))")
        assert (text, reason) == (None, "empty")

    def test_whitespace_collapsed(self):
        text, reason = clean_transcript("  ej   ku?pi ")
        assert (text, reason) == ("ej ku?pi", None)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    def test_clean_is_idempotent_on_accepted_text(self, value):
        text, reason = clean_transcript(value)
        if reason is None:
            again, reason2 = clean_transcript(text)
            assert reason2 is None
            assert again == text


class TestDurationFilter:
    @pytest.mark.parametrize("duration,expected", [
        (10.5, "too-long"),
        (0.3, "too-short"),
        (0.400, None),
        (10.000, None),
        (0.399, "too-short"),
        (10.001, "too-long"),
        (2.5 - 2.1, None),  # float noise around 0.400 must not reject
        (1e306, "too-long"),  # its milliseconds overflow a float
        (-1e306, "too-short"),
    ])
    def test_bounds(self, duration, expected):
        assert filter_duration(duration) == expected


class TestBuildCorpus:
    def annotations(self):
        return [
            UtteranceRecord("u1", "a.wav", 0.0, 1.0, "ej ku?pi", "KP"),
            UtteranceRecord("u2", "a.wav", 1.0, 1.2, "ej", "KP"),
            UtteranceRecord("u3", "a.wav", 2.0, 3.0, "...", "KP"),
        ]

    def test_counts_balance(self):
        records, rejections = build_corpus(self.annotations())
        assert len(records) == 1
        assert len(records) + len(rejections) == 3
        assert {r["reason"] for r in rejections} == {"too-short", "punctuation-only"}

    def test_duplicate_ids_rejected(self):
        anns = self.annotations()
        anns[1].id = "u1"
        with pytest.raises(DataError, match="duplicate"):
            build_corpus(anns)

    def test_kept_records_pass_filters_again(self):
        records, _ = build_corpus(self.annotations())
        for record in records:
            text, reason = clean_transcript(record.transcript)
            assert reason is None and text == record.transcript
            assert filter_duration(record.duration) is None


class TestGoldenCorpus:
    def test_expected_manifest_and_drop_counts(self, golden_corpus):
        records, rejections, sample_rate = prepare_corpus_dir(golden_corpus)
        got = [(r.id, r.start_s, r.end_s, r.transcript) for r in records]
        assert got == EXPECTED_KEPT
        assert Counter(r["reason"] for r in rejections) == EXPECTED_DROPS
        assert len(records) + len(rejections) == 11
        assert len(records) == 4
        assert sample_rate == 16000
        assert all(r.speaker == "KP" for r in records)
        reasons = {r["id"]: r["reason"] for r in rejections}
        assert reasons["session_a1"] == "too-long"
        assert reasons["session_a7"] == "unclear-marker"

    def test_stats_table_lists_every_reason(self, golden_corpus):
        records, rejections, _ = prepare_corpus_dir(golden_corpus)
        table = stats_table(records, rejections)
        for reason in EXPECTED_DROPS:
            assert reason in table
        assert "kept" in table and "total" in table


class TestManifestRoundTrip:
    def test_byte_identical(self, golden_corpus, tmp_path):
        records, _, _ = prepare_corpus_dir(golden_corpus)
        first = tmp_path / "manifest.jsonl"
        write_manifest(records, first)
        records = read_manifest(first)
        second = tmp_path / "again.jsonl"
        write_manifest(records, second)
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_line_is_one_json_object(self, golden_corpus):
        records, _, _ = prepare_corpus_dir(golden_corpus)
        row = json.loads(manifest_line(records[0]))
        assert row["id"] == "session_a8"
        assert row["duration_s"] == pytest.approx(1.0)


def test_prepare_rejects_mismatched_sample_rate(tmp_path, golden_corpus):
    import shutil

    import numpy as np

    from tinyasr.audio import AudioBuffer, write_wav

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(golden_corpus / "session.eaf", corpus / "session.eaf")
    write_wav(corpus / "session.wav",
              AudioBuffer(np.zeros(8000 * 26), 8000))
    # same duration in seconds, wrong rate vs a second file
    (corpus / "extra.jsonl").write_text(json.dumps({
        "id": "x1", "audio": "other.wav", "start_s": 0.0, "end_s": 0.5,
        "transcript": "ej", "speaker": "KP"}) + "\n", encoding="utf-8")
    write_wav(corpus / "other.wav", AudioBuffer(np.zeros(16000), 16000))
    with pytest.raises(DataError, match="sample rate"):
        prepare_corpus_dir(corpus)
