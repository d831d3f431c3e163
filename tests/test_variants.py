import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_ALIGNMENTS
from tinyasr.corpus import prepare_corpus_dir
from tinyasr.errors import ConfigError, DataError
from tinyasr.variants import (
    BLANK,
    G2PRuleSet,
    LabelVocabulary,
    WordAlignment,
    VARIANTS,
    build_vocabulary,
    corpus_units,
    graphemes,
    load_alignments,
    pause_boundaries,
    strip_spaces,
    variant_units,
)


class TestStripSpaces:
    def test_example_sentence(self):
        assert strip_spaces("ej ku?pi") == "ejku?pi"

    def test_no_spaces_unchanged(self):
        assert strip_spaces("abc") == "abc"

    def test_only_space(self):
        assert strip_spaces(" ") == ""

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=30))
    def test_idempotent(self, text):
        once = strip_spaces(text)
        assert strip_spaces(once) == once


class TestGraphemes:
    def test_combining_mark_attaches(self):
        # U+0294 + U+0301 has no precomposed form; must stay one cluster
        assert graphemes("aʔ́b") == ["a", "ʔ́", "b"]

    def test_nfc_applied_first(self):
        # decomposed i + macron recomposes to a single cluster
        assert graphemes("ī") == ["ī"]


class TestVocabulary:
    def test_blank_reserved_at_zero(self):
        vocab = build_vocabulary([["a", "b"], ["b", " "]])
        assert vocab.labels[0] == BLANK
        assert vocab.size == 4

    def test_encode_decode_round_trip(self):
        vocab = build_vocabulary([list("ab "), ])
        indices = vocab.encode(graphemes("ab a"), "u1")
        assert vocab.decode(indices) == "ab a"

    def test_oov_names_unit_and_utterance(self):
        vocab = build_vocabulary([list("ab ")])
        with pytest.raises(DataError, match=r"u7.*'x'"):
            vocab.encode(graphemes("ab x"), "u7")

    def test_empty_transcript_empty_sequence(self):
        vocab = build_vocabulary([list("ab")])
        assert vocab.encode(graphemes("")) == []

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            LabelVocabulary(labels=(BLANK, "a", "a"))

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="ab c", max_size=20))
    def test_round_trip_property(self, text):
        vocab = build_vocabulary([list("abc "), ])
        indices = vocab.encode(graphemes(text), "u")
        assert vocab.decode(indices) == text


class TestG2P:
    def test_longest_match_long_vowel_atomic(self):
        rules = G2PRuleSet([("ī", "iː"), ("m", "m")])
        assert rules.apply("mī") == ["m", "iː"]

    def test_repeated_single_rule(self):
        rules = G2PRuleSet([("a", "a")])
        assert rules.apply("aaa") == ["a", "a", "a"]

    def test_uncovered_character_reports_position(self):
        rules = G2PRuleSet([("a", "a")])
        with pytest.raises(DataError, match="position 1"):
            rules.apply("ab")

    def test_empty_source_rejected(self):
        with pytest.raises(ConfigError):
            G2PRuleSet([("", "x")])

    @pytest.mark.parametrize("target", ["", "<blank>"])
    def test_target_that_is_no_label_rejected(self, target):
        with pytest.raises(ConfigError, match="no label"):
            G2PRuleSet([("a", target)])

    def test_from_tsv(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# comment\nī\tiː\nm\tm\n \t \n", encoding="utf-8")
        rules = G2PRuleSet.from_tsv(path)
        assert rules.apply("mī m") == ["m", "iː", " ", "m"]

    def test_file_order_breaks_ties(self):
        rules = G2PRuleSet([("a", "x"), ("ab", "Y"), ("a", "z")])
        assert rules.apply("aab") == ["x", "Y"]

    def test_from_tsv_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_bytes(b"a\ta\n\xff\tb\n")
        with pytest.raises(DataError, match="rules.tsv line 2"):
            G2PRuleSet.from_tsv(path)

    def test_output_never_longer_than_input(self):
        rules = G2PRuleSet([("ab", "X"), ("a", "a"), ("b", "b"), ("c", "c")])
        for text in ("abc", "aabbcc", "ababab", "c"):
            assert len(rules.apply(text)) <= len(text)

    def test_apply_g2p_encodes_against_vocabulary(self):
        rules = G2PRuleSet([("ī", "iː"), ("m", "m")])
        vocab = build_vocabulary([["m", "iː"]])
        indices = vocab.encode(rules.apply("mī", "u1"), "u1")
        assert [vocab.labels[i] for i in indices] == ["m", "iː"]
        # the utterance id travels with the labels into every error
        with pytest.raises(DataError, match="u1"):
            vocab.encode(rules.apply("mī", "u1") + ["x"], "u1")


class TestPauseBoundaries:
    def align(self, spans, utt="u1"):
        return WordAlignment(utt, spans)

    def test_gap_at_threshold_keeps_space(self):
        alignment = self.align([("w1", 0.5, 1.0), ("w2", 1.2, 1.5)])
        assert pause_boundaries(["w1", "w2"], alignment, 0.15) == "w1 w2"

    def test_small_gap_joins(self):
        alignment = self.align([("w1", 0.5, 1.0), ("w2", 1.05, 1.5)])
        assert pause_boundaries(["w1", "w2"], alignment, 0.15) == "w1w2"

    def test_single_word_unchanged(self):
        alignment = self.align([("w1", 0.5, 1.0)])
        assert pause_boundaries(["w1"], alignment, 0.15) == "w1"

    def test_word_count_mismatch(self):
        alignment = self.align([("w1", 0.5, 1.0)])
        with pytest.raises(DataError, match="1 aligned"):
            pause_boundaries(["w1", "w2"], alignment, 0.15)

    def test_surface_mismatch(self):
        alignment = self.align([("w1", 0.5, 1.0), ("zz", 1.2, 1.5)])
        with pytest.raises(DataError, match="zz"):
            pause_boundaries(["w1", "w2"], alignment, 0.15)

    def test_overlapping_words_rejected(self):
        with pytest.raises(DataError, match="overlap"):
            self.align([("w1", 0.5, 1.0), ("w2", 0.9, 1.5)])

    @pytest.mark.parametrize("line", [
        b"5",
        b'{"id": "u1", "words": [{"start_s": 0.0, "end_s": 1.0}]}',
        b'{"id": "u1", "words": 3}',
        b'{"id": "u1", "words": [{"w": "a", "start_s": "x", "end_s": 1.0}]}',
        b"\xff\xfe",
        b'{"id": "u1", "words": [{"w": "a", "start_s": NaN, "end_s": 1.0}]}',
        b'{"id": "u1", "words": [{"w": "a", "start_s": 0.0, "end_s": 1' + b"0" * 400 + b"}]}",
    ], ids=["not-an-object", "word-without-w", "words-not-a-list", "time-not-a-number",
            "not-utf8", "time-nan", "time-too-large"])
    def test_malformed_alignment_line_names_line(self, tmp_path, line):
        path = tmp_path / "words.jsonl"
        path.write_bytes(b'{"id": "u0", "words": []}\n' + line + b"\n")
        with pytest.raises(DataError, match="words.jsonl line 2"):
            load_alignments(path)

    def test_threshold_zero_equals_with_spaces(self, golden_corpus):
        records, _, _ = prepare_corpus_dir(golden_corpus)
        alignments = load_alignments(golden_corpus / "words.jsonl")
        for record in records:
            words = record.transcript.split(" ")
            assert pause_boundaries(words, alignments[record.id], 0.0) == record.transcript

    def test_huge_threshold_equals_no_spaces(self, golden_corpus):
        records, _, _ = prepare_corpus_dir(golden_corpus)
        alignments = load_alignments(golden_corpus / "words.jsonl")
        for record in records:
            words = record.transcript.split(" ")
            joined = pause_boundaries(words, alignments[record.id], float("inf"))
            assert joined == strip_spaces(record.transcript)

    def test_default_threshold_on_fixture_sentence(self):
        # only the 0.25 s pause before the third word survives at 0.15 s
        words = ["I", "dī", "poʔto", "kuzab", "kuzazi", "mobi."]
        alignment = self.align(FIXTURE_ALIGNMENTS["session_a10"], "session_a10")
        out = pause_boundaries(words, alignment, 0.15)
        assert out == "Idī poʔtokuzabkuzazimobi."


class TestVariantUnits:
    def record(self):
        from tinyasr.corpus import UtteranceRecord

        return UtteranceRecord(id="session_a10", audio="a.wav", start_s=22.5,
                               end_s=24.0,
                               transcript="I dī poʔto kuzab kuzazi mobi.",
                               speaker="KP")

    def test_orig_with_spaces_has_space_units(self):
        units = variant_units(self.record(), "orig-with-spaces")
        assert " " in units
        assert "".join(units) == self.record().transcript

    def test_orig_no_spaces(self):
        units = variant_units(self.record(), "orig-no-spaces")
        assert " " not in units

    def test_ipa_variant_uses_rules(self, golden_corpus):
        rules = G2PRuleSet.from_tsv(golden_corpus / "g2p.tsv")
        units = variant_units(self.record(), "ipa-no-spaces", g2p=rules)
        assert "iː" in units  # the long vowel is one atomic label
        assert " " not in units

    def test_pause_variant_needs_alignment(self):
        rules = G2PRuleSet([("a", "a")])
        with pytest.raises(DataError, match="alignment"):
            variant_units(self.record(), "ipa-pause-boundaries", g2p=rules,
                          alignments={})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown transcript variant"):
            variant_units(self.record(), "phoneme-soup")

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_corpus_units_load_only_the_rule_files_the_variant_reads(
            self, golden_corpus, tmp_path, variant):
        # a rule file the variant does not read may be anything
        read = {"g2p_rules": golden_corpus / "g2p.tsv",
                "alignments": golden_corpus / "words.jsonl"}
        paths = {key: read[key] if key in VARIANTS[variant] else tmp_path / "absent"
                 for key in read}
        units = corpus_units([self.record()], variant, paths, 0.15)
        assert units == {"session_a10": variant_units(
            self.record(), variant, G2PRuleSet.from_tsv(read["g2p_rules"]),
            load_alignments(read["alignments"]), 0.15)}
