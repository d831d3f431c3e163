import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyasr.errors import DataError
from tinyasr.evaluation import (
    align_and_count_confusions,
    build_report,
    confusion_report,
    corpus_ler,
    edit_distance,
    report_from_json,
    report_to_json,
)


def dp_oracle(ref, hyp):
    """Full-matrix textbook Levenshtein recurrence."""
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


seq = st.lists(st.sampled_from("abc"), max_size=8)


class TestEditDistance:
    @pytest.mark.parametrize("ref,hyp,expected", [
        ("abc", "abc", 0),
        ("abc", "", 3),
        ("", "abc", 3),
        ("kitten", "sitting", 3),
    ])
    def test_examples(self, ref, hyp, expected):
        assert edit_distance(ref, hyp) == expected
        assert dp_oracle(ref, hyp) == expected

    def test_exhaustive_up_to_length_4(self):
        seqs = [p for L in range(5) for p in itertools.product("abc", repeat=L)]
        for ref in seqs:
            for hyp in seqs:
                assert edit_distance(ref, hyp) == dp_oracle(ref, hyp)

    @settings(max_examples=300, deadline=None)
    @given(seq, seq, seq)
    def test_metric_axioms(self, a, b, c):
        assert edit_distance(a, a) == 0
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
        if a != b:
            assert edit_distance(a, b) > 0


class TestCorpusLer:
    def test_micro_average(self):
        pairs = [(list("aaaa"), list("aaab")), (list("bbbbbb"), list("bbbbcc"))]
        assert corpus_ler(pairs) == pytest.approx(0.3)

    def test_perfect_hypotheses(self):
        assert corpus_ler([(list("ab"), list("ab"))]) == 0.0

    def test_all_empty_hypotheses(self):
        assert corpus_ler([(list("abc"), []), (list("a"), [])]) == 1.0

    def test_empty_reference_names_utterance(self):
        with pytest.raises(DataError, match="u2"):
            corpus_ler([(list("ab"), list("ab")), ([], list("a"))], ids=["u1", "u2"])

    def test_micro_equals_concatenated_single_pair(self):
        pairs = [(list("abca"), list("abcb")), (list("cab"), list("ab"))]
        joined = [(pairs[0][0] + pairs[1][0], pairs[0][1] + pairs[1][1])]
        # weighting consistency of the micro average: same totals either way
        total = sum(edit_distance(r, h) for r, h in pairs)
        length = sum(len(r) for r, _ in pairs)
        assert corpus_ler(pairs) == pytest.approx(total / length)
        assert corpus_ler(joined) <= corpus_ler(pairs)


class TestConfusions:
    def test_equal_sequences_only_matches(self):
        counts = align_and_count_confusions("ab", "ab")
        assert counts == {("a", "a"): 1, ("b", "b"): 1}

    def test_single_substitution(self):
        counts = align_and_count_confusions("a", "b")
        assert counts == {("a", "b"): 1}

    def test_repeat_deletion_tie_rule(self):
        counts = align_and_count_confusions("aa", "a")
        assert counts == {("a", "a"): 1, ("a", None): 1}

    def test_insertion(self):
        counts = align_and_count_confusions("a", "ab")
        assert counts[(None, "b")] == 1

    @settings(max_examples=300, deadline=None)
    @given(seq, seq)
    def test_error_counts_sum_to_distance(self, ref, hyp):
        counts = align_and_count_confusions(ref, hyp)
        errors = sum(c for (r, h), c in counts.items() if r != h)
        assert errors == edit_distance(ref, hyp)
        matches = sum(c for (r, h), c in counts.items() if r == h)
        assert matches + sum(c for (r, h), c in counts.items()
                             if r is not None and h is not None and r != h) \
            + sum(c for (r, h), c in counts.items() if h is None) == len(ref)


class TestReport:
    def entries(self):
        return [
            ("u1", ("a", "b"), ("a", "b"), "ab"),
            ("u2", ("a", "b", "c"), ("a", "c"), "ac"),
            ("u3", ("b",), ("c",), "c"),
        ]

    def test_report_numbers(self):
        report = build_report(self.entries(), "greedy")
        assert report.ler == pytest.approx(2 / 6)
        assert report.ler_macro == pytest.approx((0 + 1 / 3 + 1) / 3)
        assert report.n_utterances == 3
        assert report.confusions[("b", None)] == 1
        assert report.confusions[("b", "c")] == 1

    def test_json_round_trip(self):
        report = build_report(self.entries(), "greedy")
        back = report_from_json(report_to_json(report), "report-test.json")
        assert back.ler == report.ler
        assert back.confusions == report.confusions
        assert back.decoder == "greedy"

    def test_confusion_report_orders_by_count(self):
        entries = [("u1", tuple("aaaaa"), tuple("bbbbb"), "bbbbb"),
                   ("u2", ("c",), ("d",), "d")]
        report = build_report(entries, "greedy")
        text = confusion_report(report, 2)
        lines = text.splitlines()
        assert "a : b  5" in lines[1]
        assert "c : d  1" in lines[2]

    def test_top_k_zero_header_only(self):
        report = build_report(self.entries(), "greedy")
        text = confusion_report(report, 0)
        assert text.startswith("top 0 confusion pairs")

    def test_empty_confusions_header_only(self):
        report = build_report([("u1", ("a",), ("a",), "a")], "greedy")
        text = confusion_report(report, 5)
        assert "deletions per label" in text
        assert " : " not in text.splitlines()[1] if len(text.splitlines()) > 1 else True
