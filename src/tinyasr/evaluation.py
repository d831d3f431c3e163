"""Label error rate and character-confusion analysis.

LER is micro-averaged: total edit distance over total reference length.
The macro (per-utterance mean) rate is reported alongside for comparison.
"""

import json
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError


def _align(ref, hyp):
    """Levenshtein distance (unit costs) and the label counts over one
    minimal-cost alignment.

    Keys are (ref_label, hyp_label) for substitutions and matches,
    (ref_label, None) for deletions, (None, hyp_label) for insertions.
    Traceback ties prefer substitution, then deletion, then insertion.
    """
    ref, hyp = list(ref), list(hyp)
    m, n = len(ref), len(hyp)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        dp[i][0] = i
    for j in range(1, n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            dp[i][j] = min(
                dp[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
            )

    counts = Counter()
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            counts[(ref[i - 1], hyp[j - 1])] += 1
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            counts[(ref[i - 1], None)] += 1
            i -= 1
        else:
            counts[(None, hyp[j - 1])] += 1
            j -= 1
    return dp[m][n], counts


def edit_distance(ref, hyp) -> int:
    """Levenshtein distance with unit substitution/insertion/deletion costs."""
    return _align(ref, hyp)[0]


def align_and_count_confusions(ref, hyp) -> Counter:
    """Counts over one minimal-cost alignment; see _align for the keys."""
    return _align(ref, hyp)[1]


def corpus_ler(pairs, ids=None) -> float:
    """Micro-averaged label error rate over (ref, hyp) sequence pairs."""
    if ids is None:
        ids = [f"#{index}" for index in range(len(pairs))]
    return build_report([(i, ref, hyp, None) for i, (ref, hyp) in zip(ids, pairs)],
                        "").ler


@dataclass
class EvaluationReport:
    ler: float
    ler_macro: float
    n_utterances: int
    decoder: str
    utterances: list = field(default_factory=list)  # {id, distance, ref_len, hyp}
    confusions: Counter = field(default_factory=Counter)


def build_report(entries, decoder: str) -> EvaluationReport:
    """Assemble a report from (utterance_id, ref_units, hyp_units, hyp_text)."""
    if not entries:
        raise DataError("cannot compute LER of an empty pair list")
    utterances = []
    confusions = Counter()
    total_distance = total_length = 0
    macro_sum = 0.0
    for utt_id, ref, hyp, hyp_text in entries:
        if len(ref) == 0:
            raise DataError(f"utterance {utt_id} has an empty reference")
        distance, counts = _align(ref, hyp)
        total_distance += distance
        total_length += len(ref)
        macro_sum += distance / len(ref)
        utterances.append(
            {"id": utt_id, "distance": distance, "ref_len": len(ref), "hyp": hyp_text}
        )
        confusions.update(counts)
    return EvaluationReport(
        ler=total_distance / total_length,
        ler_macro=macro_sum / len(entries),
        n_utterances=len(entries),
        decoder=decoder,
        utterances=utterances,
        confusions=confusions,
    )


def _confusion_sort_key(item):
    (ref, hyp), count = item
    return (-count, ref or "", hyp or "")


def report_to_json(report: EvaluationReport) -> str:
    payload = {
        "ler": report.ler,
        "ler_macro": report.ler_macro,
        "averaging": "micro (total distance / total reference length)",
        "n_utterances": report.n_utterances,
        "decoder": report.decoder,
        "pairs": report.utterances,
        "confusions": [
            {"ref": ref, "hyp": hyp, "count": count}
            for (ref, hyp), count in sorted(report.confusions.items(),
                                            key=_confusion_sort_key)
        ],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2)


def report_from_json(text: str | bytes) -> EvaluationReport:
    """Inverse of report_to_json; a garbled or incomplete report is a DataError."""
    try:
        payload = json.loads(text)
        confusions = Counter(
            {(c["ref"], c["hyp"]): c["count"] for c in payload["confusions"]}
        )
        return EvaluationReport(
            ler=payload["ler"],
            ler_macro=payload["ler_macro"],
            n_utterances=payload["n_utterances"],
            decoder=payload["decoder"],
            utterances=payload["pairs"],
            confusions=confusions,
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"unreadable evaluation report: {exc!r}") from exc


def confusion_report(report: EvaluationReport, top_k: int) -> str:
    """Human-readable table: most frequent substitution pairs plus
    per-label deletion and insertion totals."""
    def show(label):
        return "<space>" if label == " " else str(label)

    substitutions = [
        ((ref, hyp), count)
        for (ref, hyp), count in report.confusions.items()
        if ref is not None and hyp is not None and ref != hyp
    ]
    deletions = Counter()
    insertions = Counter()
    for (ref, hyp), count in report.confusions.items():
        if hyp is None:
            deletions[ref] += count
        elif ref is None:
            insertions[hyp] += count

    lines = [f"top {top_k} confusion pairs (reference : hypothesis)"]
    for (ref, hyp), count in sorted(substitutions, key=_confusion_sort_key)[:max(top_k, 0)]:
        lines.append(f"  {show(ref)} : {show(hyp)}  {count}")
    lines.append("deletions per label")
    for label, count in sorted(deletions.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {show(label)}  {count}")
    lines.append("insertions per label")
    for label, count in sorted(insertions.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {show(label)}  {count}")
    return "\n".join(lines) + "\n"
