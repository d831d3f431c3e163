"""Transcription variants and label encoding.

Four variants of each transcript feed the recognizer: the original text
with and without spaces, a rule-rewritten phonemic (IPA) version, and a
version keeping only word boundaries that fall on real pauses in a word
alignment.
"""

import unicodedata
from dataclasses import dataclass
from pathlib import Path

from .corpus import is_finite_number, read_json_lines, text_lines
from .errors import ConfigError, DataError

BLANK = "<blank>"
SPACE = " "

# each variant and the config keys of the rule files it reads, in load order
VARIANTS = {
    "orig-no-spaces": (),
    "orig-with-spaces": (),
    "ipa-no-spaces": ("g2p_rules",),
    "ipa-pause-boundaries": ("g2p_rules", "alignments"),
}

DEFAULT_PAUSE_GAP_S = 0.150


def graphemes(text: str) -> list:
    """Split NFC-normalized text into grapheme clusters.

    Combining marks attach to the preceding base character, so a diacritic
    that has no precomposed form still stays one label.
    """
    text = unicodedata.normalize("NFC", text)
    clusters = []
    for ch in text:
        if clusters and unicodedata.combining(ch):
            clusters[-1] += ch
        else:
            clusters.append(ch)
    return clusters


def strip_spaces(transcript: str) -> str:
    return transcript.replace(" ", "")


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered label inventory. Index 0 is always the CTC blank."""

    labels: tuple

    def __post_init__(self):
        if not all(isinstance(label, str) for label in self.labels):
            raise ConfigError("vocabulary labels must be strings")
        if not self.labels or self.labels[0] != BLANK:
            raise ConfigError("vocabulary must reserve index 0 for the blank label")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("vocabulary labels must be unique")

    @property
    def size(self) -> int:
        """Total label count including the blank."""
        return len(self.labels)

    @property
    def index_of(self):
        return {label: i for i, label in enumerate(self.labels)}

    def encode(self, units, utterance_id="<unknown>"):
        index = self.index_of
        out = []
        for unit in units:
            if unit == BLANK or unit not in index:
                raise DataError(
                    f"utterance '{utterance_id}': unit {unit!r} is not in the vocabulary"
                )
            out.append(index[unit])
        return out

    def decode(self, indices) -> str:
        for i in indices:
            if not 0 < i < len(self.labels):
                raise DataError(f"label index {i} outside vocabulary")
        return "".join(self.labels[i] for i in indices)


def build_vocabulary(unit_lists) -> LabelVocabulary:
    """Vocabulary over every unit that occurs, sorted for determinism."""
    units = sorted({u for units in unit_lists for u in units})
    return LabelVocabulary(labels=(BLANK, *units))


def _rule_defect(source, target):
    """Why a rewrite rule cannot work, or None: each rule consumes some
    text and emits one printable label that is not the blank."""
    if not source:
        return "rewrite rule with empty source"
    if not target or target == BLANK:
        return f"rewrite rule target {target!r} is no label"
    return None


class G2PRuleSet:
    """Ordered grapheme-to-phoneme rewrite rules.

    Rules apply left to right with longest-source-first matching; each
    target string is emitted as one atomic label. A character passes
    through unchanged only by an identity rule (x<TAB>x).
    """

    def __init__(self, rules):
        for source, target in rules:
            defect = _rule_defect(source, target)
            if defect:
                raise ConfigError(defect)
        # Longest source first; the sort is stable, so file order breaks
        # ties between equal lengths.
        self.rules = sorted(rules, key=lambda rule: -len(rule[0]))

    @classmethod
    def from_tsv(cls, path):
        """Rules from a TSV file; a line that holds no usable rule is a
        DataError naming the file and the line."""
        rules = []
        for lineno, line in text_lines(path):
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            defect = ("expected 'source<TAB>target'" if len(parts) != 2
                      else _rule_defect(*parts))
            if defect:
                raise DataError(f"{Path(path).name} line {lineno}: {defect}")
            rules.append((unicodedata.normalize("NFC", parts[0]), parts[1]))
        return cls(rules)

    def apply(self, transcript: str, utterance_id="<unknown>") -> list:
        text = unicodedata.normalize("NFC", transcript)
        labels = []
        pos = 0
        while pos < len(text):
            for source, target in self.rules:
                if text.startswith(source, pos):
                    labels.append(target)
                    pos += len(source)
                    break
            else:
                raise DataError(
                    f"utterance '{utterance_id}': no rule covers {text[pos]!r} "
                    f"at position {pos}"
                )
        return labels


@dataclass
class WordAlignment:
    """Word-level time alignment of one utterance."""

    utterance_id: str
    words: list  # (surface, start_s, end_s) tuples in time order

    def __post_init__(self):
        prev_end = None
        for surface, start_s, end_s in self.words:
            if end_s <= start_s:
                raise DataError(
                    f"alignment for '{self.utterance_id}': word {surface!r} "
                    f"has non-positive duration"
                )
            if prev_end is not None and start_s < prev_end - 1e-9:
                raise DataError(
                    f"alignment for '{self.utterance_id}': words overlap at {surface!r}"
                )
            prev_end = end_s


def load_alignments(path) -> dict:
    """Load per-utterance word alignments from JSON-lines."""
    name = Path(path).name
    alignments = {}
    for lineno, row in read_json_lines(path):
        if not isinstance(row.get("id"), str) or not isinstance(row.get("words"), list):
            raise DataError(f"{name} line {lineno}: expected an id string and a words list")
        try:
            words = [(w["w"], w["start_s"], w["end_s"]) for w in row["words"]]
        except (KeyError, TypeError) as exc:
            raise DataError(f"{name} line {lineno}: each word needs w, start_s and end_s") from exc
        if not all(is_finite_number(t) for word in words for t in word[1:]):
            raise DataError(f"{name} line {lineno}: word times must be finite numbers")
        alignments[row["id"]] = WordAlignment(
            row["id"], [(surface, float(start), float(end)) for surface, start, end in words])
    return alignments


def pause_boundaries(transcript_words, alignment: WordAlignment,
                     gap_threshold: float) -> str:
    """Join words, keeping a space only where the aligned inter-word gap
    is at least gap_threshold seconds."""
    aligned = alignment.words
    if len(transcript_words) != len(aligned):
        raise DataError(
            f"alignment for '{alignment.utterance_id}': {len(aligned)} aligned words "
            f"vs {len(transcript_words)} transcript words"
        )
    for word, (surface, _, _) in zip(transcript_words, aligned):
        if word != surface:
            raise DataError(
                f"alignment for '{alignment.utterance_id}': transcript word {word!r} "
                f"does not match aligned word {surface!r}"
            )
    if not transcript_words:
        return ""
    pieces = [transcript_words[0]]
    for i in range(1, len(transcript_words)):
        gap = aligned[i][1] - aligned[i - 1][2]
        pieces.append(SPACE if gap >= gap_threshold else "")
        pieces.append(transcript_words[i])
    return "".join(pieces)


def variant_units(record, variant, g2p=None, alignments=None,
                  gap_threshold=DEFAULT_PAUSE_GAP_S) -> list:
    """Turn a record's transcript into label units for the given variant."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown transcript variant '{variant}'")
    text = record.transcript
    if variant == "orig-with-spaces":
        return graphemes(text)
    if variant == "orig-no-spaces":
        return graphemes(strip_spaces(text))
    if g2p is None:
        raise ConfigError(f"variant '{variant}' requires a G2P rule set")
    if variant == "ipa-no-spaces":
        return g2p.apply(strip_spaces(text), record.id)
    if alignments is None or record.id not in alignments:
        raise DataError(f"no word alignment for utterance '{record.id}'")
    text = pause_boundaries(text.split(SPACE), alignments[record.id], gap_threshold)
    return g2p.apply(text, record.id)


def corpus_units(records, variant, paths, gap_threshold) -> dict:
    """Each record's label units under the variant; a record that gets no
    labels is a DataError naming it, as no LER can score it. paths maps
    config keys to rule files; only those the variant reads are loaded."""
    loaders = {"g2p_rules": G2PRuleSet.from_tsv, "alignments": load_alignments}
    rules = {key: loaders[key](paths[key]) for key in VARIANTS[variant]}
    units = {}
    for record in records:
        units[record.id] = variant_units(record, variant, rules.get("g2p_rules"),
                                         rules.get("alignments"), gap_threshold)
        if not units[record.id]:
            raise DataError(f"utterance '{record.id}' has no labels under variant '{variant}'")
    return units
