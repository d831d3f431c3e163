"""Corpus ingestion: annotation parsing, transcript cleaning, duration
filtering, and the validated corpus manifest.

Cleaning accepts or rejects whole annotations. A rejection carries exactly
one reason code; accepted text comes back normalized (NFC, invisible spaces
mapped to ASCII space, event tokens stripped, self-correction markup
removed, whitespace collapsed).
"""

import json
import math
import re
import unicodedata
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from .audio import wav_info
from .errors import DataError

REASON_EMPTY = "empty"
REASON_PUNCT = "punctuation-only"
REASON_DIGIT = "contains-digit"
REASON_CYRILLIC = "contains-cyrillic"
REASON_UNCLEAR = "unclear-marker"
REASON_TOO_SHORT = "too-short"
REASON_TOO_LONG = "too-long"

REJECTION_REASONS = (
    REASON_EMPTY,
    REASON_PUNCT,
    REASON_DIGIT,
    REASON_CYRILLIC,
    REASON_UNCLEAR,
    REASON_TOO_SHORT,
    REASON_TOO_LONG,
)

# Annotation times are declared at millisecond precision; durations are
# rounded to whole ms before the bounds comparison so that e.g. 2.5 - 2.1
# does not fall below 0.4 through float subtraction.
_MIN_DURATION_MS = 400
_MAX_DURATION_MS = 10000

_MANIFEST_KEYS = ("id", "audio", "start_s", "end_s", "transcript", "speaker")
# the keys whose values must be JSON strings; tier only where present
_MANIFEST_TEXT_KEYS = ("id", "audio", "transcript", "speaker", "tier")

# Characters normalized to ASCII space.
INVISIBLE_SPACES = ("\u00a0", "\u200b", "\u202f")
# Non-verbal markers: ((TOKEN)) is stripped and the text around it kept.
# Any other remaining ((...)) rejects the annotation as unclear.
EVENT_TOKENS = ("COUGH", "LAUGH", "BREATH", "NOISE")

_EVENT = re.compile(r"\(\(\s*(?:%s)\s*\)\)" % "|".join(map(re.escape, EVENT_TOKENS)))
_SELF_CORRECTION = re.compile(r"\(([^()\s]+)-\)")
_WHITESPACE = re.compile(r"\s+")


@dataclass
class UtteranceRecord:
    """One time-aligned utterance. Parsers return the raw transcript;
    build_corpus keeps the cleaned, duration-filtered ones."""

    id: str
    audio: str
    start_s: float
    end_s: float
    transcript: str
    speaker: str

    @property
    def duration(self) -> float:
        return self.end_s - self.start_s


def _is_cyrillic(ch: str) -> bool:
    return 0x0400 <= ord(ch) <= 0x052F


def clean_transcript(value: str):
    """Clean one annotation value.

    Returns (cleaned_text, None) on acceptance or (None, reason) on
    rejection. Cleaning is idempotent on accepted text.
    """
    text = unicodedata.normalize("NFC", value)
    for ch in INVISIBLE_SPACES:
        text = text.replace(ch, " ")
    text = _EVENT.sub(" ", text)
    if "((" in text or "))" in text:
        return None, REASON_UNCLEAR

    # Self-corrections like "(word-)" keep the word, lose hyphen and parens.
    # Applied to a fixed point so the result never contains another match.
    while True:
        text, n = _SELF_CORRECTION.subn(r"\1", text)
        if n == 0:
            break

    if any(unicodedata.category(ch) == "Nd" for ch in text):
        return None, REASON_DIGIT
    if any(_is_cyrillic(ch) for ch in text):
        return None, REASON_CYRILLIC

    text = _WHITESPACE.sub(" ", text).strip()
    if not text:
        return None, REASON_EMPTY
    if all(unicodedata.category(ch).startswith("P") or ch.isspace() for ch in text):
        return None, REASON_PUNCT
    return text, None


def filter_duration(duration_s: float):
    """Return a rejection reason for out-of-bounds durations, else None.

    Bounds are inclusive: exactly 0.400 s and exactly 10.000 s are kept.
    A duration whose millisecond count overflows a float is out of bounds.
    """
    duration_ms = duration_s * 1000
    if math.isfinite(duration_ms):
        duration_ms = round(duration_ms)
    if duration_ms < _MIN_DURATION_MS:
        return REASON_TOO_SHORT
    if duration_ms > _MAX_DURATION_MS:
        return REASON_TOO_LONG
    return None


def parse_eaf_subset(path, tier=None) -> list:
    """Parse the supported ELAN-EAF subset into uncleaned records.

    Reads TIME_ORDER/TIME_SLOT (TIME_VALUE in ms) and every
    ALIGNABLE_ANNOTATION of every TIER, or of the named tier only. Record
    ids are prefixed with the file stem, and the audio is the same-stem
    WAV. An annotation without an id is numbered by its position among all
    annotations of the file.
    """
    path = Path(path)
    try:
        tree = ET.parse(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ET.ParseError as exc:
        raise DataError(f"{path.name}: malformed XML ({exc})") from exc
    root = tree.getroot()

    slots = {}
    for slot in root.iter("TIME_SLOT"):
        slot_id = slot.get("TIME_SLOT_ID")
        value = slot.get("TIME_VALUE")
        if slot_id is not None and value is not None:
            try:
                slots[slot_id] = int(value) / 1000.0
            except ValueError as exc:
                raise DataError(
                    f"{path.name}: time slot '{slot_id}' has a TIME_VALUE {value!r} "
                    f"that is not whole milliseconds"
                ) from exc
            except OverflowError as exc:
                raise DataError(f"{path.name}: time slot '{slot_id}' has a TIME_VALUE "
                                "too large for a float") from exc

    def resolve(ref, ann_id):
        if ref not in slots:
            raise DataError(
                f"{path.name}: annotation '{ann_id}' references "
                f"unknown time slot '{ref}'"
            )
        return slots[ref]

    records = []
    count = 0
    for tier_el in root.iter("TIER"):
        tier_id = tier_el.get("TIER_ID", "")
        speaker = tier_el.get("PARTICIPANT") or tier_id
        for ann in tier_el.iter("ALIGNABLE_ANNOTATION"):
            count += 1
            ann_id = ann.get("ANNOTATION_ID", f"a{count}")
            start_s = resolve(ann.get("TIME_SLOT_REF1"), ann_id)
            end_s = resolve(ann.get("TIME_SLOT_REF2"), ann_id)
            if tier is not None and tier_id != tier:
                continue
            value_el = ann.find("ANNOTATION_VALUE")
            value = value_el.text if value_el is not None and value_el.text else ""
            records.append(UtteranceRecord(
                id=f"{path.stem}_{ann_id}",
                audio=path.with_suffix(".wav").name,
                start_s=start_s,
                end_s=end_s,
                transcript=value,
                speaker=speaker,
            ))
    return records


def text_lines(path):
    """Yield (line number, line) of a UTF-8 text file, line endings
    stripped. An unreadable file or a line that is not UTF-8 is a
    DataError naming it."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path.name} line {lineno}: not UTF-8 text") from exc


def is_finite_number(value) -> bool:
    """Whether a JSON value is a number that converts to a finite float.
    A boolean is no number; an integer too large for a float is not
    finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def read_json_lines(path):
    """Yield (line number, object) for each non-blank line of a JSON-lines
    file. Invalid JSON or a line that is not an object is a DataError
    naming the file and the line."""
    name = Path(path).name
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"{name} line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise DataError(f"{name} line {lineno}: expected a JSON object")
        yield lineno, row


def build_corpus(records):
    """Apply cleaning and duration rules to uncleaned records.

    Returns (kept, rejections); rejections are {id, reason} dicts, and
    each input record is in exactly one of the two.
    """
    kept, rejections = [], []
    seen_ids = set()
    for record in records:
        if record.id in seen_ids:
            raise DataError(f"duplicate utterance id '{record.id}'")
        seen_ids.add(record.id)

        cleaned, reason = clean_transcript(record.transcript)
        if reason is None:
            reason = filter_duration(record.end_s - record.start_s)
        if reason is not None:
            rejections.append({"id": record.id, "reason": reason})
            continue
        kept.append(replace(record, transcript=cleaned))
    return kept, rejections


def prepare_corpus_dir(corpus_dir, tier=None):
    """Ingest a corpus directory of EAF files (with same-stem WAVs) and/or
    JSON-lines manifests, returning (records, rejections, sample_rate).

    All audio must share one sample rate; spans must lie inside their file.
    Record audio paths are stored relative to corpus_dir.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise DataError(f"corpus directory not found: {corpus_dir}")

    annotations = []
    for eaf_path in sorted(corpus_dir.glob("*.eaf")):
        wav_path = eaf_path.with_suffix(".wav")
        if not wav_path.exists():
            raise DataError(f"no audio file for {eaf_path.name} (expected {wav_path.name})")
        annotations.extend(parse_eaf_subset(eaf_path, tier))
    for jsonl_path in sorted(corpus_dir.glob("*.jsonl")):
        if jsonl_path.name == "words.jsonl":  # word alignments, not a manifest
            continue
        annotations.extend(read_manifest(jsonl_path))
    if not annotations:
        raise DataError(f"no annotations found under {corpus_dir}")

    records, rejections = build_corpus(annotations)

    sample_rate = None
    durations = {}
    for record in records:
        audio_path = corpus_dir / record.audio
        if record.audio not in durations:
            if not audio_path.exists():
                raise DataError(f"audio file not found: {audio_path}")
            rate, n_samples = wav_info(audio_path)
            if sample_rate is None:
                sample_rate = rate
            elif rate != sample_rate:
                raise DataError(
                    f"{audio_path.name}: sample rate {rate} differs from {sample_rate}"
                )
            durations[record.audio] = n_samples / rate
        if record.start_s < 0 or record.end_s > durations[record.audio] + 1e-9:
            raise DataError(
                f"utterance '{record.id}' span [{record.start_s}, {record.end_s}] "
                f"lies outside {record.audio} ({durations[record.audio]:.3f} s)"
            )
    if sample_rate is None:
        raise DataError(f"no utterances kept from {corpus_dir}")

    return records, rejections, sample_rate


def manifest_line(record: UtteranceRecord) -> str:
    row = {
        "id": record.id,
        "audio": record.audio,
        "start_s": record.start_s,
        "end_s": record.end_s,
        "duration_s": record.end_s - record.start_s,
        "transcript": record.transcript,
        "speaker": record.speaker,
    }
    return json.dumps(row, ensure_ascii=False)


def write_manifest(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(manifest_line(record) + "\n")


def read_manifest(path) -> list:
    """Read a JSON-lines manifest into UtteranceRecords, preserving order.
    An empty speaker falls back to the line's tier, if it has one. An id
    given twice is a DataError naming both lines."""
    name = Path(path).name
    records, first_line = [], {}
    for lineno, row in read_json_lines(path):
        for key in _MANIFEST_KEYS:
            if key not in row:
                raise DataError(f"{name} line {lineno}: missing key '{key}'")
        for key in _MANIFEST_TEXT_KEYS:
            if not isinstance(row.get(key, ""), str):
                raise DataError(f"{name} line {lineno}: key '{key}' must be a JSON string")
        if row["id"] == "":
            raise DataError(f"{name} line {lineno}: empty utterance id")
        utt_id = row["id"]
        if first_line.setdefault(utt_id, lineno) != lineno:
            raise DataError(f"{name} line {lineno}: duplicate utterance id '{utt_id}' "
                            f"(first on line {first_line[utt_id]})")
        start_s, end_s = row["start_s"], row["end_s"]
        if not (is_finite_number(start_s) and is_finite_number(end_s)):
            raise DataError(f"{name} line {lineno}: start_s/end_s must be finite numbers")
        if start_s >= end_s:
            raise DataError(
                f"{name} line {lineno}: start_s {start_s} is not before end_s {end_s}"
            )
        if not math.isfinite(float(end_s) - float(start_s)):
            raise DataError(f"{name} line {lineno}: the span from start_s to end_s "
                            "is too long to be a finite number of seconds")
        records.append(UtteranceRecord(
            id=utt_id,
            audio=row["audio"],
            start_s=float(start_s),
            end_s=float(end_s),
            transcript=row["transcript"],
            speaker=row["speaker"] or row.get("tier", ""),
        ))
    return records


def write_rejections(rejections, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in rejections:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")


def stats_table(kept, rejections) -> str:
    """Render the kept count and the rejections per reason as a plain
    text table."""
    dropped = Counter(entry["reason"] for entry in rejections)
    lines = ["reason            count", "kept              %5d" % len(kept)]
    for reason in REJECTION_REASONS:
        lines.append("%-17s %5d" % (reason, dropped[reason]))
    lines.append("total             %5d" % (len(kept) + len(rejections)))
    return "\n".join(lines) + "\n"
