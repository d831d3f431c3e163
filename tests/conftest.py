import json
import resource
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from tinyasr.audio import AudioBuffer, write_wav
from tinyasr.cli import main as cli_main
from tinyasr.synthetic import generate_tone_corpus

EAF_TEMPLATE = """<?xml version="1.0" encoding="UTF-8"?>
<ANNOTATION_DOCUMENT AUTHOR="" DATE="2020-01-01T00:00:00+00:00" FORMAT="3.0" VERSION="3.0">
  <HEADER MEDIA_FILE="" TIME_UNITS="milliseconds"/>
  <TIME_ORDER>
{slots}
  </TIME_ORDER>
  <TIER LINGUISTIC_TYPE_REF="default" PARTICIPANT="KP" TIER_ID="ref">
{annotations}
  </TIER>
</ANNOTATION_DOCUMENT>
"""

# one annotation per cleaning/filter rule, plus three keepers that exercise
# the normalizing transformations
FIXTURE_ANNOTATIONS = [
    ("a1", 0, 10500, "amno ilembi tolsed ige bar"),        # too-long
    ("a2", 11000, 11300, "ej"),                            # too-short
    ("a3", 12000, 13000, ""),                              # empty
    ("a4", 13500, 14500, "..."),                           # punctuation-only
    ("a5", 15000, 16000, "3 poʔto"),                  # contains-digit
    ("a6", 16500, 17500, "он пошёл"),  # cyrillic
    ("a7", 18000, 19000, "ej ((xxx)) ku?pi"),              # unclear-marker
    ("a8", 19500, 20500, "ej ku?pi"),                 # invisible space
    ("a9", 21000, 22000, "ej ((COUGH)) ku?pi"),            # non-verbal token
    ("a10", 22500, 24000, "I dī poʔto (kuzab-) kuzazi mobi."),  # self-correction
    ("a11", 24500, 24900, "ej ku?pi"),                     # 0.400 s boundary keep
]

EXPECTED_KEPT = [
    ("session_a8", 19.5, 20.5, "ej ku?pi"),
    ("session_a9", 21.0, 22.0, "ej ku?pi"),
    ("session_a10", 22.5, 24.0, "I dī poʔto kuzab kuzazi mobi."),
    ("session_a11", 24.5, 24.9, "ej ku?pi"),
]

EXPECTED_DROPS = {
    "too-long": 1,
    "too-short": 1,
    "empty": 1,
    "punctuation-only": 1,
    "contains-digit": 1,
    "contains-cyrillic": 1,
    "unclear-marker": 1,
}

FIXTURE_ALIGNMENTS = {
    "session_a8": [("ej", 19.55, 19.75), ("ku?pi", 19.95, 20.35)],
    "session_a9": [("ej", 21.05, 21.25), ("ku?pi", 21.30, 21.70)],
    "session_a10": [
        ("I", 22.55, 22.65),
        ("dī", 22.70, 22.90),
        ("poʔto", 23.15, 23.35),
        ("kuzab", 23.38, 23.50),
        ("kuzazi", 23.60, 23.72),
        ("mobi.", 23.77, 23.95),
    ],
    "session_a11": [("ej", 24.52, 24.64), ("ku?pi", 24.70, 24.86)],
}

FIXTURE_G2P = [
    ("ī", "iː"),  # long vowel, one atomic label
    ("?", "ʔ"),
    ("I", "i"),
] + [(ch, ch) for ch in "ejkupidotzabm. "] + [("ʔ", "ʔ")]


def build_eaf(annotations) -> str:
    slots, anns = [], []
    for i, (ann_id, start_ms, end_ms, value) in enumerate(annotations):
        ts1, ts2 = f"ts{2 * i + 1}", f"ts{2 * i + 2}"
        slots.append(f'    <TIME_SLOT TIME_SLOT_ID="{ts1}" TIME_VALUE="{start_ms}"/>')
        slots.append(f'    <TIME_SLOT TIME_SLOT_ID="{ts2}" TIME_VALUE="{end_ms}"/>')
        anns.append(
            "    <ANNOTATION>\n"
            f'      <ALIGNABLE_ANNOTATION ANNOTATION_ID="{ann_id}" '
            f'TIME_SLOT_REF1="{ts1}" TIME_SLOT_REF2="{ts2}">\n'
            f"        <ANNOTATION_VALUE>{value}</ANNOTATION_VALUE>\n"
            "      </ALIGNABLE_ANNOTATION>\n"
            "    </ANNOTATION>"
        )
    return EAF_TEMPLATE.format(slots="\n".join(slots), annotations="\n".join(anns))


@pytest.fixture(scope="session")
def golden_corpus(tmp_path_factory):
    """Corpus directory with one instance of every cleaning/filter rule."""
    root = tmp_path_factory.mktemp("golden")
    (root / "session.eaf").write_text(build_eaf(FIXTURE_ANNOTATIONS), encoding="utf-8")
    rng = np.random.default_rng(123)
    samples = rng.normal(0.0, 0.003, size=25 * 16000)
    write_wav(root / "session.wav", AudioBuffer(samples, 16000))
    with open(root / "words.jsonl", "w", encoding="utf-8") as fh:
        for utt_id, words in FIXTURE_ALIGNMENTS.items():
            fh.write(json.dumps({
                "id": utt_id,
                "words": [{"w": w, "start_s": s, "end_s": e} for w, s, e in words],
            }, ensure_ascii=False) + "\n")
    with open(root / "g2p.tsv", "w", encoding="utf-8") as fh:
        fh.write("# fixture rules\n")
        for source, target in FIXTURE_G2P:
            fh.write(f"{source}\t{target}\n")
    return root


@pytest.fixture(scope="session")
def tone_corpus(tmp_path_factory):
    """Small synthetic tone corpus plus its prepared manifest."""
    root = tmp_path_factory.mktemp("tones")
    corpus = root / "corpus"
    generate_tone_corpus(corpus, n_utterances=100, seed=11)
    prepared = root / "prepared"
    assert cli_main(["prepare", str(corpus), "--out", str(prepared)]) == 0
    return {"corpus": corpus, "prepared": prepared, "manifest": prepared / "manifest.jsonl"}


@pytest.fixture(scope="session")
def trained_run(tmp_path_factory, tone_corpus):
    """A finished small training run for CLI-level tests."""
    root = tmp_path_factory.mktemp("trained")
    config = {
        "schema_version": 1,
        "name": "fixture-run",
        "corpus": str(tone_corpus["manifest"]),
        "variant": "orig-no-spaces",
        "out_dir": str(root / "runs"),
        "seed": 5,
        "model": {"num_layers": 1, "hidden_units": 24},
        "train": {"max_epochs": 14, "patience": 14, "batch_size": 16,
                  "learning_rate": 0.003},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["train", "--config", str(config_path)]) == 0
    return {"run": root / "runs" / "fixture-run", "config": config_path,
            "out_dir": root / "runs", "corpus": tone_corpus}


@contextmanager
def memory_capped(headroom=2 ** 30):
    """Caps this process's address space at its current size plus headroom
    bytes for the block, so a path that builds per-layer work for a huge
    model raises MemoryError instead of exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    status = Path("/proc/self/status").read_text().split("VmSize:")[1]
    size = int(status.split()[0]) * 1024
    cap = size + headroom if hard == resource.RLIM_INFINITY else min(size + headroom, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
