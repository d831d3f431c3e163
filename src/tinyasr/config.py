"""Experiment configuration: JSON schema, strict validation, defaults.

Unknown keys are errors so that a recorded config always means what it
meant when the experiment ran. Relative paths are resolved against the
config file's directory.
"""

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .features import FeatureConfig
from .training import TrainConfig
from .variants import DEFAULT_PAUSE_GAP_S, VARIANTS

SCHEMA_VERSION = 1

_FEATURE_KEYS = tuple(f.name for f in fields(FeatureConfig))
_MODEL_KEYS = ("num_layers", "hidden_units")
# the seed is a top-level key, shared by the split and the training run
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")
_TOP_KEYS = (
    "schema_version", "name", "corpus", "variant", "g2p_rules", "alignments",
    "pause_gap_threshold", "out_dir", "seed", "features", "model", "train",
    "subset_sizes",
)


def _check_keys(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{key}' in {where}")


@dataclass
class ExperimentConfig:
    name: str
    corpus: Path
    variant: str
    seed: int = 0
    g2p_rules: Path | None = None
    alignments: Path | None = None
    pause_gap_threshold: float = DEFAULT_PAUSE_GAP_S
    out_dir: Path = Path("runs")
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model_layers: int = 3
    model_hidden: int = 250
    train: TrainConfig = field(default_factory=TrainConfig)
    subset_sizes: list = field(default_factory=list)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown transcript variant '{self.variant}' "
                f"(expected one of {', '.join(VARIANTS)})"
            )
        if self.variant.startswith("ipa") and self.g2p_rules is None:
            raise ConfigError(f"variant '{self.variant}' requires g2p_rules")
        if self.variant == "ipa-pause-boundaries" and self.alignments is None:
            raise ConfigError("variant 'ipa-pause-boundaries' requires alignments")
        sizes = list(self.subset_sizes)
        if sizes != sorted(sizes) or any(s < 1 for s in sizes):
            raise ConfigError("subset_sizes must be ascending positive counts")


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path.name}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path.name}: expected a JSON object")
    return parse_experiment_config(raw, base_dir=path.parent)


def parse_experiment_config(raw: dict, base_dir=Path(".")) -> ExperimentConfig:
    _check_keys(raw, _TOP_KEYS, "experiment config")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    for key in ("name", "corpus", "variant"):
        if key not in raw:
            raise ConfigError(f"missing required config key '{key}'")

    def path_of(key, default=None):
        value = raw.get(key, default)
        if value is None:
            return None
        return (Path(base_dir) / value).resolve()

    features_raw = raw.get("features", {})
    _check_keys(features_raw, _FEATURE_KEYS, "features section")
    model_raw = raw.get("model", {})
    _check_keys(model_raw, _MODEL_KEYS, "model section")
    train_raw = raw.get("train", {})
    _check_keys(train_raw, _TRAIN_KEYS, "train section")

    try:
        features = FeatureConfig(**features_raw)
        train = TrainConfig(seed=int(raw.get("seed", 0)), **train_raw)
    except TypeError as exc:
        raise ConfigError(f"invalid config section: {exc}") from exc

    return ExperimentConfig(
        name=str(raw["name"]),
        corpus=path_of("corpus"),
        variant=str(raw["variant"]),
        seed=int(raw.get("seed", 0)),
        g2p_rules=path_of("g2p_rules"),
        alignments=path_of("alignments"),
        pause_gap_threshold=float(raw.get("pause_gap_threshold", DEFAULT_PAUSE_GAP_S)),
        out_dir=path_of("out_dir", "runs"),
        features=features,
        model_layers=int(model_raw.get("num_layers", 3)),
        model_hidden=int(model_raw.get("hidden_units", 250)),
        train=train,
        subset_sizes=[int(s) for s in raw.get("subset_sizes", [])],
    )
