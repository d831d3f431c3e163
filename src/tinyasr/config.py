"""Experiment configuration: JSON schema, strict validation, defaults.

Unknown keys are errors so that a recorded config always means what it
meant when the experiment ran. Relative paths are resolved against the
config file's directory.
"""

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args

from .errors import ConfigError
from .features import FeatureConfig
from .training import TrainConfig
from .variants import DEFAULT_PAUSE_GAP_S, VARIANTS

SCHEMA_VERSION = 1

# the value types of each section; the seed is a top-level key, shared by
# the split and the training run
_TOP_TYPES = {
    "schema_version": int, "name": str, "corpus": str, "variant": str,
    "g2p_rules": str | None, "alignments": str | None, "pause_gap_threshold": float,
    "out_dir": str, "seed": int, "features": dict, "model": dict, "train": dict,
    "subset_sizes": list,
}
FEATURE_TYPES = {f.name: f.type for f in fields(FeatureConfig)}
_MODEL_TYPES = {"num_layers": int, "hidden_units": int}
_TRAIN_TYPES = {f.name: f.type for f in fields(TrainConfig) if f.name != "seed"}


def check_section(section: dict, types: dict, where: str) -> dict:
    """Unknown keys and ill-typed values are errors. A JSON integer is a
    valid float; a boolean is no number."""
    for key, value in section.items():
        if key not in types:
            raise ConfigError(f"unknown config key '{key}' in {where}")
        kinds = get_args(types[key]) or (types[key],)
        kinds += (int,) if float in kinds else ()
        if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
            raise ConfigError(f"ill-typed config key '{key}' in {where}: {value!r}")
    return section


def check_sizes(sizes, what: str) -> list:
    """Sweep sizes are ascending positive utterance counts."""
    sizes = list(sizes)
    if any(type(s) is not int or s < 1 for s in sizes) or sizes != sorted(sizes):
        raise ConfigError(f"{what} must be ascending positive counts, got {sizes}")
    return sizes


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
        check_sizes(self.subset_sizes, "subset_sizes")


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
    check_section(raw, _TOP_TYPES, "experiment config")
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

    def section(name, types):
        return check_section(raw.get(name, {}), types, f"{name} section")

    model = section("model", _MODEL_TYPES)
    seed = raw.get("seed", 0)
    return ExperimentConfig(
        name=raw["name"],
        corpus=path_of("corpus"),
        variant=raw["variant"],
        seed=seed,
        g2p_rules=path_of("g2p_rules"),
        alignments=path_of("alignments"),
        pause_gap_threshold=float(raw.get("pause_gap_threshold", DEFAULT_PAUSE_GAP_S)),
        out_dir=path_of("out_dir", "runs"),
        features=FeatureConfig(**section("features", FEATURE_TYPES)),
        model_layers=model.get("num_layers", 3),
        model_hidden=model.get("hidden_units", 250),
        train=TrainConfig(seed=seed, **section("train", _TRAIN_TYPES)),
        subset_sizes=raw.get("subset_sizes", []),
    )
