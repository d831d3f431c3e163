"""Experiment configuration: JSON schema, strict validation, defaults.

Unknown keys are errors so that a recorded config always means what it
meant when the experiment ran. Relative paths are resolved against the
config file's directory.
"""

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_args

from .corpus import is_finite_number
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig
from .variants import DEFAULT_PAUSE_GAP_S, VARIANTS

SCHEMA_VERSION = 1

# the value types of each section; the seed is a top-level key, shared by
# the split and the training run, and the model section sets the model
# fields that the corpus and the front end do not decide
_TOP_TYPES = {
    "schema_version": int, "name": str, "corpus": str, "variant": str,
    "g2p_rules": str | None, "alignments": str | None, "pause_gap_threshold": float,
    "out_dir": str, "seed": int, "model": dict, "train": dict,
}
_MODEL_TYPES = {f.name: f.type for f in fields(ModelConfig) if f.default is not MISSING}
_TRAIN_TYPES = {f.name: f.type for f in fields(TrainConfig) if f.name != "seed"}
# the string keys that name a run or a file
_PATH_KEYS = ("name", "corpus", "out_dir", "g2p_rules", "alignments")


def check_section(section: dict, types: dict, where: str) -> dict:
    """Unknown keys, ill-typed values and numbers that are not finite
    floats are errors. A JSON integer is a valid float unless it is too
    large for one, which no integer key may be either; a boolean is no
    number."""
    for key, value in section.items():
        if key not in types:
            raise ConfigError(f"unknown config key '{key}' in {where}")
        kinds = get_args(types[key]) or (types[key],)
        kinds += (int,) if float in kinds else ()
        if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
            raise ConfigError(f"ill-typed config key '{key}' in {where}: {value!r}")
        if type(value) in (int, float) and not is_finite_number(value):
            raise ConfigError(f"config key '{key}' in {where} must be a finite number")
    return section


@dataclass
class ExperimentConfig:
    name: str
    corpus: Path
    variant: str
    g2p_rules: Path | None
    alignments: Path | None
    pause_gap_threshold: float
    out_dir: Path
    model: dict  # num_layers and hidden_units, as ModelConfig keywords
    train: TrainConfig

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown transcript variant '{self.variant}' "
                f"(expected one of {', '.join(VARIANTS)})"
            )
        for key in VARIANTS[self.variant]:
            if getattr(self, key) is None:
                raise ConfigError(f"variant '{self.variant}' requires {key}")


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
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
    for key in _PATH_KEYS:
        if "\0" in (raw.get(key) or ""):
            raise ConfigError(f"config key '{key}' holds a NUL character")
    name = Path(raw["name"])
    if not name.parts or name.is_absolute() or ".." in name.parts:
        raise ConfigError(f"config key 'name' must name a run directory under out_dir, "
                          f"got {raw['name']!r}")

    def path_of(key, default=None):
        value = raw.get(key, default)
        if value is None:
            return None
        return (Path(base_dir) / value).resolve()

    def section(name, types):
        return check_section(raw.get(name, {}), types, f"{name} section")

    seed = {"seed": raw["seed"]} if "seed" in raw else {}
    return ExperimentConfig(
        name=raw["name"],
        corpus=path_of("corpus"),
        variant=raw["variant"],
        g2p_rules=path_of("g2p_rules"),
        alignments=path_of("alignments"),
        pause_gap_threshold=float(raw.get("pause_gap_threshold", DEFAULT_PAUSE_GAP_S)),
        out_dir=path_of("out_dir", "runs"),
        model=section("model", _MODEL_TYPES),
        train=TrainConfig(**seed, **section("train", _TRAIN_TYPES)),
    )
