"""Pipeline configuration: defaults, config-file parsing, flag merging.

The config file is flat key = value text using the same keys as the CLI
flags; CLI flags override file values, and unknown keys are rejected so a
typo cannot silently fall back to a default. Flag values arrive as the raw
strings a file would hold and go through the same parsers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .artifact import CLASSIFIER_KINDS
from .errors import ConfigError, ThresholdOutOfRange

FEATURE_MODES = ("raw", "latent")


# Training parameters live here rather than next to their trainers, so a
# config can be built without importing the tree and network code.
# trees and neural re-export them under their old names.

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.05
    hidden_sizes: tuple[int, ...] = (32,)
    seed: int = 0


DEFAULT_AUTOENCODER_CONFIG = TrainConfig(
    epochs=30, batch_size=32, learning_rate=0.05, hidden_sizes=(8,), seed=0
)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 12
    m_features: int | None = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0


@dataclass(frozen=True)
class BoostParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3


@dataclass(frozen=True)
class XgbParams:
    n_rounds: int = 100
    eta: float = 0.3
    max_depth: int = 6
    lam: float = 1.0
    gamma: float = 0.0


# Config-file key (= CLI flag name) -> (PipelineConfig field, value parser, help).
CONFIG_KEYS = {
    "data": ("data_path", str, "labeled CSV; URL list (predict); comparison CSV (report)"),
    "model": ("model_path", str, "model artifact path"),
    "seed": ("seed", int, "random seed (default 42)"),
    "threshold": ("threshold", float, "confidence threshold in [0,1] (default 0.5)"),
    "out": ("out_dir", str, "output directory (default ./out)"),
    "features": ("feature_mode", str, f"feature mode: {'|'.join(FEATURE_MODES)} (default latent)"),
    "classifier": (
        "classifier", str, f"classifier kind: {'|'.join(CLASSIFIER_KINDS)} (default rf)"
    ),
}


def check_threshold(threshold: float) -> None:
    """Raise ThresholdOutOfRange unless threshold is in [0, 1]; NaN is not."""
    if not 0.0 <= threshold <= 1.0:
        raise ThresholdOutOfRange(f"threshold must be in [0, 1], got {threshold}")


@dataclass(frozen=True)
class PipelineConfig:
    """The one run config; it checks its settings when built, so every instance is valid."""

    feature_mode: str = "latent"
    classifier: str = "rf"
    threshold: float = 0.5
    seed: int = 42
    out_dir: str = "out"
    data_path: str | None = None
    model_path: str | None = None
    knn_k: int = 5
    mlp: TrainConfig = field(default_factory=TrainConfig)
    autoencoder: TrainConfig = DEFAULT_AUTOENCODER_CONFIG
    forest: ForestParams = field(default_factory=ForestParams)
    gb: BoostParams = field(default_factory=BoostParams)
    xgb: XgbParams = field(default_factory=XgbParams)

    def __post_init__(self):
        if self.feature_mode not in FEATURE_MODES:
            raise ConfigError(f"features must be one of {FEATURE_MODES}, got {self.feature_mode!r}")
        if self.classifier not in CLASSIFIER_KINDS:
            raise ConfigError(
                f"classifier must be one of {CLASSIFIER_KINDS}, got {self.classifier!r}"
            )
        check_threshold(self.threshold)
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        for name in ("mlp", "autoencoder", "forest"):  # training replaces their seeds with seed
            sub_seed = getattr(self, name).seed
            if sub_seed != 0:
                raise ConfigError(f"{name}.seed is {sub_seed}, not 0: seed is the one run seed")


def parse_config_file(path: str) -> dict[str, str]:
    """Read flat key = value lines; '#' starts a comment; unknown keys reject."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected key = value, got {stripped!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = value
    return values


def build_config(file_values: dict[str, str], flag_values: dict) -> PipelineConfig:
    """Merge config-file values with CLI flags (flags win) into a PipelineConfig."""
    merged: dict[str, object] = dict(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value

    settings = {}
    for key, value in merged.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        field_name, parse, _ = CONFIG_KEYS[key]
        try:
            settings[field_name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key!r}: {value!r}") from exc
    return PipelineConfig(**settings)
