"""Pipeline configuration: JSON file plus command-line overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .clustering import DEFAULT_K_RANGE, DEFAULT_RESTARTS
from .errors import ConfigError
from .nn import TrainConfig
from .nn.training import is_int

MODEL_NAMES = ("proposed", "standard_lstm", "last_value", "linear", "ridge", "mlp")

# keys a training block may override; each trainer draws from the pipeline seed
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))


@dataclass
class PipelineConfig:
    """Everything a pipeline run needs, with usable defaults throughout."""

    input_csv: str | None = None
    schema_json: str | None = None
    out_dir: str = "out"
    seed: int = 0
    k_range: tuple = (DEFAULT_K_RANGE[0], DEFAULT_K_RANGE[-1])
    kmeans_restarts: int = DEFAULT_RESTARTS
    autoencoder: TrainConfig = field(default_factory=TrainConfig)
    forecaster: TrainConfig = field(default_factory=TrainConfig)
    models: tuple = MODEL_NAMES

    def validate(self) -> "PipelineConfig":
        for name in ("input_csv", "schema_json", "out_dir"):
            value = getattr(self, name)
            if not isinstance(value, str) and (value is not None or name == "out_dir"):
                raise ConfigError(f"{name} must be a path string, got {value!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        kr = self.k_range
        pair = isinstance(kr, (list, tuple)) and len(kr) == 2 and all(is_int(v) for v in kr)
        if not (pair and 1 <= kr[0] <= kr[1]):
            raise ConfigError(f"k_range must be integers with 1 <= lo <= hi, got {kr!r}")
        if not (is_int(self.kmeans_restarts) and self.kmeans_restarts >= 1):
            raise ConfigError(
                f"kmeans_restarts must be an integer >= 1, got {self.kmeans_restarts!r}"
            )
        if not isinstance(self.models, (list, tuple)) or not self.models:
            raise ConfigError(f"models must be a non-empty list of names, got {self.models!r}")
        unknown = [m for m in self.models if m not in MODEL_NAMES]
        if unknown:
            raise ConfigError(
                f"unknown model(s) {unknown}; choose from {list(MODEL_NAMES)}"
            )
        repeated = sorted({m for m in self.models if self.models.count(m) > 1})
        if repeated:
            raise ConfigError(f"model(s) {repeated} listed more than once")
        self.autoencoder.validate()
        self.forecaster.validate()
        return self


def load_config(path) -> PipelineConfig:
    """Read a JSON config file; unknown keys are errors, not typos to ignore."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    for name in ("autoencoder", "forecaster"):
        block = doc.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"{name!r} block must be a JSON object, got {block!r}")
        bad = [k for k in block if k not in TRAIN_KEYS]
        if bad:
            raise ConfigError(
                f"unknown key(s) {bad} in {name!r} block; allowed: {list(TRAIN_KEYS)}"
            )
        doc[name] = TrainConfig(**block)
    return PipelineConfig(**doc)
