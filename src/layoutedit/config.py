"""Run configuration: dimensions, schedules, defaults, JSON round-trip."""
from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

INJECTION_SITES = ("down2", "down4", "mid", "all")

# The fields that fix which model a checkpoint's weights belong to: all
# that Pipeline.__init__ and Pipeline.condition read, apart from the seed.
MODEL_FIELDS = ("d_i", "d_t", "d_l", "d_model", "heads", "max_n",
                "image_size", "patch_size", "injection", "t_train", "dtype")


# Largest accepted value of each size field, far above any model the numpy
# engine runs in useful time. Without them a width such as 2**40 passed
# validation and failed inside numpy, with a MemoryError traceback.
MAX_SIZE = {"d_i": 1024, "d_t": 1024, "d_l": 1024, "d_model": 1024,
            "heads": 64, "max_n": 256, "image_size": 128, "t_train": 100_000}


class ConfigError(ValueError):
    """Raised on invalid configuration values; `fields` names the fields
    whose values make it invalid (injection's as "injection.<name>"), when
    the error is about the config's values."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def read_json_object(path, error: type, what: str) -> dict:
    """Parse the JSON object in `path`. Invalid JSON, or a document that
    is not an object, raises `error` naming the path."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as e:   # decoding errors, deep nesting
        raise error(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object, got {doc!r:.40}")
    return doc


# Accepted value types per field annotation; bool is not a number here.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _check_types(obj, prefix: str = ""):
    """Reject wrongly typed values, and NaN or infinite floats (which
    Python's json reads as NaN and Infinity)."""
    for f in dataclasses.fields(obj):
        want = _FIELD_TYPES.get(f.type)
        val = getattr(obj, f.name)
        name = prefix + f.name
        if want and (isinstance(val, bool) or not isinstance(val, want)):
            raise ConfigError(f"{name} must be {f.type}, got {val!r}", name)
        # False for NaN, infinities and ints too large for a float
        if f.type == "float" and not abs(val) <= sys.float_info.max:
            raise ConfigError(f"{name} must be finite, got {val!r}", name)


def _reject_unknown(cls, d: dict, where: str):
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


@dataclass
class InjectionConfig:
    position: str = "down4"
    ip_scale: float = 1.0

    def validate(self):
        _check_types(self, "injection.")
        if self.position not in INJECTION_SITES:
            raise ConfigError(f"unknown injection position {self.position!r}; "
                              f"valid: {', '.join(INJECTION_SITES)}",
                              "injection.position")


@dataclass
class RunConfig:
    seed: int = 0
    # model dimensions
    d_i: int = 64
    d_t: int = 64
    d_l: int = 64
    d_model: int = 64
    heads: int = 8
    max_n: int = 16
    # encoder / image geometry
    image_size: int = 32
    patch_size: int = 8
    # conditioning and guidance
    lam: float = 0.8
    cfg_w: float = 5.0
    sample_steps: int = 30
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    # training
    lr: float = 2.5e-4
    train_steps: int = 2100
    dropout_rate: float = 0.05
    t_train: int = 1000
    # precision: "float32" for model runs, "float64" for gradient checks
    dtype: str = "float32"
    # paths
    data_dir: str = "data"
    checkpoint_dir: str = "checkpoint"
    report_dir: str = "reports"

    def validate(self):
        _check_types(self)
        for name in ("d_i", "d_t", "d_l", "d_model", "heads", "max_n",
                     "image_size", "patch_size", "sample_steps",
                     "train_steps", "t_train"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive", name)
        for name, most in MAX_SIZE.items():
            if getattr(self, name) > most:
                raise ConfigError(f"{name} must be at most {most}, got "
                                  f"{getattr(self, name)}", name)
        # the timestep embedding is sin/cos halves; the latent is a 2x2
        # space-to-depth of the image
        for name in ("d_model", "image_size"):
            if getattr(self, name) % 2:
                raise ConfigError(f"{name} must be even, got {getattr(self, name)}",
                                  name)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)", "dropout_rate")
        if self.lam < 0.0:
            raise ConfigError("lam must be >= 0", "lam")
        if self.image_size % self.patch_size != 0:
            raise ConfigError("image_size must be divisible by patch_size",
                              "image_size", "patch_size")
        for name in ("d_i", "d_t", "d_model"):
            if getattr(self, name) % self.heads != 0:
                raise ConfigError(f"{name}={getattr(self, name)} not divisible by "
                                  f"heads={self.heads}", name, "heads")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"unknown dtype {self.dtype!r}", "dtype")
        self.injection.validate()
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build a config from a JSON document. Unknown keys and wrongly
        typed values raise here; range checks wait for `validate`, after
        any flag overrides."""
        d = dict(d)
        inj = d.pop("injection", {})
        _reject_unknown(cls, d, "config")
        if not isinstance(inj, dict):
            raise ConfigError(f"injection must be an object, got {inj!r}")
        _reject_unknown(InjectionConfig, inj, "injection")
        cfg = cls(**d, injection=InjectionConfig(**inj))
        _check_types(cfg)
        _check_types(cfg.injection, "injection.")
        return cfg

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "RunConfig":
        doc = read_json_object(path, ConfigError, "config")
        try:
            return cls.from_dict(doc)
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from None

    def apply_env(self) -> "RunConfig":
        """QL_SEED overrides the configured seed."""
        env = os.environ.get("QL_SEED")
        if env is not None:
            try:
                self.seed = int(env)
            except ValueError:
                raise ConfigError(f"QL_SEED must be an integer, "
                                  f"got {env!r}") from None
        return self
