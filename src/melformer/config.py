"""Run configuration: model shape, training protocol, and data paths.

A run is fully described by one JSON document.  Values resolve in order
defaults < config file < command-line flags, and the resolved document is
echoed into the output directory so a run can be reproduced bit for bit.
The run id is a digest of that document, so identical configs share an id.
"""

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field

from .errors import ValidationError

LABELS = ("angry", "sad", "neutral", "happy")
LABEL_ALIASES = {"excited": "happy"}
# allowed values of the string fields; group_mode auto: sessions when present, else random
CHOICES = {"combine_mode": ("concat", "highway"),
           "group_mode": ("auto", "session", "random"),
           "granularity": ("fine", "multi"),
           "precision": ("float32", "float64")}


def _check_choices(section):
    for name, allowed in CHOICES.items():
        if hasattr(section, name) and getattr(section, name) not in allowed:
            raise ValidationError(
                f"{name} must be one of {', '.join(allowed)}, got {getattr(section, name)!r}")


@dataclass
class ModelConfig:
    d_model: int = 128
    heads: int = 4
    layers_text: int = 1
    layers_cross: int = 1
    layers_fusion: int = 2
    combine_mode: str = "highway"
    num_classes: int = 4
    dropout: float = 0.1
    d_ff: int = 512
    phoneme_dim: int = 64
    phoneme_channels: int = 150
    phoneme_widths: tuple = (2, 3, 4)
    word_dim: int = 300
    prenet_width: int = 5
    finetune_word_vectors: bool = False
    d_fuse: int = 128
    # dtype of parameters, activations, gradients and Adam state; float32 is
    # the paper's setting, float64 what the gradient checks need
    precision: str = "float32"

    def validate(self):
        _check_choices(self)
        for name in ("d_model", "heads", "layers_text", "layers_cross", "layers_fusion", "d_ff",
                     "phoneme_dim", "phoneme_channels", "word_dim", "prenet_width", "d_fuse"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.phoneme_widths or min(self.phoneme_widths) < 1:
            raise ValidationError(
                f"phoneme_widths must be one or more widths >= 1, got {list(self.phoneme_widths)}")
        if self.d_model % self.heads != 0:
            raise ValidationError(
                f"d_model {self.d_model} not divisible by {self.heads} heads")
        if self.num_classes < 2:
            raise ValidationError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.phoneme_channels % len(self.phoneme_widths) != 0:
            raise ValidationError(
                f"phoneme_channels {self.phoneme_channels} not divisible by "
                f"{len(self.phoneme_widths)} conv widths")
        return self


@dataclass
class HarnessConfig:
    lr: float = 1e-5
    batch_size: int = 4
    max_epochs: int = 100
    patience: int = 10
    clip_norm: float = 5.0
    seeds: tuple = (0, 1, 2)
    workers: int = 1
    group_mode: str = "auto"
    granularity: str = "fine"
    freeze_fine: bool = False

    def validate(self):
        _check_choices(self)
        if self.lr <= 0:
            raise ValidationError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValidationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ValidationError(f"patience must be >= 0, got {self.patience}")
        if self.clip_norm <= 0:
            # a norm of 0 zeroes every gradient and a negative one flips them
            raise ValidationError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if not self.seeds:
            raise ValidationError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ValidationError(f"seeds must be >= 0, got {min(self.seeds)}")
        if self.freeze_fine and self.granularity != "multi":
            # a fine-grained model has nothing but its encoder to train
            raise ValidationError(
                f"freeze_fine needs granularity multi, got granularity {self.granularity}")
        return self


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    harness: HarnessConfig = field(default_factory=HarnessConfig)
    manifest: str = ""
    lexicon: str = ""
    word_vectors: str = ""
    utt_embeddings: str = ""
    out_dir: str = "runs/default"

    def validate(self):
        self.model.validate()
        self.harness.validate()
        if self.harness.freeze_fine and self.model.finetune_word_vectors:
            raise ValidationError("finetune_word_vectors does nothing with freeze_fine, "
                                  "which freezes the word table with the rest of the encoder")
        return self

    def to_dict(self):
        return dataclasses.asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def run_id(self):
        """Stable digest of the resolved config; no timestamps involved."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]


def run_keys():
    """(section, key, type) for every key a run can set, in declaration
    order: the model and harness fields, then the paths (section None)."""
    for section, cls in (("model", ModelConfig), ("harness", HarnessConfig), (None, RunConfig)):
        for f in dataclasses.fields(cls):
            if not dataclasses.is_dataclass(f.type):
                yield section, f.name, f.type


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
               tuple: "a list of integers"}


def _is(value, kind):
    # bool is a subclass of int, but true/false is no count
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _typed(key, value, kind, origin):
    """``value`` as the type of its field, or ValidationError naming ``key``.

    Ints are accepted for float fields; every tuple field holds integers.
    NaN and the infinities fail the magnitude test, as do ints no float holds.
    No string may hold a NUL character, which no file path can.
    """
    if kind is str and isinstance(value, str) and "\0" in value:
        raise ValidationError(f"{origin}: {key} holds a NUL character")
    if kind is tuple and isinstance(value, (list, tuple)) and all(_is(v, int) for v in value):
        return tuple(value)
    if kind is float and _is(value, (int, float)) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind not in (tuple, float) and _is(value, kind):
        return value
    raise ValidationError(f"{origin}: {key} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _apply(section, values, origin):
    """Set the fields named in ``values`` on ``section``, recursing into the
    nested ``model`` and ``harness`` sections (null leaves one as it is)."""
    if not isinstance(values, dict):
        raise ValidationError(f"{origin}: expected an object of settings, got {values!r}")
    kinds = {f.name: f.type for f in dataclasses.fields(type(section))}
    for key, value in values.items():
        if key not in kinds:
            raise ValidationError(f"{origin}: unknown config key {key!r}")
        if dataclasses.is_dataclass(kinds[key]):
            _apply(getattr(section, key), {} if value is None else value, origin)
        else:
            setattr(section, key, _typed(key, value, kinds[key], origin))


def resolve_config(file_dict=None, flag_dict=None) -> RunConfig:
    """Merge defaults, a config-file document, and flag overrides, in that order.

    Both dicts use the same shape: {"model": {...}, "harness": {...}, <paths>}.
    """
    cfg = RunConfig()
    for origin, values in (("config file", file_dict), ("flags", flag_dict)):
        if values is not None:
            _apply(cfg, values, origin)
    return cfg.validate()


def model_config_from_dict(d) -> ModelConfig:
    cfg = ModelConfig()
    _apply(cfg, d, "checkpoint header")
    return cfg.validate()
