"""Plain-text experiment configuration.

Format: one ``key = value`` pair per line; blank lines and ``#`` comments are
ignored. A ``#`` starts a comment anywhere on a line, so ``set_key`` rejects a
string value that holds one: the resolved configuration, echoed into the
output directory for provenance, then reads back as the same configuration.
Every key has a default, unknown keys are rejected, and command line flags
override file values. The data and training specs take every field whose name
is also a key of ``ExperimentConfig`` from the key of that name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .data import SyntheticSpec
from .errors import ConfigError
from .model import _ACTIVATIONS, EncoderSpec
from .trainer import PARTITION_MODES, SCHEDULE_KINDS, TARGET_MODES, TrainConfig


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


@dataclass
class ExperimentConfig:
    """Flat bag of every experiment knob with its default."""

    # synthetic data
    num_classes: int = 10
    latent_dim: int = 16
    image_dim: int = 64
    text_dim: int = 48
    samples_per_class: int = 200
    feature_noise_sigma: float = 0.05
    mismatch_rate: float = 0.0
    captions_per_image: int = 1
    dataset_path: str = ""            # nonempty: load this PSDD file instead of generating

    # encoders
    embed_dim: int = 32
    image_hidden_dims: tuple[int, ...] = (64,)
    text_hidden_dims: tuple[int, ...] = (64,)
    activation: str = "tanh"

    # training
    batch_size: int = 256
    epochs: int = 10
    seed: int = 0
    learning_rate: float = 1e-3
    warmup_frac: float = 0.05
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    alpha_start: float = 0.8
    alpha_end: float = 0.2
    alpha_schedule: str = "cosine"
    target_mode: str = "swapped"
    partition_mode: str = "dynamic"
    temperature_init: float = 0.07
    teacher_scale: float = 0.0        # 0 tracks the student scale
    eval_every: int = 0

    # evaluation / experiments
    k_list: tuple[int, ...] = (1, 5, 10)
    histogram_bins: int = 50
    probe: bool = True
    probe_l2: float = 1e-4
    eval_per_class: int = 40          # clean held-out images per class for experiments
    ablate_seeds: int = 10

    out_dir: str = "out"

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(**{f.name: getattr(self, f.name) for f in fields(SyntheticSpec)})

    def train_config(self, image_input_dim: int | None = None,
                     text_input_dim: int | None = None, **overrides) -> TrainConfig:
        kwargs = {f.name: getattr(self, f.name) for f in fields(TrainConfig) if f.name in _KEYS}
        for side, input_dim in (("image", image_input_dim), ("text", text_input_dim)):
            kwargs[f"{side}_encoder"] = EncoderSpec(
                input_dim=input_dim or getattr(self, f"{side}_dim"),
                hidden_dims=getattr(self, f"{side}_hidden_dims"),
                embed_dim=self.embed_dim, activation=self.activation)
        kwargs["teacher_scale"] = self.teacher_scale if self.teacher_scale > 0.0 else None
        kwargs.update(overrides)
        return TrainConfig(**kwargs)


_KEYS = {f.name for f in fields(ExperimentConfig)}
_CHOICE_FIELDS = {"target_mode": TARGET_MODES, "partition_mode": PARTITION_MODES,
                  "alpha_schedule": SCHEDULE_KINDS, "activation": _ACTIVATIONS}


def set_key(cfg: ExperimentConfig, key: str, raw: str) -> None:
    """Coerce and assign one key=value pair; unknown keys are rejected."""
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    raw = raw.strip()
    default = getattr(ExperimentConfig, key)
    try:
        if isinstance(default, tuple):
            value: object = _parse_int_list(raw)
        elif isinstance(default, bool):
            value = _parse_bool(raw)
        elif isinstance(default, int):
            value = int(raw)
        elif isinstance(default, float):
            value = float(raw)
        else:
            if "#" in raw:
                raise ConfigError(f"{key} cannot hold '#', which starts a comment: {raw!r}")
            value = raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    if key == "k_list" and not value:
        raise ConfigError("k_list needs at least one recall cutoff")
    if key in _CHOICE_FIELDS and value not in _CHOICE_FIELDS[key]:
        raise ConfigError(f"{key} must be one of {_CHOICE_FIELDS[key]}, got {value!r}")
    setattr(cfg, key, value)


def parse_config_text(text: str, cfg: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = cfg or ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        set_key(cfg, key.strip(), raw)
    return cfg


def render_config(cfg: ExperimentConfig) -> str:
    """Full resolved configuration as parseable key = value text."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(x) for x in value)
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def echo_config(cfg: ExperimentConfig, out_dir, source_text: str | None = None) -> None:
    """Write the resolved config (and the verbatim input, when given) to the
    output directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved.txt").write_text(render_config(cfg), encoding="utf-8")
    if source_text is not None:
        (out / "config.input.txt").write_text(source_text, encoding="utf-8")
