"""Plain-text experiment configuration.

Format: one ``key = value`` pair per line; blank lines and ``#`` comments are
ignored. A ``#`` starts a comment anywhere on a line, so ``set_key`` rejects a
string value that holds one: the resolved configuration, echoed into the
output directory for provenance, then reads back as the same configuration.
Every key has a default, unknown keys are rejected, and command line flags
override file values. ``set_key`` only parses: it turns the text into a
value of the key's type or raises ConfigError. ``errors.check_ranges``
judges it, naming the key, by the rows of the spec that ``synthetic_spec``
or ``train_config`` builds, or of ``check_eval_keys`` for the keys no spec
reads; only K and the batch size against the data wait for it. The specs own
the defaults of the keys they share with ``ExperimentConfig``: such a key
defaults to its spec's attribute of the same name, and the spec takes its
value back from the key by name alone; other keys default here. A command
echoes the configuration once it has read and checked every input.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .data import SyntheticSpec
from .errors import ConfigError, check_ranges, within
from .evaluation import PROBE_L2_DEFAULT, SETTING_RANGES
from .model import EncoderSpec
from .trainer import TrainConfig


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
    num_classes: int = SyntheticSpec.num_classes
    latent_dim: int = SyntheticSpec.latent_dim
    image_dim: int = SyntheticSpec.image_dim
    text_dim: int = SyntheticSpec.text_dim
    samples_per_class: int = SyntheticSpec.samples_per_class
    feature_noise_sigma: float = SyntheticSpec.feature_noise_sigma
    mismatch_rate: float = SyntheticSpec.mismatch_rate
    captions_per_image: int = SyntheticSpec.captions_per_image
    dataset_path: str = ""            # nonempty: load this PSDD file instead of generating

    # encoders
    embed_dim: int = 32
    image_hidden_dims: tuple[int, ...] = (64,)
    text_hidden_dims: tuple[int, ...] = (64,)

    # training
    batch_size: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    seed: int = TrainConfig.seed
    learning_rate: float = TrainConfig.learning_rate
    warmup_frac: float = TrainConfig.warmup_frac
    weight_decay: float = TrainConfig.weight_decay
    beta1: float = TrainConfig.beta1
    beta2: float = TrainConfig.beta2
    adam_eps: float = TrainConfig.adam_eps
    alpha_start: float = TrainConfig.alpha_start
    alpha_end: float = TrainConfig.alpha_end
    alpha_schedule: str = TrainConfig.alpha_schedule
    target_mode: str = TrainConfig.target_mode
    partition_mode: str = TrainConfig.partition_mode
    temperature_init: float = TrainConfig.temperature_init
    teacher_scale: float = TrainConfig.teacher_scale
    eval_every: int = 0               # epochs between train's held-out evals, 0 = off

    # evaluation / experiments
    k_list: tuple[int, ...] = (1, 5, 10)  # recall cutoffs
    histogram_bins: int = 50
    probe: bool = True
    probe_l2: float = PROBE_L2_DEFAULT
    eval_per_class: int = 40          # clean held-out images per class for experiments
    ablate_seeds: int = 10

    out_dir: str = "out"

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(**{f.name: getattr(self, f.name) for f in fields(SyntheticSpec)})

    def train_config(self, **overrides) -> TrainConfig:
        kwargs = {f.name: getattr(self, f.name) for f in fields(TrainConfig) if f.name in _KEYS}
        for side in ("image", "text"):
            kwargs[f"{side}_encoder"] = EncoderSpec(
                input_dim=getattr(self, f"{side}_dim"), embed_dim=self.embed_dim,
                hidden_dims=getattr(self, f"{side}_hidden_dims"))
        kwargs.update(overrides)
        return TrainConfig(**kwargs)

    def check_eval_keys(self) -> None:
        """Raise InvalidInputError naming the first key no spec reads that is out of range."""
        check_ranges((("k_list", self.k_list, bool(self.k_list) and min(self.k_list) >= 1,
                       "hold at least one K, each >= 1"),
                      *(within(key, getattr(self, key), interval)
                        for key, interval in SETTING_RANGES.items())))


_KEYS = {f.name for f in fields(ExperimentConfig)}


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


def echo_config(cfg: ExperimentConfig) -> Path:
    """Write the resolved config as ``config.resolved.txt`` into its output
    directory ``out_dir``, created if need be, and return that directory."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved.txt").write_text(render_config(cfg), encoding="utf-8")
    return out
