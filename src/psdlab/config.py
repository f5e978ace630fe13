"""Plain-text experiment configuration.

Format: one ``key = value`` pair per line; blank lines and ``#`` comments are
ignored. A ``#`` starts a comment anywhere on a line, and every break that
``str.splitlines`` splits on ends one, so ``set_key`` rejects a string value
that holds either, or a surrogate, which UTF-8 cannot encode: the resolved
configuration, echoed as UTF-8 into the output directory, reads back the same.
Every key has a default, unknown keys are rejected, and command line flags
override file values. A command echoes the configuration once it has read and
checked every input.

A key that a spec reads is declared once, by the spec: each defaulted field
of ``SyntheticSpec`` and ``TrainConfig`` is a key of the same name, type and
default, and ``synthetic_spec`` and ``train_config`` hand the values back by
name. A ``ClassVar`` of a spec is a constant, not a field, so it is no key.
Only the keys that no spec holds are declared here. ``set_key`` only
parses: it turns the text into a value of the key's type or raises
ConfigError. ``errors.check_ranges`` judges it, naming the key, by the rows
of the spec that owns the key, or of ``check_eval_keys`` for the rest. Only
the rules that need the data wait for it: ``k_list`` and ``batch_size``
against its size, and ``eval_per_class`` against its clean-image counts.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, make_dataclass
from pathlib import Path

from .data import SyntheticSpec
from .errors import ConfigError, check_ranges, within
from .evaluation import PROBE_L2_DEFAULT, SETTING_RANGES
from .model import EncoderSpec
from .trainer import TrainConfig


def _parse_int_list(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


class _Specs:
    """The specs that ``ExperimentConfig`` builds from its keys, and the
    check of the keys that no spec reads."""

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
                      within("eval_every", self.eval_every, "[0, inf)"),
                      ("eval_every", self.eval_every, self.eval_every <= max(self.epochs, 0),
                       f"not exceed epochs = {self.epochs}"),
                      *(within(key, getattr(self, key), interval)
                        for key, interval in SETTING_RANGES.items()),
                      within("ablate_seeds", self.ablate_seeds, "[1, inf)")))


def _spec_keys(spec) -> list[tuple[str, str, object]]:
    """The name, type and default of each defaulted field of ``spec``."""
    return [(f.name, f.type, f.default) for f in fields(spec) if f.default is not MISSING]


ExperimentConfig = make_dataclass("ExperimentConfig", [
    *_spec_keys(SyntheticSpec),
    ("dataset_path", "str", ""),      # nonempty: load this PSDD file instead of generating
    ("embed_dim", "int", 32),
    ("image_hidden_dims", "tuple[int, ...]", (64,)),
    ("text_hidden_dims", "tuple[int, ...]", (64,)),
    *_spec_keys(TrainConfig),
    # Epochs between train's held-out evals, 0 = off. Above 0, train also
    # carves the holdout off its training data.
    ("eval_every", "int", 0),
    ("k_list", "tuple[int, ...]", (1, 5, 10)),  # recall cutoffs
    ("histogram_bins", "int", 50),
    ("probe_l2", "float", PROBE_L2_DEFAULT),
    ("eval_per_class", "int", 40),    # clean held-out images per class
    ("ablate_seeds", "int", 10),
    ("out_dir", "str", "out"),
], bases=(_Specs,), namespace={
    "__module__": __name__,
    "__doc__": "Every experiment knob with its default, in the order render_config writes them."})


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
        elif isinstance(default, int):
            value = int(raw)
        elif isinstance(default, float):
            value = float(raw)
        else:
            if "#" in raw:
                raise ConfigError(f"{key} cannot hold '#', which starts a comment: {raw!r}")
            if len(raw.splitlines()) > 1:
                raise ConfigError(f"{key} cannot hold a line break: {raw!r}")
            if any("\ud800" <= c <= "\udfff" for c in raw):  # e.g. an argv byte not in UTF-8
                raise ConfigError(f"{key} must be UTF-8 text, got {raw!r}")
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
