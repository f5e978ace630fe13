"""The config text format: what ``render_config`` writes,
``parse_config_text`` reads back as the same configuration. The specs built
from a config take their fields by name, and the config states none of
their defaults a second time. No evaluation key reaches the TrainConfig,
and ``check_eval_keys`` judges each of them."""

import ast
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from psdlab.config import ExperimentConfig, parse_config_text, render_config, set_key
from psdlab.data import SyntheticSpec
from psdlab.errors import ConfigError, InvalidInputError
from psdlab.experiments import noise_experiment_config
from psdlab.trainer import TrainConfig


def edited_config() -> ExperimentConfig:
    """Every value kind away from its default: an empty and a long list,
    a false bool, floats that need every digit, and strings."""
    cfg = ExperimentConfig()
    cfg.image_hidden_dims = ()
    cfg.text_hidden_dims = (128, 64, 32)
    cfg.k_list = (1, 3)
    cfg.probe = False
    cfg.learning_rate = 0.1 + 0.2
    cfg.feature_noise_sigma = 1e-300
    cfg.target_mode = "bootstrap"
    cfg.teacher_scale = 15.0  # bootstrap targets need a fixed teacher
    cfg.dataset_path = "data/pairs.psdd"
    cfg.seed = (1 << 64) - 1
    return cfg


@pytest.mark.parametrize("make", [ExperimentConfig, noise_experiment_config, edited_config],
                         ids=["default", "noise_preset", "edited"])
def test_render_then_parse_is_identity(make):
    cfg = make()
    text = render_config(cfg)
    assert parse_config_text(text) == cfg


@pytest.mark.parametrize("key", ["out_dir", "dataset_path"])
def test_string_holding_comment_mark_rejected(key):
    # "runs/#3" would be written out whole and read back as "runs/".
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="#"):
        set_key(cfg, key, "runs/#3")
    assert cfg == ExperimentConfig()


def test_spec_fields_are_config_keys_with_the_same_defaults():
    # A spec field with no key of its name would silently keep its own
    # default; a default set in one place only would make the two disagree.
    keys = {f.name for f in fields(ExperimentConfig)}
    encoders = {"image_encoder", "text_encoder"}
    assert {f.name for f in fields(SyntheticSpec)} <= keys
    assert {f.name for f in fields(TrainConfig)} - encoders <= keys
    # Values away from the defaults reach the spec.
    edited = edited_config()
    tc = edited.train_config()
    for name in {f.name for f in fields(TrainConfig)} & keys:
        assert getattr(tc, name) == getattr(edited, name), name


# The keys that evaluate or observe a run, and a valid value of each away
# from its default.
EVAL_KEYS = {"eval_every": 3, "k_list": (2,), "histogram_bins": 7, "probe": False,
             "probe_l2": 0.5, "eval_per_class": 3, "ablate_seeds": 2}


def test_evaluation_keys_leave_the_train_config_unchanged():
    # Turning observation on, or changing what it measures, must never
    # change what is trained: no evaluation key reaches the TrainConfig.
    edited = replace(ExperimentConfig(), **EVAL_KEYS)
    edited.check_eval_keys()
    assert edited.train_config() == ExperimentConfig().train_config()
    for key, value in EVAL_KEYS.items():
        assert replace(ExperimentConfig(), **{key: value}).train_config() == \
            ExperimentConfig().train_config(), key


@pytest.mark.parametrize("name, value, message", [
    ("k_list", (), "k_list must hold at least one K, each >= 1, got ()"),
    ("k_list", (0, 5), "k_list must hold at least one K, each >= 1, got (0, 5)"),
    ("eval_every", -1, "eval_every must lie in [0, inf), got -1"),
])
def test_check_eval_keys_rejects_a_bad_setting(name, value, message):
    # The held-out recalls and train's eval cadence take these values from
    # the config unchecked.
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        ExperimentConfig(**{name: value}).check_eval_keys()


def test_shared_keys_take_their_spec_default():
    # A key that a spec also has means the same value in both, so the
    # config file writes the spec's default as the key's.
    keys = {f.name for f in fields(ExperimentConfig)}
    for spec in (TrainConfig, SyntheticSpec):
        for f in fields(spec):
            if f.name in keys and f.default is not MISSING:
                assert getattr(ExperimentConfig(), f.name) == f.default, f"{spec.__name__}.{f.name}"


SPECS = ("SyntheticSpec", "TrainConfig", "EncoderSpec")


def restated_defaults(sources: dict[str, str]) -> list[str]:
    """Each default of the ``sources`` (file name to source) stated a second
    time: an ``ExperimentConfig`` field named like a defaulted field of a
    spec in ``SPECS`` whose default is not that spec's attribute of the same
    name, as ``ExperimentConfig.field``, and an assignment of
    ``noise_experiment_config`` that sets a key to its default, as
    ``noise_experiment_config.key``. A default or an assigned value is read
    as a literal, a module constant or a ``Class.field`` default."""
    values, owners, config, assigns = {}, {}, [], []
    for source in sources.values():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                values[node.targets[0].id] = node.value
            if isinstance(node, ast.FunctionDef) and node.name == "noise_experiment_config":
                assigns += [(n.targets[0].attr, n.value) for n in ast.walk(node)
                            if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Attribute)]
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.value is not None:
                    values[f"{node.name}.{item.target.id}"] = item.value
                    if node.name in SPECS:
                        owners.setdefault(item.target.id, set()).add(node.name)
                    if node.name == "ExperimentConfig":
                        config.append((item.target.id, item.value))

    def value_of(node):
        if isinstance(node, ast.Name):
            return value_of(values[node.id])
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return value_of(values[f"{node.value.id}.{node.attr}"])
        return ast.literal_eval(node)

    found = [f"ExperimentConfig.{name}" for name, default in config
             if name in owners
             and not (isinstance(default, ast.Attribute) and default.attr == name
                      and isinstance(default.value, ast.Name) and default.value.id in owners[name])]
    found += [f"noise_experiment_config.{key}" for key, value in assigns
              if value_of(value) == value_of(values[f"ExperimentConfig.{key}"])]
    return found


def test_scan_finds_a_restated_default():
    sources = {"spec.py": ("LR = 1e-3\n"
                           "class TrainConfig:\n"
                           "    encoder: int\n"
                           "    epochs: int = 10\n"
                           "    lr: float = LR\n"
                           "class EncoderSpec:\n"
                           "    width: int = 64\n"),
               "config.py": ("class ExperimentConfig:\n"
                             "    encoder: int = 3\n"              # no spec default to take
                             "    epochs: int = TrainConfig.epochs\n"
                             "    lr: float = LR\n"                # restated through a constant
                             "    width: int = TrainConfig.width\n"  # not the owner's
                             "    bins: int = 50\n"
                             "def noise_experiment_config():\n"
                             "    cfg = ExperimentConfig()\n"
                             "    cfg.epochs = 30\n"
                             "    cfg.bins = 50\n"
                             "    cfg.lr = 0.001\n"
                             "    return cfg\n")}
    assert restated_defaults(sources) == [
        "ExperimentConfig.lr", "ExperimentConfig.width",
        "noise_experiment_config.bins", "noise_experiment_config.lr"]


def test_each_default_is_stated_once():
    # A default restated in ExperimentConfig can drift from its spec's, and
    # a preset that sets a default hides which keys it changes.
    package = Path(__file__).resolve().parent.parent / "src/psdlab"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert restated_defaults(sources) == []


def test_line_without_equals_names_its_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("seed = 3\n\nepochs\n")


def test_blank_and_comment_lines_skipped():
    text = "# a comment\n\n   \nseed = 7  # trailing comment\n  # indented comment\n"
    assert parse_config_text(text) == ExperimentConfig(seed=7)


@pytest.mark.parametrize("raw, value", [
    *((raw, True) for raw in ("true", "TRUE", "1", "yes", "Yes", "on", "oN")),
    *((raw, False) for raw in ("false", "False", "0", "no", "NO", "off", "Off"))])
def test_bool_key_spellings(raw, value):
    assert parse_config_text(f"probe = {raw}\n").probe is value


@pytest.mark.parametrize("text", ["probe = maybe\n", "epochs = 1.5\n"])
def test_value_of_the_wrong_kind_rejected(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)
