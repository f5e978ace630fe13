"""The config text format: what ``render_config`` writes,
``parse_config_text`` reads back as the same configuration. The specs built
from a config take their fields by name, with the same defaults."""

from dataclasses import fields

import pytest

from psdlab.config import ExperimentConfig, parse_config_text, render_config, set_key
from psdlab.data import SyntheticSpec
from psdlab.errors import ConfigError
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
    cfg = ExperimentConfig()
    assert cfg.synthetic_spec() == SyntheticSpec()
    tc = cfg.train_config()
    assert tc == TrainConfig(image_encoder=tc.image_encoder, text_encoder=tc.text_encoder)
    # Values away from the defaults reach the spec too.
    edited = edited_config()
    tc = edited.train_config()
    for name in {f.name for f in fields(TrainConfig)} & keys:
        assert getattr(tc, name) == getattr(edited, name), name


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
