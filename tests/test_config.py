"""The config text format: what ``render_config`` writes,
``parse_config_text`` reads back as the same configuration."""

import pytest

from psdlab.config import ExperimentConfig, parse_config_text, render_config, set_key
from psdlab.errors import ConfigError
from psdlab.experiments import noise_experiment_config


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
