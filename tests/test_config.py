"""The config text format: what ``render_config`` writes, each key in a
fixed order, ``parse_config_text`` reads back as the same configuration.
The specs built from a config take their fields by name, and the noise
preset sets no key to its default. No evaluation key reaches the
TrainConfig, and ``check_eval_keys`` judges each of them."""

import ast
import re
import struct
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlab.config import ExperimentConfig, parse_config_text, render_config, set_key
from psdlab.data import SyntheticSpec
from psdlab.errors import ConfigError, InvalidInputError
from psdlab.experiments import noise_experiment_config
from psdlab.trainer import TrainConfig


def edited_config() -> ExperimentConfig:
    """Every value kind away from its default: an empty and a long list,
    floats that need every digit, and strings."""
    cfg = ExperimentConfig()
    cfg.image_hidden_dims = ()
    cfg.text_hidden_dims = (128, 64, 32)
    cfg.k_list = (1, 3)
    cfg.learning_rate = 0.1 + 0.2
    cfg.feature_noise_sigma = 1e-300
    cfg.target_mode = "bootstrap"
    cfg.teacher_scale = 15.0  # bootstrap targets need a fixed teacher
    cfg.dataset_path = "data/pairs.psdd"
    cfg.seed = (1 << 64) - 1
    return cfg


# render_config's lines for ExperimentConfig(), in order: the keys of
# SyntheticSpec, dataset_path and the encoder keys, the keys of TrainConfig,
# then the evaluation keys and out_dir.
DEFAULT_RENDER = (
    "num_classes = 10", "latent_dim = 16", "image_dim = 64", "text_dim = 48",
    "samples_per_class = 200", "feature_noise_sigma = 0.05", "mismatch_rate = 0.0",
    "captions_per_image = 1",
    "dataset_path = ", "embed_dim = 32", "image_hidden_dims = 64", "text_hidden_dims = 64",
    "batch_size = 256", "epochs = 10", "seed = 0", "learning_rate = 0.001",
    "weight_decay = 0.01", "alpha_start = 0.8", "alpha_end = 0.2",
    "target_mode = swapped", "partition_mode = dynamic", "temperature_init = 0.07",
    "teacher_scale = 0.0",
    "eval_every = 0", "k_list = 1,5,10", "histogram_bins = 50", "probe_l2 = 0.0001",
    "eval_per_class = 40", "ablate_seeds = 10", "out_dir = out",
)


@pytest.mark.parametrize("make, changed", [
    (ExperimentConfig, {}),
    (noise_experiment_config, {
        "samples_per_class": "240", "feature_noise_sigma": "0.5", "mismatch_rate": "0.25",
        "epochs": "30", "learning_rate": "0.01", "teacher_scale": "15.0"}),
    (edited_config, {
        "feature_noise_sigma": "1e-300", "dataset_path": "data/pairs.psdd",
        "image_hidden_dims": "", "text_hidden_dims": "128,64,32",
        "seed": "18446744073709551615", "learning_rate": "0.30000000000000004",
        "target_mode": "bootstrap", "teacher_scale": "15.0", "k_list": "1,3"}),
], ids=["default", "noise_preset", "edited"])
def test_render_then_parse_is_identity(make, changed):
    cfg = make()
    text = render_config(cfg)
    assert parse_config_text(text) == cfg
    # Reading the text back cannot see the order of the keys, which every
    # config.resolved.txt keeps.
    lines = (line.split(" = ") for line in DEFAULT_RENDER)
    assert text == "".join(f"{key} = {changed.get(key, value)}\n" for key, value in lines)


@pytest.mark.parametrize("key", ["out_dir", "dataset_path"])
def test_string_holding_comment_mark_rejected(key):
    # "runs/#3" would be written out whole and read back as "runs/".
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="#"):
        set_key(cfg, key, "runs/#3")
    assert cfg == ExperimentConfig()


# Each break that str.splitlines splits on, and so parse_config_text too.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("mark", LINE_BREAKS)
@pytest.mark.parametrize("key", ["out_dir", "dataset_path"])
def test_string_holding_a_line_break_rejected(key, mark):
    # "nl\nout" would be written over two lines, the second no 'key = value'.
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match=f"{key} cannot hold a line break"):
        set_key(cfg, key, f"nl{mark}out")
    assert cfg == ExperimentConfig()


def raw_values(key: str):
    """Text for ``key`` in the kind of its default: an int, a float written
    by repr (NaN, infinities and -0.0 included), a comma-separated int list,
    or any string, line breaks, '#' and lone surrogates drawn often."""
    default = getattr(ExperimentConfig, key)
    if isinstance(default, tuple):
        return st.lists(st.integers(), max_size=4).map(lambda xs: ",".join(map(str, xs)))
    if isinstance(default, int):
        return st.integers().map(str)
    if isinstance(default, float):
        return st.floats().map(repr)
    return st.text() | st.text(alphabet=" a=#\t\udcff" + "".join(LINE_BREAKS))


def bitwise(cfg: ExperimentConfig) -> list:
    """Each value of ``cfg``, a float as its bytes, so that NaN equals NaN."""
    return [struct.pack("<d", v) if isinstance(v, float) else v
            for v in (getattr(cfg, f.name) for f in fields(ExperimentConfig))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_what_set_key_accepts_reads_back_bit_for_bit(data):
    cfg = ExperimentConfig()
    for key in data.draw(st.lists(st.sampled_from([f.name for f in fields(ExperimentConfig)]),
                                  min_size=1, max_size=6, unique=True)):
        try:
            set_key(cfg, key, data.draw(raw_values(key), label=key))
        except ConfigError:
            continue  # only what set_key accepts is written out
    text = render_config(cfg).encode("utf-8").decode("utf-8")  # as echo_config writes it
    assert bitwise(parse_config_text(text)) == bitwise(cfg)


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
EVAL_KEYS = {"eval_every": 3, "k_list": (2,), "histogram_bins": 7, "probe_l2": 0.5,
             "eval_per_class": 3, "ablate_seeds": 2}


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
    ("eval_every", 11, "eval_every must not exceed epochs = 10, got 11"),
])
def test_check_eval_keys_rejects_a_bad_setting(name, value, message):
    # The held-out recalls and train's eval cadence take these values from
    # the config unchecked; an eval cadence past the last epoch never evaluates.
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


def preset_defaults(source: str) -> list[str]:
    """Each key that ``noise_experiment_config`` in ``source`` sets to the
    key's default, as ``noise_experiment_config.key``. An assigned value is
    read as a literal or a module constant of ``source``, the default from
    ``ExperimentConfig`` itself."""
    tree = ast.parse(source)
    constants = {node.targets[0].id: node.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    assigns = [(n.targets[0].attr, n.value) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "noise_experiment_config"
               for n in ast.walk(node)
               if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Attribute)]
    return [f"noise_experiment_config.{key}" for key, value in assigns
            if ast.literal_eval(constants.get(getattr(value, "id", None), value))
            == getattr(ExperimentConfig, key)]


def test_scan_finds_a_restated_default():
    source = ("BINS = 50\n"
              "def noise_experiment_config():\n"
              "    cfg = ExperimentConfig()\n"
              "    cfg.epochs = 30\n"
              "    cfg.histogram_bins = BINS\n"       # restated through a constant
              "    cfg.learning_rate = 0.001\n"
              "    cfg.k_list = (1, 5)\n"
              "    return cfg\n")
    assert preset_defaults(source) == ["noise_experiment_config.histogram_bins",
                                       "noise_experiment_config.learning_rate"]


def test_each_default_is_stated_once():
    # A preset that sets a default hides which keys it changes.
    package = Path(__file__).resolve().parent.parent / "src/psdlab"
    assert [key for path in sorted(package.glob("*.py"))
            for key in preset_defaults(path.read_text(encoding="utf-8"))] == []


def test_line_without_equals_names_its_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("seed = 3\n\nepochs\n")


def test_blank_and_comment_lines_skipped():
    text = "# a comment\n\n   \nseed = 7  # trailing comment\n  # indented comment\n"
    assert parse_config_text(text) == ExperimentConfig(seed=7)


@pytest.mark.parametrize("text", ["ablate_seeds = three\n", "epochs = 1.5\n"])
def test_value_of_the_wrong_kind_rejected(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)
