"""Every error class the CLI can raise reaches its exit code through
``cli.main``. A run that blows up fails the trainer's per-step health check,
or the next step's encode, with DivergenceError (code 6) before the objective
sees its non-finite or degenerate state as invalid input (code 3)."""

import math

import numpy as np
import pytest

from psdlab.cli import main
from psdlab.data import PairedDataset, SyntheticSpec, generate, save_pairs
from psdlab.errors import (
    BadMagicError,
    ConfigError,
    DegenerateInputError,
    DimensionOverflowError,
    DivergenceError,
    InvalidInputError,
    TruncatedFileError,
    VersionMismatchError,
)
from psdlab.numkit import RngState
from psdlab.trainer import load_checkpoint


@pytest.fixture
def pairs_file(tmp_path):
    spec = SyntheticSpec(num_classes=2, latent_dim=3, image_dim=4, text_dim=4,
                         samples_per_class=10)
    path = tmp_path / "pairs.psdd"
    save_pairs(generate(spec, RngState(0)), path)
    return path


def patched(path, offset, data):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(data)] = data
    path.write_bytes(bytes(raw))
    return path


def train_on(path, tmp_path, *extra):
    return main(["train", "--quiet", "--dataset", str(path), "--out", str(tmp_path / "out"),
                 "--set", "batch_size=4", "--epochs", "1", *extra])


def test_generate_succeeds(tmp_path):
    assert main(["generate", "--quiet", "--set", "samples_per_class=5",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "dataset.psdd").is_file()


@pytest.mark.parametrize("argv", [
    ["generate", "--set", "samples_per_class"],          # --set without '='
    ["generate", "--set", "no_such_key=1"],
    ["generate", "--set", "samples_per_class=ten"],
    ["train", "--set", "target_mode=sideways"],
    ["generate", "--config", "/nonexistent/psdlab.cfg"],
    ["ablate", "--set", "k_list="],                      # no recall cutoff
    ["eval", "checkpoint", "pairs.psdd", "--klist", ""],
    ["train", "--out", "runs/#3"],                       # would read back as runs/
])
def test_malformed_configuration_exits_config_code(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # argv's own flags come last, so its --out wins over the default one.
    rc = main(argv[:1] + ["--quiet", "--out", str(tmp_path)] + argv[1:])
    assert rc == ConfigError.exit_code == 2


def test_bad_log_level_exits_config_code(monkeypatch, tmp_path):
    monkeypatch.setenv("PSD_LOG_LEVEL", "chatty")
    assert main(["generate", "--out", str(tmp_path)]) == ConfigError.exit_code


def test_out_of_range_value_exits_invalid_input_code(tmp_path):
    rc = main(["generate", "--quiet", "--set", "mismatch_rate=1.5", "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3


def test_zero_inputs_exit_degenerate_code(tmp_path):
    # A linear image encoder starts with zero biases, so all-zero image
    # features map to zero vectors that cannot be normalized.
    spec = SyntheticSpec(num_classes=2, latent_dim=3, image_dim=4, text_dim=4,
                         samples_per_class=10)
    ds = generate(spec, RngState(0))
    path = tmp_path / "zeros.psdd"
    save_pairs(PairedDataset(np.zeros_like(ds.image_features), ds.text_features,
                             ds.pairing, ds.class_labels, ds.corrupted), path)
    rc = train_on(path, tmp_path, "--set", "image_hidden_dims=")
    assert rc == DegenerateInputError.exit_code == 4


@pytest.mark.parametrize("settings", [
    ["learning_rate=1e3"],                              # the logit scale underflows to 0
    ["learning_rate=1e3", "activation=relu", "learning_rate=1e300"],
    ["learning_rate=1", "weight_decay=1e300"],          # parameters overflow, scale stays > 0
    ["learning_rate=1", "weight_decay=1e308"],          # finite parameters, the encode overflows
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_diverged_run_exits_divergence_code(settings, tmp_path, caplog):
    argv = ["train", "--quiet", "--epochs", "2", "--out", str(tmp_path)]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == DivergenceError.exit_code == 6
    assert "training diverged at step" in caplog.text


@pytest.mark.parametrize("teacher_scale", [300, 1000])
def test_wide_teacher_scale_trains_finite(teacher_scale, tmp_path):
    # Teacher logits span up to 2 * teacher_scale, and the shared exponential
    # asks every logit to lie within 600 of the top. In this run every swapped
    # target comes from the shared exponential at 300 and from per-axis
    # passes at 1000.
    assert main(["train", "--quiet", "--epochs", "1", "--set", f"teacher_scale={teacher_scale}",
                 "--out", str(tmp_path)]) == 0
    image_params, text_params, temp, _ = load_checkpoint(tmp_path / "checkpoint")
    assert np.isfinite(image_params.flatten()).all() and np.isfinite(text_params.flatten()).all()
    assert 0.0 < temp.scale < math.inf


@pytest.mark.parametrize("offset, data, error, message", [
    (0, b"XXXX", BadMagicError, "expected magic"),
    (4, (7).to_bytes(4, "little"), VersionMismatchError, "version 7"),
    (8, (1 << 30).to_bytes(4, "little"), DimensionOverflowError, "exceeds"),
])
def test_corrupt_header_exits_file_format_code(pairs_file, tmp_path, caplog,
                                               offset, data, error, message):
    assert train_on(patched(pairs_file, offset, data), tmp_path) == error.exit_code == 5
    assert message in caplog.text


def test_truncated_file_exits_file_format_code(pairs_file, tmp_path, caplog):
    pairs_file.write_bytes(pairs_file.read_bytes()[:-9])
    assert train_on(pairs_file, tmp_path) == TruncatedFileError.exit_code == 5
    assert "header promises" in caplog.text


def test_truncated_file_in_eval_exits_file_format_code(pairs_file, tmp_path):
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--quiet", "--set", "samples_per_class=30", "--set", "batch_size=64",
                 "--epochs", "1", "--out", str(ckpt)]) == 0
    pairs_file.write_bytes(pairs_file.read_bytes()[:20])
    rc = main(["eval", "--quiet", str(ckpt / "checkpoint"), str(pairs_file),
               "--out", str(tmp_path / "eval")])
    assert rc == TruncatedFileError.exit_code


def test_missing_file_exits_one(tmp_path):
    assert train_on(tmp_path / "absent.psdd", tmp_path) == 1
