"""Every error class the CLI can raise reaches its exit code through
``cli.main``. A run that blows up fails the trainer's per-step health check,
or the next step's encode, with DivergenceError (code 6) before the objective
sees its non-finite or degenerate state as invalid input (code 3)."""

import math

import numpy as np
import pytest

from psdlab.cli import main
from psdlab.config import parse_config_text
from psdlab.data import PairedDataset, SyntheticSpec, generate, save_pairs
from psdlab.errors import (
    BadMagicError,
    ConfigError,
    DegenerateInputError,
    DimensionOverflowError,
    DivergenceError,
    InvalidInputError,
    TrailingBytesError,
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
    ["eval", "checkpoint", "pairs.psdd", "--set", "k_list="],
    ["train", "--out", "runs/#3"],                       # would read back as runs/
    ["train", "--dataset", "runs/#3.psdd"],              # would read back as runs/
])
def test_malformed_configuration_exits_config_code(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # argv's own flags come last, so its --out wins over the default one.
    rc = main(argv[:1] + ["--quiet", "--out", str(tmp_path)] + argv[1:])
    assert rc == ConfigError.exit_code == 2


def test_dataset_flag_is_recorded_in_resolved_config(pairs_file, tmp_path):
    # --dataset sets dataset_path, so the echoed configuration names the
    # file, and a run from it trains on that file to the same checkpoint.
    first, second = tmp_path / "first", tmp_path / "second"
    assert train_on(pairs_file, tmp_path, "--out", str(first)) == 0
    resolved = first / "config.resolved.txt"
    assert parse_config_text(resolved.read_text(encoding="utf-8")).dataset_path == str(pairs_file)
    assert main(["train", "--quiet", "--config", str(resolved), "--out", str(second)]) == 0
    files = sorted(p.name for p in (first / "checkpoint").iterdir())
    assert files == sorted(p.name for p in (second / "checkpoint").iterdir())
    for name in files:
        assert (first / "checkpoint" / name).read_bytes() == \
            (second / "checkpoint" / name).read_bytes(), name


def test_out_of_range_value_exits_invalid_input_code(tmp_path):
    rc = main(["generate", "--quiet", "--set", "mismatch_rate=1.5", "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3


@pytest.mark.parametrize("command, setting", [
    ("generate", "samples_per_class=16777217"),
    ("train", "embed_dim=16777217"),
])
def test_oversized_spec_value_exits_invalid_input_code(command, setting, tmp_path, caplog):
    # A count past 2^24 from the configuration is an input error; only one
    # read from a file header is a file-format error.
    rc = main([command, "--quiet", "--set", setting, "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3
    assert "exceeds 16777216" in caplog.text
    assert not (tmp_path / "dataset.psdd").exists()
    assert not (tmp_path / "metrics.jsonl").exists()


@pytest.mark.parametrize("command, flag", [
    ("train", "--target-mode"), ("train", "--partition-mode"),
    ("train", "--alpha-schedule"), ("eval", "--klist")])
def test_keys_are_set_with_set_alone(command, flag, capsys):
    # A key has one spelling on the command line: --set, or for seed,
    # out_dir, dataset_path and epochs a dedicated flag.
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert flag not in capsys.readouterr().out


def test_bootstrap_targets_under_tracking_teacher_exit_invalid_input_code(tmp_path, caplog):
    # The default teacher_scale = 0 tracks the student's scale.
    rc = main(["train", "--quiet", "--set", "target_mode=bootstrap", "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3
    assert "set teacher_scale" in caplog.text


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


@pytest.mark.parametrize("setting, message", [
    ("learning_rate=-0.001", "learning rate must lie in (0, inf)"),
    ("learning_rate=0", "learning rate must lie in (0, inf)"),
    ("learning_rate=nan", "learning rate must lie in (0, inf)"),
    ("learning_rate=inf", "learning rate must lie in (0, inf)"),
    ("weight_decay=-5", "weight decay must lie in [0, inf)"),
    ("weight_decay=nan", "weight decay must lie in [0, inf)"),
    ("beta1=1.5", "beta1 must lie in [0, 1)"),
    ("beta1=1", "beta1 must lie in [0, 1)"),
    ("beta2=-0.1", "beta2 must lie in [0, 1)"),
    ("beta2=nan", "beta2 must lie in [0, 1)"),
    ("adam_eps=-1", "adam eps must lie in (0, inf)"),
    ("adam_eps=0", "adam eps must lie in (0, inf)"),
    ("warmup_frac=2", "warmup frac must lie in [0, 1]"),
    ("warmup_frac=nan", "warmup frac must lie in [0, 1]"),
    ("eval_every=-1", "eval every must lie in [0, inf)"),
])
def test_optimizer_setting_outside_its_range_exits_invalid_input_code(setting, message,
                                                                     tmp_path, caplog):
    rc = main(["train", "--quiet", "--epochs", "2", "--set", setting, "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3
    assert message in caplog.text
    assert not (tmp_path / "metrics.jsonl").exists()


@pytest.mark.parametrize("target_mode", ["swapped", "bootstrap"])
@pytest.mark.parametrize("teacher_scale", ["-5", "nan", "inf", "1000"])
def test_teacher_scale_outside_its_range_exits_invalid_input_code(teacher_scale, target_mode,
                                                                  tmp_path, caplog):
    # Only 0 tracks the student's scale; a fixed scale lies in (0, 100], and
    # anything else fails before training starts, bootstrap targets included.
    rc = main(["train", "--quiet", "--set", f"target_mode={target_mode}",
               "--set", f"teacher_scale={teacher_scale}", "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3
    assert "teacher scale must lie in (0, 100]" in caplog.text
    assert not (tmp_path / "metrics.jsonl").exists()


@pytest.mark.parametrize("teacher_scale", [100, 100.5, 1000])
def test_wide_teacher_scale_trains_finite(teacher_scale, tmp_path):
    # Teacher logits span up to 2 * teacher_scale, and the shared exponential
    # asks every logit to lie within 600 of the top. A fixed teacher scale is
    # capped where the student's is, at 100, so its logits span at most 200;
    # above the cap the run fails before training starts.
    rc = main(["train", "--quiet", "--epochs", "1", "--set", f"teacher_scale={teacher_scale}",
               "--out", str(tmp_path)])
    if teacher_scale > 100:
        assert rc == InvalidInputError.exit_code == 3
        return
    assert rc == 0
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


def test_bytes_after_the_payload_exit_file_format_code(pairs_file, tmp_path, caplog):
    pairs_file.write_bytes(pairs_file.read_bytes() + b"\0" * 3)
    assert train_on(pairs_file, tmp_path) == TrailingBytesError.exit_code == 5
    assert "3 bytes follow the payload" in caplog.text


def test_truncated_file_in_eval_exits_file_format_code(pairs_file, tmp_path):
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--quiet", "--set", "samples_per_class=30", "--set", "batch_size=64",
                 "--epochs", "1", "--out", str(ckpt)]) == 0
    pairs_file.write_bytes(pairs_file.read_bytes()[:20])
    rc = main(["eval", "--quiet", str(ckpt / "checkpoint"), str(pairs_file),
               "--out", str(tmp_path / "eval")])
    assert rc == TruncatedFileError.exit_code


@pytest.mark.parametrize("offset, data, message", [
    (24, (1).to_bytes(4, "little"), "outside the header's 1 classes"),
    (-1, b"\x07", "flag byte 7"),
    (24, (3).to_bytes(4, "little"), "header promises 3 classes, labels use 2"),
])
def test_contradictory_payload_in_eval_exits_invalid_input_code(pairs_file, tmp_path, caplog,
                                                                offset, data, message):
    # A header class count below or above the labels', or a corrupted flag
    # byte past 1.
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--quiet", "--set", "samples_per_class=30", "--set", "batch_size=64",
                 "--epochs", "1", "--out", str(ckpt)]) == 0
    path = patched(pairs_file, offset % pairs_file.stat().st_size, data)
    rc = main(["eval", "--quiet", str(ckpt / "checkpoint"), str(path),
               "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert message in caplog.text


def test_missing_file_exits_one(tmp_path):
    assert train_on(tmp_path / "absent.psdd", tmp_path) == 1


@pytest.mark.parametrize("setting", ["histogram_bins=0", "histogram_bins=65537",
                                     "k_list=1,5,401", "ablate_seeds=0", "ablate_seeds=-1"])
def test_ablate_rejects_eval_settings_before_training(setting, tmp_path, monkeypatch, caplog):
    # The preset's held-out set is 40 images x 10 classes, and an ablation
    # needs at least one seed to tabulate; no pool is drawn.
    def no_pool(*args):
        raise AssertionError("ablate drew a pool before checking its evaluation settings")

    monkeypatch.setattr("psdlab.experiments.generate", no_pool)
    rc = main(["ablate", "--quiet", "--set", setting, "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3
    assert "must lie in" in caplog.text
    assert not (tmp_path / "ablation.json").exists()


def test_train_rejects_recall_cutoff_past_the_holdout_before_a_step(pairs_file, tmp_path):
    # 2 classes x 2 held-out images leave 4 pairs, too few for R@5.
    rc = train_on(pairs_file, tmp_path, "--set", "eval_every=1", "--set", "eval_per_class=2",
                  "--set", "k_list=1,5")
    assert rc == InvalidInputError.exit_code == 3
    assert not (tmp_path / "out" / "metrics.jsonl").exists()


@pytest.mark.parametrize("setting", ["histogram_bins=10000000", "k_list=1,21",
                                     "probe_l2=-1", "probe_l2=nan", "probe_l2=inf"])
def test_eval_rejects_settings_before_writing(setting, pairs_file, tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt"
    assert train_on(pairs_file, ckpt) == 0

    def no_scan(*args):
        raise AssertionError("eval scanned the scores before checking its settings")

    monkeypatch.setattr("psdlab.cli.score_eval", no_scan)
    rc = main(["eval", "--quiet", str(ckpt / "out" / "checkpoint"), str(pairs_file),
               "--set", setting, "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert not (tmp_path / "eval" / "report.json").exists()
