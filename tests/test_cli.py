"""Every error class the CLI can raise reaches its exit code through
``cli.main``. A run that blows up fails the trainer's per-step health check,
or the next step's encode, with DivergenceError (code 6) before the objective
sees its non-finite or degenerate state as invalid input (code 3)."""

import hashlib
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from psdlab.cli import main
from psdlab.config import ExperimentConfig, parse_config_text
from psdlab.data import PairedDataset, SyntheticSpec, generate, load_pairs, save_pairs, take_subset
from psdlab.errors import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    FileFormatError,
    InvalidInputError,
)
from psdlab.model import load_params
from psdlab.numkit import RngState
from psdlab.objective import MAX_LOGIT_SCALE
from psdlab.trainer import load_checkpoint

from conftest import save_captionless_pairs


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


def test_generate_succeeds(tmp_path, capsys):
    # The printed digest is taken as the file is written, not read back.
    assert main(["generate", "--quiet", "--set", "samples_per_class=5",
                 "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.split("sha256:", 1)[1].split()[0]
    assert printed == hashlib.sha256((tmp_path / "dataset.psdd").read_bytes()).hexdigest()


def test_each_command_writes_exactly_its_files(tmp_path):
    # Each result is written once: config.resolved.txt is the one record of
    # the configuration, report.json the one record of eval's histograms.
    # The configuration is small enough for every command, ablate's preset included.
    config = tmp_path / "tiny.cfg"
    config.write_text("samples_per_class = 60\neval_per_class = 10\nbatch_size = 64\n"
                      "epochs = 2\nablate_seeds = 1\n", encoding="utf-8")
    gen, trained = tmp_path / "generate", tmp_path / "train"
    expected = {
        "generate": ["config.resolved.txt", "dataset.psdd"],
        "train": ["checkpoint/image_encoder.psdw", "checkpoint/text_encoder.psdw",
                  "checkpoint/trainer_state.psdt", "config.resolved.txt", "metrics.jsonl"],
        "eval": ["config.resolved.txt", "report.json"],
        "gradcheck": ["config.resolved.txt", "gradcheck.json"],
        "ablate": ["ablation.json", "config.resolved.txt"],
    }
    operands = {"eval": [str(trained / "checkpoint"), str(gen / "dataset.psdd")],
                "gradcheck": ["--seeds", "2"]}
    for command, files in expected.items():
        out = tmp_path / command
        assert main([command, "--quiet", "--config", str(config), "--out", str(out),
                     *operands.get(command, [])]) == 0, command
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) \
            == files, command


def test_eval_report_bytes(tmp_path, monkeypatch):
    # Pins report.json end to end: the dataset, the training, every
    # evaluation kernel and the report's layout. Like GOLDEN_DATASETS it
    # depends on the OpenBLAS build that numpy bundles, whose kernels set the
    # last bits of every matmul; it was taken with OpenBLAS 0.3.31. The report
    # names its inputs, so the paths are relative.
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--quiet", "--seed", "3", "--set", "samples_per_class=20",
                 "--out", "g"]) == 0
    assert main(["train", "--quiet", "--seed", "3", "--set", "samples_per_class=20",
                 "--set", "batch_size=16", "--epochs", "2", "--out", "t"]) == 0
    assert main(["eval", "--quiet", "t/checkpoint", "g/dataset.psdd", "--out", "e"]) == 0
    assert hashlib.sha256((tmp_path / "e" / "report.json").read_bytes()).hexdigest() == \
        "90e4c68e13ffc9c84ea440c1c26d15ddb0250963910d1fb6736d6ae1eabed327"


@pytest.mark.parametrize("eval_every, expected", [
    (0, {"checkpoint/image_encoder.psdw":
             "eb3de2acea99e4d311988fb6e132186454096ac5a51a278d18464b40b499fd08",
         "checkpoint/text_encoder.psdw":
             "161c5973f0602549069bdfa7a99252a676d77895eee40e02d961346749a75479",
         "checkpoint/trainer_state.psdt":
             "1421a185d0fbf6a87785a283df4537191bbf55949437912fdce5de49bbc7d10a",
         "metrics.jsonl": "b958b3a4fe973c8d9283ae5c7311b510864605b183ddc967bf130e5fb8448831"}),
    (1, {"checkpoint/image_encoder.psdw":
             "70bdb0f62853d33be26cf01acc23e89be1fedf9e79f35a87492b31b582bbe084",
         "checkpoint/text_encoder.psdw":
             "fca77d227be7fc683a07b26398e423ad4bbf14a87571843a7be727fbc031317b",
         "checkpoint/trainer_state.psdt":
             "b87c6da12e28f564ec31aa7c55361084273eb31abb411838bc0422dab2d45fe6",
         "metrics.jsonl": "965c969b29d362dde9b7778587d9387163b0710348a1775d83b401feb23c3eda"}),
], ids=["eval_every_0", "eval_every_1"])
def test_multi_caption_corrupted_train_bytes(eval_every, expected, tmp_path):
    # Pins train end to end where an image owns several captions and a
    # fifth of the images hold another's: the pool's caption blocks, each
    # epoch's caption choice and, with eval_every = 1, the clean holdout and
    # its evals; with 0 the run trains on the whole pool and logs steps
    # only. Like test_eval_report_bytes it was taken with OpenBLAS 0.3.31.
    assert main(["train", "--quiet", "--seed", "5", "--set", "samples_per_class=20",
                 "--set", "captions_per_image=3", "--set", "mismatch_rate=0.2",
                 "--set", f"eval_every={eval_every}", "--set", "eval_per_class=4",
                 "--set", "batch_size=16", "--epochs", "2", "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in expected}
    assert digests == expected


@pytest.mark.parametrize("argv", [
    ["generate", "--set", "samples_per_class"],          # --set without ''
    ["generate", "--set", "no_such_key=1"],
    ["generate", "--set", "samples_per_class=ten"],
    ["train", "--set", "k_list=1,x"],
    ["generate", "--config", "/nonexistent/psdlab.cfg"],
    ["ablate", "--set", "ablate_seeds=three"],           # not an integer
    ["eval", "checkpoint", "pairs.psdd", "--set", "probe_l2=small"],
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
    # file and records its feature sizes, which the encoders were built
    # for, and a run from it trains on that file to the same checkpoint.
    first, second = tmp_path / "first", tmp_path / "second"
    assert train_on(pairs_file, tmp_path, "--out", str(first)) == 0
    resolved = first / "config.resolved.txt"
    recorded = parse_config_text(resolved.read_text(encoding="utf-8"))
    assert recorded.dataset_path == str(pairs_file)
    assert (recorded.image_dim, recorded.text_dim) == (4, 4) != \
        (ExperimentConfig.image_dim, ExperimentConfig.text_dim)
    assert main(["train", "--quiet", "--config", str(resolved), "--out", str(second)]) == 0
    files = sorted(p.name for p in (first / "checkpoint").iterdir())
    assert files == sorted(p.name for p in (second / "checkpoint").iterdir())
    for name in files:
        assert (first / "checkpoint" / name).read_bytes() == \
            (second / "checkpoint" / name).read_bytes(), name


def no_pool(*args, **kwargs):
    raise AssertionError("a pool was drawn before the configuration was checked")


@pytest.mark.parametrize("setting", [
    ["--set", "samples_per_class=16777217"], ["--set", "embed_dim=16777217"],
    ["--set", "alpha_start=2"], ["--set", "temperature_init=0"],
    ["--set", "target_mode=sideways"], ["--seed", "-1"],
    ["--set", "histogram_bins=0"], ["--set", "histogram_bins=65537"],
    ["--set", "probe_l2=-1"], ["--set", "probe_l2=nan"], ["--set", "eval_per_class=0"],
    ["--set", "eval_every=1", "--set", "eval_per_class=-1"], ["--set", "ablate_seeds=0"],
    ["--set", "k_list=0,5"], ["--set", "k_list="],
], ids=" ".join)
@pytest.mark.parametrize("command", [["generate"], ["train"], ["eval", "checkpoint", "pairs.psdd"],
                                     ["gradcheck"], ["ablate"]], ids=lambda c: c[0])
def test_spec_rejects_a_value_before_the_command_writes(command, setting, tmp_path, monkeypatch):
    # Every command checks the whole configuration with the data, encoder
    # and training specs and the evaluation keys' check, keys it does not
    # read included, before it echoes the configuration, reads an input or
    # draws a pool.
    monkeypatch.setattr("psdlab.cli.generate", no_pool)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    out = tmp_path / "out"
    assert main([*command, "--quiet", "--out", str(out), *setting]) == \
        InvalidInputError.exit_code == 3
    assert not out.exists()


# One value that each key's judge rejects; None marks a free-form key.
REJECTED = {
    "num_classes": "1", "latent_dim": "0", "image_dim": "0", "text_dim": "0",
    "samples_per_class": "0", "feature_noise_sigma": "nan", "mismatch_rate": "1.5",
    "captions_per_image": "0", "dataset_path": None,
    "embed_dim": "0", "image_hidden_dims": "0", "text_hidden_dims": "0",
    "batch_size": "1", "epochs": "0", "seed": "-1", "learning_rate": "0",
    "weight_decay": "-1", "alpha_start": "2", "alpha_end": "-1", "target_mode": "sideways",
    "partition_mode": "sideways", "temperature_init": "0", "teacher_scale": "-1",
    "eval_every": "-1", "k_list": "0,5", "histogram_bins": "0", "probe_l2": "-1",
    "eval_per_class": "0", "ablate_seeds": "0", "out_dir": None,
}


def test_every_key_is_judged_before_the_command_writes(tmp_path, monkeypatch, caplog):
    # A key added without a judge, or whose judge runs only after the echo,
    # fails here, and so does a rejection that does not name its key. The
    # encoder spec judges both hidden-dims keys as its field hidden_dims.
    assert set(REJECTED) == {f.name for f in fields(ExperimentConfig)}
    monkeypatch.setattr("psdlab.cli.generate", no_pool)
    out = tmp_path / "out"
    for key, value in REJECTED.items():
        if value is not None:
            caplog.clear()
            rc = main(["generate", "--quiet", "--out", str(out), "--set", f"{key}={value}"])
            assert rc == InvalidInputError.exit_code, key
            assert not out.exists(), key
            named = "hidden_dims" if key.endswith("_hidden_dims") else key
            assert caplog.records[-1].getMessage().startswith(f"{named} must "), caplog.text


@pytest.mark.parametrize("key", ["warmup_frac", "beta1", "beta2", "adam_eps", "alpha_schedule"])
def test_a_trainer_constant_is_no_key(key, tmp_path, caplog):
    # No run varies the warmup, AdamW's moments and epsilon or the alpha
    # schedule's kind: TrainConfig holds them as constants, so --set cannot.
    out = tmp_path / "out"
    rc = main(["train", "--quiet", "--out", str(out), "--set", f"{key}=0.5"])
    assert rc == ConfigError.exit_code == 2
    assert f"unknown configuration key {key!r}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("mark", ["\n", "\r\n", "\x85", "\u2028"])
def test_out_dir_with_a_line_break_exits_config_code(mark, tmp_path, caplog):
    # config.resolved.txt would split the value over two lines, and the
    # second would not read back as 'key = value'.
    out = tmp_path / f"nl{mark}out"
    rc = main(["generate", "--quiet", "--set", "samples_per_class=5", "--out", str(out)])
    assert rc == ConfigError.exit_code == 2
    assert "out_dir cannot hold a line break" in caplog.text
    assert not out.exists() and list(tmp_path.iterdir()) == []


def test_out_dir_that_utf8_cannot_encode_exits_config_code(tmp_path, caplog):
    # An argv byte that is not UTF-8 reaches main as a lone surrogate, which
    # config.resolved.txt could not hold; it is refused before any write.
    out = tmp_path / "x\udcff"
    rc = main(["generate", "--quiet", "--set", "samples_per_class=5", "--out", str(out)])
    assert rc == ConfigError.exit_code == 2
    assert "out_dir must be UTF-8 text, got " in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_config_file_that_is_not_utf8_exits_config_code(tmp_path, caplog):
    config, out = tmp_path / "latin1.cfg", tmp_path / "out"
    config.write_bytes(b"out_dir = caf\xe9\n")
    rc = main(["generate", "--quiet", "--config", str(config), "--out", str(out)])
    assert rc == ConfigError.exit_code == 2
    assert f"cannot read config file {config}: 'utf-8' codec can't decode byte 0xe9" \
        in caplog.text
    assert not out.exists()


def test_pool_no_file_can_hold_exits_invalid_input_code(tmp_path, caplog):
    # load_pairs refuses a header with n > 2^24, so generate must not write one.
    out = tmp_path / "out"
    rc = main(["generate", "--quiet", "--set", "num_classes=2",
               "--set", f"samples_per_class={2**23 + 1}", "--out", str(out)])
    assert rc == InvalidInputError.exit_code == 3
    assert "num_classes * samples_per_class must lie in [1, 16777216]" in caplog.text
    assert not out.exists()


def test_noise_the_generator_cannot_honour_is_rejected_by_name(tmp_path, caplog):
    # Noise at 1e308 overflows the features to inf; the bound names the key
    # before any pool is drawn or file written.
    out = tmp_path / "out"
    rc = main(["generate", "--quiet", "--set", "feature_noise_sigma=1e308", "--out", str(out)])
    assert rc == InvalidInputError.exit_code == 3
    assert caplog.records[-1].getMessage() == \
        "feature_noise_sigma must lie in [0, 1e307], got 1e+308"
    assert not out.exists()


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
    key, value = setting.split("=")
    assert f"{key} must lie in [1, 16777216], got {value}" in caplog.text
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
                             ds.captions_per_image, ds.class_labels, ds.corrupted), path)
    rc = train_on(path, tmp_path, "--set", "image_hidden_dims=")
    assert rc == DegenerateInputError.exit_code == 4


@pytest.mark.parametrize("fill, rc", [
    pytest.param(1e200, 0, id="squares_overflow"),
    pytest.param(1.7e308, DegenerateInputError.exit_code, id="entries_overflow",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")),
])
def test_huge_inputs_train_unless_an_embedding_overflows(fill, rc, tmp_path, caplog):
    # A linear image encoder maps features of 1e200 to finite embeddings
    # whose squares overflow; they normalize and the run trains. At 1.7e308
    # an embedding entry itself overflows, and the first encode stops the run.
    spec = SyntheticSpec(num_classes=2, latent_dim=3, image_dim=4, text_dim=4,
                         samples_per_class=10)
    ds = generate(spec, RngState(0))
    path = tmp_path / "huge.psdd"
    save_pairs(PairedDataset(np.full_like(ds.image_features, fill), ds.text_features,
                             ds.captions_per_image, ds.class_labels, ds.corrupted), path)
    assert train_on(path, tmp_path, "--set", "image_hidden_dims=") == rc
    assert ("row 0 has norm inf" in caplog.text) == (rc != 0)


@pytest.mark.parametrize("settings, step, route", [
    # The logit scale underflows to 0; the step's health check stops the run.
    (["learning_rate=1e3"], 0,
     "logit scale 0.0, 0 non-finite parameters; the scale fell below its range [0.01, 100]"),
    # Parameters and scale overflow; the step's health check stops the run.
    (["learning_rate=1e200", "weight_decay=1e200"], 0,
     "logit scale nan, 11457 non-finite parameters"),
    # Finite parameters, the next step's encode overflows.
    (["learning_rate=1", "weight_decay=1e308"], 1, "step 1: row 0 has norm inf"),
    # The scale collapses (5.26, 0.90, 0.12, 0.025, 0.0066) with every
    # parameter finite; below 0.01 the logits span under 0.02 and the loss
    # sits at chance, so the health check stops the run at the floor.
    (["epochs=3", "learning_rate=3", "samples_per_class=60", "batch_size=32"], 4,
     "0 non-finite parameters; the scale fell below its range [0.01, 100]"),
], ids=["settings0", "settings1", "settings2", "scale_collapse"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_diverged_run_exits_divergence_code(settings, step, route, tmp_path, caplog):
    argv = ["train", "--quiet", "--out", str(tmp_path), "--set", "epochs=2"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == DivergenceError.exit_code == 6
    assert f"training diverged at step {step}: " in caplog.text
    assert route in caplog.text
    # The configuration was written before the first step. metrics.jsonl
    # fills as the run goes: it holds the record of every step before the
    # one that diverged, and nothing else.
    assert (tmp_path / "config.resolved.txt").is_file()
    k = int(re.search(r"training diverged at step (\d+)", caplog.text).group(1))
    records = [json.loads(line)
               for line in (tmp_path / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [r["step"] for r in records] == list(range(k))
    assert all(r.keys() == {"step", "epoch", "alpha", "loss", "lr", "scale"} for r in records)


@pytest.mark.parametrize("setting, message", [
    ("learning_rate=-0.001", "learning_rate must lie in (0, inf)"),
    ("learning_rate=0", "learning_rate must lie in (0, inf)"),
    ("learning_rate=nan", "learning_rate must lie in (0, inf)"),
    ("learning_rate=inf", "learning_rate must lie in (0, inf)"),
    ("weight_decay=-5", "weight_decay must lie in [0, inf)"),
    ("weight_decay=nan", "weight_decay must lie in [0, inf)"),
    ("eval_every=-1", "eval_every must lie in [0, inf)"),
])
def test_optimizer_setting_outside_its_range_exits_invalid_input_code(setting, message,
                                                                     tmp_path, caplog):
    rc = main(["train", "--quiet", "--epochs", "2", "--set", setting, "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3
    assert message in caplog.text
    assert not (tmp_path / "metrics.jsonl").exists()


@pytest.mark.parametrize("target_mode", ["swapped", "bootstrap"])
@pytest.mark.parametrize("teacher_scale", ["-5", "nan", "inf", "1000", "0.005"])
def test_teacher_scale_outside_its_range_exits_invalid_input_code(teacher_scale, target_mode,
                                                                  tmp_path, caplog):
    # 0 tracks the student's scale and a fixed scale lies in the scale's
    # range, [0.01, 100]; anything else fails before training starts,
    # bootstrap targets included.
    rc = main(["train", "--quiet", "--set", f"target_mode={target_mode}",
               "--set", f"teacher_scale={teacher_scale}", "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3
    assert "teacher_scale must be 0 or lie in [0.01, 100]" in caplog.text
    assert not (tmp_path / "metrics.jsonl").exists()


@pytest.mark.parametrize("tau", ["0.0099", "100.5", "0.001", "1000"])
def test_temperature_outside_the_scale_range_exits_invalid_input_code(tau, tmp_path, caplog):
    # tau = 1/scale, so tau's range is the scale's, [0.01, 100]. At 1000 a
    # run used to train at scale 0.001, at chance; at 0.001 the scale was
    # clamped to 100 while config.resolved.txt still recorded 0.001.
    out = tmp_path / "out"
    rc = main(["train", "--quiet", "--set", f"temperature_init={tau}", "--out", str(out)])
    assert rc == InvalidInputError.exit_code == 3
    assert f"temperature_init must lie in [0.01, 100], got {float(tau)!r}" in caplog.text
    assert not out.exists()


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


@pytest.mark.parametrize("offset, data, message", [
    (0, b"XXXX", "expected magic"),
    (4, (7).to_bytes(4, "little"), "version 7"),
    (8, (1 << 30).to_bytes(4, "little"), "header field n must lie in [0, 16777216]"),
])
def test_corrupt_header_exits_file_format_code(pairs_file, tmp_path, caplog,
                                               offset, data, message):
    assert train_on(patched(pairs_file, offset, data), tmp_path) == FileFormatError.exit_code == 5
    assert message in caplog.text
    assert not (tmp_path / "out").exists()


def test_zeroed_encoder_header_in_eval_exits_file_format_code(pairs_file, tmp_path, caplog):
    # A PSDW dimension outside [1, 2^24] is the file's fault, not a setting's.
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--quiet", "--set", "samples_per_class=30", "--set", "batch_size=64",
                 "--epochs", "1", "--out", str(ckpt)]) == 0
    encoder = patched(ckpt / "checkpoint" / "text_encoder.psdw", 12, (0).to_bytes(4, "little"))
    rc = main(["eval", "--quiet", str(ckpt / "checkpoint"), str(pairs_file),
               "--out", str(tmp_path / "eval")])
    assert rc == FileFormatError.exit_code == 5
    assert f"{encoder}: parameter file header field embed_dim must lie in [1, 16777216], got 0" \
        in caplog.text
    assert not (tmp_path / "eval").exists()


def test_eval_rejects_a_relu_encoder_file(pairs_file, tmp_path, caplog):
    # Activation code 1 is what a relu encoder wrote before tanh became the
    # only nonlinearity.
    ckpt = tmp_path / "ckpt"
    assert train_on(pairs_file, ckpt) == 0
    encoder = patched(ckpt / "out" / "checkpoint" / "image_encoder.psdw", 16,
                      (1).to_bytes(4, "little"))
    rc = main(["eval", "--quiet", str(ckpt / "out" / "checkpoint"), str(pairs_file),
               "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert f"{encoder}: unknown activation code 1" in caplog.text
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_eval_rejects_an_encoder_file_with_a_non_finite_parameter(value, pairs_file, tmp_path,
                                                                  caplog):
    # Training never writes one: its per-step health check stops the run.
    ckpt = tmp_path / "ckpt"
    assert train_on(pairs_file, ckpt) == 0
    encoder = ckpt / "out" / "checkpoint" / "text_encoder.psdw"
    count = load_params(encoder).spec.num_params
    patched(encoder, encoder.stat().st_size - 8, np.float64(value).tobytes())
    rc = main(["eval", "--quiet", str(ckpt / "out" / "checkpoint"), str(pairs_file),
               "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert caplog.records[-1].getMessage() == \
        f"{encoder}: 1 of {count} parameters are not finite"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("log_scale", [
    math.nan, math.inf, 1000.0, math.nextafter(math.log(MAX_LOGIT_SCALE), math.inf), -5.0,
], ids=["nan", "inf", "1000", "past_the_clamp", "below_the_floor"])
def test_eval_rejects_a_log_scale_training_cannot_write(log_scale, pairs_file, tmp_path,
                                                        caplog):
    # Training clamps the log-scale at log(MAX_LOGIT_SCALE) and stops a run
    # whose log-scale falls below -log(MAX_LOGIT_SCALE). A NaN one used to
    # write "temperature_scale": NaN into report.json, which is not JSON,
    # and 1000 overflowed in the scale's exp with a traceback.
    ckpt = tmp_path / "ckpt"
    assert train_on(pairs_file, ckpt) == 0
    state = patched(ckpt / "out" / "checkpoint" / "trainer_state.psdt", 32,
                    np.float64(log_scale).tobytes())  # after the 4s I Q Q Q header fields
    rc = main(["eval", "--quiet", str(ckpt / "out" / "checkpoint"), str(pairs_file),
               "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert caplog.records[-1].getMessage() == (
        f"{state}: temperature log-scale must lie in "
        f"[{-math.log(MAX_LOGIT_SCALE)!r}, {math.log(MAX_LOGIT_SCALE)!r}], got {log_scale!r}")
    assert not (tmp_path / "eval").exists()


def test_eval_rejects_encoders_of_two_embedding_sizes(pairs_file, tmp_path, caplog):
    # Each encoder file is whole; only together do they contradict, and
    # the message names the checkpoint before anything is encoded.
    for dim in (16, 32):
        assert train_on(pairs_file, tmp_path / str(dim), "--set", f"embed_dim={dim}") == 0
    ckpt = tmp_path / "16" / "out" / "checkpoint"
    (ckpt / "text_encoder.psdw").write_bytes(
        (tmp_path / "32" / "out" / "checkpoint" / "text_encoder.psdw").read_bytes())
    rc = main(["eval", "--quiet", str(ckpt), str(pairs_file), "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert (f"{ckpt}: both encoders must share the embedding dimension, "
            f"got image 16 and text 32") in caplog.text
    assert not (tmp_path / "eval").exists()


def test_truncated_file_exits_file_format_code(pairs_file, tmp_path, caplog):
    pairs_file.write_bytes(pairs_file.read_bytes()[:-9])
    assert train_on(pairs_file, tmp_path) == FileFormatError.exit_code == 5
    assert "payload holds" in caplog.text and "header promises" in caplog.text
    assert not (tmp_path / "out").exists()


def test_bytes_after_the_payload_exit_file_format_code(pairs_file, tmp_path, caplog):
    pairs_file.write_bytes(pairs_file.read_bytes() + b"\0" * 3)
    assert train_on(pairs_file, tmp_path) == FileFormatError.exit_code == 5
    assert "3 bytes follow the payload" in caplog.text
    assert not (tmp_path / "out").exists()


def test_truncated_file_in_eval_exits_file_format_code(pairs_file, tmp_path, caplog):
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--quiet", "--set", "samples_per_class=30", "--set", "batch_size=64",
                 "--epochs", "1", "--out", str(ckpt)]) == 0
    pairs_file.write_bytes(pairs_file.read_bytes()[:20])
    rc = main(["eval", "--quiet", str(ckpt / "checkpoint"), str(pairs_file),
               "--out", str(tmp_path / "eval")])
    assert rc == FileFormatError.exit_code
    assert "dataset header incomplete, 20 of 28 bytes" in caplog.text
    assert not (tmp_path / "eval").exists()


# pairs_file's first image feature: the header is 28 bytes.
NAN_FEATURE = (28, np.float64(np.nan).tobytes(), "image features contains NaN or Inf")


@pytest.mark.parametrize("offset, data, message", [
    (24, (1).to_bytes(4, "little"), "outside the header's 1 classes"),
    (-1, b"\x07", "flag byte 7"),
    (24, (3).to_bytes(4, "little"), "header promises 3 classes, labels use 2"),
    NAN_FEATURE,
])
def test_contradictory_payload_in_eval_exits_invalid_input_code(pairs_file, tmp_path, caplog,
                                                                offset, data, message):
    # A header class count below or above the labels', a corrupted flag
    # byte past 1, or a NaN feature.
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--quiet", "--set", "samples_per_class=30", "--set", "batch_size=64",
                 "--epochs", "1", "--out", str(ckpt)]) == 0
    path = patched(pairs_file, offset % pairs_file.stat().st_size, data)
    rc = main(["eval", "--quiet", str(ckpt / "checkpoint"), str(path),
               "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    logged = caplog.records[-1].getMessage()
    assert message in logged and logged.startswith(f"{path}: ") and logged.count(str(path)) == 1
    assert not (tmp_path / "eval").exists()


def test_train_names_the_dataset_whose_content_is_faulty(pairs_file, tmp_path, caplog):
    path = patched(pairs_file, *NAN_FEATURE[:2])
    assert train_on(path, tmp_path) == InvalidInputError.exit_code == 3
    assert caplog.records[-1].getMessage() == f"{path}: {NAN_FEATURE[2]}"
    assert not (tmp_path / "out").exists()


def test_missing_file_exits_one(tmp_path):
    assert train_on(tmp_path / "absent.psdd", tmp_path) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("side", ["image", "text"])
def test_dataset_without_feature_columns_exits_invalid_input_code_before_writing(
        side, pairs_file, tmp_path, caplog):
    # A PSDD header may hold a zero feature size, and train copies the
    # file's sizes into image_dim and text_dim: the message names the file
    # and the key.
    ds = load_pairs(pairs_file)
    features = {"image": ds.image_features, "text": ds.text_features}
    features[side] = features[side][:, :0]
    path = tmp_path / "empty_columns.psdd"
    save_pairs(PairedDataset(features["image"], features["text"], ds.captions_per_image,
                             ds.class_labels, ds.corrupted), path)
    assert train_on(path, tmp_path) == InvalidInputError.exit_code == 3
    assert f"{path}: {side}_dim must lie in [1, 16777216], got 0" in caplog.text
    assert not (tmp_path / "out").exists()


def test_dataset_smaller_than_a_batch_exits_invalid_input_code_before_writing(pairs_file,
                                                                             tmp_path, caplog):
    # The file holds 20 pairs.
    assert train_on(pairs_file, tmp_path, "--set", "batch_size=32") == InvalidInputError.exit_code
    assert "dataset has 20 rows, batch size is 32" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("side, width", [("image", 3), ("text", 2)])
def test_eval_names_the_dataset_whose_width_the_encoder_rejects(side, width, pairs_file,
                                                                tmp_path, caplog):
    # The checkpoint's encoders take pairs_file's 4 image and 4 text columns.
    ckpt = tmp_path / "ckpt"
    assert train_on(pairs_file, ckpt) == 0
    ds = load_pairs(pairs_file)
    features = {"image": ds.image_features, "text": ds.text_features}
    features[side] = features[side][:, :width]
    path = tmp_path / "narrow.psdd"
    save_pairs(PairedDataset(features["image"], features["text"], ds.captions_per_image,
                             ds.class_labels, ds.corrupted), path)
    rc = main(["eval", "--quiet", str(ckpt / "out" / "checkpoint"), str(path),
               "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert f"{path}: {side} features have {width} columns, the {side} encoder expects 4" \
        in caplog.text
    assert not (tmp_path / "eval").exists()


def test_eval_names_the_dataset_without_clean_images(pairs_file, tmp_path, caplog):
    # Every pair corrupted: no class has a clean caption for its prototype.
    ckpt = tmp_path / "ckpt"
    assert train_on(pairs_file, ckpt) == 0
    spec = SyntheticSpec(num_classes=2, latent_dim=3, image_dim=4, text_dim=4,
                         samples_per_class=10, mismatch_rate=1.0)
    path = tmp_path / "corrupted.psdd"
    save_pairs(generate(spec, RngState(0)), path)
    rc = main(["eval", "--quiet", str(ckpt / "out" / "checkpoint"), str(path),
               "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert f"{path}: class 0 has no uncorrupted images for a prototype" in caplog.text
    assert not (tmp_path / "eval").exists()


def test_images_without_captions_exit_file_format_code(pairs_file, tmp_path, caplog):
    # pairs_file's 20 images with no caption each, header m = 0: train and
    # eval used to fail on the first caption they took, eval with a traceback.
    ckpt = tmp_path / "ckpt"
    assert train_on(pairs_file, ckpt) == 0
    ds = load_pairs(pairs_file)
    path = tmp_path / "captionless.psdd"
    save_captionless_pairs(ds, path)
    message = f"{path}: dataset header field m must lie in [1, 16777216], got 0"
    assert train_on(path, tmp_path) == FileFormatError.exit_code == 5
    assert message in caplog.text
    caplog.clear()
    rc = main(["eval", "--quiet", str(ckpt / "out" / "checkpoint"), str(path),
               "--out", str(tmp_path / "eval")])
    assert rc == FileFormatError.exit_code
    assert message in caplog.text
    assert not (tmp_path / "out").exists() and not (tmp_path / "eval").exists()


@pytest.mark.parametrize("images, settings, message", [
    (np.arange(10), [], "linear probe requires at least 2 classes"),
    (np.arange(1), ["--set", "k_list=1"], "linear probe requires a nonempty train and test set"),
], ids=["one_class", "one_image"])
def test_eval_names_the_dataset_the_probe_rejects(images, settings, message, pairs_file,
                                                  tmp_path, caplog):
    # pairs_file's first 10 images are class 0; one image leaves the probe's
    # train split (every fifth image is a test image) empty.
    ckpt = tmp_path / "ckpt"
    assert train_on(pairs_file, ckpt) == 0
    path = tmp_path / "subset.psdd"
    save_pairs(take_subset(load_pairs(pairs_file), images), path)
    rc = main(["eval", "--quiet", str(ckpt / "out" / "checkpoint"), str(path), *settings,
               "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert f"{path}: {message}" in caplog.text
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("images", [0, 4])
def test_eval_names_the_dataset_with_fewer_pairs_than_a_k(images, pairs_file, tmp_path, caplog):
    # The default k_list (1, 5, 10) ranks more pairs than the file holds.
    ckpt = tmp_path / "ckpt"
    assert train_on(pairs_file, ckpt) == 0
    path = tmp_path / "subset.psdd"
    save_pairs(take_subset(load_pairs(pairs_file), np.arange(images)), path)
    rc = main(["eval", "--quiet", str(ckpt / "out" / "checkpoint"), str(path),
               "--out", str(tmp_path / "eval")])
    assert rc == InvalidInputError.exit_code == 3
    assert f"{path}: k_list must not exceed the {images} pairs ranked" in caplog.text
    assert not (tmp_path / "eval").exists()


def test_missing_checkpoint_in_eval_exits_one(pairs_file, tmp_path):
    rc = main(["eval", "--quiet", str(tmp_path / "absent"), str(pairs_file),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert not (tmp_path / "eval").exists()


def test_generator_rule_exits_invalid_input_code_before_writing(tmp_path, caplog):
    # floor(0.015 * 100) = 1 corrupted pair cannot be swapped with another.
    out = tmp_path / "out"
    rc = main(["generate", "--quiet", "--set", "samples_per_class=10",
               "--set", "mismatch_rate=0.015", "--out", str(out)])
    assert rc == InvalidInputError.exit_code == 3
    assert "mismatch_rate must corrupt 0 or at least 2 of the 100 images" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("setting", ["histogram_bins=0", "histogram_bins=65537",
                                     "k_list=1,5,401", "ablate_seeds=0", "ablate_seeds=-1",
                                     "eval_per_class=-1", "mismatch_rate=0.0005"])
def test_ablate_rejects_eval_settings_before_training(setting, tmp_path, monkeypatch, caplog):
    # The preset's held-out set is 40 images x 10 classes, an ablation needs
    # at least one seed to tabulate, and floor(0.0005 * 2400) = 1 corrupted
    # image has no other to swap captions with; no pool is drawn. The
    # message names the key and the value given.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    out = tmp_path / "out"
    rc = main(["ablate", "--quiet", "--set", setting, "--out", str(out)])
    assert rc == InvalidInputError.exit_code == 3
    key, value = setting.split("=")
    assert re.search(rf"{key} must .*, got \[?{value.replace(',', ', ')}", caplog.text)
    assert not out.exists()


def test_ablate_rejects_a_variant_before_training(tmp_path, monkeypatch, caplog):
    # teacher_scale = 0 tracks the student's scale, which the bootstrap
    # variant cannot train with; the message names that variant, and no
    # pool is drawn.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    out = tmp_path / "out"
    rc = main(["ablate", "--quiet", "--set", "teacher_scale=0", "--out", str(out)])
    assert rc == InvalidInputError.exit_code == 3
    assert "bootstrap_static: bootstrap targets at the student's scale" in caplog.text
    assert "set teacher_scale in [0.01, 100]" in caplog.text
    assert not out.exists()


def test_ablate_holdout_past_the_clean_images_exits_invalid_input_code(tmp_path, caplog):
    # The preset's pool holds about 180 clean images per class. The worker
    # that generates and splits a seed's pool raises, and the CLI exits with
    # the split's message before it writes.
    out = tmp_path / "out"
    rc = main(["ablate", "--quiet", "--set", "eval_per_class=200", "--out", str(out)])
    assert rc == InvalidInputError.exit_code == 3
    assert re.search(r"class \d+ has only \d+ uncorrupted images, eval_per_class needs 200",
                     caplog.text)
    assert not out.exists()


@pytest.mark.parametrize("images, per_class, message", [
    (np.arange(0), 1, "the dataset has no class to hold images out of"),
    (np.arange(20), 11, "class 0 has only 10 uncorrupted images, eval_per_class needs 11"),
], ids=["empty", "few_clean"])
def test_train_names_the_dataset_its_holdout_rejects(images, per_class, message, pairs_file,
                                                     tmp_path, caplog):
    # pairs_file holds 10 clean images per class; an empty file loads, but
    # has no class to carve a holdout from.
    path = tmp_path / "subset.psdd"
    save_pairs(take_subset(load_pairs(pairs_file), images), path)
    rc = train_on(path, tmp_path, "--set", "eval_every=1", "--set", f"eval_per_class={per_class}")
    assert rc == InvalidInputError.exit_code == 3
    assert f"{path}: {message}" in caplog.text
    assert not (tmp_path / "out").exists()


def test_train_rejects_recall_cutoff_past_the_holdout_before_a_step(pairs_file, tmp_path):
    # 2 classes x 2 held-out images leave 4 pairs, too few for R@5.
    rc = train_on(pairs_file, tmp_path, "--set", "eval_every=1", "--set", "eval_per_class=2",
                  "--set", "k_list=1,5")
    assert rc == InvalidInputError.exit_code == 3
    assert not (tmp_path / "out").exists()


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
    assert not (tmp_path / "eval").exists()
