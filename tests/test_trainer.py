"""Determinism gates for the training loop: a run is a pure function of its
config and dataset, whatever the BLAS thread count. Also the checkpoint
files: they round-trip bit for bit, and a malformed trainer state fails
``psdlab eval`` with the file-format exit code. AdamW steps match the
scalar oracle, partitions follow their priorities, and the alpha schedule
runs between its endpoints."""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlab.cli import held_out_evals, main
from psdlab.data import SyntheticSpec, generate, save_pairs
from psdlab.errors import FileFormatError, InvalidInputError
from psdlab.model import EncoderSpec
from psdlab.numkit import RngState
from psdlab.objective import TemperatureParam, clamp_scale
from psdlab.trainer import (
    SCHEDULE_KINDS,
    AlphaSchedule,
    OptState,
    TrainConfig,
    adamw_step,
    alpha_at,
    load_checkpoint,
    make_partition,
    save_checkpoint,
    train,
)

from conftest import python_with_blas_threads
from oracles import adam_scalar_trajectory


SPEC = SyntheticSpec(num_classes=4, latent_dim=6, image_dim=12, text_dim=10,
                     samples_per_class=32, feature_noise_sigma=0.3,
                     mismatch_rate=0.25, captions_per_image=2)


def small_result(epochs: int = 3, after_epoch=None):
    """Train a small swapped/dynamic run with 2 captions per image, so every
    random stream of the trainer is drawn."""
    cfg = TrainConfig(image_encoder=EncoderSpec(12, (16,), 8),
                      text_encoder=EncoderSpec(10, (16,), 8),
                      batch_size=32, epochs=epochs, seed=9, learning_rate=1e-2,
                      target_mode="swapped", partition_mode="dynamic")
    return train(cfg, generate(SPEC, RngState(5)), after_epoch=after_epoch)


def small_run_bytes(result) -> bytes:
    """The final parameters of a run, the logit scale included, as bytes."""
    return (result.image_params.flatten().tobytes() + result.text_params.flatten().tobytes()
            + np.float64(result.temperature.log_scale).tobytes())


def small_run() -> tuple[bytes, list[dict]]:
    """The final-parameter bytes and the metrics history of small_result()."""
    result = small_result()
    return small_run_bytes(result), result.history


class TestTrainDeterminism:
    def test_two_runs_byte_identical(self):
        params_a, history_a = small_run()
        params_b, history_b = small_run()
        assert params_a == params_b
        assert json.dumps(history_a, sort_keys=True) == json.dumps(history_b, sort_keys=True)

    def test_blas_thread_count_does_not_change_parameters(self):
        script = ("import hashlib; from test_trainer import small_run; "
                  "print(hashlib.sha256(small_run()[0]).hexdigest())")
        digests = {threads: python_with_blas_threads(script, threads).strip() for threads in (1, 2)}
        assert digests[1] == digests[2]
        assert digests[1] == hashlib.sha256(small_run()[0]).hexdigest()


def test_held_out_evals_are_recorded_and_change_nothing():
    # The callback that psdlab train passes: one record per eval_every
    # epochs, each direction's fields named i2t_* or t2i_*.
    eval_ds = generate(SPEC, RngState(6))
    plain = small_result()
    fields = {"step", "epoch", "kind"} | {f"{d}_{m}" for d in ("i2t", "t2i")
                                          for m in ("r1", "r3", "mnr")}
    for every, epochs in ((1, [0, 1, 2]), (2, [1])):
        observed = small_result(after_epoch=held_out_evals(eval_ds, every, (1, 3)))
        evals = [r for r in observed.history if r.get("kind") == "eval"]
        assert [r["epoch"] for r in evals] == epochs
        assert [r["step"] for r in evals] == [4 * (e + 1) for e in epochs]
        assert all(r.keys() == fields for r in evals)
        # Observation never changes what is trained.
        assert json.dumps(observed.step_records()) == json.dumps(plain.history)
        assert small_run_bytes(observed) == small_run_bytes(plain)


def test_bootstrap_targets_need_a_fixed_teacher_scale():
    # A teacher that tracks the student's scale reads the student's own
    # logits, and bootstrap targets are then the student's own posteriors,
    # whose soft gradient is 0; swapped targets differ from them and train.
    encoder = EncoderSpec(12, (16,), 8)
    with pytest.raises(InvalidInputError, match="set teacher_scale"):
        TrainConfig(image_encoder=encoder, text_encoder=encoder, target_mode="bootstrap")
    TrainConfig(image_encoder=encoder, text_encoder=encoder, target_mode="bootstrap",
                teacher_scale=15.0)
    TrainConfig(image_encoder=encoder, text_encoder=encoder, target_mode="swapped")


@pytest.mark.parametrize("side, expects, has", [("image", 11, 12), ("text", 9, 10)])
def test_data_of_another_width_fails_in_the_first_encode(side, expects, has, tmp_path):
    # SPEC's data has 12 image and 10 text columns. ``encode`` is the one
    # judge of the widths: the run stops at step 0, before any update.
    encoders = {"image_encoder": EncoderSpec(12, (16,), 8),
                "text_encoder": EncoderSpec(10, (16,), 8)}
    encoders[f"{side}_encoder"] = EncoderSpec(expects, (16,), 8)
    metrics = tmp_path / "metrics.jsonl"
    with pytest.raises(InvalidInputError,
                       match=f"^input has {has} columns, encoder expects {expects}$"):
        train(TrainConfig(**encoders, batch_size=32, epochs=1), generate(SPEC, RngState(5)),
              metrics_path=metrics)
    assert metrics.read_text(encoding="utf-8") == ""


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        result = small_result()
        save_checkpoint(result, tmp_path)
        image_params, text_params, temp, state = load_checkpoint(tmp_path)
        assert image_params.flatten().tobytes() == result.image_params.flatten().tobytes()
        assert text_params.flatten().tobytes() == result.text_params.flatten().tobytes()
        assert image_params.spec == result.image_params.spec
        assert text_params.spec == result.text_params.spec
        assert np.float64(temp.log_scale).tobytes() == \
            np.float64(result.temperature.log_scale).tobytes()
        assert state == {"seed": 9, "steps": len(result.step_records()), "epochs": 3}

    def test_log_scale_at_the_clamp_loads(self, tmp_path):
        # The largest log-scale training writes is the bound load_checkpoint holds.
        result = small_result(epochs=1)
        result.temperature = clamp_scale(TemperatureParam(log_scale=10.0))
        save_checkpoint(result, tmp_path)
        assert load_checkpoint(tmp_path)[2] == result.temperature

    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw: b"XXXX" + raw[4:], "not a trainer state, expected magic"),
        (lambda raw: raw[:20], "trainer state header incomplete, 20 of 40 bytes"),
        (lambda raw: raw[:4] + (1).to_bytes(4, "little") + raw[8:],
         "trainer state version 1, expected 2"),
        (lambda raw: raw + b"\0" * 4, "4 bytes follow the payload of the trainer state"),
    ], ids=["bad_magic", "truncated_header", "version_1", "trailing_bytes"])
    def test_malformed_state_fails_eval(self, tmp_path, caplog, corrupt, message):
        ckpt = tmp_path / "checkpoint"
        save_checkpoint(small_result(epochs=1), ckpt)
        state = ckpt / "trainer_state.psdt"
        state.write_bytes(corrupt(state.read_bytes()))
        pairs = tmp_path / "pairs.psdd"
        save_pairs(generate(SPEC, RngState(5)), pairs)
        rc = main(["eval", "--quiet", str(ckpt), str(pairs), "--out", str(tmp_path / "eval")])
        assert rc == FileFormatError.exit_code == 5
        assert message in caplog.text


class TestAdamW:
    """``adamw_step`` against the plain-Python oracle over a warmup + cosine
    learning-rate schedule. Both sides round the same operations in the same
    order, so the trajectories agree exactly. The step updates its
    parameters in place and allocates no parameter-sized array."""

    @pytest.mark.parametrize("weight_decay, decay_mask", [
        (0.1, [1.0] * 7),
        (0.1, [1.0, 0.0, 1.0, 1.0, 0.5, 1.0, 0.0]),
        (0.0, [1.0] * 7),
    ], ids=["no_mask", "mask", "no_decay"])
    def test_matches_scalar_oracle(self, weight_decay, decay_mask):
        size, steps = 7, 12
        rng = RngState(11)
        p0 = rng.normals(size)
        grads = [rng.normals(size) for _ in range(steps)]
        opt = OptState(size=size, total_steps=steps, lr_max=0.05, warmup_steps=3,
                       weight_decay=weight_decay, beta1=0.9, beta2=0.999, eps=1e-8,
                       decay_mask=decay_mask)
        params, trajectory = p0.copy(), []
        for g in grads:
            assert adamw_step(params, g, opt) is params
            trajectory.append(params.copy())
        lrs = [opt.lr_at(t) for t in range(1, steps + 1)]
        assert len(set(lrs)) == steps
        expected = adam_scalar_trajectory(p0.tolist(), [g.tolist() for g in grads], lrs,
                                          opt.beta1, opt.beta2, opt.eps, weight_decay,
                                          decay_mask)
        for got, want in zip(trajectory, expected):
            np.testing.assert_array_equal(got, want)

    def test_step_allocates_less_than_one_parameter_array(self):
        size = 100_000
        rng = RngState(12)
        params, grads = rng.normals(size), rng.normals(size)
        opt = OptState(size=size, total_steps=10, lr_max=0.05, warmup_steps=2,
                       weight_decay=0.01, beta1=0.9, beta2=0.999, eps=1e-8,
                       decay_mask=np.ones(size))
        adamw_step(params, grads, opt)
        tracemalloc.start()
        try:
            adamw_step(params, grads, opt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes


@settings(max_examples=100, deadline=None)
@given(priority=st.lists(st.integers(0, 5), min_size=1, max_size=300), alpha=st.floats(0.0, 1.0))
def test_partition_aligns_the_lowest_priorities(priority, alpha):
    # Few distinct priorities make ties the rule; a tie goes to the lower row.
    n = len(priority)
    plan = make_partition(n, alpha, priority=np.array(priority))
    u = plan.unaligned_idx
    a = np.setdiff1d(np.arange(n), u)
    assert plan.n == n and a.size == int(np.floor(alpha * n))
    assert np.all(np.diff(u) > 0) and np.isin(u, np.arange(n)).all()
    if a.size and u.size:
        assert max((priority[i], i) for i in a) < min((priority[i], i) for i in u)


@pytest.mark.parametrize("alpha", [math.nan, -0.1, 1.5, math.inf, -math.inf, 1e308])
def test_partition_rejects_alpha_outside_the_unit_interval(alpha):
    # The plan's check is the only alpha rule; the split point must not
    # raise a bare ValueError or OverflowError before it runs.
    with pytest.raises(InvalidInputError, match="alpha must lie in"):
        make_partition(4, alpha, np.arange(4))


SCHEDULES = [(kind, start, end) for kind in SCHEDULE_KINDS
             for start, end in ((0.8, 0.2), (0.2, 0.8))]


@pytest.mark.parametrize("kind, start, end", SCHEDULES)
@pytest.mark.parametrize("total_steps", [1, 7, 40])
def test_alpha_schedule_meets_its_endpoints_to_one_ulp(kind, start, end, total_steps):
    # Exactly, within less than the one ulp of the larger endpoint that the
    # formula alone can miss by: a cosine 0.2 -> 0.8 would start at
    # 0.19999999999999996, and a linear 0.8 -> 0.2 would end there.
    schedule = AlphaSchedule(total_steps, start, end, kind)
    assert alpha_at(schedule, 0) == start
    assert alpha_at(schedule, total_steps) == end


def test_first_step_aligns_the_start_fraction_of_a_small_batch():
    # floor(5 * 0.2) = 1 aligned row; 0.19999999999999996 would give none.
    alpha = alpha_at(AlphaSchedule(30, 0.2, 0.8, "cosine"), 0)
    plan = make_partition(5, alpha, np.arange(5))
    assert plan.n - plan.unaligned_idx.size == 1


@pytest.mark.parametrize("kind, start, end", SCHEDULES)
def test_alpha_schedule_midpoints(kind, start, end):
    # Both kinds pass the mean of the endpoints halfway; a quarter of the
    # way, the cosine has covered (1 - cos(pi / 4)) / 2 of the distance.
    schedule = AlphaSchedule(40, start, end, kind)
    quarter = (1.0 - math.cos(math.pi / 4)) / 2 if kind == "cosine" else 0.25
    assert alpha_at(schedule, 20) == pytest.approx((start + end) / 2, abs=1e-15)
    assert alpha_at(schedule, 10) == pytest.approx(start + quarter * (end - start), abs=1e-15)


@pytest.mark.parametrize("name, value, message", [
    ("alpha_start", 1.5, "alpha_start must lie in [0, 1], got 1.5"),
    ("alpha_end", -0.1, "alpha_end must lie in [0, 1], got -0.1"),
    ("alpha_start", math.nan, "alpha_start must lie in [0, 1], got nan"),
    ("alpha_schedule", "step", "alpha_schedule must be one of ('cosine', 'linear'), got 'step'"),
    ("temperature_init", 0.0, "temperature_init must lie in (0, inf), got 0.0"),
    ("temperature_init", math.inf, "temperature_init must lie in (0, inf), got inf"),
    ("seed", -1, "seed must lie in [0, 2^64), got -1"),
    ("seed", 1 << 64, f"seed must lie in [0, 2^64), got {1 << 64}"),
])
def test_train_config_rejects_a_bad_setting(name, value, message):
    # The schedule, the temperature and the checkpoint's u64 seed take these
    # values from the config unchecked. Each message names the key as --set
    # spells it.
    encoder = EncoderSpec(12, (16,), 8)
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        TrainConfig(image_encoder=encoder, text_encoder=encoder, **{name: value})


@pytest.mark.parametrize("t", [-1, 11])
def test_alpha_at_rejects_a_step_outside_the_schedule(t):
    with pytest.raises(InvalidInputError, match=re.escape(f"step {t} outside [0, 10]")):
        alpha_at(AlphaSchedule(10, 0.8, 0.2, "linear"), t)


def test_alpha_endpoint_outside_the_unit_interval_fails_train(tmp_path, caplog):
    rc = main(["train", "--quiet", "--epochs", "1", "--set", "alpha_start=2",
               "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3
    assert "alpha_start must lie in [0, 1], got 2.0" in caplog.text
    assert not (tmp_path / "metrics.jsonl").exists()
