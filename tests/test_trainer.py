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

from psdlab.cli import main
from psdlab.data import SyntheticSpec, generate, save_pairs
from psdlab.errors import (
    BadMagicError,
    InvalidInputError,
    TrailingBytesError,
    TruncatedFileError,
    VersionMismatchError,
)
from psdlab.model import EncoderSpec
from psdlab.numkit import RngState
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


def small_result(epochs: int = 3, eval_ds=None, **overrides):
    """Train a small swapped/dynamic run with 2 captions per image, so every
    random stream of the trainer is drawn."""
    cfg = TrainConfig(image_encoder=EncoderSpec(12, (16,), 8),
                      text_encoder=EncoderSpec(10, (16,), 8),
                      batch_size=32, epochs=epochs, seed=9, learning_rate=1e-2,
                      target_mode="swapped", partition_mode="dynamic", **overrides)
    return train(cfg, generate(SPEC, RngState(5)), eval_ds=eval_ds)


def small_run() -> tuple[bytes, list[dict]]:
    """The final-parameter bytes and the metrics history of small_result()."""
    result = small_result()
    blob = (result.image_params.flatten().tobytes() + result.text_params.flatten().tobytes()
            + np.float64(result.temperature.log_scale).tobytes())
    return blob, result.history


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
    eval_ds = generate(SPEC, RngState(6))
    observed = small_result(eval_ds=eval_ds, eval_every=1, k_list=(1, 3))
    evals = [r for r in observed.history if r.get("kind") == "eval"]
    assert [r["epoch"] for r in evals] == [0, 1, 2]
    for r in evals:
        assert {f"{d}_r{k}" for d in ("i2t", "t2i") for k in (1, 3)} <= r.keys()
        assert "i2t_r10" not in r
    # Observation never changes what is trained.
    plain = small_result(eval_every=1, k_list=(1, 3))
    assert observed.step_records() == plain.step_records() == plain.history
    for name in ("image_params", "text_params"):
        assert getattr(observed, name).flatten().tobytes() == \
            getattr(plain, name).flatten().tobytes()
    assert observed.temperature.log_scale == plain.temperature.log_scale


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

    @pytest.mark.parametrize("corrupt, error", [
        (lambda raw: b"XXXX" + raw[4:], BadMagicError),
        (lambda raw: raw[:20], TruncatedFileError),
        (lambda raw: raw[:4] + (1).to_bytes(4, "little") + raw[8:], VersionMismatchError),
        (lambda raw: raw + b"\0" * 4, TrailingBytesError),
    ], ids=["bad_magic", "truncated_header", "version_1", "trailing_bytes"])
    def test_malformed_state_fails_eval(self, tmp_path, caplog, corrupt, error):
        ckpt = tmp_path / "checkpoint"
        save_checkpoint(small_result(epochs=1), ckpt)
        state = ckpt / "trainer_state.psdt"
        state.write_bytes(corrupt(state.read_bytes()))
        pairs = tmp_path / "pairs.psdd"
        save_pairs(generate(SPEC, RngState(5)), pairs)
        rc = main(["eval", "--quiet", str(ckpt), str(pairs), "--out", str(tmp_path / "eval")])
        assert rc == error.exit_code == 5
        assert "trainer state" in caplog.text


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


@pytest.mark.parametrize("total_steps, start, end, kind, message", [
    (0, 0.8, 0.2, "cosine", "schedule needs at least one step"),
    (10, 1.5, 0.2, "cosine", "alpha endpoints must lie in [0, 1], got 1.5"),
    (10, 0.8, -0.1, "linear", "alpha endpoints must lie in [0, 1], got -0.1"),
    (10, math.nan, 0.2, "linear", "alpha endpoints must lie in [0, 1], got nan"),
    (10, 0.8, 0.2, "step", "schedule kind must be one of ('cosine', 'linear')"),
])
def test_alpha_schedule_rejects_a_bad_setting(total_steps, start, end, kind, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        AlphaSchedule(total_steps, start, end, kind)


@pytest.mark.parametrize("t", [-1, 11])
def test_alpha_at_rejects_a_step_outside_the_schedule(t):
    with pytest.raises(InvalidInputError, match=re.escape(f"step {t} outside [0, 10]")):
        alpha_at(AlphaSchedule(10, 0.8, 0.2, "linear"), t)


def test_alpha_endpoint_outside_the_unit_interval_fails_train(tmp_path, caplog):
    rc = main(["train", "--quiet", "--epochs", "1", "--set", "alpha_start=2",
               "--out", str(tmp_path)])
    assert rc == InvalidInputError.exit_code == 3
    assert "alpha endpoints must lie in [0, 1], got 2.0" in caplog.text
    assert not (tmp_path / "metrics.jsonl").exists()
