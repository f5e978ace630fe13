import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdlab.errors import EmptyBatchError, InvalidInputError
from psdlab.gradcheck import central_difference, max_rel_error
from psdlab.numkit import RngState, normalize_rows_l2
from psdlab.objective import (
    EmbeddingBatch,
    PartitionPlan,
    SoftTargets,
    TemperatureParam,
    clamp_scale,
    info_nce,
    psd_loss,
    soft_targets_bootstrap,
    soft_targets_swapped,
)
from psdlab.trainer import make_partition

from conftest import python_with_blas_threads, unit_batch
from oracles import (
    bootstrap_targets_scalar,
    info_nce_scalar,
    psd_scalar,
    swapped_targets_scalar,
)


class TestTemperature:
    def test_clip_init_value_untouched(self):
        temp = TemperatureParam.from_temperature(0.07)
        assert temp.scale == pytest.approx(1.0 / 0.07, rel=1e-12)
        assert clamp_scale(temp).log_scale == temp.log_scale

    def test_clamps_above_hundred(self):
        temp = TemperatureParam(log_scale=math.log(150.0))
        assert clamp_scale(temp).scale == pytest.approx(100.0, rel=1e-12)

    def test_zero_untouched(self):
        assert clamp_scale(TemperatureParam(0.0)).log_scale == 0.0

    def test_rejects_bad_temperature(self):
        with pytest.raises(InvalidInputError):
            TemperatureParam.from_temperature(0.0)


class TestInfoNce:
    def test_single_pair_is_zero(self, rng):
        v, t = unit_batch(rng, 1, 6)
        lg = info_nce(EmbeddingBatch(v, t), TemperatureParam(1.0))
        assert lg.loss == 0.0
        assert np.all(lg.d_image == 0.0) and np.all(lg.d_text == 0.0)
        assert lg.d_log_scale == 0.0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_uniform_similarity_gives_two_log_n(self, n):
        v = np.tile(np.eye(1, 5), (n, 1))
        t = np.tile(normalize_rows_l2([[1.0, 1.0, 0.0, 0.0, 0.0]]), (n, 1))
        lg = info_nce(EmbeddingBatch(v, t), TemperatureParam.from_temperature(0.07))
        assert lg.loss == pytest.approx(2.0 * math.log(n), abs=1e-10)

    def test_triple_loop_oracle(self, rng):
        v, t = unit_batch(rng, 5, 7)
        scale = 3.7
        lg = info_nce(EmbeddingBatch(v, t), TemperatureParam(math.log(scale)))
        assert lg.loss == pytest.approx(info_nce_scalar(v.tolist(), t.tolist(), scale), abs=1e-10)

    def test_exact_at_extreme_logits(self, rng):
        # Rows of norm 3 at scale 100 spread the logits over about 1800, so
        # softmax probabilities underflow to 0; the loss must not.
        v, t = unit_batch(rng, 6, 4)
        v, t = 3.0 * v, 3.0 * t
        lg = info_nce(EmbeddingBatch(v, t), TemperatureParam(math.log(100.0)))
        assert lg.loss == pytest.approx(info_nce_scalar(v.tolist(), t.tolist(), 100.0), rel=1e-12)

    def test_finite_differences(self, rng):
        for _ in range(5):
            v, t = unit_batch(rng, 4, 3)
            s = 1.5

            def loss_of(vec):
                v2, t2 = vec[:12].reshape(4, 3), vec[12:24].reshape(4, 3)
                return info_nce(EmbeddingBatch(v2, t2), TemperatureParam(vec[-1])).loss

            lg = info_nce(EmbeddingBatch(v, t), TemperatureParam(s))
            analytic = np.concatenate([lg.d_image.ravel(), lg.d_text.ravel(), [lg.d_log_scale]])
            numeric = central_difference(loss_of, np.concatenate([v.ravel(), t.ravel(), [s]]))
            assert max_rel_error(analytic, numeric) < 1e-5

    def test_symmetric_in_modalities(self, rng):
        v, t = unit_batch(rng, 6, 4)
        temp = TemperatureParam(2.0)
        a = info_nce(EmbeddingBatch(v, t), temp)
        b = info_nce(EmbeddingBatch(t, v), temp)
        assert a.loss == pytest.approx(b.loss, abs=1e-12)

    def test_invariant_under_pair_relabeling(self, rng):
        v, t = unit_batch(rng, 7, 5)
        perm = RngState(5).permutation(7)
        temp = TemperatureParam(1.3)
        a = info_nce(EmbeddingBatch(v, t), temp)
        b = info_nce(EmbeddingBatch(v[perm], t[perm]), temp)
        assert a.loss == pytest.approx(b.loss, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatchError):
            info_nce(EmbeddingBatch(np.zeros((0, 3)), np.zeros((0, 3))), TemperatureParam(1.0))


class TestSoftTargets:
    def test_uniform_when_similarities_equal(self, rng):
        v = np.tile(np.eye(1, 4), (5, 1))
        t = v.copy()
        plan = make_partition(5, 0.4, rng=rng)
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            st = build(v, t, 7.0, plan)
            np.testing.assert_allclose(st.image_targets, 0.2, atol=1e-12)
            np.testing.assert_allclose(st.text_targets, 0.2, atol=1e-12)

    def test_uniform_in_small_scale_limit(self, rng):
        v, t = unit_batch(rng, 6, 5)
        plan = make_partition(6, 0.5, rng=rng)
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            st = build(v, t, 1e-9, plan)
            np.testing.assert_allclose(st.image_targets, 1.0 / 6.0, atol=1e-6)
            np.testing.assert_allclose(st.text_targets, 1.0 / 6.0, atol=1e-6)

    def test_swapped_scalar_definition_identity_sims(self):
        scale = 2.0
        v = np.eye(3)
        t = np.eye(3)
        plan = PartitionPlan(aligned_idx=[0, 1], unaligned_idx=[2], alpha=2 / 3)
        st = soft_targets_swapped(v, t, scale, plan)
        expected_v, expected_t = swapped_targets_scalar(v.tolist(), t.tolist(), scale, [2])
        np.testing.assert_allclose(st.image_targets, expected_v, atol=1e-12)
        np.testing.assert_allclose(st.text_targets, expected_t, atol=1e-12)
        assert np.argmax(st.image_targets[0]) == 2

    def test_swapped_scalar_oracle_random(self, rng):
        v, t = unit_batch(rng, 5, 4)
        plan = make_partition(5, 0.4, rng=rng)
        st = soft_targets_swapped(v, t, 3.0, plan)
        expected_v, expected_t = swapped_targets_scalar(
            v.tolist(), t.tolist(), 3.0, plan.unaligned_idx.tolist())
        np.testing.assert_allclose(st.image_targets, expected_v, atol=1e-12)
        np.testing.assert_allclose(st.text_targets, expected_t, atol=1e-12)

    def test_bootstrap_softmax_example(self):
        v = np.array([[2.0, 0.0], [0.0, 2.0]])
        t = np.eye(2)
        plan = PartitionPlan(aligned_idx=[0], unaligned_idx=[1], alpha=0.5)
        st = soft_targets_bootstrap(v, t, 1.0, plan)
        np.testing.assert_allclose(st.image_targets[0], [0.119203, 0.880797], atol=1e-6)

    def test_bootstrap_scalar_oracle_random(self, rng):
        v, t = unit_batch(rng, 6, 3)
        plan = make_partition(6, 0.5, rng=rng)
        st = soft_targets_bootstrap(v, t, 2.5, plan)
        expected_v, expected_t = bootstrap_targets_scalar(
            v.tolist(), t.tolist(), 2.5, plan.unaligned_idx.tolist())
        np.testing.assert_allclose(st.image_targets, expected_v, atol=1e-12)
        np.testing.assert_allclose(st.text_targets, expected_t, atol=1e-12)

    def test_swapped_equals_bootstrap_on_balanced_symmetric_sims(self):
        # Renormalized swapped targets match bootstrap when the exponentiated
        # similarity matrix has equal column sums; orthonormal shared
        # embeddings (identity similarities) are the canonical such instance.
        v = np.eye(4)
        t = np.eye(4)
        plan = PartitionPlan(aligned_idx=[0, 2], unaligned_idx=[1, 3], alpha=0.5)
        swapped = soft_targets_swapped(v, t, 3.0, plan)
        boot = soft_targets_bootstrap(v, t, 3.0, plan)
        np.testing.assert_allclose(swapped.image_targets, boot.image_targets, atol=1e-9)
        np.testing.assert_allclose(swapped.text_targets, boot.text_targets, atol=1e-9)

    def test_rows_sum_to_one(self, rng):
        v, t = unit_batch(rng, 8, 6)
        plan = make_partition(8, 0.25, rng=rng)
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            st = build(v, t, 11.0, plan)
            np.testing.assert_allclose(st.image_targets.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(st.text_targets.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), n=st.integers(1, 7), d=st.integers(1, 4),
           norms=st.lists(st.floats(0.0, 3.0), min_size=14, max_size=14),
           aligned=st.floats(0.0, 1.0), scale=st.floats(1e-3, 100.0))
    # Random draws rarely put a row or column max more than 600 below the
    # top, so these inputs, which do (by 1800, 1053 and 652), keep the
    # swapped targets' per-axis path under the oracles. In the fourth every
    # row and column max lies within 584 of the top, but text 1's largest
    # posterior, P(text 1 | image 0), comes from a logit 931 below the top,
    # whose exponential under the top underflows to 0.
    @example(seed=1, n=2, d=1, norms=[3.0] * 14, aligned=0.0, scale=100.0)
    @example(seed=1, n=5, d=2, norms=[3.0] * 14, aligned=0.4, scale=100.0)
    @example(seed=0, n=7, d=4, norms=[3.0] * 14, aligned=0.0, scale=100.0)
    @example(seed=307, n=3, d=2, norms=[3.0] * 14, aligned=0.0, scale=100.0)
    def test_rows_stochastic_and_equal_scalar_oracles(self, seed, n, d, norms, aligned, scale):
        # Rows of norm up to 3 at teacher scale up to 100 spread the logits
        # over up to 1800, so rows and columns have far-apart maxima and
        # whole posterior rows underflow; each softmax must shift by its own.
        rng = RngState(seed)
        v = normalize_rows_l2(rng.normals(n, d)) * np.array(norms[:n])[:, None]
        t = normalize_rows_l2(rng.normals(n, d)) * np.array(norms[n:2 * n])[:, None]
        n_aligned = math.floor(aligned * n)
        order = rng.permutation(n)
        plan = PartitionPlan(aligned_idx=order[:n_aligned], unaligned_idx=order[n_aligned:],
                             alpha=n_aligned / n)
        u = plan.unaligned_idx.tolist()
        for build, oracle in ((soft_targets_swapped, swapped_targets_scalar),
                              (soft_targets_bootstrap, bootstrap_targets_scalar)):
            out = build(v, t, scale, plan)
            expected_v, expected_t = oracle(v.tolist(), t.tolist(), scale, u)
            for got, expected in ((out.image_targets, expected_v), (out.text_targets, expected_t)):
                assert got.shape == (len(u), n)
                assert (got >= 0.0).all()
                np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got, np.reshape(expected, (len(u), n)),
                                           rtol=0, atol=1e-12)

    def test_swapped_row_whose_posteriors_all_underflow(self):
        # Image 1 trails image 0 by 1800 logits for every text, so each
        # P(image 1 | text j) underflows to 0; renormalized over the equal
        # texts, the row is still uniform.
        v = np.array([[3.0], [-3.0]])
        t = np.array([[3.0], [3.0]])
        plan = PartitionPlan(aligned_idx=[0], unaligned_idx=[1], alpha=0.5)
        out = soft_targets_swapped(v, t, 100.0, plan)
        np.testing.assert_array_equal(out.image_targets, [[0.5, 0.5]])
        np.testing.assert_array_equal(out.text_targets, [[0.5, 0.5]])

    @pytest.mark.parametrize("rows", [[[math.nan, math.nan]], [[0.5, math.nan]],
                                      [[math.inf, 0.5]], [[-math.inf, 1.0]]])
    @pytest.mark.parametrize("side", ["image_targets", "text_targets"])
    def test_non_finite_targets_rejected(self, rows, side):
        good = [[0.5, 0.5]]
        kwargs = {"image_targets": good, "text_targets": good, side: rows}
        with pytest.raises(InvalidInputError):
            SoftTargets(teacher_scale=1.0, **kwargs)

    def test_empty_unaligned_set(self, rng):
        v, t = unit_batch(rng, 4, 3)
        plan = make_partition(4, 1.0, rng=rng)
        st = soft_targets_swapped(v, t, 5.0, plan)
        assert st.image_targets.shape == (0, 4)
        assert st.text_targets.shape == (0, 4)


class TestPsdLoss:
    def _random_setup(self, rng, n=6, d=4, alpha=0.5, build=soft_targets_swapped):
        v, t = unit_batch(rng, n, d)
        temp = TemperatureParam(1.2)
        plan = make_partition(n, alpha, rng=rng)
        targets = build(v, t, temp.scale, plan)
        return EmbeddingBatch(v, t), temp, plan, targets

    def test_alpha_one_equals_info_nce(self, rng):
        batch, temp, plan, targets = self._random_setup(rng, alpha=1.0)
        a = psd_loss(batch, temp, plan, targets)
        b = info_nce(batch, temp)
        assert a.loss == pytest.approx(b.loss, abs=1e-12)
        np.testing.assert_allclose(a.d_image, b.d_image, atol=1e-12)
        np.testing.assert_allclose(a.d_text, b.d_text, atol=1e-12)
        assert a.d_log_scale == pytest.approx(b.d_log_scale, abs=1e-12)

    def test_alpha_zero_with_one_hot_targets_equals_info_nce(self, rng):
        v, t = unit_batch(rng, 5, 4)
        temp = TemperatureParam(0.8)
        plan = PartitionPlan(aligned_idx=[], unaligned_idx=np.arange(5), alpha=0.0)
        eye = np.eye(5)
        targets = SoftTargets(image_targets=eye, text_targets=eye, teacher_scale=1.0)
        a = psd_loss(EmbeddingBatch(v, t), temp, plan, targets)
        b = info_nce(EmbeddingBatch(v, t), temp)
        assert a.loss == pytest.approx(b.loss, abs=1e-12)
        np.testing.assert_allclose(a.d_image, b.d_image, atol=1e-12)

    def test_term_by_term_scalar_oracle(self, rng):
        batch, temp, plan, targets = self._random_setup(rng, n=6, d=4, alpha=0.5)
        lg = psd_loss(batch, temp, plan, targets)
        expected = psd_scalar(
            batch.image.tolist(), batch.text.tolist(), temp.scale,
            plan.aligned_idx.tolist(), plan.unaligned_idx.tolist(), plan.alpha,
            targets.image_targets.tolist(), targets.text_targets.tolist())
        assert lg.loss == pytest.approx(expected, abs=1e-10)

    def test_exact_at_extreme_logits(self, rng):
        v, t = unit_batch(rng, 6, 4)
        v, t = 3.0 * v, 3.0 * t
        temp = TemperatureParam(math.log(100.0))
        plan = make_partition(6, 0.5, rng=rng)
        targets = soft_targets_swapped(v, t, 1.0, plan)
        lg = psd_loss(EmbeddingBatch(v, t), temp, plan, targets)
        expected = psd_scalar(
            v.tolist(), t.tolist(), 100.0, plan.aligned_idx.tolist(),
            plan.unaligned_idx.tolist(), plan.alpha,
            targets.image_targets.tolist(), targets.text_targets.tolist())
        assert lg.loss == pytest.approx(expected, rel=1e-12)

    def test_finite_differences_both_target_kinds(self, rng):
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            batch, temp, plan, targets = self._random_setup(rng, n=5, d=3, alpha=0.4, build=build)
            n, d = 5, 3

            def loss_of(vec):
                v2 = vec[: n * d].reshape(n, d)
                t2 = vec[n * d: 2 * n * d].reshape(n, d)
                return psd_loss(EmbeddingBatch(v2, t2), TemperatureParam(vec[-1]),
                                plan, targets).loss

            lg = psd_loss(batch, temp, plan, targets)
            analytic = np.concatenate([lg.d_image.ravel(), lg.d_text.ravel(), [lg.d_log_scale]])
            x0 = np.concatenate([batch.image.ravel(), batch.text.ravel(), [temp.log_scale]])
            assert max_rel_error(analytic, central_difference(loss_of, x0)) < 1e-5

    def test_affine_in_alpha(self, rng):
        v, t = unit_batch(rng, 8, 5)
        temp = TemperatureParam(1.0)
        base = make_partition(8, 0.5, rng=rng)
        targets = soft_targets_swapped(v, t, temp.scale, base)
        batch = EmbeddingBatch(v, t)

        def at(alpha):
            plan = PartitionPlan(aligned_idx=base.aligned_idx,
                                 unaligned_idx=base.unaligned_idx, alpha=alpha)
            return psd_loss(batch, temp, plan, targets).loss

        hard, soft = at(1.0), at(0.0)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert at(alpha) == pytest.approx(alpha * hard + (1 - alpha) * soft, abs=1e-12)

    def test_self_distillation_has_no_collapse_fixed_point(self, rng):
        v, t = unit_batch(rng, 6, 4)
        temp = TemperatureParam.from_temperature(0.07)
        plan = make_partition(6, 0.5, rng=rng)
        targets = soft_targets_swapped(v, t, temp.scale, plan)
        lg = psd_loss(EmbeddingBatch(v, t), temp, plan, targets)
        assert math.isfinite(lg.loss)
        assert np.abs(lg.d_image).max() > 1e-6
        assert np.abs(lg.d_text).max() > 1e-6

    def test_targets_receive_no_gradient(self, rng):
        batch, temp, plan, targets = self._random_setup(rng)
        lg1 = psd_loss(batch, temp, plan, targets)
        # mutate the teacher path after construction; stored targets are constants
        mangled = SoftTargets(image_targets=targets.image_targets.copy(),
                              text_targets=targets.text_targets.copy(),
                              teacher_scale=999.0)
        lg2 = psd_loss(batch, temp, plan, mangled)
        assert lg1.loss == lg2.loss
        np.testing.assert_array_equal(lg1.d_image, lg2.d_image)
        np.testing.assert_array_equal(lg1.d_text, lg2.d_text)

    def test_plan_target_mismatch_rejected(self, rng):
        batch, temp, plan, targets = self._random_setup(rng, n=6, alpha=0.5)
        other_plan = make_partition(6, 0.9, rng=rng)
        with pytest.raises(InvalidInputError):
            psd_loss(batch, temp, other_plan, targets)

    def test_plan_validation(self):
        with pytest.raises(InvalidInputError):
            PartitionPlan(aligned_idx=[0, 1], unaligned_idx=[1, 2], alpha=0.5)
        with pytest.raises(InvalidInputError):
            PartitionPlan(aligned_idx=[0], unaligned_idx=[2], alpha=0.5)
        with pytest.raises(InvalidInputError):
            PartitionPlan(aligned_idx=[0], unaligned_idx=[1], alpha=1.5)


def d_log_scale_bits(seeds=range(5), n: int = 256, d: int = 64) -> list[str]:
    """The exact bits of d_log_scale from info_nce and psd_loss on seeded
    batches of the trainer's default size, where the gradient's n*n
    reduction is large enough for a threaded BLAS to split it."""
    bits = []
    for seed in seeds:
        rng = RngState(seed)
        v, t = unit_batch(rng, n, d)
        batch, temp = EmbeddingBatch(v, t), TemperatureParam.from_temperature(0.07)
        plan = make_partition(n, 0.37, rng=rng)
        targets = soft_targets_swapped(v, t, 15.0, plan)
        for lg in (info_nce(batch, temp), psd_loss(batch, temp, plan, targets)):
            bits.append(float.hex(lg.d_log_scale))
    return bits


def test_d_log_scale_independent_of_blas_threads():
    script = "from test_objective import d_log_scale_bits; print(*d_log_scale_bits())"
    bits = {threads: python_with_blas_threads(script, threads).split() for threads in (1, 2)}
    assert bits[1] == bits[2]
    assert bits[1] == d_log_scale_bits()
