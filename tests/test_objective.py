import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from psdlab.errors import InvalidInputError
from psdlab.gradcheck import central_difference, max_rel_error
from psdlab.numkit import SHARED_EXP_SPAN, RngState, contrastive_xent, normalize_rows_l2
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
    dense_xent,
    info_nce_scalar,
    psd_scalar,
    swapped_targets_scalar,
    target_rows,
)


def aligned_rows(plan: PartitionPlan) -> np.ndarray:
    """The rows of the plan's batch that are not unaligned, ascending."""
    return np.setdiff1d(np.arange(plan.n), plan.unaligned_idx)


def widest_batch(rng, n: int = 6, d: int = 4):
    """Unit rows with pair 0 antipodal and pair 1 equal: at scale 100, the
    cap on both the student's and a fixed teacher's, their logits are -100
    and 100, the widest span, 200, that a training run's logits reach."""
    v, t = unit_batch(rng, n, d)
    t[0], t[1] = -v[0], v[1]
    logits = (100.0 * v) @ t.T
    assert logits.max() - logits.min() == pytest.approx(200.0, rel=1e-15)
    return v, t


def spans_past_600(scale: float, v, t) -> bool:
    """Whether (scale * v) t^T, formed as the package forms it, spans more
    than the shared exponential admits."""
    logits = (scale * v) @ t.T
    return logits.max() - logits.min() > SHARED_EXP_SPAN


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
        # At the widest span a training run reaches, 200, softmax
        # probabilities come down to about e**-200; the loss must stay exact.
        # Rows of norm 3 spread the logits over up to 1800, past the 600 the
        # kernel's one exponential admits, and are rejected.
        v, t = widest_batch(rng)
        temp = TemperatureParam(math.log(100.0))
        lg = info_nce(EmbeddingBatch(v, t), temp)
        assert lg.loss == pytest.approx(info_nce_scalar(v.tolist(), t.tolist(), temp.scale),
                                        rel=1e-12)
        with pytest.raises(InvalidInputError, match="span"):
            info_nce(EmbeddingBatch(3.0 * v, 3.0 * t), temp)

    def test_finite_differences(self, rng):
        for v, t, s in [(*unit_batch(rng, 4, 3), 1.5) for _ in range(5)]:
            n, d = v.shape

            def loss_of(vec):
                v2, t2 = vec[: n * d].reshape(n, d), vec[n * d: 2 * n * d].reshape(n, d)
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
        with pytest.raises(InvalidInputError, match="info_nce requires at least one pair"):
            info_nce(EmbeddingBatch(np.zeros((0, 3)), np.zeros((0, 3))), TemperatureParam(1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["image", "text"])
@pytest.mark.parametrize("row", [0, 4])
def test_non_finite_embedding_rejected(rng, value, side, row):
    # EmbeddingBatch does not scan its matrices either: a NaN or infinite
    # entry leaves a whole row or column of the student's logits NaN or
    # infinite, which fails the span check of the loss kernel's exponential
    # before any product with the soft targets, so nothing warns on the way.
    v, t = unit_batch(rng, 5, 3)
    temp = TemperatureParam(1.2)
    plan = make_partition(5, 0.4, rng.permutation(5))
    targets = soft_targets_swapped(v, t, temp.scale, plan)
    (v if side == "image" else t)[row, 1] = value
    batch = EmbeddingBatch(v, t)
    with pytest.raises(InvalidInputError, match="span"):
        info_nce(batch, temp)
    with pytest.raises(InvalidInputError, match="span"):
        psd_loss(batch, temp, plan, targets)


def test_embedding_shapes_checked():
    v = np.zeros((4, 3))
    for image, text in ((v[0], v[0]), (v[None], v[None]), (v, v[:, :2]), (v, v[:3])):
        with pytest.raises(InvalidInputError, match="embeddings must be 2-D and share a shape"):
            EmbeddingBatch(image, text)


class TestSoftTargets:
    def test_uniform_when_similarities_equal(self, rng):
        v = np.tile(np.eye(1, 4), (5, 1))
        t = v.copy()
        plan = make_partition(5, 0.4, rng.permutation(5))
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            for rows in target_rows(build(v, t, 7.0, plan), plan.unaligned_idx):
                np.testing.assert_allclose(rows, 0.2, atol=1e-12)

    def test_uniform_in_small_scale_limit(self, rng):
        v, t = unit_batch(rng, 6, 5)
        plan = make_partition(6, 0.5, rng.permutation(6))
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            for rows in target_rows(build(v, t, 1e-9, plan), plan.unaligned_idx):
                np.testing.assert_allclose(rows, 1.0 / 6.0, atol=1e-6)

    def test_swapped_scalar_definition_identity_sims(self):
        scale = 2.0
        v = np.eye(3)
        t = np.eye(3)
        plan = PartitionPlan(n=3, unaligned_idx=[2], alpha=2 / 3)
        image, text = target_rows(soft_targets_swapped(v, t, scale, plan), plan.unaligned_idx)
        expected_v, expected_t = swapped_targets_scalar(v.tolist(), t.tolist(), scale, [2])
        np.testing.assert_allclose(image, expected_v, atol=1e-12)
        np.testing.assert_allclose(text, expected_t, atol=1e-12)
        assert np.argmax(image[0]) == 2

    def test_swapped_scalar_oracle_random(self, rng):
        v, t = unit_batch(rng, 5, 4)
        plan = make_partition(5, 0.4, rng.permutation(5))
        image, text = target_rows(soft_targets_swapped(v, t, 3.0, plan), plan.unaligned_idx)
        expected_v, expected_t = swapped_targets_scalar(
            v.tolist(), t.tolist(), 3.0, plan.unaligned_idx.tolist())
        np.testing.assert_allclose(image, expected_v, atol=1e-12)
        np.testing.assert_allclose(text, expected_t, atol=1e-12)

    def test_bootstrap_softmax_example(self):
        v = np.array([[2.0, 0.0], [0.0, 2.0]])
        t = np.eye(2)
        plan = PartitionPlan(n=2, unaligned_idx=[1], alpha=0.5)
        image, _ = target_rows(soft_targets_bootstrap(v, t, 1.0, plan), plan.unaligned_idx)
        np.testing.assert_allclose(image[0], [0.119203, 0.880797], atol=1e-6)

    def test_bootstrap_scalar_oracle_random(self, rng):
        v, t = unit_batch(rng, 6, 3)
        plan = make_partition(6, 0.5, rng.permutation(6))
        image, text = target_rows(soft_targets_bootstrap(v, t, 2.5, plan), plan.unaligned_idx)
        expected_v, expected_t = bootstrap_targets_scalar(
            v.tolist(), t.tolist(), 2.5, plan.unaligned_idx.tolist())
        np.testing.assert_allclose(image, expected_v, atol=1e-12)
        np.testing.assert_allclose(text, expected_t, atol=1e-12)

    @pytest.mark.parametrize("build, oracle", [(soft_targets_swapped, swapped_targets_scalar),
                                               (soft_targets_bootstrap, bootstrap_targets_scalar)])
    def test_exact_at_widest_span(self, rng, build, oracle):
        # Teacher scale 100 on unit rows with an antipodal and an equal pair:
        # logits span 200, and posteriors come down to about e**-200.
        v, t = widest_batch(rng)
        plan = PartitionPlan(n=6, unaligned_idx=[5, 4, 2, 1, 0], alpha=1 / 6)
        expected = oracle(v.tolist(), t.tolist(), 100.0, plan.unaligned_idx.tolist())
        for got, want in zip(target_rows(build(v, t, 100.0, plan), plan.unaligned_idx), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_swapped_equals_bootstrap_on_balanced_symmetric_sims(self):
        # Renormalized swapped targets match bootstrap when the exponentiated
        # similarity matrix has equal column sums; orthonormal shared
        # embeddings (identity similarities) are the canonical such instance.
        v = np.eye(4)
        t = np.eye(4)
        plan = PartitionPlan(n=4, unaligned_idx=[1, 3], alpha=0.5)
        swapped = target_rows(soft_targets_swapped(v, t, 3.0, plan), plan.unaligned_idx)
        boot = target_rows(soft_targets_bootstrap(v, t, 3.0, plan), plan.unaligned_idx)
        for a, b in zip(swapped, boot):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rows_sum_to_one(self, rng):
        v, t = unit_batch(rng, 8, 6)
        plan = make_partition(8, 0.25, rng.permutation(8))
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            for rows in target_rows(build(v, t, 11.0, plan), plan.unaligned_idx):
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), n=st.integers(1, 7), d=st.integers(1, 4),
           norms=st.lists(st.floats(0.0, 3.0), min_size=14, max_size=14),
           aligned=st.floats(0.0, 1.0), scale=st.floats(1e-3, 100.0))
    # These inputs put a row or column max more than 600 below the top (by
    # 1800, 1053 and 652), or, in the fourth, text 1's largest posterior,
    # P(text 1 | image 0), on a logit 931 below it: the teacher rejects all
    # four.
    @example(seed=1, n=2, d=1, norms=[3.0] * 14, aligned=0.0, scale=100.0)
    @example(seed=1, n=5, d=2, norms=[3.0] * 14, aligned=0.4, scale=100.0)
    @example(seed=0, n=7, d=4, norms=[3.0] * 14, aligned=0.0, scale=100.0)
    @example(seed=307, n=3, d=2, norms=[3.0] * 14, aligned=0.0, scale=100.0)
    def test_rows_stochastic_and_equal_scalar_oracles(self, seed, n, d, norms, aligned, scale):
        # Rows of norm up to 3 at teacher scale up to 100 spread the logits
        # over up to 1800. Up to 600 the teacher's targets must equal the
        # oracles', which shift each softmax by its own max; past it the
        # teacher must reject the batch.
        rng = RngState(seed)
        v = normalize_rows_l2(rng.normals(n, d)) * np.array(norms[:n])[:, None]
        t = normalize_rows_l2(rng.normals(n, d)) * np.array(norms[n:2 * n])[:, None]
        n_aligned = math.floor(aligned * n)
        order = rng.permutation(n)
        plan = PartitionPlan(n=n, unaligned_idx=order[n_aligned:], alpha=n_aligned / n)
        u = plan.unaligned_idx.tolist()
        rejected = spans_past_600(scale, v, t)
        event("rejected" if rejected else "accepted")
        for build, oracle in ((soft_targets_swapped, swapped_targets_scalar),
                              (soft_targets_bootstrap, bootstrap_targets_scalar)):
            if rejected:
                with pytest.raises(InvalidInputError, match="span"):
                    build(v, t, scale, plan)
                continue
            out = target_rows(build(v, t, scale, plan), plan.unaligned_idx)
            for got, expected in zip(out, oracle(v.tolist(), t.tolist(), scale, u)):
                assert got.shape == (len(u), n)
                assert (got >= 0.0).all()
                np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got, np.reshape(expected, (len(u), n)),
                                           rtol=0, atol=1e-12)

    def test_swapped_row_whose_posteriors_all_underflow(self):
        # Image 1 trails image 0 by 1800 logits for every text, so each
        # P(image 1 | text j) would underflow to 0 under one exponential: the
        # logits span past 600 and the teacher rejects them.
        v = np.array([[3.0], [-3.0]])
        t = np.array([[3.0], [3.0]])
        plan = PartitionPlan(n=2, unaligned_idx=[1], alpha=0.5)
        with pytest.raises(InvalidInputError, match="span"):
            soft_targets_swapped(v, t, 100.0, plan)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["image", "text"])
    @pytest.mark.parametrize("row", [0, 4])
    def test_non_finite_teacher_input_rejected(self, rng, value, side, row):
        # The teacher does not scan its inputs: a NaN or infinite entry makes
        # a whole row or column of its logits NaN or infinite, which fails the
        # span check of its exponential.
        v, t = unit_batch(rng, 5, 3)
        (v if side == "image" else t)[row, 1] = value
        plan = make_partition(5, 0.4, rng.permutation(5))
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            with pytest.raises(InvalidInputError, match="span"):
                build(v, t, 5.0, plan)

    def test_teacher_input_shapes_checked(self, rng):
        v, t = unit_batch(rng, 4, 3)
        plan = make_partition(4, 0.5, rng.permutation(4))
        for bad_v, bad_t in ((v[0], t[0]), (v[None], t[None]), (v, t[:, :2]), (v[:3], t[:3])):
            with pytest.raises(InvalidInputError, match="teacher matrices"):
                soft_targets_swapped(bad_v, bad_t, 5.0, plan)
        # The scale has no cap here: the clamped student's is 3 ulps above 100.
        for scale in (0.0, -1.0, math.nan, math.inf):
            for build in (soft_targets_swapped, soft_targets_bootstrap):
                with pytest.raises(InvalidInputError, match=re.escape(
                        f"teacher_scale must lie in (0, inf), got {scale!r}")):
                    build(v, t, scale, plan)

    @pytest.mark.parametrize("rows", [[[math.nan, math.nan]], [[0.5, math.nan]],
                                      [[math.inf, 0.5]], [[-math.inf, 1.0]]])
    @pytest.mark.parametrize("side", ["image_targets", "text_targets"])
    def test_non_finite_targets_rejected(self, rows, side):
        # The bad row laid into the block: an image row as row 0, a text row
        # as column 0.
        block = np.full((2, 2), 0.5)
        if side == "image_targets":
            block[0] = rows[0]
        else:
            block[:, 0] = rows[0]
        with pytest.raises(InvalidInputError):
            SoftTargets(block, np.ones(2), np.ones(2))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("which", ["p", "g", "r", "s"])
    def test_bad_scale_rejected(self, rng, which, bad):
        # g and r are given; p and s are derived, so a bad one comes from a
        # block row (for p) or column (for s) rescaled to sum to 1 / bad.
        v, t = unit_batch(rng, 5, 3)
        st = soft_targets_swapped(v, t, 5.0, make_partition(5, 0.4, rng.permutation(5)))
        u = 4
        with np.errstate(divide="ignore", invalid="ignore"):
            inverse = np.float64(1.0) / bad
            if which in ("g", "r"):
                scale = getattr(st, which).copy()
                scale[-1] = bad
                change = {which: scale}
            elif which == "p":
                block = st.exp.copy()
                block[u] *= inverse / (block[u] @ st.g)
                change = {"exp": block}
            else:
                block = st.exp.copy()
                block[:, u] *= inverse / (st.r @ block[:, u])
                change = {"exp": block}
        with pytest.raises(InvalidInputError):
            dataclasses.replace(st, **change)

    @pytest.mark.parametrize("rows, n", [([-1], 1), ([2], 1), ([1, 0], 2), ([0, 0], 2),
                                         ([0, 1], 1), ([[0, 1]], 2)])
    def test_rows_must_be_increasing_indices(self, rows, n):
        # The loss kernel holds the soft rows it is handed to the rule the
        # plan holds its rows to. A negative row would wrap to the last one,
        # and an unsorted or repeated one would take one target twice; row 1
        # of a one-row batch lies past its end, and a 2-D array is no list.
        v, weights = np.eye(n), np.full(n, 1.0 / n)
        targets = SoftTargets(np.full((n, n), 1.0 / n), np.ones(n), np.ones(n))
        with pytest.raises(InvalidInputError, match="soft rows must be increasing indices"):
            contrastive_xent(v, v, weights, rows, targets)

    @pytest.mark.parametrize("block, g, r, message", [
        (np.ones((1, 2)), np.ones(2), np.ones(2), "square"),
        (np.ones(2), np.ones(2), np.ones(2), "square"),
        (np.ones((2, 2)), np.ones(1), np.ones(2), "do not fit"),
        (np.ones((2, 2)), np.ones(2), np.ones(1), "do not fit")])
    def test_factor_shapes_checked(self, block, g, r, message):
        # The block must be square, and g and r must each hold one scale
        # per row of it.
        with pytest.raises(InvalidInputError, match=message):
            SoftTargets(block, g, r)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_scale_checked_apart_from_mass(self, bad):
        # Every row and column of the block [[4, 2], [2, 1]] leads with
        # twice its second entry: a scale of 0 or -1 at index 1 of g or r
        # leaves every row sum, and so every normalizer, positive and
        # finite, so only the scale check can reject it.
        block, ones, odd = np.array([[4.0, 2.0], [2.0, 1.0]]), np.ones(2), np.array([1.0, bad])
        SoftTargets(block, ones, ones)
        for g, r in ((odd, ones), (ones, odd)):
            assert (block @ g > 0.0).all() and (r @ block > 0.0).all()
            with pytest.raises(InvalidInputError, match="scales must be finite and positive"):
                SoftTargets(block, g, r)

    def test_zero_target_row_rejected(self, rng):
        # A target row whose sum is 0 has no normalizer. Every row has a
        # target, whichever rows a plan makes soft: a zeroed block row
        # (image) or column (text) is rejected at an unaligned row and at an
        # aligned one alike.
        v, t = unit_batch(rng, 6, 3)
        plan = PartitionPlan(n=6, unaligned_idx=[1, 2, 3, 5], alpha=1 / 3)
        st = soft_targets_bootstrap(v, t, 5.0, plan)
        for row in (2, 4):
            image, text = st.exp.copy(), st.exp.copy()
            image[row] = 0.0
            text[:, row] = 0.0
            for block in (image, text):
                with pytest.raises(InvalidInputError, match="row sums must be positive"):
                    dataclasses.replace(st, exp=block)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 256])
    def test_derived_rows_sum_to_one(self, n):
        # For any positive block and scales, every derived row's exact sum
        # (fsum) is 1 within 4 ulp (2**-52 each) for the reciprocal and the
        # two products of each entry, plus log2(n) ulp for the normalizer's
        # blocked sum of n terms. Measured: at most 2 ulp up to n = 64 and
        # 5.5 at n = 256.
        bound = (4.0 + math.log2(n)) * 2.0**-52
        for seed in range(20):
            rng = RngState(seed)
            block = np.exp(3.0 * rng.normals(n, n))
            g, r = np.exp(3.0 * rng.normals(n)), np.exp(3.0 * rng.normals(n))
            for rows in target_rows(SoftTargets(block, g, r), np.arange(n)):
                assert max(abs(math.fsum(row) - 1.0) for row in rows) <= bound

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_block_entry_rejected(self, rng, value):
        # Even an entry outside the unaligned rows, whose targets no loss
        # reads but whose entries the loss's gradient block would.
        v, t = unit_batch(rng, 5, 3)
        plan = make_partition(5, 0.4, rng.permutation(5))
        st = soft_targets_bootstrap(v, t, 5.0, plan)
        block = st.exp.copy()
        block[aligned_rows(plan)[0], 0] = value
        with pytest.raises(InvalidInputError):
            dataclasses.replace(st, exp=block)

    def test_empty_unaligned_set(self, rng):
        v, t = unit_batch(rng, 4, 3)
        plan = make_partition(4, 1.0, rng.permutation(4))
        for rows in target_rows(soft_targets_swapped(v, t, 5.0, plan), plan.unaligned_idx):
            assert rows.shape == (0, 4)


class TestPsdLoss:
    def _random_setup(self, rng, n=6, d=4, alpha=0.5, build=soft_targets_swapped):
        v, t = unit_batch(rng, n, d)
        temp = TemperatureParam(1.2)
        plan = make_partition(n, alpha, rng.permutation(n))
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
        plan = PartitionPlan(n=5, unaligned_idx=np.arange(5), alpha=0.0)
        targets = SoftTargets(np.eye(5), np.ones(5), np.ones(5))
        a = psd_loss(EmbeddingBatch(v, t), temp, plan, targets)
        b = info_nce(EmbeddingBatch(v, t), temp)
        assert a.loss == pytest.approx(b.loss, abs=1e-12)
        np.testing.assert_allclose(a.d_image, b.d_image, atol=1e-12)

    def test_term_by_term_scalar_oracle(self, rng):
        batch, temp, plan, targets = self._random_setup(rng, n=6, d=4, alpha=0.5)
        lg = psd_loss(batch, temp, plan, targets)
        expected = psd_scalar(
            batch.image.tolist(), batch.text.tolist(), temp.scale,
            aligned_rows(plan).tolist(), plan.unaligned_idx.tolist(), plan.alpha,
            *(rows.tolist() for rows in target_rows(targets, plan.unaligned_idx)))
        assert lg.loss == pytest.approx(expected, abs=1e-10)

    def test_exact_at_extreme_logits(self, rng):
        # Student and teacher at scale 100 on the widest span a training run
        # reaches, 200; rows of norm 3 span past 600 and are rejected.
        v, t = widest_batch(rng)
        temp = TemperatureParam(math.log(100.0))
        plan = make_partition(6, 0.5, rng.permutation(6))
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            targets = build(v, t, temp.scale, plan)
            lg = psd_loss(EmbeddingBatch(v, t), temp, plan, targets)
            expected = psd_scalar(
                v.tolist(), t.tolist(), temp.scale, aligned_rows(plan).tolist(),
                plan.unaligned_idx.tolist(), plan.alpha,
                *(rows.tolist() for rows in target_rows(targets, plan.unaligned_idx)))
            assert lg.loss == pytest.approx(expected, rel=1e-12)
            with pytest.raises(InvalidInputError, match="span"):
                psd_loss(EmbeddingBatch(3.0 * v, 3.0 * t), temp, plan, targets)

    def test_finite_differences_both_target_kinds(self, rng):
        for build in (soft_targets_swapped, soft_targets_bootstrap):
            batch, temp, plan, targets = self._random_setup(rng, n=5, d=3, alpha=0.4, build=build)
            n, d = batch.image.shape

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
        base = make_partition(8, 0.5, rng.permutation(8))
        targets = soft_targets_swapped(v, t, temp.scale, base)
        batch = EmbeddingBatch(v, t)

        def at(alpha):
            plan = PartitionPlan(n=8, unaligned_idx=base.unaligned_idx, alpha=alpha)
            return psd_loss(batch, temp, plan, targets).loss

        hard, soft = at(1.0), at(0.0)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert at(alpha) == pytest.approx(alpha * hard + (1 - alpha) * soft, abs=1e-12)

    def test_self_distillation_has_no_collapse_fixed_point(self, rng):
        v, t = unit_batch(rng, 6, 4)
        temp = TemperatureParam.from_temperature(0.07)
        plan = make_partition(6, 0.5, rng.permutation(6))
        targets = soft_targets_swapped(v, t, temp.scale, plan)
        lg = psd_loss(EmbeddingBatch(v, t), temp, plan, targets)
        assert math.isfinite(lg.loss)
        assert np.abs(lg.d_image).max() > 1e-6
        assert np.abs(lg.d_text).max() > 1e-6

    def test_targets_receive_no_gradient(self, rng):
        batch, temp, plan, targets = self._random_setup(rng)
        lg1 = psd_loss(batch, temp, plan, targets)
        # mutate the teacher path after construction; stored targets are constants
        lg2 = psd_loss(batch, temp, plan, dataclasses.replace(targets, exp=targets.exp.copy()))
        assert lg1.loss == lg2.loss
        np.testing.assert_array_equal(lg1.d_image, lg2.d_image)
        np.testing.assert_array_equal(lg1.d_text, lg2.d_text)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), n=st.integers(1, 40), d=st.integers(1, 6),
           n_soft=st.sampled_from(["none", "one", "all"]), swapped=st.booleans(),
           teacher_scale=st.floats(1e-3, 1000.0), log_scale=st.floats(-2.0, math.log(100.0)))
    # Unit rows at teacher scale 1000 span up to 2000, past the shared
    # exponential's 600; at 15 they span at most 30.
    @example(seed=3, n=12, d=4, n_soft="all", swapped=True, teacher_scale=1000.0, log_scale=2.6)
    @example(seed=3, n=12, d=4, n_soft="one", swapped=False, teacher_scale=1000.0, log_scale=2.6)
    @example(seed=4, n=12, d=4, n_soft="all", swapped=False, teacher_scale=15.0, log_scale=2.6)
    def test_factored_targets_equal_their_dense_rows(self, seed, n, d, n_soft, swapped,
                                                      teacher_scale, log_scale):
        # The teacher's targets reach the loss as factors through
        # contrastive_xent and, as dense rows, through the row kernel
        # (dense_xent); both must give the same loss and gradients. Each
        # difference is bounded by 1e-12 of the size of the terms it sums: a
        # log-sum-exp or picked logit is at most max|L| + log n per unit of
        # weight (the weights sum to 2), and a gradient row's block entries
        # sum to at most 4 * max weight in size. A teacher whose logits span
        # past 600 must reject the batch instead.
        rng = RngState(seed)
        v, t = unit_batch(rng, n, d)
        k = {"none": 0, "one": 1, "all": n}[n_soft]
        order = rng.permutation(n)
        plan = PartitionPlan(n=n, unaligned_idx=order[:k], alpha=(n - k) / n)
        build = soft_targets_swapped if swapped else soft_targets_bootstrap
        if spans_past_600(teacher_scale, v, t):
            event("rejected")
            with pytest.raises(InvalidInputError, match="span"):
                build(v, t, teacher_scale, plan)
            return
        factored = build(v, t, teacher_scale, plan)
        batch, temp = EmbeddingBatch(v, t), TemperatureParam(log_scale)
        a = psd_loss(batch, temp, plan, factored)
        weights = np.empty(n)
        w_max = max(plan.alpha / max(n - k, 1), (1.0 - plan.alpha) / max(k, 1))
        weights[aligned_rows(plan)] = plan.alpha / max(n - k, 1)
        weights[plan.unaligned_idx] = (1.0 - plan.alpha) / max(k, 1)
        scaled_v = temp.scale * v
        loss, d_scaled_v, d_text = dense_xent(scaled_v, t, weights, plan.unaligned_idx,
                                              *target_rows(factored, plan.unaligned_idx))
        d_log_scale = float(np.einsum("ij,ij->", d_scaled_v, scaled_v))
        top = temp.scale * np.abs(v @ t.T).max() + math.log(n)
        assert abs(a.loss - loss) <= 1e-12 * max(abs(loss), 2.0 * top)
        assert abs(a.d_log_scale - d_log_scale) <= 1e-12 * max(abs(d_log_scale), 8.0 * top)
        for got, want, other in ((a.d_image, temp.scale * d_scaled_v, temp.scale * t),
                                 (a.d_text, d_text, temp.scale * v)):
            size = max(np.abs(want).max(), 4.0 * w_max * np.abs(other).max())
            assert np.abs(got - want).max() <= 1e-12 * size

    @pytest.mark.parametrize("teacher_scale", [15.0, 100.0])
    @pytest.mark.parametrize("build", [soft_targets_swapped, soft_targets_bootstrap])
    def test_targets_reused_across_calls(self, rng, build, teacher_scale):
        # gradcheck's finite differences call psd_loss many times on one
        # targets object: the calls must agree bit for bit and leave every
        # array the targets hold as it was.
        v, t = unit_batch(rng, 9, 4)
        plan = make_partition(9, 0.4, rng.permutation(9))
        targets = build(v, t, teacher_scale, plan)
        held = [targets.exp, targets.p, targets.g, targets.r, targets.s]
        before = [x.copy() for x in held]
        batch, temp = EmbeddingBatch(v, t), TemperatureParam(1.2)
        first, second = (psd_loss(batch, temp, plan, targets) for _ in range(2))
        assert first.loss == second.loss and first.d_log_scale == second.d_log_scale
        np.testing.assert_array_equal(first.d_image, second.d_image)
        np.testing.assert_array_equal(first.d_text, second.d_text)
        for now, then in zip(held, before):
            np.testing.assert_array_equal(now, then)

    @pytest.mark.parametrize("build", [soft_targets_swapped, soft_targets_bootstrap])
    def test_targets_independent_of_plan(self, rng, build):
        # The teacher gives every row a target and the plan alone names the
        # soft rows: targets built under two plans of one batch hold equal
        # arrays, and either serves a third plan's loss bit for bit.
        v, t = unit_batch(rng, 7, 4)
        batch, temp = EmbeddingBatch(v, t), TemperatureParam(1.2)
        plan_a = make_partition(7, 0.9, rng.permutation(7))
        plan_b = make_partition(7, 0.3, rng.permutation(7))
        assert not np.array_equal(plan_a.unaligned_idx, plan_b.unaligned_idx)
        a, b = build(v, t, 15.0, plan_a), build(v, t, 15.0, plan_b)
        for name in ("exp", "g", "r", "p", "s"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        from_a, from_b = psd_loss(batch, temp, plan_b, a), psd_loss(batch, temp, plan_b, b)
        assert from_a.loss == from_b.loss and from_a.d_log_scale == from_b.d_log_scale
        np.testing.assert_array_equal(from_a.d_image, from_b.d_image)
        np.testing.assert_array_equal(from_a.d_text, from_b.d_text)

    def test_targets_of_another_batch_size_rejected(self, rng):
        # The targets' block is one row too large for the batch: the kernel
        # rejects it.
        batch, temp, plan, _ = self._random_setup(rng, n=6, alpha=0.5)
        targets = SoftTargets(np.ones((7, 7)), np.ones(7), np.ones(7))
        with pytest.raises(InvalidInputError, match="does not fit"):
            psd_loss(batch, temp, plan, targets)

    def test_plan_validation(self):
        # The plan sorts its rows and then holds them to the rule the loss
        # kernel holds its soft rows to: a repeated row, one past the end or below 0 (it
        # would wrap to the last), or a 2-D index array is rejected.
        for n, rows, alpha, message in (
                (3, [1, 1], 0.5, "unaligned rows must be increasing indices in 0..2"),
                (2, [2], 0.5, "unaligned rows must be increasing indices in 0..1"),
                (2, [-1], 0.5, "unaligned rows must be increasing indices"),
                (3, [[0, 1]], 0.5, "unaligned rows must be increasing indices"),
                (2, [1], 1.5, "alpha must lie in"),
                (2, [1], math.nan, "alpha must lie in"),
                (0, [], 0.5, "at least one row")):
            with pytest.raises(InvalidInputError, match=message):
                PartitionPlan(n=n, unaligned_idx=rows, alpha=alpha)
        plan = PartitionPlan(n=6, unaligned_idx=[5, 0, 3], alpha=0.5)
        assert plan.unaligned_idx.dtype == np.int64
        assert plan.unaligned_idx.tolist() == [0, 3, 5]
        assert PartitionPlan(n=4, unaligned_idx=[], alpha=1.0).unaligned_idx.size == 0


def d_log_scale_bits(seeds=range(5), n: int = 256, d: int = 64) -> list[str]:
    """The exact bits of d_log_scale from info_nce and psd_loss on seeded
    batches of the trainer's default size, where the gradient's n*n
    reduction is large enough for a threaded BLAS to split it."""
    bits = []
    for seed in seeds:
        rng = RngState(seed)
        v, t = unit_batch(rng, n, d)
        batch, temp = EmbeddingBatch(v, t), TemperatureParam.from_temperature(0.07)
        plan = make_partition(n, 0.37, rng.permutation(n))
        targets = soft_targets_swapped(v, t, 15.0, plan)
        for lg in (info_nce(batch, temp), psd_loss(batch, temp, plan, targets)):
            bits.append(float.hex(lg.d_log_scale))
    return bits


def test_d_log_scale_independent_of_blas_threads():
    script = "from test_objective import d_log_scale_bits; print(*d_log_scale_bits())"
    bits = {threads: python_with_blas_threads(script, threads).split() for threads in (1, 2)}
    assert bits[1] == bits[2]
    assert bits[1] == d_log_scale_bits()
