import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdlab.evaluation as ev
from psdlab.config import ExperimentConfig
from psdlab.errors import InvalidInputError
from psdlab.evaluation import (
    linear_probe,
    probe_loss_and_grad,
    retrieval_eval,
    score_eval,
    similarity_stats,
    zero_shot_top1,
)
from psdlab.gradcheck import central_difference, max_rel_error
from psdlab.numkit import RngState, normalize_rows_l2

from conftest import lift_sims_to_embeddings, unit_batch
from oracles import (
    histogram_scalar,
    linspace_edges,
    retrieval_scalar,
    softmax_xent,
    zero_shot_scalar,
)


class TestRetrieval:
    def test_diagonal_dominant(self):
        v, t = lift_sims_to_embeddings([[0.9, 0.1], [0.2, 0.8]])
        i2t, t2i = retrieval_eval(v, t, [1, 2])
        for rep in (i2t, t2i):
            assert rep.recall_at[1] == 100.0
            assert rep.mean_rank == 1.0

    def test_anti_diagonal(self):
        v, t = lift_sims_to_embeddings([[0.1, 0.9], [0.8, 0.2]])
        i2t, t2i = retrieval_eval(v, t, [1, 2])
        for rep in (i2t, t2i):
            assert rep.recall_at[1] == 0.0
            assert rep.recall_at[2] == 100.0
            assert rep.mean_rank == 2.0

    def test_brute_force_oracle(self, rng):
        v, t = unit_batch(rng, 50, 8)
        i2t, t2i = retrieval_eval(v, t, [1, 5, 10])
        expected = retrieval_scalar(v.tolist(), t.tolist(), [1, 5, 10])
        for rep, key in ((i2t, "image_to_text"), (t2i, "text_to_image")):
            assert rep.recall_at == expected[key]["recall_at"]
            assert rep.mean_rank == pytest.approx(expected[key]["mean_rank"], abs=1e-12)

    def test_recall_monotone_and_full_at_n(self, rng):
        v, t = unit_batch(rng, 20, 6)
        i2t, t2i = retrieval_eval(v, t, list(range(1, 21)))
        for rep in (i2t, t2i):
            values = [rep.recall_at[k] for k in range(1, 21)]
            assert values == sorted(values)
            assert values[-1] == 100.0

    def test_relabeling_invariance(self, rng):
        v, t = unit_batch(rng, 12, 5)
        perm = RngState(3).permutation(12)
        a = retrieval_eval(v, t, [1, 5])
        b = retrieval_eval(v[perm], t[perm], [1, 5])
        for x, y in zip(a, b):
            assert x.recall_at == y.recall_at
            assert x.mean_rank == pytest.approx(y.mean_rank, abs=1e-12)

    def test_k_out_of_range(self, rng):
        v, t = unit_batch(rng, 4, 3)
        with pytest.raises(InvalidInputError):
            retrieval_eval(v, t, [5])

    def test_tie_breaks_toward_lower_index(self):
        # image 0 ties 0/1 and its partner IS index 0 -> wins the tie, rank 1;
        # image 1 ties 0/1 and its partner is index 1 -> loses the tie, rank 2
        v, t = lift_sims_to_embeddings(np.array([[0.5, 0.5], [0.6, 0.6]]))
        i2t, _ = retrieval_eval(v, t, [1, 2])
        assert i2t.recall_at[1] == 50.0
        assert i2t.recall_at[2] == 100.0
        assert i2t.mean_rank == 1.5

    def test_text_to_image_tie_breaks_toward_lower_index(self):
        # Text j ranks the images by column j. Text 0 ties image 1 after its
        # partner (rank 1); text 2 ties images 0 and 1 before it (rank 3).
        sims = np.array([[0.5, 0.2, 0.4],
                         [0.5, 0.45, 0.4],
                         [0.1, 0.1, 0.4]])
        v, t = lift_sims_to_embeddings(sims)
        i2t, t2i = retrieval_eval(v, t, [1, 2, 3])
        assert t2i.recall_at == {1: 200.0 / 3, 2: 200.0 / 3, 3: 100.0}
        assert t2i.mean_rank == pytest.approx(5.0 / 3, abs=1e-12)
        assert i2t.mean_rank == pytest.approx(4.0 / 3, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(levels=st.lists(st.integers(-2, 2), min_size=1, max_size=64))
    def test_tie_heavy_matches_brute_force(self, levels):
        # Five score levels make ties the rule; entries of magnitude at most
        # 1/n keep every column norm well below 1, so the lift is exact.
        n = math.isqrt(len(levels))
        sims = np.array(levels[:n * n], dtype=np.float64).reshape(n, n) / (2.0 * n)
        v, t = lift_sims_to_embeddings(sims)
        ks = list(range(1, n + 1))
        i2t, t2i = retrieval_eval(v, t, ks)
        expected = retrieval_scalar(v.tolist(), t.tolist(), ks)
        for rep, key in ((i2t, "image_to_text"), (t2i, "text_to_image")):
            assert rep.recall_at == expected[key]["recall_at"]
            assert rep.mean_rank == pytest.approx(expected[key]["mean_rank"], abs=1e-12)


class TestZeroShot:
    def test_self_prototypes_perfect(self, rng):
        v = normalize_rows_l2(rng.normals(6, 5))
        assert zero_shot_top1(v, v, np.arange(6)) == 100.0

    def test_orthonormal_prototypes(self):
        protos = np.eye(4)
        v = protos[[2, 0, 1, 3]]
        assert zero_shot_top1(v, protos, [2, 0, 1, 3]) == 100.0
        assert zero_shot_top1(v, protos, [0, 1, 2, 0]) == 0.0

    def test_double_loop_oracle(self, rng):
        v = normalize_rows_l2(rng.normals(40, 6))
        protos = normalize_rows_l2(rng.normals(5, 6))
        labels = np.fromiter((rng.randint(5) for _ in range(40)), dtype=np.int64)
        assert zero_shot_top1(v, protos, labels) == pytest.approx(
            zero_shot_scalar(v.tolist(), protos.tolist(), labels.tolist()), abs=1e-12)

    def test_label_out_of_range(self, rng):
        v = normalize_rows_l2(rng.normals(3, 4))
        with pytest.raises(InvalidInputError):
            zero_shot_top1(v, np.eye(4), [0, 1, 7])


class TestLinearProbe:
    def test_loss_at_zero_weights_is_log_k(self, rng):
        # Zero weights predict every class alike, whatever the features.
        x = rng.normals(30, 4)
        for k in (2, 3, 7):
            y = np.arange(30) % k
            w0 = np.zeros(4 * k + k)
            loss, _ = probe_loss_and_grad(w0, x, y, k, l2=1e-4)
            assert loss == pytest.approx(math.log(k), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), n=st.integers(1, 300), d=st.integers(1, 40),
           k=st.integers(2, 13), spread=st.sampled_from([1e-3, 1.0, 30.0]),
           dtype=st.sampled_from([np.int64, np.uint64]))
    def test_equals_oracle_hard_rows_plus_l2_bit_for_bit(self, seed, n, d, k, spread, dtype):
        # The probe's cross entropy is the oracle's with every row hard, at
        # weights 1/n; linear_probe passes int64 labels, gradcheck uint64.
        rng = RngState(seed)
        x = rng.normals(n, d)
        y = rng.integers(k, n).astype(dtype)
        w = spread * rng.normals(d * k + k)
        l2 = rng.uniform()
        loss, grad = probe_loss_and_grad(w, x, y, k, l2)
        weights = w[: d * k].reshape(d, k)
        xent, delta = softmax_xent(x @ weights + w[d * k:], np.full(n, 1.0 / n), y,
                                   np.zeros(0, dtype=np.int64), np.zeros((0, k)))
        assert loss == xent + 0.5 * l2 * float((weights * weights).sum())
        np.testing.assert_array_equal(
            grad, np.concatenate([(x.T @ delta + l2 * weights).ravel(), delta.sum(axis=0)]))

    def test_gradient_matches_finite_differences(self, rng):
        x = rng.normals(12, 5)
        y = np.fromiter((rng.randint(3) for _ in range(12)), dtype=np.int64)
        w = 0.3 * rng.normals(5 * 3 + 3)
        _, analytic = probe_loss_and_grad(w, x, y, 3, l2=1e-4)
        numeric = central_difference(lambda v: probe_loss_and_grad(v, x, y, 3, 1e-4)[0], w)
        assert max_rel_error(analytic, numeric) < 1e-5

    def test_separable_2d_reaches_full_train_accuracy(self):
        rng = RngState(5)
        a = rng.normals(40, 2) + np.array([4.0, 4.0])
        b = rng.normals(40, 2) - np.array([4.0, 4.0])
        x = np.vstack([a, b])
        y = np.array([0] * 40 + [1] * 40)
        result = linear_probe(x, y, x, y)
        assert result.train_accuracy == 100.0
        assert result.iterations <= ev.PROBE_MAX_ITERS

    def test_holdout_accuracy_on_gaussian_blobs(self):
        rng = RngState(6)
        centers = 3.0 * np.eye(3)
        xs, ys = [], []
        for c in range(3):
            xs.append(rng.normals(50, 3) * 0.5 + centers[c])
            ys.append(np.full(50, c))
        x, y = np.vstack(xs), np.concatenate(ys)
        test = np.arange(150) % 5 == 0
        result = linear_probe(x[~test], y[~test], x[test], y[test])
        assert result.accuracy > 90.0

    def test_negative_label_rejected(self):
        # A label of -1 used to index the last class and train silently.
        x = RngState(8).normals(10, 3)
        y = np.arange(10) % 2
        for side in ("train", "test"):
            bad = y.copy()
            bad[0] = -1
            labels = (bad, y) if side == "train" else (y, bad)
            with pytest.raises(InvalidInputError):
                linear_probe(x, labels[0], x, labels[1])

    def test_empty_split_rejected(self):
        x = RngState(9).normals(6, 3)
        y = np.arange(6) % 2
        empty_x, empty_y = np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
        for args in ((empty_x, empty_y, x, y), (x, y, empty_x, empty_y)):
            with pytest.raises(InvalidInputError):
                linear_probe(*args)
        # So is an l2 outside the range of the probe_l2 key.
        for l2 in (-1.0, math.nan):
            with pytest.raises(InvalidInputError, match=f"probe_l2 must lie in .*got {l2}"):
                linear_probe(x, y, x, y, l2=l2)

    def test_loss_monotone_over_iterations(self):
        # the line search, along the L-BFGS direction or the gradient, only
        # ever accepts a decrease
        rng = RngState(7)
        x = rng.normals(60, 4)
        y = np.fromiter((rng.randint(4) for _ in range(60)), dtype=np.int64)
        losses = []
        true_f = probe_loss_and_grad

        def spy(w, feats, labels, k, l2):
            loss, grad = true_f(w, feats, labels, k, l2)
            losses.append(loss)
            return loss, grad

        original = ev.probe_loss_and_grad
        ev.probe_loss_and_grad = spy
        try:
            linear_probe(x, y, x, y)
        finally:
            ev.probe_loss_and_grad = original
        # track the accepted-iterate sequence: it is embedded in the call
        # stream as prefix minima; assert the running minimum never increases
        running = np.minimum.accumulate(losses)
        assert np.all(np.diff(running) <= 1e-12)

    @pytest.mark.parametrize("path", ["lbfgs", "fallback"])
    def test_no_point_evaluated_twice(self, monkeypatch, path):
        # The line search hands back the loss and gradient at the point it
        # accepted, so the iteration never evaluates that point again.
        rng = RngState(7)
        x = rng.normals(60, 4)
        y = np.fromiter((rng.randint(4) for _ in range(60)), dtype=np.int64)
        points = []
        true_f = ev.probe_loss_and_grad

        def spy(w, *args):
            points.append(w.tobytes())
            return true_f(w, *args)

        monkeypatch.setattr(ev, "probe_loss_and_grad", spy)
        if path == "fallback":
            # +grad ascends, so every step falls back to minus the gradient.
            monkeypatch.setattr(ev, "_lbfgs_direction", lambda grad, *hist: grad.copy())
        result = linear_probe(x, y, x, y)
        assert result.iterations > 0
        assert result.line_search_fallbacks == (result.iterations if path == "fallback" else 0)
        assert len(points) == len(set(points))

    def test_backtrack_declines_a_non_descent_direction_unevaluated(self):
        def f(x):
            raise AssertionError("evaluated")

        x, g = np.zeros(3), np.array([1.0, -2.0, 0.5])
        for direction in (g, np.zeros(3), np.array([2.0, 1.0, 0.0]), np.full(3, np.nan)):
            assert ev._backtrack(f, x, direction, 0.0, g) is None

    def test_backtrack_step_satisfies_armijo(self, rng):
        # A steep quadratic whose unit step overshoots: the search halves the
        # step until the loss falls by at least ARMIJO_C1 of the linear
        # decrease, after every longer step fell short of that.
        a = np.diag([1.0, 40.0, 300.0])
        tried = []

        def f(w):
            tried.append(w)
            return 0.5 * float(w @ a @ w), a @ w

        x = rng.normals(3)
        f0, g0 = 0.5 * float(x @ a @ x), a @ x
        direction = -g0
        slope = float(g0 @ direction)
        step, val, grad = ev._backtrack(f, x, direction, f0, g0)
        assert val <= f0 + ev.ARMIJO_C1 * step * slope
        steps = [0.5 ** i for i in range(len(tried))]
        assert step == steps[-1] < 1.0
        for w, tried_step in zip(tried, steps):
            np.testing.assert_array_equal(w, x + tried_step * direction)
        for w, tried_step in zip(tried[:-1], steps):
            assert 0.5 * float(w @ a @ w) > f0 + ev.ARMIJO_C1 * tried_step * slope
        np.testing.assert_array_equal(grad, a @ tried[-1])

    def test_converges_on_gaussian_blobs(self, monkeypatch):
        # The probe stops because its gradient vanished, not because it ran
        # out of iterations: the last gradient evaluated is the one at the
        # accepted point, and it is below the stopping tolerance.
        rng = RngState(6)
        x = np.vstack([rng.normals(50, 3) * 0.5 + 3.0 * np.eye(3)[c] for c in range(3)])
        y = np.repeat(np.arange(3), 50)
        grads = []
        true_f = ev.probe_loss_and_grad

        def spy(w, *args):
            loss, grad = true_f(w, *args)
            grads.append(grad)
            return loss, grad

        monkeypatch.setattr(ev, "probe_loss_and_grad", spy)
        result = linear_probe(x, y, x, y)
        assert result.iterations < ev.PROBE_MAX_ITERS
        assert np.abs(grads[-1]).max() < 1e-7


def off_diagonal(v, t):
    """The clipped off-diagonal scores, gathered by mask."""
    scores = np.clip(v @ t.T, -1.0, 1.0)
    return scores[~np.eye(scores.shape[0], dtype=bool)]


class TestSimilarityStats:
    def test_orthonormal_identity(self):
        v = np.eye(4)
        stats = similarity_stats(v, v, bins=8)
        np.testing.assert_allclose(stats.positive_scores, 1.0)
        assert stats.negative_mean == 0.0
        np.testing.assert_array_equal(stats.negative_counts, histogram_scalar([0.0] * 12, 8))

    def test_counts(self, rng):
        v, t = unit_batch(rng, 9, 5)
        stats = similarity_stats(v, t, bins=10)
        assert stats.positive_scores.size == 9
        assert stats.positive_counts.sum() == 9
        assert stats.negative_counts.sum() == 72
        assert stats.negative_mean == pytest.approx(off_diagonal(v, t).mean(), rel=1e-14)

    def test_binning_matches_scalar_oracle(self, rng):
        v, t = unit_batch(rng, 15, 4)
        stats = similarity_stats(v, t, bins=7)
        negatives = off_diagonal(v, t)
        np.testing.assert_array_equal(
            stats.positive_counts, histogram_scalar(stats.positive_scores.tolist(), 7))
        np.testing.assert_array_equal(
            stats.negative_counts, histogram_scalar(negatives.tolist(), 7))
        assert stats.negative_mean == pytest.approx(math.fsum(negatives) / negatives.size,
                                                    rel=1e-14)

    def test_single_pair_has_no_negatives(self):
        v = np.array([[0.6, 0.8]])
        stats = similarity_stats(v, v, bins=4)
        assert math.isnan(stats.negative_mean)
        assert stats.negative_counts.tolist() == [0, 0, 0, 0]
        assert stats.positive_counts.sum() == 1

    def test_bins_validation(self, rng):
        # The histogram_bins key is held to the bins that equal_width_counts'
        # margin covers, before any command scans, and so is a library
        # caller's bins; the most of them count.
        v, t = unit_batch(rng, 3, 3)
        for bins in (0, ev.MAX_BINS + 1):
            message = f"histogram_bins must lie in .*got {bins}"
            with pytest.raises(InvalidInputError, match=message):
                ExperimentConfig(histogram_bins=bins).check_eval_keys()
            with pytest.raises(InvalidInputError, match=message):
                similarity_stats(v, t, bins=bins)
        assert similarity_stats(v, t, bins=ev.MAX_BINS).negative_counts.sum() == 6

    def test_empty_pair_set_rejected(self):
        # Zero pairs used to give a NaN mean rank and empty positives.
        z = np.zeros((0, 3))
        with pytest.raises(InvalidInputError):
            retrieval_eval(z, z, [])
        with pytest.raises(InvalidInputError):
            similarity_stats(z, z, bins=4)


def test_oracle_edges_are_the_package_edges():
    for bins in [*range(1, 300), ev.MAX_BINS]:
        assert linspace_edges(bins) == np.linspace(-1.0, 1.0, bins + 1).tolist()


# One bin, two, odd counts, the default and the most the binner's rounding
# margin covers.
PLANTED_BINS = [1, 2, 3, 7, 50, ev.MAX_BINS]


def planted_scores(bins):
    """Every edge of ``bins`` bins, both neighbours of each within [-1, 1],
    and -1 and 1 again, in a seeded shuffle."""
    edges = np.linspace(-1.0, 1.0, bins + 1)
    x = np.concatenate([edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0), [-1.0, 1.0]])
    return np.clip(x, -1.0, 1.0)[RngState(bins).permutation(x.size)]


def assert_counts_exact(counts, x, bins):
    np.testing.assert_array_equal(counts, np.histogram(x, np.linspace(-1.0, 1.0, bins + 1))[0])
    np.testing.assert_array_equal(counts, histogram_scalar(x.tolist(), bins))


class TestEqualWidthCounts:
    """The binner scales each score onto [0, bins] and takes the floor, and
    looks up only the scores next to an edge; its counts must equal
    np.histogram's over the linspace edges exactly, chunk by chunk."""

    # 10 leaves a ragged last chunk for every planted set; the default holds
    # the small sets whole and leaves the largest ragged.
    @pytest.mark.parametrize("chunk", [10, ev.BIN_CHUNK])
    @pytest.mark.parametrize("bins", PLANTED_BINS)
    def test_planted_edges(self, monkeypatch, bins, chunk):
        monkeypatch.setattr(ev, "BIN_CHUNK", chunk)
        x = planted_scores(bins)
        assert x.size % chunk
        counts, total = ev.equal_width_counts(x, bins)
        assert_counts_exact(counts, x, bins)
        assert total == pytest.approx(math.fsum(x), rel=0, abs=1e-12)

    @pytest.mark.parametrize("bins", [7, 50])
    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
    def test_planted_edges_through_the_scan(self, monkeypatch, bins, where):
        # Lifted embeddings make every score exact; one planted score per
        # column keeps each column's norm within 1.
        monkeypatch.setattr(ev, "SCAN_ENTRIES", 7 * 40)
        monkeypatch.setattr(ev, "BIN_CHUNK", 13)
        x = planted_scores(bins)
        n = x.size
        sims = np.zeros((n, n))
        if where == "diagonal":
            sims[np.arange(n), np.arange(n)] = x
        else:
            sims[np.arange(n), (np.arange(n) + 1) % n] = x
        v, t = lift_sims_to_embeddings(sims)
        stats = similarity_stats(v, t, bins)
        assert_counts_exact(stats.positive_counts, np.diagonal(sims), bins)
        assert_counts_exact(stats.negative_counts, off_diagonal(v, t), bins)

    def test_clips_without_writing_to_values(self):
        x = np.array([-3.0, -1.0, np.nextafter(-1.0, -2.0), 0.25, np.nextafter(1.0, 2.0), 2.0])
        before = x.copy()
        counts, total = ev.equal_width_counts(x, 4)
        np.testing.assert_array_equal(x, before)
        assert counts.tolist() == [3, 0, 1, 2]
        assert total == math.fsum(np.clip(x, -1.0, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), bins=st.integers(1, ev.MAX_BINS), chunk=st.integers(1, 64))
    def test_random_blocks(self, data, bins, chunk):
        # Scores anywhere in [-1, 1], mixed with scores on an edge or one
        # ulp to either side of it.
        edges = np.linspace(-1.0, 1.0, bins + 1)
        at_edge = st.builds(lambda j, side: min(1.0, max(-1.0, np.nextafter(edges[j], side))),
                            st.integers(0, bins), st.sampled_from([-2.0, 2.0]))
        at_edge |= st.integers(0, bins).map(lambda j: float(edges[j]))
        x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0) | at_edge, min_size=1,
                                        max_size=300)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ev, "BIN_CHUNK", chunk)
            counts, total = ev.equal_width_counts(x, bins)
        assert_counts_exact(counts, x, bins)
        assert total == pytest.approx(math.fsum(x), rel=0, abs=1e-12)


def blocked_scan_matches_oracles(v, t):
    """Every output of the scan of (v, t) against the scalar oracles."""
    n = v.shape[0]
    ks = list(range(1, n + 1))
    i2t, t2i, stats = score_eval(v, t, ks, 9)
    expected = retrieval_scalar(v.tolist(), t.tolist(), ks)
    for rep, key in ((i2t, "image_to_text"), (t2i, "text_to_image")):
        # Recall at every K fixes the multiset of ranks.
        assert rep.recall_at == expected[key]["recall_at"]
        assert rep.mean_rank == expected[key]["mean_rank"]
    positives = [math.fsum(a * b for a, b in zip(x, y)) for x, y in zip(v.tolist(), t.tolist())]
    np.testing.assert_allclose(stats.positive_scores, np.clip(positives, -1.0, 1.0),
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(stats.positive_counts,
                                  histogram_scalar(stats.positive_scores.tolist(), 9))
    negatives = off_diagonal(v, t)
    np.testing.assert_array_equal(stats.negative_counts, histogram_scalar(negatives.tolist(), 9))
    if n > 1:
        assert stats.negative_mean == pytest.approx(math.fsum(negatives) / negatives.size,
                                                    rel=1e-14)


class TestCountTrue:
    """The scan counts each comparison mask in the narrowest unsigned dtype
    that holds the counted axis; an all-True mask fills that dtype to its
    length, at the edges where it widens."""

    @pytest.mark.parametrize("length", [255, 256, 65535, 65536])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_all_true_counts_its_length(self, length, axis):
        shape = (length, 3) if axis == 0 else (3, length)
        counts = ev._count_true(np.ones(shape, dtype=bool), axis)
        assert counts.dtype == np.min_scalar_type(length)
        assert counts.tolist() == [length] * 3

    def test_random_masks_match_count_nonzero(self, rng):
        mask = rng.normals(40, 300) > 0.5
        for view in (mask, mask[:, ::2], mask.T, mask[::3, 1:]):
            for axis in (0, 1):
                np.testing.assert_array_equal(ev._count_true(view, axis),
                                              np.count_nonzero(view, axis=axis))


class TestScanBlocks:
    """The scan forms S a block of rows at a time; with the block size
    shrunk, a 50-row batch spans many blocks and must give what one block
    gives."""

    # Rows per block: one row each, a ragged 7 (the last block holds one
    # row), exactly n, and more than n.
    @pytest.mark.parametrize("rows", [1, 7, 50, 64])
    def test_random_batch(self, monkeypatch, rng, rows):
        monkeypatch.setattr(ev, "SCAN_ENTRIES", rows * 50)
        v, t = unit_batch(rng, 50, 8)
        blocked_scan_matches_oracles(v, t)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_ties_across_blocks(self, monkeypatch, rows):
        # Lifted embeddings make every score exact, so planted ties hold
        # whichever gemm forms them.
        monkeypatch.setattr(ev, "SCAN_ENTRIES", rows * 50)
        rng = RngState(11)
        sims = (rng.integers(10**6, 2500).reshape(50, 50) - 5e5) / 5e7
        sims[:, 45] = sims[:, 3]    # duplicate text rows: image 45 ties text 3
        sims[2, 40] = sims[40, 40]  # text 40 ties image 2, in the first block
        sims[27, 31] = sims[31, 31]  # text 31 ties image 27, in the block before
        sims[44, 10] = sims[44, 44]  # image 44 ties text 10, in an earlier corner
        v, t = lift_sims_to_embeddings(sims)
        blocked_scan_matches_oracles(v, t)

    def test_partners_ranked_last_past_one_byte(self, rng):
        # At n = 600 the default block holds 436 rows, so the scan runs two
        # blocks and counts along axes of 164 to 600 entries. A text that is
        # its image negated scores -1 against it, the lowest of its row and
        # column, so its partner ranks n in both directions: counts of
        # n - 1 = 599, past the 255 of a byte.
        n = 600
        rows = ev.SCAN_ENTRIES // n
        assert -(-n // rows) == 2
        v, t = unit_batch(rng, n, 4)
        last = np.arange(0, n, 3)
        t[last] = -v[last]
        ks = [1, 5, 10, rows, n - 1, n]
        i2t, t2i = retrieval_eval(v, t, ks)
        expected = retrieval_scalar(v.tolist(), t.tolist(), ks)
        for rep, key in ((i2t, "image_to_text"), (t2i, "text_to_image")):
            assert expected[key]["recall_at"][n - 1] == 100.0 * (n - last.size) / n
            assert rep.recall_at == expected[key]["recall_at"]
            assert rep.mean_rank == expected[key]["mean_rank"]

    def test_single_pair(self, monkeypatch):
        monkeypatch.setattr(ev, "SCAN_ENTRIES", 1)
        v = np.array([[0.6, 0.8]])
        i2t, t2i, stats = score_eval(v, v, [1], 4)
        assert i2t.recall_at == t2i.recall_at == {1: 100.0}
        assert stats.positive_counts.tolist() == [0, 0, 0, 1]
        assert stats.negative_counts.tolist() == [0, 0, 0, 0]

    def test_skipped_parts_are_none(self, rng):
        v, t = unit_batch(rng, 6, 4)
        assert score_eval(v, t, None, 4)[:2] == (None, None)
        assert score_eval(v, t, [1], None)[2] is None

    def test_peak_memory_within_one_block(self, rng):
        # At n = 4000 one n x n float64 matrix is 122 MiB; the scan holds one
        # block of SCAN_ENTRIES scores, a comparison mask a byte per score,
        # and the binner's four work arrays of BIN_CHUNK entries.
        v, t = unit_batch(rng, 4000, 16)
        tracemalloc.start()
        try:
            score_eval(v, t, [1, 5, 10], 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * ev.SCAN_ENTRIES + 2 * 2**20
