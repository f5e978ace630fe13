import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlab.errors import DegenerateInputError, InvalidInputError
from psdlab.gradcheck import central_difference, max_rel_error
from psdlab.numkit import (
    RngState,
    _splitmix64,
    derive_seed,
    normalize_rows_l2,
    softmax_rows,
    softmax_xent,
)

from oracles import cross_entropy_scalar, softmax_row_scalar


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows([[0.0, 0.0]], scale=1.0)
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_uniform_limit_at_tiny_scale(self):
        out = softmax_rows([[5.0, 1.0]], scale=1e-9)
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-6)

    def test_scalar_oracle(self):
        out = softmax_rows([[1.0, 0.0]], scale=2.0)
        np.testing.assert_allclose(out[0], softmax_row_scalar([1.0, 0.0], 2.0), rtol=1e-13)
        np.testing.assert_allclose(out, [[0.880797, 0.119203]], atol=1e-6)

    def test_rows_sum_to_one_across_scales(self, rng):
        m = 10.0 * rng.normals(20, 6)
        for scale in (1e-9, 1e-3, 1.0, 100.0, 1e4):
            out = softmax_rows(m, scale)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert out.min() >= 0.0

    def test_shift_invariance(self, rng):
        m = rng.normals(8, 5)
        shifted = m + 123.456
        np.testing.assert_allclose(softmax_rows(m, 2.5), softmax_rows(shifted, 2.5), atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            softmax_rows([[np.nan, 0.0]], 1.0)
        with pytest.raises(InvalidInputError):
            softmax_rows([[1.0, 0.0]], 0.0)
        with pytest.raises(InvalidInputError):
            softmax_rows([[1.0, 0.0]], -2.0)


def soft_xent(targets, logits):
    """Mean cross-entropy of softmax(logits) against row-stochastic targets,
    every row soft."""
    n = targets.shape[0]
    return softmax_xent(logits, np.full(n, 1.0 / max(n, 1)), np.zeros(n, dtype=np.int64),
                        np.arange(n), targets)


class TestCrossEntropyRows:
    """softmax_xent, the one softmax cross-entropy kernel."""

    def test_uniform_prediction(self):
        loss, _ = softmax_xent(np.zeros((2, 2)), np.full(2, 0.5), np.arange(2),
                               np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_entropy_identity(self, rng):
        x = rng.normals(6, 4)
        p = softmax_rows(x, 1.0)
        entropy = float(-(p * np.log(p)).sum() / p.shape[0])
        assert soft_xent(p, x)[0] == pytest.approx(entropy, abs=1e-12)

    def test_scalar_oracle(self, rng):
        t = softmax_rows(rng.normals(3, 3), 1.0)
        x = rng.normals(3, 3)
        p = [softmax_row_scalar(row, 1.0) for row in x.tolist()]
        assert soft_xent(t, x)[0] == pytest.approx(cross_entropy_scalar(t.tolist(), p), abs=1e-12)

    def test_zero_rows(self):
        loss, grad = soft_xent(np.zeros((0, 4)), np.zeros((0, 4)))
        assert loss == 0.0 and grad.shape == (0, 4)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            softmax_xent(np.zeros((2, 2)), np.full(2, 0.5), np.arange(2),
                         np.arange(1), np.ones((2, 2)) / 2)
        # Along axis 0 the columns are the distributions: 3 of them here.
        with pytest.raises(InvalidInputError):
            softmax_xent(np.zeros((2, 3)), np.full(2, 0.5), np.arange(2),
                         np.zeros(0, dtype=np.int64), np.zeros((0, 3)), axis=0)
        with pytest.raises(InvalidInputError):
            softmax_xent(np.zeros((2, 2)), np.full(2, 0.5), np.arange(2),
                         np.zeros(0, dtype=np.int64), np.zeros((0, 2)), axis=2)

    @pytest.mark.parametrize("axis", [1, 0])
    def test_gradient_with_unnormalized_soft_rows_matches_finite_differences(self, rng, axis):
        # Soft rows of mass 2.5: the gradient carries softmax * sum(q) - q.
        x = 2.0 * rng.normals(4, 5)
        logits = x if axis == 1 else np.ascontiguousarray(x.T)
        weights = rng.uniforms(4)
        labels = np.array([1, 0, 4, 2])
        rows = np.array([0, 3])
        targets = 2.5 * softmax_rows(rng.normals(2, 5), 1.0)

        def loss_at(flat):
            return softmax_xent(flat.reshape(logits.shape), weights, labels, rows, targets,
                                axis=axis)[0]

        _, grad = softmax_xent(logits, weights, labels, rows, targets, axis=axis)
        assert max_rel_error(grad.ravel(), central_difference(loss_at, logits.ravel())) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), rows=st.integers(1, 40), cols=st.integers(1, 40),
           spread=st.sampled_from([1e-3, 1.0, 30.0, 1e3]), data=st.data())
    def test_axis_0_equals_rows_of_transposed_copy(self, seed, rows, cols, spread, data):
        # The columns of x are `cols` distributions over `rows` entries.
        # Spread 1e3 puts softmax entries far below the smallest double.
        rng = RngState(seed)
        x = spread * rng.normals(rows, cols)
        weights = rng.uniforms(cols)
        labels = rng.integers(rows, cols).astype(np.int64)
        n_soft = data.draw(st.integers(0, cols))
        soft_rows = np.sort(rng.permutation(cols)[:n_soft])
        targets = (softmax_rows(3.0 * rng.normals(n_soft, rows), 1.0) if n_soft
                   else np.zeros((0, rows)))
        loss, grad = softmax_xent(x, weights, labels, soft_rows, targets, axis=0)
        ref_loss, ref_grad = softmax_xent(np.ascontiguousarray(x.T), weights, labels,
                                          soft_rows, targets)
        # The two reductions add exp(x - max) in another order, so a sum may
        # differ in its last bit; a log-sum-exp term is at most max|x| +
        # log(rows) and a gradient term at most weight * mass in size.
        mass = np.ones(cols)
        mass[soft_rows] = targets.sum(axis=1)
        terms = weights @ (mass * (np.abs(x).max(axis=0) + math.log(rows)))
        assert abs(loss - ref_loss) <= 1e-15 * max(abs(ref_loss), terms)
        np.testing.assert_allclose(grad, ref_grad.T, rtol=1e-15,
                                   atol=1e-15 * (weights * mass).max())

    def test_gibbs_inequality(self, rng):
        for _ in range(30):
            t = softmax_rows(rng.normals(5, 6), 1.0)
            x = rng.normals(5, 6)
            entropy = float(-(t * np.log(t)).sum() / t.shape[0])
            assert soft_xent(t, x)[0] >= entropy - 1e-10

    def test_one_hot_soft_row_equals_hard_row(self, rng):
        x = 5.0 * rng.normals(4, 6)
        weights = rng.uniforms(4)
        labels = np.array([3, 0, 5, 2])
        hard = softmax_xent(x, weights, labels, np.zeros(0, dtype=np.int64), np.zeros((0, 6)))
        soft_rows = np.array([0, 2])
        ignored = labels.copy()
        ignored[soft_rows] = 1  # a soft row's label is not its target
        soft = softmax_xent(x, weights, ignored, soft_rows, np.eye(6)[labels[soft_rows]])
        assert soft[0] == hard[0]
        np.testing.assert_array_equal(soft[1], hard[1])

    def test_linear_in_weights(self, rng):
        x = 3.0 * rng.normals(5, 4)
        labels = np.array([0, 1, 2, 3, 0])
        rows = np.array([1, 4])
        targets = softmax_rows(rng.normals(2, 4), 1.0)
        w1, w2 = rng.uniforms(5), rng.uniforms(5)

        def at(w):
            return softmax_xent(x, w, labels, rows, targets)

        loss, grad = at(w1 + 2.5 * w2)
        (l1, g1), (l2, g2) = at(w1), at(w2)
        assert loss == pytest.approx(l1 + 2.5 * l2, rel=1e-13)
        np.testing.assert_allclose(grad, g1 + 2.5 * g2, rtol=1e-13, atol=1e-15)


class TestNormalizeRows:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize_rows_l2([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-15)

    def test_idempotent_on_unit_rows(self, rng):
        m = normalize_rows_l2(rng.normals(5, 4))
        np.testing.assert_allclose(normalize_rows_l2(m), m, atol=1e-15)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError, match="row 1"):
            normalize_rows_l2([[1.0, 0.0], [0.0, 0.0]])

    def test_unit_norms(self, rng):
        out = normalize_rows_l2(100.0 * rng.normals(20, 7))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


class TestRngState:
    def test_bit_identical_streams(self):
        a = RngState(99)
        b = RngState(99)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_known_seed_changes_stream(self):
        assert RngState(1).next_u64() != RngState(2).next_u64()

    def test_uniform_range(self):
        r = RngState(5)
        xs = r.uniforms(1000)
        assert xs.min() >= 0.0 and xs.max() < 1.0

    def test_normals_reproducible_and_shaped(self):
        a = RngState(3).normals(4, 5)
        b = RngState(3).normals(4, 5)
        assert a.shape == (4, 5)
        np.testing.assert_array_equal(a, b)

    def test_normals_moments(self):
        xs = RngState(11).normals(200000)
        assert abs(xs.mean()) < 0.01
        assert abs(xs.std() - 1.0) < 0.01

    def test_permutation_is_permutation(self):
        perm = RngState(17).permutation(200)
        np.testing.assert_array_equal(np.sort(perm), np.arange(200))

    def test_permutation_reproducible(self):
        np.testing.assert_array_equal(RngState(17).permutation(50), RngState(17).permutation(50))

    def test_randint_bounds_and_bias(self):
        r = RngState(7)
        draws = [r.randint(3) for _ in range(9000)]
        assert set(draws) == {0, 1, 2}
        for k in range(3):
            assert abs(draws.count(k) / 9000 - 1 / 3) < 0.03

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            RngState(0).randint(0)

    def test_randint_follows_integers(self):
        r = RngState(8)
        draws = [r.randint(5) for _ in range(50)]
        np.testing.assert_array_equal(RngState(8).integers(5, 50), draws)

    def test_derive_seed_decorrelates(self):
        seeds = {derive_seed(42, label, epoch) for label in range(5) for epoch in range(5)}
        assert len(seeds) == 25


def scalar_words(seed: int, count: int) -> list[int]:
    """The scalar splitmix64 chain from ``seed``: the stream's reference."""
    state, words = seed, []
    for _ in range(count):
        state, word = _splitmix64(state)
        words.append(word)
    return words


def box_muller_scalar(words: list[int], size: int) -> list[float]:
    """Pairwise Box-Muller over consecutive words, one value at a time."""
    out = []
    for a, b in zip(words[0::2], words[1::2]):
        r = math.sqrt(-2.0 * math.log(((a >> 11) + 1) * 2.0**-53))
        theta = 2.0 * math.pi * ((b >> 11) * 2.0**-53)
        out += [r * math.cos(theta), r * math.sin(theta)]
    return out[:size]


class TestCounterStream:
    @pytest.mark.parametrize("seed", [0, 1, 12345, (1 << 64) - 1])
    def test_first_words_equal_scalar_chain(self, seed):
        ref = scalar_words(seed, 12)
        r = RngState(seed)
        assert [r.next_u64() for _ in range(4)] == ref[:4]
        np.testing.assert_array_equal(r.uniforms(8), [(w >> 11) * 2.0**-53 for w in ref[4:]])

    def test_split_normals_continue_one_stream(self):
        r = RngState(21)
        first, second = r.normals(3), r.normals(5)
        words = scalar_words(21, 10)  # normals(3) takes 4 words, normals(5) takes 6
        np.testing.assert_allclose(first, box_muller_scalar(words[:4], 3), rtol=0, atol=1e-14)
        np.testing.assert_allclose(second, box_muller_scalar(words[4:], 5), rtol=0, atol=1e-14)
        assert r.next_u64() == scalar_words(21, 11)[-1]
        r = RngState(21)
        np.testing.assert_array_equal(np.concatenate([r.normals(4), r.normals(4)]),
                                      RngState(21).normals(8))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), a=st.integers(0, 40), b=st.integers(0, 40),
           n=st.one_of(st.integers(1, 10), st.integers(1, (1 << 64) - 1)))
    def test_split_draws_equal_one_draw(self, seed, a, b, n):
        r = RngState(seed)
        np.testing.assert_array_equal(np.concatenate([r.integers(n, a), r.integers(n, b)]),
                                      RngState(seed).integers(n, a + b))
        r = RngState(seed)
        np.testing.assert_array_equal(np.concatenate([r.uniforms(a), r.uniforms(b)]),
                                      RngState(seed).uniforms(a + b))

    @pytest.mark.parametrize("n", [3, 4])
    def test_integers_unbiased(self, n):
        draws = RngState(30 + n).integers(n, 60000)
        assert draws.min() == 0 and draws.max() == n - 1
        freqs = np.bincount(draws.astype(np.int64), minlength=n) / draws.size
        np.testing.assert_allclose(freqs, 1.0 / n, atol=0.01)

    def test_rejection_near_two_to_the_63(self):
        # 2**64 mod n == n - 2 for n = 2**63 + 1, so only words below n are
        # accepted: about half the stream is rejected and redrawn.
        n = (1 << 63) + 1
        r = RngState(77)
        draws = r.integers(n, 300)
        words = scalar_words(77, 1200)
        accepted = [i for i, w in enumerate(words) if w < n][:300]
        assert 450 < accepted[-1] + 1 < 750
        np.testing.assert_array_equal(draws, [words[i] for i in accepted])
        assert r.next_u64() == words[accepted[-1] + 1]

    def test_integers_rejects_bad_bounds(self):
        for n in (0, -3, 1 << 64):
            with pytest.raises(InvalidInputError):
                RngState(0).integers(n, 4)

    @pytest.mark.parametrize("n", [0, 1, 2, 2000])
    def test_permutation_is_argsort_of_words(self, n):
        perm = RngState(40).permutation(n)
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))
        np.testing.assert_array_equal(perm, RngState(40).permutation(n))
        np.testing.assert_array_equal(
            perm, np.argsort(np.array(scalar_words(40, n), dtype=np.uint64), kind="stable"))
