import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from psdlab.errors import DegenerateInputError, InvalidInputError
from psdlab.gradcheck import central_difference, max_rel_error
from psdlab.numkit import (
    RNG_CHUNK,
    SHARED_EXP_SPAN,
    RngState,
    SoftTargets,
    _splitmix64,
    contrastive_xent,
    derive_seed,
    exp_both_axes,
    normalize_rows_l2,
    shared_exp_top,
    unit_rows,
)

from oracles import (
    cross_entropy_scalar,
    dense_xent,
    single_pass_normals,
    single_pass_words,
    softmax_row_scalar,
    softmax_rows,
    softmax_xent,
    target_rows,
)


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


class TestExpBothAxes:
    def test_sums_of_one_exponential(self, rng):
        x = 5.0 * rng.normals(4, 6)
        top = shared_exp_top(x)
        assert top == x.max()
        e = x.copy()
        row_sum, col_sum = exp_both_axes(e, top)
        np.testing.assert_array_equal(e, np.exp(x - x.max()))
        np.testing.assert_array_equal(row_sum, e.sum(axis=1, keepdims=True))
        np.testing.assert_array_equal(col_sum, e.sum(axis=0, keepdims=True))

    def test_span_rule_is_600(self):
        # Every row max and column max is the top; one entry sits `gap` below
        # it, and the rule bounds that entry too.
        x = np.array([[0.0, 0.0], [0.0, -SHARED_EXP_SPAN]])
        e = x.copy()
        exp_both_axes(e, shared_exp_top(x))
        assert e.min() >= np.finfo(np.float64).tiny  # a normal double
        x[1, 1] -= 1e-9
        with pytest.raises(InvalidInputError, match="span"):
            shared_exp_top(x)

    def test_declines_without_writing(self):
        for bad in (np.array([[1000.0, 0.0], [0.0, -1000.0]]), np.zeros((0, 3)),
                    np.array([[np.inf, 0.0]]), np.array([[-np.inf, 0.0]]),
                    np.array([[np.nan, 0.0]])):
            before = bad.copy()
            with pytest.raises(InvalidInputError):
                shared_exp_top(bad)
            np.testing.assert_array_equal(bad, before)


def soft_xent(targets, logits):
    """Mean cross-entropy of softmax(logits) against row-stochastic targets,
    every row soft."""
    n = targets.shape[0]
    return softmax_xent(logits, np.full(n, 1.0 / max(n, 1)), np.zeros(n, dtype=np.int64),
                        np.arange(n), targets)


def logit_span(x) -> float:
    return float(x.max() - x.min())


def draw_soft_rows(rng, n, data):
    """A sorted draw of soft rows, none and all of them among the draws."""
    n_soft = data.draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
    return np.sort(rng.permutation(n)[:n_soft])


def draw_targets(rng, n, soft_rows):
    """Soft targets on a block exp(3 * normals) with scales in [0.5, 1.5),
    with their dense rows and columns."""
    block = np.exp(3.0 * rng.normals(n, n))
    targets = SoftTargets(soft_rows, block, 0.5 + rng.uniforms(n), 0.5 + rng.uniforms(n))
    return targets, *target_rows(targets)


def target_block(weights, soft_rows, row_targets, col_targets):
    """The weighted targets as one dense n x n block: 2 * weights[i] at
    (i, i) for a hard i, and the soft rows' and columns' targets."""
    g = np.diag(2.0 * weights)
    g[soft_rows, soft_rows] = 0.0
    g[soft_rows] += weights[soft_rows, None] * row_targets
    g[:, soft_rows] += (weights[soft_rows, None] * col_targets).T
    return g


def product_bound(block_err, block, targets, x):
    """A bound on the error of block^T x, given an entrywise bound on the
    error of the gradient ``block``: the error carried through, plus the
    rounding of sums of n products, some taken over the exponential part
    (block + targets) and the targets apart. A product below the smallest
    normal double rounds to the subnormal grid, off by up to half its step,
    2**-1075, whatever its size: the kernel and the reference take at most
    6n such products per entry, and the kernel scales some by a target of
    at most 2 afterwards, so 8n half-steps (4n steps) cover them."""
    n = x.shape[0]
    size = np.abs(block) + 2.0 * np.abs(targets)
    return (block_err.T @ np.abs(x) + 2.0 * n * 2.0**-53 * (size.T @ np.abs(x))
            + 4.0 * n * 2.0**-1074)


class TestCrossEntropyRows:
    """contrastive_xent over the rows and columns of a factored logit
    matrix, and its reference: the oracles' softmax_xent over the rows of a
    dense one, whose hard and soft rows are checked here on their own."""

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

    @pytest.mark.parametrize("far", [0.0, 30.0])
    def test_gradient_with_soft_rows_matches_finite_differences(self, rng, far):
        # With far = 30, pair 4 lies alone along the last axis, so its
        # logit, 900, sits more than 600 above all others, and the kernel
        # rejects the matrix.
        v, t = 2.0 * rng.normals(5, 4), 2.0 * rng.normals(5, 4)
        if far:
            v[:, 3] = t[:, 3] = 0.0
            v[4] = t[4] = [0.0, 0.0, 0.0, far]
        # One block with scales on both sides, each soft row and column
        # normalized by its sum.
        weights = rng.uniforms(5)
        targets = SoftTargets([0, 3], np.exp(rng.normals(5, 5)), 0.5 + rng.uniforms(5),
                              0.5 + rng.uniforms(5))
        assert (logit_span(v @ t.T) > SHARED_EXP_SPAN) == bool(far)
        if far:
            with pytest.raises(InvalidInputError, match="span"):
                contrastive_xent(v, t, weights, targets)
            return

        def loss_at(flat):
            return contrastive_xent(flat[:20].reshape(5, 4), flat[20:].reshape(5, 4),
                                    weights, targets)[0]

        _, d_v, d_t = contrastive_xent(v, t, weights, targets)
        numeric = central_difference(loss_at, np.concatenate([v.ravel(), t.ravel()]))
        assert max_rel_error(np.concatenate([d_v.ravel(), d_t.ravel()]), numeric) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), n=st.integers(1, 40),
           spread=st.sampled_from([1e-3, 1.0, 30.0, 1e3]), data=st.data())
    def test_axis_0_equals_rows_of_transposed_copy(self, seed, n, spread, data):
        # The columns of L = v t^T are the rows of t v^T: swapping the factors
        # and transposing the targets (block^T, with g and r swapped) swaps
        # the gradients. The transposed targets derive the normalizers s and
        # p again, up to rounding. With the factors (x, I) and (I, x) the
        # logits are x and its transpose exactly, and the gradient in x is
        # the gradient block itself. Spread 1e3 spans x past 600 unless
        # n = 1, and both calls must then reject it.
        rng = RngState(seed)
        x = spread * rng.normals(n, n)
        eye = np.eye(n)
        weights = rng.uniforms(n)
        soft_rows = draw_soft_rows(rng, n, data)
        targets, row_targets, col_targets = draw_targets(rng, n, soft_rows)
        swapped = SoftTargets(soft_rows, targets.exp.T, targets.r, targets.g)
        if logit_span(x) > SHARED_EXP_SPAN:
            for a, b, q in ((x, eye, targets), (eye, x, swapped)):
                with pytest.raises(InvalidInputError, match="span"):
                    contrastive_xent(a, b, weights, q)
            return
        loss, block, d_eye = contrastive_xent(x, eye, weights, targets)
        ref_loss, ref_d_eye, ref_block = contrastive_xent(eye, x, weights, swapped)
        # The two reductions add exp(x - max) in another order, so a sum may
        # differ in its last bit; a log-sum-exp term is at most max|x| +
        # log(n) and a gradient term at most weight * mass in size.
        terms, wm = 0.0, 0.0
        for q in (row_targets, col_targets):
            mass = np.ones(n)
            mass[soft_rows] = q.sum(axis=1)
            terms += weights @ (mass * (np.abs(x).max() + math.log(n)))
            wm = max(wm, (weights * mass).max())
        assert abs(loss - ref_loss) <= 1e-15 * max(abs(ref_loss), terms)
        block_err = 1e-15 * np.abs(ref_block) + 1e-15 * wm
        assert (np.abs(block - ref_block) <= block_err).all()
        goal = target_block(weights, soft_rows, row_targets, col_targets)
        assert (np.abs(d_eye - ref_d_eye) <= product_bound(block_err, ref_block, goal, x)).all()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1), n=st.integers(1, 150),
           span=st.floats(0.0, 2000.0), drop=st.floats(0.0, 1200.0), data=st.data())
    def test_both_axes_equal_axis_1_plus_axis_0(self, seed, n, span, drop, data):
        # Logits uniform over `span`, with row 0 lowered by `drop`: the kernel
        # serves while every logit stays within 600 of the top and rejects
        # the matrix past that, so both sides of the rule are drawn. Past 64
        # rows it scales its exponential in several bands. The factors (x, I)
        # make the logits x exactly and the gradient in x the block.
        rng = RngState(seed)
        x = span * (rng.uniforms(n * n).reshape(n, n) - 0.5)
        x[0] -= drop
        weights = rng.uniforms(n)
        soft_rows = draw_soft_rows(rng, n, data)
        targets, row_targets, col_targets = draw_targets(rng, n, soft_rows)
        event("hard only" if not soft_rows.size else "all soft" if soft_rows.size == n else "mixed")
        if logit_span(x) > SHARED_EXP_SPAN:
            event("rejected")
            with pytest.raises(InvalidInputError, match="span"):
                contrastive_xent(x, np.eye(n), weights, targets)
            return
        loss, d_x, d_eye = contrastive_xent(x, np.eye(n), weights, targets)
        ref_loss, ref_block, ref_d_eye = dense_xent(x, np.eye(n), weights, soft_rows,
                                                    row_targets, col_targets)
        # Bounds on the loss's log-sum-exp terms and on a gradient term, and
        # `drift`, on what two things move the loss by. The kernel takes each
        # soft target's mass as 1 and the reference reads the dense rows'
        # sums, a few ulp off 1. With subnormal logits, each product and sum
        # that forms a soft target's q . x rounds to the subnormal grid, off
        # by up to 2**-1075: the reference's 2n per target unscaled, the
        # kernel's 3n then scaled by up to p[u] max(g, 1) (a row) or
        # s[u] max(r, 1) (a column).
        terms, wm = 0.0, 0.0
        grid = 4.0 * n + 3.0 * n * (targets.p * max(targets.g.max(), 1.0)
                                    + targets.s * max(targets.r.max(), 1.0))
        drift = 2.0**-1074 * (weights[soft_rows] @ grid / 2.0)
        for q in (row_targets, col_targets):
            mass = np.ones(n)
            mass[soft_rows] = q.sum(axis=1)
            terms += weights @ (mass * (np.abs(x).max() + math.log(n)))
            drift += weights @ (np.abs(mass - 1.0) * (np.abs(x).max() + math.log(n)))
            wm = max(wm, (weights * mass).max())
        assert abs(loss - ref_loss) <= 1e-15 * max(abs(ref_loss), terms) + drift
        # The shared exponential shifts a row or column by up to `reach` more
        # than its own max would, and rounding x - max then costs up to
        # reach * 2**-53 relative in each exponential of that row.
        reach = x.max() - min(x.max(axis=1).min(), x.max(axis=0).min())
        block_err = 1e-15 * np.abs(ref_block) + 1e-15 * wm * (1.0 + reach)
        assert (np.abs(d_x - ref_block) <= block_err).all()
        goal = target_block(weights, soft_rows, row_targets, col_targets)
        assert (np.abs(d_eye - ref_d_eye) <= product_bound(block_err, ref_block, goal, x)).all()

    def test_both_axes_shape_mismatch(self):
        # The factors must share a shape, the weights fit their rows and the
        # target block be n x n; SoftTargets checks the rest of its factors.
        v, weights = np.zeros((2, 3)), np.full(2, 0.5)
        for a, b, w, targets in (
                (v, np.zeros((3, 3)), weights, None),
                (v, v, np.full(3, 0.5), None),
                (v, v, weights, SoftTargets([0], np.ones((3, 3)), np.ones(3), np.ones(3))),
                (v, v, weights, SoftTargets([], np.ones((1, 1)), np.ones(1), np.ones(1)))):
            with pytest.raises(InvalidInputError, match="shape mismatch|does not fit"):
                contrastive_xent(a, b, w, targets)

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

    def test_overflowing_squares_normalize_exactly(self):
        # 1e200 squared overflows, but the row's norm is finite: it is taken
        # through the row's largest entry, without a warning, and the other
        # row keeps the plain norm.
        rows, norms = unit_rows(np.array([[1e200, 1e200], [3.0, 4.0]]))
        np.testing.assert_array_equal(rows, normalize_rows_l2([[1.0, 1.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(norms, [1e200 * math.sqrt(2.0), 5.0])
        assert abs(rows[0, 0] - 2.0 ** -0.5) <= math.ulp(2.0 ** -0.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_inf_or_nan_row_still_rejected(self, bad):
        with pytest.raises(DegenerateInputError, match=f"row 1 has norm {abs(bad)}"):
            unit_rows(np.array([[1.0, 0.0], [1e200, bad]]))

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


# Sizes around the stream's chunk: one word, an odd count, and a chunk
# boundary met from below, hit, passed by one, and passed twice.
CHUNK_SIZES = [1, 7, RNG_CHUNK - 1, RNG_CHUNK, RNG_CHUNK + 1, 2 * RNG_CHUNK + 1]
SEEDS = [3, (1 << 64) - 1]


class TestChunkedDraws:
    """Draws compute RNG_CHUNK words at a time in reused buffers; every
    word, value and stream position must equal the single-pass formula's,
    across chunk boundaries and for draws split across calls."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", CHUNK_SIZES)
    def test_words(self, seed, size):
        r = RngState(seed)
        first, second = r._words(size), r._words(size + 2)
        assert r._count == 2 * size + 2
        np.testing.assert_array_equal(first, single_pass_words(seed, 0, size))
        np.testing.assert_array_equal(second, single_pass_words(seed, size, size + 2))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", CHUNK_SIZES)
    def test_normals(self, seed, size):
        # normals(5) takes 6 words, so the second draw starts on word 7.
        r = RngState(seed)
        first, second = r.normals(5), r.normals(size)
        taken = 2 * ((size + 1) // 2)
        assert r._count == 6 + taken
        np.testing.assert_array_equal(first, single_pass_normals(single_pass_words(seed, 0, 6), 5))
        np.testing.assert_array_equal(
            second, single_pass_normals(single_pass_words(seed, 6, taken), size))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", CHUNK_SIZES)
    def test_integers(self, seed, size):
        # 2**64 mod n == n - 2 for n = 2**63 + 1: about half the words are
        # rejected, so the shortfall is drawn again across chunks.
        n = (1 << 63) + 1
        r = RngState(seed)
        first, second = r.integers(n, size), r.integers(n, 3)
        words = single_pass_words(seed, 0, 2 * size + 200)
        accepted = np.flatnonzero(words < n)[:size + 3]
        assert accepted.size == size + 3
        assert r._count == accepted[-1] + 1
        np.testing.assert_array_equal(np.concatenate([first, second]), words[accepted])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", CHUNK_SIZES)
    def test_permutation(self, seed, size):
        r = RngState(seed)
        first, second = r.permutation(size), r.permutation(3)
        assert r._count == size + 3
        np.testing.assert_array_equal(
            first, np.argsort(single_pass_words(seed, 0, size), kind="stable"))
        np.testing.assert_array_equal(
            second, np.argsort(single_pass_words(seed, size, 3), kind="stable"))
