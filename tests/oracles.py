"""Independent scalar/brute-force oracles used by the test suite, and the
numpy references and input builders next to them.

The oracles are written with plain Python loops and the math module, never
with the package's vectorized code paths, so an agreement between the two is
evidence rather than tautology. The numpy code at the end is no oracle:
``softmax_rows`` and ``target_rows`` build test inputs; ``softmax_xent`` is
the dense cross-entropy over the rows of a logit matrix, with hard labels
and dense soft rows, that the probe's hard-label loss is checked against;
``dense_xent``, the factored cross-entropy's reference, is built on this
dense soft-row kernel; and ``single_pass_words`` and ``single_pass_normals``
are the random stream's draw formulas as one pass over a whole counter
range, which the stream's chunked draws must equal bit for bit.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from psdlab.errors import InvalidInputError
from psdlab.numkit import _GAMMA, _MIX1, _MIX2, SoftTargets, as_matrix


def softmax_row_scalar(row, scale):
    shifted = [scale * x for x in row]
    m = max(shifted)
    exps = [math.exp(x - m) for x in shifted]
    total = sum(exps)
    return [e / total for e in exps]


def cross_entropy_scalar(targets, probs):
    rows = len(targets)
    if rows == 0:
        return 0.0
    total = 0.0
    for trow, prow in zip(targets, probs):
        for t, p in zip(trow, prow):
            total -= t * math.log(max(p, 1e-300))
    return total / rows


def info_nce_scalar(v, t, scale):
    """Triple-loop InfoNCE: per-query softmax over similarities, both
    directions, mean reduction each."""
    n = len(v)
    loss = 0.0
    for rows, cols in ((v, t), (t, v)):
        for i in range(n):
            sims = [scale * sum(a * b for a, b in zip(rows[i], cols[j])) for j in range(n)]
            m = max(sims)
            denom = sum(math.exp(s - m) for s in sims)
            loss -= (sims[i] - m - math.log(denom)) / n
    return loss


def psd_scalar(v, t, scale, aligned, unaligned, alpha, image_targets, text_targets):
    """Term-by-term evaluation of the partitioned objective."""
    n = len(v)

    def ce_block(query_rows, keys, targets):
        if not query_rows:
            return 0.0
        total = 0.0
        for r, qi in enumerate(query_rows):
            sims = [scale * sum(a * b for a, b in zip(qi, keys[j])) for j in range(n)]
            m = max(sims)
            log_denom = m + math.log(sum(math.exp(s - m) for s in sims))
            for j in range(n):
                total -= targets[r][j] * (sims[j] - log_denom)
        return total / len(query_rows)

    hard_v = ce_block([v[i] for i in aligned], t,
                      [[1.0 if j == i else 0.0 for j in range(n)] for i in aligned])
    hard_t = ce_block([t[i] for i in aligned], v,
                      [[1.0 if j == i else 0.0 for j in range(n)] for i in aligned])
    soft_v = ce_block([v[i] for i in unaligned], t, image_targets)
    soft_t = ce_block([t[i] for i in unaligned], v, text_targets)
    return alpha * (hard_v + hard_t) + (1.0 - alpha) * (soft_v + soft_t)


def swapped_targets_scalar(v, t, scale, unaligned):
    """A^v[u, j] = exp(s_ju)/sum_k exp(s_jk) with s_jk = scale*sim(t_j, v_k),
    then row renormalization; A^t with modalities exchanged.

    Taken in log space, so that no exponential overflows and a row whose
    posteriors all underflow is still defined: renormalizing the row
    P(u | j) over j is the softmax over j of log P(u | j)."""
    n = len(v)

    def sim(a, b):
        return sum(x * y for x, y in zip(a, b))

    def targets(queries, keys):
        # log_post[j][k] = log P(key k | query j)
        log_post = []
        for j in range(n):
            logits = [scale * sim(queries[j], keys[k]) for k in range(n)]
            m = max(logits)
            lse = m + math.log(sum(math.exp(x - m) for x in logits))
            log_post.append([x - lse for x in logits])
        return [softmax_row_scalar([log_post[j][i] for j in range(n)], 1.0) for i in unaligned]

    return targets(t, v), targets(v, t)


def bootstrap_targets_scalar(v, t, scale, unaligned):
    def sim(a, b):
        return sum(x * y for x, y in zip(a, b))

    n = len(v)
    image_targets = [softmax_row_scalar([sim(v[i], t[j]) for j in range(n)], scale)
                     for i in unaligned]
    text_targets = [softmax_row_scalar([sim(t[i], v[j]) for j in range(n)], scale)
                    for i in unaligned]
    return image_targets, text_targets


def retrieval_scalar(v, t, k_list):
    """Brute-force ranking: sort each query's candidates by (-score, index)."""
    n = len(v)

    def sim(a, b):
        return sum(x * y for x, y in zip(a, b))

    results = {}
    for name, queries, keys in (("image_to_text", v, t), ("text_to_image", t, v)):
        ranks = []
        for i in range(n):
            scored = sorted(((-sim(queries[i], keys[j]), j) for j in range(n)))
            ranks.append([j for _, j in scored].index(i) + 1)
        results[name] = {
            "recall_at": {k: 100.0 * sum(r <= k for r in ranks) / n for k in k_list},
            "mean_rank": sum(ranks) / n,
        }
    return results


def zero_shot_scalar(emb, prototypes, labels):
    def sim(a, b):
        return sum(x * y for x, y in zip(a, b))

    hits = 0
    for row, label in zip(emb, labels):
        best, best_score = 0, sim(row, prototypes[0])
        for k in range(1, len(prototypes)):
            s = sim(row, prototypes[k])
            if s > best_score:
                best, best_score = k, s
        hits += best == label
    return 100.0 * hits / len(labels)


def linspace_edges(bins):
    """The bin edges of [-1, 1] as ``np.linspace(-1, 1, bins + 1)`` rounds
    them: j * fl(2 / bins) - 1, one rounding each, and the last edge 1.
    ``-1 + 2 j / bins`` differs from them by an ulp for most bin counts."""
    step = 2.0 / bins
    return [j * step - 1.0 for j in range(bins)] + [1.0]


def histogram_scalar(values, bins):
    """Equal-width binning over [-1, 1]: left-closed right-open, last bin
    closed (numpy.histogram convention, replicated via bisect on the
    package's edges)."""
    edges = linspace_edges(bins)
    counts = [0] * bins
    for x in values:
        x = min(1.0, max(-1.0, x))
        idx = bisect.bisect_right(edges, x) - 1
        counts[min(idx, bins - 1)] += 1
    return counts


def adam_scalar_trajectory(p0, grads_per_step, lrs, beta1, beta2, eps, wd, mask):
    """Decoupled-decay Adam reference on plain Python lists, with one rate
    of ``lrs`` per step; ``mask`` scales each entry's decay."""
    p = list(p0)
    m = [0.0] * len(p)
    v = [0.0] * len(p)
    out = []
    for step, (g, rate) in enumerate(zip(grads_per_step, lrs), start=1):
        p = [x * (1.0 - rate * wd * k) for x, k in zip(p, mask)]
        m = [beta1 * mi + (1 - beta1) * gi for mi, gi in zip(m, g)]
        v = [beta2 * vi + (1 - beta2) * gi * gi for vi, gi in zip(v, g)]
        mh = [mi / (1 - beta1 ** step) for mi in m]
        vh = [vi / (1 - beta2 ** step) for vi in v]
        p = [x - rate * mi / (math.sqrt(vi) + eps) for x, mi, vi in zip(p, mh, vh)]
        out.append(list(p))
    return out


def softmax_rows(m, scale: float) -> np.ndarray:
    """Row-wise softmax of ``scale * m`` with per-row max subtraction: each
    row is nonnegative and sums to 1. A non-finite ``m`` or a scale that is
    not a positive real raises InvalidInputError."""
    m = as_matrix(m, "softmax input")
    if not (math.isfinite(scale) and scale > 0.0):
        raise InvalidInputError(f"softmax scale must be a positive real, got {scale}")
    probs = scale * m
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def target_rows(targets: SoftTargets, rows) -> tuple[np.ndarray, np.ndarray]:
    """The dense |U| x n rows of soft targets for the soft ``rows``, from
    their factors: row u of the first is image rows[u]'s target over the
    texts, row u of the second text rows[u]'s over the images."""
    rows, e = np.asarray(rows, dtype=np.int64), targets.exp
    image = e[rows] * targets.p[rows, None]
    image *= targets.g
    text = e[:, rows] * targets.r[:, None]
    text *= targets.s[rows]
    return image, text.T


def softmax_xent(logits: np.ndarray, weights: np.ndarray, labels: np.ndarray,
                 soft_rows: np.ndarray, soft_targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Weighted softmax cross-entropy over the rows of ``logits``, with its
    gradient: returns (sum_i weights[i] * H(q_i, softmax(x_i)), d_logits),
    where x_i is row i of ``logits`` and d_logits has its shape.

    Target q_i is one-hot at ``labels[i]`` (a hard row), except for the rows
    listed in ``soft_rows``, whose targets are the matching rows of
    ``soft_targets`` (soft rows; their labels are ignored). No dense target
    matrix is built. The loss is taken in log-sum-exp form,
    H(q, softmax(x)) = lse(x) * sum(q) - q . x, with each row shifted by its
    own max, so it stays exact however far apart the logits are;
    d_x_i = weights[i] * (softmax(x_i) * sum(q_i) - q_i), formed as
    exp(x_i - max) times weights[i] * sum(q_i) / sum(exp) with the target
    subtracted in place. Zero rows give (0.0, an empty array).
    """
    n, cols = logits.shape
    if (weights.shape != (n,) or labels.shape != (n,)
            or soft_targets.shape != (soft_rows.size, cols)):
        raise InvalidInputError(
            f"shape mismatch: logits {logits.shape}, weights {weights.shape}, labels "
            f"{labels.shape}, {soft_rows.size} soft rows, soft targets {soft_targets.shape}")
    top = logits.max(axis=1, keepdims=True)
    grad = logits - top
    np.exp(grad, out=grad)
    total = grad.sum(axis=1, keepdims=True)
    lse = (top + np.log(total)).ravel()
    mass = np.ones(n)  # sum(q_i) of every target: 1 for a hard row
    mass[soft_rows] = soft_targets.sum(axis=1)
    grad *= (weights * mass).reshape(total.shape) / total
    hard = np.ones(n, dtype=bool)
    hard[soft_rows] = False
    rows = np.flatnonzero(hard)
    at = (rows, labels[rows])
    grad[at] -= weights[rows]
    picked = np.empty(n)
    picked[rows] = logits[at]
    soft = logits[soft_rows]
    picked[soft_rows] = np.einsum("ij,ij->i", soft_targets, soft)
    np.multiply(soft_targets, weights[soft_rows, None], out=soft)  # reuse the gathered block
    grad[soft_rows] -= soft
    return float(weights @ (lse * mass - picked)), grad


def dense_xent(scaled_v, t, weights, soft_rows, row_targets, col_targets):
    """``contrastive_xent`` from dense soft rows: this module's row kernel
    ``softmax_xent`` over the rows of L = scaled_v t^T and over the rows of
    a transposed copy of L, each row shifted by its own max. Returns
    (loss, d_scaled_v, d_t), as the kernel does."""
    logits = scaled_v @ t.T
    labels = np.arange(logits.shape[0])
    loss_r, grad_r = softmax_xent(logits, weights, labels, soft_rows, row_targets)
    loss_c, grad_c = softmax_xent(np.ascontiguousarray(logits.T), weights, labels, soft_rows,
                                  col_targets)
    block = grad_r + grad_c.T
    return loss_r + loss_c, block @ t, block.T @ scaled_v


def single_pass_words(seed: int, start: int, n: int) -> np.ndarray:
    """Words start + 1 .. start + n of the counter stream of ``seed``, each
    step one array operation over the whole counter range."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= _GAMMA
    z += seed
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def single_pass_normals(words: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` pairwise Box-Muller normals of an even count of
    ``words``, each step one array operation over all of them."""
    u = (words >> 11).astype(np.float64)
    u1 = (u[0::2] + 1.0) * 2.0**-53
    u2 = u[1::2] * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    z = np.empty_like(u)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:size]
