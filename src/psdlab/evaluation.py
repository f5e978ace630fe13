"""Evaluation protocols: retrieval, zero-shot, linear probe, similarity stats.

All operations are read-only over embedding matrices. Ranking ties break
toward the lower index so every metric is exactly reproducible.

Retrieval and the similarity statistics come from one scan of the score
matrix S = V T^T, ``score_eval``, which forms S a block of rows at a time
(about ``SCAN_ENTRIES`` entries, so S is never held whole once n passes
512) and reads each block once. Every partner score S[i, i] is computed
once, from the diagonal of its block's square corner V[b] T[b]^T: before
the scan, because text-to-image ranks compare every block against every
partner, except in the first block, whose corner the scan forms anyway (so
a one-block scan runs one gemm). It is written into the scanned block's
diagonal, so both rank directions and the positive histogram compare
against one set of values.
Image-to-text ranks count along the rows of each block, text-to-image ranks
add up along its columns. Outside a block's corner every candidate lies on
one side of the partner's index, so one comparison (>= before it, > after
it) counts both the higher scores and the ties that rank ahead; only the
corner scans for ties. Each comparison mask is counted by ``_count_true``,
which sums its bytes in the narrowest unsigned dtype that holds the length
of the counted axis (uint8 up to 255 entries, uint16 up to 65535), not in
the intp that ``np.count_nonzero`` casts every entry to. A count is at most
that length, so it cannot overflow; each count is added on its own into the
int64 ranks, so no two narrow counts are ever summed in their own dtype.
The negative (off-diagonal) histogram is the histogram of all of S minus
that of its diagonal, and the negative mean is (sum S - trace S) /
(n^2 - n), so no n x n mask or gather is built.

The histograms count with ``equal_width_counts``, which bins by arithmetic
rather than by sorting: it scales each clipped score onto [0, bins], takes
the floor as the bin, and looks up in the edges only the scores whose scaled
value lies within a rounding margin of a whole number. The counts equal
``np.histogram`` over ``np.linspace(-1, 1, bins + 1)`` exactly; the
function's docstring bounds the rounding that makes them so.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError, check_ranges, within
from .numkit import as_matrix

PROBE_L2_DEFAULT = 1e-4
PROBE_MAX_ITERS = 1000  # L-BFGS iterations before the probe stops unconverged
LBFGS_HISTORY = 10   # curvature pairs the probe's L-BFGS keeps
ARMIJO_C1 = 1e-4     # the share of the linear decrease a probe step must reach
MAX_BACKTRACKS = 30  # step halvings before the probe's line search gives up
SCAN_ENTRIES = 1 << 18  # entries of S per scanned block: 2 MB of float64
BIN_CHUNK = 1 << 15     # entries binned per pass: its four work arrays, 1 MB, stay in L2
MAX_BINS = 1 << 16      # the most histogram bins equal_width_counts' margin covers
EDGE_MARGIN = 2.0 ** -32  # scaled distance from a bin edge below which the edges decide
# The range of each evaluation key, for ``check_eval_keys`` and for each
# function that takes the setting as an argument.
SETTING_RANGES = {"eval_every": "[0, inf)", "histogram_bins": f"[1, {MAX_BINS}]",
                  "probe_l2": "[0, inf)", "eval_per_class": "[1, inf)", "ablate_seeds": "[1, inf)"}


@dataclass(frozen=True)
class RetrievalReport:
    direction: str                  # "image_to_text" or "text_to_image"
    recall_at: dict[int, float]     # K -> percentage in [0, 100]
    mean_rank: float

    def to_dict(self) -> dict:
        return {**asdict(self), "recall_at": {str(k): v for k, v in self.recall_at.items()}}


@dataclass(frozen=True)
class SimilarityStats:
    positive_scores: np.ndarray     # the n diagonal scores
    negative_mean: float            # mean off-diagonal score; NaN when n < 2
    bin_centers: np.ndarray
    positive_counts: np.ndarray
    negative_counts: np.ndarray

    def to_dict(self) -> dict:
        return {
            "positive_mean": float(self.positive_scores.mean()),
            "negative_mean": self.negative_mean,
            "bin_centers": self.bin_centers.tolist(),
            "positive_counts": self.positive_counts.tolist(),
            "negative_counts": self.negative_counts.tolist(),
        }


@dataclass
class ProbeResult:
    accuracy: float                 # held-out top-1, percent
    train_accuracy: float
    iterations: int
    final_loss: float
    line_search_fallbacks: int

    def to_dict(self) -> dict:
        return asdict(self)


def _check_unit_rows(m: np.ndarray, name: str) -> None:
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    if norms.size and np.abs(norms - 1.0).max() > 1e-6:
        raise InvalidInputError(f"{name} rows must be unit-norm")


def _unit_pairs(image_emb, text_emb) -> tuple[np.ndarray, np.ndarray]:
    """Validated (V, T): finite matrices of one shape with unit-norm rows."""
    v = as_matrix(image_emb, "image embeddings")
    t = as_matrix(text_emb, "text embeddings")
    if v.shape != t.shape:
        raise InvalidInputError("embedding matrices must share a shape")
    _check_unit_rows(v, "image")
    _check_unit_rows(t, "text")
    return v, t


def _retrieval_report(direction: str, ranks: np.ndarray, k_list) -> RetrievalReport:
    recall = {k: float(100.0 * np.count_nonzero(ranks <= k) / ranks.size) for k in k_list}
    return RetrievalReport(direction=direction, recall_at=recall, mean_rank=float(ranks.mean()))


def check_eval_settings(n: int, k_list) -> None:
    """Raise InvalidInputError when a K of ``k_list`` (each >= 1, by
    ``check_eval_keys``) exceeds the n pairs ranked; callers check it up front."""
    check_ranges([("k_list", list(k_list), all(int(k) <= n for k in k_list),
                   f"not exceed the {n} pairs ranked")])


def equal_width_counts(values: np.ndarray, bins: int) -> tuple[np.ndarray, float]:
    """Counts of the 1-D ``values``, each clipped to [-1, 1], over ``bins``
    equal-width bins, and the sum of the clipped values. The counts are
    exactly ``np.histogram`` of the clipped values over ``np.linspace(-1, 1,
    bins + 1)``, bins left-closed and the last one closed, for bins in
    [1, MAX_BINS]; ``values`` is left as it is.

    It walks the values in chunks of ``BIN_CHUNK``, whose work arrays stay
    in cache: it clips each chunk, adds its sum to the total, scales each
    clipped x to t = x (b/2) + b/2 (b = bins) and counts floor t with
    ``np.bincount``. Only the x whose t lies within ``EDGE_MARGIN`` of a
    whole number take their bin from the edges instead, by binary search.

    Why the floor is exact elsewhere, with u = 2^-53: x lies in bin j when
    edges[j] <= x < edges[j + 1], that is when the exact (x + 1) b/2 lies
    between the scaled edges (edges[j] + 1) b/2 and (edges[j + 1] + 1) b/2.
    The computed t is within u b/2 + u b = 1.5 u b of (x + 1) b/2 (b/2 is
    exact, then one rounding each for the product and the sum). linspace
    forms edges[j] = fl(fl(j s) - 1) with s = fl(2 / b), within 2u + 2u + u
    of 2j/b - 1 (s's error times j, then the two roundings), so each scaled
    edge lies within 2.5 u b of j. When t is at least 4 u b from every whole
    number, floor t is therefore the bin; 4 u b = b 2^-51 <= 2^-35 for
    b <= 2^16, which the margin of 2^-32 covers eightfold. t lies in [0, b]
    as rounding is monotone, and a t of b is whole, so it is looked up and
    lands in the closed last bin.
    """
    edges = np.linspace(-1.0, 1.0, bins + 1)
    half = bins / 2
    counts = np.zeros(bins, dtype=np.int64)
    total = 0.0
    size = min(values.size, BIN_CHUNK)
    clipped, scaled, floors = np.empty(size), np.empty(size), np.empty(size)
    index = np.empty(size, dtype=np.intp)
    for start in range(0, values.size, BIN_CHUNK):
        chunk = values[start:start + BIN_CHUNK]
        x, t, f, k = (a[:chunk.size] for a in (clipped, scaled, floors, index))
        np.clip(chunk, -1.0, 1.0, out=x)
        total += float(x.sum())
        np.multiply(x, half, out=t)
        t += half
        np.floor(t, out=f)
        np.copyto(k, f, casting="unsafe")
        t -= f  # the fractional part, exact
        near = (t < EDGE_MARGIN) | (t > 1.0 - EDGE_MARGIN)
        if near.any():
            near = np.flatnonzero(near)
            k[near] = np.minimum(np.searchsorted(edges, x[near], side="right") - 1, bins - 1)
        counts += np.bincount(k, minlength=bins)
    return counts, total


def _count_true(mask: np.ndarray, axis: int) -> np.ndarray:
    """The True entries of the 2-D boolean ``mask`` along ``axis``, in the
    narrowest unsigned dtype that holds the axis length: ``count_nonzero``
    with an axis casts every entry to intp first. The sum reads the mask as
    bytes, each 0 or 1, so no count exceeds the length and none wraps."""
    return mask.view(np.uint8).sum(axis=axis, dtype=np.min_scalar_type(mask.shape[axis]))


def score_eval(image_emb, text_emb, k_list, bins
               ) -> tuple[RetrievalReport | None, RetrievalReport | None, SimilarityStats | None]:
    """One scan of S = V T^T for (image_to_text, text_to_image, similarity):
    retrieval at each K of ``k_list`` (each partner ranked under descending
    score) and the statistics over ``bins`` equal-width bins of [-1, 1]. A
    ``k_list`` or ``bins`` of None skips that part, which is then None.

    Each block's rank counts come from ``_count_true``, in an unsigned
    dtype just wide enough for the counted axis (at most ``rows`` entries
    down a column, n along a row), so no count wraps; every count is added
    straight into the int64 ranks.

    Once its ranks are counted, ``equal_width_counts`` clips each block of
    S to [-1, 1], a chunk at a time, bins it and adds up its sum. The
    negative counts are those of all of S less those of the clipped partner
    scores, so they equal ``np.histogram`` of the clipped off-diagonal
    scores over ``np.linspace(-1, 1, bins + 1)`` exactly."""
    if bins is not None:
        check_ranges([within("histogram_bins", bins, SETTING_RANGES["histogram_bins"])])
    v, t = _unit_pairs(image_emb, text_emb)
    n = v.shape[0]
    if n == 0:
        raise InvalidInputError("evaluation requires at least one image-text pair")
    if k_list is not None:
        check_eval_settings(n, k_list)
        k_list = [int(k) for k in k_list]
        i2t_ranks = np.ones(n, dtype=np.int64)
        t2i_ranks = np.ones(n, dtype=np.int64)
    if bins is not None:
        all_counts = np.zeros(bins, dtype=np.int64)
        total = 0.0
    rows = min(n, max(1, SCAN_ENTRIES // n))
    buf = np.empty((rows, n))
    partner = np.empty(n)
    # Text-to-image ranks compare each block with every partner, so the
    # partners of the later blocks come first, each from its block's corner.
    for start in range(rows, n, rows):
        stop = start + rows
        partner[start:stop] = np.diagonal(v[start:stop] @ t[start:stop].T)
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        block = buf[:stop - start]
        np.matmul(v[start:stop], t.T, out=block)
        corner = block[:, start:stop]
        if start == 0:  # the first corner lies in the first block: one block forms S once
            partner[:stop] = corner.diagonal()
        np.fill_diagonal(corner, partner[start:stop])
        if k_list is not None:
            own, width = partner[start:stop, None], stop - start
            left, right = block[:, :start], block[:, stop:]
            # Outside the corner a tie counts exactly when the other index
            # is the lower: left of it for an image's row, above it for a
            # text's column.
            i2t_ranks[start:stop] += _count_true(left >= own, axis=1)
            i2t_ranks[start:stop] += _count_true(right > own, axis=1)
            t2i_ranks[:start] += _count_true(left > partner[:start], axis=0)
            t2i_ranks[stop:] += _count_true(right >= partner[stop:], axis=0)
            # In the corner, higher scores, then ties at a lower index found
            # by one flat scan each: 2-D nonzero is about 9x slower.
            i2t_ranks[start:stop] += _count_true(corner > own, axis=1)
            t2i_ranks[start:stop] += _count_true(corner > own.T, axis=0)
            row, col = np.divmod(np.flatnonzero(corner == own), width)
            i2t_ranks[start:stop] += np.bincount(row[col < row], minlength=width)
            row, col = np.divmod(np.flatnonzero(corner == own.T), width)
            t2i_ranks[start:stop] += np.bincount(col[row < col], minlength=width)
        if bins is not None:
            counts, block_total = equal_width_counts(block.ravel(), bins)
            all_counts += counts
            total += block_total
    i2t = t2i = stats = None
    if k_list is not None:
        i2t = _retrieval_report("image_to_text", i2t_ranks, k_list)
        t2i = _retrieval_report("text_to_image", t2i_ranks, k_list)
    if bins is not None:
        positives = np.clip(partner, -1.0, 1.0)
        pos_counts, pos_total = equal_width_counts(positives, bins)
        negative_mean = math.nan
        if n > 1:
            negative_mean = (total - pos_total) / (n * n - n)
        edges = np.linspace(-1.0, 1.0, bins + 1)
        stats = SimilarityStats(positive_scores=positives, negative_mean=negative_mean,
                                bin_centers=0.5 * (edges[:-1] + edges[1:]),
                                positive_counts=pos_counts,
                                negative_counts=all_counts - pos_counts)
    return i2t, t2i, stats


def retrieval_eval(image_emb, text_emb, k_list) -> tuple[RetrievalReport, RetrievalReport]:
    """Rank each row's true partner under descending dot product; reports
    (image_to_text, text_to_image)."""
    return score_eval(image_emb, text_emb, k_list, None)[:2]


def zero_shot_top1(emb, prototypes, labels) -> float:
    """Top-1 accuracy (percent) of nearest-prototype classification."""
    v = as_matrix(emb, "embeddings")
    p = as_matrix(prototypes, "prototypes")
    labels = np.asarray(labels, dtype=np.int64)
    if v.shape[1] != p.shape[1]:
        raise InvalidInputError("embeddings and prototypes must share a dimension")
    if labels.shape != (v.shape[0],):
        raise InvalidInputError("one label per embedding row required")
    check_ranges([within("labels", int(end), f"[0, {p.shape[0] - 1}]")
                  for end in (labels.min(initial=0), labels.max(initial=0))])
    _check_unit_rows(v, "embeddings")
    preds = np.argmax(v @ p.T, axis=1)  # argmax takes the lowest tied index
    return float(100.0 * np.count_nonzero(preds == labels) / max(1, labels.size))


def probe_loss_and_grad(w_flat: np.ndarray, features: np.ndarray, labels: np.ndarray,
                        num_classes: int, l2: float) -> tuple[float, np.ndarray]:
    """Multinomial logistic loss (mean cross entropy) + l2/2 * ||W||^2 on the
    weights (bias excluded), with its exact gradient.

    With logits x_i = features[i] @ W + b, the cross entropy is taken in
    log-sum-exp form, mean_i (lse(x_i) - x_i[labels[i]]), each row shifted
    by its own max so it stays exact however far apart the logits are. Its
    gradient in x_i is (softmax(x_i) - onehot(labels[i])) / n, formed as
    exp(x_i - max) times (1/n) / sum(exp), less 1/n at the label.

    The row max is taken one class column at a time with ``np.maximum``,
    since a reduction along a short row costs per row, not per entry; a max
    is exact in any order. Every other operation (the gemms, the sums, the
    gather at the labels) runs in the order of the tests' reference
    cross entropy, ``oracles.softmax_xent``, which pins the loss and
    gradient bit for bit.
    """
    n, d = features.shape
    w = w_flat[: d * num_classes].reshape(d, num_classes)
    b = w_flat[d * num_classes:]
    logits = features @ w + b
    top = logits[:, :1].copy()
    for c in range(1, num_classes):
        np.maximum(top, logits[:, c:c + 1], out=top)
    delta = logits - top
    np.exp(delta, out=delta)
    total = delta.sum(axis=1, keepdims=True)
    lse = (top + np.log(total)).ravel()
    weights = np.full(n, 1.0 / n)
    delta *= weights.reshape(total.shape) / total
    at = (np.arange(n), labels)
    delta[at] -= weights
    loss = float(weights @ (lse - logits[at])) + 0.5 * l2 * float((w * w).sum())
    grad_w = features.T @ delta + l2 * w
    grad_b = delta.sum(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def _backtrack(f, x, direction, f0, g0):
    """Armijo backtracking along ``direction`` from x: the first of the steps
    1, 1/2, 1/4, ... (at most ``MAX_BACKTRACKS``) whose loss is at most
    f0 + ARMIJO_C1 * step * (g0 . direction). Returns that step with the
    loss and gradient at x + step * direction, or None when ``direction``
    does not descend or no step qualifies."""
    slope = float(g0 @ direction)
    if not slope < 0.0:
        return None
    step = 1.0
    for _ in range(MAX_BACKTRACKS):
        val, grad = f(x + step * direction)
        if val <= f0 + ARMIJO_C1 * step * slope:
            return step, val, grad
        step *= 0.5
    return None


def _lbfgs_direction(grad, s_hist, y_hist):
    """Two-loop recursion with H0 = gamma * I from the newest pair."""
    q = grad.copy()
    alphas = []
    rhos = [1.0 / float(y @ s) for s, y in zip(s_hist, y_hist)]
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rhos)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        gamma = float(s @ y) / float(y @ y)
        q *= gamma
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rhos), reversed(alphas)):
        beta = rho * float(y @ q)
        q += (a - beta) * s
    return -q


def linear_probe(train_features, train_labels, test_features, test_labels,
                 l2: float = PROBE_L2_DEFAULT) -> ProbeResult:
    """Multinomial logistic regression on frozen features, trained from zero
    weights by L-BFGS with backtracking (Armijo) steps; returns held-out
    top-1.

    The loss is convex, so a step needs no curvature condition for its pair
    (s, y) to have y . s >= 0; the update keeps the pairs with y . s above
    1e-12, which keeps the inverse-Hessian estimate positive definite. When
    the search finds no step along the L-BFGS direction, it runs along minus
    the gradient (counted in the result); if even that cannot decrease the
    loss, optimization stops, which keeps the loss monotone over accepted
    iterates.
    """
    check_ranges([within("probe_l2", l2, SETTING_RANGES["probe_l2"])])
    x_tr = as_matrix(train_features, "train features")
    x_te = as_matrix(test_features, "test features")
    y_tr = np.asarray(train_labels, dtype=np.int64)
    y_te = np.asarray(test_labels, dtype=np.int64)
    if y_tr.shape != (x_tr.shape[0],) or y_te.shape != (x_te.shape[0],):
        raise InvalidInputError("one label per feature row required")
    if not (y_tr.size and y_te.size):
        raise InvalidInputError("linear probe requires a nonempty train and test set")
    if min(y_tr.min(), y_te.min()) < 0:
        raise InvalidInputError("labels must be class indices 0, 1, ...")
    classes = int(max(y_tr.max(), y_te.max())) + 1
    if classes < 2:
        raise InvalidInputError("linear probe requires at least 2 classes")
    d = x_tr.shape[1]

    def f(w):
        return probe_loss_and_grad(w, x_tr, y_tr, classes, l2)

    w = np.zeros(d * classes + classes)
    loss, grad = f(w)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    fallbacks = 0
    iterations = 0
    for _ in range(PROBE_MAX_ITERS):
        if np.abs(grad).max() < 1e-7:
            break
        direction = _lbfgs_direction(grad, s_hist, y_hist)
        accepted = _backtrack(f, w, direction, loss, grad)
        if accepted is None:
            direction = -grad
            accepted = _backtrack(f, w, direction, loss, grad)
            if accepted is None:
                break
            fallbacks += 1
        # The point the line search evaluated, by the same expression.
        step, loss_new, grad_new = accepted
        w_new = w + step * direction
        s, delta_g = w_new - w, grad_new - grad
        if float(delta_g @ s) > 1e-12:
            s_hist.append(s)
            y_hist.append(delta_g)
            if len(s_hist) > LBFGS_HISTORY:
                s_hist.pop(0)
                y_hist.pop(0)
        w, loss, grad = w_new, loss_new, grad_new
        iterations += 1

    def accuracy(x, y):
        logits = x @ w[: d * classes].reshape(d, classes) + w[d * classes:]
        return float(100.0 * np.count_nonzero(np.argmax(logits, axis=1) == y) / max(1, y.size))

    return ProbeResult(accuracy=accuracy(x_te, y_te),
                       train_accuracy=accuracy(x_tr, y_tr),
                       iterations=iterations, final_loss=loss,
                       line_search_fallbacks=fallbacks)


def similarity_stats(image_emb, text_emb, bins: int) -> SimilarityStats:
    """Diagonal (positive) vs off-diagonal (negative) dot products with
    equal-width histograms over [-1, 1]."""
    return score_eval(image_emb, text_emb, None, bins)[2]
