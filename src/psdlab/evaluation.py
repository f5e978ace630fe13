"""Evaluation protocols: retrieval, zero-shot, linear probe, similarity stats.

All operations are read-only over embedding matrices. Ranking ties break
toward the lower index so every metric is exactly reproducible.

Retrieval and the similarity statistics each compute the score matrix
S = V T^T once and read both directions from it: image-to-text ranks count
along the rows of S, text-to-image ranks along its columns, with no
transposed copy and no loop over rows. The negative (off-diagonal) histogram
is the histogram of all of S minus that of its diagonal, and the negative
mean is (sum S - trace S) / (n^2 - n), so no n x n mask or gather is built.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .numkit import as_matrix, softmax_xent

PROBE_L2_DEFAULT = 1e-4


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
    norms = np.sqrt((m * m).sum(axis=1))
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


def _ranks_of_partner(scores: np.ndarray, axis: int) -> np.ndarray:
    """1-based rank of each diagonal entry under descending score among the
    entries of its row (axis=1) or its column (axis=0) of ``scores``, ties
    resolved toward the lower index."""
    n = scores.shape[0]
    # A contiguous copy: broadcasting the strided diagonal view against the
    # columns is several times slower.
    partner = np.expand_dims(scores.diagonal().copy(), axis)
    higher = np.count_nonzero(scores > partner, axis=axis)
    # Ties from one flat scan: 2-D nonzero is about 9x slower at n = 4000.
    rows, cols = np.divmod(np.flatnonzero(scores == partner), n)
    query, other = (rows, cols) if axis == 1 else (cols, rows)
    tied_before = np.bincount(query[other < query], minlength=n)
    return higher + tied_before + 1


def retrieval_eval(image_emb, text_emb, k_list) -> tuple[RetrievalReport, RetrievalReport]:
    """Rank each row's true partner under descending dot product; reports
    (image_to_text, text_to_image)."""
    v, t = _unit_pairs(image_emb, text_emb)
    n = v.shape[0]
    k_list = [int(k) for k in k_list]
    if any(k < 1 or k > n for k in k_list):
        raise InvalidInputError(f"every K must lie in [1, {n}], got {k_list}")
    scores = v @ t.T
    reports = []
    for direction, axis in (("image_to_text", 1), ("text_to_image", 0)):
        ranks = _ranks_of_partner(scores, axis)
        recall = {k: float(100.0 * np.count_nonzero(ranks <= k) / n) for k in k_list}
        reports.append(RetrievalReport(direction=direction, recall_at=recall,
                                       mean_rank=float(ranks.mean())))
    return reports[0], reports[1]


def zero_shot_top1(emb, prototypes, labels) -> float:
    """Top-1 accuracy (percent) of nearest-prototype classification."""
    v = as_matrix(emb, "embeddings")
    p = as_matrix(prototypes, "prototypes")
    labels = np.asarray(labels, dtype=np.int64)
    if v.shape[1] != p.shape[1]:
        raise InvalidInputError("embeddings and prototypes must share a dimension")
    if labels.shape != (v.shape[0],):
        raise InvalidInputError("one label per embedding row required")
    if labels.size and (labels.min() < 0 or labels.max() >= p.shape[0]):
        raise InvalidInputError(f"labels must lie in 0..{p.shape[0] - 1}")
    _check_unit_rows(v, "embeddings")
    preds = np.argmax(v @ p.T, axis=1)  # argmax takes the lowest tied index
    return float(100.0 * np.count_nonzero(preds == labels) / max(1, labels.size))


def probe_loss_and_grad(w_flat: np.ndarray, features: np.ndarray, labels: np.ndarray,
                        num_classes: int, l2: float) -> tuple[float, np.ndarray]:
    """Multinomial logistic loss (mean cross entropy) + l2/2 * ||W||^2 on the
    weights (bias excluded), with its exact gradient."""
    n, d = features.shape
    w = w_flat[: d * num_classes].reshape(d, num_classes)
    b = w_flat[d * num_classes:]
    xent, delta = softmax_xent(features @ w + b, np.full(n, 1.0 / n), labels,
                               np.zeros(0, dtype=np.int64), np.zeros((0, num_classes)))
    loss = xent + 0.5 * l2 * float((w * w).sum())
    grad_w = features.T @ delta + l2 * w
    grad_b = delta.sum(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def _strong_wolfe(f, x, direction, f0, g0, c1=1e-4, c2=0.9, max_iter=25):
    """Strong Wolfe line search (bracket + zoom). Returns a step length or
    None when no acceptable step was found."""
    d0 = float(g0 @ direction)
    if d0 >= 0.0:
        return None

    def phi(alpha):
        val, grad = f(x + alpha * direction)
        return val, float(grad @ direction)

    alpha_prev, phi_prev, dphi_prev = 0.0, f0, d0
    alpha = 1.0
    alpha_max = 1e3

    def zoom(lo, phi_lo, dphi_lo, hi, phi_hi):
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            phi_mid, dphi_mid = phi(mid)
            if phi_mid > f0 + c1 * mid * d0 or phi_mid >= phi_lo:
                hi, phi_hi = mid, phi_mid
            else:
                if abs(dphi_mid) <= -c2 * d0:
                    return mid
                if dphi_mid * (hi - lo) >= 0.0:
                    hi, phi_hi = lo, phi_lo
                lo, phi_lo, dphi_lo = mid, phi_mid, dphi_mid
            if abs(hi - lo) < 1e-16:
                break
        return None

    for it in range(max_iter):
        phi_a, dphi_a = phi(alpha)
        if phi_a > f0 + c1 * alpha * d0 or (it > 0 and phi_a >= phi_prev):
            return zoom(alpha_prev, phi_prev, dphi_prev, alpha, phi_a)
        if abs(dphi_a) <= -c2 * d0:
            return alpha
        if dphi_a >= 0.0:
            return zoom(alpha, phi_a, dphi_a, alpha_prev, phi_prev)
        alpha_prev, phi_prev, dphi_prev = alpha, phi_a, dphi_a
        alpha = min(2.0 * alpha, alpha_max)
    return None


def _armijo_gradient_step(f, x, f0, g0, max_backtracks=30):
    """Backtracking steepest-descent fallback; None when nothing decreases."""
    step = 1.0
    sq = float(g0 @ g0)
    for _ in range(max_backtracks):
        val, _ = f(x - step * g0)
        if val <= f0 - 1e-4 * step * sq:
            return step
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
                 max_iters: int = 1000, history: int = 10,
                 l2: float = PROBE_L2_DEFAULT) -> ProbeResult:
    """Multinomial logistic regression on frozen features, trained from zero
    weights by L-BFGS with strong-Wolfe steps; returns held-out top-1.

    A failed line search falls back to one Armijo gradient step (counted in
    the result); if even that cannot decrease the loss, optimization stops,
    which keeps the loss monotone over accepted iterates.
    """
    x_tr = as_matrix(train_features, "train features")
    x_te = as_matrix(test_features, "test features")
    y_tr = np.asarray(train_labels, dtype=np.int64)
    y_te = np.asarray(test_labels, dtype=np.int64)
    if y_tr.shape != (x_tr.shape[0],) or y_te.shape != (x_te.shape[0],):
        raise InvalidInputError("one label per feature row required")
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
    for _ in range(max_iters):
        if np.abs(grad).max() < 1e-7:
            break
        direction = _lbfgs_direction(grad, s_hist, y_hist)
        step = _strong_wolfe(f, w, direction, loss, grad)
        if step is None:
            step = _armijo_gradient_step(f, w, loss, grad)
            if step is None:
                break
            direction = -grad
            fallbacks += 1
        w_new = w + step * direction
        loss_new, grad_new = f(w_new)
        s, delta_g = w_new - w, grad_new - grad
        if float(delta_g @ s) > 1e-12:
            s_hist.append(s)
            y_hist.append(delta_g)
            if len(s_hist) > history:
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
    if bins < 1:
        raise InvalidInputError(f"bins must be >= 1, got {bins}")
    v, t = _unit_pairs(image_emb, text_emb)
    n = v.shape[0]
    scores = v @ t.T
    np.clip(scores, -1.0, 1.0, out=scores)
    positives = scores.diagonal().copy()
    edges = np.linspace(-1.0, 1.0, bins + 1)
    pos_counts, _ = np.histogram(positives, bins=edges)
    all_counts, _ = np.histogram(scores, bins=edges)
    negative_mean = math.nan
    if n > 1:
        negative_mean = (float(scores.sum()) - float(positives.sum())) / (n * n - n)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return SimilarityStats(positive_scores=positives, negative_mean=negative_mean,
                           bin_centers=centers, positive_counts=pos_counts,
                           negative_counts=all_counts - pos_counts)


def histogram_csv(stats: SimilarityStats, which: str) -> str:
    """Two-column CSV (bin_center, count) for one of the two histograms."""
    counts = stats.positive_counts if which == "positive" else stats.negative_counts
    lines = ["bin_center,count"]
    lines += [f"{float(c)!r},{int(k)}" for c, k in zip(stats.bin_centers, counts)]
    return "\n".join(lines) + "\n"
