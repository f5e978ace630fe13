"""Contrastive losses with analytic gradients.

Implements the bidirectional InfoNCE loss, the two soft-alignment target
constructions (swapped prediction and forward bootstrapping), and the
partitioned progressive self-distillation objective. Each loss returns its
value together with exact partial derivatives with respect to both embedding
matrices and the learnable log inverse-temperature.

Both losses are one cross-entropy with two target kinds
(``numkit.contrastive_xent``) over the rows (images over texts) and the
columns (texts over images) of the logit matrix (scale * V) T^T. The kernel
takes the two factors and returns the gradients in them; the teacher
targets reach those gradients through the same factors and are never
written into an n x n block. A hard row targets its own partner; a soft row
targets the teacher's distribution. InfoNCE is every row hard with weight
1/N; the PSD loss weights the aligned (hard) rows alpha/|A| and the
unaligned (soft) rows (1 - alpha)/|U|.

The teacher reads the rows and columns of its own (teacher_scale * V) T^T in
the same way. Swapped targets need both axes' log-normalizers; for unit-norm
embeddings every logit lies within 2 * teacher_scale of the largest, so one
exponential under the global max serves both (``numkit.exp_both_axes``). Its
span rule asks every logit to lie within 600 of the largest, because a
target divides single exponentials by their sums and one that underflowed
could have led its row; wider matrices take one max-shifted exponential per
axis.
Bootstrap targets exponentiate only their |U| gathered rows.

Gradient convention: embeddings are treated as free variables (the losses are
smooth functions of the raw matrix entries), so every gradient can be checked
coordinate-wise against central finite differences. Soft targets are plain
arrays and never receive gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatchError, InvalidInputError
from .numkit import as_matrix, contrastive_xent, exp_both_axes, exp_shifted

MAX_LOGIT_SCALE = 100.0


@dataclass(frozen=True)
class TemperatureParam:
    """Learnable log inverse-temperature: logit scale = exp(log_scale) = 1/tau."""

    log_scale: float

    @property
    def scale(self) -> float:
        return math.exp(self.log_scale)

    @classmethod
    def from_temperature(cls, tau: float) -> "TemperatureParam":
        if not (math.isfinite(tau) and tau > 0.0):
            raise InvalidInputError(f"temperature must be a positive real, got {tau}")
        return cls(log_scale=math.log(1.0 / tau))


def clamp_scale(temp: TemperatureParam) -> TemperatureParam:
    """Cap the logit scale at 100; values at or below are untouched."""
    limit = math.log(MAX_LOGIT_SCALE)
    if temp.log_scale > limit:
        return TemperatureParam(log_scale=limit)
    return temp


@dataclass(frozen=True)
class EmbeddingBatch:
    """Paired image/text embedding matrices, one row per pair.

    Shape and finiteness are enforced here; unit row norms are the encoder's
    postcondition (finite-difference probes legitimately evaluate the losses
    at slightly off-unit points).
    """

    image: np.ndarray
    text: np.ndarray

    def __post_init__(self):
        v = as_matrix(self.image, "image embeddings")
        t = as_matrix(self.text, "text embeddings")
        if v.shape != t.shape:
            raise InvalidInputError(f"embedding shape mismatch: image {v.shape} vs text {t.shape}")
        object.__setattr__(self, "image", v)
        object.__setattr__(self, "text", t)

    @property
    def n(self) -> int:
        return self.image.shape[0]


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint split of batch rows into aligned (hard-target) and unaligned
    (soft-target) subsets, plus the mixing coefficient alpha.

    Index arrays are kept sorted ascending. make_partition guarantees
    len(aligned_idx) == floor(alpha * n); hand-built plans may decouple alpha
    from the split, which the affine-in-alpha property relies on.
    """

    aligned_idx: np.ndarray
    unaligned_idx: np.ndarray
    alpha: float

    def __post_init__(self):
        a = np.sort(np.asarray(self.aligned_idx, dtype=np.int64))
        u = np.sort(np.asarray(self.unaligned_idx, dtype=np.int64))
        n = a.size + u.size
        merged = np.concatenate([a, u])
        merged.sort()
        if n == 0 or not np.array_equal(merged, np.arange(n, dtype=np.int64)):
            raise InvalidInputError("aligned and unaligned indices must disjointly cover 0..N-1")
        if not (0.0 <= self.alpha <= 1.0):
            raise InvalidInputError(f"alpha must lie in [0, 1], got {self.alpha}")
        object.__setattr__(self, "aligned_idx", a)
        object.__setattr__(self, "unaligned_idx", u)

    @property
    def n(self) -> int:
        return self.aligned_idx.size + self.unaligned_idx.size

    @property
    def n_unaligned(self) -> int:
        return self.unaligned_idx.size


@dataclass(frozen=True)
class SoftTargets:
    """Teacher-produced alignment distributions for the unaligned subset.

    Row u of each matrix is the target distribution for batch row
    unaligned_idx[u]: image_targets rows are distributions over the batch's
    texts, text_targets rows over its images. Targets are constants to the
    student; no gradient flows into them.
    """

    image_targets: np.ndarray
    text_targets: np.ndarray
    teacher_scale: float

    def __post_init__(self):
        a_v = np.ascontiguousarray(self.image_targets, dtype=np.float64)
        a_t = np.ascontiguousarray(self.text_targets, dtype=np.float64)
        for name, m in (("image_targets", a_v), ("text_targets", a_t)):
            if m.ndim != 2:
                raise InvalidInputError(f"{name} must be 2-D")
            # Written so that NaN, for which every comparison is false, fails.
            if m.size and not (m.min() >= -1e-12 and m.max() <= 1.0 + 1e-12):
                raise InvalidInputError(f"{name} entries must be numbers in [0, 1]")
            if m.shape[0] and not np.abs(m.sum(axis=1) - 1.0).max() <= 1e-9:
                raise InvalidInputError(f"{name} rows must sum to 1 within 1e-9")
        if a_v.shape != a_t.shape:
            raise InvalidInputError("image_targets and text_targets must share a shape")
        if not (math.isfinite(self.teacher_scale) and self.teacher_scale > 0.0):
            raise InvalidInputError(f"teacher scale must be positive, got {self.teacher_scale}")
        object.__setattr__(self, "image_targets", a_v)
        object.__setattr__(self, "text_targets", a_t)


@dataclass
class LossGrad:
    """Loss value with gradients for both embedding matrices and log-scale."""

    loss: float
    d_image: np.ndarray
    d_text: np.ndarray
    d_log_scale: float


def _bidirectional_xent(batch: EmbeddingBatch, temp: TemperatureParam, weights: np.ndarray,
                       soft_rows: np.ndarray, targets_v: np.ndarray,
                       targets_t: np.ndarray) -> LossGrad:
    """Weighted cross-entropy of every image row over the texts plus every
    text row over the images, from one similarity matrix. Row i is hard
    (its target is partner i) unless listed in ``soft_rows``, whose targets
    are the rows of ``targets_v`` (image rows) and ``targets_t`` (text rows)."""
    scaled_v = temp.scale * batch.image
    loss, d_scaled_v, d_text = contrastive_xent(scaled_v, batch.text, weights, soft_rows,
                                                targets_v, targets_t)
    # sum(d_logits * logits) reduced over n x d instead of n x n, since the
    # logits are (scale * v) t^T; einsum, not a BLAS dot, because a threaded
    # BLAS splits a dot's sum across threads and its rounding would follow them.
    d_log_scale = float(np.einsum("ij,ij->", d_scaled_v, scaled_v))
    return LossGrad(loss=loss, d_image=temp.scale * d_scaled_v, d_text=d_text,
                    d_log_scale=d_log_scale)


def info_nce(batch: EmbeddingBatch, temp: TemperatureParam) -> LossGrad:
    """Bidirectional InfoNCE: row-wise cross entropy against the identity
    pairing, image-to-text plus text-to-image, each with mean reduction."""
    if batch.n == 0:
        raise EmptyBatchError("info_nce requires at least one pair")
    no_soft = np.zeros((0, batch.n))
    return _bidirectional_xent(batch, temp, np.full(batch.n, 1.0 / batch.n),
                               np.zeros(0, dtype=np.int64), no_soft, no_soft)


def _soft_targets(teacher_image, teacher_text, teacher_scale: float, plan: PartitionPlan,
                  swapped: bool) -> SoftTargets:
    """Teacher targets for the unaligned rows from one similarity matrix,
    read along its rows (images over texts) and its columns (texts over
    images): each row's own posterior, or (``swapped``) the opposite
    direction's posteriors of that row, renormalized."""
    v = as_matrix(teacher_image, "teacher image embeddings")
    t = as_matrix(teacher_text, "teacher text embeddings")
    if v.shape != t.shape:
        raise InvalidInputError("teacher matrices must share a shape")
    if v.shape[0] != plan.n:
        raise InvalidInputError(
            f"teacher matrices cover {v.shape[0]} rows but plan covers {plan.n}")
    if not (math.isfinite(teacher_scale) and teacher_scale > 0.0):
        raise InvalidInputError(f"teacher scale must be positive, got {teacher_scale}")
    u = plan.unaligned_idx
    logits = (teacher_scale * v) @ t.T
    # Row u of each result is a softmax over the batch: of s[u, j] for the
    # image's own posterior over texts j, of s[j, u] for the text's over
    # images j. Swapped targets are the opposite direction's posteriors,
    # P(image u | text j) = exp(s[u, j] - lse_i s[i, j]), renormalized. Under
    # the span rule they are quotients of one exponential by its column and
    # row sums; otherwise each axis' log-normalizer is subtracted from the
    # logits, and a renormalized row of those is its softmax.
    shared = exp_both_axes(logits, out=logits) if swapped else None
    if shared is not None:
        e, _, row_sum, col_sum = shared
        image_rows = e[u]
        image_rows /= col_sum
        text_rows = e[:, u].T
        text_rows /= row_sum.T
        for rows in (image_rows, text_rows):
            rows /= rows.sum(axis=1, keepdims=True)
        return SoftTargets(image_rows, text_rows, teacher_scale)
    image_rows = logits[u]
    text_rows = logits[:, u].T
    if swapped:
        work = np.empty_like(logits)
        _, top, total = exp_shifted(logits, 0, out=work)
        image_rows -= top + np.log(total)
        _, top, total = exp_shifted(logits, 1, out=work)
        text_rows -= (top + np.log(total)).T
    for rows in (image_rows, text_rows):
        _, _, total = exp_shifted(rows, 1, out=rows)
        rows /= total
    return SoftTargets(image_rows, text_rows, teacher_scale)


def soft_targets_swapped(teacher_image, teacher_text, teacher_scale: float,
                         plan: PartitionPlan) -> SoftTargets:
    """Swapped-prediction targets from the opposite modality's posterior.

    The alignment of image i to text j is the probability that text j matches
    image i against all other images (and symmetrically for texts), i.e. the
    transpose of the row-softmaxed opposite-direction similarity matrix. The
    transposed rows are renormalized to sum to 1 so they feed a
    proper-distribution cross entropy.
    """
    return _soft_targets(teacher_image, teacher_text, teacher_scale, plan, swapped=True)


def soft_targets_bootstrap(teacher_image, teacher_text, teacher_scale: float,
                           plan: PartitionPlan) -> SoftTargets:
    """Forward-bootstrapping targets: each row's own same-direction posterior.

    Rows of the row-softmaxed similarity matrices are already stochastic, so
    no renormalization is applied.
    """
    return _soft_targets(teacher_image, teacher_text, teacher_scale, plan, swapped=False)


def psd_loss(batch: EmbeddingBatch, temp: TemperatureParam, plan: PartitionPlan,
             targets: SoftTargets) -> LossGrad:
    """Partitioned self-distillation objective.

    alpha * [hard InfoNCE terms over the aligned rows, each contrasted against
    the full batch] + (1 - alpha) * [soft cross-entropy terms over the
    unaligned rows against the teacher targets]. Mean reduction is taken
    separately per subset; an empty subset contributes exactly 0. Gradients
    flow through every student embedding inside the softmaxes and through the
    log-scale, never through the targets.
    """
    if batch.n == 0:
        raise EmptyBatchError("psd_loss requires at least one pair")
    if plan.n != batch.n:
        raise InvalidInputError(f"plan covers {plan.n} rows but batch has {batch.n}")
    if targets.image_targets.shape != (plan.n_unaligned, batch.n):
        raise InvalidInputError(
            f"targets shape {targets.image_targets.shape} does not match "
            f"(unaligned={plan.n_unaligned}, batch={batch.n})")
    a_idx, u_idx = plan.aligned_idx, plan.unaligned_idx
    weights = np.empty(batch.n)
    weights[a_idx] = plan.alpha / max(a_idx.size, 1)
    weights[u_idx] = (1.0 - plan.alpha) / max(u_idx.size, 1)
    return _bidirectional_xent(batch, temp, weights, u_idx,
                               targets.image_targets, targets.text_targets)
