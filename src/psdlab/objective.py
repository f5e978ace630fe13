"""Contrastive losses with analytic gradients.

Implements the bidirectional InfoNCE loss, the two soft-alignment target
constructions (swapped prediction and forward bootstrapping), and the
partitioned progressive self-distillation objective. Each loss returns its
value together with exact partial derivatives with respect to both embedding
matrices and the learnable log inverse-temperature.

Both losses are one cross-entropy with two target kinds
(``numkit.contrastive_xent``) over the rows (images over texts) and the
columns (texts over images) of the logit matrix (scale * V) T^T. The kernel
takes the two factors and returns the gradients in them. A hard row targets
its own partner; a soft row targets the teacher's distribution. InfoNCE is
every row hard with weight 1/N; the PSD loss weights a plan's unaligned (soft)
rows U (1 - alpha)/|U| and every other (hard) row alpha/(n - |U|).

The teacher reads the rows and columns of its own (teacher_scale * V) T^T in
the same way and returns a target for every row as one ``numkit.SoftTargets``,
held as factors, never as dense n x n rows: every target entry is an entry
of the teacher's exponential E times one scale over the opposite modality
and one normalizer per row; the plan alone names the rows that read them.
The teacher picks the scale (for swapped targets, the reciprocals of E's
column or row sums; for bootstrap targets, 1); ``SoftTargets`` alone checks
the factors and derives the normalizers, so every target is a distribution
and the kernel takes it as one. One E = exp(S - max S) under
the global max serves both directions and both target kinds
(``numkit.exp_both_axes``). Its span rule (``numkit.shared_exp_top``) asks
every logit to lie within 600 of the largest, because a target scales single exponentials by
reciprocal sums and one that underflowed could have led its row; a wider
matrix raises InvalidInputError. For unit-norm embeddings every logit lies
within 2 * scale of the largest; every scale lies in ``LOG_SCALE_RANGE``,
at most exp(log 100) = 100.00000000000004, three ulps above 100, so a
training run's logits span about 200, well under 600.

Gradient convention: embeddings are treated as free variables (the losses are
smooth functions of the raw matrix entries), so every gradient can be checked
coordinate-wise against central finite differences. Soft targets are
constants and never receive gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_ranges, within
from .numkit import SoftTargets, contrastive_xent, exp_both_axes, increasing_rows, shared_exp_top

MAX_LOGIT_SCALE = 100.0
# The logit scale's one range, [1/100, 100], held in log space, where the clamp works:
# the floor is the cap's reciprocal; at scale 1/100, unit-norm logits span 0.02, chance.
LOG_SCALE_RANGE = (-math.log(MAX_LOGIT_SCALE), math.log(MAX_LOGIT_SCALE))


@dataclass(frozen=True)
class TemperatureParam:
    """Learnable log inverse-temperature: logit scale = exp(log_scale) = 1/tau."""

    log_scale: float

    @property
    def scale(self) -> float:
        return math.exp(self.log_scale)

    @classmethod
    def from_temperature(cls, tau: float) -> "TemperatureParam":
        """For tau in [1/100, 100], the scale's range, which ``TrainConfig`` checks."""
        return cls(log_scale=math.log(1.0 / tau))


def clamp_scale(temp: TemperatureParam) -> TemperatureParam:
    """Cap the log-scale at ``LOG_SCALE_RANGE``'s top (CLIP's 100); ``train`` judges the floor."""
    if temp.log_scale > LOG_SCALE_RANGE[1]:
        return TemperatureParam(log_scale=LOG_SCALE_RANGE[1])
    return temp


def _matrix_pair(image, text, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Both C-contiguous float64, 2-D and of one shape, else InvalidInputError."""
    v = np.ascontiguousarray(image, dtype=np.float64)
    t = np.ascontiguousarray(text, dtype=np.float64)
    if v.ndim != 2 or v.shape != t.shape:
        raise InvalidInputError(
            f"{name} must be 2-D and share a shape, got {v.shape} and {t.shape}")
    return v, t


@dataclass(frozen=True)
class EmbeddingBatch:
    """Paired image/text embedding matrices, one row per pair.

    Shape is enforced here. Finiteness is not scanned: a NaN or infinite
    entry fails the loss kernel's span rule, as it fails the teacher's (see
    ``_soft_targets``). Unit row norms are the encoder's postcondition
    (finite-difference probes legitimately evaluate the losses at slightly
    off-unit points).
    """

    image: np.ndarray
    text: np.ndarray

    def __post_init__(self):
        v, t = _matrix_pair(self.image, self.text, "embeddings")
        object.__setattr__(self, "image", v)
        object.__setattr__(self, "text", t)

    @property
    def n(self) -> int:
        return self.image.shape[0]


@dataclass(frozen=True)
class PartitionPlan:
    """The unaligned (soft-target) rows of a batch of n, sorted here and then
    held to ``numkit.increasing_rows`` as ``contrastive_xent`` holds its
    soft rows, and the mixing coefficient alpha; every other row is aligned.
    Hand-built plans may decouple alpha from the split (make_partition leaves
    n - floor(alpha * n) rows unaligned), which the affine-in-alpha property
    relies on."""

    n: int
    unaligned_idx: np.ndarray
    alpha: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"a plan covers at least one row, got n = {self.n}")
        rows = increasing_rows(np.sort(self.unaligned_idx), self.n, "unaligned rows")
        check_ranges([within("alpha", self.alpha, "[0, 1]")])
        object.__setattr__(self, "unaligned_idx", rows)


@dataclass
class LossGrad:
    """Loss value with gradients for both embedding matrices and log-scale."""

    loss: float
    d_image: np.ndarray
    d_text: np.ndarray
    d_log_scale: float


def _bidirectional_xent(batch: EmbeddingBatch, temp: TemperatureParam, weights: np.ndarray,
                       soft_rows, targets: SoftTargets | None) -> LossGrad:
    """Weighted cross-entropy of every image row over the texts plus every
    text row over the images, from one similarity matrix. Row i is hard
    (its target is partner i) unless in ``soft_rows``, which read ``targets``."""
    scaled_v = temp.scale * batch.image
    loss, d_scaled_v, d_text = contrastive_xent(scaled_v, batch.text, weights, soft_rows, targets)
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
        raise InvalidInputError("info_nce requires at least one pair")
    return _bidirectional_xent(batch, temp, np.full(batch.n, 1.0 / batch.n), (), None)


def _soft_targets(teacher_image, teacher_text, teacher_scale: float, plan: PartitionPlan,
                  swapped: bool) -> SoftTargets:
    """Teacher targets for every row from one similarity matrix S,
    read along its rows (images over texts) and its columns (texts over
    images): each row's own posterior, or (``swapped``) the opposite
    direction's posteriors of that row, renormalized. Only the factors are
    formed; no target row is gathered. Logits that span more than 600
    raise InvalidInputError (``numkit.shared_exp_top``). So do NaN and
    infinite entries, without a scan of their own: any such entry of V or T
    leaves a whole row or column of logits NaN or infinite, which fails the
    span check."""
    v, t = _matrix_pair(teacher_image, teacher_text, "teacher matrices")
    if v.shape[0] != plan.n:
        raise InvalidInputError(
            f"teacher matrices cover {v.shape[0]} rows but plan covers {plan.n}")
    check_ranges([within("teacher_scale", teacher_scale, "(0, inf)")])
    e = (teacher_scale * v) @ t.T  # the logits S, exponentiated in place below
    # One E = exp(S - max S), with row sums R and column sums C, serves both
    # directions. A swapped image row is P(image u | text j) = E[u, j] / C_j
    # renormalized over j: scale g = 1/C over the texts. A swapped text row
    # is E[i, u] / R_i renormalized over i: scale r = 1/R over the images. A
    # bootstrap row is a row or column of E itself, renormalized: unit
    # scales. SoftTargets renormalizes.
    row_sum, col_sum = exp_both_axes(e, shared_exp_top(e))
    if swapped:
        return SoftTargets(e, 1.0 / col_sum.ravel(), 1.0 / row_sum.ravel())
    ones = np.ones(plan.n)
    return SoftTargets(e, ones, ones)


def soft_targets_swapped(teacher_image, teacher_text, teacher_scale: float,
                         plan: PartitionPlan) -> SoftTargets:
    """Swapped-prediction targets from the opposite modality's posterior.

    The alignment of image i to text j is the probability that text j matches
    image i against all other images (and symmetrically for texts), i.e. the
    transpose of the row-softmaxed opposite-direction similarity matrix. The
    transposed rows are renormalized to sum to 1 so they feed a
    proper-distribution cross entropy. Every row gets a target: ``plan``
    only checks the batch size.
    """
    return _soft_targets(teacher_image, teacher_text, teacher_scale, plan, swapped=True)


def soft_targets_bootstrap(teacher_image, teacher_text, teacher_scale: float,
                           plan: PartitionPlan) -> SoftTargets:
    """Forward-bootstrapping targets: each row's own same-direction posterior.

    Rows of the row-softmaxed similarity matrices are already stochastic, so
    no renormalization is applied. Every row gets a target: ``plan`` only
    checks the batch size.
    """
    return _soft_targets(teacher_image, teacher_text, teacher_scale, plan, swapped=False)


def psd_loss(batch: EmbeddingBatch, temp: TemperatureParam, plan: PartitionPlan,
             targets: SoftTargets) -> LossGrad:
    """Partitioned self-distillation objective.

    alpha * [hard InfoNCE terms over the aligned rows, each contrasted against
    the full batch] + (1 - alpha) * [soft cross-entropy terms over the
    unaligned rows, which the plan alone names, against their teacher
    targets; ``targets`` holds one for every row]. Mean reduction is taken
    separately per subset; an empty subset contributes exactly 0. Gradients
    flow through every student embedding inside the softmaxes and through the
    log-scale, never through the targets.
    """
    if batch.n == 0:
        raise InvalidInputError("psd_loss requires at least one pair")
    if plan.n != batch.n:
        raise InvalidInputError(f"plan covers {plan.n} rows but batch has {batch.n}")
    k = plan.unaligned_idx.size
    weights = np.full(batch.n, plan.alpha / max(batch.n - k, 1))
    weights[plan.unaligned_idx] = (1.0 - plan.alpha) / max(k, 1)
    return _bidirectional_xent(batch, temp, weights, plan.unaligned_idx, targets)
