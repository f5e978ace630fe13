"""Finite-difference verification of every analytic gradient in the package.

Central differences with h = 1e-6 on small random instances. The relative
error denominator is floored at 1e-3: below that magnitude the comparison is
effectively absolute at the 1e-8 level, which sits well above the ~1e-9
rounding noise of central differences on double-precision losses while still
catching any real derivative mistake.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateInputError
from .evaluation import probe_loss_and_grad
from .model import EncoderSpec, ParamSet, encode, encode_backward, init_params
from .numkit import RngState, normalize_rows_l2
from .objective import (
    EmbeddingBatch,
    TemperatureParam,
    info_nce,
    psd_loss,
    soft_targets_bootstrap,
    soft_targets_swapped,
)
from .trainer import make_partition

FD_STEP = 1e-6
REL_TOL = 1e-5
_REL_FLOOR = 1e-3


@dataclass
class CheckReport:
    """One check over ``instances`` random instances. ``worst_rel_error`` is
    the largest error among them, NaN when any of them is NaN (a NaN
    gradient), and such a check fails."""

    name: str
    instances: int
    worst_rel_error: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def central_difference(f, x0: np.ndarray) -> np.ndarray:
    """Per-coordinate central difference of a scalar function, with step
    ``FD_STEP``."""
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += FD_STEP
        xm[i] -= FD_STEP
        g[i] = (f(xp) - f(xm)) / (2.0 * FD_STEP)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    return float((np.abs(analytic - numeric) / denom).max())


def _worse(worst: float, err: float) -> float:
    """The larger of two errors, where NaN counts as larger than any number
    (``max`` would drop it, since every comparison with NaN is false)."""
    return err if math.isnan(err) or err > worst else worst


def _pack(v, t, s):
    return np.concatenate([v.ravel(), t.ravel(), [s]])


def _loss_instances(seed: int, instances: int):
    """Yield (k, rng, v, t, s) for ``instances`` random loss instances: unit
    rows, 2..8 of them in 2..8 dims, and a scale in ~[1.6, 12]. A caller
    that draws more from ``rng`` for instance k does so before asking for
    instance k + 1, which keeps each check's draws in a fixed order."""
    rng = RngState(seed)
    for k in range(instances):
        n = 2 + rng.randint(7)
        d = 2 + rng.randint(7)
        v = normalize_rows_l2(rng.normals(n, d))
        t = normalize_rows_l2(rng.normals(n, d))
        yield k, rng, v, t, 0.5 + 2.0 * rng.uniform()


def _loss_fd_error(loss, v, t, s) -> float:
    """Worst relative error of ``loss(batch, temp)``'s analytic gradients
    in the embeddings and the log scale against central differences."""
    n, d = v.shape

    def loss_of(vec):
        v2 = vec[: n * d].reshape(n, d)
        t2 = vec[n * d: 2 * n * d].reshape(n, d)
        return loss(EmbeddingBatch(v2, t2), TemperatureParam(vec[-1])).loss

    lg = loss(EmbeddingBatch(v, t), TemperatureParam(s))
    analytic = _pack(lg.d_image, lg.d_text, lg.d_log_scale)
    return max_rel_error(analytic, central_difference(loss_of, _pack(v, t, s)))


def check_info_nce(seed: int, instances: int) -> CheckReport:
    worst = 0.0
    for _, _, v, t, s in _loss_instances(seed, instances):
        worst = _worse(worst, _loss_fd_error(info_nce, v, t, s))
    return CheckReport("info_nce", instances, worst, worst < REL_TOL)


def check_psd_loss(seed: int, instances: int) -> CheckReport:
    worst = 0.0
    for k, rng, v, t, s in _loss_instances(seed, instances):
        alpha = rng.uniform() if k % 4 else float(k % 3) / 2.0  # hit 0, 0.5, 1 too
        plan = make_partition(len(v), alpha, rng.permutation(len(v)))
        build = soft_targets_swapped if k % 2 == 0 else soft_targets_bootstrap
        targets = build(v, t, s, plan)
        worst = _worse(worst, _loss_fd_error(
            lambda batch, temp: psd_loss(batch, temp, plan, targets), v, t, s))
    return CheckReport("psd_loss", instances, worst, worst < REL_TOL)


def _random_spec(rng: RngState, hidden: bool) -> EncoderSpec:
    din = 2 + rng.randint(7)
    dout = 2 + rng.randint(7)
    dims = (2 + rng.randint(5), 2 + rng.randint(5)) if hidden else ()
    return EncoderSpec(input_dim=din, hidden_dims=dims, embed_dim=dout)


def check_encoder_backward(seed: int, instances: int) -> CheckReport:
    """FD check of the scalar probe <upstream, encode(x)> against the
    analytic parameter and input gradients, the latter formed here as
    d_z0 @ W0^T from ``encode_backward``'s d_z0. Each instance resamples
    until no output row's norm is below 1e-2."""
    rng = RngState(seed)
    worst = 0.0
    for k in range(instances):
        spec = _random_spec(rng, hidden=k % 4 < 2)
        rows = 1 + rng.randint(4)
        for _ in range(200):
            params = init_params(spec, RngState(rng.next_u64()))
            x = rng.normals(rows, spec.input_dim) + 0.1
            try:
                _, cache = encode(params, x)
            except DegenerateInputError:
                continue
            if cache.norms.min() > 1e-2:
                break
        else:
            raise DegenerateInputError("could not sample a well-conditioned encoder instance")
        upstream = rng.normals(rows, spec.embed_dim)
        grads, d_z0 = encode_backward(cache, upstream)
        d_x = d_z0 @ params.weights[0].T
        flat0 = np.concatenate([params.flatten(), x.ravel()])
        analytic = np.concatenate([grads.flatten(), d_x.ravel()])

        def probe(vec, spec=spec, rows=rows, upstream=upstream):
            p = ParamSet.unflatten(spec, vec[: spec.num_params])
            xi = vec[spec.num_params:].reshape(rows, spec.input_dim)
            emb, _ = encode(p, xi)
            return float((upstream * emb).sum())

        numeric = central_difference(probe, flat0)
        worst = _worse(worst, max_rel_error(analytic, numeric))
    return CheckReport("encoder_backward", instances, worst, worst < REL_TOL)


def check_probe_loss(seed: int, instances: int) -> CheckReport:
    rng = RngState(seed)
    worst = 0.0
    for _ in range(instances):
        n = 4 + rng.randint(5)
        d = 2 + rng.randint(7)
        classes = 2 + rng.randint(3)
        x = rng.normals(n, d)
        y = rng.integers(classes, n)
        w = 0.5 * rng.normals(d * classes + classes)
        _, analytic = probe_loss_and_grad(w, x, y, classes, l2=1e-4)
        numeric = central_difference(
            lambda vec, x=x, y=y, c=classes: probe_loss_and_grad(vec, x, y, c, l2=1e-4)[0], w)
        worst = _worse(worst, max_rel_error(analytic, numeric))
    return CheckReport("probe_loss", instances, worst, worst < REL_TOL)


def check_alpha_one_reduction(seed: int, instances: int) -> CheckReport:
    """psd_loss at alpha = 1 must equal info_nce to 1e-12 in value and grads."""
    worst = 0.0
    for _, rng, v, t, s in _loss_instances(seed, instances):
        batch = EmbeddingBatch(v, t)
        temp = TemperatureParam(s)
        plan = make_partition(len(v), 1.0, rng.permutation(len(v)))
        a = psd_loss(batch, temp, plan, soft_targets_swapped(v, t, s, plan))
        b = info_nce(batch, temp)
        gap = float(np.max([abs(a.loss - b.loss), np.abs(a.d_image - b.d_image).max(),
                            np.abs(a.d_text - b.d_text).max(),
                            abs(a.d_log_scale - b.d_log_scale)]))
        worst = _worse(worst, gap)
    return CheckReport("alpha_one_reduction", instances, worst, worst < 1e-12)


def run_all(seed: int, instances: int) -> list[CheckReport]:
    return [
        check_info_nce(seed, instances),
        check_psd_loss(seed, instances),
        check_encoder_backward(seed, instances),
        check_probe_loss(seed, instances),
        check_alpha_one_reduction(seed, instances),
    ]
