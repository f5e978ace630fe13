"""Training loop: schedules, AdamW, batch partitioning, self-distillation.

``train`` only trains and opens no file: its result depends on its
``TrainConfig`` and data alone. Held-out evaluation and the metrics file
are the caller's, through one observer.

Determinism: every random draw comes from a stream derived from
(seed, stream label, epoch index) through a pure splitmix64 chain, so a run is
bit-reproducible from its config alone and a checkpoint only needs to record
the seed and the step/epoch counters to pin down all subsequent randomness.

Trainer state file format (PSDT, version 2, little-endian):

    bytes 0..3  magic b"PSDT"
    u32         format version (2)
    u64         base seed
    u64         global step,  u64  completed epochs
    f64         temperature log-scale

Nothing follows, so a load-save round trip is byte-exact. ``errors.Framing``
checks the framing: magic, version (before any length), and the length. The
loader holds the content to what training can write, a log-scale that is
finite and at most log(MAX_LOGIT_SCALE), and a fault names the file.

Optimizer moments are not stored: there is no resume path, and evaluation
reads only the encoders and the temperature. Version 1 stored them after
the header; such a file fails as version 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .data import PairedDataset, select_captions
from .errors import DegenerateInputError, DivergenceError, Framing, InvalidInputError, check_ranges, within
from .model import EncoderSpec, ParamSet, encode, encode_backward, init_params, load_params, save_params
from .numkit import RngState, derive_seed
from .objective import (
    MAX_LOGIT_SCALE,
    EmbeddingBatch,
    PartitionPlan,
    TemperatureParam,
    clamp_scale,
    info_nce,
    psd_loss,
    soft_targets_bootstrap,
    soft_targets_swapped,
)

TARGET_MODES = ("swapped", "bootstrap", "none")
PARTITION_MODES = ("dynamic", "static")

# Stream labels for derive_seed; fixed so runs stay reproducible across versions.
_STREAM_INIT_IMAGE = 1
_STREAM_INIT_TEXT = 2
_STREAM_DATA_ORDER = 3
_STREAM_PARTITION = 4
_STREAM_CAPTIONS = 5


@dataclass(frozen=True)
class AlphaSchedule:
    """Cosine aligned-fraction schedule over at least one training step; its
    endpoints come from a ``TrainConfig``, which checks them. ``kind`` stays
    only because the benchmark's traced step copy passes it. Any kind but
    "cosine" is rejected, so no caller asking for another schedule silently
    gets the cosine."""

    total_steps: int
    start: float
    end: float
    kind: str

    def __post_init__(self):
        check_ranges([("kind", self.kind, self.kind == "cosine", "be 'cosine'")])


def alpha_at(schedule: AlphaSchedule, t: int) -> float:
    """Scheduled alpha at step t, 0 <= t <= total_steps: exactly ``start`` at
    0 and ``end`` at total_steps, which the formula can miss by an ulp."""
    if not 0 <= t <= schedule.total_steps:
        raise InvalidInputError(f"step {t} outside [0, {schedule.total_steps}]")
    if t == 0:
        return schedule.start
    if t == schedule.total_steps:
        return schedule.end
    frac = t / schedule.total_steps
    return schedule.end + 0.5 * (schedule.start - schedule.end) * (1.0 + math.cos(math.pi * frac))


def make_partition(n: int, alpha: float, priority: np.ndarray) -> PartitionPlan:
    """Split n batch rows into floor(alpha*n) aligned rows and the rest.

    ``priority`` ranks the rows, ties going to the lower row: the
    floor(alpha*n) lowest are aligned and the rest unaligned, which the plan
    sorts. The trainer passes per-instance priorities refreshed each epoch
    (dynamic) or fixed at training start (static); a random split is the
    ranking ``rng.permutation(n)``. The plan checks alpha.
    """
    priority = np.asarray(priority)
    if priority.shape != (n,):
        raise InvalidInputError(f"priority must have shape ({n},)")
    order = np.argsort(priority, kind="stable")
    # math.floor raises a bare error on NaN and inf; the plan rejects them.
    split = alpha * n
    cut = math.floor(split) if math.isfinite(split) else 0
    return PartitionPlan(n=n, unaligned_idx=order[cut:], alpha=alpha)


@dataclass
class OptState:
    """AdamW accumulators plus the warmup + cosine learning-rate schedule,
    and two work buffers that let ``adamw_step`` run without allocating."""

    size: int
    total_steps: int
    lr_max: float
    warmup_steps: int
    weight_decay: float
    beta1: float
    beta2: float
    eps: float
    decay_mask: np.ndarray
    step: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    work: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.m = np.zeros(self.size)
        self.v = np.zeros(self.size)
        self.work = (np.empty(self.size), np.empty(self.size))
        self.decay_mask = np.asarray(self.decay_mask, dtype=np.float64)
        if self.decay_mask.shape != (self.size,):
            raise InvalidInputError("decay mask must match the parameter count")

    def lr_at(self, t: int) -> float:
        """Learning rate for (1-based) step t: linear warmup, cosine decay to 0."""
        if self.warmup_steps > 0 and t <= self.warmup_steps:
            return self.lr_max * t / self.warmup_steps
        span = max(1, self.total_steps - self.warmup_steps)
        frac = min(1.0, (t - self.warmup_steps) / span)
        return self.lr_max * 0.5 * (1.0 + math.cos(math.pi * frac))


def adamw_step(params: np.ndarray, grads: np.ndarray, opt: OptState) -> np.ndarray:
    """One bias-corrected Adam step with decoupled weight decay, in place.

    Decay multiplies parameters by (1 - lr*wd*mask) before the Adam delta
    lr*m_hat/(sqrt(v_hat) + eps).
    Updates ``params``, ``opt.m`` and ``opt.v`` in place through ``opt.work``,
    rounding the same operations in the same order as the formulas read, and
    returns ``params``. A NaN or infinite gradient leaves NaN parameters,
    which ``train``'s per-step health check reports.
    """
    if params.shape != (opt.size,) or grads.shape != (opt.size,):
        raise InvalidInputError("params/grads must match the optimizer size")
    opt.step += 1
    lr = opt.lr_at(opt.step)
    w, u = opt.work
    np.multiply(lr * opt.weight_decay, opt.decay_mask, out=w)
    np.subtract(1.0, w, out=w)
    params *= w
    opt.m *= opt.beta1
    np.multiply(1.0 - opt.beta1, grads, out=w)
    opt.m += w
    opt.v *= opt.beta2
    np.multiply(1.0 - opt.beta2, grads, out=w)
    w *= grads
    opt.v += w
    np.divide(opt.m, 1.0 - opt.beta1 ** opt.step, out=w)   # m_hat
    w *= lr
    np.divide(opt.v, 1.0 - opt.beta2 ** opt.step, out=u)   # v_hat
    np.sqrt(u, out=u)
    u += opt.eps
    w /= u
    params -= w
    return params


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on, and nothing that only
    observes it. A bad value raises InvalidInputError naming its key."""

    # Constants, not keys: no run varies them, so ``fields`` and the config
    # skip them. They stay readable on ``cfg`` because ``train`` and the
    # benchmark's traced step copy both read them there: the first four build
    # the warmup and AdamW of ``OptState``, the last the ``AlphaSchedule``.
    warmup_frac: ClassVar[float] = 0.05
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8
    alpha_schedule: ClassVar[str] = "cosine"

    image_encoder: EncoderSpec
    text_encoder: EncoderSpec
    batch_size: int = 256
    epochs: int = 10
    seed: int = 0
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    alpha_start: float = 0.8
    alpha_end: float = 0.2
    target_mode: str = "swapped"
    partition_mode: str = "dynamic"
    temperature_init: float = 0.07
    teacher_scale: float = 0.0   # in [0, 100]; 0 tracks the student's scale (not bootstrap)

    def __post_init__(self):
        check_ranges((
            *((key, getattr(self, key), getattr(self, key) in choices, f"be one of {choices}")
              for key, choices in (("target_mode", TARGET_MODES),
                                   ("partition_mode", PARTITION_MODES))),
            *(within(key, getattr(self, key), interval) for key, interval in (
                ("batch_size", "[2, inf)"), ("epochs", "[1, inf)"),
                ("learning_rate", "(0, inf)"), ("weight_decay", "[0, inf)"),
                ("alpha_start", "[0, 1]"), ("alpha_end", "[0, 1]"),
                ("temperature_init", "(0, inf)"), ("teacher_scale", f"[0, {MAX_LOGIT_SCALE:g}]"))),
            ("seed", self.seed, 0 <= self.seed < 1 << 64, "lie in [0, 2^64)")))
        if self.image_encoder.embed_dim != self.text_encoder.embed_dim:
            raise InvalidInputError("both encoders must share the embedding dimension")
        if self.target_mode == "bootstrap" and self.teacher_scale == 0.0:
            raise InvalidInputError("bootstrap targets at the student's scale are its own "
                                    "posteriors and give no gradient: set teacher_scale")

    def check_data(self, ds: PairedDataset) -> None:
        """InvalidInputError unless ``ds`` fills a batch; ``encode`` judges its widths."""
        if ds.num_samples < self.batch_size:
            raise InvalidInputError(f"dataset has {ds.num_samples} rows, "
                                    f"batch size is {self.batch_size}")


@dataclass
class TrainResult:
    """Final state plus every step's record, in step order."""

    image_params: ParamSet
    text_params: ParamSet
    temperature: TemperatureParam
    history: list[dict]
    config: TrainConfig
    opt: OptState


def encode_pairs(image_params: ParamSet, text_params: ParamSet, ds: PairedDataset):
    """Embed a dataset's images and each image's caption in slot 0."""
    # Each forward cache is dropped as soon as its embeddings exist.
    img = encode(image_params, ds.image_features)[0]
    slot0 = np.arange(ds.num_samples) * ds.captions_per_image  # image i's first row, i*m
    txt = encode(text_params, ds.text_features[slot0])[0]
    return img, txt


def train(cfg: TrainConfig, ds: PairedDataset, observer=None) -> TrainResult:
    """Run the full loop; returns final parameters and every step's record.

    Per epoch the data order reshuffles and the partition priority refreshes
    (dynamic mode only); per step one caption per image is active, both
    modalities are encoded once, soft targets are built from those same
    embeddings as detached constants, the partitioned loss is backpropagated,
    AdamW updates all parameters jointly, and the logit scale is re-clamped.
    A step that leaves a non-finite loss or parameter, or a logit scale that
    underflowed to 0, raises DivergenceError, and so does an encode after
    step 0 that meets a zero or overflowing output norm. An ``observer``'s
    ``step(record)`` gets each step's record as soon as it exists, and its
    ``epoch(epoch, step, image_params, text_params)`` runs after each epoch.
    """
    cfg.check_data(ds)
    n = ds.num_samples

    image_params = init_params(cfg.image_encoder, RngState(derive_seed(cfg.seed, _STREAM_INIT_IMAGE)))
    text_params = init_params(cfg.text_encoder, RngState(derive_seed(cfg.seed, _STREAM_INIT_TEXT)))
    temp = clamp_scale(TemperatureParam.from_temperature(cfg.temperature_init))

    steps_per_epoch = n // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs
    schedule = AlphaSchedule(total_steps=total_steps, start=cfg.alpha_start,
                             end=cfg.alpha_end, kind=cfg.alpha_schedule)

    # Parameters and gradients are one flat vector each, which AdamW updates
    # in place; the encoders' ParamSets are views into them.
    flat = np.concatenate([image_params.flatten(), text_params.flatten(),
                           [temp.log_scale]])
    grads = np.empty_like(flat)
    n_image = cfg.image_encoder.num_params
    n_text = cfg.text_encoder.num_params
    image_params = ParamSet.unflatten(cfg.image_encoder, flat[:n_image])
    text_params = ParamSet.unflatten(cfg.text_encoder, flat[n_image:n_image + n_text])
    grad_img = ParamSet.unflatten(cfg.image_encoder, grads[:n_image])
    grad_txt = ParamSet.unflatten(cfg.text_encoder, grads[n_image:n_image + n_text])
    decay_mask = np.ones(flat.size)
    decay_mask[-1] = 0.0  # decaying the logit scale toward zero is meaningless
    opt = OptState(size=flat.size, total_steps=total_steps, lr_max=cfg.learning_rate,
                   warmup_steps=round(cfg.warmup_frac * total_steps),
                   weight_decay=cfg.weight_decay, beta1=cfg.beta1, beta2=cfg.beta2,
                   eps=cfg.adam_eps, decay_mask=decay_mask)

    history: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = RngState(derive_seed(cfg.seed, _STREAM_DATA_ORDER, epoch)).permutation(n)
        # A static partition keeps epoch 0's priority throughout.
        tag = epoch if cfg.partition_mode == "dynamic" else 0
        priority = RngState(derive_seed(cfg.seed, _STREAM_PARTITION, tag)).permutation(n)
        captions = select_captions(ds, RngState(derive_seed(cfg.seed, _STREAM_CAPTIONS, epoch)))

        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            x_img = ds.image_features[idx]
            x_txt = ds.text_features[captions[idx]]
            try:
                emb_img, cache_img = encode(image_params, x_img)
                emb_txt, cache_txt = encode(text_params, x_txt)
            except DegenerateInputError as exc:
                if step == 0:
                    raise  # the data's fault: no update has run yet
                raise DivergenceError(step, f"training diverged at step {step}: {exc}") from exc
            batch = EmbeddingBatch(emb_img, emb_txt)

            if cfg.target_mode == "none":
                alpha = 1.0
                lg = info_nce(batch, temp)
            else:
                alpha = alpha_at(schedule, step)
                plan = make_partition(cfg.batch_size, alpha, priority=priority[idx])
                build = soft_targets_swapped if cfg.target_mode == "swapped" else soft_targets_bootstrap
                targets = build(emb_img, emb_txt, cfg.teacher_scale or temp.scale, plan)
                lg = psd_loss(batch, temp, plan, targets)

            encode_backward(cache_img, lg.d_image, out=grad_img)
            encode_backward(cache_txt, lg.d_text, out=grad_txt)
            grads[-1] = lg.d_log_scale
            adamw_step(flat, grads, opt)
            temp = clamp_scale(TemperatureParam(log_scale=float(flat[-1])))
            flat[-1] = temp.log_scale
            # One O(parameters) health check per step. A logit scale that
            # underflowed to 0 has a finite log, so it is tested apart.
            if not (math.isfinite(lg.loss) and np.isfinite(flat).all() and temp.scale > 0.0):
                raise DivergenceError(step, (
                    f"training diverged at step {step}: loss {lg.loss}, logit scale "
                    f"{temp.scale}, {int((~np.isfinite(flat)).sum())} non-finite parameters"))

            history.append({"step": step, "epoch": epoch, "alpha": alpha, "loss": lg.loss,
                            "lr": opt.lr_at(opt.step), "scale": temp.scale})
            if observer is not None:
                observer.step(history[-1])
            step += 1

        if observer is not None:
            observer.epoch(epoch, step, image_params, text_params)

    return TrainResult(image_params=image_params, text_params=text_params,
                       temperature=temp, history=history, config=cfg, opt=opt)


_STATE_FRAMING = Framing("trainer state", b"PSDT", 2, "QQQd")


def save_checkpoint(result: TrainResult, out_dir) -> None:
    """Write image/text encoder parameter files plus the trainer state file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_params(result.image_params, out / "image_encoder.psdw")
    save_params(result.text_params, out / "text_encoder.psdw")
    _STATE_FRAMING.write(out / "trainer_state.psdt",
                         (result.config.seed, len(result.history), result.config.epochs,
                          result.temperature.log_scale))


def load_checkpoint(out_dir) -> tuple[ParamSet, ParamSet, TemperatureParam, dict]:
    """Read back both encoders, the temperature, and the run counters
    ``{seed, steps, epochs}``; encoders that embed into two dimensions are
    an InvalidInputError naming ``out_dir``."""
    out = Path(out_dir)
    image_params = load_params(out / "image_encoder.psdw")
    text_params = load_params(out / "text_encoder.psdw")
    image_dim, text_dim = image_params.spec.embed_dim, text_params.spec.embed_dim
    if image_dim != text_dim:  # TrainConfig's rule, named by the checkpoint here
        raise InvalidInputError(f"{out}: both encoders must share the embedding dimension, "
                                f"got image {image_dim} and text {text_dim}")
    path = out / "trainer_state.psdt"
    raw, (seed, steps, epochs, log_scale) = _STATE_FRAMING.read(path)
    _STATE_FRAMING.payload(raw, path)
    check_ranges([within(f"{path}: temperature log-scale", log_scale,
                         f"(-inf, {math.log(MAX_LOGIT_SCALE)!r}]")])
    state = {"seed": seed, "steps": steps, "epochs": epochs}
    return image_params, text_params, TemperatureParam(log_scale=log_scale), state
