"""Training loop: schedules, AdamW, batch partitioning, self-distillation.

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

Optimizer moments are not stored: there is no resume path, and evaluation
reads only the encoders and the temperature.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import PairedDataset, select_captions
from .errors import (
    BadMagicError,
    DegenerateInputError,
    DivergenceError,
    InvalidInputError,
    NonFiniteGradientError,
    TruncatedFileError,
    VersionMismatchError,
)
from .evaluation import retrieval_eval
from .model import EncoderSpec, ParamSet, encode, encode_backward, init_params, load_params, save_params
from .numkit import RngState, derive_seed
from .objective import (
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
SCHEDULE_KINDS = ("cosine", "linear")

# Stream labels for derive_seed; fixed so runs stay reproducible across versions.
_STREAM_INIT_IMAGE = 1
_STREAM_INIT_TEXT = 2
_STREAM_DATA_ORDER = 3
_STREAM_PARTITION = 4
_STREAM_CAPTIONS = 5


@dataclass(frozen=True)
class AlphaSchedule:
    """Aligned-fraction schedule over training steps."""

    total_steps: int
    start: float = 0.8
    end: float = 0.2
    kind: str = "cosine"

    def __post_init__(self):
        if self.total_steps < 1:
            raise InvalidInputError("schedule needs at least one step")
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidInputError(f"schedule kind must be one of {SCHEDULE_KINDS}")
        for v in (self.start, self.end):
            if not (0.0 <= v <= 1.0):
                raise InvalidInputError(f"alpha endpoints must lie in [0, 1], got {v}")


def alpha_at(schedule: AlphaSchedule, t: int) -> float:
    """Scheduled alpha at step t, 0 <= t <= total_steps."""
    if not 0 <= t <= schedule.total_steps:
        raise InvalidInputError(f"step {t} outside [0, {schedule.total_steps}]")
    frac = t / schedule.total_steps
    if schedule.kind == "cosine":
        return schedule.end + 0.5 * (schedule.start - schedule.end) * (1.0 + math.cos(math.pi * frac))
    return schedule.start + (schedule.end - schedule.start) * frac


def make_partition(n: int, alpha: float, rng: RngState | None = None,
                   priority: np.ndarray | None = None) -> PartitionPlan:
    """Split n batch rows into floor(alpha*n) aligned rows and the rest.

    ``priority`` ranks the rows: the lowest-priority floor(alpha*n) rows are
    aligned. When omitted, a fresh ranking is drawn from ``rng``. The trainer
    passes per-instance priorities refreshed each epoch (dynamic) or fixed at
    training start (static).
    """
    if n < 1:
        raise InvalidInputError("partition requires n >= 1")
    if not (0.0 <= alpha <= 1.0):
        raise InvalidInputError(f"alpha must lie in [0, 1], got {alpha}")
    if priority is None:
        if rng is None:
            raise InvalidInputError("either rng or priority must be provided")
        priority = rng.permutation(n)
    else:
        priority = np.asarray(priority)
        if priority.shape != (n,):
            raise InvalidInputError(f"priority must have shape ({n},)")
    n_aligned = math.floor(alpha * n)
    order = np.argsort(priority, kind="stable")
    return PartitionPlan(aligned_idx=np.sort(order[:n_aligned]),
                         unaligned_idx=np.sort(order[n_aligned:]),
                         alpha=alpha)


@dataclass
class OptState:
    """AdamW accumulators plus the warmup + cosine learning-rate schedule."""

    size: int
    total_steps: int
    lr_max: float = 1e-3
    warmup_steps: int = 0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decay_mask: np.ndarray | None = None
    step: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)

    def __post_init__(self):
        self.m = np.zeros(self.size)
        self.v = np.zeros(self.size)
        if self.decay_mask is None:
            self.decay_mask = np.ones(self.size)
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
    """One bias-corrected Adam step with decoupled weight decay.

    Decay multiplies parameters by (1 - lr*wd*mask), the mask being all ones
    unless one is given, before the Adam delta. Mutates ``opt``; returns the
    new parameters.
    """
    if params.shape != (opt.size,) or grads.shape != (opt.size,):
        raise InvalidInputError("params/grads must match the optimizer size")
    if not np.isfinite(grads).all():
        raise NonFiniteGradientError(f"non-finite gradient at optimizer step {opt.step + 1}")
    opt.step += 1
    lr = opt.lr_at(opt.step)
    params = params * (1.0 - lr * opt.weight_decay * opt.decay_mask)
    opt.m = opt.beta1 * opt.m + (1.0 - opt.beta1) * grads
    opt.v = opt.beta2 * opt.v + (1.0 - opt.beta2) * grads * grads
    m_hat = opt.m / (1.0 - opt.beta1 ** opt.step)
    v_hat = opt.v / (1.0 - opt.beta2 ** opt.step)
    params -= lr * m_hat / (np.sqrt(v_hat) + opt.eps)
    return params


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on."""

    image_encoder: EncoderSpec
    text_encoder: EncoderSpec
    batch_size: int = 256
    epochs: int = 10
    seed: int = 0
    learning_rate: float = 1e-3
    warmup_frac: float = 0.05
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    alpha_start: float = 0.8
    alpha_end: float = 0.2
    alpha_schedule: str = "cosine"
    target_mode: str = "swapped"
    partition_mode: str = "dynamic"
    temperature_init: float = 0.07
    teacher_scale: float | None = None   # None tracks the student's scale
    eval_every: int = 0                  # epochs between held-out evals, 0 = off
    k_list: tuple[int, ...] = (1, 5, 10)  # recall cutoffs of the held-out evals

    def __post_init__(self):
        if self.batch_size < 2:
            raise InvalidInputError("batch size must be >= 2")
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")
        for name, choices in (("target_mode", TARGET_MODES), ("partition_mode", PARTITION_MODES),
                              ("alpha_schedule", SCHEDULE_KINDS)):
            if getattr(self, name) not in choices:
                raise InvalidInputError(f"{name.replace('_', ' ')} must be one of {choices}")
        if self.image_encoder.embed_dim != self.text_encoder.embed_dim:
            raise InvalidInputError("both encoders must share the embedding dimension")
        if self.teacher_scale is not None and self.teacher_scale <= 0.0:
            raise InvalidInputError("teacher scale override must be positive")


@dataclass
class TrainResult:
    """Final state plus the full metrics history of one run."""

    image_params: ParamSet
    text_params: ParamSet
    temperature: TemperatureParam
    history: list[dict]
    config: TrainConfig
    opt: OptState

    def step_records(self) -> list[dict]:
        return [r for r in self.history if "loss" in r]


def encode_pairs(image_params: ParamSet, text_params: ParamSet,
                 ds: PairedDataset, caption_rows: np.ndarray | None = None):
    """Embed a dataset's images and one caption per image (slot 0 default)."""
    if caption_rows is None:
        caption_rows = ds.pairing[:, 0]
    img, _ = encode(image_params, ds.image_features)
    txt, _ = encode(text_params, ds.text_features[caption_rows])
    return img, txt


def _eval_record(step: int, epoch: int, image_params, text_params,
                 eval_ds: PairedDataset, k_list) -> dict:
    img, txt = encode_pairs(image_params, text_params, eval_ds)
    i2t, t2i = retrieval_eval(img, txt, k_list)
    rec = {"step": step, "epoch": epoch, "kind": "eval"}
    for rep in (i2t, t2i):
        tag = "i2t" if rep.direction == "image_to_text" else "t2i"
        for k, v in rep.recall_at.items():
            rec[f"{tag}_r{k}"] = v
        rec[f"{tag}_mnr"] = rep.mean_rank
    return rec


def train(cfg: TrainConfig, ds: PairedDataset,
          eval_ds: PairedDataset | None = None,
          metrics_path=None) -> TrainResult:
    """Run the full loop; returns final parameters and the metrics history.

    Per epoch the data order reshuffles and the partition priority refreshes
    (dynamic mode only); per step one caption per image is active, both
    modalities are encoded once, soft targets are built from those same
    embeddings as detached constants, the partitioned loss is backpropagated,
    AdamW updates all parameters jointly, and the logit scale is re-clamped.
    A step that leaves a non-finite loss or parameter, or a logit scale that
    underflowed to 0, raises DivergenceError, and so does an encode after
    step 0 that meets a zero or overflowing output norm.
    """
    n = ds.num_samples
    if n < cfg.batch_size:
        raise InvalidInputError(f"dataset has {n} rows, batch size is {cfg.batch_size}")
    if ds.image_features.shape[1] != cfg.image_encoder.input_dim:
        raise InvalidInputError("image encoder input dim does not match the dataset")
    if ds.text_features.shape[1] != cfg.text_encoder.input_dim:
        raise InvalidInputError("text encoder input dim does not match the dataset")

    image_params = init_params(cfg.image_encoder, RngState(derive_seed(cfg.seed, _STREAM_INIT_IMAGE)))
    text_params = init_params(cfg.text_encoder, RngState(derive_seed(cfg.seed, _STREAM_INIT_TEXT)))
    temp = clamp_scale(TemperatureParam.from_temperature(cfg.temperature_init))

    steps_per_epoch = n // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs
    schedule = AlphaSchedule(total_steps=total_steps, start=cfg.alpha_start,
                             end=cfg.alpha_end, kind=cfg.alpha_schedule)

    flat = np.concatenate([image_params.flatten(), text_params.flatten(),
                           [temp.log_scale]])
    n_image = cfg.image_encoder.num_params
    n_text = cfg.text_encoder.num_params
    decay_mask = np.ones(flat.size)
    decay_mask[-1] = 0.0  # decaying the logit scale toward zero is meaningless
    opt = OptState(size=flat.size, total_steps=total_steps, lr_max=cfg.learning_rate,
                   warmup_steps=round(cfg.warmup_frac * total_steps),
                   weight_decay=cfg.weight_decay, beta1=cfg.beta1, beta2=cfg.beta2,
                   eps=cfg.adam_eps, decay_mask=decay_mask)

    static_priority = RngState(derive_seed(cfg.seed, _STREAM_PARTITION, 0)).permutation(n)

    history: list[dict] = []
    sink = open(metrics_path, "w", encoding="utf-8") if metrics_path else None

    def emit(rec: dict) -> None:
        history.append(rec)
        if sink:
            sink.write(json.dumps(rec, sort_keys=True) + "\n")

    try:
        step = 0
        for epoch in range(cfg.epochs):
            order = RngState(derive_seed(cfg.seed, _STREAM_DATA_ORDER, epoch)).permutation(n)
            if cfg.partition_mode == "dynamic":
                priority = RngState(derive_seed(cfg.seed, _STREAM_PARTITION, epoch)).permutation(n)
            else:
                priority = static_priority
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
                    teacher_scale = temp.scale if cfg.teacher_scale is None else cfg.teacher_scale
                    build = soft_targets_swapped if cfg.target_mode == "swapped" else soft_targets_bootstrap
                    targets = build(emb_img, emb_txt, teacher_scale, plan)
                    lg = psd_loss(batch, temp, plan, targets)

                grad_img, _ = encode_backward(cache_img, lg.d_image)
                grad_txt, _ = encode_backward(cache_txt, lg.d_text)
                grads = np.concatenate([grad_img.flatten(), grad_txt.flatten(),
                                        [lg.d_log_scale]])
                flat = adamw_step(flat, grads, opt)
                temp = clamp_scale(TemperatureParam(log_scale=float(flat[-1])))
                flat[-1] = temp.log_scale
                # One O(parameters) health check per step. A logit scale that
                # underflowed to 0 has a finite log, so it is tested apart.
                if not (math.isfinite(lg.loss) and np.isfinite(flat).all() and temp.scale > 0.0):
                    raise DivergenceError(step, (
                        f"training diverged at step {step}: loss {lg.loss}, logit scale "
                        f"{temp.scale}, {int((~np.isfinite(flat)).sum())} non-finite parameters"))
                image_params = ParamSet.unflatten(cfg.image_encoder, flat[:n_image])
                text_params = ParamSet.unflatten(cfg.text_encoder, flat[n_image:n_image + n_text])

                emit({"step": step, "epoch": epoch, "alpha": alpha, "loss": lg.loss,
                      "lr": opt.lr_at(opt.step), "scale": temp.scale})
                step += 1

            if eval_ds is not None and cfg.eval_every > 0 and (epoch + 1) % cfg.eval_every == 0:
                emit(_eval_record(step, epoch, image_params, text_params,
                                  eval_ds, cfg.k_list))
    finally:
        if sink:
            sink.close()

    return TrainResult(image_params=image_params, text_params=text_params,
                       temperature=temp, history=history, config=cfg, opt=opt)


_STATE_MAGIC = b"PSDT"
_STATE_VERSION = 2
_STATE_HEADER = "<4sIQQQd"


def save_checkpoint(result: TrainResult, out_dir) -> None:
    """Write image/text encoder parameter files plus the trainer state file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_params(result.image_params, out / "image_encoder.psdw")
    save_params(result.text_params, out / "text_encoder.psdw")
    blob = struct.pack(_STATE_HEADER, _STATE_MAGIC, _STATE_VERSION, result.config.seed,
                       len(result.step_records()), result.config.epochs,
                       result.temperature.log_scale)
    (out / "trainer_state.psdt").write_bytes(blob)


def load_checkpoint(out_dir) -> tuple[ParamSet, ParamSet, TemperatureParam, dict]:
    """Read back both encoders, the temperature, and the run counters
    ``{seed, steps, epochs}``."""
    out = Path(out_dir)
    image_params = load_params(out / "image_encoder.psdw")
    text_params = load_params(out / "text_encoder.psdw")
    raw = (out / "trainer_state.psdt").read_bytes()
    if len(raw) < 4 or raw[:4] != _STATE_MAGIC:
        raise BadMagicError(f"{out}: expected trainer state magic {_STATE_MAGIC!r}")
    if len(raw) < struct.calcsize(_STATE_HEADER):
        raise TruncatedFileError(f"{out}: trainer state header incomplete")
    _, version, seed, steps, epochs, log_scale = struct.unpack_from(_STATE_HEADER, raw)
    if version != _STATE_VERSION:
        raise VersionMismatchError(f"{out}: trainer state version {version}")
    state = {"seed": seed, "steps": steps, "epochs": epochs}
    return image_params, text_params, TemperatureParam(log_scale=log_scale), state
