"""Paired-seed experiment harness: noise-robustness and ablation matrices.

Protocol: each seed draws one synthetic pool; a class-balanced slice of
uncorrupted images is carved off as a clean held-out retrieval set (it shares
the pool's latent structure but never trains), and every loss variant trains
on the identical remaining split with the identical parameter init and batch
order, so per-seed comparisons isolate the objective. ``psdlab train``'s
``MetricsLog`` scores such a holdout as the run goes.

The (seed, variant) trainings are independent, so ``run_matrix`` maps the one
task function, ``run_variant``, over a pool of forked workers. Each task
generates its seed's pool in its worker; generation is seeded, so every
variant of a seed gets the same bytes. A run's numbers do not depend on the
BLAS thread count, so the outcomes equal those of training every pair in turn
in one process, bit for bit.
"""

from __future__ import annotations

import ctypes
import json
import os
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .data import PairedDataset, SyntheticSpec, generate, take_subset
from .errors import InvalidInputError, check_ranges, within
from .evaluation import SETTING_RANGES, check_eval_settings, score_eval, zero_shot_top1
from .model import ParamSet, encode
from .numkit import RngState
from .trainer import TrainConfig, TrainResult, encode_pairs, train

ABLATION_VARIANTS = {
    "baseline": {"target_mode": "none"},
    "bootstrap_static": {"target_mode": "bootstrap", "partition_mode": "static"},
    "swapped_static": {"target_mode": "swapped", "partition_mode": "static"},
    "swapped_dynamic": {"target_mode": "swapped", "partition_mode": "dynamic"},
}


def noise_experiment_config() -> ExperimentConfig:
    """Preset for the noisy-correspondence experiment: a 2400-image pool at
    mismatch rate 0.25 minus a 400-image clean held-out slice leaves a train
    split of 2000 with exactly 600 corrupted pairs (30%).

    Feature noise 0.5 makes instance matching genuinely hard (clean-data
    R@1 ~ 65%, corrupted ~ 43%), lr 1e-2 lets the self-teacher mature within
    30 epochs, and the fixed teacher scale 15 keeps its targets confident
    enough to re-pair corrupted captions without collapsing to one-hot."""
    cfg = ExperimentConfig()
    cfg.samples_per_class = 240
    cfg.mismatch_rate = 0.25
    cfg.feature_noise_sigma = 0.5
    cfg.epochs = 30
    cfg.learning_rate = 1e-2
    cfg.teacher_scale = 15.0
    return cfg


def split_clean_holdout(ds: PairedDataset, per_class: int) -> tuple[PairedDataset, PairedDataset]:
    """Carve the first ``per_class`` (>= 1) uncorrupted images of every
    class into a held-out set; the rest (corrupted included) train."""
    check_ranges([within("eval_per_class", per_class, SETTING_RANGES["eval_per_class"])])
    if ds.num_classes == 0:
        raise InvalidInputError("the dataset has no class to hold images out of")
    eval_idx = []
    for c in range(ds.num_classes):
        clean = np.flatnonzero((ds.class_labels == c) & ~ds.corrupted)
        if clean.size < per_class:
            raise InvalidInputError(f"class {c} has only {clean.size} uncorrupted images, "
                                    f"eval_per_class needs {per_class}")
        eval_idx.append(clean[:per_class])
    eval_idx = np.concatenate(eval_idx)
    mask = np.ones(ds.num_samples, dtype=bool)
    mask[eval_idx] = False
    return take_subset(ds, np.flatnonzero(mask)), take_subset(ds, eval_idx)


def class_prototypes(text_params: ParamSet, ds: PairedDataset) -> np.ndarray:
    """One prototype per class: the text-encoded mean caption feature over
    the dataset's uncorrupted images (the stand-in for a canonical
    class-describing caption)."""
    k = ds.num_classes
    means = []
    for c in range(k):
        rows = np.flatnonzero((ds.class_labels == c) & ~ds.corrupted)
        if rows.size == 0:
            raise InvalidInputError(f"class {c} has no uncorrupted images for a prototype")
        means.append(ds.text_features[rows * ds.captions_per_image].mean(axis=0))
    protos, _ = encode(text_params, np.stack(means))
    return protos


@dataclass
class VariantOutcome:
    """Held-out metrics of one trained variant."""

    variant: str
    seed: int
    t2i_recall: dict[int, float]
    i2t_recall: dict[int, float]
    t2i_mean_rank: float
    i2t_mean_rank: float
    zero_shot: float
    positive_sim_mean: float
    negative_sim_mean: float
    final_loss: float

    def to_dict(self) -> dict:
        # String keys, as JSON writes them: under sort_keys they also set the
        # order of the recall entries in ablation.json.
        d = asdict(self)
        for key in ("t2i_recall", "i2t_recall"):
            d[key] = {str(k): v for k, v in d[key].items()}
        return d


def evaluate_on_holdout(result: TrainResult, eval_ds: PairedDataset, k_list, bins: int,
                        variant: str, seed: int) -> VariantOutcome:
    img, txt = encode_pairs(result.image_params, result.text_params, eval_ds)
    i2t, t2i, stats = score_eval(img, txt, k_list, bins)
    protos = class_prototypes(result.text_params, eval_ds)
    zs = zero_shot_top1(img, protos, eval_ds.class_labels)
    return VariantOutcome(
        variant=variant, seed=seed,
        t2i_recall=t2i.recall_at, i2t_recall=i2t.recall_at,
        t2i_mean_rank=t2i.mean_rank, i2t_mean_rank=i2t.mean_rank,
        zero_shot=zs,
        positive_sim_mean=float(stats.positive_scores.mean()),
        negative_sim_mean=stats.negative_mean,
        final_loss=float(result.history[-1]["loss"]),
    )


class MetricsLog:
    """``train``'s observer in ``psdlab train``: each record goes to the text
    file ``sink`` as one JSON line as soon as it exists, and after every
    ``eval_every``-th epoch (never without ``eval_ds``) so does a ``kind =
    eval`` record of ``eval_ds``'s i2t and t2i recalls and mean ranks."""

    def __init__(self, sink, eval_ds: PairedDataset | None, eval_every: int, k_list):
        self.sink, self.eval_ds, self.eval_every, self.k_list = sink, eval_ds, eval_every, k_list

    def step(self, rec: dict) -> None:
        self.sink.write(json.dumps(rec, sort_keys=True) + "\n")

    def epoch(self, epoch: int, step: int, image_params: ParamSet, text_params: ParamSet) -> None:
        if self.eval_ds is not None and (epoch + 1) % self.eval_every == 0:
            img, txt = encode_pairs(image_params, text_params, self.eval_ds)
            i2t, t2i, _ = score_eval(img, txt, self.k_list, None)
            rec = {"step": step, "epoch": epoch, "kind": "eval"}
            for tag, rep in (("i2t", i2t), ("t2i", t2i)):
                rec.update({f"{tag}_r{k}": v for k, v in rep.recall_at.items()})
                rec[f"{tag}_mnr"] = rep.mean_rank
            self.step(rec)


def run_variant(cfg: TrainConfig, variant: str, spec: SyntheticSpec, per_class: int, k_list,
                bins: int) -> VariantOutcome:
    """One ablation task: generate seed ``cfg.seed``'s pool from ``spec``,
    carve its clean holdout of ``per_class`` images per class, train ``cfg``
    as built and checked on the rest and evaluate it on the holdout."""
    train_ds, eval_ds = split_clean_holdout(generate(spec, RngState(cfg.seed)), per_class)
    return evaluate_on_holdout(train(cfg, train_ds), eval_ds, k_list, bins, variant, cfg.seed)


# The thread-count setter under the names OpenBLAS builds export it by: the
# numpy wheels' 64-bit-integer build, other 64-bit builds, the plain build.
OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                        "openblas_set_num_threads")


def _openblas_call(symbols, *args: int, restype=ctypes.c_int):
    """Call the first of ``symbols`` that the OpenBLAS bundled with numpy
    exports, with int arguments, and return its result; None when numpy
    ships no OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int] * len(args), restype
                return fn(*args)
    return None


def _one_blas_thread() -> None:
    """Worker initializer: the pool already keeps every CPU busy, and a
    second BLAS thread per worker only contends for the same cores."""
    _openblas_call(OPENBLAS_SET_THREADS, 1, restype=None)


def run_matrix(exp_cfg: ExperimentConfig, progress=None) -> dict[str, list[VariantOutcome]]:
    """Train every variant of ``ABLATION_VARIANTS`` on the pool of each of
    the seeds ``seed``, ``seed + 1``, ... (``ablate_seeds`` of them); paired.

    Each (seed, variant) pair is one ``run_variant`` task, its
    ``TrainConfig`` built and checked here. ``ProcessPoolExecutor.map`` runs
    the tasks on forked workers, as many as there are available CPUs and at
    most one per task, each with BLAS on one thread. A worker builds its
    seed's data, so this process holds none and its memory does not grow
    with the seeds. Outcomes, and ``progress`` calls, come in seed-major
    order, so the result equals a serial run bit for bit. A raise, a task's
    (say on a holdout that its pool's clean images cannot fill) or
    ``progress``'s, reaches the caller after the tasks not yet started are
    cancelled and the pool is joined. An evaluation key that
    ``check_eval_keys`` rejects, a K past the held-out size and a task whose
    ``TrainConfig`` or ``SyntheticSpec`` its spec rejects raise
    InvalidInputError before any pool is drawn.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    exp_cfg.check_eval_keys()
    check_eval_settings(exp_cfg.eval_per_class * exp_cfg.num_classes, exp_cfg.k_list)
    spec = exp_cfg.synthetic_spec()
    seeds = range(exp_cfg.seed, exp_cfg.seed + exp_cfg.ablate_seeds)
    cfgs = [exp_cfg.train_config(seed=seed, **overrides)
            for seed in seeds for overrides in ABLATION_VARIANTS.values()]
    variants = list(ABLATION_VARIANTS) * len(seeds)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    executor = ProcessPoolExecutor(min(cpus, len(cfgs)),
                                   mp_context=multiprocessing.get_context("fork"),
                                   initializer=_one_blas_thread)
    outcomes: dict[str, list[VariantOutcome]] = {v: [] for v in ABLATION_VARIANTS}
    try:
        results = executor.map(run_variant, cfgs, variants, repeat(spec),
                               repeat(exp_cfg.eval_per_class), repeat(exp_cfg.k_list),
                               repeat(exp_cfg.histogram_bins))
        for variant, outcome in zip(variants, results):
            outcomes[variant].append(outcome)
            if progress:
                progress(outcome)
    finally:
        executor.shutdown(cancel_futures=True)
    return outcomes


def _primary_r1(outcome: VariantOutcome) -> float:
    k = min(outcome.t2i_recall)
    return outcome.t2i_recall[k]


def ablation_table(outcomes: dict[str, list[VariantOutcome]]) -> dict:
    """Aggregate means plus the per-seed win/loss vote against the baseline
    on held-out text-to-image R@1."""
    baseline = outcomes["baseline"]
    table: dict = {"rows": {}, "wins_vs_baseline": {}, "seeds": [o.seed for o in baseline]}
    for variant, runs in outcomes.items():
        ks = sorted(runs[0].t2i_recall)
        row = {
            "t2i_r@k_mean": {str(k): float(np.mean([r.t2i_recall[k] for r in runs])) for k in ks},
            "i2t_r@k_mean": {str(k): float(np.mean([r.i2t_recall[k] for r in runs])) for k in ks},
            "zero_shot_mean": float(np.mean([r.zero_shot for r in runs])),
            "positive_sim_mean": float(np.mean([r.positive_sim_mean for r in runs])),
            "negative_sim_mean": float(np.mean([r.negative_sim_mean for r in runs])),
            "per_seed": [r.to_dict() for r in runs],
        }
        table["rows"][variant] = row
        if variant != "baseline":
            wins = sum(_primary_r1(r) > _primary_r1(b) for r, b in zip(runs, baseline))
            losses = sum(_primary_r1(r) < _primary_r1(b) for r, b in zip(runs, baseline))
            table["wins_vs_baseline"][variant] = {
                "wins": int(wins), "losses": int(losses),
                "ties": int(len(runs) - wins - losses)}
    return table
