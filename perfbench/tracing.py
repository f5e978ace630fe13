"""Traced run: per-layer timings of psdlab, taken from the benchmark's side.

Spans are recorded around calls into each psdlab module from this file; the
program itself carries no timers. The step loop is the benchmark's own copy
of ``trainer.train`` with a span around every call it makes, and a gate
requires the copy to end on ``train()``'s final parameters bit for bit, so
the trace measures the same program the untraced workloads run.
"""

from __future__ import annotations

import math
import time

import numpy as np

from psdlab.data import SyntheticSpec, generate, load_pairs, save_pairs, select_captions
from psdlab.errors import DivergenceError
from psdlab.evaluation import linear_probe, retrieval_eval, similarity_stats, zero_shot_top1
from psdlab.experiments import (
    ABLATION_VARIANTS,
    class_prototypes,
    evaluate_on_holdout,
    split_clean_holdout,
)
from psdlab.model import ParamSet, encode, encode_backward, init_params
from psdlab.numkit import RngState, derive_seed
from psdlab.objective import (
    EmbeddingBatch,
    TemperatureParam,
    clamp_scale,
    info_nce,
    psd_loss,
    soft_targets_bootstrap,
    soft_targets_swapped,
)
from psdlab.trainer import (
    _STREAM_CAPTIONS,
    _STREAM_DATA_ORDER,
    _STREAM_INIT_IMAGE,
    _STREAM_INIT_TEXT,
    _STREAM_PARTITION,
    AlphaSchedule,
    OptState,
    TrainResult,
    adamw_step,
    alpha_at,
    encode_pairs,
    make_partition,
    train,
)
from workloads import preset_config

# Spans called once or more per training step: reported as p50 and p90 (a
# traced cycle gives >= 120 samples of each, so >= 12 lie beyond the p90).
STEP_SPANS = (
    "objective.psd_loss", "objective.soft_targets_swapped",
    "objective.soft_targets_bootstrap", "objective.info_nce",
    "model.encode", "model.encode_backward", "model.unflatten",
    "trainer.adamw_step", "trainer.make_partition", "trainer.step",
    "trainer.step_self", "trainer.epoch_order",
)
# Spans called a few times per cycle: reported as p50 only.
CYCLE_SPANS = (
    "experiments.split_clean_holdout", "numkit.permutation", "numkit.normals",
    "data.generate", "data.save_pairs", "data.load_pairs",
    "evaluation.retrieval_eval", "evaluation.similarity_stats",
    "evaluation.linear_probe", "evaluation.zero_shot",
)

# Which end-to-end metric, on which workload, each per-layer metric should
# move. Written down before any optimisation lands, so a later change can be
# checked against its prediction. The trace's own bookkeeping moves nothing.
_STEP_LOOP = [("wall_ref", "train_psd"), ("wall_ref", "ablate_noisy")]
_DATA = [("wall_ref", "generate_eval"), ("wall_ref", "ablate_noisy"),
         ("setup_s", "train_psd"), ("setup_s", "ablate_noisy"), ("setup_s", "generate_eval")]
_FILES = [("wall_ref", "generate_eval"), ("setup_s", "train_psd")]
_EVAL = [("wall_ref", "generate_eval"), ("peak_rss_mb", "generate_eval")]
MOVES: dict[str, list[tuple[str, str]]] = {}
for _name in STEP_SPANS:
    _targets = ([("wall_ref", "ablate_noisy")]
                if _name in ("objective.info_nce", "objective.soft_targets_bootstrap")
                else _STEP_LOOP)
    MOVES[f"{_name}_ms"] = _targets
    MOVES[f"{_name}_p90_ms"] = _targets
MOVES["trainer.steps"] = []
for _variant in ABLATION_VARIANTS:
    MOVES[f"experiments.train_variant_s.{_variant}"] = [("wall_ref", "ablate_noisy")]
MOVES.update({
    "experiments.split_clean_holdout_ms": [("wall_ref", "ablate_noisy"), ("setup_s", "train_psd")],
    "numkit.permutation_ms": _DATA,
    "numkit.normals_ms": _DATA,
    "data.generate_ms": _DATA,
    "data.save_pairs_ms": _FILES,
    "data.load_pairs_ms": _FILES,
    "data.file_bytes": _FILES,
    "evaluation.retrieval_eval_ms": _EVAL,
    "evaluation.similarity_stats_ms": _EVAL,
    "evaluation.linear_probe_ms": _EVAL,
    "evaluation.linear_probe_iters": _EVAL,
    "evaluation.probe_fallback_frac": _EVAL,
    "evaluation.zero_shot_ms": _EVAL,
    "evaluation.score_matrix_bytes": [("peak_rss_mb", "generate_eval")],
    "trace.overhead_frac": [],
})

NORMALS_DRAWS = 100_000


class Tracer:
    """In-memory spans: name, start, end and the index of the enclosing span."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations_ms(self) -> dict[str, list[float]]:
        """Duration of every span by name, plus ``<name>_self`` for spans
        with children: the duration minus the time its children cover."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, list[float]] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out.setdefault(name, []).append(1e3 * (t1 - t0))
            if child_s[i]:
                out.setdefault(f"{name}_self", []).append(1e3 * (t1 - t0 - child_s[i]))
        return out


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, tracer._open[-1] if tracer._open else -1]

    def __enter__(self):
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()


def traced_train(cfg, ds, tr: Tracer) -> TrainResult:
    """``trainer.train`` without evaluation or the metrics sink, with a span
    around each call. Any drift from train() fails the parameter gate."""
    n = ds.num_samples
    image_params = init_params(cfg.image_encoder, RngState(derive_seed(cfg.seed, _STREAM_INIT_IMAGE)))
    text_params = init_params(cfg.text_encoder, RngState(derive_seed(cfg.seed, _STREAM_INIT_TEXT)))
    temp = clamp_scale(TemperatureParam.from_temperature(cfg.temperature_init))

    steps_per_epoch = n // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs
    schedule = AlphaSchedule(total_steps=total_steps, start=cfg.alpha_start,
                             end=cfg.alpha_end, kind=cfg.alpha_schedule)
    flat = np.concatenate([image_params.flatten(), text_params.flatten(), [temp.log_scale]])
    n_image = cfg.image_encoder.num_params
    n_text = cfg.text_encoder.num_params
    decay_mask = np.ones(flat.size)
    decay_mask[-1] = 0.0
    opt = OptState(size=flat.size, total_steps=total_steps, lr_max=cfg.learning_rate,
                   warmup_steps=round(cfg.warmup_frac * total_steps),
                   weight_decay=cfg.weight_decay, beta1=cfg.beta1, beta2=cfg.beta2,
                   eps=cfg.adam_eps, decay_mask=decay_mask)
    static_priority = RngState(derive_seed(cfg.seed, _STREAM_PARTITION, 0)).permutation(n)

    step = 0
    loss = math.nan
    for epoch in range(cfg.epochs):
        with tr.span("trainer.epoch_order"):
            order = RngState(derive_seed(cfg.seed, _STREAM_DATA_ORDER, epoch)).permutation(n)
            if cfg.partition_mode == "dynamic":
                priority = RngState(derive_seed(cfg.seed, _STREAM_PARTITION, epoch)).permutation(n)
            else:
                priority = static_priority
            captions = select_captions(ds, RngState(derive_seed(cfg.seed, _STREAM_CAPTIONS, epoch)))

        for b in range(steps_per_epoch):
            with tr.span("trainer.step"):
                idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                x_img = ds.image_features[idx]
                x_txt = ds.text_features[captions[idx]]
                with tr.span("model.encode"):
                    emb_img, cache_img = encode(image_params, x_img)
                with tr.span("model.encode"):
                    emb_txt, cache_txt = encode(text_params, x_txt)
                batch = EmbeddingBatch(emb_img, emb_txt)

                if cfg.target_mode == "none":
                    with tr.span("objective.info_nce"):
                        lg = info_nce(batch, temp)
                else:
                    alpha = alpha_at(schedule, step)
                    with tr.span("trainer.make_partition"):
                        plan = make_partition(cfg.batch_size, alpha, priority=priority[idx])
                    teacher_scale = temp.scale if cfg.teacher_scale is None else cfg.teacher_scale
                    if cfg.target_mode == "swapped":
                        with tr.span("objective.soft_targets_swapped"):
                            targets = soft_targets_swapped(emb_img, emb_txt, teacher_scale, plan)
                    else:
                        with tr.span("objective.soft_targets_bootstrap"):
                            targets = soft_targets_bootstrap(emb_img, emb_txt, teacher_scale, plan)
                    with tr.span("objective.psd_loss"):
                        lg = psd_loss(batch, temp, plan, targets)

                if not math.isfinite(lg.loss):
                    raise DivergenceError(step)
                with tr.span("model.encode_backward"):
                    grad_img, _ = encode_backward(cache_img, lg.d_image)
                with tr.span("model.encode_backward"):
                    grad_txt, _ = encode_backward(cache_txt, lg.d_text)
                grads = np.concatenate([grad_img.flatten(), grad_txt.flatten(), [lg.d_log_scale]])
                with tr.span("trainer.adamw_step"):
                    flat = adamw_step(flat, grads, opt)
                temp = clamp_scale(TemperatureParam(log_scale=float(flat[-1])))
                flat[-1] = temp.log_scale
                with tr.span("model.unflatten"):
                    image_params = ParamSet.unflatten(cfg.image_encoder, flat[:n_image])
                with tr.span("model.unflatten"):
                    text_params = ParamSet.unflatten(cfg.text_encoder, flat[n_image:n_image + n_text])
            loss = lg.loss
            step += 1

    return TrainResult(image_params=image_params, text_params=text_params, temperature=temp,
                       history=[{"step": step - 1, "loss": loss}], config=cfg, opt=opt)


def _final_bytes(result: TrainResult) -> bytes:
    return (result.image_params.flatten().tobytes() + result.text_params.flatten().tobytes()
            + np.float64(result.temperature.log_scale).tobytes())


class TracedProgram:
    """One traced cycle: the 4 ablation variants on one noise-preset seed,
    each gated against train(); a 5-caption pool generated, saved and loaded;
    the evaluation kernels on that pool; and the numkit draws on their own."""

    def __init__(self, seed: int, sizes: dict, checks):
        self.seed = seed
        self.sizes = sizes
        self.checks = checks
        self.cfg = cfg = preset_config(seed, sizes)
        self.pool = generate(cfg.synthetic_spec(), RngState(seed))
        self.train_ds, self.holdout = split_clean_holdout(self.pool, cfg.eval_per_class)
        self.eval_spec = SyntheticSpec(samples_per_class=sizes["eval_samples_per_class"],
                                       captions_per_image=sizes["eval_captions"],
                                       mismatch_rate=sizes["eval_mismatch"])
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.probe_iters: list[int] = []
        self.probe_fallbacks: list[int] = []
        self.score_matrix_bytes = 0
        self.file_bytes = 0

    def cycle(self, tr: Tracer, work_dir) -> None:
        cfg, checks = self.cfg, self.checks
        trained = {}
        for variant, overrides in ABLATION_VARIANTS.items():
            tc = cfg.train_config(**overrides)
            t0 = time.perf_counter()
            reference = train(tc, self.train_ds)
            t1 = time.perf_counter()
            with tr.span(f"experiments.train_variant.{variant}"):
                result = traced_train(tc, self.train_ds, tr)
                t2 = time.perf_counter()
                outcome = evaluate_on_holdout(result, self.holdout, cfg.k_list,
                                              cfg.histogram_bins, variant, self.seed)
            self.untraced_s += t1 - t0
            self.traced_s += t2 - t1
            checks.ok(_final_bytes(result) == _final_bytes(reference),
                      f"traced {variant} ends on train()'s parameters bit for bit")
            checks.recalls(outcome.t2i_recall, f"traced {variant} t2i")
            trained[variant] = result

        with tr.span("experiments.split_clean_holdout"):
            split_clean_holdout(self.pool, cfg.eval_per_class)
        with tr.span("data.generate"):
            big = generate(self.eval_spec, RngState(self.seed))
        path = work_dir / "traced.psdd"
        with tr.span("data.save_pairs"):
            save_pairs(big, path)
        with tr.span("data.load_pairs"):
            loaded = load_pairs(path)
        self.file_bytes = path.stat().st_size
        save_pairs(loaded, work_dir / "traced_again.psdd")
        checks.ok(path.read_bytes() == (work_dir / "traced_again.psdd").read_bytes(),
                  "PSDD save/load round-trips bit for bit (traced)")

        best = trained["swapped_dynamic"]
        img, txt = encode_pairs(best.image_params, best.text_params, loaded)
        with tr.span("evaluation.retrieval_eval"):
            i2t, t2i = retrieval_eval(img, txt, cfg.k_list)
        checks.recalls(i2t.recall_at, "traced i2t")
        checks.recalls(t2i.recall_at, "traced t2i")
        self.score_matrix_bytes = img.shape[0] * txt.shape[0] * img.itemsize
        protos = class_prototypes(best.text_params, loaded)
        with tr.span("evaluation.zero_shot"):
            zero_shot_top1(img, protos, loaded.class_labels)
        with tr.span("evaluation.similarity_stats"):
            similarity_stats(img, txt, cfg.histogram_bins)
        test_mask = np.arange(loaded.num_samples) % 5 == 0
        with tr.span("evaluation.linear_probe"):
            probe = linear_probe(img[~test_mask], loaded.class_labels[~test_mask],
                                 img[test_mask], loaded.class_labels[test_mask], l2=cfg.probe_l2)
        self.probe_iters.append(probe.iterations)
        self.probe_fallbacks.append(probe.line_search_fallbacks)

        n = self.train_ds.num_samples
        for i in range(self.sizes["numkit_repeats"]):
            with tr.span("numkit.permutation"):
                RngState(derive_seed(self.seed, 100, i)).permutation(n)
            with tr.span("numkit.normals"):
                RngState(derive_seed(self.seed, 200, i)).normals(NORMALS_DRAWS)

    def metrics(self, tr: Tracer) -> dict[str, dict]:
        d = tr.durations_ms()
        m: dict[str, dict] = {}

        def put(name, value, unit):
            m[name] = {"value": float(value), "unit": unit}

        for name in STEP_SPANS:
            put(f"{name}_ms", np.percentile(d[name], 50), "ms")
            put(f"{name}_p90_ms", np.percentile(d[name], 90), "ms")
        put("trainer.steps", len(d["trainer.step"]), "count")
        for variant in ABLATION_VARIANTS:
            samples = d[f"experiments.train_variant.{variant}"]
            put(f"experiments.train_variant_s.{variant}", np.median(samples) / 1e3, "s")
        for name in CYCLE_SPANS:
            put(f"{name}_ms", np.median(d[name]), "ms")
        put("data.file_bytes", self.file_bytes, "B")
        put("evaluation.linear_probe_iters", np.median(self.probe_iters), "count")
        put("evaluation.probe_fallback_frac",
            sum(self.probe_fallbacks) / max(1, sum(self.probe_iters)), "ratio")
        put("evaluation.score_matrix_bytes", self.score_matrix_bytes, "B")
        put("trace.overhead_frac", self.traced_s / self.untraced_s - 1.0, "ratio")
        return m
