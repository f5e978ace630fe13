"""Command-line entry point: generate | train | eval | gradcheck | ablate.

Configuration precedence: built-in defaults < --config file < --set KEY=VALUE
< the dedicated flags --seed, --out (out_dir), --dataset (dataset_path) and
--epochs; every other key is set with --set. Every command judges its
resolved configuration (``config``), and ``gradcheck`` its ``--seeds``,
first, naming the key of a value out of range, even one it does not read.
It writes nothing until its input files are read and the checks that wait
for the data pass; then it echoes the configuration into its output
directory, ``train`` before its first step and with the data's feature
sizes. With ``eval_every`` > 0, ``train`` carves a clean holdout off its
data, checks ``k_list`` against it, and evaluates on it every
``eval_every`` epochs. ``train``'s ``experiments.MetricsLog`` writes each
record into metrics.jsonl as the run makes it. Every command is idempotent
given identical inputs and seeds. Exit codes: 0 success, otherwise the
failing error class's code (see errors.py); a failed gradcheck returns 1.

Each command writes each result once, into ``--out``:

    generate   config.resolved.txt, dataset.psdd (its sha256 is printed)
    train      config.resolved.txt, metrics.jsonl, checkpoint/ (image_encoder.psdw,
               text_encoder.psdw, trainer_state.psdt)
    eval       config.resolved.txt, report.json (histograms under "similarity",
               the linear probe under "linear_probe")
    gradcheck  config.resolved.txt, gradcheck.json
    ablate     config.resolved.txt, ablation.json
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import gradcheck as gradcheck_mod
from .config import ExperimentConfig, echo_config, parse_config_text, set_key
from .data import generate, load_pairs, save_pairs
from .errors import ConfigError, InvalidInputError, PsdError, check_ranges, within
from .evaluation import check_eval_settings, linear_probe, score_eval, zero_shot_top1
from .experiments import (
    MetricsLog,
    ablation_table,
    class_prototypes,
    noise_experiment_config,
    run_matrix,
    split_clean_holdout,
)
from .numkit import RngState
from .trainer import encode_pairs, load_checkpoint, save_checkpoint, train

log = logging.getLogger("psdlab")


def _resolve_config(args, base: ExperimentConfig | None = None):
    """The configuration from defaults, file, --set and flags, checked by
    the specs and ``check_eval_keys``."""
    cfg = base or ExperimentConfig()
    if args.config:
        try:
            cfg = parse_config_text(Path(args.config).read_text(encoding="utf-8"), cfg)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        set_key(cfg, key.strip(), raw)
    # The dedicated flags, each stored under its config key; not every command has each.
    for key in ("seed", "out_dir", "dataset_path", "epochs"):
        value = getattr(args, key, None)
        if value is not None:
            set_key(cfg, key, str(value))
    cfg.synthetic_spec()
    cfg.train_config()
    cfg.check_eval_keys()
    return cfg


def cmd_generate(args) -> int:
    cfg = _resolve_config(args)
    ds = generate(cfg.synthetic_spec(), RngState(cfg.seed))
    path = echo_config(cfg) / "dataset.psdd"
    digest = save_pairs(ds, path)
    corrupted = int(ds.corrupted.sum())
    print(f"dataset: {path}")
    print(f"n: {ds.num_samples}  classes: {ds.num_classes}  "
          f"captions_per_image: {ds.captions_per_image}")
    print(f"eta: {cfg.mismatch_rate}  corrupted: {corrupted}")
    print(f"sha256: {digest}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    if cfg.dataset_path:
        log.info("loading dataset %s", cfg.dataset_path)
        ds = load_pairs(cfg.dataset_path)
        cfg.image_dim, cfg.text_dim = ds.image_features.shape[1], ds.text_features.shape[1]
    else:
        log.info("generating synthetic dataset (seed %d)", cfg.seed)
        ds = generate(cfg.synthetic_spec(), RngState(cfg.seed))
    eval_ds = None
    try:  # a fault of the data read from a file names the file
        cfg.synthetic_spec()  # judges a file's feature sizes as image_dim and text_dim
        tc = cfg.train_config()
        if cfg.eval_every > 0:
            ds, eval_ds = split_clean_holdout(ds, cfg.eval_per_class)
            log.info("carved %d clean held-out pairs", eval_ds.num_samples)
            check_eval_settings(eval_ds.num_samples, cfg.k_list)
        tc.check_data(ds)
    except InvalidInputError as exc:
        if not cfg.dataset_path:
            raise
        raise InvalidInputError(f"{cfg.dataset_path}: {exc}") from exc
    out = echo_config(cfg)
    with open(out / "metrics.jsonl", "w", encoding="utf-8") as sink:
        result = train(tc, ds, MetricsLog(sink, eval_ds, cfg.eval_every, cfg.k_list))
    save_checkpoint(result, out / "checkpoint")
    last = result.history[-1]
    print(f"steps: {last['step'] + 1}  final_loss: {last['loss']:.6f}  "
          f"final_scale: {last['scale']:.4f}")
    print(f"metrics: {out / 'metrics.jsonl'}")
    print(f"checkpoint: {out / 'checkpoint'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    image_params, text_params, temp, _state = load_checkpoint(args.checkpoint)
    ds = load_pairs(args.dataset)
    try:  # every fault of the dataset names the file
        check_eval_settings(ds.num_samples, cfg.k_list)
        for side, params, features in (("image", image_params, ds.image_features),
                                       ("text", text_params, ds.text_features)):
            if features.shape[1] != params.spec.input_dim:
                raise InvalidInputError(f"{side} features have {features.shape[1]} columns, "
                                        f"the {side} encoder expects {params.spec.input_dim}")
        img, txt = encode_pairs(image_params, text_params, ds)
        protos = class_prototypes(text_params, ds)
        test_mask = (np.arange(ds.num_samples) % 5 == 0)
        probe = linear_probe(img[~test_mask], ds.class_labels[~test_mask],
                             img[test_mask], ds.class_labels[test_mask], l2=cfg.probe_l2)
        i2t, t2i, stats = score_eval(img, txt, cfg.k_list, cfg.histogram_bins)
        zs = zero_shot_top1(img, protos, ds.class_labels)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{args.dataset}: {exc}") from exc
    report = {
        "checkpoint": str(args.checkpoint),
        "dataset": str(args.dataset),
        "n": ds.num_samples,
        "temperature_scale": temp.scale,
        "image_to_text": i2t.to_dict(),
        "text_to_image": t2i.to_dict(),
        "zero_shot_top1": zs,
        "similarity": stats.to_dict(),
        "linear_probe": probe.to_dict(),
    }
    out = echo_config(cfg)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    ks = sorted(t2i.recall_at)
    print("  ".join([f"t2i_r{k}: {t2i.recall_at[k]:.2f}" for k in ks]))
    print("  ".join([f"i2t_r{k}: {i2t.recall_at[k]:.2f}" for k in ks]))
    print(f"t2i_mnr: {t2i.mean_rank:.3f}  i2t_mnr: {i2t.mean_rank:.3f}")
    print(f"zero_shot_top1: {zs:.2f}")
    print(f"linear_probe: {probe.accuracy:.2f}")
    print(f"report: {out / 'report.json'}")
    return 0


def cmd_gradcheck(args) -> int:
    check_ranges([within("seeds", args.seeds, "[1, inf)")])
    cfg = _resolve_config(args)
    reports = gradcheck_mod.run_all(seed=cfg.seed, instances=args.seeds)
    width = max(len(r.name) for r in reports)
    all_ok = True
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  instances: {r.instances:4d}  "
              f"worst_rel_err: {r.worst_rel_error:.3e}  {status}")
        all_ok &= r.passed
    (echo_config(cfg) / "gradcheck.json").write_text(
        json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0 if all_ok else 1


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args, base=noise_experiment_config())

    def progress(outcome):
        k = min(outcome.t2i_recall)
        log.info("seed %d %s: t2i_r%d %.2f zero_shot %.2f",
                 outcome.seed, outcome.variant, k, outcome.t2i_recall[k], outcome.zero_shot)

    outcomes = run_matrix(cfg, progress=progress)
    table = ablation_table(outcomes)
    out = echo_config(cfg)
    (out / "ablation.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    ks = sorted(int(k) for k in next(iter(table["rows"].values()))["t2i_r@k_mean"])
    header = ["variant".ljust(18)] + [f"t2i_r{k}" for k in ks] + ["zeroshot", "vs_base"]
    print("  ".join(header))
    for variant, row in table["rows"].items():
        vote = table["wins_vs_baseline"].get(variant)
        vote_txt = f"{vote['wins']}W/{vote['losses']}L" if vote else "-"
        cells = [variant.ljust(18)]
        cells += [f"{row['t2i_r@k_mean'][str(k)]:6.2f}" for k in ks]
        cells += [f"{row['zero_shot_mean']:8.2f}", vote_txt]
        print("  ".join(cells))
    print(f"table: {out / 'ablation.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdlab",
        description="Desk-scale progressive self-distillation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--seed", type=int, help="base RNG seed (u64)")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--quiet", action="store_true", help="log errors only; results still print")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("generate", help="write a synthetic PSDD dataset")
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one run, write metrics + checkpoint")
    add_common(p)
    p.add_argument("--dataset", dest="dataset_path",
                   help="PSDD file (default: synthesize per config)")
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_common(p)
    p.add_argument("checkpoint", help="checkpoint directory from train")
    p.add_argument("dataset", help="PSDD dataset file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    add_common(p)
    p.add_argument("--seeds", type=int, default=100,
                   help="random instances per check (default 100)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser(
        "ablate", help="paired-seed loss-variant comparison",
        description="Train every loss variant on every seed's pool and compare them. The "
                    "(seed, variant) trainings run in parallel on one worker process per "
                    "available CPU, at most one per training, each with BLAS on one thread; "
                    "the output equals a serial run's byte for byte.")
    add_common(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.ERROR if args.quiet else logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(message)s", stream=sys.stderr)
    log.setLevel(level)
    try:
        return args.func(args)
    except PsdError as exc:
        log.error("%s", exc)
        return exc.exit_code
    except OSError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
