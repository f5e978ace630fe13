"""The paper's central claim as a gate: under noisy correspondence, swapped
soft targets with dynamic partitions beat the InfoNCE baseline. Also the
worker pool behind ``run_matrix``, at tiny sizes: it gives what calling
``run_variant`` for each (seed, variant) pair in turn gives, each worker
trains the config that ``run_matrix`` built and checked, only the workers
build data, a worker's error reaches the CLI, a failed run leaves no worker
running, every worker runs BLAS on one thread, and ``ablate``'s table bytes
are pinned. And the harness's two pure parts: the clean holdout split, whose
bytes are pinned on the noise preset, and the ablation table."""

import hashlib
import json
import multiprocessing
import os
import re

import numpy as np
import pytest

from psdlab import experiments
from psdlab.cli import main
from psdlab.config import ExperimentConfig
from psdlab.data import PairedDataset, SyntheticSpec, generate, save_pairs
from psdlab.errors import DivergenceError, InvalidInputError
from psdlab.experiments import (
    ABLATION_VARIANTS,
    OPENBLAS_SET_THREADS,
    VariantOutcome,
    ablation_table,
    noise_experiment_config,
    run_matrix,
    run_variant,
    split_clean_holdout,
)
from psdlab.numkit import RngState

OPENBLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")
TINY = {"samples_per_class": 60, "eval_per_class": 10, "batch_size": 64, "epochs": 2}
TINY_SETS = [a for key, value in TINY.items() for a in ("--set", f"{key}={value}")]


def test_swapped_dynamic_beats_baseline_on_noise_preset():
    # The preset unchanged (30 epochs): shorter runs shrink the margin toward
    # noise, e.g. to 2.25 points at 15 epochs and to a loss at 10 on this seed.
    # One seed, 0, not the preset's ten.
    cfg = noise_experiment_config()
    cfg.seed, cfg.ablate_seeds = 0, 1
    outcomes = run_matrix(cfg)
    baseline = outcomes["baseline"][0].t2i_recall[1]
    swapped = outcomes["swapped_dynamic"][0].t2i_recall[1]
    assert swapped > baseline, (swapped, baseline)


def tiny_config(seed: int, ablate_seeds: int):
    cfg = noise_experiment_config()
    for key, value in TINY.items():
        setattr(cfg, key, value)
    cfg.seed, cfg.ablate_seeds = seed, ablate_seeds
    return cfg


def test_pool_equals_serial_loop():
    cfg, seeds = tiny_config(3, 2), [3, 4]
    seen = []
    pooled = run_matrix(cfg, progress=seen.append)
    serial = {v: [] for v in ABLATION_VARIANTS}
    for seed in seeds:
        for variant, overrides in ABLATION_VARIANTS.items():
            serial[variant].append(run_variant(cfg.train_config(seed=seed, **overrides), variant,
                                               cfg.synthetic_spec(), cfg.eval_per_class,
                                               cfg.k_list, cfg.histogram_bins))
    assert [(o.seed, o.variant) for o in seen] == [(s, v) for s in seeds
                                                   for v in ABLATION_VARIANTS]
    assert json.dumps(ablation_table(pooled), sort_keys=True) == \
        json.dumps(ablation_table(serial), sort_keys=True)


def _trained_config(cfg, variant, spec, per_class, k_list, bins):
    return cfg


def test_each_task_trains_the_config_run_matrix_built(monkeypatch):
    monkeypatch.setattr(experiments, "run_variant", _trained_config)
    cfg = tiny_config(3, 2)
    assert run_matrix(cfg) == {variant: [cfg.train_config(seed=seed, **overrides)
                                         for seed in (3, 4)]
                               for variant, overrides in ABLATION_VARIANTS.items()}


def test_only_the_workers_build_data(tmp_path, monkeypatch):
    # Each task generates its seed's pool in its worker, once; the calling
    # process generates none and hands the pool no dataset: a PairedDataset
    # cannot be pickled here, and every task's arguments are.
    pids = tmp_path / "pids"
    real_generate = experiments.generate

    def generate_in(spec, rng):
        with open(pids, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return real_generate(spec, rng)

    def unpicklable(self, protocol):
        raise AssertionError("a PairedDataset was pickled")

    monkeypatch.setattr(experiments, "generate", generate_in)
    monkeypatch.setattr(experiments, "train", lambda cfg, ds: cfg)
    monkeypatch.setattr(experiments, "evaluate_on_holdout", lambda result, *args: result)
    monkeypatch.setattr(PairedDataset, "__reduce_ex__", unpicklable)
    run_matrix(tiny_config(3, 2))
    callers = pids.read_text(encoding="utf-8").split()
    assert len(callers) == 2 * len(ABLATION_VARIANTS)
    assert str(os.getpid()) not in callers


def _diverge(cfg, variant, spec, per_class, k_list, bins):
    raise DivergenceError(17)


def test_worker_error_exits_with_its_code(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(experiments, "run_variant", _diverge)
    rc = main(["ablate", "--quiet", "--set", "ablate_seeds=2", *TINY_SETS, "--out", str(tmp_path)])
    assert rc == DivergenceError.exit_code == 6
    assert [m for m in caplog.messages if "non-finite" in m] == ["non-finite loss at step 17"]
    assert not (tmp_path / "ablation.json").exists()


def _stop(outcome):
    raise RuntimeError("stop")


@pytest.mark.parametrize("task, progress, error", [(_diverge, None, DivergenceError),
                                                   (_trained_config, _stop, RuntimeError)])
def test_a_failed_ablation_leaves_no_worker_running(task, progress, error, monkeypatch):
    # A task that raises, or a progress callback that raises on the first
    # outcome: the error reaches the caller and the pool is joined.
    monkeypatch.setattr(experiments, "run_variant", task)
    with pytest.raises(error):
        run_matrix(tiny_config(0, 2), progress=progress)
    assert multiprocessing.active_children() == []


def _blas_threads(cfg, variant, spec, per_class, k_list, bins):
    return experiments._openblas_call(OPENBLAS_GET_THREADS)


def test_workers_run_blas_on_one_thread(monkeypatch):
    threads = experiments._openblas_call(OPENBLAS_GET_THREADS)
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS")
    monkeypatch.setattr(experiments, "run_variant", _blas_threads)
    experiments._openblas_call(OPENBLAS_SET_THREADS, 2, restype=None)  # a threaded caller
    try:
        outcomes = run_matrix(tiny_config(0, 2))
    finally:
        experiments._openblas_call(OPENBLAS_SET_THREADS, threads, restype=None)
    assert outcomes == {v: [1, 1] for v in ABLATION_VARIANTS}


def no_pool(*args, **kwargs):
    raise AssertionError("a pool was drawn before the configuration was checked")


@pytest.mark.parametrize("key, value", [("ablate_seeds", 0), ("histogram_bins", 0),
                                        ("eval_every", -1)])
def test_run_matrix_checks_the_evaluation_keys_before_any_pool(key, value, monkeypatch):
    # A library caller gets the check that psdlab ablate makes: zero seeds
    # would give empty rows that ablation_table cannot index.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cfg = tiny_config(0, 1)
    setattr(cfg, key, value)
    with pytest.raises(InvalidInputError, match=f"{key} must lie in"):
        run_matrix(cfg)


def noisy_pool():
    spec = SyntheticSpec(num_classes=3, latent_dim=4, image_dim=6, text_dim=5,
                         samples_per_class=12, mismatch_rate=0.25)
    return generate(spec, RngState(5))


def test_clean_holdout_holds_per_class_clean_images():
    pool = noisy_pool()
    train_ds, eval_ds = split_clean_holdout(pool, 4)
    assert np.bincount(eval_ds.class_labels, minlength=3).tolist() == [4, 4, 4]
    assert not eval_ds.corrupted.any()
    # Every image of the pool lands in exactly one split, its label and
    # corruption flag with it.
    def rows(ds):
        return {(x.tobytes(), int(c), bool(k))
                for x, c, k in zip(ds.image_features, ds.class_labels, ds.corrupted)}
    assert train_ds.num_samples + eval_ds.num_samples == pool.num_samples
    assert rows(train_ds) | rows(eval_ds) == rows(pool)
    assert len(rows(pool)) == pool.num_samples


def test_noise_preset_split_bytes(tmp_path):
    # sha256 of the saved halves of seed 0's noise-preset pool, as ablate
    # splits it: the train split of 2000 images and the clean holdout of 400.
    cfg = noise_experiment_config()
    halves = split_clean_holdout(generate(cfg.synthetic_spec(), RngState(0)), cfg.eval_per_class)
    digests = []
    for name, half in zip(("train", "holdout"), halves):
        save_pairs(half, tmp_path / name)
        digests.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
    assert digests == ["7be2da45cfb046a49d70d494140344accf73450ec48fb397ec0ae0359fe1bec8",
                       "e932c840285256f2a15a870d1d1d1f47f4367756cc40be29937cfd652deb2f5b"]


def test_tiny_ablation_bytes(tmp_path):
    # sha256 of the ablation.json that psdlab ablate --seed 3 --set
    # ablate_seeds=2 writes at TINY sizes: the pool, the paired trainings and
    # the table, end to end. Like GOLDEN_DATASETS, it depends on the OpenBLAS
    # build that numpy bundles, whose kernels set the last bits of every
    # matmul; it was taken with OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell kernels).
    assert main(["ablate", "--quiet", "--seed", "3", "--set", "ablate_seeds=2", *TINY_SETS,
                 "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "ablation.json").read_bytes()).hexdigest() == \
        "6690849f183db29b5d24cf909ebba3bee39005c997f95405137f9fc429f6a2b5"


@pytest.mark.parametrize("per_class", [0, -1])
def test_clean_holdout_needs_a_positive_count(per_class):
    # clean[:-1] would hold out all but one clean image of every class, so
    # the eval_per_class key is checked before any pool is split, and so is
    # a library caller's count.
    message = re.escape(f"eval_per_class must lie in [1, inf), got {per_class}")
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig(eval_per_class=per_class).check_eval_keys()
    with pytest.raises(InvalidInputError, match=message):
        split_clean_holdout(noisy_pool(), per_class)


def test_clean_holdout_needs_enough_clean_images():
    pool = noisy_pool()
    short = int(min(np.count_nonzero((pool.class_labels == c) & ~pool.corrupted)
                    for c in range(pool.num_classes)))
    split_clean_holdout(pool, short)
    with pytest.raises(InvalidInputError, match="uncorrupted"):
        split_clean_holdout(pool, short + 1)


def outcome(variant, seed, r1):
    return VariantOutcome(variant=variant, seed=seed, t2i_recall={1: r1, 5: 90.0},
                          i2t_recall={1: r1, 5: 90.0}, t2i_mean_rank=2.0, i2t_mean_rank=2.0,
                          zero_shot=50.0, positive_sim_mean=0.5, negative_sim_mean=0.0,
                          final_loss=1.0)


def test_ablation_table_counts_wins_losses_and_ties():
    # Against the baseline's R@1 of 40, 50 and 60 on its seeds 7, 8, 9,
    # the variant's runs, paired by position, win, tie and lose. They carry
    # other seed labels and come first, so the table's seeds can only be
    # the baseline's.
    outcomes = {"swapped_dynamic": [outcome("swapped_dynamic", s, r)
                                    for s, r in ((1, 45.0), (2, 50.0), (3, 55.0))],
                "baseline": [outcome("baseline", s, r)
                             for s, r in ((7, 40.0), (8, 50.0), (9, 60.0))]}
    table = ablation_table(outcomes)
    assert table["seeds"] == [7, 8, 9]
    assert table["wins_vs_baseline"] == {"swapped_dynamic": {"wins": 1, "losses": 1, "ties": 1}}
    assert table["rows"]["baseline"]["t2i_r@k_mean"] == {"1": 50.0, "5": 90.0}
