"""The paper's central claim as a gate: under noisy correspondence, swapped
soft targets with dynamic partitions beat the InfoNCE baseline. Also the
worker pool behind ``run_matrix``, at tiny sizes: it gives what training
each (seed, variant) pair in turn gives, a worker's error reaches the CLI,
and every worker runs BLAS on one thread."""

import json

import pytest

from psdlab import experiments
from psdlab.cli import main
from psdlab.data import generate
from psdlab.errors import DivergenceError
from psdlab.experiments import (
    OPENBLAS_SET_THREADS,
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


def test_swapped_dynamic_beats_baseline_on_noise_preset():
    # The preset unchanged (30 epochs): shorter runs shrink the margin toward
    # noise, e.g. to 2.25 points at 15 epochs and to a loss at 10 on this seed.
    outcomes = run_matrix(noise_experiment_config(), [0],
                          variants=["baseline", "swapped_dynamic"])
    baseline = outcomes["baseline"][0].t2i_recall[1]
    swapped = outcomes["swapped_dynamic"][0].t2i_recall[1]
    assert swapped > baseline, (swapped, baseline)


def tiny_config():
    cfg = noise_experiment_config()
    for key, value in TINY.items():
        setattr(cfg, key, value)
    return cfg


def test_pool_equals_serial_loop():
    cfg, seeds, variants = tiny_config(), [3, 4], ["baseline", "swapped_dynamic"]
    seen = []
    pooled = run_matrix(cfg, seeds, variants=variants, progress=seen.append)
    serial = {v: [] for v in variants}
    for seed in seeds:
        train_ds, eval_ds = split_clean_holdout(generate(cfg.synthetic_spec(), RngState(seed)),
                                                cfg.eval_per_class)
        for variant in variants:
            serial[variant].append(run_variant(cfg, variant, seed, train_ds, eval_ds))
    assert [(o.seed, o.variant) for o in seen] == [(s, v) for s in seeds for v in variants]
    assert json.dumps(ablation_table(pooled), sort_keys=True) == \
        json.dumps(ablation_table(serial), sort_keys=True)


def _diverge(exp_cfg, variant, seed, train_ds, eval_ds):
    raise DivergenceError(17)


def test_worker_error_exits_with_its_code(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(experiments, "run_variant", _diverge)
    sizes = [a for key, value in TINY.items() for a in ("--set", f"{key}={value}")]
    rc = main(["ablate", "--quiet", "--set", "ablate_seeds=2", *sizes, "--out", str(tmp_path)])
    assert rc == DivergenceError.exit_code == 6
    assert [m for m in caplog.messages if "non-finite" in m] == ["non-finite loss at step 17"]
    assert not (tmp_path / "ablation.json").exists()


def _blas_threads(exp_cfg, variant, seed, train_ds, eval_ds):
    return experiments._openblas_call(OPENBLAS_GET_THREADS)


def test_workers_run_blas_on_one_thread(monkeypatch):
    threads = experiments._openblas_call(OPENBLAS_GET_THREADS)
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS")
    monkeypatch.setattr(experiments, "run_variant", _blas_threads)
    experiments._openblas_call(OPENBLAS_SET_THREADS, 2, restype=None)  # a threaded caller
    try:
        outcomes = run_matrix(tiny_config(), [0, 1], variants=["baseline", "swapped_dynamic"])
    finally:
        experiments._openblas_call(OPENBLAS_SET_THREADS, threads, restype=None)
    assert outcomes == {"baseline": [1, 1], "swapped_dynamic": [1, 1]}
