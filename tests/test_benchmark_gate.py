"""The benchmark's traced step loop (``perfbench/tracing.py``) is its own
copy of ``trainer.train`` with a span around each call, and the benchmark
counts its outputs incorrect unless the copy ends on train()'s parameters
bit for bit. The same gate runs here at a small size, on the benchmark's
own module, so a change to the step that the copy no longer matches fails
here in seconds."""

import sys
from pathlib import Path

import pytest

from psdlab.data import generate
from psdlab.experiments import ABLATION_VARIANTS, split_clean_holdout
from psdlab.numkit import RngState
from psdlab.trainer import train

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

SIZES = {"samples_per_class": 16, "eval_per_class": 2, "batch_size": 32, "epochs": 2}


@pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
def test_traced_train_ends_on_train_bytes(variant):
    cfg = tracing.preset_config(3, SIZES)
    train_ds, _ = split_clean_holdout(generate(cfg.synthetic_spec(), RngState(cfg.seed)),
                                      cfg.eval_per_class)
    tc = cfg.train_config(**ABLATION_VARIANTS[variant])
    reference = train(tc, train_ds)
    traced = tracing.traced_train(tc, train_ds, tracing.Tracer())
    assert len(reference.step_records()) == 8
    assert tracing._final_bytes(traced) == tracing._final_bytes(reference)
