"""The benchmark's traced step loop (``perfbench/tracing.py``) is its own
copy of ``trainer.train`` with a span around each call, and the benchmark
counts its outputs incorrect unless the copy ends on train()'s parameters
bit for bit. The same gate runs here at a small size, on the benchmark's
own module, so a change to the step that the copy no longer matches fails
here in seconds. A run watched by ``psdlab train``'s observer, with
held-out evals every epoch, ends on the same bytes: observing never changes
what is trained."""

import io
import sys
from pathlib import Path

import pytest

from psdlab.data import generate
from psdlab.experiments import ABLATION_VARIANTS, MetricsLog, split_clean_holdout
from psdlab.numkit import RngState
from psdlab.trainer import train

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

SIZES = {"samples_per_class": 16, "eval_per_class": 2, "batch_size": 32, "epochs": 2}


@pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
def test_traced_train_ends_on_train_bytes(variant):
    cfg = tracing.preset_config(3, SIZES)
    train_ds, eval_ds = split_clean_holdout(generate(cfg.synthetic_spec(), RngState(cfg.seed)),
                                            cfg.eval_per_class)
    tc = cfg.train_config(**ABLATION_VARIANTS[variant])
    reference = train(tc, train_ds)
    traced = tracing.traced_train(tc, train_ds, tracing.Tracer())
    sink = io.StringIO()
    observed = train(tc, train_ds, MetricsLog(sink, eval_ds, 1, cfg.k_list))
    assert len(reference.history) == 8
    assert sink.getvalue().count('"kind": "eval"') == 2
    assert tracing._final_bytes(traced) == tracing._final_bytes(reference)
    assert tracing._final_bytes(observed) == tracing._final_bytes(traced)
