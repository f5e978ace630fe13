"""Determinism gates for the training loop: a run is a pure function of its
config and dataset, whatever the BLAS thread count."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from psdlab.data import SyntheticSpec, generate
from psdlab.model import EncoderSpec
from psdlab.numkit import RngState
from psdlab.trainer import TrainConfig, train

SRC = Path(__file__).resolve().parent.parent / "src"


def small_run() -> tuple[bytes, list[dict]]:
    """Train a small swapped/dynamic run with 2 captions per image, so every
    random stream of the trainer is drawn; returns the final-parameter bytes
    and the metrics history."""
    spec = SyntheticSpec(num_classes=4, latent_dim=6, image_dim=12, text_dim=10,
                         samples_per_class=32, feature_noise_sigma=0.3,
                         mismatch_rate=0.25, captions_per_image=2)
    ds = generate(spec, RngState(5))
    cfg = TrainConfig(image_encoder=EncoderSpec(12, (16,), 8),
                      text_encoder=EncoderSpec(10, (16,), 8),
                      batch_size=32, epochs=3, seed=9, learning_rate=1e-2,
                      target_mode="swapped", partition_mode="dynamic")
    result = train(cfg, ds)
    blob = (result.image_params.flatten().tobytes() + result.text_params.flatten().tobytes()
            + np.float64(result.temperature.log_scale).tobytes())
    return blob, result.history


class TestTrainDeterminism:
    def test_two_runs_byte_identical(self):
        params_a, history_a = small_run()
        params_b, history_b = small_run()
        assert params_a == params_b
        assert json.dumps(history_a, sort_keys=True) == json.dumps(history_b, sort_keys=True)

    def test_blas_thread_count_does_not_change_parameters(self):
        script = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); "
                  "from test_trainer import small_run; "
                  "print(hashlib.sha256(small_run()[0]).hexdigest())")
        digests = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{os.environ.get('PYTHONPATH', '')}",
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                                  env=env, capture_output=True, text=True, timeout=120, check=True)
            digests[threads] = proc.stdout.strip()
        assert digests["1"] == digests["2"]
        assert digests["1"] == hashlib.sha256(small_run()[0]).hexdigest()
