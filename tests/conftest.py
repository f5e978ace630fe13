import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psdlab.numkit import RngState, normalize_rows_l2

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


@pytest.fixture
def rng():
    return RngState(1234)


def unit_batch(rng: RngState, n: int, d: int):
    """Random unit-row image/text embedding matrices."""
    return normalize_rows_l2(rng.normals(n, d)), normalize_rows_l2(rng.normals(n, d))


def lift_sims_to_embeddings(sims):
    """Unit-row (V, T) whose dot-product matrix equals ``sims`` exactly.

    V gets the first n canonical basis vectors of R^{n+1}; column j of sims
    becomes the first n coordinates of T row j, with the spare coordinate
    absorbing the norm (requires every column norm <= 1).
    """
    s = np.asarray(sims, dtype=np.float64)
    n = s.shape[0]
    v = np.zeros((n, n + 1))
    v[np.arange(n), np.arange(n)] = 1.0
    t = np.zeros((n, n + 1))
    t[:, :n] = s.T
    residual = 1.0 - (s * s).sum(axis=0)
    if residual.min() < 0:
        raise ValueError("columns of sims must have norm <= 1")
    t[:, n] = np.sqrt(residual)
    return v, t


def python_with_blas_threads(code: str, threads: int) -> str:
    """Standard output of ``code`` run in a fresh interpreter whose BLAS has
    ``threads`` threads; the tests directory and ``src`` are importable."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(TESTS), str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout


def save_captionless_pairs(ds, path) -> None:
    """Write ``ds``'s images to a PSDD file whose header says m = 0 and that
    holds no caption: a file ``PairedDataset`` cannot build when ``ds`` has
    images. The layout is the one ``save_pairs`` writes."""
    header = struct.pack("<4sIIIIII", b"PSDD", 1, ds.num_samples, 0,
                         ds.image_features.shape[1], ds.text_features.shape[1], ds.num_classes)
    path.write_bytes(header + ds.image_features.astype("<f8").tobytes()
                     + ds.class_labels.astype("<u4").tobytes()
                     + ds.corrupted.astype("<u1").tobytes())
