"""Deterministic dense numeric kernels and the seeded random stream.

All matrices are C-contiguous float64 numpy arrays (row-major). Plumbing that
numpy already provides well (matmul, transpose, fancy row selection,
elementwise ops) is used directly on those arrays; this module adds the
probability kernels with their exact contracts and a self-contained PRNG so
that every random draw in the package is bit-reproducible from a 64-bit seed,
independent of platform or numpy version.

One max-shifted exponential, ``exp_shifted`` (max, exp(x - max), sum along
either axis of a 2-D array), serves every probability kernel: ``softmax_rows``,
the teacher's posteriors, and ``softmax_xent``, the single softmax
cross-entropy of the package. That kernel has two target kinds: a hard row is
one-hot at its label and is read by indexing, a soft row takes a given
distribution. It reads the rows of a C-contiguous logit matrix, or its
columns in place (``axis=0``), with no transposed copy, so one matrix of
image-text logits serves both retrieval directions. InfoNCE, the PSD loss and
the linear probe all call it.

The PRNG is counter-based (Salmon et al. 2011): word k of a stream is the
splitmix64 finalizer (Steele et al. 2014) applied to seed + k * gamma, so a
block of words is one vectorized pass over a counter range and no draw loops
in Python. ``derive_seed`` keys independent streams with the same mix.

Everything here is a pure function over immutable inputs except RngState,
which is single-owner mutable state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

_MASK64 = (1 << 64) - 1
# splitmix64 constants: the counter increment (gamma) and the two finalizer
# multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a finite 2-D float64 array and return it C-contiguous."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return m


def exp_shifted(x: np.ndarray, axis: int,
                out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(x - max) along ``axis`` of a 2-D array into ``out`` (new when
    None; may be ``x``), with that max and the sum of the exponentials, both
    kept 2-D to broadcast against ``x``. The shift keeps every exponential in
    (0, 1], so none overflows; max + log(sum) is the log-sum-exp."""
    top = x.max(axis=axis, keepdims=True)
    e = np.subtract(x, top, out=out)
    np.exp(e, out=e)
    return e, top, e.sum(axis=axis, keepdims=True)


def softmax_rows(m, scale: float) -> np.ndarray:
    """Row-wise softmax of ``scale * m`` with per-row max subtraction.

    ``scale`` multiplies the logits (it plays the role of an inverse
    temperature). Each output row is nonnegative and sums to 1.
    """
    m = as_matrix(m, "softmax input")
    if not (math.isfinite(scale) and scale > 0.0):
        raise InvalidInputError(f"softmax scale must be a positive real, got {scale}")
    probs = scale * m
    _, _, total = exp_shifted(probs, 1, out=probs)
    probs /= total
    return probs


def softmax_xent(logits: np.ndarray, weights: np.ndarray, labels: np.ndarray,
                 soft_rows: np.ndarray, soft_targets: np.ndarray,
                 axis: int = 1) -> tuple[float, np.ndarray]:
    """Weighted softmax cross-entropy over the rows of ``logits`` (``axis``
    1) or over its columns (``axis`` 0), with its gradient: returns
    (sum_i weights[i] * H(q_i, softmax(x_i)), d_logits), where x_i is row i,
    or column i, of ``logits`` and d_logits has the shape of ``logits``.
    Columns are read in place: no transposed copy is made.

    Target q_i is one-hot at ``labels[i]`` (a hard row), except for the rows
    listed in ``soft_rows``, whose targets are the matching rows of
    ``soft_targets`` (soft rows; their labels are ignored). No dense target
    matrix is built. The loss is taken in log-sum-exp form,
    H(q, softmax(x)) = lse(x) * sum(q) - q . x, so it stays exact however far
    apart the logits are; d_x_i = weights[i] * (softmax(x_i) * sum(q_i) - q_i),
    formed as exp(x_i - max) times weights[i] * sum(q_i) / sum(exp) with the
    target subtracted in place. Zero rows give (0.0, an empty array).
    """
    if axis not in (0, 1):
        raise InvalidInputError(f"axis must be 0 or 1, got {axis}")
    cols, n = logits.shape if axis == 0 else logits.shape[::-1]
    if (weights.shape != (n,) or labels.shape != (n,)
            or soft_targets.shape != (soft_rows.size, cols)):
        raise InvalidInputError(
            f"shape mismatch: logits {logits.shape} along axis {axis}, weights "
            f"{weights.shape}, labels {labels.shape}, {soft_rows.size} soft rows, "
            f"soft targets {soft_targets.shape}")
    grad, top, total = exp_shifted(logits, axis)
    lse = (top + np.log(total)).ravel()
    mass = np.ones(n)
    mass[soft_rows] = soft_targets.sum(axis=1)
    grad *= (weights * mass).reshape(total.shape) / total
    hard = np.ones(n, dtype=bool)
    hard[soft_rows] = False
    rows = np.flatnonzero(hard)
    at = (rows, labels[rows]) if axis == 1 else (labels[rows], rows)
    grad[at] -= weights[rows]
    picked = np.empty(n)
    picked[rows] = logits[at]
    soft = logits[soft_rows] if axis == 1 else logits[:, soft_rows].T
    picked[soft_rows] = np.einsum("ij,ij->i", soft_targets, soft)
    np.multiply(soft_targets, weights[soft_rows, None], out=soft)  # reuse the gathered block
    if axis == 1:
        grad[soft_rows] -= soft
    else:
        grad[:, soft_rows] -= soft.T
    return float(weights @ (lse * mass - picked)), grad


def normalize_rows_l2(m) -> np.ndarray:
    """Scale each row to unit Euclidean norm; rejects rows with norm < 1e-12."""
    m = as_matrix(m, "normalize input")
    norms = np.sqrt((m * m).sum(axis=1))
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise DegenerateInputError(f"row {int(bad[0])} has near-zero norm, cannot normalize")
    return m / norms[:, None]


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next state, output word)."""
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(base: int, *tags: int) -> int:
    """Derive an independent stream seed from a base seed and integer tags.

    Pure splitmix64 chain: feeding each tag through the mix keeps streams for
    different (label, epoch) combinations decorrelated and reproducible.
    """
    state = base & _MASK64
    for tag in tags:
        state, out = _splitmix64(state ^ (tag & _MASK64))
        state ^= out
    _, out = _splitmix64(state)
    return out


class RngState:
    """splitmix64 over a counter: word k (k = 1, 2, ...) of seed s is the
    splitmix64 finalizer applied to (s + k * gamma) mod 2**64.

    These are the words the scalar ``_splitmix64`` chain started at s
    produces, computed for a whole block of counters at once on numpy uint64
    arrays, so every draw is a handful of array operations. Each draw takes
    the next words of the stream and the counter only advances: draws split
    across calls equal one call of the combined size (for normals, when the
    first call's size is even). A permutation is the stable argsort of n
    words; two of them tie with probability below n**2 / 2**65, and the
    stable sort breaks a tie by index. Identical seeds give bit-identical
    streams on every platform. Instances are single-owner: never share one
    across threads.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._count = 0

    def _words(self, n: int) -> np.ndarray:
        """The next n words of the stream as a uint64 array."""
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z *= _GAMMA
        z += self.seed
        z ^= z >> 30
        z *= _MIX1
        z ^= z >> 27
        z *= _MIX2
        z ^= z >> 31
        return z

    def next_u64(self) -> int:
        """The next word of the stream."""
        return int(self._words(1)[0])

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return float(self.uniforms(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        return (self._words(n) >> 11) * 2.0**-53

    def normals(self, *shape: int) -> np.ndarray:
        """Standard normals via pairwise Box-Muller.

        Consumes exactly 2*ceil(size/2) words; the first of each pair is
        shifted into (0, 1] so the log is always finite.
        """
        size = math.prod(shape)
        u = (self._words(2 * ((size + 1) // 2)) >> 11).astype(np.float64)
        u1 = (u[0::2] + 1.0) * 2.0**-53
        u2 = u[1::2] * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        z = np.empty_like(u)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:size].reshape(shape) if shape else z[0]

    def integers(self, n: int, size: int) -> np.ndarray:
        """``size`` uniform integers in [0, n) as a uint64 array, for
        1 <= n < 2**64.

        Rejection sampling without modulo bias: a word x is accepted when
        x < 2**64 - (2**64 mod n) and yields x mod n. Rejected words are
        skipped and only the shortfall is drawn again, so the result is the
        first ``size`` accepted words of the stream, exactly as ``size``
        calls of ``randint`` would give.
        """
        if not 0 < n <= _MASK64:
            raise InvalidInputError(f"integer bound must lie in [1, 2**64), got {n}")
        out = self._words(size)
        rem = (_MASK64 + 1) % n
        if rem:
            bound = _MASK64 + 1 - rem
            out = out[out < bound]
            while out.size < size:
                more = self._words(size - out.size)
                out = np.concatenate([out, more[more < bound]])
        return out % n

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n); see ``integers``."""
        return int(self.integers(n, 1)[0])

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of 0..n-1: the stable argsort of the next n words."""
        return np.argsort(self._words(n), kind="stable")
