"""Deterministic dense numeric kernels and the seeded random stream.

All matrices are C-contiguous float64 numpy arrays (row-major). Plumbing that
numpy already provides well (matmul, transpose, fancy row selection,
elementwise ops) is used directly on those arrays; this module adds the
probability kernels with their exact contracts and a self-contained PRNG so
that every random draw in the package is bit-reproducible from a 64-bit seed,
independent of platform or numpy version.

One cross-entropy kernel, ``contrastive_xent``, with two target kinds: a
hard target is one-hot, a soft target is a distribution. It takes the rows
and the columns of a square logit matrix L = scaled_v t^T given by its two
factors, with its diagonal as the hard targets, and returns the gradients in
the factors; InfoNCE and the PSD loss call it. The caller names the soft
rows; ``SoftTargets`` holds a target for every row, checked and made a
distribution, as factors of one exponential, an n x n block with one scale
per row and one per column: no target row is gathered, and the weighted
targets are subtracted from the gradient block a band of rows at a time, so
the block's two products with the factors carry them.

Both axes of a square matrix take their log-sum-exps from one exponential
under the global max, ``exp_both_axes`` (``contrastive_xent`` and the
teacher), after ``shared_exp_top`` has taken that max. Each entry then
comes out smaller by exp(top - its row's or column's max) than under that
max, and rounding x - top costs more the further below the top it sits;
past about 708 an exponential turns subnormal and past 745 it is 0.
Callers scale single entries by the reciprocals of their column or row
sums, and such a product can lead its row even when the entry itself
underflows. Hence a span rule on every entry: the whole matrix must lie
within ``SHARED_EXP_SPAN`` = 600 of its max, which keeps every exponential
at or above exp(-600), a normal double, so each product and sum keeps its
rounding bound; ``shared_exp_top`` raises InvalidInputError for a wider
matrix. The package forms such matrices from unit-norm rows at a scale in
``objective.LOG_SCALE_RANGE``, at most exp(log 100), three ulps above 100,
so they span about 200, well under 600.

The PRNG is counter-based (Salmon et al. 2011): word k of a stream is the
splitmix64 finalizer (Steele et al. 2014) applied to seed + k * gamma, so a
block of words is one vectorized pass over a counter range and no draw loops
in Python. A draw makes its words, and normals their values, ``RNG_CHUNK``
words at a time in reused buffers, so its working memory stays in cache
whatever its size. Each word and each value is an elementwise function of
its counter alone, computed by the same operations in every chunk, so
chunking never changes a word, a value or the stream's position.
``derive_seed`` keys independent streams with the same mix.

Everything here is a pure function or a frozen value over immutable inputs
except RngState, which is single-owner mutable state, and ``exp_both_axes``,
which overwrites its argument with the exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, check_ranges

_MASK64 = (1 << 64) - 1
# splitmix64 constants: the counter increment (gamma) and the two finalizer
# multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# shared_exp_top's span rule: the furthest any entry may sit below the
# matrix's max. exp(-600) ~ 3e-261, so every exponential stays a normal double.
SHARED_EXP_SPAN = 600.0
# Rows per band when contrastive_xent scales its exponential in place.
_BAND_ROWS = 64
# Words per pass of the random stream: even, so a normal's pair never
# splits. normals' work arrays, about 4.5 such chunks of 8-byte words, stay in L2.
RNG_CHUNK = 1 << 15


def as_matrix(a, name: str) -> np.ndarray:
    """Validate ``a`` as a finite 2-D float64 array and return it C-contiguous."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return m


def increasing_rows(rows, n: int, name: str) -> np.ndarray:
    """``rows`` as a 1-D int64 array, or InvalidInputError unless it holds
    strictly increasing indices in 0..n-1: no row repeats or wraps around."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or (rows.size and not (rows[0] >= 0 and rows[-1] < n
                                             and (rows[1:] > rows[:-1]).all())):
        raise InvalidInputError(f"{name} must be increasing indices in 0..{n - 1}")
    return rows


def shared_exp_top(x: np.ndarray) -> float:
    """The global max of a 2-D array, under which ``exp_both_axes``
    exponentiates it. Raises InvalidInputError unless every entry lies
    within ``SHARED_EXP_SPAN`` of that max (an empty ``x``, or one holding
    NaN or an infinity, never does)."""
    if not x.size:
        raise InvalidInputError("cannot exponentiate an empty matrix")
    top = x.max()
    span = top - x.min()
    if not span <= SHARED_EXP_SPAN:
        raise InvalidInputError(
            f"logits span {span}, past the {SHARED_EXP_SPAN:g} that one exponential admits")
    return float(top)


def exp_both_axes(x: np.ndarray, top: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(x - top) of a 2-D array, in place, with the row and column sums
    of the exponentials, kept 2-D to broadcast against ``x``: top + log(sum)
    is each axis' log-sum-exp. ``top`` is ``shared_exp_top(x)``, whose span
    rule keeps every exponential a normal double."""
    np.subtract(x, top, out=x)
    np.exp(x, out=x)
    return x.sum(axis=1, keepdims=True), x.sum(axis=0, keepdims=True)


@dataclass(frozen=True)
class SoftTargets:
    """Teacher-produced alignment distributions for every row of a batch of
    n pairs, held as factors of the teacher's exponential.

    The target of image u over the batch's texts and the target of text u
    over its images are

        image row u: exp[u, j] * p[u] * g[j] over the texts j,
        text row u:  exp[i, u] * r[i] * s[u] over the images i,

    given a scale ``g`` over the texts and ``r`` over the images. The
    normalizers p = 1 / (exp @ g) and s = 1 / (r @ exp) are derived here
    (again by ``dataclasses.replace``), so every target row sums to 1 by
    construction. The n x n block is an exponential of teacher logits.
    Targets are constants to the student; nothing here writes to the arrays
    it holds, and ``contrastive_xent`` reads the factors.

    InvalidInputError is raised for a scale that is not a finite positive
    number, for a non-finite row sum (exp @ g or r @ exp: a NaN or infinite
    entry anywhere), and for a row sum that is not positive or has no
    finite reciprocal.
    """

    exp: np.ndarray
    g: np.ndarray
    r: np.ndarray
    p: np.ndarray = field(init=False)
    s: np.ndarray = field(init=False)

    def __post_init__(self):
        e = np.ascontiguousarray(self.exp, dtype=np.float64)
        n = e.shape[0] if e.ndim == 2 else -1
        if e.shape != (n, n):
            raise InvalidInputError(f"target block must be square, got {e.shape}")
        g, r = np.asarray(self.g, dtype=np.float64), np.asarray(self.r, dtype=np.float64)
        if g.shape != (n,) or r.shape != (n,):
            raise InvalidInputError(f"target scales {g.shape} and {r.shape} do not fit {n} rows")
        # Each test below is written so that NaN, for which every comparison
        # is false, fails it.
        scales = np.concatenate([g, r])
        if scales.size and not (scales.min() > 0.0 and scales.max() < math.inf):
            raise InvalidInputError("target scales must be finite and positive")
        sums = np.concatenate([e @ g, r @ e])
        if not np.isfinite(sums).all():
            raise InvalidInputError("target block holds NaN or infinite entries")
        with np.errstate(divide="ignore", over="ignore"):
            norms = 1.0 / sums
        if norms.size and not (norms.min() > 0.0 and norms.max() < math.inf):
            raise InvalidInputError("target row sums must be positive with finite reciprocals")
        for name, value in (("exp", e), ("g", g), ("r", r), ("p", norms[:n]), ("s", norms[n:])):
            object.__setattr__(self, name, value)


def contrastive_xent(scaled_v: np.ndarray, t: np.ndarray, weights: np.ndarray, soft_rows,
                     targets: SoftTargets | None) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted softmax cross-entropy of every row plus every column of the
    square logit matrix L = scaled_v t^T, with its gradients in the two
    factors: returns (loss, d_scaled_v, d_t), the gradients in the layouts
    of ``scaled_v`` and ``t``. L must lie within ``SHARED_EXP_SPAN`` of its
    max (``shared_exp_top``), or InvalidInputError is raised before any
    product is formed.

    Row i and column i each cost weights[i] * H(q, softmax(x)). Both
    target the diagonal entry L[i, i] (hard), except for ``soft_rows``,
    increasing indices in 0..n-1, whose targets are ``targets``' entries:
    soft row u targets exp[u, j] * p[u] * g[j] over the columns j, and
    column u targets exp[i, u] * r[i] * s[u] over the rows i. The block,
    exp, must be n x n; it is not written to. ``SoftTargets`` makes every
    target a distribution, so each term takes the log-sum-exp form
    H(q, softmax(x)) = lse(x) - q . x.

    The gradient in L is e * (a_i + b_j) - H - M, with e the one
    exponential of ``exp_both_axes``, taken in place in L's buffer,
    a = weights / row sum, b = weights / column sum, H the hard targets and
    M the weighted soft ones: M = block * (alpha (x) g + r (x) beta), where
    alpha and beta are weights * p and weights * s on the soft rows and 0
    elsewhere. M is subtracted a band of rows at a time, the block's band
    times the band's rank-2 product, and H from the diagonal, so the
    block's two n x n x d products carry every target. Each soft target's
    q . x is read band by band before the exponential overwrites L, from
    the products of the block with L and the scales; M is never held whole.
    """
    n = scaled_v.shape[0]
    if t.shape != scaled_v.shape or weights.shape != (n,):
        raise InvalidInputError(
            f"shape mismatch: factors {scaled_v.shape} and {t.shape}, weights {weights.shape}")
    if targets is not None and targets.exp.shape != (n, n):
        raise InvalidInputError(f"target block {targets.exp.shape} does not fit {n} rows")
    soft_rows = increasing_rows(soft_rows, n, "soft rows")
    k = soft_rows.size
    if k:
        if targets is None:
            raise InvalidInputError(f"{k} soft rows given with no targets")
        block, g, r = targets.exp, targets.g, targets.r
        alpha, beta = np.zeros(n), np.zeros(n)
        alpha[soft_rows] = weights[soft_rows] * targets.p[soft_rows]
        beta[soft_rows] = weights[soft_rows] * targets.s[soft_rows]
        x, y = np.stack([alpha, r], axis=1), np.stack([g, beta])  # M = block * (x @ y)
    logits = scaled_v @ t.T
    bands = [slice(start, min(start + _BAND_ROWS, n)) for start in range(0, n, _BAND_ROWS)]
    top = shared_exp_top(logits)  # NaN or infinite logits fail here, before any product
    # q . x of every target, before the exponential overwrites L: L[i, i]
    # for a hard one; for a soft row u, p[u] times row u of (block * L) @ g,
    # and for a soft column, s[u] times column u of r @ (block * L).
    picked_row = np.einsum("ij,ij->i", scaled_v, t)
    picked_col = picked_row.copy()
    work = np.empty((min(n, _BAND_ROWS), n))  # one band's scratch, reused
    if k:
        soft_row, soft_col = np.empty(n), np.zeros(n)
        for band in bands:
            product = np.multiply(block[band], logits[band], out=work[: band.stop - band.start])
            soft_row[band] = product @ g
            soft_col += r[band] @ product
        picked_row[soft_rows] = targets.p[soft_rows] * soft_row[soft_rows]
        picked_col[soft_rows] = targets.s[soft_rows] * soft_col[soft_rows]
    row_sum, col_sum = exp_both_axes(logits, top)
    grad = logits  # e, which becomes the gradient in L in place
    row_lse = top + np.log(row_sum.ravel())
    col_lse = top + np.log(col_sum.ravel())
    a = weights[:, None] / row_sum
    b = weights / col_sum.ravel()
    # e * (a + b) less M in place, a band of rows at a time: a fresh n x n
    # block for a + b raised info_nce's peak from 2.7 to 3.4 n x n blocks at
    # n = 256.
    for band in bands:
        scratch = work[: band.stop - band.start]
        grad[band] *= np.add(a[band], b, out=scratch)
        if k:
            target = np.matmul(x[band], y, out=scratch)
            target *= block[band]
            grad[band] -= target
    # The hard targets, weights[i] at L[i, i] once per axis, through a
    # strided view of the block's diagonal.
    hard = 2.0 * weights
    hard[soft_rows] = 0.0
    diagonal = grad.reshape(-1)[:: n + 1]
    diagonal -= hard
    loss = float(weights @ (row_lse - picked_row)) + float(weights @ (col_lse - picked_col))
    return loss, grad @ t, grad.T @ scaled_v


def unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a 2-D array scaled to unit Euclidean norm, and the norms; a
    row whose norm is below 1e-12 or not finite raises DegenerateInputError.
    A finite row whose squares overflow takes its norm as max|x| * sqrt(sum
    (x / max|x|)^2), every other row the plain sqrt(sum x^2)."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((m * m).sum(axis=1))
    for i in np.flatnonzero(norms == np.inf):
        peak = np.abs(m[i]).max()  # inf when the row holds inf: its norm stays inf
        if peak < np.inf:
            norms[i] = peak * np.sqrt(np.square(m[i] / peak).sum())
    bad = np.flatnonzero(~((norms >= 1e-12) & (norms < np.inf)))  # NaN fails too
    if bad.size:
        raise DegenerateInputError(
            f"row {int(bad[0])} has norm {norms[bad[0]]}, outside [1e-12, inf): cannot normalize")
    return m / norms[:, None], norms


def normalize_rows_l2(m) -> np.ndarray:
    """Scale each row of a finite matrix to unit Euclidean norm (``unit_rows``)."""
    return unit_rows(as_matrix(m, "normalize input"))[0]


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

    def _chunks(self, n: int):
        """The next n words of the stream, ``RNG_CHUNK`` at a time, each
        chunk a uint64 array computed in one reused buffer: it holds until
        the next chunk is drawn."""
        size = max(1, min(n, RNG_CHUNK))
        steps = np.arange(1, size + 1, dtype=np.uint64)
        words, scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        for start in range(0, n, size):
            k = min(size, n - start)
            z, tmp = words[:k], scratch[:k]
            np.add(steps[:k], self._count, out=z)
            self._count += k
            z *= _GAMMA
            z += self.seed
            z ^= np.right_shift(z, 30, out=tmp)
            z *= _MIX1
            z ^= np.right_shift(z, 27, out=tmp)
            z *= _MIX2
            z ^= np.right_shift(z, 31, out=tmp)
            yield z

    def _words(self, n: int) -> np.ndarray:
        """The next n words of the stream as a uint64 array."""
        out = np.empty(n, dtype=np.uint64)
        for start, z in zip(range(0, n, RNG_CHUNK), self._chunks(n)):
            out[start:start + z.size] = z
        return out

    def next_u64(self) -> int:
        """The next word of the stream."""
        return int(self._words(1)[0])

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return float(self.uniforms(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        z = self._words(n)
        z >>= 11
        return z * 2.0**-53

    def normals(self, *shape: int) -> np.ndarray:
        """Standard normals via pairwise Box-Muller.

        Consumes exactly 2*ceil(size/2) words; the first of each pair is
        shifted into (0, 1] so the log is always finite. The pairs are
        transformed ``RNG_CHUNK`` words at a time in reused buffers, each
        step the same elementwise operation as on the whole array.
        """
        size = math.prod(shape)
        words = 2 * ((size + 1) // 2)
        z = np.empty(words)
        half = max(1, min(words, RNG_CHUNK) // 2)
        radii, angles, trig = np.empty(half), np.empty(half), np.empty(half)
        pos = 0
        for w in self._chunks(words):
            r, theta, c = radii[:w.size // 2], angles[:w.size // 2], trig[:w.size // 2]
            w >>= 11
            np.copyto(r, w[0::2], casting="unsafe")
            r += 1.0
            r *= 2.0**-53
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            np.copyto(theta, w[1::2], casting="unsafe")
            theta *= 2.0**-53
            theta *= 2.0 * math.pi
            out = z[pos:pos + w.size]
            np.multiply(r, np.cos(theta, out=c), out=out[0::2])
            np.multiply(r, np.sin(theta, out=c), out=out[1::2])
            pos += w.size
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
        check_ranges([("integer bound", n, 0 < n <= _MASK64, "lie in [1, 2**64)")])
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
