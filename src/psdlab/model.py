"""Small MLP encoders with unit-norm outputs and hand-derived backprop.

These stand in for large vision/text backbones at desk scale: the training
mechanics being verified are architecture-agnostic, and exact analytic
gradients (checkable by finite differences) matter more here than capacity.

Parameter file format (PSDW, version 1, all little-endian):

    bytes 0..3   magic b"PSDW"
    u32          format version (1)
    u32          input_dim
    u32          embed_dim
    u32          activation (0 = tanh, 1 = relu)
    u32          number of hidden layers H
    u32 * H      hidden layer widths
    f64 * P      parameters in flattening order

Nothing follows, so a load-save round trip is byte-exact. ``errors.Framing``
checks the framing: magic, version, lengths; the loader checks the content:
the dimensions, the activation code and the hidden widths.

Flattening order: for each layer in input-to-output order, the weight matrix
row-major then the bias vector. ``unflatten`` lays the layers over a flat
vector as views, so flatten -> unflatten is the identity and writes to the
vector show through the ParamSet; the trainer keeps its parameters and
gradients as one flat vector each this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionOverflowError, Framing, InvalidInputError
from .numkit import RngState, as_matrix, unit_rows

_FRAMING = Framing("parameter file", b"PSDW", 1, "IIII")
_ACTIVATIONS = ("tanh", "relu")
_MAX_DIM = 1 << 24


@dataclass(frozen=True)
class EncoderSpec:
    """Layer layout of one encoder; empty hidden_dims means a linear map."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    embed_dim: int
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.embed_dim)
        if any(d < 1 for d in dims):
            raise InvalidInputError(f"all encoder dimensions must be >= 1, got {dims}")
        if any(d > _MAX_DIM for d in dims):
            raise InvalidInputError(f"encoder dimension exceeds {_MAX_DIM}")
        if self.activation not in _ACTIVATIONS:
            raise InvalidInputError(
                f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden_dims, self.embed_dim)
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    @property
    def num_params(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_dims)


@dataclass
class ParamSet:
    """Per-layer weights/biases with a deterministic flattening order."""

    spec: EncoderSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    @classmethod
    def unflatten(cls, spec: EncoderSpec, vec: np.ndarray) -> "ParamSet":
        """Layers as views into ``vec`` (into a float64 copy of it when it
        has another dtype): no layer is copied."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (spec.num_params,):
            raise InvalidInputError(
                f"expected flat vector of length {spec.num_params}, got {vec.shape}")
        weights, biases, off = [], [], 0
        for fan_in, fan_out in spec.layer_dims:
            weights.append(vec[off:off + fan_in * fan_out].reshape(fan_in, fan_out))
            off += fan_in * fan_out
            biases.append(vec[off:off + fan_out])
            off += fan_out
        return cls(spec=spec, weights=weights, biases=biases)


@dataclass
class ForwardCache:
    """Everything needed to replay one forward pass exactly in reverse."""

    params: ParamSet
    x: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    norms: np.ndarray
    embeddings: np.ndarray


def init_params(spec: EncoderSpec, rng: RngState) -> ParamSet:
    """Zero-mean Gaussian weights with std 1/sqrt(fan_in); zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_dims:
        weights.append(rng.normals(fan_in, fan_out) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return ParamSet(spec=spec, weights=weights, biases=biases)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def encode(params: ParamSet, x) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass: hidden layers with activation, linear output layer,
    then row-wise l2 normalization (``unit_rows``, which rejects a row whose
    norm is below 1e-12 or not finite). Output rows have unit norm."""
    spec = params.spec
    x = as_matrix(x, "encoder input")
    if x.shape[1] != spec.input_dim:
        raise InvalidInputError(
            f"input has {x.shape[1]} columns, encoder expects {spec.input_dim}")
    a = x
    pre_acts, acts = [], []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w
        z += b
        if i < len(params.weights) - 1:
            pre_acts.append(z)
            a = _activate(z, spec.activation)
            acts.append(a)
        else:
            pre_norm = z
    emb, norms = unit_rows(pre_norm)
    cache = ForwardCache(params=params, x=x, pre_activations=pre_acts,
                         activations=acts, norms=norms, embeddings=emb)
    return emb, cache


def encode_backward(cache: ForwardCache, d_emb, out: ParamSet | None = None
                    ) -> tuple[ParamSet, np.ndarray]:
    """Backprop d_emb through the normalization and every layer.

    The normalization Jacobian (I - e e^T)/||z|| projects out each row's
    radial direction before the chain continues into the MLP. Returns the
    parameter gradients and d_z0, the gradient in the first layer's
    pre-activation z0 = x @ W0 + b0; the input gradient is d_z0 @ W0^T,
    which is left to a caller that needs it. The gradients are written into
    ``out`` (numpy's idiom; e.g. views into a flat buffer) and it is
    returned, or into a new ParamSet when ``out`` is None.
    """
    params = cache.params
    spec = params.spec
    d_emb = as_matrix(d_emb, "upstream gradient")
    if d_emb.shape != cache.embeddings.shape:
        raise InvalidInputError(
            f"upstream gradient shape {d_emb.shape} does not match "
            f"embeddings {cache.embeddings.shape}")
    if out is None:
        out = ParamSet.unflatten(spec, np.zeros(spec.num_params))
    elif out.spec != spec:
        raise InvalidInputError("gradient ParamSet has another encoder spec")
    e = cache.embeddings
    radial = (d_emb * e).sum(axis=1, keepdims=True)
    delta = (d_emb - e * radial) / cache.norms[:, None]

    for i in range(len(params.weights) - 1, -1, -1):
        a_prev = cache.x if i == 0 else cache.activations[i - 1]
        np.matmul(a_prev.T, delta, out=out.weights[i])
        delta.sum(axis=0, out=out.biases[i])
        if i > 0:
            delta = delta @ params.weights[i].T
            if spec.activation == "tanh":
                delta *= 1.0 - cache.activations[i - 1] ** 2
            else:
                delta *= cache.pre_activations[i - 1] > 0.0
    return out, delta


def save_params(params: ParamSet, path) -> None:
    spec = params.spec
    _FRAMING.write(path, (spec.input_dim, spec.embed_dim, _ACTIVATIONS.index(spec.activation),
                          len(spec.hidden_dims)),
                   (np.array(spec.hidden_dims, "<u4"), params.flatten().astype("<f8")))


def load_params(path) -> ParamSet:
    raw, (input_dim, embed_dim, act_idx, n_hidden) = _FRAMING.read(path)
    if max(input_dim, embed_dim, n_hidden) > _MAX_DIM:
        raise DimensionOverflowError(f"{path}: header dimension exceeds {_MAX_DIM}")
    if act_idx >= len(_ACTIVATIONS):
        raise InvalidInputError(f"{path}: unknown activation code {act_idx}")
    off = _FRAMING.header.size
    _FRAMING.check_end(raw, path, off + 4 * n_hidden, exact=False)
    hidden = np.frombuffer(raw, "<u4", n_hidden, off)
    if n_hidden and hidden.max() > _MAX_DIM:
        raise DimensionOverflowError(f"{path}: hidden width exceeds {_MAX_DIM}")
    off += 4 * n_hidden
    spec = EncoderSpec(input_dim=input_dim, hidden_dims=hidden,
                       embed_dim=embed_dim, activation=_ACTIVATIONS[act_idx])
    _FRAMING.check_end(raw, path, off + spec.num_params * 8)
    vec = np.frombuffer(raw, dtype="<f8", count=spec.num_params, offset=off).astype(np.float64)
    return ParamSet.unflatten(spec, vec)
