"""Synthetic noisy image-text pair generation and binary dataset files.

Each class draws a latent mean; each image draws a latent around its class
mean; image and caption features are independent random projections of the
same latent plus independent feature noise, which creates genuine cross-modal
many-to-many similarity structure. Corruption moves whole caption blocks
among a chosen subset of images via a cyclic shift, so every corrupted image
carries captions generated for a different image (never its own) and the
corrupted count is exact.

Dataset file format (PSDD, version 2, all little-endian):

    bytes 0..3   magic b"PSDD"
    u32          format version (2)
    u32          n (images), m (captions per image), image_dim, text_dim, K
    f64          image features, n * image_dim row-major
    f64          text features, (n*m) * text_dim row-major; image i's
                 captions are rows i*m .. i*m+m-1
    u32          class labels, n, the largest K - 1 (K = 0 when n = 0)
    u8           corrupted flags, n, each 0 or 1

A file holds exactly these bytes, so loading and saving it again gives the
same bytes. ``errors.Framing`` checks the framing: magic, version, lengths
and header counts in [0, 2^24], m at least 1 when n is not 0. The loader
checks the content: K, the flag bytes, and what ``PairedDataset`` checks
(finite features); every content fault names the file. A version-1 file (it
held a table of each image's caption rows) is refused: generate it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_COUNT, Framing, InvalidInputError, check_ranges, within
from .numkit import RNG_CHUNK, RngState, as_matrix

_FRAMING = Framing("dataset", b"PSDD", 2, "IIIII", ("<f8", "<f8", "<u4", "<u1"))

# Latent geometry constants: class means are standard Gaussian, instances
# spread around them at this scale. Feature noise is the spec'd sigma knob.
LATENT_SPREAD = 0.5


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for one synthetic paired dataset. A bad value raises
    InvalidInputError naming its key."""

    num_classes: int = 10
    latent_dim: int = 16
    image_dim: int = 64
    text_dim: int = 48
    samples_per_class: int = 200
    feature_noise_sigma: float = 0.05
    mismatch_rate: float = 0.0
    captions_per_image: int = 1

    def __post_init__(self):
        count = f"[1, {MAX_COUNT}]"
        corrupt = self.mismatch_rate * self.num_samples
        # No normal the stream draws exceeds sqrt(-2 ln 2^-53) ~ 8.57 in size,
        # so noise at sigma <= 1e307 stays under 8.6e307 and every feature
        # finite (the largest double is 1.8e308).
        check_ranges((*(within(key, getattr(self, key), interval) for key, interval in (
            ("num_classes", f"[2, {MAX_COUNT}]"), ("latent_dim", count), ("image_dim", count),
            ("text_dim", count), ("samples_per_class", count),
            ("feature_noise_sigma", "[0, 1e307]"), ("mismatch_rate", "[0, 1]"),
            ("captions_per_image", count))),
            # A PSDD header holds n up to MAX_COUNT: a larger pool could not be read back.
            within("num_classes * samples_per_class", self.num_samples, count),
            ("mismatch_rate", self.mismatch_rate, corrupt < 1 or corrupt >= 2,
             f"corrupt 0 or at least 2 of the {self.num_samples} images (one cannot swap captions "
             "alone)")))

    @property
    def num_samples(self) -> int:
        return self.num_classes * self.samples_per_class


@dataclass
class PairedDataset:
    """Images, their caption blocks, and ground-truth provenance.

    Image i owns the ``captions_per_image`` (m) text rows i*m .. i*m+m-1, so
    the text rows number exactly n*m, and m is at least 1 when n > 0."""

    image_features: np.ndarray      # (n, image_dim)
    text_features: np.ndarray       # (n*m, text_dim)
    captions_per_image: int         # m
    class_labels: np.ndarray        # (n,)
    corrupted: np.ndarray           # (n,) bool, captions came from another image

    def __post_init__(self):
        self.image_features = as_matrix(self.image_features, "image features")
        self.text_features = as_matrix(self.text_features, "text features")
        self.class_labels = np.asarray(self.class_labels, dtype=np.int64)
        self.corrupted = np.asarray(self.corrupted, dtype=bool)
        n, m = self.num_samples, self.captions_per_image
        if m < min(n, 1) or self.text_features.shape[0] != n * m:
            raise InvalidInputError(f"text rows must number n*m with m >= 1 when n > 0, got "
                                    f"{self.text_features.shape[0]} rows for n={n}, m={m}")
        if self.class_labels.shape != (n,) or self.corrupted.shape != (n,):
            raise InvalidInputError("labels and corruption flags must have one entry per image")

    @property
    def num_samples(self) -> int:
        return self.image_features.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.class_labels.max()) + 1 if self.class_labels.size else 0


def _plus_noise(product: np.ndarray, sigma: float, rng: RngState) -> np.ndarray:
    """``product + sigma * rng.normals(*product.shape)``, in place: the same
    two roundings and the same normals, drawn an even count of rows at a
    time (about one ``RNG_CHUNK``), so no full-size noise array is held."""
    n, d = product.shape
    rows = 2 * max(1, RNG_CHUNK // (2 * d))
    for start in range(0, n, rows):
        noise = rng.normals(min(rows, n - start), d)
        noise *= sigma
        product[start:start + rows] += noise
    return product


def generate(spec: SyntheticSpec, rng: RngState) -> PairedDataset:
    """Sample one dataset. RNG consumption order (part of the contract, the
    generator-replay tests depend on it):

        1. class means, K x latent_dim
        2. image projection, latent_dim x image_dim
        3. text projection, latent_dim x text_dim
        4. per-image latents, n x latent_dim
        5. image feature noise, n x image_dim
        6. caption feature noise, (n*m) x text_dim
        7. corruption permutation of 0..n-1

    Corruption: the first floor(eta*n) entries of the permutation form the
    corrupted set (``SyntheticSpec`` holds their count away from 1); caption
    blocks rotate one position along that list, so every corrupted image owns
    captions generated for another corrupted image.
    """
    n = spec.num_samples
    m = spec.captions_per_image
    n_corrupt = math.floor(spec.mismatch_rate * n)

    means = rng.normals(spec.num_classes, spec.latent_dim)
    proj_image = rng.normals(spec.latent_dim, spec.image_dim) / np.sqrt(spec.latent_dim)
    proj_text = rng.normals(spec.latent_dim, spec.text_dim) / np.sqrt(spec.latent_dim)

    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.samples_per_class)
    latents = means[labels] + LATENT_SPREAD * rng.normals(n, spec.latent_dim)

    sigma = spec.feature_noise_sigma
    image_features = _plus_noise(latents @ proj_image, sigma, rng)
    text_features = latents @ proj_text
    if m > 1:  # np.repeat copies even when m == 1
        text_features = np.repeat(text_features, m, axis=0)
    text_features = _plus_noise(text_features, sigma, rng)

    corrupted = np.zeros(n, dtype=bool)
    perm = rng.permutation(n)
    if n_corrupt >= 2:
        cycle = perm[:n_corrupt]
        blocks = text_features.reshape(n, m * spec.text_dim)  # a view: image i's captions
        blocks[cycle] = blocks[np.roll(cycle, -1)]  # image cycle[j] takes those of cycle[j+1]
        corrupted[cycle] = True

    return PairedDataset(image_features=image_features, text_features=text_features,
                         captions_per_image=m, class_labels=labels, corrupted=corrupted)


def select_captions(ds: PairedDataset, rng: RngState) -> np.ndarray:
    """One caption row per image, uniform over its own block: i*m + slot."""
    m = ds.captions_per_image
    slots = rng.integers(m, ds.num_samples).astype(np.int64)  # uint64 + int64 would be float
    return np.arange(ds.num_samples, dtype=np.int64) * m + slots


def take_subset(ds: PairedDataset, image_idx: np.ndarray) -> PairedDataset:
    """New dataset holding only the given images and the captions they own."""
    image_idx = np.asarray(image_idx, dtype=np.int64)
    m = ds.captions_per_image
    return PairedDataset(
        image_features=ds.image_features[image_idx],
        text_features=ds.text_features[(image_idx[:, None] * m + np.arange(m)).ravel()],
        captions_per_image=m,
        class_labels=ds.class_labels[image_idx],
        corrupted=ds.corrupted[image_idx],
    )


def save_pairs(ds: PairedDataset, path) -> str:
    """Write ``ds`` to ``path`` as a PSDD file; return the file's hex sha256."""
    header = (ds.num_samples, ds.captions_per_image, ds.image_features.shape[1],
              ds.text_features.shape[1], ds.num_classes)
    return _FRAMING.write(path, header, (ds.image_features, ds.text_features, ds.class_labels,
                                         ds.corrupted))


def load_pairs(path) -> PairedDataset:
    raw, (n, m, image_dim, text_dim, num_classes) = _FRAMING.read(path)
    _FRAMING.check_counts(path, 0, n=n, m=m, image_dim=image_dim, text_dim=text_dim,
                          num_classes=num_classes)
    _FRAMING.check_counts(path, min(n, 1), m=m)  # every image owns a caption
    image_features, text_features, labels, flags = _FRAMING.payload(
        raw, path, (n * image_dim, n * m * text_dim, n, n))
    try:  # every fault of the content names the file
        classes = int(labels.max()) + 1 if n else 0
        if classes > num_classes:
            raise InvalidInputError(
                f"class label {classes - 1} outside the header's {num_classes} classes")
        if classes < num_classes:
            raise InvalidInputError(f"header promises {num_classes} classes, labels use {classes}")
        if n and flags.max() > 1:
            raise InvalidInputError(f"corrupted flag byte {flags.max()}, expected 0 or 1")
        return PairedDataset(image_features=image_features.reshape(n, image_dim),
                             text_features=text_features.reshape(n * m, text_dim),
                             captions_per_image=m, class_labels=labels, corrupted=flags)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
