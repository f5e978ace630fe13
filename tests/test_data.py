import hashlib
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlab.data import (
    LATENT_SPREAD,
    PairedDataset,
    SyntheticSpec,
    generate,
    load_pairs,
    save_pairs,
    select_captions,
    take_subset,
)
from psdlab.errors import FileFormatError, InvalidInputError
from psdlab.numkit import RngState

from conftest import save_captionless_pairs


def replay_generator_internals(spec: SyntheticSpec, seed: int):
    """Re-derive the latent structure a generate(spec, RngState(seed)) call
    used, without rebuilding the dataset. Returns (means, proj_image,
    proj_text, latents). Relies on the documented RNG consumption order."""
    rng = RngState(seed)
    means = rng.normals(spec.num_classes, spec.latent_dim)
    proj_image = rng.normals(spec.latent_dim, spec.image_dim) / np.sqrt(spec.latent_dim)
    proj_text = rng.normals(spec.latent_dim, spec.text_dim) / np.sqrt(spec.latent_dim)
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.samples_per_class)
    latents = means[labels] + LATENT_SPREAD * rng.normals(spec.num_samples, spec.latent_dim)
    return means, proj_image, proj_text, latents


def caption_sources(spec: SyntheticSpec, seed: int):
    """(generate(spec, RngState(seed)), for each image the image whose latent
    made its caption block). ``spec`` must be noiseless: then caption rows
    equal their latent's projection bit for bit."""
    ds = generate(spec, RngState(seed))
    _, _, proj_text, latents = replay_generator_internals(spec, seed)
    owner = {row.tobytes(): i for i, row in enumerate(latents @ proj_text)}
    m = spec.captions_per_image
    sources = np.array([owner[ds.text_features[i * m].tobytes()] for i in range(ds.num_samples)])
    np.testing.assert_array_equal(ds.text_features, np.repeat(ds.text_features[::m], m, axis=0))
    return ds, sources


def small_spec(**kw):
    base = dict(num_classes=4, latent_dim=6, image_dim=10, text_dim=8,
                samples_per_class=25, feature_noise_sigma=0.05,
                mismatch_rate=0.0, captions_per_image=2)
    base.update(kw)
    return SyntheticSpec(**base)


class TestGenerate:
    def test_clean_dataset_has_no_corruption(self):
        ds, sources = caption_sources(small_spec(feature_noise_sigma=0.0), 1)
        assert not ds.corrupted.any()
        np.testing.assert_array_equal(sources, np.arange(100))

    def test_exact_corruption_count(self):
        ds = generate(small_spec(mismatch_rate=0.5), RngState(2))
        assert int(ds.corrupted.sum()) == 50

    def test_single_swap_rejected(self):
        # floor(0.1 * 10) == 1: the spec names the key before any draw.
        with pytest.raises(InvalidInputError, match="mismatch_rate must corrupt 0 or at least 2"):
            small_spec(num_classes=2, samples_per_class=5, mismatch_rate=0.1)

    def test_corrupted_pairs_are_cross_image(self):
        # Noise is drawn whatever sigma is, so sigma = 0 corrupts the same images.
        ds, sources = caption_sources(small_spec(feature_noise_sigma=0.0, mismatch_rate=0.3), 4)
        np.testing.assert_array_equal(sources != np.arange(100), ds.corrupted)
        np.testing.assert_array_equal(ds.corrupted[sources], ds.corrupted)

    def test_corrupted_class_mismatch_fraction(self):
        # cyclic shift pairs each corrupted image with a random other corrupted
        # image, so the caption's class differs with probability ~ 1 - 1/K
        spec = SyntheticSpec(num_classes=10, latent_dim=4, image_dim=6, text_dim=6,
                             samples_per_class=100, mismatch_rate=0.3, feature_noise_sigma=0.0)
        ds, sources = caption_sources(spec, 5)
        corrupted = np.flatnonzero(ds.corrupted)
        frac = np.mean(ds.class_labels[sources[corrupted]] != ds.class_labels[corrupted])
        assert abs(frac - 0.9) < 0.05

    def test_reproducible(self):
        a = generate(small_spec(mismatch_rate=0.2), RngState(6))
        b = generate(small_spec(mismatch_rate=0.2), RngState(6))
        np.testing.assert_array_equal(a.image_features, b.image_features)
        np.testing.assert_array_equal(a.text_features, b.text_features)
        np.testing.assert_array_equal(a.corrupted, b.corrupted)

    def test_noiseless_nearest_neighbor_recovers_pairing(self):
        # sigma = 0 and eta = 0: matching latents recovered through the
        # generating projections pins every caption to its image
        spec = small_spec(feature_noise_sigma=0.0, captions_per_image=1)
        seed = 7
        ds = generate(spec, RngState(seed))
        _, proj_image, proj_text, latents = replay_generator_internals(spec, seed)
        z_img = ds.image_features @ np.linalg.pinv(proj_image)
        z_cap = ds.text_features @ np.linalg.pinv(proj_text)
        np.testing.assert_allclose(z_img, latents, atol=1e-8)
        d2 = ((z_img[:, None, :] - z_cap[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(np.argmin(d2, axis=1), np.arange(spec.num_samples))


# sha256 of save_pairs(generate(SyntheticSpec(**kw), RngState(seed))). They
# pin the dataset's bytes: a change to the random stream, the noise or the
# file layout that moves one byte fails here.
GOLDEN_DATASETS = [
    # 2000 images x 5 captions: 480000 caption normals, many stream chunks.
    (dict(num_classes=4, samples_per_class=500, captions_per_image=5, mismatch_rate=0.2), 7,
     "16d2317c33d13ce3449b0b6a25051edf1bfb3fe13b19d1153eaa595b77617dcb"),
    # n m d = 21 * 3 * 5 = 315 caption normals, an odd count, as is every block.
    (dict(num_classes=3, samples_per_class=7, latent_dim=3, image_dim=7, text_dim=5,
          captions_per_image=3, mismatch_rate=0.3), 11,
     "2c8bff62df77b56e6775ab5b88b453c1148891f69fe902f4ebfb3a2eb7e4167b"),
    ({}, 0, "7d1bc90cfba77532a82b2fbfced99c2b5f0c0fc4c38e2742022e457a5330d97a"),
]


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dataset_bytes(ds: PairedDataset) -> int:
    return sum(a.nbytes for a in (ds.image_features, ds.text_features, ds.class_labels,
                                  ds.corrupted))


class TestGoldenBytes:
    @pytest.mark.parametrize("kw, seed, digest", GOLDEN_DATASETS)
    def test_dataset_bytes(self, tmp_path, kw, seed, digest):
        path = tmp_path / "pairs.psdd"
        assert save_pairs(generate(SyntheticSpec(**kw), RngState(seed)), path) == digest
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestPeakMemory:
    """generate and load_pairs hold what they return and working arrays of
    about one random-stream chunk each, never a second copy of the data."""

    SPEC = SyntheticSpec(samples_per_class=400, captions_per_image=5, mismatch_rate=0.2)

    def test_generate_below_twice_its_output(self):
        ds, peak = traced_peak(lambda: generate(self.SPEC, RngState(1)))
        assert peak < 2 * dataset_bytes(ds)

    def test_load_holds_the_file_once(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(self.SPEC, RngState(1)), path)
        ds, peak = traced_peak(lambda: load_pairs(path))
        assert peak < 1.25 * path.stat().st_size
        for features in (ds.image_features, ds.text_features):
            assert features.flags.writeable and features.flags.aligned


class TestSelectCaptions:
    def test_single_caption_identity(self):
        ds = generate(small_spec(captions_per_image=1), RngState(8))
        np.testing.assert_array_equal(select_captions(ds, RngState(0)), np.arange(100))

    def test_deterministic(self):
        ds = generate(small_spec(captions_per_image=5), RngState(9))
        a = select_captions(ds, RngState(10))
        b = select_captions(ds, RngState(10))
        np.testing.assert_array_equal(a, b)

    def test_uniform_over_slots(self):
        ds = generate(small_spec(num_classes=2, samples_per_class=20,
                                 captions_per_image=5), RngState(11))
        rng = RngState(12)
        counts = np.zeros(5)
        draws = 250
        for _ in range(draws):
            rows = select_captions(ds, rng)
            slots = rows - np.arange(ds.num_samples) * 5
            for s in range(5):
                counts[s] += np.count_nonzero(slots == s)
        freqs = counts / (draws * ds.num_samples)
        assert np.abs(freqs - 0.2).max() < 0.03

    def test_selected_rows_belong_to_image(self):
        ds = generate(small_spec(captions_per_image=3, mismatch_rate=0.2), RngState(13))
        rows = select_captions(ds, RngState(14))
        assert rows.dtype == np.int64  # uint64 slots plus int64 rows would be float64
        np.testing.assert_array_equal(rows // 3, np.arange(ds.num_samples))


class TestSubset:
    def test_subset_keeps_provenance(self):
        ds = generate(small_spec(mismatch_rate=0.2), RngState(15))
        keep = np.arange(0, 100, 3)
        sub = take_subset(ds, keep)
        assert sub.num_samples == keep.size
        np.testing.assert_array_equal(sub.class_labels, ds.class_labels[keep])
        np.testing.assert_array_equal(sub.corrupted, ds.corrupted[keep])
        np.testing.assert_array_equal(sub.text_features.reshape(keep.size, 2, -1),
                                      ds.text_features.reshape(100, 2, -1)[keep])

    def test_subset_shares_no_memory_with_its_source(self):
        ds = generate(small_spec(captions_per_image=2), RngState(15))
        sub = take_subset(ds, np.arange(0, 100, 3))
        for name in ("image_features", "text_features", "class_labels", "corrupted"):
            assert not np.shares_memory(getattr(sub, name), getattr(ds, name)), name


@st.composite
def pools(draw):
    """A small dataset, corrupted or not, and a list of its images to keep,
    in any order and possibly repeated."""
    n_classes, per_class = draw(st.integers(2, 3)), draw(st.integers(1, 5))
    n = n_classes * per_class
    corrupt = draw(st.sampled_from([0, *range(2, n + 1)]))
    spec = SyntheticSpec(num_classes=n_classes, samples_per_class=per_class,
                         latent_dim=draw(st.integers(1, 3)), image_dim=draw(st.integers(1, 3)),
                         text_dim=draw(st.integers(1, 3)), mismatch_rate=(corrupt + 0.5) / n
                         if corrupt < n else 1.0, captions_per_image=draw(st.integers(1, 4)))
    ds = generate(spec, RngState(draw(st.integers(0, 2**32 - 1))))
    return ds, draw(st.lists(st.integers(0, n - 1), max_size=2 * n))


@settings(max_examples=60, deadline=None)
@given(pools(), st.integers(0, 2**32 - 1))
def test_caption_blocks_survive_subset_save_and_load(pool, seed):
    ds, keep = pool
    m, text_dim = ds.captions_per_image, ds.text_features.shape[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "subset.psdd"
        save_pairs(take_subset(ds, keep), path)
        back = load_pairs(path)
    assert back.captions_per_image == m
    np.testing.assert_array_equal(back.text_features.reshape(len(keep), m, text_dim),
                                  ds.text_features.reshape(ds.num_samples, m, text_dim)[keep])
    np.testing.assert_array_equal(back.image_features, ds.image_features[keep])
    np.testing.assert_array_equal(back.class_labels, ds.class_labels[keep])
    np.testing.assert_array_equal(back.corrupted, ds.corrupted[keep])
    for pairs in (ds, back) if keep else (ds,):
        rows = select_captions(pairs, RngState(seed))
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(rows // m, np.arange(pairs.num_samples))


class TestPairsFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = generate(small_spec(mismatch_rate=0.2), RngState(16))
        path = tmp_path / "pairs.psdd"
        save_pairs(ds, path)
        back = load_pairs(path)
        np.testing.assert_array_equal(back.image_features, ds.image_features)
        np.testing.assert_array_equal(back.text_features, ds.text_features)
        assert back.captions_per_image == ds.captions_per_image
        np.testing.assert_array_equal(back.class_labels, ds.class_labels)
        np.testing.assert_array_equal(back.corrupted, ds.corrupted)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(17)), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="not a dataset, expected magic"):
            load_pairs(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(18)), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="dataset version 7, expected 2"):
            load_pairs(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(19)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FileFormatError, match="dataset payload holds"):
            load_pairs(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(20)), path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (1 << 30).to_bytes(4, "little")  # absurd n
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match=re.escape(
                "dataset header field n must lie in [0, 16777216], got 1073741824")):
            load_pairs(path)

    def test_images_without_captions(self, tmp_path):
        # m = 0 under n > 0 images used to load, and then broke every reader
        # that takes an image's first caption; without images it is empty.
        ds = generate(small_spec(), RngState(21))
        path = tmp_path / "pairs.psdd"
        save_captionless_pairs(ds, path)
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}: dataset header field m must lie in [1, 16777216], got 0")):
            load_pairs(path)
        empty = take_subset(ds, np.arange(0))
        for m in (0, 2):
            save_pairs(PairedDataset(empty.image_features, empty.text_features, m,
                                     empty.class_labels, empty.corrupted), path)
            assert load_pairs(path).captions_per_image == m

    def test_label_past_header_class_count(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        ds = generate(small_spec(), RngState(22))
        save_pairs(ds, path)
        assert ds.num_classes > 2
        raw = bytearray(path.read_bytes())
        raw[24:28] = (2).to_bytes(4, "little")  # K = 2, below the labels' range
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidInputError, match="outside the header's 2 classes"):
            load_pairs(path)

    def test_header_class_count_past_labels(self, tmp_path):
        # K = 20 over labels 0..3 used to load, and saving wrote K = 4 back.
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(24)), path)
        raw = bytearray(path.read_bytes())
        raw[24:28] = (20).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidInputError, match="header promises 20 classes, labels use 4"):
            load_pairs(path)

    def test_bytes_after_the_payload(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(25)), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FileFormatError, match="1 bytes follow the payload of the dataset"):
            load_pairs(path)

    def test_load_then_save_gives_the_same_bytes(self, tmp_path):
        path, again = tmp_path / "pairs.psdd", tmp_path / "again.psdd"
        save_pairs(generate(small_spec(mismatch_rate=0.2), RngState(26)), path)
        save_pairs(load_pairs(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_corrupted_flag_byte_past_one(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(23)), path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7  # the last image's flag
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidInputError, match="flag byte 7"):
            load_pairs(path)


class TestSpecValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(InvalidInputError):
            small_spec(mismatch_rate=1.5)
        with pytest.raises(InvalidInputError):
            small_spec(feature_noise_sigma=-0.1)
        with pytest.raises(InvalidInputError):
            small_spec(num_classes=1)

    def test_pool_past_what_a_file_holds_rejected(self):
        # Each count lies in its range, their product n = 2^24 + 2 does not.
        with pytest.raises(InvalidInputError, match=re.escape(
                "num_classes * samples_per_class must lie in [1, 16777216], got 16777218")):
            SyntheticSpec(num_classes=2, samples_per_class=2**23 + 1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_noise_sigma(self, sigma):
        message = f"feature_noise_sigma must lie in [0, 1e307], got {sigma}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            small_spec(feature_noise_sigma=sigma)

    def test_noise_at_its_bound_keeps_every_feature_finite(self):
        # The largest normal the stream can draw, times the bound, is finite.
        assert 1e307 * math.sqrt(-2.0 * math.log(2.0**-53)) < sys.float_info.max
        ds = generate(small_spec(feature_noise_sigma=1e307), RngState(0))
        for features in (ds.image_features, ds.text_features):
            assert np.isfinite(features).all() and np.abs(features).max() > 1e307

    @pytest.mark.parametrize("rows, m", [(199, 2), (201, 2), (200, 1), (200, 3)])
    def test_text_rows_must_number_n_times_m(self, rows, m):
        ds = generate(small_spec(), RngState(21))  # 100 images x 2 captions
        text = np.resize(ds.text_features, (rows, ds.text_features.shape[1]))
        with pytest.raises(InvalidInputError, match=re.escape(
                f"text rows must number n*m with m >= 1 when n > 0, got {rows} rows for "
                f"n=100, m={m}")):
            PairedDataset(ds.image_features, text, m, ds.class_labels, ds.corrupted)

    def test_images_need_a_caption_each(self):
        # Zero text rows are n*m for m = 0; without images it is the empty dataset.
        ds = generate(small_spec(), RngState(21))
        with pytest.raises(InvalidInputError, match=re.escape(
                "text rows must number n*m with m >= 1 when n > 0, got 0 rows for n=100, m=0")):
            PairedDataset(ds.image_features, ds.text_features[:0], 0, ds.class_labels,
                          ds.corrupted)
        empty = take_subset(ds, np.arange(0))
        assert PairedDataset(empty.image_features, empty.text_features, 0, empty.class_labels,
                             empty.corrupted).num_samples == 0
