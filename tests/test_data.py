import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

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


def small_spec(**kw):
    base = dict(num_classes=4, latent_dim=6, image_dim=10, text_dim=8,
                samples_per_class=25, feature_noise_sigma=0.05,
                mismatch_rate=0.0, captions_per_image=2)
    base.update(kw)
    return SyntheticSpec(**base)


class TestGenerate:
    def test_clean_dataset_has_no_corruption(self):
        ds = generate(small_spec(), RngState(1))
        assert not ds.corrupted.any()
        np.testing.assert_array_equal(ds.pairing[:, 0], np.arange(100) * 2)

    def test_exact_corruption_count(self):
        ds = generate(small_spec(mismatch_rate=0.5), RngState(2))
        assert int(ds.corrupted.sum()) == 50

    def test_single_swap_rejected(self):
        # floor(0.1 * 10) == 1: the spec names the key before any draw.
        with pytest.raises(InvalidInputError, match="mismatch_rate must corrupt 0 or at least 2"):
            small_spec(num_classes=2, samples_per_class=5, mismatch_rate=0.1)

    def test_corrupted_pairs_are_cross_image(self):
        ds = generate(small_spec(mismatch_rate=0.3), RngState(4))
        own = np.arange(100)[:, None] * 2 + np.arange(2)[None, :]
        swapped = (ds.pairing != own).any(axis=1)
        np.testing.assert_array_equal(swapped, ds.corrupted)

    def test_corrupted_class_mismatch_fraction(self):
        # cyclic shift pairs each corrupted image with a random other corrupted
        # image, so the caption's class differs with probability ~ 1 - 1/K
        spec = SyntheticSpec(num_classes=10, latent_dim=4, image_dim=6, text_dim=6,
                             samples_per_class=100, mismatch_rate=0.3)
        ds = generate(spec, RngState(5))
        corrupted = np.flatnonzero(ds.corrupted)
        source_image = ds.pairing[corrupted, 0]  # m == 1: caption row == source image
        frac = np.mean(ds.class_labels[source_image] != ds.class_labels[corrupted])
        assert abs(frac - 0.9) < 0.05

    def test_reproducible(self):
        a = generate(small_spec(mismatch_rate=0.2), RngState(6))
        b = generate(small_spec(mismatch_rate=0.2), RngState(6))
        np.testing.assert_array_equal(a.image_features, b.image_features)
        np.testing.assert_array_equal(a.text_features, b.text_features)
        np.testing.assert_array_equal(a.pairing, b.pairing)
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
     "f7334bb6c5cc2753124cb2ec99f280185d7694c06782c6ea080b45351a17c720"),
    # n m d = 21 * 3 * 5 = 315 caption normals, an odd count, as is every block.
    (dict(num_classes=3, samples_per_class=7, latent_dim=3, image_dim=7, text_dim=5,
          captions_per_image=3, mismatch_rate=0.3), 11,
     "b9818153ef74b69ad29aeffc2461a2d415f4ca638a88d67c2817190d7234bd02"),
    ({}, 0, "ebacb3b89c74aa4c8a5c9e12134fbea1e5b52c8f86bf01ddc902a25db593c9ba"),
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
    return sum(a.nbytes for a in (ds.image_features, ds.text_features, ds.pairing,
                                  ds.class_labels, ds.corrupted))


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
            slots = rows - ds.pairing[:, 0]
            for s in range(5):
                counts[s] += np.count_nonzero(slots == s)
        freqs = counts / (draws * ds.num_samples)
        assert np.abs(freqs - 0.2).max() < 0.03

    def test_selected_rows_belong_to_image(self):
        ds = generate(small_spec(captions_per_image=3, mismatch_rate=0.2), RngState(13))
        rows = select_captions(ds, RngState(14))
        for i, row in enumerate(rows):
            assert row in ds.pairing[i]


class TestSubset:
    def test_subset_keeps_provenance(self):
        ds = generate(small_spec(mismatch_rate=0.2), RngState(15))
        keep = np.arange(0, 100, 3)
        sub = take_subset(ds, keep)
        assert sub.num_samples == keep.size
        np.testing.assert_array_equal(sub.class_labels, ds.class_labels[keep])
        np.testing.assert_array_equal(sub.corrupted, ds.corrupted[keep])
        np.testing.assert_array_equal(
            sub.text_features[sub.pairing[0]], ds.text_features[ds.pairing[keep[0]]])

    def test_subset_shares_no_memory_with_its_source(self):
        ds = generate(small_spec(captions_per_image=2), RngState(15))
        sub = take_subset(ds, np.arange(0, 100, 3))
        for name in ("image_features", "text_features", "pairing", "class_labels", "corrupted"):
            assert not np.shares_memory(getattr(sub, name), getattr(ds, name)), name


class TestPairsFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = generate(small_spec(mismatch_rate=0.2), RngState(16))
        path = tmp_path / "pairs.psdd"
        save_pairs(ds, path)
        back = load_pairs(path)
        np.testing.assert_array_equal(back.image_features, ds.image_features)
        np.testing.assert_array_equal(back.text_features, ds.text_features)
        np.testing.assert_array_equal(back.pairing, ds.pairing)
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
        with pytest.raises(FileFormatError, match="dataset version 7, expected 1"):
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
            save_pairs(PairedDataset(empty.image_features, empty.text_features,
                                     empty.pairing.reshape(0, m), empty.class_labels,
                                     empty.corrupted), path)
            assert load_pairs(path).pairing.shape == (0, m)

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

    def test_round_trip_of_a_fortran_order_pairing(self, tmp_path):
        # The pairing table is written row-major whatever its memory layout.
        ds = generate(small_spec(captions_per_image=3), RngState(27))
        ds.pairing = np.asfortranarray(ds.pairing)
        path = tmp_path / "pairs.psdd"
        save_pairs(ds, path)
        np.testing.assert_array_equal(load_pairs(path).pairing, ds.pairing)

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

    def test_pairing_cover_enforced(self):
        ds = generate(small_spec(), RngState(21))
        bad = ds.pairing.copy()
        bad[0, 0] = bad[1, 0]
        with pytest.raises(InvalidInputError):
            PairedDataset(image_features=ds.image_features, text_features=ds.text_features,
                          pairing=bad, class_labels=ds.class_labels, corrupted=ds.corrupted)

    def test_images_need_a_caption_each(self):
        # An (n, 0) pairing covers zero caption rows, so the cover check
        # passes it; without images it is the empty dataset.
        ds = generate(small_spec(), RngState(21))
        with pytest.raises(InvalidInputError, match=re.escape(
                "pairing must be (n, m) with m >= 1 when n > 0, got shape (100, 0)")):
            PairedDataset(ds.image_features, ds.text_features[:0], ds.pairing[:, :0],
                          ds.class_labels, ds.corrupted)
        empty = take_subset(ds, np.arange(0))
        assert PairedDataset(empty.image_features, empty.text_features,
                             empty.pairing.reshape(0, 0), empty.class_labels,
                             empty.corrupted).num_samples == 0
