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
from psdlab.errors import (
    BadMagicError,
    DimensionOverflowError,
    InvalidInputError,
    TrailingBytesError,
    TruncatedFileError,
    VersionMismatchError,
)
from psdlab.numkit import RngState


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
        spec = small_spec(num_classes=2, samples_per_class=5, mismatch_rate=0.1)
        with pytest.raises(InvalidInputError):
            generate(spec, RngState(3))  # floor(0.1 * 10) == 1

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
        with pytest.raises(BadMagicError):
            load_pairs(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(18)), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_pairs(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(19)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedFileError):
            load_pairs(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "pairs.psdd"
        save_pairs(generate(small_spec(), RngState(20)), path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (1 << 30).to_bytes(4, "little")  # absurd n
        path.write_bytes(bytes(raw))
        with pytest.raises(DimensionOverflowError):
            load_pairs(path)

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
        with pytest.raises(TrailingBytesError, match="1 bytes follow"):
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

    def test_pairing_cover_enforced(self):
        ds = generate(small_spec(), RngState(21))
        bad = ds.pairing.copy()
        bad[0, 0] = bad[1, 0]
        with pytest.raises(InvalidInputError):
            PairedDataset(image_features=ds.image_features, text_features=ds.text_features,
                          pairing=bad, class_labels=ds.class_labels, corrupted=ds.corrupted)
