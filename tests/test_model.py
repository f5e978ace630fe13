import numpy as np
import pytest

from psdlab.errors import (
    BadMagicError,
    DegenerateInputError,
    InvalidInputError,
    TruncatedFileError,
    VersionMismatchError,
)
from psdlab.gradcheck import central_difference, check_encoder_backward, max_rel_error
from psdlab.model import (
    EncoderSpec,
    ParamSet,
    encode,
    encode_backward,
    init_params,
    load_params,
    save_params,
)
from psdlab.numkit import RngState


class TestSpecAndParams:
    def test_linear_spec_shapes(self):
        spec = EncoderSpec(input_dim=8, hidden_dims=(), embed_dim=4)
        params = init_params(spec, RngState(0))
        assert len(params.weights) == 1 and len(params.biases) == 1
        assert params.weights[0].shape == (8, 4)
        assert params.biases[0].shape == (4,)

    def test_init_deterministic(self):
        spec = EncoderSpec(input_dim=6, hidden_dims=(5,), embed_dim=3)
        a = init_params(spec, RngState(77)).flatten()
        b = init_params(spec, RngState(77)).flatten()
        np.testing.assert_array_equal(a, b)

    def test_init_std_matches_fan_in(self):
        spec = EncoderSpec(input_dim=256, hidden_dims=(), embed_dim=64)
        w = init_params(spec, RngState(5)).weights[0]
        expected = 1.0 / np.sqrt(256)
        assert abs(w.std() / expected - 1.0) < 0.2
        assert abs(w.mean()) < 0.01

    def test_flatten_unflatten_roundtrip(self):
        spec = EncoderSpec(input_dim=7, hidden_dims=(4, 3), embed_dim=5)
        params = init_params(spec, RngState(9))
        vec = params.flatten()
        assert vec.shape == (spec.num_params,)
        back = ParamSet.unflatten(spec, vec)
        for w1, w2 in zip(params.weights, back.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(params.biases, back.biases):
            np.testing.assert_array_equal(b1, b2)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidInputError):
            EncoderSpec(input_dim=0, hidden_dims=(), embed_dim=4)
        with pytest.raises(InvalidInputError):
            EncoderSpec(input_dim=3, hidden_dims=(), embed_dim=4, activation="gelu")


class TestEncode:
    def test_identity_weights_normalize_only(self):
        spec = EncoderSpec(input_dim=2, hidden_dims=(), embed_dim=2)
        params = ParamSet(spec=spec, weights=[np.eye(2)], biases=[np.zeros(2)])
        emb, _ = encode(params, [[3.0, 4.0]])
        np.testing.assert_allclose(emb, [[0.6, 0.8]], atol=1e-15)

    def test_identical_rows_identical_embeddings(self):
        spec = EncoderSpec(input_dim=5, hidden_dims=(4,), embed_dim=3)
        params = init_params(spec, RngState(2))
        x = np.tile(RngState(3).normals(1, 5), (4, 1))
        emb, _ = encode(params, x)
        for row in emb[1:]:
            np.testing.assert_array_equal(row, emb[0])

    def test_unit_norm_postcondition(self):
        spec = EncoderSpec(input_dim=6, hidden_dims=(8, 8), embed_dim=4)
        params = init_params(spec, RngState(4))
        emb, _ = encode(params, RngState(6).normals(50, 6))
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)

    def test_zero_vector_rejected(self):
        spec = EncoderSpec(input_dim=3, hidden_dims=(), embed_dim=3)
        params = ParamSet(spec=spec, weights=[np.eye(3)], biases=[np.zeros(3)])
        with pytest.raises(DegenerateInputError, match="row 0"):
            encode(params, [[0.0, 0.0, 0.0]])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_row_rejected(self):
        # Row 1 maps to 1e200, whose square overflows: its norm is inf, and
        # dividing by it would return a zero embedding. Row 0 maps to 1e140.
        spec = EncoderSpec(input_dim=3, hidden_dims=(), embed_dim=3)
        params = ParamSet(spec=spec, weights=[1e200 * np.eye(3)], biases=[np.zeros(3)])
        with pytest.raises(DegenerateInputError, match="row 1 has norm inf"):
            encode(params, [[1e-60, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_input_width_checked(self):
        spec = EncoderSpec(input_dim=3, hidden_dims=(), embed_dim=2)
        params = init_params(spec, RngState(0))
        with pytest.raises(InvalidInputError):
            encode(params, np.ones((2, 4)))

    def test_linear_encoder_scale_invariance(self):
        spec = EncoderSpec(input_dim=5, hidden_dims=(), embed_dim=4)
        params = init_params(spec, RngState(8))
        x = RngState(9).normals(3, 5)
        a, _ = encode(params, x)
        b, _ = encode(params, 37.5 * x)
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestEncodeBackward:
    def test_zero_upstream_zero_grads(self):
        spec = EncoderSpec(input_dim=4, hidden_dims=(3,), embed_dim=2)
        params = init_params(spec, RngState(1))
        _, cache = encode(params, RngState(2).normals(5, 4))
        grads, dx = encode_backward(cache, np.zeros((5, 2)))
        assert np.all(grads.flatten() == 0.0)
        assert np.all(dx == 0.0)

    def test_radial_upstream_killed_by_normalization(self):
        spec = EncoderSpec(input_dim=4, hidden_dims=(), embed_dim=3)
        params = init_params(spec, RngState(3))
        emb, cache = encode(params, RngState(4).normals(1, 4))
        grads, dx = encode_backward(cache, 2.5 * emb)  # parallel to the embedding
        np.testing.assert_allclose(dx, 0.0, atol=1e-14)
        np.testing.assert_allclose(grads.flatten(), 0.0, atol=1e-14)

    def test_finite_differences_random_mlp(self, rng):
        spec = EncoderSpec(input_dim=4, hidden_dims=(5, 3), embed_dim=4, activation="tanh")
        params = init_params(spec, RngState(10))
        x = rng.normals(3, 4)
        upstream = rng.normals(3, 4)
        _, cache = encode(params, x)
        grads, dx = encode_backward(cache, upstream)
        analytic = np.concatenate([grads.flatten(), dx.ravel()])

        def probe(vec):
            p = ParamSet.unflatten(spec, vec[: spec.num_params])
            emb, _ = encode(p, vec[spec.num_params:].reshape(3, 4))
            return float((upstream * emb).sum())

        numeric = central_difference(probe, np.concatenate([params.flatten(), x.ravel()]))
        assert max_rel_error(analytic, numeric) < 1e-5

    def test_shape_mismatch_rejected(self):
        spec = EncoderSpec(input_dim=4, hidden_dims=(), embed_dim=2)
        params = init_params(spec, RngState(1))
        _, cache = encode(params, RngState(2).normals(3, 4))
        with pytest.raises(InvalidInputError):
            encode_backward(cache, np.zeros((3, 5)))

    def test_harness_over_specs_and_activations(self):
        report = check_encoder_backward(seed=123, instances=50)
        assert report.passed, f"worst rel err {report.worst_rel_error}"


class TestParamSerialization:
    def _params(self):
        spec = EncoderSpec(input_dim=5, hidden_dims=(4,), embed_dim=3, activation="relu")
        return init_params(spec, RngState(21))

    def test_roundtrip(self, tmp_path):
        params = self._params()
        path = tmp_path / "enc.psdw"
        save_params(params, path)
        back = load_params(path)
        assert back.spec == params.spec
        np.testing.assert_array_equal(back.flatten(), params.flatten())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "enc.psdw"
        save_params(self._params(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_params(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "enc.psdw"
        save_params(self._params(), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (999).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_params(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "enc.psdw"
        save_params(self._params(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(TruncatedFileError):
            load_params(path)
