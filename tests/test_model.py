import re

import numpy as np
import pytest

from psdlab.errors import DegenerateInputError, FileFormatError, InvalidInputError
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

    def test_unflatten_returns_views_that_write_through(self):
        spec = EncoderSpec(input_dim=3, hidden_dims=(2,), embed_dim=2)
        vec = init_params(spec, RngState(4)).flatten()
        params = ParamSet.unflatten(spec, vec)
        for layer in (*params.weights, *params.biases):
            assert np.shares_memory(layer, vec)
        vec *= 2.0
        np.testing.assert_array_equal(params.flatten(), vec)
        params.weights[1][0, 1] = 7.0
        params.biases[0][1] = -3.0
        assert vec[3 * 2 + 2 + 1] == 7.0 and vec[3 * 2 + 1] == -3.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidInputError):
            EncoderSpec(input_dim=0, hidden_dims=(), embed_dim=4)
        with pytest.raises(InvalidInputError):
            EncoderSpec(input_dim=3, hidden_dims=(0,), embed_dim=4)


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
        grads, d_z0 = encode_backward(cache, np.zeros((5, 2)))
        assert np.all(grads.flatten() == 0.0)
        assert np.all(d_z0 == 0.0)

    def test_radial_upstream_killed_by_normalization(self):
        spec = EncoderSpec(input_dim=4, hidden_dims=(), embed_dim=3)
        params = init_params(spec, RngState(3))
        emb, cache = encode(params, RngState(4).normals(1, 4))
        grads, d_z0 = encode_backward(cache, 2.5 * emb)  # parallel to the embedding
        np.testing.assert_allclose(d_z0, 0.0, atol=1e-14)
        np.testing.assert_allclose(grads.flatten(), 0.0, atol=1e-14)

    def test_finite_differences_random_mlp(self, rng):
        spec = EncoderSpec(input_dim=4, hidden_dims=(5, 3), embed_dim=4)
        params = init_params(spec, RngState(10))
        x = rng.normals(3, 4)
        upstream = rng.normals(3, 4)
        _, cache = encode(params, x)
        grads, d_z0 = encode_backward(cache, upstream)
        dx = d_z0 @ params.weights[0].T
        analytic = np.concatenate([grads.flatten(), dx.ravel()])

        def probe(vec):
            p = ParamSet.unflatten(spec, vec[: spec.num_params])
            emb, _ = encode(p, vec[spec.num_params:].reshape(3, 4))
            return float((upstream * emb).sum())

        numeric = central_difference(probe, np.concatenate([params.flatten(), x.ravel()]))
        assert max_rel_error(analytic, numeric) < 1e-5

    def test_out_receives_the_gradients(self):
        # Gradients written through out= into views of one flat buffer equal
        # a fresh ParamSet's bit for bit, and out itself is returned.
        spec = EncoderSpec(input_dim=4, hidden_dims=(5, 3), embed_dim=3)
        params = init_params(spec, RngState(6))
        _, cache = encode(params, RngState(7).normals(6, 4))
        upstream = RngState(8).normals(6, 3)
        fresh, d_z0 = encode_backward(cache, upstream)
        buffer = np.full(spec.num_params + 1, np.nan)
        out = ParamSet.unflatten(spec, buffer[:-1])
        got, d_z0_out = encode_backward(cache, upstream, out=out)
        assert got is out
        np.testing.assert_array_equal(buffer[:-1], fresh.flatten())
        assert np.isnan(buffer[-1])
        np.testing.assert_array_equal(d_z0_out, d_z0)

    def test_out_of_another_spec_rejected(self):
        spec = EncoderSpec(input_dim=4, hidden_dims=(), embed_dim=2)
        params = init_params(spec, RngState(1))
        _, cache = encode(params, RngState(2).normals(3, 4))
        other = init_params(EncoderSpec(input_dim=4, hidden_dims=(), embed_dim=3), RngState(1))
        with pytest.raises(InvalidInputError):
            encode_backward(cache, np.zeros((3, 2)), out=other)

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
        spec = EncoderSpec(input_dim=5, hidden_dims=(4,), embed_dim=3)
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
        with pytest.raises(FileFormatError, match="not a parameter file, expected magic"):
            load_params(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "enc.psdw"
        save_params(self._params(), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (999).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="parameter file version 999, expected 1"):
            load_params(path)

    def test_trailing_bytes(self, tmp_path):
        # A file longer than its header promises would load, and saving it
        # back would drop the extra bytes.
        path = tmp_path / "enc.psdw"
        save_params(self._params(), path)
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(FileFormatError, match="4 bytes follow the payload"):
            load_params(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "enc.psdw"
        save_params(self._params(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(FileFormatError, match="parameter file payload holds"):
            load_params(path)

    def _with_field(self, tmp_path, offset, value):
        path = tmp_path / "enc.psdw"
        save_params(self._params(), path)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        return path

    def test_activation_word_holds_the_tanh_code_alone(self, tmp_path):
        # Hidden layers are tanh, code 0; code 1 is what a relu encoder
        # wrote before tanh became the only nonlinearity.
        path = tmp_path / "enc.psdw"
        save_params(self._params(), path)
        assert path.read_bytes()[16:20] == bytes(4)
        path = self._with_field(tmp_path, 16, 1)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}: unknown activation code 1")):
            load_params(path)

    def test_hidden_width_overflow(self, tmp_path):
        # A width read from the file is a format error; the same width given
        # to EncoderSpec directly is an input error.
        path = self._with_field(tmp_path, 24, 1 << 30)  # the one hidden width
        with pytest.raises(FileFormatError, match=re.escape(
                "header field hidden_dims must lie in [1, 16777216], got 1073741824")):
            load_params(path)
        with pytest.raises(InvalidInputError):
            EncoderSpec(input_dim=5, hidden_dims=(1 << 30,), embed_dim=3)

    @pytest.mark.parametrize("offset, field, value", [
        (12, "embed_dim", 0), (8, "input_dim", 0), (8, "input_dim", 1 << 30),
        (20, "n_hidden", 1 << 30), (24, "hidden_dims", 0),
    ])
    def test_header_count_out_of_range(self, tmp_path, offset, field, value):
        # Every dimension of the header lies in [1, 2^24], the layer count in
        # [0, 2^24]; the message names the file and the field.
        path = self._with_field(tmp_path, offset, value)
        least = 0 if field == "n_hidden" else 1
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}: parameter file header field {field} must lie in "
                f"[{least}, 16777216], got {value}")):
            load_params(path)
