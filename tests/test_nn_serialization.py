"""Unit tests for repro.nn.serialization (save/load round-trips)."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.network import build_mlp
from repro.nn.serialization import load_model, save_model


@pytest.fixture
def model():
    return build_mlp(5, (4,), 3, seed=0)


class TestRoundTrip:
    def test_forward_identical_after_reload(self, model, tmp_path):
        path = save_model(model, tmp_path / "model.npz")
        reloaded = load_model(path)
        x = np.random.default_rng(0).normal(size=(6, 5))
        np.testing.assert_allclose(reloaded.forward(x), model.forward(x))

    def test_suffix_appended(self, model, tmp_path):
        path = save_model(model, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_architecture_preserved(self, model, tmp_path):
        reloaded = load_model(save_model(model, tmp_path / "m.npz"))
        assert reloaded.topology() == model.topology()
        assert [type(l).__name__ for l in reloaded.layers] == [
            type(l).__name__ for l in model.layers
        ]

    def test_mask_preserved(self, model, tmp_path):
        layer = model.dense_layers[0]
        mask = np.ones_like(layer.weights)
        mask[0, :] = 0.0
        layer.mask = mask
        reloaded = load_model(save_model(model, tmp_path / "masked.npz"))
        np.testing.assert_array_equal(reloaded.dense_layers[0].mask, mask)

    def test_bias_disabled_preserved(self, tmp_path):
        from repro.nn.network import MLP

        model = MLP([Dense(3, 2, use_bias=False, rng=np.random.default_rng(0))])
        reloaded = load_model(save_model(model, tmp_path / "nobias.npz"))
        assert reloaded.dense_layers[0].use_bias is False

    def test_directories_created(self, model, tmp_path):
        path = save_model(model, tmp_path / "deep" / "nested" / "model.npz")
        assert path.exists()


class TestErrors:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope.npz")

    def test_unsupported_layer_rejected(self, tmp_path):
        from repro.nn.layers import Layer
        from repro.nn.network import MLP

        class Custom(Layer):
            def forward(self, inputs):
                return inputs

        with pytest.raises(TypeError):
            save_model(MLP([Custom()]), tmp_path / "custom.npz")

    def test_legacy_dropout_entry_rejected(self, model, tmp_path):
        # Files written while Dropout existed carry a "dropout" entry; the
        # layer is gone, so loading names it instead of silently skipping it.
        import json

        path = save_model(model, tmp_path / "legacy.npz")
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        header = json.loads(bytes(arrays["__header__"].tobytes()).decode("utf-8"))
        header["architecture"].insert(2, {"type": "dropout", "rate": 0.2})
        arrays["__header__"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="dropout"):
            load_model(path)

    def test_quantizer_hooks_not_serialized(self, model, tmp_path):
        model.dense_layers[0].weight_quantizer = lambda w: w
        reloaded = load_model(save_model(model, tmp_path / "q.npz"))
        assert reloaded.dense_layers[0].weight_quantizer is None
