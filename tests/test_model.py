import numpy as np
import pytest

from lusk.fusion import FusionConfig
from lusk.model import (ModelConfig, cbam, cell_to_pixel, check_config_match,
                        encode, infer_keypoints, init_params, keynet,
                        load_model, render_heatmaps, reconstruct, refine,
                        save_model, transport)
from lusk.tensor import CheckpointError, ShapeError, Tensor, conv2d, save_tensors


def small_cfg(**kw):
    return ModelConfig(input_size=64, k=3, **kw).validate()


def rand_stack(cfg, seed=0, n=1):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((n, cfg.input_channels, cfg.input_size,
                              cfg.input_size)).astype(np.float32))


class TestEncode:
    def test_output_shape_default(self):
        cfg = ModelConfig().validate()
        params = init_params(cfg, np.random.default_rng(0))
        x = Tensor(np.zeros((1, 10, 256, 256), dtype=np.float32))
        assert encode(x, params, cfg).shape == (1, 64, 64, 64)

    def test_output_shape_small(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        assert encode(rand_stack(cfg), params, cfg).shape == (1, 64, 16, 16)

    def test_zero_input_zero_features(self):
        # zero biases give a zero map, which instance norm leaves at zero
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        x = Tensor(np.zeros((1, 10, 64, 64), dtype=np.float32))
        assert np.abs(encode(x, params, cfg).data).max() == 0.0

    def test_wrong_channel_count_rejected(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="encode"):
            encode(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)), params, cfg)


class TestHeatmaps:
    def test_peak_value_one(self):
        rows = Tensor(np.array([[4.0]]))
        cols = Tensor(np.array([[7.0]]))
        heat, _ = render_heatmaps(rows, cols, 16, 16, 1.5)
        assert abs(heat.data[0, 0, 4, 7] - 1.0) < 1e-6

    def test_value_at_one_sigma(self):
        sigma = 2.0
        rows = Tensor(np.array([[8.0]]))
        cols = Tensor(np.array([[8.0]]))
        heat, _ = render_heatmaps(rows, cols, 16, 16, sigma)
        assert abs(heat.data[0, 0, 8 + 2, 8] - np.exp(-0.5)) < 1e-6

    def test_combined_in_unit_range(self):
        rows = Tensor(np.array([[3.0, 3.2, 3.4]]))
        cols = Tensor(np.array([[5.0, 5.1, 5.2]]))
        _, comb = render_heatmaps(rows, cols, 12, 12, 1.5)
        assert comb.data.min() >= 0.0 and comb.data.max() <= 1.0

    def test_combined_permutation_invariant(self):
        rng = np.random.default_rng(0)
        r = rng.random((1, 4)) * 10
        c = rng.random((1, 4)) * 10
        perm = [2, 0, 3, 1]
        _, a = render_heatmaps(Tensor(r), Tensor(c), 12, 12, 1.5)
        _, b = render_heatmaps(Tensor(r[:, perm]), Tensor(c[:, perm]), 12, 12, 1.5)
        assert np.abs(a.data - b.data).max() < 1e-6

    def test_coordinate_gradient_flows(self):
        rows = Tensor(np.array([[4.0]]), requires_grad=True)
        cols = Tensor(np.array([[4.0]]), requires_grad=True)
        heat, _ = render_heatmaps(rows, cols, 9, 9, 1.5, dtype=np.float64)
        (heat * Tensor(np.linspace(0, 1, 81).reshape(1, 1, 9, 9))).sum().backward()
        assert rows.grad is not None and np.isfinite(rows.grad).all()
        assert abs(rows.grad[0, 0]) > 0


class TestKeynet:
    def test_uniform_logits_give_center(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        params["keynet.head.w"].data[:] = 0.0
        params["keynet.head.b"].data[:] = 0.0
        coords, heat, comb = keynet(rand_stack(cfg), params, cfg)
        center = (cfg.feature_size - 1) / 2.0
        assert np.abs(coords.data - center).max() < 1e-3
        assert heat.shape == (1, cfg.k, 16, 16)
        assert comb.shape == (1, 1, 16, 16)

    def test_coords_inside_grid(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(1))
        coords, _, _ = keynet(rand_stack(cfg, seed=2), params, cfg)
        assert coords.data.min() >= 0.0
        assert coords.data.max() <= cfg.feature_size - 1

    def test_translation_equivariance_of_features(self):
        # rolling the input by one feature stride rolls the encoder's conv
        # trunk by one cell; instance norm is left out, because its per-map
        # statistics see the border rows change
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(3))

        def trunk(x):
            for name in ("encoder.conv1", "encoder.conv2"):
                x = conv2d(x, params[f"{name}.w"], params[f"{name}.b"],
                           stride=2, padding=1).relu()
            return x.data

        base = np.random.default_rng(4).random((1, 10, 64, 64)).astype(np.float32)
        rolled = np.roll(base, cfg.feature_stride, axis=2)
        f1 = trunk(Tensor(base))
        f2 = trunk(Tensor(rolled))
        interior = np.roll(f1, 1, axis=2)[:, :, 2:-2, :]
        assert np.abs(f2[:, :, 2:-2, :] - interior).max() < 1e-5


class TestTransport:
    def shapes(self, seed=0):
        rng = np.random.default_rng(seed)
        phi_s = Tensor(rng.random((1, 4, 8, 8)), requires_grad=True)
        phi_t = Tensor(rng.random((1, 4, 8, 8)), requires_grad=True)
        h_s = Tensor(rng.random((1, 1, 8, 8)), requires_grad=True)
        h_t = Tensor(rng.random((1, 1, 8, 8)), requires_grad=True)
        return phi_s, phi_t, h_s, h_t

    def test_identity_when_heatmaps_zero(self):
        phi_s, phi_t, _, _ = self.shapes()
        zero = Tensor(np.zeros((1, 1, 8, 8)))
        out = transport(phi_s, phi_t, zero, zero)
        assert np.array_equal(out.data, phi_s.data)

    def test_target_pasted_when_target_heatmap_one(self):
        phi_s, phi_t, _, _ = self.shapes()
        one = Tensor(np.ones((1, 1, 8, 8)))
        zero = Tensor(np.zeros((1, 1, 8, 8)))
        out = transport(phi_s, phi_t, zero, one)
        assert np.array_equal(out.data, phi_t.data)

    def test_same_frame_combination(self):
        phi_s, _, _, h = self.shapes()
        out = transport(phi_s, phi_s, h, h)
        expected = ((1 - h.data) ** 2 + h.data) * phi_s.data
        assert np.abs(out.data - expected).max() < 1e-12

    def test_stopped_branch_gets_zero_gradient(self):
        phi_s, phi_t, h_s, h_t = self.shapes(seed=1)
        transport(phi_s, phi_t, h_s, h_t).sum().backward()
        assert phi_s.grad is None or np.all(phi_s.grad == 0.0)
        assert h_s.grad is None or np.all(h_s.grad == 0.0)
        assert phi_t.grad is not None and np.abs(phi_t.grad).max() > 0
        assert h_t.grad is not None and np.abs(h_t.grad).max() > 0

    def test_shape_mismatch_rejected(self):
        phi_s, phi_t, h_s, _ = self.shapes()
        bad = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ShapeError, match="transport"):
            transport(phi_s, phi_t, h_s, bad)


class TestRefine:
    def test_output_shape_and_range(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        phi = Tensor(np.random.default_rng(1).random(
            (1, cfg.feature_channels, 16, 16)).astype(np.float32))
        out = refine(phi, params, cfg)
        assert out.shape == (1, 10, 64, 64)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_reconstruct_shape(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        out = reconstruct(rand_stack(cfg, 0), rand_stack(cfg, 1), params, cfg)
        assert out.shape == (1, 10, 64, 64)


class TestCbam:
    def test_shape_preserved(self):
        cfg = small_cfg(use_cbam=True)
        params = init_params(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).random((2, 32, 8, 8)).astype(np.float32))
        assert cbam(x, params, "encoder.cbam1").shape == x.shape

    def test_gates_never_amplify(self):
        cfg = small_cfg(use_cbam=True)
        params = init_params(cfg, np.random.default_rng(2))
        x = Tensor(np.abs(np.random.default_rng(3).random((1, 32, 8, 8))).astype(np.float32))
        out = cbam(x, params, "encoder.cbam1")
        assert np.all(np.abs(out.data) <= np.abs(x.data) + 1e-7)

    def test_saturated_gates_identity(self):
        cfg = small_cfg(use_cbam=True)
        params = init_params(cfg, np.random.default_rng(0))
        for name in ("ca_w1", "ca_w2", "sa.w"):
            params[f"encoder.cbam1.{name}"].data[:] = 0.0
        params["encoder.cbam1.ca_b1"].data[:] = 0.0
        params["encoder.cbam1.ca_b2"].data[:] = 50.0
        params["encoder.cbam1.sa.b"].data[:] = 50.0
        x = Tensor(np.random.default_rng(4).random((1, 32, 8, 8)).astype(np.float32))
        out = cbam(x, params, "encoder.cbam1")
        assert np.abs(out.data - x.data).max() < 1e-6

    def test_encode_with_cbam_shape(self):
        cfg = small_cfg(use_cbam=True)
        params = init_params(cfg, np.random.default_rng(0))
        assert encode(rand_stack(cfg), params, cfg).shape == (1, 64, 16, 16)


class TestInference:
    def test_cell_to_pixel(self):
        got = cell_to_pixel(np.array([[10.0, 20.0]]), 4)
        assert np.array_equal(got, [[42.0, 82.0]])

    def test_infer_shape_and_bounds(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        frame = np.random.default_rng(1).random((64, 64))
        pts = infer_keypoints(frame, params, cfg, FusionConfig())
        assert pts.shape == (cfg.k, 2)
        assert pts.min() >= 0.0 and pts.max() <= cfg.input_size


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg(heatmap_sigma=2.5)
        params = init_params(cfg, np.random.default_rng(0))
        path = tmp_path / "model.lusk"
        save_model(path, params, cfg)
        loaded_params, loaded_cfg = load_model(path)
        assert loaded_cfg == cfg
        assert set(loaded_params) == set(params)
        for name in params:
            assert np.array_equal(loaded_params[name].data, params[name].data)

    def test_config_mismatch_names_both_values(self):
        with pytest.raises(ValueError, match="k=3.*k=5"):
            check_config_match(small_cfg(), ModelConfig(input_size=64, k=5))

    def test_v1_header_loads_fused_with_tga(self, tmp_path):
        # k, input_channels, input_size, feature_stride, heatmap_sigma,
        # use_cbam, base_channels, normalize: the 8 slots of a v1 checkpoint
        header = np.array([3, 10, 64, 4, 1.5, 0, 32, 1], dtype=np.float32)
        params = init_params(small_cfg(), np.random.default_rng(0))
        path = tmp_path / "v1.lusk"
        save_tensors(path, {"__model_config__": header, **params})
        _, cfg = load_model(path)
        assert cfg.use_tga is True and cfg.input_mode == "fused"
        assert cfg == small_cfg()

    @pytest.mark.parametrize("header", [
        [3, 10, 64, 4, 1.5, 0, 32, 0],
        [3, 10, 64, 4, 1.5, 0, 32, 0, 1, 0]])
    def test_model_without_instance_norm_rejected(self, header, tmp_path):
        # slot 7 held the normalize switch; every stage now runs instance
        # norm, so a model trained without it would give wrong keypoints
        params = init_params(small_cfg(), np.random.default_rng(0))
        path = tmp_path / "no_norm.lusk"
        save_tensors(path, {"__model_config__": np.array(header, np.float32), **params})
        with pytest.raises(CheckpointError, match="normalize slot 0.0"):
            load_model(path)

    @pytest.mark.parametrize("slot", [2.0, -1.0, 0.5, float("nan")])
    def test_bad_input_mode_slot_rejected(self, slot, tmp_path):
        header = np.array([3, 10, 64, 4, 1.5, 0, 32, 1, 1, slot], dtype=np.float32)
        path = tmp_path / "bad.lusk"
        save_tensors(path, {"__model_config__": header})
        with pytest.raises(ValueError, match="input_mode"):
            load_model(path)

    def test_missing_config_record_rejected(self, tmp_path):
        from lusk.tensor import save_tensors
        path = tmp_path / "raw.lusk"
        save_tensors(path, {"w": np.zeros(3, dtype=np.float32)})
        with pytest.raises(ValueError, match="config"):
            load_model(path)


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError, match="k"):
            ModelConfig(k=0).validate()

    def test_indivisible_size(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(input_size=65).validate()

    def test_determinism_of_init(self):
        cfg = small_cfg()
        a = init_params(cfg, np.random.default_rng(5))
        b = init_params(cfg, np.random.default_rng(5))
        assert all(np.array_equal(a[n].data, b[n].data) for n in a)
