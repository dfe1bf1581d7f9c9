import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lusk import model
from lusk.fusion import FusionConfig
from lusk.model import (ModelConfig, cbam, cell_to_pixel, check_config_match,
                        check_params, encode, infer_keypoints, init_params, keynet,
                        load_model, read_checkpoint, render_heatmaps, reconstruct,
                        refine, save_model, transport)
from lusk.tensor import (CheckpointError, ShapeError, Tensor, conv2d, load_tensors, mse,
                         save_tensors, upsample_conv2d)


def small_cfg(**kw):
    return ModelConfig(input_size=64, k=3, **kw)


def rand_stack(cfg, seed=0, n=1):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((n, cfg.input_channels, cfg.input_size,
                              cfg.input_size)).astype(np.float32))


class TestEncode:
    def test_output_shape_default(self):
        cfg = ModelConfig()
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
    # with one slot (k=1) the clamped sum over slots is that slot's Gaussian
    def test_peak_value_one(self):
        rows = Tensor(np.array([[4.0]]))
        cols = Tensor(np.array([[7.0]]))
        heat = render_heatmaps(rows, cols, 16, 1.5)
        assert heat.shape == (1, 1, 16, 16)
        assert abs(heat.data[0, 0, 4, 7] - 1.0) < 1e-6

    def test_value_at_one_sigma(self):
        sigma = 2.0
        rows = Tensor(np.array([[8.0]]))
        cols = Tensor(np.array([[8.0]]))
        heat = render_heatmaps(rows, cols, 16, sigma)
        assert abs(heat.data[0, 0, 8 + 2, 8] - np.exp(-0.5)) < 1e-6

    def test_dtype_follows_coordinates(self):
        for dtype in (np.float32, np.float64):
            rows = Tensor(np.array([[2.0, 5.0]], dtype=dtype))
            assert render_heatmaps(rows, rows, 8, 1.5).dtype == dtype

    def test_combined_in_unit_range(self):
        rows = Tensor(np.array([[3.0, 3.2, 3.4]]))
        cols = Tensor(np.array([[5.0, 5.1, 5.2]]))
        comb = render_heatmaps(rows, cols, 12, 1.5)
        assert comb.shape == (1, 1, 12, 12)
        assert comb.data.min() >= 0.0 and comb.data.max() <= 1.0

    def test_combined_permutation_invariant(self):
        rng = np.random.default_rng(0)
        r = rng.random((1, 4)) * 10
        c = rng.random((1, 4)) * 10
        perm = [2, 0, 3, 1]
        a = render_heatmaps(Tensor(r), Tensor(c), 12, 1.5)
        b = render_heatmaps(Tensor(r[:, perm]), Tensor(c[:, perm]), 12, 1.5)
        assert np.abs(a.data - b.data).max() < 1e-6

    def test_coordinate_gradient_flows(self):
        rows = Tensor(np.array([[4.0]]), requires_grad=True)
        cols = Tensor(np.array([[4.0]]), requires_grad=True)
        heat = render_heatmaps(rows, cols, 9, 1.5)
        (heat * Tensor(np.linspace(0, 1, 81).reshape(1, 1, 9, 9))).sum().backward()
        assert rows.grad is not None and np.isfinite(rows.grad).all()
        assert abs(rows.grad[0, 0]) > 0


class TestKeynet:
    def test_uniform_logits_give_center(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        params["keynet.head.w"].data[:] = 0.0
        params["keynet.head.b"].data[:] = 0.0
        rows, cols = keynet(rand_stack(cfg), params, cfg)
        center = (cfg.input_size // cfg.feature_stride - 1) / 2.0
        for coord in (rows, cols):
            assert coord.shape == (1, cfg.k)
            assert np.abs(coord.data - center).max() < 1e-3

    def test_coords_inside_grid(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(1))
        for coord in keynet(rand_stack(cfg, seed=2), params, cfg):
            assert coord.data.min() >= 0.0
            assert coord.data.max() <= cfg.input_size // cfg.feature_stride - 1

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

    def test_two_upsample_convs_and_no_upsampled_intermediate(self, monkeypatch):
        calls = []

        def counted(x, w, b):
            calls.append(x.shape[2:])
            return upsample_conv2d(x, w, b)

        def refused(*args, **kwargs):
            raise AssertionError("refine builds an upsampled intermediate")

        monkeypatch.setattr(model, "upsample_conv2d", counted)
        monkeypatch.setattr(model, "conv2d", refused)
        monkeypatch.setattr(model, "upsample_nearest2x", refused)
        cfg = small_cfg()
        phi = Tensor(np.ones((1, cfg.feature_channels, 16, 16), np.float32))
        refine(phi, init_params(cfg, np.random.default_rng(0)), cfg)
        assert calls == [(16, 16), (32, 32)]


class TestReconstructGraph:
    """The source branch is held constant, so it builds no graph, and
    backward frees the target graph as it runs."""

    def test_only_the_target_encoding_has_parents(self, monkeypatch):
        outputs = []

        def recorded(*args):
            outputs.append(encode(*args))
            return outputs[-1]

        monkeypatch.setattr(model, "encode", recorded)
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        reconstruct(rand_stack(cfg, 0), rand_stack(cfg, 1), params, cfg)
        source, target = outputs
        assert source._parents == () and not source.requires_grad
        assert target._parents and target.requires_grad

    def test_step_peak_stays_under_32_stacks(self):
        # at input 32, k=3, batch 8 one warm step peaked at 41x the bytes of
        # the source batch while the source graph and every saved array
        # lived until backward returned; now at 27x
        cfg = ModelConfig(input_size=32, k=3)
        params = init_params(cfg, np.random.default_rng(0))
        src, tgt = rand_stack(cfg, 0, n=8), rand_stack(cfg, 1, n=8)

        def step():
            mse(reconstruct(src, tgt, params, cfg), tgt).backward()

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in params.values())
        assert peak < 32 * src.data.nbytes, peak / src.data.nbytes


def test_heatmaps_rendered_only_for_transport(monkeypatch):
    # transport reads one map per frame; inference reads only the keypoints
    calls = []

    def counted(*args):
        calls.append(args[2])
        return render_heatmaps(*args)

    monkeypatch.setattr(model, "render_heatmaps", counted)
    cfg = small_cfg()
    params = init_params(cfg, np.random.default_rng(0))
    infer_keypoints(np.random.default_rng(1).random((64, 64)), params, cfg, FusionConfig())
    assert calls == []
    reconstruct(rand_stack(cfg, 0), rand_stack(cfg, 1), params, cfg)
    assert calls == [16, 16]


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


def _record_values(text):
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)


def _good_record_values(tmp_path):
    """The config record of a small_cfg() model with default fusion: its
    text starts `k=3`, `input_size=64`, ..."""
    path = tmp_path / "good.lusk"
    save_model(path, {}, small_cfg())
    return load_tensors(path)["__config__"]


def _good_record_text(tmp_path):
    return bytes(_good_record_values(tmp_path).astype(np.uint8)).decode("utf-8")


def _save_record(tmp_path, values):
    path = tmp_path / "edited.lusk"
    save_tensors(path, {"__config__": values})
    return path


# config record values that are no UTF-8 text: the edit of a good record's
# values and the words its CheckpointError must contain
BAD_RECORD_VALUES = {
    "above_255": (lambda v: np.append(v, 256.0), "not bytes"),
    "negative": (lambda v: np.append(v, -10.0), "not bytes"),
    "fraction": (lambda v: np.append(v, 10.5), "not bytes"),
    "nan": (lambda v: np.append(v, np.nan), "not bytes"),
    "two_dims": (lambda v: v.reshape(1, -1), "not bytes"),
    "not_utf8": (lambda v: np.append(v, 255.0), "not UTF-8"),
}
# config record texts that are no ModelConfig and FusionConfig: the edit of
# a good record's text and the words its CheckpointError must contain
BAD_RECORD_TEXTS = {
    "no_equals": (lambda t: t + "garbage\n", "'garbage' does not parse"),
    "bad_literal": (lambda t: t.replace("k=3\n", "k=(3\n"), "'k=\\(3' does not parse"),
    "call": (lambda t: t.replace("k=3\n", "k=int(3)\n"), "does not parse"),
    "missing": (lambda t: t.replace("use_cbam=False\n", ""), "lacks use_cbam"),
    "input_channels": (lambda t: t + "input_channels=7\n", "names no setting or repeats one"),
    "feature_stride": (lambda t: t + "feature_stride=2\n", "names no setting or repeats one"),
    "normalize": (lambda t: t + "normalize=False\n", "names no setting or repeats one"),
    "twice": (lambda t: t + "k=3\n", "'k=3' names no setting or repeats one"),
    "float_for_int": (lambda t: t.replace("k=3\n", "k=5.0\n"), "'k=5.0' has the wrong type"),
    "int_for_bool": (lambda t: t.replace("use_cbam=False", "use_cbam=1"), "has the wrong type"),
    "str_in_lambdas": (lambda t: t.replace("(3.0, 6.0,", "(3.0, '6.0',"), "has the wrong type"),
    "int_in_lambdas": (lambda t: t.replace("(3.0, 6.0,", "(3.0, 6,"), "has the wrong type"),
    "infinite": (lambda t: t.replace("attenuation_a=1.5", "attenuation_a=1e999"),
                 "has the wrong type"),
    "bad_input_mode": (lambda t: t.replace("'fused'", "'bogus'"), "unknown input_mode"),
    "zero_k": (lambda t: t.replace("k=3\n", "k=0\n"), "k must be >= 1"),
    "bad_sigma0": (lambda t: t.replace("sigma0=0.55", "sigma0=1.5"), r"sigma0 must be in \(0,1\)"),
}


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
            assert not loaded_params[name].requires_grad

    def test_config_mismatch_names_both_values(self):
        with pytest.raises(ValueError, match="k=3.*k=5"):
            check_config_match(small_cfg(), ModelConfig(input_size=64, k=5))

    @pytest.mark.parametrize("change", [
        dict(k=5), dict(input_size=32), dict(heatmap_sigma=2.0), dict(use_cbam=True),
        dict(base_channels=16), dict(input_mode="norm_stack")])
    def test_config_match_compares_every_field(self, change):
        with pytest.raises(ValueError, match=next(iter(change))):
            check_config_match(small_cfg(), replace(small_cfg(), **change))

    def test_input_channels_is_not_a_setting(self):
        assert "input_channels" not in ModelConfig.__dataclass_fields__
        assert ModelConfig.input_channels == ModelConfig().input_channels == 10

    def test_round_trip_is_exact(self, tmp_path):
        # float64 settings come back equal, not rounded to float32
        cfg = small_cfg(heatmap_sigma=0.3)
        fusion_cfg = FusionConfig(sigma0=0.6, attenuation_a=0.2,
                                  lambdas=tuple(2.1 + 2.9 * i for i in range(10)))
        path = tmp_path / "model.lusk"
        save_model(path, init_params(cfg, np.random.default_rng(0)), cfg, fusion_cfg)
        _, loaded, loaded_fusion = read_checkpoint(path)
        assert loaded == cfg and loaded_fusion == fusion_cfg
        assert loaded.heatmap_sigma == 0.3 and loaded_fusion.sigma0 == 0.6
        assert loaded_fusion.attenuation_a == 0.2

    @pytest.mark.parametrize("cfg,fusion_cfg", [
        (ModelConfig(input_size=64, k=3, heatmap_sigma=2), FusionConfig()),
        (ModelConfig(input_size=64, k=3), FusionConfig(lambdas=(3, 6, 9)))],
        ids=["heatmap_sigma", "lambdas"])
    def test_integer_float_settings_round_trip(self, cfg, fusion_cfg, tmp_path):
        path = tmp_path / "model.lusk"
        save_model(path, init_params(cfg, np.random.default_rng(0)), cfg, fusion_cfg)
        _, loaded, loaded_fusion = read_checkpoint(path)
        assert loaded == cfg and loaded_fusion == fusion_cfg
        assert type(loaded.heatmap_sigma) is float
        assert all(type(x) is float for x in loaded_fusion.lambdas)

    def test_fusion_config_defaults_when_not_given(self, tmp_path):
        path = tmp_path / "model.lusk"
        save_model(path, init_params(small_cfg(), np.random.default_rng(0)), small_cfg())
        assert read_checkpoint(path)[2] == FusionConfig()

    @pytest.mark.parametrize("case", sorted(BAD_RECORD_VALUES))
    def test_record_values_not_text_rejected(self, case, tmp_path):
        edit, words = BAD_RECORD_VALUES[case]
        path = _save_record(tmp_path, edit(_good_record_values(tmp_path)))
        with pytest.raises(CheckpointError, match=words) as info:
            read_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("case", sorted(BAD_RECORD_TEXTS))
    def test_malformed_record_rejected(self, case, tmp_path):
        edit, words = BAD_RECORD_TEXTS[case]
        path = _save_record(tmp_path, _record_values(edit(_good_record_text(tmp_path))))
        with pytest.raises(CheckpointError, match=words) as info:
            read_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, value, tmp_path):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        params["keynet.head.b"].data[1] = value
        path = tmp_path / "model.lusk"
        save_model(path, params, cfg)
        with pytest.raises(CheckpointError, match="parameter keynet.head.b holds NaN") as info:
            read_checkpoint(path)
        assert str(path) in str(info.value)

    def test_check_params_rejects_unknown_and_misshapen(self):
        cfg = small_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        check_params(params, cfg, "m.lusk", required="keynet.")
        with pytest.raises(CheckpointError, match="extra.w has shape .* and None in the"):
            check_params({**params, "extra.w": params["keynet.head.w"]}, cfg, "m.lusk")
        with pytest.raises(CheckpointError, match=r"encoder.conv1.w has shape \(32, 7, 3, 3\)"):
            check_params({**params, "encoder.conv1.w": Tensor(np.zeros((32, 7, 3, 3)))},
                         cfg, "m.lusk")
        encoder = {n: p for n, p in params.items() if n.startswith("encoder.")}
        check_params(encoder, cfg, "m.lusk")
        with pytest.raises(CheckpointError, match="keynet.conv1.b has shape None in the"):
            check_params(encoder, cfg, "m.lusk", required="keynet.")

    @pytest.mark.parametrize("slot", [2.0, -1.0, 0.5, float("nan")])
    def test_bad_input_mode_slot_rejected(self, slot, tmp_path):
        # the numbers a float32 header's input_mode slot held are no mode:
        # nan does not parse, the others have the wrong type
        text = _good_record_text(tmp_path).replace("'fused'", repr(slot))
        path = _save_record(tmp_path, _record_values(text))
        with pytest.raises(CheckpointError, match=f"'input_mode={slot}' (does not parse|has the)"):
            read_checkpoint(path)

    def test_missing_config_record_rejected(self, tmp_path):
        from lusk.tensor import save_tensors
        path = tmp_path / "raw.lusk"
        save_tensors(path, {"w": np.zeros(3, dtype=np.float32)})
        with pytest.raises(CheckpointError, match="missing config record"):
            load_model(path)


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError, match="k"):
            ModelConfig(k=0)

    def test_indivisible_size(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(input_size=65)

    @pytest.mark.parametrize("field,value", [("input_size", 0), ("input_size", -4),
                                             ("base_channels", 0), ("base_channels", -1)])
    def test_empty_network_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("section,field,value", [
        (ModelConfig, "heatmap_sigma", True), (FusionConfig, "thresh", False),
        (FusionConfig, "sigma0", "0.5"), (FusionConfig, "lambdas", (3.0, True))])
    def test_float_settings_reject_bools_and_text(self, section, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            section(**{field: value})

    @pytest.mark.parametrize("section,field,value", [
        (ModelConfig, "heatmap_sigma", float("inf")), (FusionConfig, "attenuation_a", float("nan")),
        (FusionConfig, "lambdas", (3.0, float("inf")))])
    def test_non_finite_float_settings_rejected(self, section, field, value):
        # such a config would write a checkpoint that read_checkpoint refuses
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            section(**{field: value})

    def test_determinism_of_init(self):
        cfg = small_cfg()
        a = init_params(cfg, np.random.default_rng(5))
        b = init_params(cfg, np.random.default_rng(5))
        assert all(np.array_equal(a[n].data, b[n].data) for n in a)
