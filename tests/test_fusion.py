import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusk import fusion
from lusk.fusion import (FusionConfig, MonogenicTriple, fuse, ibs,
                         local_phase, local_phase_raw, log_gabor_gain,
                         minmax_normalize, monogenic, norm_stack,
                         phase_symmetry, resize_bilinear, ssim, tga)
from lusk.synth import SceneSpec, generate
from oracles import fuse_composite, log_gabor_response, monogenic_direct

# shapes where the Nyquist lines of the packed Riesz multiplier matter:
# odd rows and columns, even rows with odd columns, odd rows with even columns
ODD_EVEN_SHAPES = [(15, 15), (16, 17), (31, 48)]


def line_frame(size=32, row=10, background=0.05, brightness=1.0):
    f = np.full((size, size), background)
    f[row, :] = brightness
    return f


class TestTga:
    def test_zero_attenuation_is_identity(self):
        f = np.random.default_rng(0).random((16, 16))
        assert np.array_equal(tga(f, 0.0), f)

    def test_bottom_row_value(self):
        out = tga(np.ones((8, 8)), 1.0)
        assert np.allclose(out[-1], np.exp(-1.0))

    def test_strictly_decreasing_down_rows(self):
        out = tga(np.ones((32, 8)), 0.7)
        col = out[:, 0]
        assert np.all(np.diff(col) < 0)

    def test_negative_attenuation_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            tga(np.ones((4, 4)), -0.1)


class TestIbs:
    def test_all_ones_column(self):
        h = 10
        out = ibs(np.ones((h, 3)))
        assert np.allclose(out[:, 0], (np.arange(h) + 1) / h)

    def test_energy_in_first_row(self):
        out = ibs(np.array([[1.0], [0.0], [0.0]]))
        assert np.allclose(out[:, 0], [1.0, 1.0, 1.0])

    def test_all_zero_frame(self):
        assert np.array_equal(ibs(np.zeros((5, 5))), np.zeros((5, 5)))


class TestLogGabor:
    def test_unit_gain_at_center_frequency(self):
        lam = 8.0
        w0 = 2 * np.pi / lam
        g = log_gabor_gain(np.array([w0]), lam, 0.55)
        assert abs(g[0] - 1.0) < 1e-12

    def test_gain_at_sigma_offset(self):
        lam, s0 = 8.0, 0.55
        w0 = 2 * np.pi / lam
        g = log_gabor_gain(np.array([w0 * s0]), lam, s0)
        assert abs(g[0] - np.exp(-0.5)) < 1e-12

    def test_dc_gain_zero_constant_frame(self):
        out = log_gabor_response(np.full((16, 16), 0.4), 8.0, 0.55)
        assert np.abs(out).max() < 1e-12

    def test_wavelength_at_nyquist_rejected(self):
        with pytest.raises(ValueError, match="lambda0"):
            log_gabor_response(np.zeros((8, 8)), 2.0, 0.55)


class TestMonogenic:
    def test_constant_frame_near_zero(self):
        m = monogenic(np.full((16, 16), 0.7), 6.0, 0.55)
        for comp in (m.m1, m.m2, m.m3):
            assert np.abs(comp).max() <= 1e-8

    def test_row_grating_has_no_column_component(self):
        r = np.arange(16)
        frame = np.cos(2 * np.pi * r / 8.0)[:, None] * np.ones((1, 16))
        m = monogenic(frame, 8.0, 0.55)
        assert np.abs(m.m3).max() <= 1e-8

    def test_fft_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(11)
        for shape in [(16, 16)] * 3 + ODD_EVEN_SHAPES:
            frame = rng.random(shape)
            a = monogenic(frame, 6.0, 0.55)
            b = monogenic_direct(frame, 6.0, 0.55)
            assert np.abs(a.m1 - b.m1).max() < 1e-8
            assert np.abs(a.m2 - b.m2).max() < 1e-8
            assert np.abs(a.m3 - b.m3).max() < 1e-8

    def test_cached_multipliers_are_read_only(self):
        for multiplier in fusion._multipliers((16, 16), 6.0, 0.55):
            with pytest.raises(ValueError, match="read-only"):
                multiplier[0, 0] = 1.0

    def test_transpose_swaps_riesz_components(self):
        frame = np.random.default_rng(12).random((16, 16))
        m = monogenic(frame, 6.0, 0.55)
        mt = monogenic(frame.T, 6.0, 0.55)
        assert np.abs(mt.m2 - m.m3.T).max() <= 1e-8
        assert np.abs(mt.m3 - m.m2.T).max() <= 1e-8


class TestLocalPhase:
    def test_even_dominant_is_maximal(self):
        # odd energy zero -> raw LP equals the top of its range
        m = MonogenicTriple(m1=np.ones((4, 4)), m2=np.zeros((4, 4)), m3=np.zeros((4, 4)))
        raw = local_phase_raw(m)
        assert np.allclose(raw, 1.0, atol=1e-6)
        # constant raw map normalizes to zero by convention
        assert np.array_equal(local_phase(m), np.zeros((4, 4)))

    def test_raw_range_containment(self):
        rng = np.random.default_rng(3)
        m = MonogenicTriple(*(rng.standard_normal((8, 8)) for _ in range(3)))
        raw = local_phase_raw(m)
        assert raw.min() > 1 - np.pi / 2
        assert raw.max() <= 1 + np.pi / 2


class TestPhaseSymmetry:
    def test_constant_frame_is_zero(self):
        m = monogenic(np.full((16, 16), 0.5), 6.0, 0.55)
        assert np.array_equal(phase_symmetry(m, thresh=0.01), np.zeros((16, 16)))

    def test_bright_line_localization(self):
        f = line_frame(background=0.0)
        m = monogenic(f, 8.0, 0.55)
        fs = phase_symmetry(m)
        assert abs(int(np.argmax(fs.mean(axis=1))) - 10) <= 1

    def test_output_in_unit_range(self):
        m = monogenic(np.random.default_rng(5).random((16, 16)), 6.0, 0.55)
        fs = phase_symmetry(m)
        assert fs.min() >= 0.0 and fs.max() <= 1.0


class TestFuse:
    def test_all_zero_frame_gives_zero_stack(self):
        stack = fuse(np.zeros((32, 32)), FusionConfig())
        assert np.array_equal(stack, np.zeros_like(stack))

    def test_ten_channels(self):
        stack = fuse(np.random.default_rng(1).random((32, 32)), FusionConfig())
        assert stack.shape[0] == 10

    def test_full_ibs_pixel_is_zero(self):
        # bottom row of any column has IBS = 1 -> fused value 0
        frame = np.random.default_rng(2).random((32, 32)) * 0.5 + 0.25
        stack = fuse(frame, FusionConfig())
        assert np.abs(stack[:, -1, :]).max() == 0.0

    def test_permuting_lambdas_permutes_channels(self):
        frame = np.random.default_rng(3).random((32, 32))
        lams = (6.0, 9.0, 12.0)
        a = fuse(frame, FusionConfig(lambdas=lams))
        b = fuse(frame, FusionConfig(lambdas=(6.0, 12.0, 24.0)))
        assert np.array_equal(a[1], b[0] * 0 + a[1])  # self-consistency
        c = fuse(frame, FusionConfig(lambdas=(9.0, 12.0, 24.0)))
        assert np.array_equal(a[1], c[0])
        assert np.array_equal(a[2], c[1])

    def test_finite_on_extreme_frames(self):
        for frame in (np.zeros((16, 16)), np.ones((16, 16)),
                      np.eye(16), np.full((16, 16), 1e-12)):
            stack = fuse(frame, FusionConfig())
            assert np.isfinite(stack).all()

    def test_shape_preserving_deterministic(self):
        frame = np.random.default_rng(4).random((24, 24))
        a = fuse(frame, FusionConfig())
        b = fuse(frame, FusionConfig())
        assert a.shape == (10, 24, 24)
        assert np.array_equal(a, b)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            fuse(np.zeros((8, 8)), FusionConfig(lambdas=(9.0, 6.0)))
        with pytest.raises(ValueError, match="sigma0"):
            fuse(np.zeros((8, 8)), FusionConfig(sigma0=1.2))

    def test_each_channel_is_the_documented_formula(self):
        # fuse runs LP * FS * (1 - IBS) with the defaults phase_symmetry and
        # local_phase state, so their own tests cover what the pipeline runs
        video, _ = generate(SceneSpec(frames=2, size=64, seed=3))
        cfg = FusionConfig()
        for frame in video:
            prepared = fusion.prepare_frame(frame, 64, cfg.attenuation_a)
            stack = fuse(prepared, cfg)
            for channel, lam in zip(stack, cfg.lambdas):
                m = monogenic(prepared, lam, cfg.sigma0)
                want = minmax_normalize(local_phase(m) * phase_symmetry(m)
                                        * (1.0 - ibs(prepared)))
                assert np.array_equal(channel, want.astype(np.float32))

    @pytest.mark.parametrize("shape", ODD_EVEN_SHAPES)
    def test_matches_composite_oracle(self, shape):
        frame = np.random.default_rng(6).random(shape)
        cfg = FusionConfig()
        assert np.abs(fuse(frame, cfg) - fuse_composite(frame, cfg)).max() < 1e-6

    def test_equals_composite_oracle_on_desk_frames(self):
        video, _ = generate(SceneSpec(frames=4, size=64, seed=2))
        cfg = FusionConfig()
        for frame in video:
            prepared = fusion.prepare_frame(frame, 64, cfg.attenuation_a)
            assert np.array_equal(fuse(prepared, cfg),
                                  fuse_composite(prepared, cfg).astype(np.float32))

    @pytest.mark.parametrize("other", [dict(sigma0=0.65), dict(lambdas=(6.5, 9.5, 12.5))])
    def test_cache_tells_configs_apart(self, other):
        # one config warms the cache, then a config that differs only in
        # sigma0 or only in lambdas must equal its own cold computation
        frame = np.random.default_rng(7).random((24, 24))
        base = FusionConfig(lambdas=(6.0, 9.0, 12.0))
        changed = FusionConfig(**{"lambdas": base.lambdas, **other})
        fusion._multipliers.cache_clear()
        cold = fuse(frame, changed)
        fusion._multipliers.cache_clear()
        fuse(frame, base)
        assert np.array_equal(fuse(frame, changed), cold)
        assert not np.array_equal(cold, fuse(frame, base))

    def test_tga_suppresses_rows_below_deep_patch(self):
        # bright pleura-like line plus a deep bright patch; with TGA the
        # fused energy below the patch must drop vs. the raw pipeline
        frame = line_frame(size=64, row=16, background=0.1)
        frame[44:50, 20:44] = 0.9  # deep B-patch
        cfg = FusionConfig()
        stack_raw = fuse(frame, cfg)
        stack_tga = fuse(tga(frame, cfg.attenuation_a), cfg)
        below_raw = stack_raw[:, 50:, :].sum()
        below_tga = stack_tga[:, 50:, :].sum()
        assert below_tga < below_raw


class TestFuseMemory:
    def test_peak_below_six_stacks(self):
        # stream inference's peak allocation must stay the keypoint
        # network's; an all-wavelengths-at-once fuse peaks near 28 stacks
        frame = np.random.default_rng(8).random((64, 64))
        cfg = FusionConfig()
        stack = fuse(frame, cfg)
        tracemalloc.start()
        try:
            fuse(frame, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * stack.nbytes


class TestNormStack:
    def test_endpoint_means(self):
        frame = np.zeros((8, 8))
        stack = norm_stack(frame)
        assert np.allclose(stack[0], (0.0 - 0.3) / 0.5)
        assert np.allclose(stack[9], (0.0 - 0.7) / 0.5)

    def test_matching_mean_channel_is_zero(self):
        mus = np.linspace(0.3, 0.7, 10)
        frame = np.full((8, 8), mus[4])
        stack = norm_stack(frame)
        assert np.abs(stack[4]).max() < 1e-6

    def test_middle_channel_mean(self):
        mus = np.linspace(0.3, 0.7, 10)
        assert abs(mus[4] - (0.3 + 0.4 * 4 / 9)) < 1e-12


def _ssim_oracle(a, b, window, c1=0.01 ** 2, c2=0.03 ** 2):
    """Naive per-window loop, weighted moments computed from scratch."""
    wh = window.shape[0]
    h, w = a.shape
    vals = []
    for i in range(h - wh + 1):
        for j in range(w - wh + 1):
            pa = a[i:i + wh, j:j + wh]
            pb = b[i:i + wh, j:j + wh]
            mu_a = (window * pa).sum()
            mu_b = (window * pb).sum()
            va = (window * pa * pa).sum() - mu_a ** 2
            vb = (window * pb * pb).sum() - mu_b ** 2
            cov = (window * pa * pb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2)) /
                        ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identical_frames(self):
        f = np.random.default_rng(0).random((16, 16))
        assert abs(ssim(f, f) - 1.0) < 1e-12

    def test_constant_frames_closed_form(self):
        a, b = 0.25, 0.75
        c1 = 0.01 ** 2
        expected = (2 * a * b + c1) / (a * a + b * b + c1)
        got = ssim(np.full((16, 16), a), np.full((16, 16), b))
        assert abs(got - expected) < 1e-9

    def test_matches_per_window_oracle(self):
        rng = np.random.default_rng(9)
        win = fusion._gaussian_window(11, 1.5)
        for _ in range(3):
            a, b = rng.random((16, 16)), rng.random((16, 16))
            assert abs(ssim(a, b) - _ssim_oracle(a, b, win)) < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        a, b = rng.random((16, 16)), rng.random((16, 16))
        # exact: train.sample_pairs scores each unordered pair once
        assert ssim(a, b) == ssim(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            ssim(np.zeros((16, 16)), np.zeros((16, 17)))


class TestProperties:
    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=25, deadline=None)
    def test_minmax_range(self, a, b):
        x = np.array([[a, b], [b, a]], dtype=np.float64) / 255.0
        out = minmax_normalize(x)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @given(st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_tga_never_amplifies(self, a):
        f = np.random.default_rng(0).random((8, 8))
        assert np.all(tga(f, a) <= f + 1e-12)


class TestResize:
    def test_identity_when_same_size(self):
        f = np.random.default_rng(0).random((16, 16))
        assert np.array_equal(resize_bilinear(f, 16, 16), f)

    def test_constant_preserved(self):
        out = resize_bilinear(np.full((10, 10), 0.42), 17, 23)
        assert np.allclose(out, 0.42)

    def test_upscale_endpoints(self):
        f = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = resize_bilinear(f, 2, 5)
        assert abs(out[0, 0]) < 1e-12 and abs(out[0, -1] - 1.0) < 1e-12
