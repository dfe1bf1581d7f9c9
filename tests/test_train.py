import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusk import fusion, model
from lusk import train as training
from lusk.fusion import FusionConfig
from lusk.model import ModelConfig, load_model, preprocess_frame
from lusk.synth import SceneSpec, generate
from lusk.tensor import Adam, Tensor, mse
from lusk.train import (PairSamplingError, TrainConfig, compute_stacks, lr_at,
                        pretrain_encoder, sample_pairs, train, write_loss_csv)
from oracles import sample_pairs_naive


def tiny_model_cfg(**kw):
    return ModelConfig(input_size=32, k=3, base_channels=8, **kw)


def tiny_train_cfg(**kw):
    defaults = dict(epochs=2, batch_size=4, seed=0, pretrain_epochs=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def small_video():
    video, _ = generate(SceneSpec(frames=12, size=32, seed=0))
    return video


class TestLrSchedule:
    def test_stated_values(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == pytest.approx(0.001)
        assert lr_at(5, cfg) == pytest.approx(0.001)
        assert lr_at(6, cfg) == pytest.approx(0.00095)
        assert lr_at(12, cfg) == pytest.approx(0.0009025)
        assert lr_at(59, cfg) == pytest.approx(0.001 * 0.95 ** 9)

    def test_exact_first_decay(self):
        assert lr_at(6, TrainConfig()) == 0.001 * 0.95

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_non_increasing(self, epoch):
        cfg = TrainConfig()
        assert lr_at(epoch + 1, cfg) <= lr_at(epoch, cfg) + 1e-18

    def test_piecewise_constant_within_interval(self):
        cfg = TrainConfig()
        assert lr_at(7, cfg) == lr_at(11, cfg)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            lr_at(-1, TrainConfig())


class TestSamplePairs:
    def test_constraints_hold(self, small_video):
        cfg = tiny_train_cfg(ssim_threshold=0.5, max_pair_gap=3)
        pairs = sample_pairs([small_video, small_video[:8]], cfg, 30, np.random.default_rng(0))
        assert len(pairs) == 30
        for p in pairs:
            assert p.video in (0, 1)
            assert p.source != p.target
            assert abs(p.source - p.target) <= 3
            assert p.ssim >= 0.5

    def test_gate_off_accepts_any_ssim(self, small_video):
        cfg = tiny_train_cfg(use_ssim_gate=False, ssim_threshold=0.999)
        pairs = sample_pairs([small_video], cfg, 20, np.random.default_rng(0))
        assert len(pairs) == 20

    def test_deterministic(self, small_video):
        cfg = tiny_train_cfg(ssim_threshold=0.5)
        a = sample_pairs([small_video], cfg, 10, np.random.default_rng(0))
        b = sample_pairs([small_video], cfg, 10, np.random.default_rng(0))
        assert a == b

    @pytest.mark.parametrize("gate", [True, False])
    def test_equals_naive_oracle(self, gate, small_video):
        videos = [small_video, generate(SceneSpec(frames=9, size=32, seed=1))[0]]
        cfg = tiny_train_cfg(ssim_threshold=0.5, max_pair_gap=3, use_ssim_gate=gate)
        pairs = sample_pairs(videos, cfg, 60, np.random.default_rng(4))
        assert [(p.video, p.source, p.target, p.ssim) for p in pairs] == \
            sample_pairs_naive(videos, cfg, 60, np.random.default_rng(4))

    def test_one_ssim_per_unordered_pair(self, small_video, monkeypatch):
        videos = [small_video, generate(SceneSpec(frames=9, size=32, seed=1))[0]]
        calls = Counter()
        moment_calls = Counter()
        ssim = fusion.ssim
        ssim_moments = fusion.ssim_moments

        def counted(a, b):
            calls[frozenset((a[0].tobytes(), b[0].tobytes()))] += 1
            return ssim(a, b)

        def counted_moments(frame):
            moment_calls[frame.tobytes()] += 1
            return ssim_moments(frame)

        monkeypatch.setattr(fusion, "ssim", counted)
        monkeypatch.setattr(fusion, "ssim_moments", counted_moments)
        cfg = tiny_train_cfg(ssim_threshold=0.5, max_pair_gap=3)
        sample_pairs(videos, cfg, 60, np.random.default_rng(4))
        assert set(calls.values()) == {1}
        assert len(calls) < 60  # fewer pairs scored than kept: draws repeated
        assert set(moment_calls.values()) == {1}  # once per (video, frame)
        assert set(moment_calls) == set().union(*calls)  # only the frames scored

    def test_one_convolution_per_pair_after_the_moments(self, small_video, monkeypatch):
        videos = [small_video, generate(SceneSpec(frames=9, size=32, seed=1))[0]]
        convolutions = 0
        scored = set()
        fftconvolve, ssim = fusion.fftconvolve, fusion.ssim

        def counted_fftconvolve(*args, **kwargs):
            nonlocal convolutions
            convolutions += 1
            return fftconvolve(*args, **kwargs)

        def counted_ssim(a, b):
            scored.add(frozenset((a[0].tobytes(), b[0].tobytes())))
            return ssim(a, b)

        monkeypatch.setattr(fusion, "fftconvolve", counted_fftconvolve)
        monkeypatch.setattr(fusion, "ssim", counted_ssim)
        cfg = tiny_train_cfg(ssim_threshold=0.5, max_pair_gap=3)
        sample_pairs(videos, cfg, 60, np.random.default_rng(4))
        assert len(scored) > 0
        assert convolutions == 2 * len(set().union(*scored)) + len(scored)

    def test_impossible_threshold_exhausts_budget(self, small_video):
        cfg = tiny_train_cfg(ssim_threshold=1.0)
        with pytest.raises(PairSamplingError, match="acceptance rate"):
            sample_pairs([small_video], cfg, 10, np.random.default_rng(0))

    def test_single_frame_video_rejected(self, small_video):
        with pytest.raises(ValueError, match="fewer than 2"):
            sample_pairs([small_video[:1]], tiny_train_cfg(), 5, np.random.default_rng(0))


class TestComputeStacks:
    def test_equals_the_stacked_frames(self, small_video):
        mcfg, fcfg = tiny_model_cfg(), FusionConfig()
        stacks = compute_stacks([small_video, small_video[:3]], mcfg, fcfg)
        for got, frames in zip(stacks, (small_video, small_video[:3])):
            assert got.dtype == np.float32
            assert np.array_equal(got, np.stack([preprocess_frame(f, mcfg, fcfg)
                                                 for f in frames]))

    def test_peak_stays_near_the_output(self):
        # a list of per-frame stacks joined by np.stack peaked at twice the
        # output bytes; filling one preallocated array peaks at 1.11x here
        video, _ = generate(SceneSpec(frames=40, size=64, seed=0))
        mcfg, fcfg = ModelConfig(input_size=64, k=3, base_channels=8), FusionConfig()
        compute_stacks([video[:1]], mcfg, fcfg)  # fill the fusion caches first
        tracemalloc.start()
        try:
            (stack,) = compute_stacks([video], mcfg, fcfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stack.nbytes, peak / stack.nbytes


def test_built_configs_are_not_checked_again(small_video, monkeypatch):
    # a config checks its floats once, when it is built; inference and
    # stack building only read it
    mcfg, fcfg = tiny_model_cfg(), FusionConfig()
    params = model.init_params(mcfg, np.random.default_rng(0))
    as_float, calls = fusion.as_float, Counter()

    def counted(name, value):
        calls[name] += 1
        return as_float(name, value)

    monkeypatch.setattr(fusion, "as_float", counted)
    model.infer_keypoints(small_video[0], params, mcfg, fcfg)
    compute_stacks([small_video[:2]], mcfg, fcfg)
    assert calls == Counter()


class TestPretrain:
    def test_loss_decreases(self, small_video):
        mcfg = tiny_model_cfg()
        tcfg = tiny_train_cfg(pretrain_epochs=4)
        stacks = compute_stacks([small_video], mcfg, FusionConfig())[0]
        params, losses = pretrain_encoder(stacks, mcfg, tcfg)
        assert len(losses) == 4
        assert losses[-1] < losses[0]

    def test_returns_encoder_params_only(self, small_video):
        mcfg = tiny_model_cfg()
        tcfg = tiny_train_cfg()
        stacks = compute_stacks([small_video[:4]], mcfg, FusionConfig())[0]
        params, _ = pretrain_encoder(stacks, mcfg, tcfg)
        assert params
        assert all(name.startswith("encoder.") for name in params)

    def test_trains_the_models_refine_decoder(self, small_video, monkeypatch):
        # one decoder: refine reads, and Adam updates, the refine.* tensors of init_params
        built, decoded, optimized = [], [], []
        init_params, refine, adam = model.init_params, model.refine, training.Adam

        def spy_init(cfg, rng):
            built.append(init_params(cfg, rng))
            return built[-1]

        def spy_refine(phi, params):
            decoded.append({n: p for n, p in params.items() if n.startswith("refine.")})
            return refine(phi, params)

        def spy_adam(params, lr):
            optimized.append(params)
            return adam(params, lr)

        monkeypatch.setattr(model, "init_params", spy_init)
        monkeypatch.setattr(model, "refine", spy_refine)
        monkeypatch.setattr(training, "Adam", spy_adam)
        stacks = compute_stacks([small_video[:4]], tiny_model_cfg(), FusionConfig())[0]
        params, _ = pretrain_encoder(stacks, tiny_model_cfg(), tiny_train_cfg())
        (full,) = built
        (opt_params,) = optimized

        def part(*prefixes):
            return {n: p for n, p in full.items() if n.startswith(prefixes)}

        def same(a, b):
            return a.keys() == b.keys() and all(a[n] is b[n] for n in a)

        assert decoded and all(same(d, part("refine.")) for d in decoded)
        assert same(opt_params, part("encoder.", "refine."))
        assert same(params, part("encoder."))

    def test_bad_stack_shape_rejected(self):
        with pytest.raises(ValueError, match="N, C, H, W"):
            pretrain_encoder(np.zeros((10, 32, 32), dtype=np.float32),
                             tiny_model_cfg(), tiny_train_cfg())


class TestTrain:
    def test_deterministic_trajectory(self, small_video):
        mcfg = tiny_model_cfg()
        tcfg = tiny_train_cfg(ssim_threshold=0.5)
        r1 = train([small_video], mcfg, FusionConfig(), tcfg, pair_count=8)
        r2 = train([small_video], tiny_model_cfg(), FusionConfig(),
                   tiny_train_cfg(ssim_threshold=0.5), pair_count=8)
        assert r1.losses == r2.losses
        for name in r1.params:
            assert np.array_equal(r1.params[name].data, r2.params[name].data)

    def test_trajectory_length_and_lrs(self, small_video):
        tcfg = tiny_train_cfg(epochs=3, ssim_threshold=0.5)
        mcfg = tiny_model_cfg()
        result = train([small_video], mcfg, FusionConfig(), tcfg, pair_count=6)
        assert len(result.losses) == 3
        assert result.lrs == [lr_at(e, tcfg) for e in range(3)]

    def test_checkpoint_written(self, small_video, tmp_path):
        path = tmp_path / "model.lusk"
        train([small_video], tiny_model_cfg(), FusionConfig(),
              tiny_train_cfg(epochs=1, ssim_threshold=0.5),
              pair_count=4, checkpoint_path=path)
        from lusk.model import load_model
        params, cfg = load_model(path)
        assert cfg.k == 3 and "keynet.head.w" in params

    @pytest.mark.parametrize("epochs,every,saves", [(2, 1, 2), (3, 2, 2), (1, 10, 1)])
    def test_each_checkpoint_written_once(self, epochs, every, saves, small_video, tmp_path,
                                          monkeypatch):
        # the last epoch's checkpoint is the final one, written once
        calls = []
        save_model = model.save_model

        def counted(*args):
            calls.append(args[0])
            save_model(*args)

        monkeypatch.setattr(model, "save_model", counted)
        path = tmp_path / "model.lusk"
        result = train([small_video], tiny_model_cfg(), FusionConfig(),
                       tiny_train_cfg(epochs=epochs, checkpoint_every=every,
                                      ssim_threshold=0.5),
                       pair_count=4, checkpoint_path=path)
        assert calls == [path] * saves
        params, _ = load_model(path)
        assert all(np.array_equal(params[n].data, p.data) for n, p in result.params.items())

    def test_pretrained_init_flows_through(self, small_video):
        mcfg = tiny_model_cfg()
        tcfg = tiny_train_cfg(epochs=1, ssim_threshold=0.5)
        stacks = compute_stacks([small_video[:4]], mcfg, FusionConfig())[0]
        enc, _ = pretrain_encoder(stacks, mcfg, tcfg)
        result = train([small_video], mcfg, FusionConfig(), tcfg,
                       pair_count=4, init=enc)
        assert len(result.losses) == 1

    def test_caller_model_config_unchanged(self, small_video, tmp_path):
        mcfg = tiny_model_cfg(use_cbam=True)
        path = tmp_path / "model.lusk"
        train([small_video], mcfg, FusionConfig(),
              tiny_train_cfg(epochs=1, ssim_threshold=0.5),
              pair_count=4, checkpoint_path=path)
        assert mcfg == tiny_model_cfg(use_cbam=True)
        _, saved = load_model(path)
        assert saved.use_cbam

    def test_invalid_config_rejected(self, small_video):
        with pytest.raises(ValueError, match="ssim_threshold"):
            train([small_video], tiny_model_cfg(), FusionConfig(),
                  TrainConfig(ssim_threshold=0.0), pair_count=4)


def test_desk_step_peak_allocation():
    # one desk step (64 px, k=5, batch 32, seed 0) as train.train takes it;
    # 131.5 MB here while each conv kept its padded input phases until
    # backward, relu a mask and mse two differences, 94.1 MB without them
    video, _ = generate(SceneSpec(frames=33, size=64, seed=0))
    cfg = ModelConfig(input_size=64, k=5)
    (stacks,) = compute_stacks([video], cfg, FusionConfig())
    params = model.init_params(cfg, np.random.default_rng(0))
    opt = Adam(params)
    tracemalloc.start()
    try:
        src, tgt = Tensor(stacks[:32]), Tensor(stacks[1:])
        loss = mse(model.reconstruct(src, tgt, params, cfg), tgt)
        loss.item()
        loss.backward()
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in params.values())
    assert peak < 100e6, peak / 1e6


class TestLossCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [0.5, 0.25], [0.001, 0.001])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss,lr"
        assert lines[1].split(",")[0] == "0"
        assert float(lines[2].split(",")[1]) == 0.25
