"""End-to-end acceptance checks for the whole pipeline.

Each test covers one numbered criterion and prints a single pass/fail
line (visible with pytest -s). The training-dependent criteria share one
session-scoped desk-scale run.
"""

import time

import numpy as np
import pytest
import scipy.fft

from lusk import fusion, model, train as training
from lusk.evaluate import DEFAULT_DELTA, pleura_accuracy
from lusk.fusion import FusionConfig
from lusk.model import (ModelConfig, encode, init_params, keynet, refine, render_heatmaps,
                        transport)
from lusk.synth import SceneSpec, generate
from lusk.tensor import (Tensor, concat, conv2d, instance_norm, mse, spatial_softmax,
                         upsample_conv2d, upsample_nearest2x)
from lusk.train import PairSamplingError, TrainConfig, lr_at
from oracles import gradcheck, monogenic_direct


def _line(number, name, ok):
    print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# -- criterion 1: gradient correctness ----------------------------------------


def _square(y):
    return y * y


_OPS = [
    ("add", lambda a, b: (a + b).sum(), [(3, 4), (3, 4)]),
    ("mul", lambda a, b: (a * b).sum(), [(3, 4), (3, 4)]),
    ("exp", lambda a: (a * 0.3).exp().sum(), [(4, 4)]),
    ("sigmoid", lambda a: a.sigmoid().sum(), [(5, 5)]),
    ("relu", lambda a: (a + 0.6).relu().sum(), [(4, 4)]),
    ("matmul", lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)]),
    ("mean", lambda a: (a * a).mean(axis=(0, 1)), [(4, 4)]),
    ("max", lambda a: a.max(axis=1).sum(), [(4, 6)]),
    ("concat", lambda a, b: _square(concat([a, b], axis=1)).sum(), [(2, 3), (2, 2)]),
    ("conv2d", lambda x, w: _square(conv2d(x, w, Tensor(np.zeros(3)), stride=2,
                                          padding=1)).sum(),
     [(1, 2, 6, 6), (3, 2, 3, 3)]),
    ("upsample", lambda a: _square(upsample_nearest2x(a)).sum(), [(1, 2, 3, 3)]),
    ("upsample_conv2d", lambda x, w, b: _square(upsample_conv2d(x, w, b)).sum(),
     [(1, 2, 3, 2), (3, 2, 3, 3), (3,)]),
    ("spatial_softmax", lambda x: (spatial_softmax(x) * Tensor(
        np.random.default_rng(0).random((1, 2, 5, 5)))).sum(), [(1, 2, 5, 5)]),
    ("instance_norm", lambda a: (instance_norm(a) * Tensor(
        np.random.default_rng(1).random((1, 2, 4, 4)))).sum(), [(1, 2, 4, 4)]),
    ("mse", lambda a, b: mse(a, b), [(3, 4), (3, 4)]),
]


def _composed_gradcheck():
    cfg = ModelConfig(input_size=16, k=2, base_channels=4)
    params = init_params(cfg, np.random.default_rng(0))
    names = sorted(params)
    rng = np.random.default_rng(1)
    stack_t = rng.random((1, 10, 16, 16))
    # the source branch is held constant in the transport step, so feed it
    # precomputed constants; finite differences then agree with backprop
    params64 = {n: Tensor(params[n].data.astype(np.float64)) for n in names}
    phi_s = encode(Tensor(rng.random((1, 10, 16, 16))), params64, cfg).data
    comb_s = render_heatmaps(*keynet(Tensor(rng.random((1, 10, 16, 16))), params64, cfg),
                             4, cfg.heatmap_sigma).data

    def fn(*tensors):
        p = dict(zip(names, tensors))
        tgt = Tensor(stack_t)
        phi_t = encode(tgt, p, cfg)
        comb_t = render_heatmaps(*keynet(tgt, p, cfg), 4, cfg.heatmap_sigma)
        transported = transport(Tensor(phi_s), phi_t, Tensor(comb_s), comb_t)
        return mse(refine(transported, p, cfg), tgt)

    return gradcheck(fn, inputs=[params[n] for n in names],
                     tolerance=1e-3, max_entries=6, seed=2)


def test_criterion_1_gradients():
    start = time.monotonic()
    op_reports = {name: gradcheck(fn, shapes, tolerance=1e-4, seed=7)
                  for name, fn, shapes in _OPS}
    composed = _composed_gradcheck()
    elapsed = time.monotonic() - start
    failed_ops = [n for n, r in op_reports.items() if not r.passed]
    ok = not failed_ops and composed.passed and elapsed < 120.0
    if not ok:
        print(f"failed ops: {failed_ops}, composed: {composed}, {elapsed:.1f}s")
    _line(1, "gradient correctness", ok)


# -- criterion 2: oracle equivalence -------------------------------------------


def _ssim_oracle(a, b, window, c1=0.01 ** 2, c2=0.03 ** 2):
    wh = window.shape[0]
    vals = []
    for i in range(a.shape[0] - wh + 1):
        for j in range(a.shape[1] - wh + 1):
            pa, pb = a[i:i + wh, j:j + wh], b[i:i + wh, j:j + wh]
            mu_a, mu_b = (window * pa).sum(), (window * pb).sum()
            va = (window * pa * pa).sum() - mu_a ** 2
            vb = (window * pb * pb).sum() - mu_b ** 2
            cov = (window * pa * pb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2)) /
                        ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def test_criterion_2_fusion_oracles():
    rng = np.random.default_rng(42)
    mono_ok = True
    for _ in range(10):
        frame = rng.random((16, 16))
        a = fusion.monogenic(scipy.fft.rfft2(frame), frame.shape, 6.0, 0.55)
        b = monogenic_direct(frame, 6.0, 0.55)
        diff = max(np.abs(a.m1 - b.m1).max(), np.abs(a.m2 - b.m2).max(),
                   np.abs(a.m3 - b.m3).max())
        mono_ok = mono_ok and diff <= 1e-8
    win = fusion._gaussian_window(11, 1.5)
    ssim_ok = True
    for _ in range(5):
        a, b = rng.random((16, 16)), rng.random((16, 16))
        ssim_ok = ssim_ok and abs(fusion.ssim(a, b) - _ssim_oracle(a, b, win)) <= 1e-10
    _line(2, "fusion oracle equivalence", mono_ok and ssim_ok)


# -- criterion 3: bright-line localization --------------------------------------


def test_criterion_3_line_localization():
    size, row = 64, 20
    frame = np.full((size, size), 0.05)
    frame[row, :] = 1.0
    cfg = FusionConfig(lambdas=(6.0, 9.0, 12.0))
    ok = True
    spectrum = scipy.fft.rfft2(frame)
    for lam in cfg.lambdas:
        m = fusion.monogenic(spectrum, frame.shape, lam, cfg.sigma0)
        fs = fusion.phase_symmetry(m, cfg.thresh, cfg.epsilon)
        fs_row = int(np.argmax(fs.mean(axis=1)))
        ok = ok and abs(fs_row - row) <= 1
    stack = fusion.fuse(frame, cfg)
    for channel in stack:
        fused_row = int(np.argmax(channel.mean(axis=1)))
        ok = ok and abs(fused_row - row) <= 1
    _line(3, "line localization", ok)


# -- criterion 4: default-constant fidelity --------------------------------------


def test_criterion_4_default_constants():
    f = FusionConfig()
    t = TrainConfig()
    m = ModelConfig()
    checks = [
        f.sigma0 == 0.55,
        len(f.lambdas) == 10,
        min(f.lambdas) == 3.0 and max(f.lambdas) == 30.0,
        t.ssim_threshold == 0.85,
        DEFAULT_DELTA == 5.0,
        m.k == 10,
        t.epochs == 60,
        t.batch_size == 32,
        t.lr0 == 0.001 and t.lr_decay == 0.95 and t.lr_interval == 6,
        lr_at(6, t) == 0.00095,
        lr_at(13, t) == 0.001 * 0.95 ** 2,
    ]
    _line(4, "default constants", all(checks))


# -- criteria 5 and 6: desk-scale training and tracking ---------------------------


DESK_MODEL = dict(input_size=64, k=5)
DESK_TRAIN = dict(epochs=30, batch_size=32, seed=0)
DESK_PAIRS = 200


@pytest.fixture(scope="session")
def desk_run():
    video, _ = generate(SceneSpec(seed=0))
    start = time.monotonic()
    result = training.train([video], ModelConfig(**DESK_MODEL), FusionConfig(),
                            TrainConfig(**DESK_TRAIN), DESK_PAIRS)
    elapsed = time.monotonic() - start
    return result, elapsed


def test_criterion_5_desk_training(desk_run):
    result, elapsed = desk_run
    video, _ = generate(SceneSpec(seed=0))
    repeat = training.train([video], ModelConfig(**DESK_MODEL), FusionConfig(),
                            TrainConfig(**DESK_TRAIN), DESK_PAIRS)
    deterministic = result.losses == repeat.losses and all(
        np.array_equal(result.params[n].data, repeat.params[n].data)
        for n in result.params)
    loss_ok = result.losses[-1] <= 0.5 * result.losses[0]
    time_ok = elapsed < 1800.0
    if not (loss_ok and time_ok and deterministic):
        print(f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}, "
              f"{elapsed:.0f}s, deterministic={deterministic}")
    _line(5, "desk-scale training", loss_ok and time_ok and deterministic)


def test_criterion_6_desk_tracking(desk_run):
    result, _ = desk_run
    video, truth = generate(SceneSpec(frames=40, seed=99))
    cfg = ModelConfig(**DESK_MODEL)
    keypoints = np.stack([
        model.infer_keypoints(frame, result.params, cfg, FusionConfig())
        for frame in video])
    _, _, acc = pleura_accuracy(keypoints, truth.pleura_rows, delta=5.0)
    # the reported-count arithmetic for the accuracy metric
    correct, total, ratio = pleura_accuracy(
        np.zeros((1081, 1, 2)), [0.0] * 950 + [100.0] * 131, delta=5.0)
    ratio_ok = (correct, total) == (950, 1081) and ratio == 950 / 1081
    if acc < 0.70:
        print(f"held-out pleura accuracy {acc:.3f}")
    _line(6, "desk-scale tracking", acc >= 0.70 and ratio_ok)


# -- criterion 7: transport identities ---------------------------------------------


def test_criterion_7_transport_identities():
    rng = np.random.default_rng(5)
    phi_s = Tensor(rng.random((2, 4, 8, 8)), requires_grad=True)
    phi_t = Tensor(rng.random((2, 4, 8, 8)), requires_grad=True)
    h_s = Tensor(rng.random((2, 1, 8, 8)), requires_grad=True)
    h_t = Tensor(rng.random((2, 1, 8, 8)), requires_grad=True)
    zero = Tensor(np.zeros((2, 1, 8, 8)))
    one = Tensor(np.ones((2, 1, 8, 8)))
    id_zero = np.array_equal(transport(phi_s, phi_t, zero, zero).data, phi_s.data)
    id_one = np.array_equal(transport(phi_s, phi_t, zero, one).data, phi_t.data)
    transport(phi_s, phi_t, h_s, h_t).sum().backward()
    stopped_zero = ((phi_s.grad is None or np.all(phi_s.grad == 0.0)) and
                    (h_s.grad is None or np.all(h_s.grad == 0.0)))
    live_nonzero = (phi_t.grad is not None and np.abs(phi_t.grad).max() > 0 and
                    h_t.grad is not None and np.abs(h_t.grad).max() > 0)
    _line(7, "transport identities", id_zero and id_one and stopped_zero
          and live_nonzero)


# -- criterion 8: ablation switch integrity ------------------------------------------


# the functions train() reaches through module globals, by the stage each runs
STAGES = {(fusion, "resize_bilinear"): "resize", (fusion, "tga"): "tga",
          (fusion, "fuse"): "fuse", (fusion, "norm_stack"): "norm_stack",
          (model, "encode"): "encode", (model, "cbam"): "cbam",
          (model, "keynet"): "keynet", (model, "transport"): "transport",
          (model, "refine"): "refine"}


def test_criterion_8_ablation_traces(monkeypatch):
    video, _ = generate(SceneSpec(frames=8, size=32, seed=0))
    mcfg_kw = dict(input_size=32, k=3, base_channels=8)
    combos = [  # (model switches, fusion switches, train switches, expected trace)
        (dict(), dict(), dict(), ["resize", "tga", "fuse", "ssim_gate", "encode",
                                  "keynet", "transport", "refine"]),
        (dict(), dict(attenuation_a=0.0), dict(), ["resize", "tga", "fuse", "ssim_gate",
                                                   "encode", "keynet", "transport", "refine"]),
        (dict(input_mode="norm_stack"), dict(), dict(use_ssim_gate=False),
         ["resize", "tga", "norm_stack", "encode",
          "keynet", "transport", "refine"]),
        (dict(use_cbam=True), dict(), dict(), ["resize", "tga", "fuse", "ssim_gate", "encode",
                                               "cbam", "keynet", "transport", "refine"]),
    ]
    ran = []

    def recorded(fn, stage):
        def wrapper(*args, **kwargs):
            ran.append(stage)
            return fn(*args, **kwargs)
        return wrapper

    for (module, name), stage in STAGES.items():
        monkeypatch.setattr(module, name, recorded(getattr(module, name), stage))
    ok = True
    for model_switches, fusion_switches, train_switches, expected in combos:
        tcfg = TrainConfig(epochs=1, batch_size=4, seed=0, ssim_threshold=0.5,
                           **train_switches)
        mcfg = ModelConfig(**mcfg_kw, **model_switches)
        fcfg = FusionConfig(**fusion_switches)
        ran.clear()
        training.train([video], mcfg, fcfg, tcfg, pair_count=4)
        # stages in the order they first ran; pairs are sampled before any stack
        ok = ok and list(dict.fromkeys(ran)) == [s for s in expected if s != "ssim_gate"]
        # the gate is seen by its effect: with every pair scored below the
        # threshold, a gated run finds no pairs and an ungated one trains
        with monkeypatch.context() as low:
            low.setattr(fusion, "ssim", lambda a, b: 0.0)
            try:
                training.train([video], mcfg, fcfg, tcfg, pair_count=4)
                gated = False
            except PairSamplingError:
                gated = True
        ok = ok and gated == ("ssim_gate" in expected)
    # attenuation_a=0 turns TGA off: each stack is the fused resized frame, unscaled
    fcfg = FusionConfig(attenuation_a=0.0)
    stacks = training.compute_stacks([video], ModelConfig(**mcfg_kw), fcfg)[0]
    unscaled = [fusion.fuse(fusion.resize_bilinear(frame, 32, 32), fcfg) for frame in video]
    ok = ok and np.array_equal(stacks, np.stack(unscaled))
    _line(8, "ablation switch integrity", ok)
