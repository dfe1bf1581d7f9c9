"""The benchmark's workloads.

Each makes its inputs from the workload seed, sets up (several times when
untraced, so set-up time is a median), runs ops until the time budget is
spent, then checks the outputs. An op is one training step (desk_train,
paper_step) or one `infer_keypoints` frame (stream_infer). Untraced runs
time a calibration kernel between ops and around each set-up
(calibrate.py); the end-to-end times are scaled by it.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lusk import fusion, model, synth, tensor, train

import calibrate
import checks
from tracing import Patches

WORK_DIR = Path(__file__).resolve().parent.parent / ".bench_work"


@dataclass
class Run:
    """What one workload run measured."""

    clock: object = None
    setup_spans: list = field(default_factory=list)  # (start, end) of each set-up
    op_spans: list = field(default_factory=list)     # (start, end) of each op
    op_items: list = field(default_factory=list)     # pairs trained or frames inferred
    warmup: int = 0                               # leading ops left out of end-to-end
    peak_alloc_b: int = 0                         # bytes one op allocates at its peak
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)     # per-layer values only the workload knows

    def outcome(self, ok: bool, what: str):
        """Count one attempted op or output check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def raised(self, what: str):
        traceback.print_exc(file=sys.stderr)
        self.outcome(False, f"{what} raised")

    @property
    def op_s(self):
        """Unscaled duration of each op."""
        return [end - start for start, end in self.op_spans]


def _measure_peak_alloc(run, what, op):
    """Run one more op with tracemalloc on and keep its peak allocated bytes.
    Unlike ru_maxrss this does not depend on how the allocator reuses memory."""
    tracemalloc.start()
    try:
        op()
        run.peak_alloc_b = tracemalloc.get_traced_memory()[1]
        run.attempted += 1
    except Exception:
        run.raised(what)
    finally:
        tracemalloc.stop()


def _train_step(params, opt, cfg, src, tgt):
    """One training step as train.train takes it."""
    src, tgt = tensor.Tensor(src), tensor.Tensor(tgt)
    loss = tensor.mse(model.reconstruct(src, tgt, params, cfg), tgt)
    loss.item()
    loss.backward()
    opt.step()


def _check_stacks(run, stacks, frames, fusion_cfg):
    """Compare program stacks (fused input with TGA) with the reference."""
    for i, stack in stacks.items():
        err = checks.stack_error(stack, frames[i], fusion_cfg, fusion_cfg.attenuation_a)
        run.outcome(err <= checks.STACK_TOL,
                    f"frame {i} stack differs from reference by {err:.3g}")


def _check_keypoints(run, frames, indices, params, cfg, fusion_cfg):
    for i in indices:
        try:
            kp = model.infer_keypoints(frames[i], params, cfg, fusion_cfg)
        except Exception:
            run.raised(f"keypoints of frame {i}")
            continue
        run.outcome(checks.keypoints_ok(kp, cfg.input_size),
                    f"keypoints of frame {i} not finite or outside the image")


def _check_losses(run, losses):
    run.outcome(bool(losses) and bool(np.isfinite(losses).all()), "non-finite training loss")


# -- training workloads: desk_train and paper_step --------------------------------


@dataclass(frozen=True)
class TrainSize:
    frames: int
    size: int
    k: int
    pairs: int
    batch: int
    ssim_gate: bool
    epochs: int              # trained at least
    loss_ratio: bool         # check train.loss_ratio, taken at the last of those epochs
    setups: int
    check_frames: tuple
    cal_reps: int            # conv-kernel samples at each step boundary and set-up end


# The first epoch is warm-up: its steps are left out of the end-to-end
# metrics (on paper_step they ran about 25% slower than later ones), and
# the time budget starts after it.
DESK = TrainSize(frames=40, size=64, k=5, pairs=200, batch=32, ssim_gate=True, epochs=3,
                 loss_ratio=True, setups=3, check_frames=(0, 19, 39), cal_reps=3)
PAPER = TrainSize(frames=8, size=256, k=10, pairs=8, batch=4, ssim_gate=False, epochs=2,
                  loss_ratio=False, setups=3, check_frames=(0, 7), cal_reps=5)


class _Stop(Exception):
    """Ends a train.train call from one of its hooks."""


class _TrainCall:
    """One train.train call, observed through hooks on the functions it
    looks up: model.reconstruct marks each step, train.lr_at each epoch
    (and ends the call once the budget is spent), train.mse gives the
    losses, train.compute_stacks the stacks. A step runs from one
    reconstruct call to the next; the calibration samples taken there
    are left out of it."""

    def __init__(self, tracer, clock, cal_reps, seconds, min_epochs, setup_only=False):
        self.tracer, self.clock, self.cal_reps = tracer, clock, cal_reps
        self.seconds, self.min_epochs, self.setup_only = seconds, min_epochs, setup_only
        self.steps, self.sizes, self.losses, self.epoch_starts = [], [], [], []
        self.epoch_steps = []    # index of each epoch's first step
        self.params = self.stacks = self.start = self.first = self.end = None
        self._span = -1

    def _close_step(self, now):
        if self.steps and self.steps[-1][1] is None:
            self.steps[-1][1] = now
        if self._span >= 0:
            self.tracer.end(self._span)
            self._span = -1

    def run(self, *args):
        reconstruct, lr_at, mse, compute_stacks = (
            model.reconstruct, train.lr_at, train.mse, train.compute_stacks)

        def on_reconstruct(src, tgt, params, cfg):
            now = time.perf_counter()
            if self.first is None:
                self.first = now
            if self.setup_only:
                self.end = now
                raise _Stop
            self._close_step(now)
            self.clock.sample(self.cal_reps)
            self.steps.append([time.perf_counter(), None])
            self.sizes.append(src.shape[0])
            self.params = params
            self._span = self.tracer.begin("train.step")
            return reconstruct(src, tgt, params, cfg)

        def on_lr_at(epoch, cfg):
            now = time.perf_counter()
            if (epoch >= self.min_epochs and len(self.steps) > self.warmup
                    and now - self.steps[self.warmup][0] >= self.seconds):
                self.end = now
                self._close_step(now)
                raise _Stop
            self.epoch_starts.append(len(self.losses))
            self.epoch_steps.append(len(self.steps))
            return lr_at(epoch, cfg)

        def on_mse(a, b):
            loss = mse(a, b)
            self.losses.append(loss.item())
            return loss

        def on_compute_stacks(*a):
            self.stacks = compute_stacks(*a)
            return self.stacks

        patches = Patches()
        patches.set(model, "reconstruct", on_reconstruct)
        patches.set(train, "lr_at", on_lr_at)
        patches.set(train, "mse", on_mse)
        patches.set(train, "compute_stacks", on_compute_stacks)
        self.clock.sample(self.cal_reps)
        self.start = time.perf_counter()
        try:
            train.train(*args)
        except _Stop:
            pass
        finally:
            if self.end is None:
                self.end = time.perf_counter()
            patches.restore()
            self._close_step(self.end)
            self.clock.sample(self.cal_reps)
        return self

    @property
    def warmup(self):
        """Steps of the first epoch, once a second one has started."""
        return self.epoch_steps[1] if len(self.epoch_steps) > 1 else 0

    @property
    def setup_span(self):
        return self.start, self.first if self.first is not None else self.end


def _train_workload(seed, seconds, tracer, traced, size: TrainSize):
    """train.train on one synth video until the budget is spent at an epoch
    boundary. Set-up runs from entering train.train to its first
    model.reconstruct: pair sampling, stacks and init."""
    video, _ = synth.generate(synth.SceneSpec(frames=size.frames, size=size.size, seed=seed))
    fusion_cfg = fusion.FusionConfig()
    model_cfg = model.ModelConfig(input_size=size.size, k=size.k)

    def call(result):
        cfg = train.TrainConfig(epochs=1_000_000, batch_size=size.batch, seed=seed,
                                use_ssim_gate=size.ssim_gate)
        return result.run([video], model_cfg, fusion_cfg, cfg, size.pairs)

    clock = calibrate.NullClock() if traced else calibrate.HostClock("conv")
    run = Run(clock=clock)
    for _ in range(0 if traced else size.setups - 1):
        run.setup_spans.append(call(_TrainCall(tracer, clock, size.cal_reps, seconds,
                                               size.epochs, True)).setup_span)
    result = _TrainCall(tracer, clock, size.cal_reps, seconds, size.epochs)
    try:
        call(result)
    except Exception:  # the step in progress fails; it is counted with the steps below
        traceback.print_exc(file=sys.stderr)
        run.failed += 1
        run.problems.append("training step raised")
    finally:
        tracer.stop()
    if not result.steps:
        return run
    run.setup_spans.append(result.setup_span)
    run.op_spans = [tuple(step) for step in result.steps]
    run.op_items = result.sizes
    run.warmup = result.warmup
    run.attempted += len(result.steps)
    if run.failed:
        return run
    _check_losses(run, result.losses)
    if size.loss_ratio:
        means = checks.epoch_means(result.losses, result.epoch_starts)
        ratio = means[size.epochs - 1] / means[0]
        run.outcome(ratio < checks.LOSS_RATIO_MAX,
                    f"loss ratio {ratio:.3g} not below {checks.LOSS_RATIO_MAX}")
        run.layer["train.loss_ratio"] = ratio
    run.layer["train.sample_pairs.kept"] = size.pairs
    stacks = result.stacks[0]
    _check_stacks(run, {i: stacks[i] for i in size.check_frames}, video, fusion_cfg)
    _check_keypoints(run, video, size.check_frames[:2], result.params, model_cfg, fusion_cfg)
    opt = tensor.Adam(result.params)
    _measure_peak_alloc(run, "memory probe step", lambda: _train_step(
        result.params, opt, model_cfg, stacks[:size.batch], stacks[1:size.batch + 1]))
    return run


def desk_train(seed, seconds, tracer, traced, size=DESK):
    """The ROADMAP desk run: 64x64, k=5, 200 SSIM-gated pairs, batch 32,
    fused input with TGA."""
    return _train_workload(seed, seconds, tracer, traced, size)


def paper_step(seed, seconds, tracer, traced, size=PAPER):
    """Training steps at the paper's ModelConfig defaults (256x256, k=10,
    base_channels=32), batch 4, fused input with TGA; the SSIM gate is off
    because memory and step time are the point here."""
    return _train_workload(seed, seconds, tracer, traced, size)


# -- stream_infer ---------------------------------------------------------------


@dataclass(frozen=True)
class StreamSize:
    frames: int = 1000
    size: int = 64
    k: int = 5
    setups: int = 11
    check_frames: tuple = (0, 499, 999)
    warmup: int = 50         # leading frames left out of the end-to-end metrics


# fft-kernel samples: one every STREAM_CAL_EVERY frames, and
# STREAM_SETUP_CAL_REPS before and after each set-up
STREAM_CAL_EVERY = 2
STREAM_SETUP_CAL_REPS = 5


def stream_infer(seed, seconds, tracer, traced, size=StreamSize()):
    """Forward-only keypoints at batch 1 over a long video, as `lusk infer`
    does: load a seeded checkpoint and the frames, then one
    infer_keypoints call per frame, cycling until at least one pass is done
    and the budget, counted from the end of warm-up, is spent."""
    work = WORK_DIR / f"stream-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = model.ModelConfig(input_size=size.size, k=size.k)
        ckpt = work / "model.lusk"
        model.save_model(ckpt, model.init_params(cfg, np.random.default_rng(seed)), cfg)
        video, truth = synth.generate(synth.SceneSpec(frames=size.frames, size=size.size, seed=seed))
        synth.save_dataset(video, truth, work / "frames")
        del video
        clock = calibrate.NullClock() if traced else calibrate.HostClock("fft")
        run = Run(clock=clock)
        for _ in range(1 if traced else size.setups):
            clock.sample(STREAM_SETUP_CAL_REPS)
            start = time.perf_counter()
            params, cfg = model.load_model(ckpt)
            frames = synth.load_frames(work / "frames")
            run.setup_spans.append((start, time.perf_counter()))
        clock.sample(STREAM_SETUP_CAL_REPS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fusion_cfg = fusion.FusionConfig()

    stacks, current = {}, [-1]
    preprocess = model.preprocess_frame

    def on_preprocess(frame, *a, **kw):
        stack = preprocess(frame, *a, **kw)
        if current[0] in size.check_frames:
            stacks.setdefault(current[0], stack)
        return stack

    patches = Patches()
    patches.set(model, "preprocess_frame", on_preprocess)
    try:
        warmup = min(size.warmup, len(frames) // 2)
        begin = None
        i = 0
        while i < len(frames) or begin is None or time.perf_counter() - begin < seconds:
            if i == warmup:
                begin = time.perf_counter()
            if i % STREAM_CAL_EVERY == 0:
                clock.sample()
            current[0] = i % len(frames)
            start = time.perf_counter()
            try:
                kp = model.infer_keypoints(frames[current[0]], params, cfg, fusion_cfg)
            except Exception:
                run.op_spans.append((start, time.perf_counter()))
                run.raised(f"frame {current[0]}")
            else:
                run.op_spans.append((start, time.perf_counter()))
                run.outcome(checks.keypoints_ok(kp, cfg.input_size),
                            f"keypoints of frame {current[0]} not finite or outside the image")
            i += 1
        clock.sample(STREAM_CAL_EVERY)
    finally:
        patches.restore()
        tracer.stop()
    run.op_items = [1] * i
    run.warmup = warmup
    _check_stacks(run, stacks, frames, fusion_cfg)
    _measure_peak_alloc(run, "memory probe frame", lambda: model.infer_keypoints(
        frames[0], params, cfg, fusion_cfg))
    return run


WORKLOADS = {"desk_train": desk_train, "stream_infer": stream_infer, "paper_step": paper_step}
