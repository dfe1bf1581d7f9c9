"""Layer timings measured from outside the program.

Each layer's public function is replaced, in the module namespace its
callers look it up in, by a wrapper that records a span (name, start, end,
parent). conv2d wrappers also wrap the `_backward` closure of the tensor
they return, name the call by finding its weight tensor among the model's
parameters, and track the bytes the call allocates with tracemalloc.
`Tracer.stop` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from lusk import fusion, model, synth, tensor, train

CONV_LAYERS = ("encoder.conv1", "encoder.conv2", "keynet.conv1", "keynet.conv2",
               "keynet.head", "refine.conv1", "refine.conv2")

# (owner, attribute, span name): plain timing wrappers
TIMED = [
    (model, "encode", "model.encode"),
    (model, "keynet", "model.keynet"),
    (model, "render_heatmaps", "model.render_heatmaps"),
    (model, "transport", "model.transport"),
    (model, "refine", "model.refine"),
    (model, "reconstruct", "model.reconstruct"),
    (model, "infer_keypoints", "model.infer_keypoints"),
    (model, "preprocess_frame", "model.preprocess_frame"),
    (model, "load_model", "model.load_model"),
    (model, "instance_norm", "tensor.instance_norm.fwd"),
    (model, "upsample_nearest2x", "tensor.upsample_nearest2x.fwd"),
    (model, "spatial_softmax", "tensor.spatial_softmax.fwd"),
    (tensor.Tensor, "backward", "tensor.backward"),
    (tensor.Adam, "step", "tensor.adam.step"),
    (fusion, "fuse", "fusion.fuse"),
    (fusion, "monogenic", "fusion.monogenic"),
    (fusion, "local_phase", "fusion.local_phase"),
    (fusion, "phase_symmetry", "fusion.phase_symmetry"),
    (fusion, "ibs", "fusion.ibs"),
    (fusion, "prepare_frame", "fusion.prepare_frame"),
    (fusion, "ssim", "fusion.ssim"),
    (train, "sample_pairs", "train.sample_pairs"),
    (train, "compute_stacks", "train.compute_stacks"),
    (synth, "load_frames", "synth.load_frames"),
]
CONV_CALLERS = (model, train)
PARAM_SOURCES = ("init_params", "load_model")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class NullTracer:
    """Stands in for Tracer in untraced runs."""

    def begin(self, name):
        return -1

    def end(self, idx):
        pass

    def stop(self):
        pass


class Tracer:
    """In-memory span recorder with per-call conv2d accounting."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._open: list[int] = []
        self.conv_alloc = defaultdict(int)    # layer -> largest bytes one call allocated
        self.conv_gflop = defaultdict(float)  # layer -> forward GFLOP of the largest call
        self._layer_of: dict[int, str] = {}   # id(weight tensor) -> layer name
        self._patches = Patches()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def register(self, params: dict):
        for key, value in params.items():
            if key.endswith(".w"):
                self._layer_of[id(value)] = key[:-2]

    # -- wrappers -----------------------------------------------------------

    def timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    def _measured(self, fn, name, layer):
        """Run fn inside a span, recording the peak bytes it allocated."""
        idx = self.begin(name)
        tracemalloc.start()
        try:
            out = fn()
            self.conv_alloc[layer] = max(self.conv_alloc[layer],
                                         tracemalloc.get_traced_memory()[1])
            return out
        finally:
            tracemalloc.stop()
            self.end(idx)

    def conv(self, fn):
        @functools.wraps(fn)
        def wrapper(x, w, b=None, stride=1, padding=0):
            layer = self._layer_of.get(id(w), "other")
            out = self._measured(lambda: fn(x, w, b, stride=stride, padding=padding),
                                 f"tensor.conv2d.{layer}.fwd", layer)
            o, c, kh, kw = w.shape
            n, _, hp, wp = out.shape
            self.conv_gflop[layer] = max(self.conv_gflop[layer],
                                         2.0 * n * o * c * kh * kw * hp * wp / 1e9)
            if out._backward is not None:
                backward = out._backward
                out._backward = lambda g: self._measured(
                    lambda: backward(g), f"tensor.conv2d.{layer}.bwd", layer)
            return out
        return wrapper

    def registering(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.register(result[0] if isinstance(result, tuple) else result)
            return result
        return wrapper

    def install(self):
        for owner, attr, name in TIMED:
            self._patches.set(owner, attr, self.timed(owner.__dict__[attr], name))
        for owner in CONV_CALLERS:
            self._patches.set(owner, "conv2d", self.conv(owner.conv2d))
        for attr in PARAM_SOURCES:
            self._patches.set(model, attr, self.registering(getattr(model, attr)))
        return self

    def stop(self):
        """Put every original back; spans recorded so far are kept."""
        self._patches.restore()

    # -- summary ------------------------------------------------------------

    def totals(self):
        """name -> [calls, total seconds, total self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out


# -- per-layer metrics ------------------------------------------------------------


def _per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("tensor.conv2d.fwd_ms", "ms", "lower"), ("tensor.conv2d.bwd_ms", "ms", "lower"),
            ("tensor.conv2d.op_share", "ratio", "lower")]
    for layer in CONV_LAYERS:
        spec += [(f"tensor.conv2d.{layer}.fwd_ms", "ms", "lower"),
                 (f"tensor.conv2d.{layer}.bwd_ms", "ms", "lower"),
                 (f"tensor.conv2d.{layer}.alloc_mb", "MB", "lower"),
                 (f"tensor.conv2d.{layer}.computed_gflop", "GFLOP", "lower")]
    spec.append(("tensor.conv2d.computed_b32_256_buffer_mb", "MB", "lower"))
    spec += [(f"tensor.{name}", "ms", "lower") for name in (
        "backward.ms", "backward.self_ms", "adam.step_ms", "instance_norm.fwd_ms",
        "upsample_nearest2x.fwd_ms", "spatial_softmax.fwd_ms")]
    for name in ("encode", "keynet", "render_heatmaps", "transport", "refine", "reconstruct"):
        spec += [(f"model.{name}.ms", "ms", "lower"), (f"model.{name}.self_ms", "ms", "lower")]
    spec += [(f"model.{name}.ms", "ms", "lower")
             for name in ("infer_keypoints", "preprocess_frame", "load_model")]
    for name in ("fuse", "monogenic", "local_phase", "phase_symmetry", "ibs",
                 "prepare_frame", "ssim"):
        spec += [(f"fusion.{name}.ms", "ms", "lower"), (f"fusion.{name}.calls", "count", "lower")]
    spec += [("train.sample_pairs.ms", "ms", "lower"),
             ("train.sample_pairs.accept_ratio", "ratio", "higher"),
             ("train.compute_stacks.ms", "ms", "lower"), ("train.step.ms", "ms", "lower"),
             ("train.loss_ratio", "ratio", "lower"), ("synth.load_frames.ms", "ms", "lower"),
             ("trace.op_ms_p50", "ms", "lower"), ("trace.spans", "count", "lower")]
    return spec


PER_LAYER = _per_layer_spec()


def paper_b32_buffer_mb(batch: int = 32) -> float:
    """Computed im2col bytes of one training step at the paper's ModelConfig
    (256x256, base_channels 32): every conv call keeps its column matrix
    (in_channels*k*k by out_h*out_w per sample, float32) for backward, and
    backward adds the largest column gradient on top."""
    cfg = model.ModelConfig()
    s, c_in, c1, c2 = cfg.input_size, cfg.input_channels, cfg.base_channels, cfg.feature_channels
    convs = [  # (in channels, kernel, output side, calls per step)
        (c_in, 3, s // 2, 4),   # encoder.conv1, keynet.conv1; source and target
        (c1, 3, s // 4, 4),     # encoder.conv2, keynet.conv2
        (c2, 1, s // 4, 2),     # keynet.head
        (c2, 3, s // 2, 1),     # refine.conv1
        (c1, 3, s, 1),          # refine.conv2
    ]
    cols = [batch * c * k * k * side * side * 4 for c, k, side, _ in convs]
    return (sum(b * calls for b, (*_, calls) in zip(cols, convs)) + max(cols)) / 2 ** 20


def layer_metrics(tracer: Tracer, run) -> dict:
    """Every per-layer metric. A `.ms`/`_ms` value is the mean wall time of
    one call of that span, `.self_ms` its mean self time and `.calls` its
    call count; tensor.conv2d.fwd_ms/bwd_ms sum every layer per op."""
    totals = tracer.totals()
    ops = len(run.op_s)
    conv = {d: sum(t[1] for n, t in totals.items()
                   if n.startswith("tensor.conv2d.") and n.endswith(d)) for d in (".fwd", ".bwd")}
    ssim_calls = totals["fusion.ssim"][0] if "fusion.ssim" in totals else 0
    kept = run.layer.get("train.sample_pairs.kept", 0)
    special = {
        "tensor.conv2d.fwd_ms": 1000.0 * conv[".fwd"] / ops,
        "tensor.conv2d.bwd_ms": 1000.0 * conv[".bwd"] / ops,
        "tensor.conv2d.op_share": (conv[".fwd"] + conv[".bwd"]) / sum(run.op_s),
        "tensor.conv2d.computed_b32_256_buffer_mb": paper_b32_buffer_mb(),
        "train.sample_pairs.accept_ratio": kept / ssim_calls if ssim_calls else 0.0,
        "train.loss_ratio": run.layer.get("train.loss_ratio", 0.0),
        "trace.op_ms_p50": 1000.0 * float(np.median(run.op_s)),
        "trace.spans": len(tracer.spans),
    }
    for layer in CONV_LAYERS:
        special[f"tensor.conv2d.{layer}.alloc_mb"] = tracer.conv_alloc[layer] / 2 ** 20
        special[f"tensor.conv2d.{layer}.computed_gflop"] = tracer.conv_gflop[layer]

    def from_span(name):
        """`<span>.calls`, or the mean per call of `<span>.self_ms` or `<span>.ms`/`_ms`."""
        for suffix, column in ((".calls", 0), (".self_ms", 2), (".ms", 1), ("_ms", 1)):
            if name.endswith(suffix):
                row = totals.get(name[:-len(suffix)], (0, 0.0, 0.0))
                if column == 0:
                    return row[0]
                return 1000.0 * row[column] / row[0] if row[0] else 0.0
        raise KeyError(name)

    return {name: (special[name] if name in special else from_span(name), unit)
            for name, unit, _ in PER_LAYER}


def write_spans(tracer: Tracer, path):
    """Write the recorded spans as JSON: names plus [name index, start, end, parent] rows."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in tracer.spans]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"names": names, "spans": rows}, f, separators=(",", ":"))
