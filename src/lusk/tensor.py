"""Dense tensors with reverse-mode automatic differentiation.

Sized for desk-scale CNNs on CPU: inputs up to 256x256, a few dozen
channels. Values are numpy arrays; the graph is a DAG of closures built
eagerly during the forward pass. Training runs in float32 by default,
gradient checking in float64.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import as_strided

CHECKPOINT_MAGIC = b"LUSK"
CHECKPOINT_VERSION = 3  # v3 models keep their config as text; v1 and v2 files are refused
GATHER_BYTES = 1 << 20  # a conv's block buffer, of a side's stacked terms, holds at most this
_ONE_TERM = ((slice(0, 1), 0, 0, slice(0, 1)),)  # a conv side of one phase and fold row, unshifted
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")  # OpenBLAS's order


class CheckpointError(ValueError):
    """A checkpoint that cannot be read or written, is truncated or is malformed."""


class ShapeError(ValueError):
    """Operand shapes do not conform for an operation."""

    def __init__(self, op: str, *shapes):
        pretty = " vs ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


def _as_array(data):
    a = np.asarray(data)
    if a.dtype == np.float64 or a.dtype == np.float32:
        return a
    return a.astype(np.float32)


def _op(data, parents, backward) -> "Tensor":
    """The output of an op: linked to its parents and backward closure, and
    itself requiring a gradient, only when some parent requires one."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A dense array plus an optional gradient and autodiff linkage;
    requires_grad is true for every tensor a gradient reaches.

    Tensors are treated as immutable once built; only the optimizer
    mutates parameter data in place between steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward = backward

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    # -- graph construction helpers -------------------------------------------

    @staticmethod
    def _lift(value, like: "Tensor") -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=like.dtype))

    def _accumulate(self, g: np.ndarray, fresh: bool = False):
        """Add g into self.grad. The first g is copied, since add's backward
        hands one g to both parents, unless it is fresh (built by the
        backward that passes it and held by nothing else) and already
        C-order of self's dtype."""
        if self.requires_grad:
            if self.grad is not None:
                self.grad += g
            elif fresh and g.dtype == self.data.dtype and g.flags.c_contiguous:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype, order="C")

    # -- elementwise arithmetic ----------------------------------------------

    def _binary(self, other, op_name, fwd, bwd_a, bwd_b, fresh=False):
        other = Tensor._lift(other, self)
        try:
            out_data = fwd(self.data, other.data)
        except ValueError:
            raise ShapeError(op_name, self.shape, other.shape)

        def backward(g):
            self._accumulate(_unbroadcast(bwd_a(g, self.data, other.data), self.shape), fresh)
            other._accumulate(_unbroadcast(bwd_b(g, self.data, other.data), other.shape), fresh)

        return _op(out_data, (self, other), backward)

    def __add__(self, other):
        return self._binary(other, "add", np.add,
                            lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "sub", np.subtract,
                            lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return Tensor._lift(other, self) - self

    def __mul__(self, other):
        return self._binary(other, "mul", np.multiply,
                            lambda g, a, b: g * b, lambda g, a, b: g * a, fresh=True)

    __rmul__ = __mul__

    # -- unary nonlinearities ------------------------------------------------

    def exp(self):
        e = np.exp(self.data)
        return _op(e, (self,), lambda g: self._accumulate(g * e, fresh=True))

    def relu(self):  # max(x, 0) > 0 exactly where x > 0, so the output is the mask
        out = np.maximum(self.data, 0.0)
        return _op(out, (self,), lambda g: self._accumulate(g * (out > 0), fresh=True))

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.data))
        return _op(s, (self,), lambda g: self._accumulate(g * s * (1.0 - s), fresh=True))

    def clamp(self, lo: float, hi: float):
        mask = (self.data >= lo) & (self.data <= hi)
        return _op(np.clip(self.data, lo, hi), (self,),
                   lambda g: self._accumulate(g * mask, fresh=True))

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return _op(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims=False):
        total = self.sum(axis=axis, keepdims=keepdims)
        return total * (total.size / self.size)

    def max(self, axis=None, keepdims=False):
        def backward(g):
            mk = self.data.max(axis=axis, keepdims=True)
            mask = self.data == mk
            count = mask.sum(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape) * mask / count)

        return _op(self.data.max(axis=axis, keepdims=keepdims), (self,), backward)

    # -- shape manipulation -----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return _op(self.data.reshape(shape), (self,),
                   lambda g: self._accumulate(g.reshape(old)))

    # -- backward pass -------------------------------------------------------------

    def backward(self):
        """Backpropagate from a scalar loss.

        Gradients of all reachable tensors are overwritten, not
        accumulated across calls. The graph is released as it goes: once
        an interior node's closure has run, it drops its closure and
        parents (`_parents` becomes None), so a node nothing else holds is
        freed with its data, gradient and saved arrays. Leaves, and
        interior tensors the caller holds, keep `.grad`. A backward that
        reaches a released node raises ValueError before any gradient
        changes.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise ValueError("backward reaches a graph that an earlier backward released")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node._parents = node._backward = None


def stop_gradient(t: Tensor) -> Tensor:
    """Pass values through unchanged and block backpropagation."""
    return Tensor(t.data, requires_grad=False)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sl)])

    return _op(out_data, tensors, backward)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements; its graph node keeps a - b alone."""
    if a.shape != b.shape:
        raise ShapeError("mse", a.shape, b.shape)
    d = a.data - b.data
    scale = np.asarray(1.0 / d.size, d.dtype)

    def backward(g):
        t = np.broadcast_to(g * scale, d.shape) * d
        a._accumulate(t + t, fresh=True)
        b._accumulate(-(t + t), fresh=True)

    return _op((d * d).sum() * scale, (a, b), backward)


# -- convolution and friends -----------------------------------------------------


def _gather(arr, side, buf, lo, k):
    """Columns lo..lo+k of a conv's side as a (rows * channels, k) view, or stacked in buf."""
    parts = [arr[phase, :, lo + at:lo + at + k] for phase, at, _ in side]
    return (parts[0] if buf is None else np.concatenate(parts, out=buf[:, :, :k])).reshape(-1, k)


def _scatter(arr, side, buf, lo, k, lhs, rhs):
    """lhs @ rhs into columns lo..lo+k of a conv's side: in place, or from buf term by term."""
    block = _gather(arr, side, None, lo, k) if buf is None else buf[:, :, :k]
    np.matmul(lhs, rhs, out=block.reshape(-1, k))
    for phase, at, rows in side if buf is not None else ():
        arr[phase, :, lo + at:lo + at + k] += block[rows]


_worker = (0, None)  # (pid, executor): the thread a large conv's second task runs on


def _both(first, second, threaded: bool):
    """Run first() here and second() on the worker thread, or here after
    first() when not threaded; return once both are done. The worker is
    made on first use, and again in a forked child, which lacks the
    parent's thread."""
    global _worker
    if not threaded:
        first()
        second()
        return
    if _worker[0] != os.getpid():
        _worker = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="lusk-conv"))
    done = _worker[1].submit(second)
    try:
        first()
    finally:
        done.result()


def _halves(task, m: int, threaded: bool):
    """task(slice(0, m)) here or, threaded, its first half here and its second
    on the worker."""
    if not threaded:
        return task(slice(0, m))
    _both(lambda: task(slice(0, m // 2)), lambda: task(slice(m // 2, m)), True)


def _spare_cpu() -> bool:
    """Whether a CPU is free for the worker: the process may run on two or
    more, and OpenBLAS keeps one thread. OpenBLAS runs as many threads as
    the first positive count among its variables, or else as there are
    CPUs; two callers into a multi-threaded OpenBLAS wait on each other."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    counts = (os.environ.get(k, "") for k in _BLAS_THREADS)
    return cpus > 1 and next((int(v) for v in counts if v.isdigit() and int(v) > 0), cpus) == 1


def _polyphase_conv(x: Tensor, w: Tensor, b: Tensor, s: int, p: int, grid,
                    fold, unfold, ins, outs) -> Tensor:
    """Convolution as GEMMs on column blocks, behind conv2d and upsample_conv2d.

    x is zero-padded by p and split into its s*s stride phases, each a
    channel-major (c, n*hq*wq) matrix. Output pixel (i, y*ga + a, z*gb + b) of
    channel j is [a*gb + b, j, lead + (i*hq + y)*wq + z] of the (phases, o, row)
    output buffer. Term (phases, u, v, rows) pairs GEMM column j with column
    j + u*wq + v of the input's `phases`, or j - u*wq - v of the output's,
    through its `rows` of the (out rows * o, in rows * c) kernels that `fold`
    makes of the taps (and `unfold` takes back). A side's terms take its rows
    in order, the last reaching farthest.

    Per column block, forward gathers the input side, runs one GEMM and
    scatters into the output side; backward, its transpose, gathers both, adds
    gs @ xs.T to the kernels' gradient and scatters k.T @ gs into the input
    side. A single term is used in place, a stacked side through one buffer
    reused across blocks, of at most GATHER_BYTES (and, gathered forward, the
    output's bytes). What falls outside the outputs lands in the margins.

    A conv whose output holds at least 2 * GATHER_BYTES runs as two tasks,
    one on the worker thread, when a CPU is spare (_spare_cpu). Forward, each
    copies half the channels into the phases, then runs half the column
    blocks (all of them in the first task when the output side is stacked,
    since its adds cross block edges), then copies out half the channels.
    Backward, one task rebuilds the phases for the weight gradient while the
    other scatters the input gradient into its phases; then each copies half
    of that into x's layout. No element is written by both tasks and every
    sum keeps its order, so the bytes do not depend on the schedule. The
    worker runs numpy alone, into buffers allocated on this thread.
    """
    (n, c, h, wd), (o, _, kh, kw), (gy, ga, gz, gb) = x.shape, w.shape, grid
    hq, wq = gy + ins[-1][1] + outs[-1][1], gz + ins[-1][2] + outs[-1][2]  # hq*s >= h + 2p
    cols, lead = n * hq * wq, outs[-1][1] * wq + outs[-1][2]  # lead: the output's margins
    ins = [(phase, u * wq + v, rows) for phase, u, v, rows in ins]
    outs = [(phase, lead - u * wq - v, rows) for phase, u, v, rows in outs]
    span = cols - ins[-1][1]  # GEMM columns

    def slots(ph, xs):  # each stride phase of ph, and its rows and columns that hold xs's
        ph = ph.reshape(s, s, c, n, hq, wq)
        for a, e in np.ndindex(s, s):  # row y of phase (a, e) holds x row y*s + a - p
            i, j = (a - p) % s, (e - p) % s  # its first x row and column
            part = xs[:, :, i::s, j::s].swapaxes(0, 1)
            y, z = (i + p - a) // s, (j + p - e) // s
            yield part, ph[a, e], slice(y, y + part.shape[2]), slice(z, z + part.shape[3])

    def fill(ph, chans):  # x's channels into the phases, zeros around them
        for part, phase, rows, at in slots(ph, x.data):
            phase = phase[chans]
            phase[:, :, rows, at] = part[chans]
            phase[:, :, :rows.start] = phase[:, :, rows.stop:] = 0
            phase[:, :, rows, :at.start] = phase[:, :, rows, at.stop:] = 0

    def unfill(gph, gx, chans):  # the phases' gradient, border dropped, into x's layout
        for part, phase, rows, at in slots(gph, gx):
            part[chans] = phase[chans, :, rows, at]

    dtype, r_in, r_out = np.result_type(x.data, w.data), ins[-1][2].stop, outs[-1][2].stop
    kmat = fold(w.data.transpose(2, 3, 0, 1).reshape(kh * kw, o * c)).reshape(
        r_out, r_in, o, c).swapaxes(1, 2).reshape(r_out * o, r_in * c)

    def blocks(*caps):  # the column blocks' width, and a buffer for each stacked side
        rows = [r_in * c if len(ins) > 1 else 0, r_out * o if len(outs) > 1 else 0]  # 0: in place
        blk = min([span] + [max(1, cap // (r * dtype.itemsize)) for r, cap in zip(rows, caps) if r])
        return (blk,
                [np.empty((r // ch, ch, blk), dtype) if r else None for r, ch in zip(rows, (c, o))])

    row = lead + span
    view, steps = (n, o, gy, ga, gz, gb), (hq * wq, row, wq, gb * o * row, 1, o * row)
    threaded = math.prod(view) * dtype.itemsize >= 2 * GATHER_BYTES and _spare_cpu()

    def pixels(buf):  # the output pixels of a (phases, o, row) buffer
        return as_strided(buf[:, :, lead:], view, [buf.itemsize * k for k in steps])

    ph, out = np.empty((s * s, c, cols), x.dtype), np.zeros((ga * gb, o, row), dtype)
    _halves(functools.partial(fill, ph), c, threaded)
    caps = min(GATHER_BYTES, out.nbytes), GATHER_BYTES
    blk, (xbuf, ybuf) = blocks(*caps)
    los = range(0, span, blk)
    cut = (len(los) + 1) // 2 if len(outs) == 1 else len(los)  # the second task's first block
    split = threaded and cut < len(los)
    bufs = blocks(*caps)[1] if split else (xbuf, ybuf)

    def forward(los, xbuf, ybuf):
        for lo in los:
            k = min(blk, span - lo)
            _scatter(out, outs, ybuf, lo, k, kmat, _gather(ph, ins, xbuf, lo, k))

    _both(lambda: forward(los[:cut], xbuf, ybuf), lambda: forward(los[cut:], *bufs), split)
    del ph, xbuf, ybuf, bufs  # before the output copy
    src, out_data = pixels(out), np.empty(view, dtype)

    def interleave(chans):  # a phase at a time, so each copy runs along rows
        for a, e in np.ndindex(ga, gb):
            np.add(src[:, chans, :, a, :, e], b.data[chans].reshape(1, -1, 1, 1),
                   out=out_data[:, chans, :, a, :, e])

    _halves(interleave, o, threaded)
    out_data = out_data.reshape(n, o, gy * ga, gz * gb)

    def backward(g):
        go = np.zeros((ga * gb, o, row), g.dtype)
        pixels(go)[...] = g.reshape(view)
        gk, (blk, bufs) = np.zeros(kmat.shape, dtype), blocks(GATHER_BYTES, GATHER_BYTES)
        gph = np.zeros((s * s, c, cols), dtype) if x.requires_grad else None
        both = threaded and gph is not None
        other = blocks(GATHER_BYTES, GATHER_BYTES)[1] if both else bufs

        def weight_grad():
            ph = np.empty((s * s, c, cols), x.dtype)  # built again: the graph keeps x.data
            fill(ph, slice(None))
            for lo in range(0, span, blk):
                k = min(blk, span - lo)
                gs, xs = _gather(go, outs, bufs[1], lo, k), _gather(ph, ins, bufs[0], lo, k)
                np.add(gk, gs @ xs.T, out=gk)

        def input_grad():
            for lo in range(0, span, blk) if gph is not None else ():
                k = min(blk, span - lo)
                _scatter(gph, ins, other[0], lo, k, kmat.T, _gather(go, outs, other[1], lo, k))

        _both(weight_grad, input_grad, both)
        gtaps = unfold(gk.reshape(r_out, o, r_in, c).swapaxes(1, 2).reshape(r_out * r_in, o * c))
        w._accumulate(gtaps.reshape(kh, kw, o, c).transpose(2, 3, 0, 1))
        if gph is not None:  # written once, straight into x's layout, once the phases are gone
            del bufs, other
            gx = np.empty(x.shape, x.dtype)
            _halves(functools.partial(unfill, gph, gx), c, both)
            x._accumulate(gx, fresh=True)
        b._accumulate(g.sum(axis=(0, 2, 3)))

    return _op(out_data, (x, w, b), backward)


@functools.lru_cache(maxsize=None)
def _conv_table(kh: int, kw: int, s: int):
    """(fold, unfold, input terms, output terms) of a kh x kw conv at stride s:
    tap (i, j), kernel row t = i*kw + j, reads phase (i%s, j%s) at (i//s, j//s).
    Each tap is its own kernel row, so fold and unfold hand the taps on as they are."""
    phase = [slice(k, k + 1) for k in range(s * s)]  # stride phase (i%s)*s + j%s
    ins = tuple((phase[i % s * s + j % s], i // s, j // s, slice(t, t + 1))
                for t, (i, j) in enumerate(np.ndindex(kh, kw)))
    return np.asarray, np.asarray, ins, _ONE_TERM


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) plus bias, NCHW layout, zero padding;
    odd kernels at stride 1 or 2, so every input pixel lies in the buffer.
    All kernel taps share one GEMM on the stride phases of the padded input."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv2d", x.shape, w.shape)
    (n, c, h, wd), (o, _, kh, kw), s, p = x.shape, w.shape, stride, padding
    hp, wp = (h + 2 * p - kh) // s + 1, (wd + 2 * p - kw) // s + 1
    if min(hp, wp) < 1 or b.shape != (o,) or s not in (1, 2) or not kh % 2 == kw % 2 == 1:
        raise ShapeError(f"conv2d (stride {s})", x.shape, w.shape, b.shape)
    return _polyphase_conv(x, w, b, s, p, (hp, 1, wp, 1), *_conv_table(kh, kw, s))


def _upsample_table():
    """(fold, unfold, input terms, output terms) of a 3x3 conv on the nearest-2x
    upsampled input.

    Output pixel (2y + a, 2x + b) reads padded input row y + (a + i + 1) // 2
    through kernel row i, and columns likewise; so phase (a, b), buffer row
    2a + b, is a 2x2 conv. Output term (u, v) feeds 4 phases at the centre, 2
    at an edge and 1 at a corner; the 0/1 (16, 9) matrix F that stacks them
    folds the taps as F @ taps and unfolds a gradient as F.T @ g.
    """
    fold, outs = [], []
    for u, v in np.ndindex(3, 3):
        rows = [a for a in (0, 1) if u - a in (0, 1)]
        cols = [b for b in (0, 1) if v - b in (0, 1)]
        phases = slice(2 * rows[0] + cols[0], 2 * rows[-1] + cols[-1] + 1,
                       2 if len(rows) > len(cols) else 1)
        block = [[(a + i + 1) // 2 == u and (b + j + 1) // 2 == v
                  for i in range(3) for j in range(3)] for a in rows for b in cols]
        outs.append((phases, u, v, slice(len(fold), len(fold) + len(block))))
        fold += block
    fold = np.array(fold, np.float32)
    fold.setflags(write=False)
    return fold.__matmul__, fold.T.__matmul__, _ONE_TERM, tuple(outs)


_UPSAMPLE_TABLE = _upsample_table()


def upsample_conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """conv2d(upsample_nearest2x(x), w, b, padding=1) for a 3x3 kernel,
    without building the upsampled input: its four output phases are 2x2
    convs at x's resolution (Shi et al. 2016)."""
    if x.ndim != 4 or w.shape[1:] != (x.shape[1], 3, 3) or b.shape != w.shape[:1]:
        raise ShapeError("upsample_conv2d", x.shape, w.shape, b.shape)
    return _polyphase_conv(x, w, b, 1, 1, (x.shape[2], 2, x.shape[3], 2), *_UPSAMPLE_TABLE)


def upsample_nearest2x(x: Tensor) -> Tensor:
    if x.ndim != 4:
        raise ShapeError("upsample_nearest2x", x.shape)
    n, c, h, w = x.shape
    return _op(x.data.repeat(2, axis=2).repeat(2, axis=3), (x,),
               lambda g: x._accumulate(g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))))


def spatial_softmax(x: Tensor) -> Tensor:
    """Softmax over the spatial dimensions of an NCHW map, per channel."""
    if x.ndim != 4:
        raise ShapeError("spatial_softmax", x.shape)
    m = x.data.max(axis=(2, 3), keepdims=True)
    e = np.exp(x.data - m)
    p = e / e.sum(axis=(2, 3), keepdims=True)

    def backward(g):
        dot = (g * p).sum(axis=(2, 3), keepdims=True)
        x._accumulate(p * (g - dot), fresh=True)

    return _op(p, (x,), backward)


def instance_norm(x: Tensor) -> Tensor:
    """Per-sample, per-channel normalization to zero mean and unit variance.

    y = (x - mean) * r with r = 1 / sqrt(var + 1e-5) over axes (2, 3); the
    backward is dx = r * (g - mean(g) - y * mean(g * y)) over the same axes.
    The sums of squares and products are vecdots, which build no temporary.
    """
    if x.ndim != 4:
        raise ShapeError("instance_norm", x.shape)
    n, c, h, w = x.shape
    y = x.data - x.data.mean(axis=(2, 3), keepdims=True)
    flat = y.reshape(n, c, h * w)
    r = (1.0 / np.sqrt(np.vecdot(flat, flat) / (h * w) + 1e-5)).reshape(n, c, 1, 1)
    y *= r

    def backward(g):
        gy = np.vecdot(g.reshape(n, c, h * w), y.reshape(n, c, h * w)) / (h * w)
        gx = np.multiply(y, -gy.reshape(n, c, 1, 1), out=np.empty(y.shape, y.dtype))
        gx += g
        gx -= g.mean(axis=(2, 3), keepdims=True)
        gx *= r
        x._accumulate(gx, fresh=True)

    return _op(y, (x,), backward)


# -- Adam optimizer ----------------------------------------------------------------


# moment decay rates and denominator offset, the defaults of Kingma & Ba
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Adam:
    """Adam with bias correction over a named parameter dict; holds the
    per-parameter first/second moments m and v, and the steps taken."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr: float | None = None):
        lr = self.lr if lr is None else lr
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"adam_step[{name}]", g.shape, p.data.shape)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


# -- checkpoint records ------------------------------------------------------------


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """A file object on `<path>.tmp` (text in UTF-8 unless mode has "b");
    when the block ends, it is flushed, fsynced and moved over `path`. On
    any exception the temporary file is removed, so `path` keeps its
    previous content, and the exception propagates."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_tensors(path, tensors: dict[str, np.ndarray]):
    """Write named arrays as LUSK records: magic, version, record count, then
    per record name length/bytes, rank and dims as u64, float32 LE values.

    The write is atomic (atomic_open). An OSError (a directory or a missing
    parent at `path`) raises CheckpointError.
    """
    try:
        with atomic_open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
            for name, arr in tensors.items():
                data = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
                nb = name.encode("utf-8")
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                f.write(struct.pack("<Q", data.ndim))
                for d in data.shape:
                    f.write(struct.pack("<Q", d))
                f.write(np.ascontiguousarray(data, dtype="<f4").tobytes())
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot write checkpoint: {exc.strerror}") from None


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read LUSK records; every length is checked against the file size, and
    an unreadable, truncated or malformed file raises CheckpointError."""
    try:
        with open(path, "rb") as f:
            blob = memoryview(f.read())
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror}") from None
    off = 0

    def take(size, what):
        nonlocal off
        if size > len(blob) - off:
            raise CheckpointError(f"{path}: file ends inside {what} "
                                  f"(byte {off} of {len(blob)})")
        off += size
        return blob[off - size:off]

    magic = take(4, "the magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path}: bad magic {bytes(magic)!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<I", take(4, "the version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (count,) = struct.unpack("<I", take(4, "the record count"))
    out: dict[str, np.ndarray] = {}
    while len(out) < count:
        (nlen,) = struct.unpack("<I", take(4, "a record name length"))
        try:
            name = str(take(nlen, "a record name"), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: record name before byte {off} is not UTF-8") from None
        if name in out:
            raise CheckpointError(f"{path}: record {name} appears twice")
        (rank,) = struct.unpack("<Q", take(8, f"the rank of {name}"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"the dims of {name}"))
        values = take(4 * math.prod(dims), f"the values of {name}")
        try:
            out[name] = np.frombuffer(values, dtype="<f4").reshape(dims).astype(np.float32)
        except ValueError as exc:  # more than 64 dims, or one past numpy's limit
            raise CheckpointError(f"{path}: record {name}: {exc}") from None
    if off < len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} bytes after the last of "
                              f"{count} records")
    return out
