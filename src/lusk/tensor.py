"""Dense tensors with reverse-mode automatic differentiation.

Sized for desk-scale CNNs on CPU: inputs up to 256x256, a few dozen
channels. Values are numpy arrays; the graph is a DAG of closures built
eagerly during the forward pass. Training runs in float32 by default,
gradient checking in float64.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np
from numpy.lib.stride_tricks import as_strided

CHECKPOINT_MAGIC = b"LUSK"
CHECKPOINT_VERSION = 3  # v3 models keep their config as text; v1 and v2 files are refused


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

    def _accumulate(self, g: np.ndarray):
        if self.requires_grad:
            if self.grad is None:  # a copy: add's backward hands one g to both parents
                self.grad = np.array(g, dtype=self.data.dtype, order="C")
            else:
                self.grad += g

    # -- elementwise arithmetic ----------------------------------------------

    def _binary(self, other, op_name, fwd, bwd_a, bwd_b):
        other = Tensor._lift(other, self)
        try:
            out_data = fwd(self.data, other.data)
        except ValueError:
            raise ShapeError(op_name, self.shape, other.shape)

        def backward(g):
            self._accumulate(_unbroadcast(bwd_a(g, self.data, other.data), self.shape))
            other._accumulate(_unbroadcast(bwd_b(g, self.data, other.data), other.shape))

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
                            lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    # -- unary nonlinearities ------------------------------------------------

    def exp(self):
        e = np.exp(self.data)
        return _op(e, (self,), lambda g: self._accumulate(g * e))

    def relu(self):
        mask = self.data > 0
        return _op(np.maximum(self.data, 0.0), (self,), lambda g: self._accumulate(g * mask))

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.data))
        return _op(s, (self,), lambda g: self._accumulate(g * s * (1.0 - s)))

    def clamp(self, lo: float, hi: float):
        mask = (self.data >= lo) & (self.data <= hi)
        return _op(np.clip(self.data, lo, hi), (self,), lambda g: self._accumulate(g * mask))

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

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

    # -- matrix multiply ---------------------------------------------------------

    def matmul(self, other: "Tensor"):
        other = Tensor._lift(other, self)
        if self.ndim != 2 or other.ndim != 2 or self.shape[1] != other.shape[0]:
            raise ShapeError("matmul", self.shape, other.shape)

        def backward(g):
            self._accumulate(g @ other.data.T)
            other._accumulate(self.data.T @ g)

        return _op(self.data @ other.data, (self, other), backward)

    __matmul__ = matmul

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
    """Mean squared error over all elements."""
    if a.shape != b.shape:
        raise ShapeError("mse", a.shape, b.shape)
    d = a - b
    return (d * d).mean()


# -- convolution and friends -----------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) plus bias, NCHW layout, zero padding;
    odd kernels at stride 1 or 2, so every input pixel lies in the buffer.

    Shift-and-accumulate GEMM without an im2col buffer: kernel tap (i, j) is
    one GEMM on a column slice of stride phase (i % s, j % s) of the padded
    input, stored channel-major (c, n*hq*wq); margin outputs are cropped.
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv2d", x.shape, w.shape)
    (n, c, h, wd), (o, _, kh, kw), s, p = x.shape, w.shape, stride, padding
    hp, wp = (h + 2 * p - kh) // s + 1, (wd + 2 * p - kw) // s + 1
    if min(hp, wp) < 1 or b.shape != (o,) or s not in (1, 2) or not kh % 2 == kw % 2 == 1:
        raise ShapeError(f"conv2d (stride {s})", x.shape, w.shape, b.shape)
    hq, wq = hp + (kh - 1) // s, wp + (kw - 1) // s  # hq * s >= h + 2p, likewise wq
    xp = np.zeros((c, n, hq * s, wq * s), x.dtype)
    xp[:, :, p:p + h, p:p + wd] = x.data.swapaxes(0, 1)
    ph = xp.reshape(c, n, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4).reshape(s, s, c, -1)
    m = n * hq * wq - (kh - 1) // s * wq - (kw - 1) // s  # one past the last valid output
    taps = [(i % s, j % s, slice(None), slice(i // s * wq + j // s, None))
            for i in range(kh) for j in range(kw)]
    wt = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1)).reshape(-1, o, c)
    out = np.zeros((o, m), np.result_type(x.data, w.data))
    for wij, tap in zip(wt, taps):
        out += wij @ ph[tap][:, :m]
    # out[:, (image * hq + row) * wq + col]: copy out the valid (hp, wp) corners as NCHW
    out_data = as_strided(out, (n, o, hp, wp), [out.itemsize * k for k in (hq * wq, m, wq, 1)],
                          writeable=False).copy()
    out_data += b.data.reshape(1, o, 1, 1)

    def backward(g):
        go = np.pad(g.swapaxes(0, 1), ((0, 0), (0, 0), (0, hq - hp), (0, wq - wp)))
        go = go.reshape(o, -1)[:, :m]
        gw = np.stack([go @ ph[tap][:, :m].T for tap in taps])
        w._accumulate(gw.reshape(kh, kw, o, c).transpose(2, 3, 0, 1))
        if x.requires_grad:
            gph = np.zeros(ph.shape, np.result_type(go, wt))
            for wij, tap in zip(wt, taps):
                gph[tap][:, :m] += wij.T @ go
            gx = gph.reshape(s, s, c, n, hq, wq).transpose(3, 2, 4, 0, 5, 1)
            x._accumulate(gx.reshape(n, c, hq * s, wq * s)[:, :, p:p + h, p:p + wd])
        b._accumulate(g.sum(axis=(0, 2, 3)))

    return _op(out_data, (x, w, b), backward)


def _upsample_shifts():
    """(u, v, phases, fold) for each 3x3 shift (u, v) of the padded input.

    Output pixel (2y + a, 2x + b) of a 3x3 conv on the nearest-2x upsampled
    input reads padded input row y + (a + i + 1) // 2 through kernel row i,
    and columns likewise; so phase (a, b), buffer row 2a + b, is a 2x2 conv.
    `phases` is the slice of the (a, b) rows that read shift (u, v): 4 at
    the centre, 2 at an edge, 1 at a corner. `fold` is (phases, 9): which
    of the kernel's 9 taps each phase sums at this shift.
    """
    shifts = []
    for u, v in np.ndindex(3, 3):
        rows = [a for a in (0, 1) if u - a in (0, 1)]
        cols = [b for b in (0, 1) if v - b in (0, 1)]
        phases = slice(2 * rows[0] + cols[0], 2 * rows[-1] + cols[-1] + 1,
                       2 if len(rows) > len(cols) else 1)
        fold = np.array([[(a + i + 1) // 2 == u and (b + j + 1) // 2 == v
                          for i in range(3) for j in range(3)]
                         for a in rows for b in cols], np.float32)
        shifts.append((u, v, phases, fold))
    return shifts


_UPSAMPLE_SHIFTS = _upsample_shifts()


def upsample_conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """conv2d(upsample_nearest2x(x), w, b, padding=1) for a 3x3 kernel,
    without building the upsampled input.

    The four output phases are 2x2 convs at x's resolution (Shi et al.
    2016). x is padded once, channel-major (c, n*hq*wq) as in conv2d; each
    of the 9 shifts is one GEMM of the phase kernels that read it, stacked,
    added into a (4, o, m) phase buffer that is then interleaved to NCHW.
    """
    if x.ndim != 4 or w.shape[1:] != (x.shape[1], 3, 3) or b.shape != w.shape[:1]:
        raise ShapeError("upsample_conv2d", x.shape, w.shape, b.shape)
    (n, c, h, wd), o = x.shape, w.shape[0]
    hq, wq = h + 2, wd + 2
    m = n * hq * wq - 2 * wq - 2  # one past the last valid output
    xp = np.zeros((c, n, hq, wq), x.dtype)
    xp[:, :, 1:h + 1, 1:wd + 1] = x.data.swapaxes(0, 1)
    xp = xp.reshape(c, -1)
    taps = w.data.transpose(2, 3, 0, 1).reshape(9, o * c)
    kernels = [(fold @ taps).reshape(-1, c) for *_, fold in _UPSAMPLE_SHIFTS]
    dtype = np.result_type(x.data, w.data)
    out = np.zeros((4, o, m), dtype)
    for (u, v, phases, _), k in zip(_UPSAMPLE_SHIFTS, kernels):
        off = u * wq + v
        out[phases] += (k @ xp[:, off:off + m]).reshape(-1, o, m)
    # out[2a + b, :, (image * hq + y) * wq + x] is output pixel (2y + a, 2x + b)
    out_data = as_strided(out, (n, o, h, 2, wd, 2),
                          [out.itemsize * k for k in (hq * wq, m, wq, 2 * o * m, 1, o * m)],
                          writeable=False).copy().reshape(n, o, 2 * h, 2 * wd)
    out_data += b.data.reshape(1, o, 1, 1)

    def backward(g):
        gp = np.zeros((2, 2, o, n, hq, wq), g.dtype)
        gp[..., :h, :wd] = g.reshape(n, o, h, 2, wd, 2).transpose(3, 5, 1, 0, 2, 4)
        go = gp.reshape(4, o, -1)[:, :, :m]
        gtaps = np.zeros((9, o * c), dtype)
        gxp = np.zeros((c, xp.shape[1]), dtype) if x.requires_grad else None
        for (u, v, phases, fold), k in zip(_UPSAMPLE_SHIFTS, kernels):
            off = u * wq + v
            gs = go[phases].reshape(-1, m)
            gtaps += fold.T @ (gs @ xp[:, off:off + m].T).reshape(len(fold), -1)
            if gxp is not None:
                gxp[:, off:off + m] += k.T @ gs
        w._accumulate(gtaps.reshape(3, 3, o, c).transpose(2, 3, 0, 1))
        if gxp is not None:
            x._accumulate(gxp.reshape(c, n, hq, wq)[:, :, 1:h + 1, 1:wd + 1].swapaxes(0, 1))
        b._accumulate(g.sum(axis=(0, 2, 3)))

    return _op(out_data, (x, w, b), backward)


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
        x._accumulate(p * (g - dot))

    return _op(p, (x,), backward)


def instance_norm(x: Tensor) -> Tensor:
    """Per-sample, per-channel normalization to zero mean and unit variance.

    y = (x - mean) * r with r = 1 / sqrt(var + 1e-5) over axes (2, 3); the
    backward is dx = r * (g - mean(g) - y * mean(g * y)) over the same axes.
    """
    if x.ndim != 4:
        raise ShapeError("instance_norm", x.shape)
    y = x.data - x.data.mean(axis=(2, 3), keepdims=True)
    r = 1.0 / np.sqrt(np.square(y).mean(axis=(2, 3), keepdims=True) + 1e-5)
    y *= r

    def backward(g):
        gx = g - g.mean(axis=(2, 3), keepdims=True)
        gx -= y * (g * y).mean(axis=(2, 3), keepdims=True)
        gx *= r
        x._accumulate(gx)

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
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
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
                raise ValueError(f"non-finite gradient for parameter '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


# -- checkpoint records ------------------------------------------------------------


def save_tensors(path, tensors: dict[str, np.ndarray]):
    """Write named arrays as LUSK records: magic, version, record count, then
    per record name length/bytes, rank and dims as u64, float32 LE values.

    The records go to a temporary file beside `path` that then replaces it,
    so a write that fails part-way leaves the previous file as it was. An
    OSError (a directory or a missing parent at `path`) raises
    CheckpointError.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
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
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot write checkpoint: {exc.strerror}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
