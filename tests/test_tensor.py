import struct
import tracemalloc

import numpy as np
import pytest

from lusk import tensor
from lusk.tensor import (Adam, CheckpointError, ShapeError, Tensor, atomic_open, concat,
                         conv2d, instance_norm, load_tensors, mse, save_tensors,
                         spatial_softmax, stop_gradient, upsample_conv2d,
                         upsample_nearest2x)
from oracles import gradcheck


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def _square(y):
    return y * y


def _zero_bias(w):
    """A zero bias for w's output channels, requiring no gradient."""
    return Tensor(np.zeros(w.shape[0], w.dtype))


class TestForwardOps:
    def test_relu(self):
        assert np.array_equal(t([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0])

    def test_identity_1x1_conv(self):
        x = t(np.random.default_rng(0).random((1, 3, 5, 5)))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        assert np.allclose(conv2d(x, w, _zero_bias(w)).data, x.data)

    def test_conv_all_ones_center(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w, _zero_bias(w), padding=1)
        # direct sliding-window count of covered pixels at the center
        assert out.data[0, 0, 2, 2] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0

    def test_conv_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.random((2, 3, 8, 8))
        w = rng.random((4, 3, 3, 3))
        for stride in (1, 2):
            got = conv2d(Tensor(x), Tensor(w), _zero_bias(w), stride=stride, padding=1).data
            ref = _conv_oracle(x, w, stride, 1)
            assert np.abs(got - ref).max() < 1e-10

    def test_conv_channel_mismatch(self):
        with pytest.raises(ShapeError, match="conv2d"):
            conv2d(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((4, 2, 3, 3))),
                   Tensor(np.zeros(4)))

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 3)])
    def test_conv_geometry_outside_odd_kernel_stride_1_or_2(self, kernel, stride):
        w = Tensor(np.zeros((4, 3, kernel, kernel)))
        with pytest.raises(ShapeError, match="conv2d"):
            conv2d(Tensor(np.zeros((1, 3, 8, 8))), w, _zero_bias(w), stride=stride, padding=1)

    def test_add_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"add.*\(2, 3\).*\(4, 5\)"):
            t(np.zeros((2, 3))) + t(np.zeros((4, 5)))

    def test_upsample(self):
        x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
        up = upsample_nearest2x(x).data
        assert up.shape == (1, 1, 4, 4)
        assert np.array_equal(up[0, 0, :2, :2], [[0, 0], [0, 0]])
        assert np.array_equal(up[0, 0, 2:, 2:], [[3, 3], [3, 3]])

    def test_spatial_softmax_sums_to_one(self):
        x = t(np.random.default_rng(1).random((2, 3, 6, 7)))
        p = spatial_softmax(x).data
        assert np.abs(p.sum(axis=(2, 3)) - 1.0).max() < 1e-6

    def test_spatial_softmax_shift_invariant(self):
        x = np.random.default_rng(2).random((1, 2, 5, 5))
        p1 = spatial_softmax(Tensor(x)).data
        p2 = spatial_softmax(Tensor(x + 7.5)).data
        assert np.abs(p1 - p2).max() < 1e-12

    def test_instance_norm_moments(self):
        x = t(np.random.default_rng(4).random((2, 3, 8, 8)) * 5 + 2)
        y = instance_norm(x).data
        assert np.abs(y.mean(axis=(2, 3))).max() < 1e-6
        assert np.abs(y.std(axis=(2, 3)) - 1.0).max() < 1e-3

    def test_instance_norm_matches_numpy(self):
        x = np.random.default_rng(7).standard_normal((2, 3, 5, 7)) * 4 + 3
        mu = x.mean(axis=(2, 3), keepdims=True)
        ref = (x - mu) / np.sqrt(((x - mu) ** 2).mean(axis=(2, 3), keepdims=True) + 1e-5)
        assert np.abs(instance_norm(t(x)).data - ref).max() < 1e-12

    def test_instance_norm_is_one_node(self):
        x = t(np.ones((1, 2, 3, 3)))
        assert instance_norm(x)._parents == (x,)

    def test_stop_gradient_values_unchanged(self):
        x = t([1.0, -2.0, 3.0])
        assert np.array_equal(stop_gradient(x).data, x.data)

    def test_forward_deterministic(self):
        x = np.random.default_rng(5).random((1, 2, 8, 8))
        w = np.random.default_rng(6).random((3, 2, 3, 3))
        a = conv2d(Tensor(x), Tensor(w), _zero_bias(w), padding=1).data
        b = conv2d(Tensor(x), Tensor(w), _zero_bias(w), padding=1).data
        assert np.array_equal(a, b)


def _conv_oracle(x, w, stride, pad):
    n, c, h, ww = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hp = (h + 2 * pad - kh) // stride + 1
    wp = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, hp, wp))
    for ni in range(n):
        for oi in range(o):
            for i in range(hp):
                for j in range(wp):
                    patch = xp[ni, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[ni, oi, i, j] = (patch * w[oi]).sum()
    return out


def _conv_grad_oracle(x, w, g, stride, pad):
    """Gradients of sum(g * (conv(x, w) + b)) in x, w and b, one kernel tap at a time."""
    o, c, kh, kw = w.shape
    _, _, hp, wp = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            rows = slice(i, i + stride * (hp - 1) + 1, stride)
            cols = slice(j, j + stride * (wp - 1) + 1, stride)
            gw[:, :, i, j] = np.einsum("norq,ncrq->oc", g, xp[:, :, rows, cols])
            gxp[:, :, rows, cols] += np.einsum("norq,oc->ncrq", g, w[:, :, i, j])
    gx = gxp[:, :, pad:pad + x.shape[2], pad:pad + x.shape[3]]
    return gx, gw, g.sum(axis=(0, 2, 3))


class TestConvOracleGrid:
    """Forward and every gradient of conv2d against direct float64 oracles."""

    @pytest.mark.parametrize("size", [(7, 7), (8, 8), (7, 9)])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("padding", [0, 1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_oracle(self, batch, stride, padding, kernel, size):
        rng = np.random.default_rng(kernel * 100 + padding * 10 + stride)
        x = t(rng.standard_normal((batch, 3, *size)))
        w = t(rng.standard_normal((4, 3, kernel, kernel)))
        b = t(rng.standard_normal(4))
        out = conv2d(x, w, b, stride=stride, padding=padding)
        ref = _conv_oracle(x.data, w.data, stride, padding) + b.data.reshape(1, 4, 1, 1)
        assert out.shape == ref.shape
        assert np.abs(out.data - ref).max() < 1e-10
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        for got, want in zip((x.grad, w.grad, b.grad),
                             _conv_grad_oracle(x.data, w.data, g, stride, padding)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-10

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(0)
        x = t(rng.standard_normal((2, 3, 7, 9)), grad=False)
        w = t(rng.standard_normal((4, 3, 3, 3)))
        out = conv2d(x, w, _zero_bias(w), stride=2, padding=1)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        assert x.grad is None
        assert np.abs(w.grad - _conv_grad_oracle(x.data, w.data, g, 2, 1)[1]).max() < 1e-10


class TestConvColumnBlocks:
    """conv2d's taps share one GEMM over gathered column blocks; at this shape
    the blocks are narrow (the output has 4 channels, the gather 27 rows)."""

    @pytest.mark.parametrize("stride", [1, 2])
    def test_ragged_blocks_match_oracle(self, stride, monkeypatch):
        widths = []  # of the forward's gathered blocks

        def spy(arrays, *args, **kwargs):
            out = concatenate(arrays, *args, **kwargs)
            widths.append(out.shape[1])
            return out

        concatenate = np.concatenate
        rng = np.random.default_rng(stride)
        x = t(rng.standard_normal((2, 3, 12, 13)))
        w = t(rng.standard_normal((4, 3, 3, 3)))
        b = t(rng.standard_normal(4))
        with monkeypatch.context() as patch:
            patch.setattr(np, "concatenate", spy)
            out = conv2d(x, w, b, stride=stride, padding=1)
        assert len(widths) >= 3 and widths[-1] < widths[0] == max(widths), widths
        ref = _conv_oracle(x.data, w.data, stride, 1) + b.data.reshape(1, 4, 1, 1)
        assert np.abs(out.data - ref).max() < 1e-10
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        for got, want in zip((x.grad, w.grad, b.grad),
                             _conv_grad_oracle(x.data, w.data, g, stride, 1)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-10


def _upsample_conv_grads(x, w, b, g, op):
    """Output and (x, w, b) gradients of sum(g * op(x, w, b)) on fresh float64 leaves."""
    x, w, b = (t(a) for a in (x, w, b))
    out = op(x, w, b)
    (out * Tensor(g)).sum().backward()
    return out.data, x.grad, w.grad, b.grad


def _upsample_then_conv(x, w, b):
    return conv2d(upsample_nearest2x(x), w, b, padding=1)


class TestUpsampleConvOracleGrid:
    """upsample_conv2d against the composite it replaces, in float64."""

    @pytest.mark.parametrize("size", [(1, 1), (1, 4), (2, 1), (5, 7), (8, 8)])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_composite(self, batch, size):
        rng = np.random.default_rng(size[0] * 10 + size[1] + batch)
        x = rng.standard_normal((batch, 3, *size))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        g = rng.standard_normal((batch, 4, 2 * size[0], 2 * size[1]))
        got = _upsample_conv_grads(x, w, b, g, upsample_conv2d)
        want = _upsample_conv_grads(x, w, b, g, _upsample_then_conv)
        for name, a, r in zip(("out", "x.grad", "w.grad", "b.grad"), got, want):
            assert a.shape == r.shape, name
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), name

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(0)
        x = t(rng.standard_normal((2, 3, 5, 7)), grad=False)
        w, b = t(rng.standard_normal((4, 3, 3, 3))), t(rng.standard_normal(4))
        out = upsample_conv2d(x, w, b)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        assert x.grad is None
        want = _upsample_conv_grads(x.data, w.data, b.data, g, _upsample_then_conv)
        assert np.abs(w.grad - want[2]).max() <= 1e-12 * np.abs(want[2]).max()

    def test_rejects_a_kernel_that_is_not_3x3(self):
        with pytest.raises(ShapeError, match="upsample_conv2d"):
            upsample_conv2d(t(np.zeros((1, 3, 4, 4))), t(np.zeros((4, 3, 1, 1))),
                            t(np.zeros(4)))


class TestUpsampleConvColumnBlocks:
    """upsample_conv2d's stacked kernel rows run over column blocks of the
    padded input; a small GATHER_BYTES makes several, the last one narrower."""

    def test_ragged_blocks_match_composite(self, monkeypatch):
        widths = []  # of the input columns each block's out= GEMM reads or writes

        def spy(a, b, *args, **kwargs):
            widths.append(b.shape[-1])
            return matmul(a, b, *args, **kwargs)

        matmul = np.matmul
        rng = np.random.default_rng(0)
        x, w, b = (rng.standard_normal(s) for s in ((2, 3, 5, 7), (4, 3, 3, 3), (4,)))
        g = rng.standard_normal((2, 4, 10, 14))
        leaves = [t(a) for a in (x, w, b)]
        # 50 columns of the 16 * 4 stacked float64 rows; the padded input has 2*7*9
        monkeypatch.setattr(tensor, "GATHER_BYTES", 50 * 16 * 4 * 8)
        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", spy)
            out = upsample_conv2d(*leaves)
            forward, widths[:] = widths[:], []
            (out * Tensor(g)).sum().backward()
        for blocks in (forward, widths):
            assert len(blocks) >= 3 and blocks[-1] < blocks[0] == max(blocks), blocks
        want = _upsample_conv_grads(x, w, b, g, _upsample_then_conv)
        got = (out.data, *(leaf.grad for leaf in leaves))
        for name, a, r in zip(("out", "x.grad", "w.grad", "b.grad"), got, want):
            assert a.shape == r.shape, name
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), name


class TestUpsampleConvMemory:
    @pytest.mark.parametrize("shape,c_out", [((32, 64, 16, 16), 32), ((32, 32, 32, 32), 10)])
    def test_step_peak_below_the_composite(self, shape, c_out):
        # the desk refine.conv1 and refine.conv2 shapes; the composite builds
        # the 4x upsampled input and its gradient
        rng = np.random.default_rng(0)
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((c_out, shape[1], 3, 3)).astype(np.float32)
        b = np.zeros(c_out, np.float32)
        peaks = []
        for op in (upsample_conv2d, _upsample_then_conv):
            leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
            tracemalloc.start()
            try:
                op(*leaves).sum().backward()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(leaf.grad is not None for leaf in leaves)
        assert peaks[0] <= 0.6 * peaks[1], peaks


class TestConvMemory:
    @pytest.mark.parametrize("shape,c_out", [((4, 32, 128, 128), 10), ((4, 64, 64, 64), 32)])
    def test_step_peak_stays_near_operand_size(self, shape, c_out):
        # an im2col buffer alone is 9x the input; forward plus backward must
        # stay below 6x the input and output bytes together
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((c_out, shape[1], 3, 3)).astype(np.float32),
                   requires_grad=True)
        tracemalloc.start()
        try:
            out = conv2d(x, w, _zero_bias(w), padding=1)
            out.sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and w.grad is not None
        assert peak < 6 * (x.data.nbytes + out.data.nbytes)

    def test_backward_writes_the_input_gradient_once(self):
        # the desk encoder.conv2 shape at stride 2: the input gradient goes
        # from its padded stride phases straight into x's layout, with no
        # padded copy between and no copy after; with both, 3.67x
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((32, 32, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((64, 32, 3, 3)).astype(np.float32), requires_grad=True)
        out = conv2d(x, w, _zero_bias(w), stride=2, padding=1)
        tracemalloc.start()
        try:
            out.sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None
        assert peak < 3.3 * (x.data.nbytes + out.data.nbytes), peak / (x.data.nbytes + out.data.nbytes)

    @pytest.mark.parametrize("shape,c_out,stride", [((1, 10, 64, 64), 32, 2),
                                                    ((1, 32, 32, 32), 64, 2),
                                                    ((1, 32, 64, 64), 10, 1)])
    def test_batch1_forward_gathers_no_more_than_it_writes(self, shape, c_out, stride):
        # the keypoint network's layers at inference, and a stride-1 layer; a
        # gathered column block is capped at the output's bytes: gathering all
        # columns at once reads 3.1x on the second shape and 8.2x on the third,
        # a 1 MiB cap alone 3.1x on the second
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        w = Tensor(rng.standard_normal((c_out, shape[1], 3, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            out = conv2d(x, w, _zero_bias(w), stride=stride, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (x.data.nbytes + out.data.nbytes)


class TestInstanceNormMemory:
    def test_step_peak_stays_near_operand_size(self):
        # one op keeps only its output and per-channel scale; the composite
        # of mean, sub, mul, add, sqrt and div peaked at 8x the input bytes
        x = Tensor(np.random.default_rng(0).standard_normal((8, 32, 32, 32)).astype(np.float32),
                   requires_grad=True)
        tracemalloc.start()
        try:
            instance_norm(x).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None
        assert peak < 6 * x.data.nbytes


class TestGraphMemory:
    """What a graph node keeps between forward and backward: only what its
    backward reads and the graph does not hold already."""

    @staticmethod
    def _held(op, *args):
        tracemalloc.start()
        try:
            out = op(*args)
            return out, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_conv_keeps_its_output_not_the_padded_phases(self):
        # the desk encoder.conv1 shape; the padded phases of x are 1.33x the output
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((32, 10, 64, 64)).astype(np.float32))
        w = Tensor(rng.standard_normal((32, 10, 3, 3)).astype(np.float32), requires_grad=True)
        out, held = self._held(lambda: conv2d(x, w, _zero_bias(w), stride=2, padding=1))
        assert out.requires_grad
        assert held < 1.1 * out.data.nbytes, held / out.data.nbytes

    def test_relu_keeps_its_output_and_no_mask(self):
        x = Tensor(np.random.default_rng(0).standard_normal((32, 32, 32, 32)).astype(np.float32),
                   requires_grad=True)
        out, held = self._held(x.relu)
        assert held < 1.1 * out.data.nbytes, held / out.data.nbytes

    def test_mse_keeps_one_difference(self):
        rng = np.random.default_rng(0)
        a, b = (Tensor(rng.random((32, 10, 64, 64)).astype(np.float32), requires_grad=True)
                for _ in range(2))
        _, held = self._held(mse, a, b)
        assert held < 1.1 * a.data.nbytes, held / a.data.nbytes


class TestBackward:
    def test_relu_gradient_only_where_the_input_is_positive(self):
        x = t([-1.0, -0.0, 0.0, np.nan, 1e-300, 2.0])
        x.relu().sum().backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0])

    def test_mse_is_the_mean_of_squared_differences_bit_for_bit(self):
        rng = np.random.default_rng(0)
        a, b = (Tensor(rng.random((4, 3, 8, 8)).astype(np.float32), requires_grad=True)
                for _ in range(2))
        loss = mse(a, b)
        loss.backward()
        got = loss.data, a.grad, b.grad
        d = a - b
        loss = (d * d).mean()
        loss.backward()
        for x, y in zip(got, (loss.data, a.grad, b.grad)):
            assert x.dtype == y.dtype == np.float32 and np.array_equal(x, y)

    def test_sum_of_squares(self):
        x = t([1.0, 2.0, 3.0])
        (x * x).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_unused_parameter_gets_no_grad(self):
        x = t([1.0, 2.0])
        p = t([5.0])
        (x * x).sum().backward()
        assert p.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            t([1.0, 2.0]).backward()

    def test_grads_overwritten_not_accumulated(self):
        x = t([1.0, 2.0])
        loss = (x * x).sum()
        loss.backward()
        g1 = x.grad.copy()
        loss2 = (x * x).sum()
        loss2.backward()
        assert np.array_equal(x.grad, g1)

    def test_held_interior_node_released_with_its_grad(self):
        x = t([1.0, 2.0])
        y = x * x
        y.sum().backward()
        assert y._parents is None and y._backward is None
        assert np.array_equal(y.grad, [1.0, 1.0])
        assert x._parents == () and np.array_equal(x.grad, [2.0, 4.0])

    def test_second_backward_of_a_loss_raises(self):
        x = t([1.0, 2.0])
        loss = (x * x).sum()
        loss.backward()
        x.grad[:] = 7.0
        with pytest.raises(ValueError, match="released"):
            loss.backward()
        assert np.array_equal(x.grad, [7.0, 7.0])  # no gradient was touched

    def test_new_loss_on_a_released_node_raises(self):
        # the new graph reaches x only through y, whose link an earlier
        # backward dropped; x.grad would keep that backward's values
        x, p = t([1.0, 2.0]), t([3.0, 4.0])
        y = x * x
        y.sum().backward()
        with pytest.raises(ValueError, match="released"):
            (y * p).sum().backward()
        assert p.grad is None and np.array_equal(x.grad, [2.0, 4.0])

    def test_stop_gradient_blocks(self):
        x = t([1.0, 2.0])
        (stop_gradient(x) * x).sum().backward()
        assert np.allclose(x.grad, x.data)  # only the live factor contributes

    def test_add_parents_get_distinct_gradients(self):
        # add's backward hands one array to both parents; each keeps its own copy
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        (a + b).sum().backward()
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        a.grad[0] = 7.0
        assert np.array_equal(b.grad, [1.0, 1.0])

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    def test_conv_input_gradients_kept_without_a_copy_share_nothing(self, order):
        # x feeds two convs, whose backward hands x a fresh array it keeps,
        # and an add, whose backward hands x and y one array; either reaches
        # x first in one of the two orders
        rng = np.random.default_rng(0)
        x, y = (rng.standard_normal((2, 3, 6, 6)) for _ in range(2))
        w1, w2 = (rng.standard_normal((4, 3, 3, 3)) for _ in range(2))
        b1, b2 = (rng.standard_normal(4) for _ in range(2))
        g1, g2, g3 = (rng.standard_normal(s) for s in ((2, 4, 3, 3), (2, 4, 12, 12), (2, 3, 6, 6)))
        paths = (lambda x, p: conv2d(x, p["w1"], p["b1"], stride=2, padding=1) * Tensor(g1),
                 lambda x, p: upsample_conv2d(x, p["w2"], p["b2"]) * Tensor(g2),
                 lambda x, p: (x + p["y"]) * Tensor(g3))
        arrays = {"x": x, "y": y, "w1": w1, "b1": b1, "w2": w2, "b2": b2}

        def grads(fns):
            p = {name: t(a) for name, a in arrays.items()}
            sum((fn(p["x"], p).sum() for fn in fns), start=Tensor(0.0)).backward()
            return {name: leaf.grad for name, leaf in p.items()}

        got = grads([paths[i] for i in order])
        want = sum(grads([fn])["x"] for fn in paths)
        assert np.abs(got["x"] - want).max() <= 1e-12 * np.abs(want).max()
        for name in got:
            before = {k: g.copy() for k, g in got.items()}
            got[name] += 1.0
            assert all(np.array_equal(got[k], before[k]) for k in got if k != name), name

    def test_conv_weight_grad_finite_difference(self):
        target = Tensor(np.zeros((1, 2, 4, 4)))
        rep = gradcheck(
            lambda x, w: mse(conv2d(x, w, _zero_bias(w), stride=2, padding=1), target),
            [(1, 3, 8, 8), (2, 3, 3, 3)], eps=1e-5, tolerance=1e-4)
        assert rep.passed, rep


_LINKAGE_OPS = [
    ("add", lambda a, b: a + b, [(2, 3), (2, 3)]),
    ("sub", lambda a, b: a - b, [(2, 3), (2, 3)]),
    ("mul", lambda a, b: a * b, [(2, 3), (2, 3)]),
    ("instance_norm", lambda a: instance_norm(a), [(2, 3, 4, 5)]),
    ("rsub", lambda a: 1.0 - a, [(2, 3)]),
    ("exp", lambda a: a.exp(), [(2, 3)]),
    ("relu", lambda a: a.relu(), [(2, 3)]),
    ("sigmoid", lambda a: a.sigmoid(), [(2, 3)]),
    ("clamp", lambda a: a.clamp(0.2, 0.8), [(2, 3)]),
    ("sum", lambda a: a.sum(axis=1), [(2, 3)]),
    ("max", lambda a: a.max(axis=1), [(2, 3)]),
    ("reshape", lambda a: a.reshape(3, 2), [(2, 3)]),
    ("conv2d_1x1", lambda x, w, b: conv2d(x, w, b), [(2, 3, 1, 1), (4, 3, 1, 1), (4,)]),
    ("concat", lambda a, b: concat([a, b], axis=1), [(2, 3), (2, 2)]),
    ("conv2d", lambda x, w, b: conv2d(x, w, b, padding=1),
     [(1, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    ("upsample", lambda a: upsample_nearest2x(a), [(1, 2, 3, 3)]),
    ("spatial_softmax", lambda a: spatial_softmax(a), [(1, 2, 3, 3)]),
    ("upsample_conv2d", lambda x, w, b: upsample_conv2d(x, w, b),
     [(1, 2, 3, 2), (3, 2, 3, 3), (3,)]),
]


class TestGraphLinkage:
    """An op's output joins the graph only when a gradient can reach an input."""

    @pytest.mark.parametrize("name,fn,shapes", _LINKAGE_OPS)
    def test_pruned_without_grad(self, name, fn, shapes):
        rng = np.random.default_rng(0)
        out = fn(*[t(rng.random(s) + 0.5, grad=False) for s in shapes])
        assert out._parents == () and out._backward is None

    @pytest.mark.parametrize("interior", [False, True])
    @pytest.mark.parametrize("name,fn,shapes", _LINKAGE_OPS)
    def test_linked_through_any_one_input(self, name, fn, shapes, interior):
        rng = np.random.default_rng(0)
        for i in range(len(shapes)):
            inputs = [t(rng.random(s) + 0.5, grad=False) for s in shapes]
            if interior:  # a graph node that is not itself a leaf parameter
                inputs[i] = t(rng.random(shapes[i]) + 0.5) * 1.0
            else:
                inputs[i].requires_grad = True
            out = fn(*inputs)
            assert any(p is inputs[i] for p in out._parents), (name, i)
            assert out._backward is not None


class TestGradcheck:
    def test_elementwise_multiply(self):
        rep = gradcheck(lambda a, b: (a * b).sum(), [(4, 5), (4, 5)])
        assert rep.max_rel_err < 1e-7, rep

    def test_spatial_softmax(self):
        rep = gradcheck(lambda x: (spatial_softmax(x) * Tensor(
            np.random.default_rng(0).random((1, 2, 5, 5)))).sum(), [(1, 2, 5, 5)])
        assert rep.max_rel_err < 1e-4, rep

    def test_stop_gradient_exact_zero(self):
        x = Tensor(np.random.default_rng(0).random(6), requires_grad=True)
        (stop_gradient(x) * stop_gradient(x)).sum().backward()
        assert x.grad is None or np.all(x.grad == 0.0)

    @pytest.mark.parametrize("name,fn,shapes", [
        ("add", lambda a, b: (a + b * 2.0).sum(), [(3, 4), (3, 4)]),
        ("sub", lambda a, b: ((a - b) * (a - b)).sum(), [(3, 4), (3, 4)]),
        ("instance_norm_batch", lambda a: (instance_norm(a) * Tensor(
            np.random.default_rng(2).random((2, 3, 5, 7)))).sum(), [(2, 3, 5, 7)]),
        ("conv2d_1x1", lambda x, w, b: _square(conv2d(x, w, b)).sum(),
         [(3, 4, 1, 1), (2, 4, 1, 1), (2,)]),
        ("sigmoid", lambda a: a.sigmoid().sum(), [(5, 5)]),
        ("exp", lambda a: (a * 0.3).exp().sum(), [(4, 4)]),
        ("relu", lambda a: (a + 0.6).relu().sum(), [(4, 4)]),
        ("rsub", lambda a: ((1.0 - a) * a).sum(), [(4, 4)]),
        ("mean", lambda a: (a * a).mean(axis=(0, 1)), [(4, 4)]),
        ("max", lambda a: a.max(axis=1).sum(), [(4, 6)]),
        ("concat", lambda a, b: _square(concat([a, b], axis=1)).sum(),
         [(2, 3), (2, 2)]),
        ("upsample", lambda a: _square(upsample_nearest2x(a)).sum(), [(1, 2, 3, 3)]),
        ("instance_norm", lambda a: (instance_norm(a) * Tensor(
            np.random.default_rng(1).random((1, 2, 4, 4)))).sum(), [(1, 2, 4, 4)]),
        ("mse", lambda a, b: mse(a, b), [(3, 4), (3, 4)]),
        ("upsample_conv2d", lambda x, w, b: _square(upsample_conv2d(x, w, b)).sum(),
         [(2, 2, 3, 2), (3, 2, 3, 3), (3,)]),
    ])
    def test_op(self, name, fn, shapes):
        rep = gradcheck(fn, shapes, seed=7)
        assert rep.passed, f"{name}: {rep}"


class TestAdam:
    def test_zero_grad_leaves_params(self):
        p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(2, dtype=np.float32)
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        assert np.array_equal(p.data, [1.0, 2.0])
        assert opt.step_count == 1

    def test_first_step_magnitude(self):
        p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
        p.grad = np.array([0.5])
        Adam({"p": p}, lr=0.001).step()
        # bias-corrected first step is ~ -lr * sign(g)
        assert abs((1.0 - p.data[0]) - 0.001) < 1e-6

    def test_two_steps_monotone_against_gradient(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        values = [p.data[0]]
        for _ in range(2):
            p.grad = np.array([2.0])  # constant positive gradient
            opt.step()
            values.append(p.data[0])
        assert values[0] > values[1] > values[2]

    def test_scalar_recurrence_oracle(self):
        # hand-simulated Adam recurrences for a constant gradient
        g, lr, b1, b2, eps = 0.7, 0.005, 0.9, 0.999, 1e-8
        x, m, v = 1.0, 0.0, 0.0
        for step in range(1, 4):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps)
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=lr)
        for _ in range(3):
            p.grad = np.array([g])
            opt.step()
        assert abs(p.data[0] - x) < 1e-12

    def test_non_finite_gradient_rejected_with_name(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(FloatingPointError, match="enc.w"):
            Adam({"enc.w": p}).step()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "encoder.conv1.w": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
            "bias": rng.standard_normal(4).astype(np.float32),
            "scalarish": np.array(3.25, dtype=np.float32),
        }
        path = tmp_path / "ck.lusk"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].shape == tensors[name].shape
            assert np.array_equal(
                loaded[name].view(np.uint32), tensors[name].view(np.uint32))

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "ck.lusk"
        save_tensors(path, {"x": np.zeros(2, dtype=np.float32)})
        assert path.read_bytes()[:4] == b"LUSK"

    def test_every_truncation_rejected(self, tmp_path):
        # the record count makes a cut at a record boundary a short file too
        path = tmp_path / "ck.lusk"
        save_tensors(path, {"w": np.ones((2, 3), np.float32), "s": np.array(1.5, np.float32)})
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="ends inside"):
                load_tensors(path)

    def test_header_holds_version_and_record_count(self, tmp_path):
        path = tmp_path / "ck.lusk"
        save_tensors(path, {"w": np.ones(2, np.float32), "s": np.array(1.5, np.float32)})
        assert struct.unpack("<4sII", path.read_bytes()[:12]) == (b"LUSK", 3, 2)

    def test_bytes_after_the_last_record_rejected(self, tmp_path):
        path = tmp_path / "ck.lusk"
        save_tensors(path, {"w": np.ones(2, np.float32)})
        path.write_bytes(path.read_bytes() + b"\0" * 3)
        with pytest.raises(CheckpointError, match="3 bytes after the last of 1 records"):
            load_tensors(path)

    def test_repeated_record_name_rejected(self, tmp_path):
        # a count of 2 is met by the first two records only when their names differ
        path = tmp_path / "ck.lusk"
        save_tensors(path, {"w": np.ones(2, np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:8] + struct.pack("<I", 2) + blob[12:] + blob[12:])
        with pytest.raises(CheckpointError, match="record w appears twice"):
            load_tensors(path)

    def test_unknown_version_rejected(self, tmp_path):
        # v1 and v2 models kept their config in float32 slots; only v3 loads
        path = tmp_path / "ck.lusk"
        save_tensors(path, {"w": np.ones(2, np.float32)})
        blob = path.read_bytes()
        for version in (1, 2, 4):
            path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
            with pytest.raises(CheckpointError, match=f"checkpoint version {version}$"):
                load_tensors(path)

    def test_more_dims_than_numpy_holds_rejected(self, tmp_path):
        path = tmp_path / "ck.lusk"
        rank = 65  # a zero dim keeps the value count, and so the file, small
        path.write_bytes(b"LUSK" + struct.pack("<IIIcQ", 3, 1, 1, b"x", rank) + bytes(8 * rank))
        with pytest.raises(CheckpointError, match="record x"):
            load_tensors(path)

    def test_failed_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "ck.lusk"
        save_tensors(path, {"x": np.arange(3, dtype=np.float32)})
        before = path.read_bytes()
        with pytest.raises(ValueError):  # the second record is not numeric
            save_tensors(path, {"x": np.zeros(5, np.float32), "bad": np.array(["nan?"])})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.lusk"]

    def test_exception_inside_atomic_open_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_open(path) as f:
                f.write("partial\n")
                f.flush()
                raise RuntimeError("midway")
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lusk"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_tensors(path)
