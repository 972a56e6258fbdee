"""Checks for the tensor engine: forward kernels against loop oracles,
backward passes against central finite differences.

Exact (==) comparisons only ever use integer-valued inputs, where float
summation is associative and the loop oracle must agree bit for bit.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cascadeprune.autodiff as ad
import oracles


def fd_check(build_loss, x0, h=1e-5, tol=1e-4):
    """Compare the engine's gradient of build_loss w.r.t. x0 against
    central finite differences. build_loss maps a Tensor to a scalar Tensor."""
    t = ad.Tensor(x0, dtype="f64", requires_grad=True)
    ad.backward(build_loss(t))
    got = t.grad

    def f(a):
        return float(build_loss(ad.Tensor(a, dtype="f64")).data)

    want = oracles.fd_grad(f, x0, h=h)
    err = oracles.rel_err(got, want)
    assert err < tol, f"gradient mismatch, rel err {err:.3g}"


class TestConvForward:
    def test_valid_matches_loop_reference(self):
        """Unpadded conv equals the six-loop transcription, exactly."""
        rng = np.random.default_rng(7)
        x = oracles.int_tensor(rng, (2, 3, 6, 5))
        w = oracles.int_tensor(rng, (3, 3, 3, 4))
        got = ad.conv2d(ad.Tensor(x), ad.Tensor(w), padding="valid").data
        want = oracles.conv2d_loops(x, w, padding="valid")
        assert got.shape == (2, 4, 4, 3)
        assert np.array_equal(got, want)

    def test_same_matches_loop_reference(self):
        rng = np.random.default_rng(8)
        x = oracles.int_tensor(rng, (2, 2, 7, 7))
        w = oracles.int_tensor(rng, (3, 3, 2, 5))
        got = ad.conv2d(ad.Tensor(x), ad.Tensor(w), padding="same").data
        assert got.shape == (2, 5, 7, 7)
        assert np.array_equal(got, oracles.conv2d_loops(x, w, padding="same"))

    def test_stride_two_matches_loop_reference(self):
        rng = np.random.default_rng(9)
        x = oracles.int_tensor(rng, (1, 3, 9, 9))
        w = oracles.int_tensor(rng, (3, 3, 3, 2))
        for pad in ("same", "valid"):
            got = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=2, padding=pad).data
            assert np.array_equal(got, oracles.conv2d_loops(x, w, 2, pad))

    def test_odd_same_padding_lands_bottom_right(self):
        """2x2 kernel on a 2x2 image needs one padded row/col; it must be
        appended after the data, so the top-left window stays unpadded.
        Hand worked: x=[[1,2],[3,4]], all-ones kernel ->
        [[1+2+3+4, 2+4], [3+4, 4]]."""
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.ones((2, 2, 1, 1))
        y = ad.conv2d(ad.Tensor(x), ad.Tensor(w), padding="same").data
        np.testing.assert_array_equal(y[0, 0], [[10.0, 6.0], [7.0, 4.0]])

    def test_single_pixel_identity(self):
        x = np.arange(6.0).reshape(1, 6, 1, 1)
        w = np.eye(6).reshape(1, 1, 6, 6)
        y = ad.conv2d(ad.Tensor(x), ad.Tensor(w)).data
        np.testing.assert_array_equal(y, x)

    def test_rejects_channel_mismatch(self):
        x = ad.Tensor(np.zeros((1, 3, 4, 4)))
        w = ad.Tensor(np.zeros((3, 3, 2, 8)))
        with pytest.raises(ad.ShapeError):
            ad.conv2d(x, w)

    def test_rejects_rectangular_kernel(self):
        x = ad.Tensor(np.zeros((1, 2, 4, 4)))
        w = ad.Tensor(np.zeros((3, 2, 2, 8)))
        with pytest.raises(ad.ShapeError):
            ad.conv2d(x, w)

    def test_rejects_oversized_valid_window(self):
        x = ad.Tensor(np.zeros((1, 1, 3, 3)))
        w = ad.Tensor(np.zeros((5, 5, 1, 1)))
        with pytest.raises(ad.ShapeError):
            ad.conv2d(x, w, padding="valid")


class TestConvBackward:
    def test_input_gradient_same_padding(self):
        rng = np.random.default_rng(10)
        x0 = rng.standard_normal((2, 2, 5, 5))
        w = ad.Tensor(rng.standard_normal((3, 3, 2, 3)), dtype="f64")
        fd_check(lambda t: ad.tensor_sum(ad.square(ad.conv2d(t, w))), x0)

    def test_weight_gradient_same_padding(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.standard_normal((2, 2, 5, 5)), dtype="f64")
        w0 = rng.standard_normal((3, 3, 2, 3))
        fd_check(lambda t: ad.tensor_sum(ad.square(ad.conv2d(x, t))), w0)

    def test_gradients_strided_valid(self):
        """Stride 2 exercises the scatter stride in the input gradient."""
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal((1, 2, 7, 7))
        w0 = rng.standard_normal((3, 3, 2, 2))
        w = ad.Tensor(w0, dtype="f64")
        fd_check(lambda t: ad.tensor_sum(
            ad.square(ad.conv2d(t, w, stride=2, padding="valid"))), x0)
        x = ad.Tensor(x0, dtype="f64")
        fd_check(lambda t: ad.tensor_sum(
            ad.square(ad.conv2d(x, t, stride=2, padding="valid"))), w0)

    def test_gradients_strided_same(self):
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((1, 1, 6, 6))
        w0 = rng.standard_normal((3, 3, 1, 2))
        x = ad.Tensor(x0, dtype="f64")
        fd_check(lambda t: ad.tensor_sum(
            ad.square(ad.conv2d(x, t, stride=2, padding="same"))), w0)


class TestConvKernel:
    """The one-GEMM kernel in f32 against the f64 loop oracle, over every
    kernel size 1-5, stride 1-3 and padding mode, on odd and even sizes."""

    CASES = [((2, 3, 7, 7) if (k + stride) % 2 else (2, 3, 6, 8), k, stride, pad)
             for k in range(1, 6) for stride in (1, 2, 3)
             for pad in ("same", "valid")]

    @staticmethod
    def operands(seed, shape, k):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((k, k, shape[1], 2)).astype(np.float32)
        return rng, x, w

    @pytest.mark.parametrize("shape,k,stride,pad", CASES)
    def test_f32_matches_f64_reference(self, shape, k, stride, pad):
        _, x, w = self.operands(21, shape, k)
        got = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=stride, padding=pad).data
        want = oracles.conv2d_loops(x.astype(np.float64), w.astype(np.float64),
                                    stride, pad)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("shape,k,stride,pad", CASES)
    def test_patch_matrix_matches_the_tap_loop(self, shape, k, stride, pad):
        """The one-copy patch matrix holds exactly the values the tap loop
        reads, in the kernel's (i, j, channel) column order."""
        _, x, _ = self.operands(24, shape, k)
        pads, ho, wo = ad._conv_geometry(shape[2], shape[3], k, stride, pad)
        got = ad._patches(ad._channels_last_padded(x, pads, x.dtype),
                          k, stride, ho, wo)
        want = oracles.patches_loops(x, k, stride, pad)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("shape,k,stride,pad", CASES)
    @pytest.mark.parametrize("wrt", ["x", "w"])
    def test_f32_backward_of_one_operand(self, shape, k, stride, pad, wrt):
        """Only one operand requires grad: it gets the reference gradient,
        in f32 and C order, and the other gets none."""
        rng, x0, w0 = self.operands(22, shape, k)
        x = ad.Tensor(x0, requires_grad=wrt == "x")
        w = ad.Tensor(w0, requires_grad=wrt == "w")
        y = ad.conv2d(x, w, stride=stride, padding=pad)
        g = rng.standard_normal(y.shape).astype(np.float32)
        ad.backward(ad.tensor_sum(ad.mul_const(y, g)))
        want_gx, want_gw = oracles.conv2d_vjp_loops(
            x0.astype(np.float64), w0.astype(np.float64),
            g.astype(np.float64), stride, pad)
        got, want, other = ((x.grad, want_gx, w.grad) if wrt == "x"
                            else (w.grad, want_gw, x.grad))
        assert other is None
        assert got.dtype == np.float32 and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @staticmethod
    def conv_memory_peak(backward: bool) -> float:
        """The tracemalloc peak of a 3x3 64-to-64 conv's forward, or of its
        backward, on an (8, 64, 32, 32) f32 input, in input sizes."""
        rng = np.random.default_rng(23)
        x = ad.Tensor(rng.standard_normal((8, 64, 32, 32)).astype(np.float32),
                      requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 3, 64, 64)).astype(np.float32),
                      requires_grad=True)
        loss = ad.tensor_sum(ad.conv2d(x, w)) if backward else None
        tracemalloc.start()
        try:
            if backward:
                ad.backward(loss)
                assert x.grad is not None and w.grad is not None
            else:
                ad.conv2d(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / x.data.nbytes

    def test_backward_memory_bound(self):
        """The backward rebuilds one K*K-wide patch matrix and frees it
        before the input gradient's: its peak allocation stays below 13
        times the input's bytes."""
        peak = self.conv_memory_peak(backward=True)
        assert peak < 13, f"peak {peak:.1f}x the input"

    def test_forward_alone_goes_through_conv2d_raw(self, monkeypatch):
        """conv2d's and masked_conv2d's forwards look conv2d_raw up by its
        module-global name and call it once with the whole batch, also on a
        shape the chunk rule splits in 4, so a wrapper there (the tracer's
        _conv_macs) sees every graph conv's multiply-accumulates; the
        backward does not call it."""
        calls = []
        raw = ad.conv2d_raw

        def counted(*args, **kwargs):
            out = raw(*args, **kwargs)
            calls.append((args[0].shape, args[1].shape, out.size))
            return out

        monkeypatch.setattr(ad, "conv2d_raw", counted)
        rng = np.random.default_rng(31)
        assert len(ad._conv_chunks(4, 32 * 32, 9 * 64, 64, np.float32)) == 4
        for x_shape, w_shape, masked in [((1, 2, 5, 5), (3, 3, 2, 4), False),
                                         ((4, 64, 32, 32), (3, 3, 64, 64), False),
                                         ((4, 64, 32, 32), (3, 3, 64, 64), True)]:
            calls.clear()
            x = ad.Tensor(rng.standard_normal(x_shape).astype(np.float32),
                          requires_grad=True)
            w = ad.Tensor(rng.standard_normal(w_shape).astype(np.float32),
                          requires_grad=True)
            if masked:
                y, _ = ad.masked_conv2d(x, w, np.arange(w_shape[3]) % 3 != 0)
            else:
                y = ad.conv2d(x, w)
            want = [(x_shape, w_shape, x_shape[0] * w_shape[3] * x_shape[2] * x_shape[3])]
            assert calls == want
            ad.backward(ad.tensor_sum(y))
            assert calls == want
            assert x.grad is not None and w.grad is not None


class TestConvChunks:
    """The im2col kernels run over chunks of images and the kernel
    gradient tap by tap; neither may change a bit of the one-GEMM
    result."""

    def test_backward_memory_bound(self):
        """The kernel gradient holds one tap's copy of the input, not the
        K*K-wide patch matrix, and the input gradient one chunk of it."""
        peak = TestConvKernel.conv_memory_peak(backward=True)
        assert peak < 6, f"peak {peak:.1f}x the input"

    def test_forward_memory_bound(self):
        """The forward holds one chunk's patch matrix beside its output."""
        peak = TestConvKernel.conv_memory_peak(backward=False)
        assert peak < 3, f"peak {peak:.1f}x the input"

    @staticmethod
    def one_gemm(x, w, g, stride, pad):
        """The forward, input gradient and kernel gradient as one GEMM
        each over the whole batch's patch matrix."""
        n, c, h, wd = x.shape
        k, _, cin, cout = w.shape
        pads, ho, wo = ad._conv_geometry(h, wd, k, stride, pad)
        pt, pb, pl, pr = pads
        cols = ad._patches(ad._channels_last_padded(x, pads, x.dtype), k, stride, ho, wo)
        kernel = w.reshape(k * k * cin, cout)
        y = (cols @ kernel).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)
        rows = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, cout)
        gw = (cols.T @ rows).reshape(k, k, cin, cout)
        gcols = (rows @ kernel.T).reshape(n, ho, wo, k, k, cin)
        gxp = np.zeros((n, h + pt + pb, wd + pl + pr, cin), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, :, :, i, j]
        gx = gxp[:, pt:pt + h, pl:pl + wd].transpose(0, 3, 1, 2)
        return y, gx, gw

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_chunks_do_not_change_a_bit(self, data):
        """With the batch split into the smallest chunks the 100^3 bound
        allows, and the kernel gradient run tap by tap, the forward and
        both gradients are byte for byte those of one GEMM over the whole
        batch. Only shapes whose chunk and tap GEMMs have M*K*N above
        100^3 are split: below it a GEMM split by rows is not bitwise."""
        k = data.draw(st.sampled_from([1, 3, 5]), label="k")
        stride = data.draw(st.integers(1, 2), label="stride")
        pad = data.draw(st.sampled_from(["same", "valid"]), label="pad")
        h = data.draw(st.integers(8, 12), label="h")
        wd = data.draw(st.integers(8, 12), label="w")
        cin = data.draw(st.integers(8 if k == 1 else 2, 32), label="cin")
        cout = data.draw(st.integers(16, 64), label="cout")
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        _, ho, wo = ad._conv_geometry(h, wd, k, stride, pad)
        # the fewest images a chunk may hold, then a batch of a few chunks
        images = ad._BLAS_SMALL_MNK // (ho * wo * k * k * cin * cout) + 1
        assume(images <= 6)
        n = data.draw(st.integers(2 * images + 1, 4 * images + 2), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.standard_normal((n, cin, h, wd)).astype(dtype)
        w = rng.standard_normal((k, k, cin, cout)).astype(dtype)
        g = rng.standard_normal((n, cout, ho, wo)).astype(dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_CONV_CHUNK_BYTES", 1)
            mp.setattr(ad, "_CONV_KERNEL_REUSE", 0)
            mp.setattr(ad, "_TAP_GRAD_BYTES", 1)
            chunks = ad._conv_chunks(n, ho * wo, k * k * cin, cout, dtype)
            assert len(chunks) > 1 or dtype != np.float32
            y = ad.conv2d(ad.Tensor(x, requires_grad=True),
                          ad.Tensor(w, requires_grad=True), stride=stride, padding=pad)
            got = (y.data, *y.node.backward(g))
        for name, a, b in zip(("y", "gx", "gw"), self.one_gemm(x, w, g, stride, pad), got):
            assert b.dtype == dtype and b.flags.c_contiguous and a.shape == b.shape, name
            assert np.ascontiguousarray(a).tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("lowered", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunk_rule(self, dtype, lowered, monkeypatch):
        """Over a grid of conv shapes, the chunks cover the batch in order
        in near-equal parts. A float32 batch with two or more rows and
        columns is split where a part of fewer than half its images can
        hold a patch matrix of 2 MB and four kernels and a GEMM above
        100^3, and then every chunk does; otherwise, and always for
        float64, it is one chunk. With the byte targets lowered to
        nothing, the 100^3 bound alone decides."""
        if lowered:
            monkeypatch.setattr(ad, "_CONV_CHUNK_BYTES", 1)
            monkeypatch.setattr(ad, "_CONV_KERNEL_REUSE", 0)
        size = np.dtype(dtype).itemsize

        def holds(m, pixels, kkc, cout):
            return (m * pixels * kkc * size >= ad._CONV_CHUNK_BYTES
                    and m * pixels * kkc >= ad._CONV_KERNEL_REUSE * kkc * cout
                    and m * pixels * kkc * cout > ad._BLAS_SMALL_MNK)

        split = 0
        for n in (1, 2, 3, 5, 8, 13, 32, 50):
            for pixels in (1, 4, 16, 64, 256, 1024):
                for kkc in (1, 3, 27, 64, 288, 576, 2304, 4608):
                    for cout in (1, 2, 10, 32, 64, 128, 512):
                        chunks = ad._conv_chunks(n, pixels, kkc, cout, dtype)
                        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
                        assert chunks[-1][1] == n
                        sizes = [hi - lo for lo, hi in chunks]
                        assert max(sizes) - min(sizes) <= 1
                        splittable = (dtype == np.float32 and min(kkc, cout) >= 2
                                      and holds((n - 1) // 2, pixels, kkc, cout))
                        assert (len(chunks) > 1) == splittable
                        for m in sizes if len(chunks) > 1 else ():
                            assert holds(m, pixels, kkc, cout)
                        split += len(chunks) > 1
        assert split > 0 or dtype != np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_whole_batch_when_a_chunk_is_half_of_it(self, dtype):
        """vgg16's 512-wide layers at 4x4 and a stem are one GEMM at batch
        32, while a 64-wide layer at 32x32 is split in f32 only."""
        assert ad._conv_chunks(32, 16, 9 * 512, 512, dtype) == [(0, 32)]
        assert ad._conv_chunks(32, 1024, 27, 64, dtype) == [(0, 32)]
        wide = ad._conv_chunks(32, 1024, 9 * 64, 64, dtype)
        assert len(wide) == (32 if dtype == np.float32 else 1)

    @pytest.mark.parametrize("m,k,n,parts,layout", [
        (4096, 576, 64, 4, "a@b"),
        (3000, 300, 42, 3, "a@b"),
        (8192, 64, 9 * 123, 8, "a@b.T"),
        (8192, 9 * 40, 42, 9, "a.T@b"),
    ])
    def test_blas_splits_large_products_bitwise(self, m, k, n, parts, layout):
        """The rule rests on this: the installed BLAS computes each block
        of rows of an f32 GEMM to the same bits as the whole when every
        block's M*K*N is above 100^3. The blocks are rows of the left
        operand, as in the forward's chunks (a@b) and the input
        gradient's, whose right operand is the kernel transposed (a@b.T),
        or rows of its transpose, as in the per-tap kernel gradient
        (a.T@b). A BLAS that breaks it fails here instead of moving the
        numerics silently."""
        rng = np.random.default_rng(29)
        a = rng.standard_normal((m, k)).astype(np.float32)
        if layout == "a.T@b":
            b = rng.standard_normal((m, n)).astype(np.float32)
            whole = a.T @ b
            step = k // parts
            part = np.empty((m, step), dtype=np.float32)
            blocks = []
            for t in range(parts):
                part[:] = a[:, t * step:(t + 1) * step]
                blocks.append(part.T @ b)
            assert step * m * n > ad._BLAS_SMALL_MNK
        else:
            b = (rng.standard_normal((k, n)) if layout == "a@b"
                 else rng.standard_normal((n, k)).T).astype(np.float32)
            whole = a @ b
            bounds = [i * m // parts for i in range(parts + 1)]
            blocks = [a[lo:hi] @ b for lo, hi in zip(bounds, bounds[1:])]
            assert (m // parts) * k * n > ad._BLAS_SMALL_MNK
        assert np.concatenate(blocks).tobytes() == whole.tobytes()


class TestDepthwiseConv:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(15)
        x = oracles.int_tensor(rng, (2, 3, 6, 6))
        w = oracles.int_tensor(rng, (3, 3, 3))
        for stride, pad in ((1, "same"), (2, "same"), (1, "valid"), (2, "valid")):
            got = ad.depthwise_conv2d(ad.Tensor(x), ad.Tensor(w),
                                      stride=stride, padding=pad).data
            want = oracles.depthwise_conv2d_loops(x, w, stride, pad)
            assert np.array_equal(got, want), (stride, pad)

    def test_channels_stay_separate(self):
        """A kernel that is zero for channel 1 must zero exactly that
        output channel, whatever sits in the other channels."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 3, 2))
        w[:, :, 1] = 0.0
        y = ad.depthwise_conv2d(ad.Tensor(x, dtype="f64"),
                                ad.Tensor(w, dtype="f64")).data
        assert np.abs(y[0, 1]).max() == 0.0
        assert np.abs(y[0, 0]).max() > 0.0

    def test_gradients(self):
        rng = np.random.default_rng(17)
        x0 = rng.standard_normal((2, 2, 5, 5))
        w0 = rng.standard_normal((3, 3, 2))
        w = ad.Tensor(w0, dtype="f64")
        fd_check(lambda t: ad.tensor_sum(ad.square(
            ad.depthwise_conv2d(t, w, stride=2))), x0)
        x = ad.Tensor(x0, dtype="f64")
        fd_check(lambda t: ad.tensor_sum(ad.square(
            ad.depthwise_conv2d(x, t, stride=2))), w0)

    # odd and even sizes; an even size at stride 2 pads 'same' only on
    # the bottom/right
    F32_CASES = [(shape, stride, pad)
                 for shape in ((2, 3, 7, 7), (2, 3, 6, 8), (1, 4, 5, 6))
                 for stride in (1, 2) for pad in ("same", "valid")]

    @pytest.mark.parametrize("shape,stride,pad", F32_CASES)
    def test_f32_matches_f64_reference(self, shape, stride, pad):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((3, 3, shape[1])).astype(np.float32)
        got = ad.depthwise_conv2d(ad.Tensor(x), ad.Tensor(w),
                                  stride=stride, padding=pad).data
        want = oracles.depthwise_conv2d_loops(x.astype(np.float64),
                                              w.astype(np.float64), stride, pad)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("shape,stride,pad", F32_CASES)
    @pytest.mark.parametrize("wrt", ["x", "w"])
    def test_f32_backward_of_one_operand(self, shape, stride, pad, wrt):
        """Only one operand requires grad: it gets the reference gradient,
        in f32 and C order, and the other gets none."""
        rng = np.random.default_rng(19)
        x0 = rng.standard_normal(shape).astype(np.float32)
        w0 = rng.standard_normal((3, 3, shape[1])).astype(np.float32)
        x = ad.Tensor(x0, requires_grad=wrt == "x")
        w = ad.Tensor(w0, requires_grad=wrt == "w")
        y = ad.depthwise_conv2d(x, w, stride=stride, padding=pad)
        g = rng.standard_normal(y.shape).astype(np.float32)
        ad.backward(ad.tensor_sum(ad.mul_const(y, g)))
        want_gx, want_gw = oracles.depthwise_conv2d_vjp_loops(
            x0.astype(np.float64), w0.astype(np.float64),
            g.astype(np.float64), stride, pad)
        got, want, other = ((x.grad, want_gx, w.grad) if wrt == "x"
                            else (w.grad, want_gw, x.grad))
        assert other is None
        assert got.dtype == np.float32 and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_backward_memory_stays_near_input_size(self):
        """The backward must not build a K*K-times-input buffer: its peak
        allocation stays below 6 times the input's bytes."""
        rng = np.random.default_rng(20)
        x = ad.Tensor(rng.standard_normal((8, 64, 32, 32)).astype(np.float32),
                      requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 3, 64)).astype(np.float32),
                      requires_grad=True)
        y = ad.depthwise_conv2d(x, w)
        loss = ad.tensor_sum(y)
        tracemalloc.start()
        try:
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None and w.grad is not None
        assert peak < 6 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input"

    @staticmethod
    def forward_and_grads(x, w, g, stride, pad, chunk_bytes):
        """The output and both gradients, with the kernels' chunk size
        set to chunk_bytes."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_DW_CHUNK_BYTES", chunk_bytes)
            y = ad.depthwise_conv2d(ad.Tensor(x, requires_grad=True),
                                    ad.Tensor(w, requires_grad=True),
                                    stride=stride, padding=pad)
            return (y.data, *y.node.backward(g))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_chunks_do_not_change_a_bit(self, data):
        """Run in chunks of a few images, the forward and both gradients
        are byte for byte those of a run in one chunk."""
        n = data.draw(st.sampled_from([1, 2, 5, 7, 11]), label="n")
        c = data.draw(st.integers(1, 70), label="c")
        k = data.draw(st.integers(1, 5), label="k")
        pad = data.draw(st.sampled_from(["same", "valid"]), label="pad")
        lo = k if pad == "valid" else 1
        h = data.draw(st.integers(lo, 9), label="h")
        wd = data.draw(st.integers(lo, 9), label="w")
        stride = data.draw(st.integers(1, 3), label="stride")
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        chunk = data.draw(st.sampled_from([1, 2048, 16384]), label="chunk_bytes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.standard_normal((n, c, h, wd)).astype(dtype)
        w = rng.standard_normal((k, k, c)).astype(dtype)
        _, ho, wo = ad._conv_geometry(h, wd, k, stride, pad)
        g = rng.standard_normal((n, c, ho, wo)).astype(dtype)
        whole = self.forward_and_grads(x, w, g, stride, pad, 1 << 40)
        chunked = self.forward_and_grads(x, w, g, stride, pad, chunk)
        for name, a, b in zip(("y", "gx", "gw"), whole, chunked):
            assert a.dtype == b.dtype == dtype and b.flags.c_contiguous, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (2, 1, 4), (3, 5, 7), (33, 17)])
    def test_scratch_starts_on_a_cache_line(self, shape, dtype):
        """The kernels' chunk buffers start on a cache line wherever malloc
        puts the allocation, and zero=True hands them out zero-filled."""
        for _ in range(8):  # successive allocations land at different offsets
            a = ad._line_aligned(shape, dtype, zero=True)
            assert a.shape == shape and a.dtype == dtype and a.flags.c_contiguous
            assert a.ctypes.data % ad._LINE_BYTES == 0
            assert not a.any()

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.depthwise_conv2d(ad.Tensor(np.zeros((1, 3, 4, 4))),
                                ad.Tensor(np.zeros((3, 3, 2))))


class TestDense:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(20)
        x = oracles.int_tensor(rng, (4, 6))
        w = oracles.int_tensor(rng, (6, 3))
        got = ad.dense(ad.Tensor(x), ad.Tensor(w)).data
        assert np.array_equal(got, oracles.dense_loops(x, w))

    def test_gradients(self):
        rng = np.random.default_rng(21)
        x0 = rng.standard_normal((3, 5))
        w0 = rng.standard_normal((5, 4))
        w = ad.Tensor(w0, dtype="f64")
        fd_check(lambda t: ad.tensor_sum(ad.square(ad.dense(t, w))), x0)
        x = ad.Tensor(x0, dtype="f64")
        fd_check(lambda t: ad.tensor_sum(ad.square(ad.dense(x, t))), w0)

    def test_rejects_mismatched_inner_dim(self):
        with pytest.raises(ad.ShapeError):
            ad.dense(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))))


class TestBatchNorm:
    def test_train_matches_loop_reference(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((4, 3, 5, 5))
        bn = ad.BatchNormState("bn", 3, dtype="f64")
        bn.gamma.assign(rng.standard_normal(3))
        bn.beta.assign(rng.standard_normal(3))
        got = ad.batch_norm(ad.Tensor(x, dtype="f64"), bn, mode="train").data
        want = oracles.batch_norm_loops(x, bn.gamma.data, bn.beta.data)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_train_output_is_standardized(self):
        """With unit scale and zero offset the output of each channel has
        mean ~0 and biased variance ~1 (up to the epsilon in the divisor)."""
        rng = np.random.default_rng(31)
        x = 3.0 + 2.0 * rng.standard_normal((8, 4, 6, 6))
        bn = ad.BatchNormState("bn", 4, dtype="f64")
        y = ad.batch_norm(ad.Tensor(x, dtype="f64"), bn, mode="train").data
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_running_stats_move_by_one_tenth(self):
        """momentum 0.9 means: new_running = 0.9*old + 0.1*batch."""
        rng = np.random.default_rng(32)
        x = rng.standard_normal((4, 2, 3, 3))
        bn = ad.BatchNormState("bn", 2, dtype="f64")
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        ad.batch_norm(ad.Tensor(x, dtype="f64"), bn, mode="train")
        np.testing.assert_allclose(bn.running_mean, 0.1 * mu, rtol=1e-12)
        np.testing.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * var, rtol=1e-12)
        ad.batch_norm(ad.Tensor(x, dtype="f64"), bn, mode="train")
        np.testing.assert_allclose(bn.running_mean, (0.9 * 0.1 + 0.1) * mu, rtol=1e-12)

    def test_eval_uses_running_stats_only(self):
        rng = np.random.default_rng(33)
        bn = ad.BatchNormState("bn", 2, dtype="f64")
        bn.running_mean = np.array([1.0, -2.0])
        bn.running_var = np.array([4.0, 0.25])
        bn.gamma.assign(np.array([2.0, 3.0]))
        bn.beta.assign(np.array([0.5, -1.0]))
        x = rng.standard_normal((3, 2, 2, 2))
        y = ad.batch_norm(ad.Tensor(x, dtype="f64"), bn, mode="eval").data
        want = np.empty_like(x)
        for c in range(2):
            want[:, c] = bn.gamma.data[c] * (x[:, c] - bn.running_mean[c]) \
                / np.sqrt(bn.running_var[c] + 1e-5) + bn.beta.data[c]
        np.testing.assert_allclose(y, want, rtol=1e-12)
        # and the running stats must not move in eval mode
        np.testing.assert_array_equal(bn.running_mean, [1.0, -2.0])

    def test_train_gradients_through_batch_stats(self):
        """The input gradient must account for how the batch mean and
        variance themselves depend on x, not just the direct path."""
        rng = np.random.default_rng(34)
        x0 = rng.standard_normal((3, 2, 4, 4))

        def build(t):
            bn = ad.BatchNormState("bn", 2, dtype="f64")
            bn.gamma.assign(np.array([1.5, 0.7]))
            bn.beta.assign(np.array([0.2, -0.3]))
            return ad.tensor_sum(ad.square(ad.batch_norm(t, bn, mode="train")))

        fd_check(build, x0)

    def test_gamma_beta_gradients(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((3, 2, 4, 4))
        for which in ("gamma", "beta"):
            bn = ad.BatchNormState("bn", 2, dtype="f64")
            p0 = rng.standard_normal(2)

            def f(a):
                bn2 = ad.BatchNormState("bn", 2, dtype="f64")
                getattr(bn2, which).assign(np.asarray(a))
                out = ad.batch_norm(ad.Tensor(x, dtype="f64"), bn2, mode="train")
                return float(ad.tensor_sum(ad.square(out)).data)

            getattr(bn, which).assign(p0)
            loss = ad.tensor_sum(ad.square(
                ad.batch_norm(ad.Tensor(x, dtype="f64"), bn, mode="train")))
            ad.backward(loss)
            got = getattr(bn, which).grad
            want = oracles.fd_grad(f, p0)
            assert oracles.rel_err(got, want) < 1e-4, which

    def test_rejects_wrong_channel_count(self):
        bn = ad.BatchNormState("bn", 3)
        with pytest.raises(ad.ShapeError):
            ad.batch_norm(ad.Tensor(np.zeros((1, 4, 2, 2))), bn)


def backward_of(y, g):
    """Backprop sum(y * g) into whatever requires grad."""
    ad.backward(ad.tensor_sum(ad.mul_const(y, g)))


def assert_f32_c_order(*arrays):
    for a in arrays:
        assert a.dtype == np.float32 and a.flags.c_contiguous


def op_grads(y, g):
    """The gradients y's op hands its parents, before the backward sweep
    copies them into leaves. Call it before the sweep, which drops the
    op's closure."""
    return [pg for pg in y.node.backward(g) if pg is not None]


class TestTake:
    CASES = [((3, 3, 5, 7), 3, [0, 2, 3, 6]), ((3, 3, 5, 7), 3, []),
             ((3, 3, 5, 7), 3, list(range(7))), ((3, 3, 5, 7), 2, [1, 4]),
             ((4, 6), 1, [5]), ((6,), 0, [0, 3, 4])]

    @pytest.mark.parametrize("shape,axis,index", CASES)
    def test_gradient_scatters_into_zeros(self, shape, axis, index):
        """The gradient is g at the taken positions and exactly +0.0
        everywhere else, along the last axis too, in g's dtype."""
        rng = np.random.default_rng(35)
        x = ad.Tensor(rng.standard_normal(shape).astype(np.float32),
                      requires_grad=True)
        index = np.array(index, dtype=np.intp)
        y = ad.take(x, index, axis)
        g = rng.standard_normal(y.shape).astype(np.float32)
        backward_of(y, g)
        want = np.zeros(shape, dtype=np.float32)
        want[(slice(None),) * axis + (index,)] = g
        assert_f32_c_order(y.data, x.grad)
        assert np.array_equal(x.grad.view(np.uint32), want.view(np.uint32))

    AXES = [(axis, index) for axis in (-1, 0, 1, 2, 3)
            for index in ([1, 2], [], [0, 2, 3])]

    @staticmethod
    def scattered(values, index, size, axis):
        """values placed at index along axis of a zero array, by hand."""
        shape = list(values.shape)
        shape[axis] = size
        out = np.zeros(shape, dtype=values.dtype)
        np.moveaxis(out, axis, 0)[index] = np.moveaxis(values, axis, 0)
        return out

    @pytest.mark.parametrize("axis,index", AXES)
    def test_take_gradient_on_any_axis(self, axis, index):
        """A negative axis counts from the end, in the gradient too."""
        rng = np.random.default_rng(36)
        shape = (4, 5, 4, 6)
        x = ad.Tensor(rng.standard_normal(shape).astype(np.float32),
                      requires_grad=True)
        index = np.array(index, dtype=np.intp)
        y = ad.take(x, index, axis)
        assert np.array_equal(y.data, np.take(x.data, index, axis=axis))
        g = rng.standard_normal(y.shape).astype(np.float32)
        backward_of(y, g)
        want = self.scattered(g, index, shape[axis], axis)
        assert np.array_equal(x.grad.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("axis,index", AXES)
    def test_place_on_any_axis(self, axis, index):
        """place scatters into zeros on every axis; its gradient is g
        gathered back at index."""
        rng = np.random.default_rng(37)
        shape = [4, 5, 4, 6]
        shape[axis] = len(index)
        x = ad.Tensor(rng.standard_normal(shape).astype(np.float32),
                      requires_grad=True)
        index = np.array(index, dtype=np.intp)
        y = ad.place(x, index, 7, axis)
        want = self.scattered(x.data, index, 7, axis)
        assert np.array_equal(y.data.view(np.uint32), want.view(np.uint32))
        g = rng.standard_normal(y.shape).astype(np.float32)
        backward_of(y, g)
        assert np.array_equal(x.grad, np.take(g, index, axis=axis))


class TestGatherKernel:
    """ad.gather_kernel against the take per axis it replaces."""

    # (kernel shape, rows, cols); None keeps the whole axis
    CASES = {"rows": ((3, 3, 6, 5), [0, 2, 5], None),
             "rows_and_cols": ((3, 3, 6, 5), [1, 2, 4], [0, 3, 4]),
             "cols": ((1, 1, 6, 5), None, [1, 4]),
             "empty_rows": ((3, 3, 6, 5), [], [0, 1]),
             "empty_cols": ((3, 3, 6, 5), [0, 3], []),
             "all_kept": ((3, 3, 6, 5), list(range(6)), list(range(5))),
             "depthwise": ((3, 3, 7), [0, 1, 5], None)}

    @staticmethod
    def chain(w, rows, cols):
        """The kernel gathered by one ad.take per axis, rows first."""
        if rows is not None:
            w = ad.take(w, rows, axis=2)
        return w if cols is None else ad.take(w, cols, axis=3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_the_take_chain(self, case, dtype):
        """The forward and the gradient are byte-equal to one take per
        axis, and the gradient is +0.0 outside the gathered positions."""
        shape, rows, cols = self.CASES[case]
        rng = np.random.default_rng(41)
        w0 = rng.standard_normal(shape).astype(dtype)
        rows = None if rows is None else np.array(rows, dtype=np.intp)
        cols = None if cols is None else np.array(cols, dtype=np.intp)
        out = {}
        for name, op in (("one", ad.gather_kernel), ("chain", self.chain)):
            w = ad.Tensor(w0.copy(), requires_grad=True)
            y = op(w, rows, cols)
            g = np.random.default_rng(42).standard_normal(y.shape).astype(dtype)
            backward_of(y, g)
            out[name] = (y.data, w.grad)
        for got, want in zip(out["one"], out["chain"]):
            assert got.dtype == dtype and got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        outside = np.ones(shape, dtype=bool)
        r = slice(None) if rows is None else rows
        if cols is None:
            outside[:, :, r] = False
        else:
            outside[:, :, np.arange(shape[2])[r][:, None], cols] = False
        grad = out["one"][1]
        assert not np.signbit(grad[outside]).any() and not grad[outside].any()

    def test_backward_peak_is_one_kernel(self):
        """The backward of a 3x3 256-to-256 kernel at half keep writes its
        gradient into one zeroed kernel: its peak stays below 1.25 times
        the kernel's bytes; a take per axis adds an intermediate copy."""
        rng = np.random.default_rng(43)
        w = ad.Tensor(rng.standard_normal((3, 3, 256, 256)).astype(np.float32),
                      requires_grad=True)
        rows = np.sort(rng.permutation(256)[:128])
        cols = np.sort(rng.permutation(256)[:128])
        y = ad.gather_kernel(w, rows, cols)
        g = rng.standard_normal(y.shape).astype(np.float32)
        tracemalloc.start()
        try:
            (gw,) = op_grads(y, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gw.shape == w.shape
        assert peak < 1.25 * w.data.nbytes, peak / w.data.nbytes


class TestBatchNormKernel:
    """batch_norm in f32 against the f64 loop oracles, forward and
    backward, in both modes, on 2x2 and 4x4 maps and odd sizes."""

    SHAPES = [(4, 3, 2, 2), (3, 5, 4, 4), (5, 3, 3, 5), (6, 4, 1, 1)]

    @staticmethod
    def state(rng, c):
        bn = ad.BatchNormState("bn", c)
        bn.gamma.assign(rng.standard_normal(c))
        bn.beta.assign(rng.standard_normal(c))
        bn.running_mean = rng.standard_normal(c).astype(np.float32)
        bn.running_var = (0.5 + rng.random(c)).astype(np.float32)
        return bn

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_f32_matches_f64_reference(self, shape, mode):
        rng = np.random.default_rng(36)
        x0 = (1.0 + 2.0 * rng.standard_normal(shape)).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        bn = self.state(rng, shape[1])
        stats = {} if mode == "train" else {
            "mean": bn.running_mean.astype(np.float64),
            "var": bn.running_var.astype(np.float64)}
        args = (x0.astype(np.float64), bn.gamma.data.astype(np.float64))
        want_y = oracles.batch_norm_loops(*args, bn.beta.data.astype(np.float64),
                                          **stats)
        want = oracles.batch_norm_vjp_loops(*args, g.astype(np.float64), **stats)
        x = ad.Tensor(x0, requires_grad=True)
        y = ad.batch_norm(x, bn, mode=mode)
        handed = op_grads(y, g)
        backward_of(y, g)
        got = (x.grad, bn.gamma.grad, bn.beta.grad)
        assert_f32_c_order(y.data, *got, *handed)
        np.testing.assert_allclose(y.data, want_y, rtol=1e-5, atol=1e-5)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-4,
                                       atol=1e-5 * max(1.0, np.abs(b).max()))

    def test_train_backward_without_parameter_grads(self):
        """A frozen state still passes the full input gradient."""
        rng = np.random.default_rng(37)
        x0 = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        g = rng.standard_normal(x0.shape).astype(np.float32)
        grads = []
        for trainable in (True, False):
            bn = self.state(np.random.default_rng(38), 2)
            for p in (bn.gamma, bn.beta):
                p.value.requires_grad = trainable
            x = ad.Tensor(x0, requires_grad=True)
            backward_of(ad.batch_norm(x, bn), g)
            assert (bn.gamma.value.grad is None) == (not trainable)
            grads.append(x.grad)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_train_forward_keeps_nothing_beyond_x(self):
        """After a train-mode forward the only full-size array left
        allocated is the output: the graph holds x and per-channel
        vectors for the backward, no centred copy of x."""
        rng = np.random.default_rng(40)
        x = ad.Tensor(rng.standard_normal((8, 16, 16, 16)).astype(np.float32),
                      requires_grad=True)
        bn = ad.BatchNormState("bn", 16)
        tracemalloc.start()
        try:
            y = ad.batch_norm(x, bn, mode="train")
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.op == "batch_norm"
        assert held < 1.2 * y.data.nbytes, f"{held / y.data.nbytes:.2f}x the output"

    def test_train_backward_memory_bound(self):
        """The backward works in one full-size buffer: its peak allocation
        stays below 3 times the input's bytes (4.0x before the rewrite,
        2.1x now, the incoming gradient included)."""
        rng = np.random.default_rng(39)
        x = ad.Tensor(rng.standard_normal((8, 64, 32, 32)).astype(np.float32),
                      requires_grad=True)
        bn = ad.BatchNormState("bn", 64)
        y = ad.batch_norm(x, bn, mode="train")
        loss = ad.tensor_sum(ad.mul_const(y, rng.standard_normal(y.shape)))
        tracemalloc.start()
        try:
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None and bn.gamma.grad is not None
        assert peak < 3 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input"


class TestMaxPoolKernel:
    """max_pool in f32 against the f64 loop oracles: 2x2 and 4x4 maps,
    odd sizes, and overlapping 3x3 stride-2 'same' windows."""

    CASES = [((2, 3, 4, 4), 2, 2, "valid"), ((2, 3, 2, 2), 2, 2, "valid"),
             ((2, 2, 7, 5), 2, 2, "valid"), ((2, 2, 7, 7), 3, 2, "same"),
             ((1, 3, 4, 4), 3, 2, "same"), ((2, 2, 5, 6), 3, 1, "same"),
             ((2, 2, 6, 6), 3, 3, "valid"), ((1, 2, 5, 5), 2, 1, "valid")]

    @pytest.mark.parametrize("shape,k,stride,pad", CASES)
    def test_f32_matches_f64_reference(self, shape, k, stride, pad):
        rng = np.random.default_rng(45)
        x0 = rng.standard_normal(shape).astype(np.float32)
        x = ad.Tensor(x0, requires_grad=True)
        y = ad.max_pool(x, k, stride, pad)
        g = rng.standard_normal(y.shape).astype(np.float32)
        handed = op_grads(y, g)
        backward_of(y, g)
        assert_f32_c_order(y.data, x.grad, *handed)
        x64 = x0.astype(np.float64)
        assert np.array_equal(y.data, oracles.max_pool_loops(x64, k, stride, pad))
        np.testing.assert_allclose(
            x.grad, oracles.max_pool_vjp_loops(x64, g.astype(np.float64), k,
                                               stride, pad), rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("shape,k,stride,pad", CASES)
    def test_ties_go_to_the_first_maximum(self, shape, k, stride, pad):
        """On a few integer levels most windows tie; the gradient must land
        on the first maximum in scan order, bit for bit."""
        rng = np.random.default_rng(46)
        x0 = oracles.int_tensor(rng, shape, lo=0, hi=3)
        x = ad.Tensor(x0, requires_grad=True)
        y = ad.max_pool(x, k, stride, pad)
        g = oracles.int_tensor(rng, y.shape, lo=1, hi=9)
        backward_of(y, g)
        assert np.array_equal(x.grad, oracles.max_pool_vjp_loops(x0, g, k, stride, pad))

    @pytest.mark.parametrize("shape,k,stride,pad", CASES)
    def test_nan_and_signed_zero(self, shape, k, stride, pad):
        """A window holding a NaN gives NaN and sends its gradient to the
        first NaN; a window whose maximum is a zero keeps the sign of the
        first zero. Without grad the forward is the same bit for bit."""
        rng = np.random.default_rng(47)
        x0 = rng.choice(np.array([-0.0, 0.0, -1.0, np.nan], dtype=np.float32),
                        size=shape, p=[0.4, 0.4, 0.1, 0.1])
        x = ad.Tensor(x0, requires_grad=True)
        y = ad.max_pool(x, k, stride, pad)
        g = oracles.int_tensor(rng, y.shape, lo=1, hi=9, dtype=np.float32)
        backward_of(y, g)
        want = oracles.max_pool_loops(x0.astype(np.float64), k, stride, pad)
        assert np.array_equal(y.data, want, equal_nan=True)
        assert np.array_equal(np.signbit(y.data), np.signbit(want))
        assert np.array_equal(x.grad, oracles.max_pool_vjp_loops(
            x0.astype(np.float64), g, k, stride, pad))
        with ad.no_grad():
            plain = ad.max_pool(ad.Tensor(x0), k, stride, pad).data
        assert np.array_equal(plain.view(np.uint32), y.data.view(np.uint32))

    @pytest.mark.parametrize("shape,k,stride,pad", CASES)
    def test_no_grad_forward_equals_graph_forward(self, shape, k, stride, pad):
        rng = np.random.default_rng(48)
        x0 = rng.standard_normal(shape).astype(np.float32)
        graph = ad.max_pool(ad.Tensor(x0, requires_grad=True), k, stride, pad)
        with ad.no_grad():
            plain = ad.max_pool(ad.Tensor(x0, requires_grad=True), k, stride, pad)
        assert plain.op == "leaf" and graph.op == "max_pool"
        assert_f32_c_order(plain.data)
        assert np.array_equal(plain.data.view(np.uint32), graph.data.view(np.uint32))

    @pytest.mark.parametrize("pad", ["valid", "same"])
    def test_backward_memory_bound(self, pad):
        """The backward scatters tap by tap into one input-sized buffer:
        its peak allocation stays below 3 times the input's bytes (4.8x
        before the rewrite; 2.0x 'valid' and 2.6x 'same' now, the incoming
        gradient included)."""
        rng = np.random.default_rng(49)
        x = ad.Tensor(rng.standard_normal((8, 64, 32, 32)).astype(np.float32),
                      requires_grad=True)
        k = 2 if pad == "valid" else 3
        y = ad.max_pool(x, k, 2, pad)
        loss = ad.tensor_sum(ad.mul_const(y, rng.standard_normal(y.shape)))
        tracemalloc.start()
        try:
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None
        assert peak < 3 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input"


class TestReluSemantics:
    def test_nan_and_signed_zero(self):
        """NaN and -0.0 both give +0.0, and neither passes a gradient."""
        x0 = np.array([[np.nan, -0.0, 0.0, -2.5, 1.5, np.inf, -np.inf]],
                      dtype=np.float32)
        x = ad.Tensor(x0, requires_grad=True)
        y = ad.relu(x)
        g = np.full(x0.shape, 3.0, dtype=np.float32)
        handed = op_grads(y, g)
        backward_of(y, g)
        assert_f32_c_order(y.data, x.grad, *handed)
        assert np.array_equal(y.data, [[0.0, 0.0, 0.0, 0.0, 1.5, np.inf, 0.0]])
        assert not np.signbit(y.data).any()
        assert np.array_equal(x.grad, [[0.0, 0.0, 0.0, 0.0, 3.0, 3.0, 0.0]])

class TestPoolingAndActivations:
    def test_relu_forward_and_grad(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        t = ad.Tensor(x, dtype="f64", requires_grad=True)
        y = ad.relu(t)
        np.testing.assert_array_equal(y.data, [[0.0, 0.0, 3.0]])
        ad.backward(ad.tensor_sum(y))
        np.testing.assert_array_equal(t.grad, [[0.0, 0.0, 1.0]])

    def test_max_pool_matches_loop_reference(self):
        rng = np.random.default_rng(40)
        x = oracles.int_tensor(rng, (2, 3, 6, 6), lo=-9, hi=10)
        for k, s in ((2, 2), (3, 2), (3, 3), (2, 1)):
            got = ad.max_pool(ad.Tensor(x), k, s).data
            assert np.array_equal(got, oracles.max_pool_loops(x, k, s)), (k, s)

    def test_max_pool_gradient_unique_maxima(self):
        """All window entries distinct, so the loss is smooth at x0 and
        finite differences apply."""
        rng = np.random.default_rng(41)
        x0 = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        fd_check(lambda t: ad.tensor_sum(ad.square(ad.max_pool(t, 2, 2))), x0)

    def test_max_pool_tie_goes_to_first_in_scan_order(self):
        """With an all-equal window the full gradient lands on the
        top-left element, matching a row-major argmax scan."""
        t = ad.Tensor(np.ones((1, 1, 2, 2)), dtype="f64", requires_grad=True)
        ad.backward(ad.tensor_sum(ad.max_pool(t, 2, 2)))
        np.testing.assert_array_equal(t.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_max_pool_same_padding_shape_and_values(self):
        """Same-padded 3x3/2 pooling on a 5x5 input gives ceil(5/2)=3 per
        side; border windows see -inf padding, which never wins."""
        x = np.arange(25.0).reshape(1, 1, 5, 5)
        y = ad.max_pool(ad.Tensor(x), 3, 2, padding="same")
        assert y.shape == (1, 1, 3, 3)
        # pad total = (3-1)*2+3-5 = 2, split 1 top / 1 bottom
        np.testing.assert_array_equal(
            y.data[0, 0], [[6.0, 8.0, 9.0], [16.0, 18.0, 19.0], [21.0, 23.0, 24.0]])

    def test_max_pool_same_padding_gradient(self):
        rng = np.random.default_rng(44)
        x0 = rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)
        fd_check(lambda t: ad.tensor_sum(ad.square(
            ad.max_pool(t, 3, 2, padding="same"))), x0)

    def test_max_pool_drops_ragged_edge(self):
        x = np.arange(25.0).reshape(1, 1, 5, 5)
        y = ad.max_pool(ad.Tensor(x), 2, 2)
        assert y.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(y.data[0, 0], [[6.0, 8.0], [16.0, 18.0]])

    def test_global_avg_pool(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        y = ad.global_avg_pool(ad.Tensor(x))
        assert y.shape == (1, 2)
        np.testing.assert_array_equal(y.data, [[1.5, 5.5]])
        rng = np.random.default_rng(42)
        fd_check(lambda t: ad.tensor_sum(ad.square(ad.global_avg_pool(t))),
                 rng.standard_normal((2, 3, 4, 4)))


class TestLosses:
    def test_log_softmax_normalizes(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((4, 7)) * 10.0
        y = ad.log_softmax(ad.Tensor(x, dtype="f64")).data
        np.testing.assert_allclose(np.exp(y).sum(axis=1), 1.0, rtol=1e-12)

    def test_log_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = ad.log_softmax(ad.Tensor(x, dtype="f64")).data
        b = ad.log_softmax(ad.Tensor(x + 1000.0, dtype="f64")).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(51)
        x0 = rng.standard_normal((3, 5))
        fd_check(lambda t: ad.tensor_sum(ad.square(ad.log_softmax(t))), x0)

    def test_cross_entropy_value(self):
        """Mean of -sum(label * log prob) per row, probabilities computed
        here by an independent route."""
        rng = np.random.default_rng(52)
        logits = rng.standard_normal((5, 4))
        labels = np.eye(4)[rng.integers(0, 4, 5)]
        got = float(ad.softmax_cross_entropy(ad.Tensor(logits, dtype="f64"),
                                             labels).data)
        want = 0.0
        for r in range(5):
            p = np.exp(logits[r]) / np.exp(logits[r]).sum()
            want -= np.log(p[labels[r].argmax()])
        np.testing.assert_allclose(got, want / 5, rtol=1e-12)

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(53)
        x0 = rng.standard_normal((4, 6))
        labels = np.eye(6)[rng.integers(0, 6, 4)]
        fd_check(lambda t: ad.softmax_cross_entropy(t, labels), x0)

    def test_cross_entropy_soft_labels(self):
        x0 = np.array([[0.3, -0.2, 1.1], [2.0, 0.0, -1.0]])
        labels = np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]])
        fd_check(lambda t: ad.softmax_cross_entropy(t, labels), x0)

    def test_cross_entropy_rejects_unnormalized_rows(self):
        logits = ad.Tensor(np.zeros((2, 3)))
        bad = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        with pytest.raises(ValueError, match="row 1"):
            ad.softmax_cross_entropy(logits, bad)


class TestGraphMechanics:
    def test_grad_accumulates_across_paths(self):
        """A tensor consumed twice receives the sum of both path grads."""
        t = ad.Tensor(np.array([1.0, -1.0]), dtype="f64", requires_grad=True)
        y = ad.add(ad.relu(t), ad.relu(t))
        ad.backward(ad.tensor_sum(y))
        np.testing.assert_array_equal(t.grad, [2.0, 0.0])

    def test_repeated_backward_accumulates_in_leaves(self):
        t = ad.Tensor(np.array([3.0]), dtype="f64", requires_grad=True)
        ad.backward(ad.tensor_sum(ad.square(t)))
        ad.backward(ad.tensor_sum(ad.square(t)))
        np.testing.assert_array_equal(t.grad, [12.0])

    def test_backward_frees_the_tape(self):
        """Once swept, every interior node holds no closure and no parents,
        whether or not a gradient reached it; every tensor keeps its data,
        and leaves and retained tensors keep their grad."""
        t = ad.Tensor(np.array([1.0, -2.0]), dtype="f64", requires_grad=True)
        mid = ad.scale(t, 3.0)
        kept = ad.relu(t).retain_grad()
        cut = ad.square(t)
        blocked = ad._make(cut.data, "blocked", (cut,), lambda g: (None,))
        loss = ad.tensor_sum(ad.add(ad.add(ad.square(mid), kept), blocked))
        interior = (mid, kept, cut, blocked, loss)
        data = [n.data.copy() for n in interior]
        ad.backward(loss)
        for n, d in zip(interior, data):
            assert n.node.backward is None and n.node.parents == (), n.op
            assert np.array_equal(n.data, d), n.op
        assert cut.grad is None and mid.grad is None
        np.testing.assert_array_equal(kept.grad, [1.0, 1.0])
        # d/dt (9 t^2 + relu(t)) = 18 t + (t > 0)
        np.testing.assert_array_equal(t.grad, [19.0, -36.0])

    # each builds an op from tensors a (N,C,H,W) and b (the op's other operand)
    OPS = {
        "conv2d": lambda a, b: ad.conv2d(a, b["w"]),
        "masked_conv2d": lambda a, b: ad.masked_conv2d(
            a, b["w"], np.array([True, False, True]))[0],
        "depthwise_conv2d": lambda a, b: ad.depthwise_conv2d(a, b["dw"]),
        "batch_norm": lambda a, b: ad.batch_norm(a, b["bn"]),
        "relu": lambda a, b: ad.relu(a),
        "max_pool": lambda a, b: ad.max_pool(a, 2, 2),
        "global_avg_pool": lambda a, b: ad.global_avg_pool(a),
        "reshape": lambda a, b: ad.flatten(a),
        "add": lambda a, b: ad.add(a, b["other"]),
        "take": lambda a, b: ad.take(a, np.array([0, 1]), axis=1),
        "square": lambda a, b: ad.square(a),
        "sum": lambda a, b: ad.tensor_sum(a),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_an_op_keeps_no_operand_tensor_alive(self, op):
        """An op's node holds its parents' nodes and the arrays its
        backward reads, never the operand tensors themselves: once the
        caller drops them, they are gone while the output lives on."""
        rng = np.random.default_rng(61)

        def leaf(shape):
            return ad.Tensor(rng.standard_normal(shape), dtype="f64",
                             requires_grad=True)

        a = ad.relu(leaf((2, 3, 4, 4)))
        b = {"w": leaf((3, 3, 3, 3)), "dw": leaf((3, 3, 3)),
             "other": ad.scale(leaf((2, 3, 4, 4)), 2.0),
             "bn": ad.BatchNormState("bn", 3, dtype="f64")}
        refs = [weakref.ref(a), weakref.ref(b["w"]), weakref.ref(b["dw"]),
                weakref.ref(b["other"])]
        y = self.OPS[op](a, b)
        del a, b
        assert y.node is not None and y.node.op == op
        assert all(r() is None for r in refs)

    def test_tape_pins_only_what_closures_read(self):
        """After a train-mode forward, a batch-norm output that feeds a
        relu is freed (relu's backward reads its own output, batch norm's
        its input), and every gradient is bitwise that of a run that
        holds a strong reference to it."""
        rng = np.random.default_rng(62)
        x0 = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
        w0 = rng.standard_normal((3, 3, 3, 5)).astype(np.float32)
        labels = np.eye(5, dtype=np.float32)[[0, 2, 4, 1]]

        def step(hold):
            w = ad.Tensor(w0, requires_grad=True)
            state = ad.BatchNormState("bn", 5)
            normed = ad.batch_norm(ad.conv2d(ad.Tensor(x0), w), state)
            ref, held = weakref.ref(normed), [normed] if hold else []
            act = ad.relu(normed)
            del normed
            freed = ref() is None
            ad.backward(ad.softmax_cross_entropy(ad.global_avg_pool(act),
                                                 labels))
            grads = [w.grad, state.gamma.value.grad, state.beta.value.grad]
            return freed, held, grads

        freed, _, grads = step(hold=False)
        kept, held, want = step(hold=True)
        assert freed and not kept and held[0].data is not None
        for a, b in zip(grads, want):
            assert a.tobytes() == b.tobytes()

    def test_a_graph_is_swept_once(self):
        """A later backward that reaches a swept interior node raises,
        naming its op, before it touches any gradient."""
        t = ad.Tensor(np.array([3.0]), dtype="f64", requires_grad=True)
        y = ad.square(t)
        loss = ad.tensor_sum(y)
        ad.backward(loss)
        with pytest.raises(ad.AutodiffError, match="sum"):
            ad.backward(loss)
        with pytest.raises(ad.AutodiffError, match="square"):
            ad.backward(ad.tensor_sum(ad.scale(y, 2.0)))
        np.testing.assert_array_equal(t.grad, [6.0])

    def test_interior_grad_requires_retain(self):
        t = ad.Tensor(np.ones(3), dtype="f64", requires_grad=True)
        mid = ad.scale(t, 2.0)
        kept = ad.scale(t, 3.0).retain_grad()
        ad.backward(ad.tensor_sum(ad.add(mid, kept)))
        assert mid.grad is None
        np.testing.assert_array_equal(kept.grad, np.ones(3))

    def test_backward_rejects_non_scalar(self):
        t = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ad.AutodiffError):
            ad.backward(ad.scale(t, 2.0))

    def test_no_grad_builds_no_graph(self):
        t = ad.Tensor(np.ones(3), dtype="f64", requires_grad=True)
        with ad.no_grad():
            y = ad.scale(t, 2.0)
        assert y.node is None and not y.requires_grad
        np.testing.assert_array_equal(y.data, 2.0 * np.ones(3))

    def test_mixed_dtype_rejected(self):
        a = ad.Tensor(np.zeros((2, 2)), dtype="f32")
        b = ad.Tensor(np.zeros((2, 2)), dtype="f64")
        with pytest.raises(ad.ShapeError):
            ad.add(a, b)

    def test_scalar_helpers(self):
        t = ad.Tensor(np.array([1.0, 2.0]), dtype="f64", requires_grad=True)
        y = ad.add_const(ad.mul_const(t, np.array([2.0, 3.0])), 1.0)
        np.testing.assert_array_equal(y.data, [3.0, 7.0])
        ad.backward(ad.tensor_sum(y))
        np.testing.assert_array_equal(t.grad, [2.0, 3.0])

    def test_reshape_round_trip_gradient(self):
        rng = np.random.default_rng(60)
        x0 = rng.standard_normal((2, 3, 2, 2))
        fd_check(lambda t: ad.tensor_sum(ad.square(ad.flatten(t))), x0)

    def test_parameter_assign_checks_shape(self):
        p = ad.Parameter("w", np.zeros((2, 2)))
        with pytest.raises(ad.ShapeError):
            p.assign(np.zeros(3))

    def test_parameter_zero_grad(self):
        p = ad.Parameter("w", np.array([1.0, 2.0]), dtype="f64")
        ad.backward(ad.tensor_sum(ad.square(p.value)))
        np.testing.assert_array_equal(p.grad, [2.0, 4.0])
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])
