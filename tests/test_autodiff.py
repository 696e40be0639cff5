import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from neuroseg import autodiff as ad
from neuroseg.autodiff import BatchNormState, BatchNormStatsError, ShapeError, Tensor

from conftest import central_diff, max_rel_err, tensor

N_SEEDS = 20
TOL = 1e-4


def scalar_loss(out, weights):
    """Deterministic scalar from a field: sum(out * weights)."""
    return ad.sum_all(ad.mul(out, Tensor(weights)))


# (kernel, spatial dims): the U-Net's 3x3x3 kernel, the 1x1x1 head conv, an
# anisotropic kernel, and (3,1,1) on a longer X = 7.
CONV_CASES = [
    ((3, 3, 3), (3, 4, 3)),
    ((1, 1, 1), (3, 4, 3)),
    ((1, 3, 5), (3, 4, 3)),
    ((3, 1, 1), (7, 4, 3)),
]


def _conv_case_id(kernel, seed):
    """The 3x3x3 cases keep the bare seed as their id."""
    return str(seed) if kernel == (3, 3, 3) else f"{seed}-{'x'.join(map(str, kernel))}"


class TestConv3d:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 1, 4, 5, 3))
        w = np.zeros((1, 1, 3, 3, 3))
        w[0, 0, 1, 1, 1] = 1.0
        out = ad.conv3d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        assert np.allclose(out.data, x)

    def test_all_ones_counts_neighbours(self):
        x = np.ones((1, 1, 3, 3, 3))
        w = np.ones((1, 1, 3, 3, 3))
        out = ad.conv3d(Tensor(x), Tensor(w), Tensor(np.zeros(1))).data[0, 0]
        assert out[1, 1, 1] == 27  # full neighbourhood
        assert out[0, 0, 0] == 8  # corner sees a 2x2x2 slab
        assert out[1, 1, 0] == 18  # face

    def test_one_by_one_kernel(self, rng):
        x = rng.standard_normal((1, 2, 3, 3, 3))
        w = rng.standard_normal((4, 2, 1, 1, 1))
        b = rng.standard_normal(4)
        out = ad.conv3d(Tensor(x), Tensor(w), Tensor(b))
        expected = np.einsum("oc,bcxyz->boxyz", w[:, :, 0, 0, 0], x) + b.reshape(1, 4, 1, 1, 1)
        assert np.allclose(out.data, expected)

    def test_empty_batch(self):
        x = tensor(np.zeros((0, 2, 4, 4, 4)))
        w = tensor(np.ones((3, 2, 3, 3, 3)))
        out = ad.conv3d(x, w, tensor(np.zeros(3)))
        assert out.shape == (0, 3, 4, 4, 4)
        out._backward(np.zeros(out.shape))
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert not w.grad.any()

    def test_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            ad.conv3d(
                tensor(rng.standard_normal((1, 3, 2, 2, 2))),
                tensor(rng.standard_normal((2, 2, 3, 3, 3))),
                tensor(np.zeros(2)),
            )

    @pytest.mark.parametrize(
        "kernel, dims, seed",
        [
            pytest.param(kernel, dims, seed, id=_conv_case_id(kernel, seed))
            for kernel, dims in CONV_CASES
            for seed in range(N_SEEDS)
        ],
    )
    def test_gradients(self, kernel, dims, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((2, 2) + dims)
        w = gen.standard_normal((3, 2) + kernel)
        b = gen.standard_normal(3)
        weights = gen.standard_normal((2, 3) + dims)
        xt, wt, bt = tensor(x), tensor(w), tensor(b)
        scalar_loss(ad.conv3d(xt, wt, bt), weights).backward()

        def f():
            return float(
                (ad.conv3d(Tensor(x), Tensor(w), Tensor(b)).data * weights).sum()
            )

        assert max_rel_err(xt.grad, central_diff(f, x)) < TOL
        assert max_rel_err(wt.grad, central_diff(f, w)) < TOL
        assert max_rel_err(bt.grad, central_diff(f, b)) < TOL

    def test_float32_forward_matches_per_offset_einsum(self, rng):
        x = rng.standard_normal((1, 16, 10, 9, 7)).astype(np.float32)
        w = (rng.standard_normal((8, 16, 3, 3, 3)) / 12).astype(np.float32)
        b = rng.standard_normal(8).astype(np.float32)
        out = ad.conv3d(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.dtype == np.float32
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
        want = np.zeros((1, 8, 10, 9, 7)) + b.reshape(1, 8, 1, 1, 1)
        for i, j, k in np.ndindex(3, 3, 3):
            view = xp[:, :, i : i + 10, j : j + 9, k : k + 7]
            want += np.einsum("oc,bcxyz->boxyz", w[:, :, i, j, k], view)
        assert np.abs(out - want).max() / np.abs(want).max() <= 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [(1, 1, 1), (3, 3, 3), (3, 1, 5)])
    def test_pad_matches_np_pad(self, rng, kernel, dtype):
        a = rng.standard_normal((2, 3, 5, 4, 6)).astype(dtype)
        w = np.zeros((4, 3) + kernel, dtype=dtype)
        want = np.pad(a, ((0, 0), (0, 0)) + tuple((k // 2, k // 2) for k in kernel))
        got = ad._pad(a, w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # a 1x1x1 kernel pads nothing, so the input is not copied
        assert (got is a) == (kernel == (1, 1, 1))

    def test_weight_gradient_holds_the_padded_gradient(self, rng):
        # the one-channel first conv, 1 -> 8 at 32^3, whose input needs no
        # gradient: the backward holds the padded output gradient, 8 * 34^3
        # float32 (1.26 MB), and per column chunk a few (3, 3, 3, 8, 1)
        # float32 partials
        x = Tensor(rng.standard_normal((1, 1, 32, 32, 32), dtype=np.float32))
        w = Tensor(rng.standard_normal((8, 1, 3, 3, 3), dtype=np.float32), requires_grad=True)
        out = ad.conv3d(x, w, Tensor(np.zeros(8, dtype=np.float32)))
        g = np.ones(out.shape, dtype=np.float32)
        padded = 8 * 34**3 * 4
        part = 27 * 8 * 1 * 4
        tracemalloc.start()
        try:
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad.shape == w.shape and x.grad is None
        assert peak < padded + 5 * part + (1 << 16)

    def test_conv_holds_one_chunk(self, rng):
        # 2 -> 2 channels at 32^3 run im2col, and a chunk is one x-plane:
        # (2 * 27 + 2) * 32 * 32 elements fill _CONV_CHUNK once. The conv
        # gathers one (2 * 27, 32 * 32) float32 matrix per chunk.
        x = Tensor(rng.standard_normal((1, 2, 32, 32, 32), dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        assert not ad._kn2row_wins(2, 2, x.shape[2:], w.shape[2:])
        assert ad._CONV_CHUNK // ((2 * 27 + 2) * 32 * 32) == 1
        chunk = 2 * 27 * 32 * 32 * 4
        padded = 2 * 34**3 * 4
        g = np.ones(x.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            out = ad.conv3d(x, w, b)
            kept, forward = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out._backward(g)
            backward = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        # the padded input and the output, then one chunk's matrix and its
        # products; the input gradient holds the padded output gradient, the
        # input gradient itself and one chunk
        assert forward < padded + x.data.nbytes + chunk + (1 << 16)
        assert backward < padded + x.data.nbytes + chunk + (1 << 16)


def _float64_conv(x, w, g):
    """The forward output and the input and weight gradients for output
    gradient g, in float64, one kernel offset at a time."""
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    kernel, dims = w.shape[2:], x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((k // 2, k // 2) for k in kernel))
    out = np.zeros(g.shape)
    gxp = np.zeros(xp.shape)
    gw = np.zeros(w.shape)
    for off in np.ndindex(*kernel):
        window = (slice(None), slice(None)) + tuple(slice(i, i + n) for i, n in zip(off, dims))
        tap = (slice(None), slice(None)) + off
        out += np.einsum("oc,bcxyz->boxyz", w[tap], xp[window], optimize=True)
        gxp[window] += np.einsum("oc,boxyz->bcxyz", w[tap], g, optimize=True)
        gw[tap] = np.einsum("boxyz,bcxyz->oc", g, xp[window], optimize=True)
    crop = (slice(None), slice(None)) + tuple(slice(k // 2, k // 2 + n) for k, n in zip(kernel, dims))
    return out, gxp[crop], gw


# (spatial dims, kernel): cubes from 2^3 to 32^3, which span OpenBLAS's
# small-matrix and packed GEMM paths, and X = 88, whose forward chunks of 47
# planes leave a short last one of 41 (32, 32 and 24 for the input gradient)
IM2COL_CASES = [
    ((n, n, n), kernel)
    for n in (2, 4, 8, 16, 32)
    for kernel in ((3, 3, 3), (3, 1, 5), (1, 1, 1))
] + [((88, 4, 3), (3, 3, 3))]


class TestIm2col:
    @pytest.mark.parametrize("budget", ["default", "one-chunk"])
    @pytest.mark.parametrize(
        "dims, kernel",
        [
            pytest.param(d, k, id="-".join("x".join(map(str, t)) for t in (d, k)))
            for d, k in IM2COL_CASES
        ],
    )
    def test_float32_within_1e_5_of_float64(self, dims, kernel, budget, monkeypatch, rng):
        # 4 -> 6 channels and back are too narrow for kn2row: the forward
        # pass and the input gradient run im2col, compared by tolerance as
        # TestKn2row compares kn2row, in chunks of the default size (up to
        # 32 at 32^3) and as one chunk of every plane. w has no gradient: the
        # weight gradient has one form, which TestKn2row checks.
        if budget == "one-chunk":
            monkeypatch.setattr(ad, "_CONV_CHUNK", 1 << 40)
        calls = _spy_kn2row(monkeypatch)
        x = Tensor(rng.standard_normal((2, 4) + dims, dtype=np.float32), requires_grad=True)
        w = rng.standard_normal((6, 4) + kernel) / 8
        w = Tensor(w.astype(np.float32))
        g = rng.standard_normal((2, 6) + dims, dtype=np.float32)
        out = ad.conv3d(x, w, Tensor(np.zeros(6, dtype=np.float32)))
        out._backward(g)
        assert calls == []
        assert out.dtype == x.grad.dtype == np.float32
        for got, want in zip((out.data, x.grad), _float64_conv(x.data, w.data, g)[:2]):
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def _spy_kn2row(monkeypatch):
    """Record the correlations that ``_kn2row_wins`` sends to kn2row and the
    calls of the weight gradient, as ("correlate", C, O) and ("weight", C,
    O)."""
    calls = []
    wins, weight_grad = ad._kn2row_wins, ad._kn2row_weight_grad

    def spy_wins(C, O, dims, kernel):
        won = wins(C, O, dims, kernel)
        if won:
            calls.append(("correlate", C, O))
        return won

    def spy_weight_grad(xp, gp, kernel, dims):
        calls.append(("weight", xp.shape[1], gp.shape[1]))
        return weight_grad(xp, gp, kernel, dims)

    monkeypatch.setattr(ad, "_kn2row_wins", spy_wins)
    monkeypatch.setattr(ad, "_kn2row_weight_grad", spy_weight_grad)
    return calls


# (B, C, O, spatial dims, kernel, and whether the forward pass and the input
# gradient run kn2row; every weight gradient does): a kn2row correlation
# needs C >= 4 input channels, Y·Z >= 256 and C·Y·Z >= 8192, and must not
# expand. The kn2row correlations run chunks of 2, 3 or 5 planes over X = 11,
# so each last chunk is short; the weight gradients run 1 to 6 chunks of
# 65536 // (C + O) columns. C32 -> 48 expands: its forward pass stays on
# im2col. The last four are the one-channel first conv, the golden network's
# C2 -> 2 at 16^3, a 1x1x1 head and a deep level.
KN2ROW_CASES = [
    (2, 32, 32, (11, 16, 20), (3, 3, 3), True, True),
    (2, 32, 32, (11, 16, 20), (3, 1, 5), True, True),
    (2, 32, 6, (11, 16, 20), (3, 3, 3), True, False),
    (2, 32, 48, (11, 16, 20), (3, 3, 3), False, True),
    (2, 4, 6, (11, 16, 20), (3, 3, 3), False, False),
    (2, 32, 32, (11, 8, 20), (3, 1, 5), False, False),
    (2, 1, 8, (11, 16, 20), (3, 3, 3), False, False),
    (1, 2, 2, (16, 16, 16), (3, 3, 3), False, False),
    (2, 16, 28, (11, 16, 20), (1, 1, 1), False, False),
    (2, 64, 64, (8, 8, 8), (3, 3, 3), False, False),
]


class TestKn2row:
    @pytest.mark.parametrize("case", range(len(KN2ROW_CASES)))
    def test_float32_within_1e_5_of_float64(self, case, monkeypatch, rng):
        # kn2row sums each voxel's terms in another order than im2col, so it
        # is compared by tolerance: the largest error at most 1e-5 of the
        # largest reference value, forward, input and weight gradient alike
        B, C, O, dims, kernel, forward, backward = KN2ROW_CASES[case]
        calls = _spy_kn2row(monkeypatch)
        x = Tensor(rng.standard_normal((B, C) + dims, dtype=np.float32), requires_grad=True)
        w = rng.standard_normal((O, C) + kernel) / 8
        w = Tensor(w.astype(np.float32), requires_grad=True)
        g = rng.standard_normal((B, O) + dims, dtype=np.float32)
        out = ad.conv3d(x, w, Tensor(np.zeros(O, dtype=np.float32)))
        out._backward(g)
        ran = [("correlate", C, O), ("weight", C, O), ("correlate", O, C)]
        assert calls == [c for c, on in zip(ran, (forward, True, backward)) if on]
        assert out.dtype == x.grad.dtype == w.grad.dtype == np.float32
        for got, want in zip((out.data, x.grad, w.grad), _float64_conv(x.data, w.data, g)):
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_gradients_by_central_differences(self):
        # 4 -> 4 channels on 16 x 128 planes: the forward pass and both
        # gradients run kn2row; x is checked along random directions, w and b
        # entry by entry
        gen = np.random.default_rng(7)
        dims = (3, 16, 128)
        assert ad._kn2row_wins(4, 4, dims, (3, 3, 3))
        x = gen.standard_normal((1, 4) + dims)
        w = gen.standard_normal((4, 4, 3, 3, 3))
        b = gen.standard_normal(4)
        weights = gen.standard_normal((1, 4) + dims)
        xt, wt, bt = tensor(x), tensor(w), tensor(b)
        scalar_loss(ad.conv3d(xt, wt, bt), weights).backward()

        def f():
            return float((ad.conv3d(Tensor(x), Tensor(w), Tensor(b)).data * weights).sum())

        for _ in range(3):
            d = gen.standard_normal(x.shape)
            h = 1e-5
            x0 = x.copy()
            x[...] = x0 + h * d
            fp = f()
            x[...] = x0 - h * d
            fm = f()
            x[...] = x0
            assert max_rel_err(np.sum(xt.grad * d), (fp - fm) / (2 * h)) < TOL
        assert max_rel_err(wt.grad, central_diff(f, w)) < TOL
        assert max_rel_err(bt.grad, central_diff(f, b)) < TOL

    def test_empty_batch(self):
        # as TestConv3d.test_empty_batch, on a shape whose forward pass and
        # both gradients run kn2row
        x = tensor(np.zeros((0, 16, 4, 16, 32)))
        w = tensor(np.ones((16, 16, 3, 3, 3)))
        assert ad._kn2row_wins(16, 16, x.shape[2:], w.shape[2:])
        out = ad.conv3d(x, w, tensor(np.zeros(16)))
        assert out.shape == (0, 16, 4, 16, 32)
        out._backward(np.zeros(out.shape))
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert not w.grad.any()

    def test_forward_holds_no_im2col(self, rng):
        # 32 -> 32 channels at 32^3: a chunk is one plane, so the forward
        # pass holds the padded input, the output, the kernel's taps and, per
        # chunk, 11 float32 (32, 34 * 34) blocks: the products of one
        # x-offset's 9 GEMMs, their sum and the accumulator. An im2col chunk
        # of one plane would be (32 * 27, 32 * 32), 3.5 MB.
        x = Tensor(rng.standard_normal((1, 32, 32, 32, 32), dtype=np.float32))
        w = Tensor(rng.standard_normal((32, 32, 3, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(32, dtype=np.float32))
        padded = 32 * 34**3 * 4
        chunk = 11 * 32 * 34 * 34 * 4
        tracemalloc.start()
        try:
            ad.conv3d(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < padded + x.data.nbytes + w.data.nbytes + chunk + (1 << 16)

    def test_weight_gradient_holds_no_im2col(self, rng):
        # 32 -> 8 channels on 4 planes of 32 x 32, x without a gradient: the
        # weight gradient holds the padded output gradient, 8 * 6 * 34 * 34
        # float32, and per chunk a few (3, 3, 3, 8, 32) float32 partials of
        # 27 KiB. An im2col block of one plane would be (32 * 27, 32 * 32),
        # 3.5 MB.
        x = Tensor(rng.standard_normal((1, 32, 4, 32, 32), dtype=np.float32))
        w = Tensor(rng.standard_normal((8, 32, 3, 3, 3), dtype=np.float32), requires_grad=True)
        out = ad.conv3d(x, w, Tensor(np.zeros(8, dtype=np.float32)))
        g = np.ones(out.shape, dtype=np.float32)
        padded = 8 * 6 * 34 * 34 * 4
        part = 27 * 8 * 32 * 4
        tracemalloc.start()
        try:
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad.shape == w.shape
        assert peak < padded + 5 * part + (1 << 16)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_weight_gradient_of_a_strided_unpadded_input(self, workers, monkeypatch, rng):
        # a 1x1x1 kernel pads nothing, so the weight gradient reads the input
        # as given; every other column of a wider array flattens to a view
        # whose columns are 8 bytes apart, not one float32. Its 480 columns
        # run in 5 chunks, bitwise the same in a region of any size.
        if workers > 1:
            _blas_api()
        monkeypatch.setattr(ad, "_CONV_CHUNK", 100 * (16 + 28))
        big = rng.standard_normal((2, 16, 6, 8, 20), dtype=np.float32)
        x = Tensor(big[..., ::2])
        assert np.shares_memory(x.data.reshape(2, 16, -1), big)
        w = (rng.standard_normal((28, 16, 1, 1, 1)) / 8).astype(np.float32)
        w = Tensor(w, requires_grad=True)
        g = rng.standard_normal((2, 28, 6, 8, 10), dtype=np.float32)
        out = ad.conv3d(x, w, Tensor(np.zeros(28, dtype=np.float32)))
        out._backward(g)
        want = _float64_conv(x.data, w.data, g)[2]
        assert np.abs(w.grad - want).max() <= 1e-5 * np.abs(want).max()
        alone, w.grad = w.grad.tobytes(), None
        monkeypatch.setattr(ad, "parallel_workers", lambda: workers)
        with ad.parallel():
            out._backward(g)
        assert w.grad.tobytes() == alone

    @pytest.mark.parametrize(
        "C, dims, kernel",
        [
            (1, (128, 128, 128), (3, 3, 3)),  # the one-channel first conv
            (1, (256, 256, 256), (3, 3, 3)),
            (2, (128, 128, 128), (3, 3, 3)),
            (16, (128, 128, 128), (1, 1, 1)),  # the 1x1x1 head
            (16, (16, 16, 16), (3, 3, 3)),
            (256, (8, 8, 8), (3, 3, 3)),
            (4, (32, 32, 32), (3, 3, 3)),  # TestIm2col's forward
            (6, (32, 32, 32), (3, 3, 3)),  # and input gradient at 32^3
        ],
    )
    def test_shapes_that_stay_on_im2col(self, C, dims, kernel):
        assert not ad._kn2row_wins(C, C, dims, kernel)

    def test_expanding_correlation_stays_on_im2col(self, monkeypatch, rng):
        # 8 -> 16 channels at 32^3, the input gradient of train-32's C16 -> 8
        # decoder conv: kn2row ran it at 1.2-1.3x im2col, so the correlation
        # stays on im2col; the weight gradient, as every one, runs
        # _kn2row_weight_grad
        assert ad._kn2row_wins(8, 8, (32, 32, 32), (3, 3, 3))
        assert not ad._kn2row_wins(8, 16, (32, 32, 32), (3, 3, 3))
        calls = _spy_kn2row(monkeypatch)
        x = Tensor(rng.standard_normal((1, 8, 32, 32, 32), dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 8, 3, 3, 3), dtype=np.float32), requires_grad=True)
        out = ad.conv3d(x, w, Tensor(np.zeros(16, dtype=np.float32)))
        out._backward(np.ones(out.shape, dtype=np.float32))
        assert calls == [("weight", 8, 16), ("correlate", 16, 8)]

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(dict(features=8, depth=2), id="reg-48"),
            pytest.param(dict(features=2, depth=1), id="golden"),
            pytest.param(dict(features=2, depth=2, bottleneck_layers=1), id="cli-tests"),
        ],
    )
    def test_small_grid_networks_stay_on_im2col(self, spec, monkeypatch):
        # every correlation of these 16^3 networks, forward and input
        # gradient, runs im2col, so their forward outputs keep their bits;
        # each conv's weight gradient is one _kn2row_weight_grad
        from neuroseg.unet import ModelSpec, UNet3D

        convs, weights = [], []
        conv3d, weight_grad, wins = ad.conv3d, ad._kn2row_weight_grad, ad._kn2row_wins

        def spy_conv3d(x, w, b):
            convs.append((w.shape[1], w.shape[0], w.shape[2:], x.shape[2:]))
            return conv3d(x, w, b)

        def spy_weight_grad(xp, gp, kernel, dims):
            weights.append((xp.shape[1], gp.shape[1], kernel, dims))
            return weight_grad(xp, gp, kernel, dims)

        monkeypatch.setattr(ad, "_kn2row_wins", lambda *a: wins(*a) and pytest.fail("kn2row ran"))
        monkeypatch.setattr(ad, "conv3d", spy_conv3d)
        monkeypatch.setattr(ad, "_kn2row_weight_grad", spy_weight_grad)
        model = UNet3D(ModelSpec(input_dims=(16, 16, 16), **spec), seed=0)
        x = np.random.default_rng(0).standard_normal((1, 1, 16, 16, 16)).astype(np.float32)
        out = model.forward(x, "train", rng=np.random.default_rng(1))
        ad.sum_all(out).backward()
        assert all(p.grad is not None for p in model.parameters().values())
        assert convs and sorted(weights) == sorted(convs)

    def test_wide_levels_of_the_reference_network_run_kn2row(self, monkeypatch):
        # features 16 at 32^3 (mc-32) and 128^3: the full-resolution convs
        # after the first, and 16^3 with 32 or more channels
        for C, n in [(16, 32), (32, 32), (32, 16), (64, 16), (16, 128), (32, 128), (64, 64)]:
            assert ad._kn2row_wins(C, C, (n, n, n), (3, 3, 3))
        # none of mc-32's wide forward convs expands, so each of the six runs
        # kn2row
        from neuroseg.unet import ModelSpec, UNet3D

        calls = _spy_kn2row(monkeypatch)
        model = UNet3D(ModelSpec(input_dims=(32, 32, 32)), seed=0)
        x = np.random.default_rng(0).standard_normal((1, 1, 32, 32, 32)).astype(np.float32)
        with ad.no_grad():
            model.forward(x, "train", rng=np.random.default_rng(1))
        assert sorted(calls) == sorted(
            ("correlate", C, O)
            for C, O in [(16, 16), (32, 32), (64, 32), (32, 32), (32, 16), (16, 16)]
        )


class TestTransposeConv3d:
    def test_doubles_dims_no_overlap(self, rng):
        x = rng.standard_normal((1, 2, 3, 2, 4))
        w = rng.standard_normal((2, 3, 2, 2, 2))
        b = np.zeros(3)
        out = ad.transpose_conv3d(Tensor(x), Tensor(w), Tensor(b))
        assert out.shape == (1, 3, 6, 4, 8)
        # each output voxel is a single kernel tap
        expected = np.einsum("bcxyz,coijk->boxiyjzk", x, w).reshape(1, 3, 6, 4, 8)
        assert np.allclose(out.data, expected)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_gradients(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((1, 3, 2, 3, 2))
        w = gen.standard_normal((3, 2, 2, 2, 2))
        b = gen.standard_normal(2)
        weights = gen.standard_normal((1, 2, 4, 6, 4))
        xt, wt, bt = tensor(x), tensor(w), tensor(b)
        scalar_loss(ad.transpose_conv3d(xt, wt, bt), weights).backward()

        def f():
            return float(
                (ad.transpose_conv3d(Tensor(x), Tensor(w), Tensor(b)).data * weights).sum()
            )

        assert max_rel_err(xt.grad, central_diff(f, x)) < TOL
        assert max_rel_err(wt.grad, central_diff(f, w)) < TOL
        assert max_rel_err(bt.grad, central_diff(f, b)) < TOL


class TestBatchNorm:
    def test_standardizes_in_train_mode(self, rng):
        x = rng.normal(7.0, 3.0, (2, 3, 4, 4, 4))
        out = ad.batch_norm(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), BatchNormState.for_channels(3)
        )
        mean = out.data.mean(axis=(0, 2, 3, 4))
        var = out.data.var(axis=(0, 2, 3, 4))
        assert np.allclose(mean, 0.0, atol=1e-6)
        assert np.allclose(var, 1.0, atol=1e-4)

    def test_affine_shift_scale(self, rng):
        x = rng.standard_normal((1, 2, 5, 5, 5))
        out = ad.batch_norm(
            Tensor(x),
            Tensor(np.full(2, 2.0)),
            Tensor(np.full(2, 3.0)),
            BatchNormState.for_channels(2),
        )
        assert np.allclose(out.data.mean(axis=(0, 2, 3, 4)), 3.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=(0, 2, 3, 4)), 2.0, atol=1e-4)

    def test_eval_before_train_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 2, 2, 2)))
        with pytest.raises(BatchNormStatsError):
            ad.batch_norm(
                x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                BatchNormState.for_channels(2), mode="eval",
            )

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(5.0, 2.0, (1, 2, 6, 6, 6))
        state = BatchNormState.for_channels(2)
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        ad.batch_norm(Tensor(x), gamma, beta, state, mode="train")
        y = rng.normal(5.0, 2.0, (1, 2, 6, 6, 6))
        out_eval = ad.batch_norm(Tensor(y), gamma, beta, state, mode="eval")
        expected = (y - state.running_mean.reshape(1, 2, 1, 1, 1)) / np.sqrt(
            state.running_var.reshape(1, 2, 1, 1, 1) + 1e-5
        )
        assert np.allclose(out_eval.data, expected, atol=1e-6)

    def test_running_stats_blend(self, rng):
        state = BatchNormState.for_channels(1)
        gamma, beta = Tensor(np.ones(1)), Tensor(np.zeros(1))
        x1 = rng.normal(1.0, 1.0, (1, 1, 4, 4, 4))
        x2 = rng.normal(9.0, 1.0, (1, 1, 4, 4, 4))
        ad.batch_norm(Tensor(x1), gamma, beta, state, mode="train")
        first = state.running_mean.copy()
        assert np.allclose(first, x1.mean())  # first call seeds directly
        ad.batch_norm(Tensor(x2), gamma, beta, state, mode="train")
        assert np.allclose(state.running_mean, 0.9 * first + 0.1 * x2.mean())

    # the train-mode cases keep their seed as id
    @pytest.mark.parametrize(
        "mode, seed",
        [("train", s) for s in range(N_SEEDS)] + [("eval", s) for s in range(N_SEEDS)],
        ids=[str(s) for s in range(N_SEEDS)] + [f"eval-{s}" for s in range(N_SEEDS)],
    )
    def test_gradients(self, mode, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((2, 2, 3, 3, 3))
        gamma = gen.uniform(0.5, 2.0, 2)
        beta = gen.standard_normal(2)
        weights = gen.standard_normal((2, 2, 3, 3, 3))
        # train mode normalizes by batch statistics whatever the running ones
        state = BatchNormState.for_channels(2)
        if mode == "eval":  # running statistics from one train-mode call on another batch
            seeding = Tensor(gen.normal(1.0, 2.0, x.shape))
            ad.batch_norm(seeding, Tensor(gamma), Tensor(beta), state, mode="train")
        xt, gt, bt = tensor(x), tensor(gamma), tensor(beta)
        scalar_loss(ad.batch_norm(xt, gt, bt, state, mode), weights).backward()

        def f():
            out = ad.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state, mode)
            return float((out.data * weights).sum())

        assert max_rel_err(xt.grad, central_diff(f, x)) < TOL
        assert max_rel_err(gt.grad, central_diff(f, gamma)) < TOL
        assert max_rel_err(bt.grad, central_diff(f, beta)) < TOL


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_mode_bitwise_equals_the_plain_expressions(self, dtype):
        # the statistics by np.var, the input gradient as one expression, on
        # data with a -0.0 and a constant channel (variance exactly 0); the
        # second call blends the running statistics
        gen = np.random.default_rng(4)
        shape, axes = (2, 3, 4, 5, 6), (0, 2, 3, 4)
        cshape = (1, 3, 1, 1, 1)
        n = 2 * 4 * 5 * 6
        state = BatchNormState.for_channels(3)
        for call in range(2):
            x = gen.normal(call, 2.0, shape).astype(dtype)
            x[0, 0, 0, 0, 0] = -0.0
            x[:, 1] = 2.5
            gamma = gen.uniform(0.5, 2.0, 3).astype(dtype)
            beta = gen.standard_normal(3).astype(dtype)
            weights = gen.standard_normal(shape).astype(dtype)
            running = state.running_mean.copy(), state.running_var.copy()
            xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
            out = ad.batch_norm(xt, gt, bt, state, mode="train")
            scalar_loss(out, weights).backward()

            mean = x.mean(axis=axes, dtype=np.float64)
            var = x.var(axis=axes, dtype=np.float64)
            assert var[1] == 0.0
            if call:
                mean_want = ad.BN_MOMENTUM * running[0] + (1 - ad.BN_MOMENTUM) * mean
                var_want = ad.BN_MOMENTUM * running[1] + (1 - ad.BN_MOMENTUM) * var
            else:
                mean_want, var_want = mean, var
            assert state.running_mean.tobytes() == mean_want.tobytes()
            assert state.running_var.tobytes() == var_want.tobytes()
            inv = (1.0 / np.sqrt(var + ad.BN_EPS)).astype(dtype).reshape(cshape)
            xhat = (x - mean.astype(dtype).reshape(cshape)) * inv
            want_out = gamma.reshape(cshape) * xhat + beta.reshape(cshape)
            assert out.data.tobytes() == want_out.tobytes()

            g = out.grad  # what the backward received
            sg, sgx = g.sum(axis=axes), (g * xhat).sum(axis=axes)
            scale = gamma.reshape(cshape) * inv
            gx = scale * (g - (sg.reshape(cshape) + xhat * sgx.reshape(cshape)) / n)
            for got, value in ((xt.grad, gx), (gt.grad, sgx), (bt.grad, sg)):
                want = np.zeros_like(got)
                want += value
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestAccumulateGrad:
    def test_first_write_is_zeros_plus_the_value(self):
        # -0.0 becomes +0.0, and a float64 value is cast into a float32 grad,
        # as np.zeros_like(data) followed by += gave
        t = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        value = np.array([-0.0, 1.0 / 3.0, -1e-50, 1.0 + 2.0 ** -40])
        t.accumulate_grad(value)
        want = np.zeros(4, dtype=np.float32)
        want += value
        assert t.grad.dtype == np.float32 and t.grad.tobytes() == want.tobytes()
        assert not np.signbit(t.grad[0])
        t.accumulate_grad(value)  # later writes add in place
        want += value
        assert t.grad.tobytes() == want.tobytes()

    def test_first_write_broadcasts_and_copies(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        value = np.broadcast_to(np.float64(-0.0), (2, 3))
        t.accumulate_grad(value)
        assert t.grad.shape == (2, 3) and not np.signbit(t.grad).any()
        own = np.full((2, 3), 5.0)
        t2 = Tensor(np.ones((2, 3)), requires_grad=True)
        t2.accumulate_grad(own)
        own[0, 0] = 7.0
        assert t2.grad[0, 0] == 5.0  # the grad is its own array


class TestSimpleOps:
    def test_relu_values(self):
        out = ad.relu(Tensor(np.asarray([-1.0, 0.0, 2.0])))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_max_pool_block_max(self):
        x = np.arange(1.0, 9.0).reshape(1, 1, 2, 2, 2)
        out = ad.max_pool3d(Tensor(x))
        assert out.shape == (1, 1, 1, 1, 1)
        assert out.data.reshape(-1)[0] == 8.0

    def test_max_pool_rejects_odd_dims(self, rng):
        with pytest.raises(ShapeError, match="axis y"):
            ad.max_pool3d(Tensor(rng.standard_normal((1, 1, 2, 3, 2))))

    def test_max_pool_tie_break_first_index(self):
        x = np.full((1, 1, 2, 2, 2), 5.0)
        xt = tensor(x)
        ad.sum_all(ad.max_pool3d(xt)).backward()
        grad = xt.grad.reshape(-1)
        assert grad[0] == 1.0
        assert grad[1:].sum() == 0.0

    def test_max_pool_forward_is_block_max_with_inf_and_nan(self, rng):
        x = rng.standard_normal((2, 3, 6, 4, 8)).astype(np.float32)
        u = rng.random(x.shape)
        x[u < 0.1] = np.inf
        x[(u >= 0.1) & (u < 0.2)] = -np.inf
        x[(u >= 0.2) & (u < 0.25)] = np.nan
        x[:, 0, :2, :2, :2] = -np.inf  # an all -inf block
        blocks = x.reshape(2, 3, 3, 2, 2, 2, 4, 2).max(axis=(3, 5, 7))
        out = ad.max_pool3d(Tensor(x)).data
        assert out.dtype == x.dtype
        assert np.array_equal(out, blocks, equal_nan=True)
        assert np.isnan(out).any() and np.isposinf(out).any() and np.isneginf(out).any()

    @pytest.mark.parametrize("first", range(8))
    def test_max_pool_tie_gradient_goes_to_first_maximum(self, first):
        # offsets in (dx, dy, dz) order; every offset from ``first`` on ties
        block = np.where(np.arange(8) >= first, 3.0, -1.0)
        xt = tensor(block.reshape(1, 1, 2, 2, 2))
        ad.sum_all(ad.max_pool3d(xt)).backward()
        assert xt.grad.reshape(-1).tolist() == [float(i == first) for i in range(8)]

    @pytest.mark.parametrize("nan_at", [0, 5])
    def test_max_pool_gradient_goes_to_nan(self, nan_at):
        block = np.arange(8.0)
        block[nan_at] = np.nan
        xt = tensor(block.reshape(1, 1, 2, 2, 2))
        out = ad.max_pool3d(xt)
        assert np.isnan(out.data).all()
        ad.sum_all(out).backward()
        assert np.nan_to_num(xt.grad).reshape(-1).tolist() == [
            float(i == nan_at) for i in range(8)
        ]

    def test_softmax_uniform_logits(self):
        x = np.zeros((1, 2, 1, 1, 1))
        out = ad.softmax_channels(Tensor(x))
        assert np.allclose(out.data.reshape(-1), [0.5, 0.5])

    def test_softmax_sums_to_one(self, rng):
        x = rng.standard_normal((2, 7, 3, 3, 3)) * 10
        out = ad.softmax_channels(Tensor(x))
        assert np.all(out.data > 0)
        assert np.all(out.data < 1)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_relu_pool_softmax_gradients(self, seed):
        gen = np.random.default_rng(seed)
        # keep values away from relu kinks and pool ties
        x = gen.standard_normal((1, 2, 4, 4, 4))
        x += np.sign(x) * 1e-2
        weights = gen.standard_normal((1, 2, 2, 2, 2))
        xt = tensor(x)
        scalar_loss(ad.max_pool3d(ad.relu(xt)), weights).backward()

        def f():
            return float((ad.max_pool3d(ad.relu(Tensor(x))).data * weights).sum())

        assert max_rel_err(xt.grad, central_diff(f, x)) < TOL

        x2 = gen.standard_normal((1, 3, 2, 2, 2))
        w2 = gen.standard_normal((1, 3, 2, 2, 2))
        xt2 = tensor(x2)
        scalar_loss(ad.softmax_channels(xt2), w2).backward()

        def f2():
            return float((ad.softmax_channels(Tensor(x2)).data * w2).sum())

        assert max_rel_err(xt2.grad, central_diff(f2, x2)) < TOL


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = rng.standard_normal((1, 2, 3, 3, 3))
        out = ad.dropout(Tensor(x), 0.0, np.random.default_rng(0))
        assert np.array_equal(out.data, x)

    def test_reproducible_for_fixed_state(self, rng):
        x = rng.standard_normal((1, 1, 4, 4, 4))
        a = ad.dropout(Tensor(x), 0.4, np.random.default_rng(99)).data
        b = ad.dropout(Tensor(x), 0.4, np.random.default_rng(99)).data
        assert np.array_equal(a, b)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.zeros((1, 1, 2, 2, 2))), 1.0, rng)

    def test_expected_value_preserved(self):
        # inverted scaling keeps E[dropout(x)] = x; check the sample mean of
        # 10^4 draws stays within 3 sigma of 1.
        n, rate = 10_000, 0.2
        gen = np.random.default_rng(7)
        draws = np.array(
            [ad.dropout(Tensor(np.ones((1, 1, 1, 1, 1))), rate, gen).data.item() for _ in range(n)]
        )
        sigma = np.sqrt(rate / (1 - rate))  # std of one inverted-dropout draw of 1.0
        assert abs(draws.mean() - 1.0) < 3 * sigma / np.sqrt(n)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_gradients(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((1, 2, 3, 3, 3))
        weights = gen.standard_normal((1, 2, 3, 3, 3))
        xt = tensor(x)
        scalar_loss(ad.dropout(xt, 0.3, np.random.default_rng(seed + 1)), weights).backward()

        def f():
            # same rng state -> same mask on every evaluation
            out = ad.dropout(Tensor(x), 0.3, np.random.default_rng(seed + 1))
            return float((out.data * weights).sum())

        assert max_rel_err(xt.grad, central_diff(f, x)) < TOL


class TestGraphMechanics:
    def test_shared_subexpression_accumulates(self):
        # z = (a*b) + (a*b) + a  ->  dz/da = 2b + 1, dz/db = 2a
        a = tensor(np.asarray(3.0))
        b = tensor(np.asarray(-2.0))
        prod = ad.mul(a, b)
        z = ad.add(ad.add(prod, prod), a)
        z.backward()
        assert a.grad == pytest.approx(2 * -2.0 + 1)
        assert b.grad == pytest.approx(2 * 3.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_dag_matches_brute_force(self, seed):
        gen = np.random.default_rng(seed)
        av, bv = gen.standard_normal(2)

        def forward(a, b):
            # diamond graph with reuse: ((a*b) + a) * ((a*b) + b)
            p = a * b
            return (p + a) * (p + b)

        a, b = tensor(np.asarray(av)), tensor(np.asarray(bv))
        p = ad.mul(a, b)
        out = ad.mul(ad.add(p, a), ad.add(p, b))
        out.backward()
        arr_a = np.asarray(av)
        ga = central_diff(lambda: forward(float(arr_a), bv), arr_a)
        arr_b = np.asarray(bv)
        gb = central_diff(lambda: forward(av, float(arr_b)), arr_b)
        assert max_rel_err(a.grad, ga) < TOL
        assert max_rel_err(b.grad, gb) < TOL

    def test_backward_requires_scalar(self, rng):
        x = tensor(rng.standard_normal((1, 1, 2, 2, 2)))
        with pytest.raises(ShapeError):
            ad.relu(x).backward()

    def test_no_grad_builds_no_graph(self, rng):
        x = tensor(rng.standard_normal((1, 1, 2, 2, 2)))
        with ad.no_grad():
            out = ad.relu(x)
        assert not out.requires_grad
        assert out._backward is None

    def test_no_grad_stays_in_its_thread(self, rng):
        x = tensor(rng.standard_normal((1, 1, 2, 2, 2)))
        inside, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with ad.no_grad():
                inside.set()
                release.wait(timeout=30)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert inside.wait(timeout=30)
            out = ad.relu(x)
        finally:
            release.set()
            worker.join()
        assert out.requires_grad
        assert out._backward is not None

    def test_concat_channels_split_gradient(self, rng):
        a = tensor(rng.standard_normal((1, 2, 2, 2, 2)))
        b = tensor(rng.standard_normal((1, 3, 2, 2, 2)))
        weights = rng.standard_normal((1, 5, 2, 2, 2))
        scalar_loss(ad.concat_channels(a, b), weights).backward()
        assert np.allclose(a.grad, weights[:, :2])
        assert np.allclose(b.grad, weights[:, 2:])


class TestOneBlasThread:
    def test_overlapping_pins_restore_the_count_once(self):
        api = ad._blas_thread_api()
        if api is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
        get, put = api
        before = get()
        put(2)  # a count the pin visibly changes, even on a one-core host
        try:
            inside, release = threading.Event(), threading.Event()

            def hold_pin():
                with ad._one_blas_thread():
                    inside.set()
                    release.wait(timeout=30)

            worker = threading.Thread(target=hold_pin)
            with ad._one_blas_thread():
                worker.start()
                assert inside.wait(timeout=30)
                with ad._one_blas_thread():
                    assert get() == 1
                assert get() == 1
            assert get() == 1  # the worker's block is still open
            release.set()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert get() == 2
        finally:
            put(before)


def _blas_api():
    api = ad._blas_thread_api()
    if api is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    return api


def _conv_all(x, w, b, g):
    """Forward output and the gradients of x, w and b for output gradient g,
    as bytes (None for an input without grad)."""
    out = ad.conv3d(x, w, b)
    out._backward(g)
    grads = [None if t.grad is None else t.grad.tobytes() for t in (x, w, b)]
    for t in (x, w, b):
        t.grad = None
    return out.data.tobytes(), grads


# (B, C, O, spatial dims, kernel, x has grad): at B = 2, 5 x-planes (2 and 3
# workers do not divide them); 10 planes under a (3, 1, 1) kernel; the 1x1x1
# head kernel; an input without grad; a one-channel first conv. Under a
# _CONV_CHUNK of 7 * (C + O), every correlation runs one-plane chunks and
# the weight gradients chunks of 7 columns: 20, 18, 4, 20 and 20 chunks.
PARALLEL_CASES = [
    (2, 3, 4, (5, 4, 3), (3, 3, 3), True),
    (1, 2, 3, (10, 3, 4), (3, 1, 1), True),
    (2, 3, 5, (4, 3, 2), (1, 1, 1), True),
    (1, 2, 2, (5, 4, 3), (3, 3, 3), False),
    (1, 1, 8, (5, 4, 3), (3, 3, 3), False),
]


class TestParallelRegion:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", range(len(PARALLEL_CASES)))
    def test_conv_bitwise_inside_and_outside(self, workers, case, monkeypatch, rng, submits):
        B, C, O, dims, kernel, x_grad = PARALLEL_CASES[case]
        if workers > 1:
            _blas_api()
        monkeypatch.setattr(ad, "_CONV_CHUNK", 7 * (C + O))
        x = Tensor(rng.standard_normal((B, C) + dims, dtype=np.float32), requires_grad=x_grad)
        w = Tensor(rng.standard_normal((O, C) + kernel, dtype=np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(O, dtype=np.float32), requires_grad=True)
        g = rng.standard_normal((B, O) + dims, dtype=np.float32)
        want = _conv_all(x, w, b, g)
        monkeypatch.setattr(ad, "parallel_workers", lambda: workers)
        with ad.parallel() as region:
            assert region.workers == workers
            got = _conv_all(x, w, b, g)
        assert got == want
        # the forward pass, the weight gradient and, where x has a gradient,
        # the input gradient each run at least 4 chunks, so each starts
        # workers - 1 pool threads taking them
        calls = 3 if x_grad else 2
        assert len(submits) == calls * (workers - 1)

    @pytest.mark.parametrize(
        "form, planes_per_chunk, chunks",
        [
            pytest.param(form, planes, chunks, id=f"{prefix}{planes}-{chunks}")
            for form, prefix in (("kn2row", ""), ("im2col", "im2col-"))
            for planes, chunks in ((1, 5), (2, 3), (3, 2), (5, 1))
        ],
    )
    def test_submits_follow_the_kn2row_chunks(
        self, form, planes_per_chunk, chunks, monkeypatch, rng, submits
    ):
        # C -> C channels on 5 planes, w without a gradient: the forward pass
        # and the input gradient take the same form, whose chunks of n
        # planes hold n * (rows + C) * Y * Z input and output elements. 16
        # channels on 16 x 32 planes run kn2row (rows = C); 3 channels on
        # 4 x 3 planes run im2col (rows = C * 27).
        _blas_api()
        C, Y, Z, rows = (16, 16, 32, 16) if form == "kn2row" else (3, 4, 3, 81)
        assert ad._kn2row_wins(C, C, (5, Y, Z), (3, 3, 3)) == (form == "kn2row")
        x = Tensor(rng.standard_normal((2, C, 5, Y, Z), dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((C, C, 3, 3, 3), dtype=np.float32))
        b = Tensor(rng.standard_normal(C, dtype=np.float32), requires_grad=True)
        g = rng.standard_normal((2, C, 5, Y, Z), dtype=np.float32)
        monkeypatch.setattr(ad, "_CONV_CHUNK", planes_per_chunk * (rows + C) * Y * Z)
        want = _conv_all(x, w, b, g)
        monkeypatch.setattr(ad, "parallel_workers", lambda: 3)
        with ad.parallel():
            got = _conv_all(x, w, b, g)
        assert got == want
        # forward and input gradient each start one pool thread per chunk
        # beyond the first, at most workers - 1
        assert len(submits) == 2 * (min(3, chunks) - 1)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("chunks", [1, 2, 3, 5])
    def test_weight_gradient_bitwise_and_submits_follow_its_chunks(
        self, workers, chunks, monkeypatch, rng, submits
    ):
        # 16 -> 16 channels on 5 planes of 16 x 32: the weight gradient runs
        # kn2row over the 2990 columns of the padded-plane domain, in chunks
        # of _CONV_CHUNK // 32 columns. Only w has a gradient, and the
        # backward alone runs in the region.
        _blas_api()
        x = Tensor(rng.standard_normal((2, 16, 5, 16, 32), dtype=np.float32))
        w = Tensor(rng.standard_normal((16, 16, 3, 3, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(16, dtype=np.float32))
        g = rng.standard_normal((2, 16, 5, 16, 32), dtype=np.float32)
        monkeypatch.setattr(ad, "_CONV_CHUNK", -(-2990 // chunks) * 32)
        out = ad.conv3d(x, w, b)
        out._backward(g)
        want, w.grad = w.grad.tobytes(), None
        monkeypatch.setattr(ad, "parallel_workers", lambda: workers)
        with ad.parallel():
            out._backward(g)
        assert w.grad.tobytes() == want
        # one pool thread per chunk beyond the first, at most workers - 1
        assert len(submits) == min(workers, chunks) - 1

    def test_kn2row_bitwise_inside_and_outside(self, monkeypatch, rng, submits):
        # the shape above at its own chunk size: 4 planes and then 1, and 2
        # chunks of 2048 columns for the weight gradient, one per worker;
        # every output and gradient keeps its bits in a 2-worker region
        _blas_api()
        x = Tensor(rng.standard_normal((2, 16, 5, 16, 32), dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 16, 3, 3, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(16, dtype=np.float32), requires_grad=True)
        g = rng.standard_normal((2, 16, 5, 16, 32), dtype=np.float32)
        want = _conv_all(x, w, b, g)
        monkeypatch.setattr(ad, "parallel_workers", lambda: 2)
        with ad.parallel():
            got = _conv_all(x, w, b, g)
        assert got == want
        assert len(submits) == 3  # forward, input gradient, weight gradient

    def test_nested_region_reuses_the_outer_pool(self, monkeypatch):
        _blas_api()
        monkeypatch.setattr(ad, "parallel_workers", lambda: 2)
        with ad.parallel() as outer:
            with ad.parallel() as inner:
                assert inner is outer
            assert ad._region.get() is outer
        assert ad._region.get() is None

    def test_pool_threads_do_not_see_the_region(self, monkeypatch):
        _blas_api()
        monkeypatch.setattr(ad, "parallel_workers", lambda: 2)
        with ad.parallel() as region:
            assert region.pool.submit(ad._region.get).result(timeout=30) is None

    def test_pool_threads_build_no_graph(self, monkeypatch, rng):
        # the calling thread builds graphs; the same op on a pool thread does not
        _blas_api()
        monkeypatch.setattr(ad, "parallel_workers", lambda: 2)
        x = Tensor(rng.standard_normal((1, 1, 2, 2, 2)), requires_grad=True)
        with ad.parallel() as region:
            here = ad.relu(x)
            there = region.pool.submit(ad.relu, x).result(timeout=30)
        assert here.requires_grad and here._backward is not None
        assert not there.requires_grad
        assert there._backward is None
        assert np.array_equal(there.data, here.data)

    def test_one_worker_region_has_a_one_thread_pool_and_no_pin(self, monkeypatch):
        get, put = _blas_api()
        before = get()
        put(2)  # a count a pin would visibly change, even on a one-core host
        try:
            monkeypatch.setattr(ad, "parallel_workers", lambda: 1)
            with ad.parallel() as region:
                assert (region.workers, region.pinned) == (1, False)
                assert get() == 2
                names = {region.pool.submit(lambda: threading.current_thread().name).result(30)
                         for _ in range(4)}
            assert len(names) == 1 and names != {threading.current_thread().name}
            assert get() == 2
        finally:
            put(before)

    def test_blas_pinned_inside_and_restored_after_an_exception(self, monkeypatch):
        get, put = _blas_api()
        before = get()
        put(2)  # a count the pin visibly changes, even on a one-core host
        try:
            monkeypatch.setattr(ad, "parallel_workers", lambda: 2)
            with pytest.raises(RuntimeError, match="inside"):
                with ad.parallel():
                    assert get() == 1
                    raise RuntimeError("inside")
            assert get() == 2
            assert ad._region.get() is None
        finally:
            put(before)

    def test_stress_more_workers_than_cores(self, monkeypatch, rng):
        # several threads each open their own region of 4 workers at once,
        # with frequent thread switches: every conv stays bitwise, and the
        # shared BLAS pin is restored exactly once at the end
        get, _ = _blas_api()
        before = get()
        x = Tensor(rng.standard_normal((2, 3, 9, 4, 3), dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(4, dtype=np.float32), requires_grad=True)
        g = rng.standard_normal((2, 4, 9, 4, 3), dtype=np.float32)
        want = _conv_all(x, w, b, g)
        monkeypatch.setattr(ad, "parallel_workers", lambda: 4)
        results = {}

        def worker(k):
            # each thread its own leaves: gradients accumulate per tensor
            xs, ws, bs = (Tensor(t.data, requires_grad=True) for t in (x, w, b))
            got = []
            for _ in range(5):
                with ad.parallel():
                    got.append(_conv_all(xs, ws, bs, g))
            results[k] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2]
        assert all(got == [want] * 5 for got in results.values())
        assert get() == before


class TestRunAhead:
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_n_ahead_then_one_per_result_in_item_order(self, n, monkeypatch, submits):
        # 5 items; the later an item, the sooner it finishes, so the order of
        # the results is the order of the items, not of their completion
        _blas_api()
        monkeypatch.setattr(ad, "parallel_workers", lambda: 3)
        taken_at = []  # submits when each result was waited for
        result = Future.result

        def recording_result(self, timeout=None):
            if threading.current_thread() is threading.main_thread():
                taken_at.append(len(submits))
            return result(self, timeout)

        def slow_square(offset, i):
            time.sleep(0.002 * (5 - i))
            return offset + i * i

        monkeypatch.setattr(Future, "result", recording_result)
        got, yielded_at = [], []
        with ad.parallel() as region:
            for value in region.run_ahead(slow_square, iter(range(5)), n, 100):
                got.append(value)
                yielded_at.append(len(submits))
        assert got == [100 + i * i for i in range(5)]
        assert taken_at == [min(n + k, 5) for k in range(5)]
        assert yielded_at == [min(n + k + 1, 5) for k in range(5)]
        assert {fn for _, fn in submits} == {slow_square}

    def test_an_error_comes_back_at_its_items_turn(self, monkeypatch):
        get, put = _blas_api()
        before = get()
        put(2)  # a count the pin visibly changes, even on a one-core host
        try:
            monkeypatch.setattr(ad, "parallel_workers", lambda: 2)
            ran, got = [], []

            def fail_on_2(i):
                if i == 2:
                    raise RuntimeError("item 2 failed")
                ran.append(i)
                return i

            with pytest.raises(RuntimeError, match="item 2 failed"):
                with ad.parallel() as region:
                    for value in region.run_ahead(fail_on_2, range(5), 2):
                        got.append(value)
            assert got == [0, 1]
            # item 3 was submitted before item 2's turn and still ran; item 4
            # never was
            assert sorted(ran) == [0, 1, 3]
            assert get() == 2
            assert ad._region.get() is None
            assert not [t for t in threading.enumerate() if t.name.startswith("parallel")]
        finally:
            put(before)
