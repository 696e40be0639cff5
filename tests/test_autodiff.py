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
# anisotropic kernel, and (3,1,1) on X = 7, whose slabs span 2 x-planes with a
# short last one.
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
        ad.batch_norm(Tensor(x1), gamma, beta, state, mode="train", momentum=0.9)
        first = state.running_mean.copy()
        assert np.allclose(first, x1.mean())  # first call seeds directly
        ad.batch_norm(Tensor(x2), gamma, beta, state, mode="train", momentum=0.9)
        assert np.allclose(state.running_mean, 0.9 * first + 0.1 * x2.mean())

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_gradients(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((2, 2, 3, 3, 3))
        gamma = gen.uniform(0.5, 2.0, 2)
        beta = gen.standard_normal(2)
        weights = gen.standard_normal((2, 2, 3, 3, 3))
        xt, gt, bt = tensor(x), tensor(gamma), tensor(beta)
        scalar_loss(
            ad.batch_norm(xt, gt, bt, BatchNormState.for_channels(2)), weights
        ).backward()

        def f():
            return float(
                (
                    ad.batch_norm(
                        Tensor(x), Tensor(gamma), Tensor(beta), BatchNormState.for_channels(2)
                    ).data
                    * weights
                ).sum()
            )

        assert max_rel_err(xt.grad, central_diff(f, x)) < TOL
        assert max_rel_err(gt.grad, central_diff(f, gamma)) < TOL
        assert max_rel_err(bt.grad, central_diff(f, beta)) < TOL


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

    def test_concat_channels_split_gradient(self, rng):
        a = tensor(rng.standard_normal((1, 2, 2, 2, 2)))
        b = tensor(rng.standard_normal((1, 3, 2, 2, 2)))
        weights = rng.standard_normal((1, 5, 2, 2, 2))
        scalar_loss(ad.concat_channels(a, b), weights).backward()
        assert np.allclose(a.grad, weights[:, :2])
        assert np.allclose(b.grad, weights[:, 2:])
