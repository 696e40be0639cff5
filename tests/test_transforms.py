import hashlib

import numpy as np
import pytest
from scipy import ndimage

from neuroseg import transforms as tf
from neuroseg.core import AffineTransform, GeometryError, LabelMap, Volume
from neuroseg.phantom import default_phantom_spec, generate_subject


def make_blob_volume(dims=(24, 24, 24), seed=0, noise=0.0):
    """Smooth blob with an off-center bright lobe; good registration target."""
    gen = np.random.default_rng(seed)
    x, y, z = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    c = (np.asarray(dims) - 1) / 2
    blob = 80 * np.exp(-(((x - c[0]) / 6) ** 2 + ((y - c[1]) / 7) ** 2 + ((z - c[2]) / 6) ** 2))
    blob += 40 * np.exp(
        -(((x - c[0] - 4) / 3) ** 2 + ((y - c[1] + 3) / 3) ** 2 + ((z - c[2]) / 4) ** 2)
    )
    if noise:
        blob += gen.normal(0, noise, dims)
    return Volume(blob.astype(np.float32))


class TestResampleSpline:
    def test_identity_is_bitwise(self, rng):
        v = Volume(rng.random((6, 5, 4), dtype=np.float32) * 100)
        out = tf.resample_spline(v, AffineTransform.identity(), v.dims, v.spacing)
        assert np.array_equal(out.data, v.data)

    def test_constant_volume_reproduced_exactly(self):
        v = Volume(np.full((8, 8, 8), 37.5, dtype=np.float32))
        t = tf.rotation_transform((9.0, -4.0, 2.0), center=(3.5, 3.5, 3.5))
        out = tf.resample_spline(v, t, v.dims, v.spacing)
        inside = out.data[2:-2, 2:-2, 2:-2]
        assert np.all(inside == np.float32(37.5))

    def test_linear_ramp_upsampled_stays_linear(self):
        # spline boundary handling perturbs a ramp near the edges (the
        # perturbation decays by the cubic spline pole ~0.27 per voxel), so
        # linearity is checked in the interior
        dims = (24, 8, 8)
        x = np.arange(24, dtype=np.float32).reshape(24, 1, 1)
        ramp = np.broadcast_to(10 * x + 5, dims).copy()
        v = Volume(ramp)
        out_dims = (48, 16, 16)
        t = tf.grid_scaling(out_dims, dims)
        out = tf.resample_spline(v, t, out_dims, (0.5, 0.5, 0.5))
        xs = (np.arange(48) + 0.5) * 0.5 - 0.5
        expected = (10 * xs + 5).astype(np.float64)
        interior = slice(19, 29)  # > 9 input voxels from either x edge
        got = out.data[interior, 8, 8]
        want = expected[interior]
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-4

    def test_integer_translation_exact_on_interior(self, rng):
        data = rng.random((10, 9, 8), dtype=np.float32) * 50
        v = Volume(data)
        t = tf.translation_transform((3.0, -2.0, 1.0))  # out voxel i samples i + (3,-2,1)
        out = tf.resample_spline(v, t, v.dims, v.spacing)
        assert np.array_equal(out.data[:7, 2:, :7], data[3:, : 9 - 2, 1:])

    def test_out_of_bounds_fills_zero(self, rng):
        v = Volume(rng.random((4, 4, 4), dtype=np.float32) + 1.0)
        t = tf.translation_transform((100.0, 0.0, 0.0))
        out = tf.resample_spline(v, t, v.dims, v.spacing)
        assert np.all(out.data == 0)


class TestResampleNearest:
    def test_identity_exact(self, rng):
        l = LabelMap(rng.integers(0, 5, (5, 5, 5), dtype=np.uint8))
        out = tf.resample_nearest(l, AffineTransform.identity(), l.dims, l.spacing)
        assert np.array_equal(out.labels, l.labels)

    def test_upsampling_single_voxel_gives_2x2x2_block(self):
        labels = np.zeros((8, 8, 8), dtype=np.uint8)
        labels[5, 5, 5] = 3
        l = LabelMap(labels)
        out_dims = (16, 16, 16)
        out = tf.resample_nearest(l, tf.grid_scaling(out_dims, l.dims), out_dims, (0.5,) * 3)
        hits = np.argwhere(out.labels == 3)
        assert len(hits) == 8
        lo = hits.min(axis=0)
        hi = hits.max(axis=0)
        assert np.array_equal(hi - lo, [1, 1, 1])  # a 2x2x2 block
        assert out.labels.sum() == 3 * 8

    def test_fully_outside_is_background(self, rng):
        l = LabelMap(rng.integers(1, 4, (4, 4, 4), dtype=np.uint8))
        out = tf.resample_nearest(
            l, tf.translation_transform((50.0, 50.0, 50.0)), l.dims, l.spacing
        )
        assert np.all(out.labels == 0)

    def test_never_invents_labels(self, rng):
        labels = rng.choice(np.array([0, 2, 9], dtype=np.uint8), size=(7, 7, 7))
        l = LabelMap(labels)
        t = tf.rotation_transform((11.0, 7.0, -13.0), center=(3.0, 3.0, 3.0))
        out = tf.resample_nearest(l, t, (9, 9, 9), l.spacing)
        assert set(np.unique(out.labels)) <= {0, 2, 9}


class TestTransformFile:
    def test_round_trip(self, tmp_path, rng):
        t = AffineTransform(np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3)), rng.uniform(-5, 5, 3))
        path = tmp_path / "transform.txt"
        tf.save_transform(t, path)
        text = path.read_text().split()
        assert len(text) == 16
        loaded = tf.load_transform(path)
        assert np.allclose(loaded.as_matrix(), t.as_matrix(), atol=0, rtol=0)

    def test_rejects_bad_last_row(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 1 1\n")
        with pytest.raises(GeometryError):
            tf.load_transform(path)


class TestRegistration:
    def test_self_registration_is_identity(self):
        v = make_blob_volume(seed=1, noise=1.0)
        result = tf.register_affine(v, v, v.dims)
        assert result.converged
        assert result.final_cost <= result.initial_cost
        # translation error under 0.1 voxel
        assert np.max(np.abs(result.transform.translation)) < 0.1
        assert np.max(np.abs(result.transform.linear - np.eye(3))) < 0.02

    def test_constant_volume_rejected(self):
        flat = Volume(np.zeros((8, 8, 8), dtype=np.float32))
        blob = make_blob_volume()
        with pytest.raises(ValueError):
            tf.register_affine(flat, blob, blob.dims)

    def test_known_shift_recovered(self):
        moving = make_blob_volume(seed=2, noise=0.5)
        shift = np.array([3.0, -2.0, 1.0])
        t_true = tf.translation_transform(shift)
        reference = tf.resample_spline(moving, t_true, moving.dims, moving.spacing)
        result = tf.register_affine(moving, reference, reference.dims)
        recovered = result.transform
        assert np.max(np.abs(recovered.translation - shift)) < 0.5
        assert result.final_cost <= result.initial_cost

    def test_known_rotation_recovered(self):
        moving = make_blob_volume(dims=(28, 28, 28), seed=3, noise=0.5)
        center = (np.asarray(moving.dims) - 1) / 2
        t_true = tf.rotation_transform((0.0, 0.0, 5.0), center)
        reference = tf.resample_spline(moving, t_true, moving.dims, moving.spacing)
        result = tf.register_affine(moving, reference, reference.dims)
        lin = result.transform.linear
        angle = np.rad2deg(np.arctan2(lin[1, 0], lin[0, 0]))
        assert abs(angle - 5.0) < 1.0

    def test_cost_never_exceeds_initial(self):
        a = make_blob_volume(seed=4, noise=2.0)
        b = make_blob_volume(seed=5, noise=2.0)
        result = tf.register_affine(a, b, b.dims)
        assert result.final_cost <= result.initial_cost

    def test_absurd_step_flags_divergence(self, monkeypatch):
        moving = make_blob_volume(seed=6)
        reference = tf.resample_spline(
            moving, tf.translation_transform((2.0, 0.0, 0.0)), moving.dims, moving.spacing
        )
        monkeypatch.setattr(tf, "_STEP", 50.0)
        result = tf.register_affine(moving, reference, reference.dims)
        assert not result.converged
        assert result.final_cost <= result.initial_cost


class TestMapBack:
    def test_identity_round_trip(self, rng):
        labels = rng.integers(0, 6, (8, 8, 8), dtype=np.uint8)
        seg = LabelMap(labels)
        original = Volume(rng.random((8, 8, 8), dtype=np.float32))
        out = tf.map_back(seg, original, AffineTransform.identity())
        assert np.array_equal(out.labels, labels)
        assert out.dims == original.dims

    def test_integer_shift_round_trip_exact_on_interior(self, rng):
        labels = np.zeros((12, 12, 12), dtype=np.uint8)
        labels[4:8, 4:8, 4:8] = 7
        original = Volume(rng.random((12, 12, 12), dtype=np.float32))
        t = tf.translation_transform((2.0, -1.0, 3.0))
        seg_model_grid = tf.resample_nearest(LabelMap(labels), t, (12, 12, 12), (1, 1, 1))
        back = tf.map_back(seg_model_grid, original, t)
        # the structure sits well inside, so the round trip is exact there
        assert np.array_equal(back.labels[3:9, 3:9, 3:9], labels[3:9, 3:9, 3:9])

    def test_downsample_round_trip_agreement(self):
        spec = default_phantom_spec(dims=(32, 32, 32), modalities=("mprage",), seed=5)
        truth = generate_subject(spec, 0)[0]["mprage"]
        out_dims = (16, 16, 16)
        t = tf.grid_scaling(out_dims, truth.dims)  # model-grid voxel -> original voxel
        seg_coarse = tf.resample_nearest(truth, t, out_dims, (2.0, 2.0, 2.0))
        original = Volume(np.zeros(truth.dims, dtype=np.float32) + 1.0)
        original = Volume(original.data, (1.0, 1.0, 1.0))
        back = tf.map_back(seg_coarse, original, t)
        assert back.dims == truth.dims
        # agreement on structure interiors (3^3 uniform neighbourhoods)
        from scipy.ndimage import minimum_filter, maximum_filter

        interior = minimum_filter(truth.labels, 3) == maximum_filter(truth.labels, 3)
        agree = (back.labels == truth.labels)[interior]
        assert agree.mean() >= 0.95


def _border_free_blob(dims, center, widths):
    """Gaussian blob that is (near) zero on the border, as phantoms are."""
    grid = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    return 100 * np.exp(-sum(((g - c) / w) ** 2 for g, c, w in zip(grid, center, widths)))


class TestCostGradient:
    """``_mse_cost_grad`` at parameters away from the optimum."""

    def _case(self, level):
        dims = (32, 32, 32)
        mov = _border_free_blob(dims, (15, 16.5, 15.5), (4.5, 5.0, 4.0))
        ref = _border_free_blob(dims, (16.5, 15, 16), (4.0, 5.5, 4.5))
        ref_l, mov_l = tf._block_mean(ref, level), tf._block_mean(mov, level)
        c_ref = tf._intensity_centroid(ref)
        centered = tf._centered_axes(ref_l.shape, level, c_ref)
        # far enough from the identity that a gradient missing the chain
        # rule's lin.T (or transposing it) fails the cosine bound
        lin = tf.rotation_transform((25.0, 12.0, -18.0)).linear @ np.diag([1.1, 0.9, 1.05])
        tr = tf._intensity_centroid(mov) + np.array([0.7, -0.4, 0.9])
        return mov_l, ref_l, level, lin, tr, centered

    @pytest.mark.parametrize("level", [1, 2])
    def test_gradient_matches_central_differences(self, level):
        mov_l, ref_l, level, lin, tr, centered = self._case(level)
        _, dlin, dtr = tf._mse_cost_grad(mov_l, ref_l, level, lin, tr, centered)
        grad = np.concatenate([dlin.ravel(), dtr])
        params = np.concatenate([lin.ravel(), tr])

        def cost(p):
            return tf._mse_cost_grad(
                mov_l, ref_l, level, p[:9].reshape(3, 3), p[9:], centered, need_grad=False
            )[0]

        eps = 1e-4
        numeric = np.array(
            [(cost(params + eps * e) - cost(params - eps * e)) / (2 * eps) for e in np.eye(12)]
        )
        cosine = grad @ numeric / (np.linalg.norm(grad) * np.linalg.norm(numeric))
        assert cosine >= 0.98

    @pytest.mark.parametrize("level", [1, 2])
    def test_cost_matches_map_coordinates_warp(self, level):
        mov_l, ref_l, level, lin, tr, centered = self._case(level)
        cost, _, _ = tf._mse_cost_grad(mov_l, ref_l, level, lin, tr, centered, need_grad=False)
        # the moving-level voxel each level voxel samples, coordinate by coordinate
        grid = np.stack(np.meshgrid(*centered, indexing="ij"))
        q = np.einsum("de,exyz->dxyz", lin, grid) + tr[:, None, None, None]
        half = (level - 1) / 2
        warped = ndimage.map_coordinates(
            mov_l, (q - half) / level, order=1, mode="constant", cval=0.0
        )
        want = float(np.mean((warped - ref_l) ** 2))
        assert abs(cost - want) <= 1e-12 * want


class TestConvergenceFlag:
    def test_levels_traced(self, monkeypatch):
        v = make_blob_volume(seed=1, noise=1.0)
        monkeypatch.setattr(tf, "_LEVELS", ((4, 5), (2, 4), (1, 3)))
        result = tf.register_affine(v, v, v.dims)
        assert [t.level for t in result.levels] == [4, 2, 1]
        assert [t.iterations for t in result.levels] == [5, 4, 3]
        assert result.iterations == 12
        for t in result.levels:
            assert t.best_cost <= t.start_cost
            assert t.best_cost <= t.end_cost
            assert t.stop_reason == "budget"

    def test_no_level_run_is_not_converged(self):
        # one voxel on an axis leaves every level fewer than 2 blocks there,
        # so only the centroid transform comes back
        moving = make_blob_volume(dims=(24, 24, 1), seed=1, noise=1.0)
        reference = make_blob_volume(seed=1, noise=1.0)
        result = tf.register_affine(moving, reference, reference.dims)
        assert result.levels == () and result.iterations == 0
        assert result.final_cost == result.initial_cost
        assert not result.converged

    def test_absurd_step_diverges_on_a_level(self, monkeypatch):
        moving = make_blob_volume(seed=6)
        reference = tf.resample_spline(
            moving, tf.translation_transform((2.0, 0.0, 0.0)), moving.dims, moving.spacing
        )
        monkeypatch.setattr(tf, "_STEP", 50.0)
        result = tf.register_affine(moving, reference, reference.dims)
        assert any(t.diverged for t in result.levels)

    def test_last_iterate_above_start_within_best_gain_converges(self, monkeypatch):
        # a 48^3 phantom pair whose finest level ends slightly above its
        # start cost (41.191 vs 41.175) after reaching 41.143: the level hands
        # on its best iterate, so it has not diverged. Without the plateau
        # stop every level runs its full budget, as when this was measured.
        monkeypatch.setattr(tf, "_PLATEAU_ITERS", 10**6)
        spec = default_phantom_spec(dims=(48, 48, 48), modalities=("mprage",), seed=2)
        reference = generate_subject(spec, 0)[1]["mprage"]
        moving = generate_subject(spec, 2)[1]["mprage"]
        result = tf.register_affine(moving, reference, reference.dims)
        last = result.levels[-1]
        assert last.level == 1
        assert last.end_cost > last.start_cost
        assert last.start_cost - last.best_cost > last.end_cost - last.start_cost
        assert not last.diverged
        assert result.converged


    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_level_that_starts_at_its_optimum_converges(self):
        # 48^3 seed 52, subject 3 onto 0: level 2 never beats its start cost
        # (12.5174), runs its 80-iteration budget and ends at 12.5700, so the
        # rise rule flags it, although the final cost (49.91) is well below
        # the initial one (70.23)
        spec = default_phantom_spec(dims=(48, 48, 48), modalities=("mprage",), seed=52)
        reference = generate_subject(spec, 0)[1]["mprage"]
        moving = generate_subject(spec, 3)[1]["mprage"]
        result = tf.register_affine(moving, reference, reference.dims)
        assert result.final_cost < result.initial_cost
        assert result.converged


@pytest.fixture(scope="module")
def phantom_pairs_32():
    """MPRAGE phantoms at 32^3, seed 1: (moving, reference) for subjects 1-4
    onto subject 0."""
    spec = default_phantom_spec(dims=(32, 32, 32), modalities=("mprage",), seed=1)
    reference = generate_subject(spec, 0)[1]["mprage"]
    return [(generate_subject(spec, s)[1]["mprage"], reference) for s in (1, 2, 3, 4)]


class TestPlateauStop:
    def test_a_level_stops_on_a_plateau(self, phantom_pairs_32):
        result = tf.register_affine(*phantom_pairs_32[0], (32, 32, 32))
        caps = dict(zip((4, 2, 1), (80, 80, 50)))
        stopped = [t for t in result.levels if t.stop_reason == "plateau"]
        assert stopped
        for t in stopped:
            assert t.iterations < caps[t.level]
            assert t.end_cost <= t.start_cost
            assert not t.diverged
        assert result.converged

    def test_repeat_calls_are_bitwise_equal(self, phantom_pairs_32):
        a = tf.register_affine(*phantom_pairs_32[0], (32, 32, 32))
        b = tf.register_affine(*phantom_pairs_32[0], (32, 32, 32))
        assert np.array_equal(a.transform.as_matrix(), b.transform.as_matrix())
        assert a.final_cost == b.final_cost
        assert a.levels == b.levels  # LevelTrace equality leaves out ``seconds``

    def test_start_and_end_costs_are_the_costs_at_their_parameters(
        self, phantom_pairs_32, monkeypatch
    ):
        # every cost evaluation, with copies of its parameters, grouped by the
        # moving image: one per level, then the full-resolution cost report
        calls = {}
        real = tf._mse_cost_grad

        def recording(mov, ref_l, level, lin, tr, centered, need_grad=True):
            args = (mov, ref_l, level, lin.copy(), tr.copy(), centered)
            calls.setdefault(id(mov), []).append(args)
            return real(*args, need_grad=need_grad)

        monkeypatch.setattr(tf, "_mse_cost_grad", recording)
        result = tf.register_affine(*phantom_pairs_32[0], (32, 32, 32))
        groups = list(calls.values())
        assert len(groups) == len(result.levels) + 1
        for t, level_calls in zip(result.levels, groups):
            # one evaluation per update plus the end: nothing moves after the last
            assert len(level_calls) == t.iterations + 1
            assert t.start_cost == real(*level_calls[0], need_grad=False)[0]
            assert t.end_cost == real(*level_calls[-1], need_grad=False)[0]

    @pytest.mark.parametrize("levels", [(4, 2, 1), (4, 2)])
    def test_final_cost_is_the_full_resolution_cost(self, phantom_pairs_32, monkeypatch, levels):
        # equal to a direct evaluation at the returned parameters; taken from
        # level 1's best cost when level 1 ran last, which saves one
        # full-resolution warp
        moving, reference = phantom_pairs_32[1]
        warps = []
        affine_transform = tf.ndimage.affine_transform

        def counting(image, *args, **kwargs):
            warps.append(kwargs["output_shape"])
            return affine_transform(image, *args, **kwargs)

        monkeypatch.setattr(tf.ndimage, "affine_transform", counting)
        monkeypatch.setattr(tf, "_LEVELS", tuple(zip(levels, (80, 80, 50))))
        result = tf.register_affine(moving, reference, reference.dims)
        monkeypatch.undo()
        c_ref = tf._intensity_centroid(reference.data)
        lin = result.transform.linear
        direct, _, _ = tf._mse_cost_grad(
            moving.data.astype(np.float64),
            reference.data.astype(np.float64),
            1,
            lin,
            result.transform.translation + lin @ c_ref,
            tf._centered_axes(reference.dims, 1, c_ref),
            need_grad=False,
        )
        assert result.final_cost == pytest.approx(direct, rel=1e-12)
        full = warps.count(reference.dims)
        if levels[-1] == 1:
            assert result.final_cost == result.levels[-1].best_cost
            # level 1's evaluations and the initial cost, nothing more
            assert full == result.levels[-1].iterations + 2
        else:
            assert full == 2  # the initial and the final cost

    def test_no_plateau_stop_above_the_start(self):
        # a 48^3 pair whose finest level finds no gain in its first 10
        # iterations and sits above its start cost there: stopping would
        # trip the rise rule, so the level runs on
        spec = default_phantom_spec(dims=(48, 48, 48), modalities=("mprage",), seed=1)
        reference = generate_subject(spec, 0)[1]["mprage"]
        moving = generate_subject(spec, 2)[1]["mprage"]
        result = tf.register_affine(moving, reference, reference.dims)
        assert result.levels[-1].iterations > 10
        assert not any(t.diverged for t in result.levels)
        assert result.converged

    def test_final_cost_within_one_percent_of_full_budget(self, phantom_pairs_32, monkeypatch):
        early = [tf.register_affine(m, r, r.dims) for m, r in phantom_pairs_32]
        monkeypatch.setattr(tf, "_PLATEAU_ITERS", 10**6)
        full = [tf.register_affine(m, r, r.dims) for m, r in phantom_pairs_32]
        for e, f in zip(early, full):
            assert all(t.stop_reason == "budget" for t in f.levels)
            assert abs(e.final_cost - f.final_cost) <= 0.01 * f.final_cost
            assert e.converged and f.converged
        assert sum(e.iterations for e in early) < sum(f.iterations for f in full)


class TestModelGridPyramid:
    """The pyramid runs only as finely as one voxel of the grid the transform
    is sampled onto, counted in reference voxels."""

    @pytest.mark.parametrize(
        "grid, levels",
        [
            ((24, 24, 24), [4, 2, 1]),
            ((48, 48, 48), [4, 2, 1]),  # a grid finer than the reference
            ((16, 16, 16), [4, 2, 1]),  # ratio 1.5
            ((12, 12, 12), [4, 2]),
            ((8, 8, 8), [4, 2]),  # ratio 3
            ((6, 6, 6), [4]),
            ((12, 24, 6), [4, 2, 1]),  # the smallest ratio over the axes
        ],
    )
    def test_finest_level_is_one_grid_voxel(self, monkeypatch, grid, levels):
        v = make_blob_volume(seed=1, noise=1.0)  # 24^3
        monkeypatch.setattr(tf, "_LEVELS", ((4, 3), (2, 3), (1, 3)))
        result = tf.register_affine(v, v, grid)
        assert [t.level for t in result.levels] == levels

    def test_a_scan_too_thin_for_the_grid_level_still_runs_a_level(self, monkeypatch):
        # a 6^3 grid over a 24^3 reference ends the pyramid at level 4, but
        # 5 voxels on one axis leave level 4 a single block there, so the
        # first level the scan fits runs instead
        moving = make_blob_volume(dims=(24, 24, 5), seed=1, noise=1.0)
        reference = make_blob_volume(seed=1, noise=1.0)
        monkeypatch.setattr(tf, "_LEVELS", ((4, 3), (2, 3), (1, 3)))
        result = tf.register_affine(moving, reference, (6, 6, 6))
        assert [t.level for t in result.levels] == [2]

    def test_coarser_levels_run_as_in_the_whole_pyramid(self, phantom_pairs_32, monkeypatch):
        moving, reference = phantom_pairs_32[1]
        full = tf.register_affine(moving, reference, reference.dims)
        factors = []
        block_mean = tf._block_mean

        def recording(data, f):
            factors.append(f)
            return block_mean(data, f)

        monkeypatch.setattr(tf, "_block_mean", recording)
        coarse = tf.register_affine(moving, reference, (16, 16, 16))
        assert coarse.levels == full.levels[:2]  # LevelTrace equality leaves out ``seconds``
        assert set(factors) == {4, 2}  # the full-resolution block means are never taken
        assert coarse.initial_cost == full.initial_cost

    def test_within_half_a_voxel_of_the_full_pyramid(self, phantom_pairs_32):
        # a 16^3 grid over 32^3 scans skips level 1: the transform moves each
        # reference voxel by under 0.5 native voxels RMS (a quarter of a grid
        # voxel), and the full-resolution cost rises by under 3%. These bounds
        # hold on the seed-1 fixture pairs (at most 0.15 voxels and +1.2%),
        # not on every seed at this ratio: seeds 2 and 3 reach 0.68 voxels
        # and +3.5% (ROADMAP item 4)
        axes = [np.arange(32, dtype=np.float64)] * 3
        grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(3, -1)
        for moving, reference in phantom_pairs_32:
            full = tf.register_affine(moving, reference, reference.dims)
            coarse = tf.register_affine(moving, reference, (16, 16, 16))
            assert [t.level for t in coarse.levels] == [4, 2]
            a, b = full.transform, coarse.transform
            moved = (a.linear - b.linear) @ grid + (a.translation - b.translation)[:, None]
            assert np.sqrt((moved * moved).sum(axis=0).mean()) < 0.5
            assert coarse.final_cost <= 1.03 * full.final_cost
            assert coarse.converged

    def test_same_grid_keeps_the_whole_pyramid_bit_for_bit(self, phantom_pairs_32):
        # digests and costs taken before the grid argument existed
        result = tf.register_affine(*phantom_pairs_32[0], (32, 32, 32))
        digest = hashlib.sha256(result.transform.as_matrix().tobytes()).hexdigest()
        assert digest == "838f1fc196e38c049f8706589efac1c143837b8b93076a494b8df9368dd44543"
        assert result.final_cost == 64.43549251702092
        assert result.initial_cost == 84.79076980269622
        got = [(t.level, t.iterations, t.start_cost, t.best_cost, t.end_cost) for t in result.levels]
        assert got == [
            (4, 32, 14.540556336049175, 12.349196873917943, 12.401529974075727),
            (2, 25, 21.890041038537014, 19.443344012340035, 19.47452883099654),
            (1, 18, 64.8892214530845, 64.43549251702092, 64.47360501372835),
        ]


def _reference_resample(data, t, out_dims, order):
    """Resampling coordinate by coordinate: the input position of every output
    voxel, interpolated by ``map_coordinates`` (on float64 data for orders 1
    and 3) and cast back to the data's dtype."""
    grid = np.stack(np.meshgrid(*(np.arange(n, dtype=np.float64) for n in out_dims), indexing="ij"))
    q = np.einsum("de,exyz->dxyz", t.linear, grid) + t.translation[:, None, None, None]
    src = data if order == 0 else data.astype(np.float64)
    out = ndimage.map_coordinates(src, q, order=order, mode="constant", cval=0)
    return out.astype(data.dtype)


def _augment_like(n, gen):
    """A +-10 degree rotation about the centre with a +-4 voxel shift."""
    rot = tf.rotation_transform(gen.uniform(-10, 10, 3), ((n - 1) / 2,) * 3)
    return AffineTransform(rot.linear, rot.translation + gen.uniform(-4, 4, 3))


def _segment_like(gen):
    """A near-identity registration composed with 48^3 -> 16^3 grid scaling."""
    lin = tf.rotation_transform(gen.uniform(-6, 6, 3)).linear @ np.diag(gen.uniform(0.95, 1.05, 3))
    reg = AffineTransform(lin, gen.uniform(-3, 3, 3) + (47 - lin @ np.full(3, 47.0)) / 2)
    return reg.compose(tf.grid_scaling((16, 16, 16), (48, 48, 48)))


class TestOneSampler:
    """``_resample_array`` is one ``affine_transform`` call; lattice cases are
    exact gathers and the rest agree with coordinate-by-coordinate sampling."""

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_half_turn_about_centre_is_a_flip(self, order):
        # sin(pi) leaves entries 1.2e-16 off the integers; unrounded, the
        # samples on one boundary face fall just outside the volume
        data = make_blob_volume((16, 16, 16), noise=5.0).data
        t = tf.rotation_transform((0.0, 180.0, 0.0), (7.5, 7.5, 7.5))
        out = tf._resample_array(data, t, (16, 16, 16), order)
        assert np.array_equal(out, data[::-1, :, ::-1])

    def test_lattice_is_a_gather_next_to_extreme_values(self):
        # a cubic spline through 1e30 / 1 alternations does not give back the
        # 1s in float64; on the lattice no spline is fitted
        data = np.where(np.indices((8, 8, 8)).sum(axis=0) % 2 == 0, 1e30, 1.0).astype(np.float32)
        t = tf.translation_transform((1.0, -2.0, 0.0))
        out = tf.resample_spline(Volume(data), t, (8, 8, 8), (1, 1, 1))
        assert np.array_equal(out.data[:7, 2:], data[1:, :6])
        assert not out.data[7].any() and not out.data[:, :2].any()

    def test_lattice_rule(self):
        assert tf._on_lattice(tf.rotation_transform((90.0, 0.0, 270.0), (3.5, 3.5, 3.5)), (8, 8, 8))
        assert not tf._on_lattice(tf.translation_transform((0.5, 0.0, 0.0)), (8, 8, 8))
        # a fractional column multiplies only coordinate 0 on a length-1 axis
        t = AffineTransform(np.diag([0.37, 1.0, 1.0]), np.zeros(3))
        assert tf._on_lattice(t, (1, 8, 8))
        assert not tf._on_lattice(t, (2, 8, 8))

    def test_order_0_equals_reference(self):
        gen = np.random.default_rng(3)
        for _ in range(4):
            labels = gen.integers(0, 28, (32, 32, 32), dtype=np.uint8)
            t = _augment_like(32, gen)
            out = tf.resample_nearest(LabelMap(labels), t, (32, 32, 32), (1, 1, 1))
            assert np.array_equal(out.labels, _reference_resample(labels, t, (32, 32, 32), 0))
        for _ in range(4):
            seg = LabelMap(gen.integers(0, 28, (16, 16, 16), dtype=np.uint8))
            original = Volume(np.zeros((48, 48, 48), dtype=np.float32))
            t = _segment_like(gen)
            back = tf.map_back(seg, original, t)
            assert np.array_equal(
                back.labels, _reference_resample(seg.labels, t.invert(), (48, 48, 48), 0)
            )

    @pytest.mark.parametrize("order", [1, 3])
    def test_orders_1_and_3_within_one_ulp_of_reference(self, order):
        gen = np.random.default_rng(4)
        cases = [(make_blob_volume((32,) * 3, seed=s, noise=5.0), _augment_like(32, gen), (32,) * 3)
                 for s in range(3)]
        cases += [(make_blob_volume((48,) * 3, seed=s, noise=5.0), _segment_like(gen), (16,) * 3)
                  for s in range(2)]
        for v, t, out_dims in cases:
            got = tf._resample_array(v.data, t, out_dims, order)
            want = _reference_resample(v.data, t, out_dims, order)
            assert got.dtype == want.dtype == np.float32
            ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
            assert np.all(np.abs(got - want) <= ulp)

    def test_nearest_allocates_no_coordinate_array(self):
        import tracemalloc

        labels = LabelMap(np.random.default_rng(5).integers(0, 28, (32, 32, 32), dtype=np.uint8))
        t = _augment_like(32, np.random.default_rng(6))
        tracemalloc.start()
        try:
            tf.resample_nearest(labels, t, (32, 32, 32), (1, 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 coordinate per output voxel would be 32^3 * 8 bytes
        assert peak < 32 ** 3 * 8
