import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuroseg.core import (
    NUM_CLASSES,
    AffineTransform,
    DegenerateVolumeWarning,
    GeometryError,
    STRUCTURE_NAMES,
    LabelMap,
    Volume,
    normalize_intensity,
    one_hot,
)


def vol(values, **kw):
    return Volume(np.asarray(values, dtype=np.float32), **kw)


class TestVolumeInvariants:
    def test_rejects_non_finite(self):
        data = np.ones((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Volume(data)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            Volume(np.ones((2, 2, 2)), spacing=(1.0, 0.0, 1.0))

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            Volume(np.ones((2, 2)))

    def test_immutable_data(self):
        v = vol(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 5.0

    def test_default_affine_is_spacing_diagonal(self):
        v = vol(np.ones((2, 2, 2)), spacing=(1.0, 2.0, 3.0))
        assert np.allclose(v.affine.linear, np.diag([1.0, 2.0, 3.0]))

    def test_label_range_enforced(self):
        with pytest.raises(ValueError, match="labels"):
            LabelMap(np.full((2, 2, 2), NUM_CLASSES, dtype=np.uint8))

    def test_label_map_holds_one_read_only_copy(self):
        source = np.random.default_rng(0).integers(0, NUM_CLASSES, (64, 64, 64), dtype=np.uint8)
        tracemalloc.start()
        try:
            label_map = LabelMap(source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * source.nbytes
        assert not label_map.labels.flags.writeable
        assert not np.shares_memory(label_map.labels, source)
        assert np.array_equal(label_map.labels, source)


class TestAffineTransform:
    def test_singular_rejected(self):
        with pytest.raises(GeometryError):
            AffineTransform(np.zeros((3, 3)), np.zeros(3))

    def test_matrix_round_trip(self):
        t = AffineTransform(np.diag([2.0, 1.0, 0.5]), [1.0, -2.0, 3.0])
        again = AffineTransform.from_matrix(t.as_matrix())
        assert np.array_equal(again.linear, t.linear)
        assert np.array_equal(again.translation, t.translation)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_compose_invert_identity(self, seed):
        gen = np.random.default_rng(seed)
        # well-conditioned: identity plus a small perturbation
        lin = np.eye(3) + gen.uniform(-0.3, 0.3, (3, 3))
        if abs(np.linalg.det(lin)) < 1e-3:
            lin = np.eye(3)
        t = AffineTransform(lin, gen.uniform(-10, 10, 3))
        round_trip = t.compose(t.invert())
        assert np.allclose(round_trip.as_matrix(), np.eye(4), atol=1e-9)


class TestNormalizeIntensity:
    def test_constant_input_warns_and_zeros(self):
        v = vol(np.full((1, 1, 3), 2.0))
        with pytest.warns(DegenerateVolumeWarning):
            out = normalize_intensity(v)
        assert np.array_equal(out.data, np.zeros((1, 1, 3), dtype=np.float32))

    def test_identity_on_normalized_range(self):
        v = vol(np.asarray([0.0, 50.0, 100.0]).reshape(1, 1, 3))
        out = normalize_intensity(v)
        assert np.array_equal(out.data, v.data)

    def test_hand_example(self):
        # (x - 10) / 20 * 100 for x in {10, 20, 30}
        v = vol(np.asarray([10.0, 20.0, 30.0]).reshape(1, 1, 3))
        out = normalize_intensity(v)
        assert np.array_equal(out.data.reshape(-1), [0.0, 50.0, 100.0])

    def test_endpoints_and_monotonicity(self, rng):
        data = rng.uniform(-40.0, 250.0, (6, 5, 4)).astype(np.float32)
        out = normalize_intensity(vol(data))
        assert out.data.min() == 0.0
        assert out.data.max() == 100.0
        order = np.argsort(data.reshape(-1), kind="stable")
        normalized = out.data.reshape(-1)[order]
        assert np.all(np.diff(normalized) >= 0)

    def test_idempotent_bitwise(self, rng):
        data = rng.uniform(-7.0, 13.0, (4, 4, 4)).astype(np.float32)
        once = normalize_intensity(vol(data))
        twice = normalize_intensity(once)
        assert np.array_equal(once.data, twice.data)

    def test_geometry_untouched(self):
        v = vol(np.arange(8.0).reshape(2, 2, 2), spacing=(1.0, 2.0, 3.0))
        out = normalize_intensity(v)
        assert out.spacing == v.spacing
        assert out.affine is v.affine


class TestOneHot:
    def test_all_background(self):
        t = one_hot(np.zeros((2, 2, 2), dtype=np.uint8))
        assert np.array_equal(t[0], np.ones((2, 2, 2)))
        assert t[1:].sum() == 0

    def test_single_voxel_structure(self):
        labels = np.zeros((3, 3, 3), dtype=np.uint8)
        labels[1, 2, 0] = 14
        t = one_hot(labels)
        assert t[14].sum() == 1
        assert t[14, 1, 2, 0] == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            one_hot(np.full((1, 1, 1), 7, dtype=np.uint8), num_classes=4)

    def test_negative_label_rejected(self):
        # not wrapped round to class num_classes - 1 by the index
        with pytest.raises(ValueError, match="label -1 out of range"):
            one_hot(np.array([[[-1]]]))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sums_match_histogram(self, seed):
        labels = np.random.default_rng(seed).integers(
            0, NUM_CLASSES, (4, 4, 4), dtype=np.uint8
        )
        t = one_hot(labels)
        # brute-force histogram oracle
        expected = [int((labels == c).sum()) for c in range(NUM_CLASSES)]
        assert t.sum(axis=(1, 2, 3)).tolist() == expected
        assert np.array_equal(t.sum(axis=0), np.ones(labels.shape))


class TestStructureTable:
    def test_default_has_27_contiguous(self):
        assert len(STRUCTURE_NAMES) == NUM_CLASSES - 1 == 27
        assert len(set(STRUCTURE_NAMES)) == 27

    def test_left_right_symmetry_of_cortical_wm(self):
        assert STRUCTURE_NAMES[0].endswith("Left")
        assert STRUCTURE_NAMES[2].endswith("Right")
        assert STRUCTURE_NAMES[0].replace("Left", "Right") == STRUCTURE_NAMES[2]
