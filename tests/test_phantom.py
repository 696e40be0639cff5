import dataclasses
import functools
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from neuroseg import phantom
from neuroseg.io import read_manifest, read_volume
from neuroseg.phantom import (
    _CORRUPTIONS,
    GM_LEFT,
    PaintStep,
    PhantomSpec,
    _subject_geometry,
    default_phantom_spec,
    generate_dataset,
    generate_subject,
    load_phantom_spec,
    save_phantom_spec,
    structure_bounds,
)
from neuroseg.transforms import rotation_transform

ALL_MODALITIES = ("mprage", "flair", "dwi", "ct")


def _exact_box(spec, step, rotation, scale, radius_factor, translation):
    """Axis-aligned box of one painted ellipsoid for one subject geometry,
    computed the way the rasterizer places it."""
    extent = spec.world_extent()
    offset = np.asarray(step.center) * extent - extent / 2
    center = scale * (rotation @ offset) + extent / 2 + translation
    radii = np.asarray(step.radii) * extent * radius_factor * scale
    half = np.sqrt((rotation**2) @ radii**2)
    return center - half, center + half


def _corner_boxes(spec, step, n_angles=5):
    """Exact boxes over a grid of rotation angles and the extremes of the
    scale and radius jitter; translation is additive per axis, so -T / +T
    give the extremes of the lower / upper edge."""
    angles = np.linspace(-spec.rotation_jitter_deg, spec.rotation_jitter_deg, n_angles)
    t = np.full(3, spec.translation_jitter_mm)
    for deg in itertools.product(angles, repeat=3):
        rotation = rotation_transform(deg).linear
        for scale in (1 - spec.scale_jitter, 1 + spec.scale_jitter):
            for rfac in (1 - spec.radius_jitter, 1 + spec.radius_jitter):
                lo, _ = _exact_box(spec, step, rotation, scale, rfac, -t)
                _, hi = _exact_box(spec, step, rotation, scale, rfac, t)
                yield lo, hi


def _interior_spec():
    """Interior structures only, with jitter ranges far wider than the
    default, so the rotation terms of the bound carry weight."""
    base = default_phantom_spec(dims=(32, 32, 32), modalities=("mprage",))
    return dataclasses.replace(
        base,
        structures=base.structures[4:],
        rotation_jitter_deg=20.0,
        scale_jitter=0.05,
        radius_jitter=0.1,
        translation_jitter_mm=1.5,
    )


def _axis_points_spec():
    """Near-point structures offset from the centre along one axis each,
    under a 30 degree rotation range: their extent is set by the diagonal
    entries of the rotation, whose lower limit is cos^2 - sin^3, not cos^2."""
    base = default_phantom_spec(dims=(32, 32, 32), modalities=("mprage",))
    labels = (1, 2, 3, 4, 5, 18)
    centers = [
        tuple(0.5 + sign * 0.3 * (d == axis) for d in range(3))
        for axis in range(3)
        for sign in (-1, 1)
    ]
    return dataclasses.replace(
        base,
        structures=tuple(PaintStep(l, c, (0.01, 0.01, 0.01)) for l, c in zip(labels, centers)),
        rotation_jitter_deg=30.0,
    )


class TestBorderRule:
    @pytest.mark.parametrize("n", [16, 24, 32, 64, 128])
    @pytest.mark.parametrize("modalities", [("mprage",), ALL_MODALITIES])
    def test_default_spec_constructs(self, n, modalities):
        spec = default_phantom_spec(dims=(n, n, n), modalities=modalities)
        assert spec.dims == (n, n, n)

    def test_moved_structure_rejected(self):
        spec = default_phantom_spec(dims=(16, 16, 16))
        gm = spec.structures[0]
        assert gm.label == GM_LEFT
        # 0.3 mm towards the x=0 border: some corner subject's grey-matter
        # shell now comes within half a voxel of the border
        moved = PaintStep(gm.label, (gm.center[0] - 0.3 / 16, *gm.center[1:]), gm.radii)
        assert min(lo[0] for lo, _ in _corner_boxes(spec, moved)) < 0.5
        with pytest.raises(ValueError, match=r"structure 2 .* low grid border on axis x"):
            dataclasses.replace(spec, structures=(moved,) + spec.structures[1:])

    def test_translation_only_rule_is_exact(self):
        # Without rotation, scale or radius jitter the bound is exact: the
        # grey-matter shell sits 1.92 mm from the x border, so it keeps the
        # half-voxel margin under a 1.40 mm shift range and loses it at 1.45.
        still = dataclasses.replace(
            default_phantom_spec(dims=(16, 16, 16)),
            radius_jitter=0.0,
            rotation_jitter_deg=0.0,
            scale_jitter=0.0,
            translation_jitter_mm=1.40,
        )
        lo, _ = structure_bounds(still, still.structures[0])
        assert lo[0] == pytest.approx(0.52)
        with pytest.raises(ValueError, match=r"axis x: .* within 0\.470 mm"):
            dataclasses.replace(still, translation_jitter_mm=1.45)
        # a shift range wider than the clearance carries it past the border
        with pytest.raises(ValueError, match="axis x"):
            dataclasses.replace(still, translation_jitter_mm=3.0)

    def test_negative_jitter_rejected(self):
        spec = default_phantom_spec(dims=(32, 32, 32))
        with pytest.raises(ValueError, match="non-negative"):
            dataclasses.replace(spec, scale_jitter=-0.01)

    def test_nan_jitter_rejected(self):
        # NaN passes every < comparison, so it must fail a >= 0 one
        spec = default_phantom_spec(dims=(32, 32, 32))
        for name in ("radius_jitter", "rotation_jitter_deg", "scale_jitter",
                     "translation_jitter_mm"):
            with pytest.raises(ValueError, match="non-negative"):
                dataclasses.replace(spec, **{name: float("nan")})

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: default_phantom_spec(dims=(16, 16, 16), modalities=ALL_MODALITIES),
            _interior_spec,
            _axis_points_spec,
        ],
        ids=["default-16", "interior-wide-jitter", "axis-points-30deg"],
    )
    def test_bound_contains_exact_boxes(self, make_spec):
        spec = make_spec()
        for step in spec.structures:
            lo_bound, hi_bound = structure_bounds(spec, step)
            for lo, hi in _corner_boxes(spec, step):
                assert np.all(lo_bound <= lo)
                assert np.all(hi <= hi_bound)

    def test_outermost_layer_is_background(self):
        for seed in (0, 21):
            spec = default_phantom_spec(dims=(16, 16, 16), modalities=ALL_MODALITIES, seed=seed)
            for subject in range(20):
                for label_map in generate_subject(spec, subject)[0].values():
                    for axis in range(3):
                        assert not np.take(label_map.labels, 0, axis=axis).any()
                        assert not np.take(label_map.labels, -1, axis=axis).any()


def _meshgrid_rasterize(spec, modality, geom):
    """Reference rasterizer: the ellipsoid test on three full coordinate
    grids, in the same float operation order as ``phantom._rasterize``."""
    extent = spec.world_extent()
    world_center = extent / 2
    dims = spec.modality_dims(modality)
    sp = np.asarray(spec.modalities[modality].spacing)
    ax = [(np.arange(dims[d]) + 0.5) * sp[d] for d in range(3)]
    grids = np.meshgrid(*ax, indexing="ij")
    labels = np.zeros(dims, dtype=np.uint8)
    rot_inv = geom.rotation.T
    for step, rfac in zip(spec.structures, geom.radius_factors):
        center = np.asarray(step.center) * extent
        center = geom.scale * (geom.rotation @ (center - world_center)) + world_center + geom.translation
        radii = np.asarray(step.radii) * extent * rfac * geom.scale
        dx = grids[0] - center[0]
        dy = grids[1] - center[1]
        dz = grids[2] - center[2]
        ux = rot_inv[0, 0] * dx + rot_inv[0, 1] * dy + rot_inv[0, 2] * dz
        uy = rot_inv[1, 0] * dx + rot_inv[1, 1] * dy + rot_inv[1, 2] * dz
        uz = rot_inv[2, 0] * dx + rot_inv[2, 1] * dy + rot_inv[2, 2] * dz
        inside = (
            (ux / radii[0]) ** 2 + (uy / radii[1]) ** 2 + (uz / radii[2]) ** 2
        ) <= 1.0
        labels[inside] = step.label
    return labels


def _reference_geometry(spec, subject):
    """The subject geometry: drawn from the first child of the subject's seed."""
    root = np.random.SeedSequence([spec.seed, subject])
    return _subject_geometry(spec, np.random.default_rng(root.spawn(1)[0]))


class TestSubjectLabels:
    @pytest.mark.parametrize("seed", [0, 3, 21])
    @pytest.mark.parametrize(
        "make_spec",
        [
            *(
                functools.partial(default_phantom_spec, dims=(edge,) * 3, modalities=ALL_MODALITIES)
                for edge in (16, 32, 48)
            ),
            _interior_spec,
            _axis_points_spec,
        ],
        ids=["16", "32", "48", "interior-wide-jitter", "axis-points-30deg"],
    )
    def test_labels_equal_meshgrid_reference_bitwise(self, make_spec, seed):
        # each structure is painted only inside its box: the wide-jitter
        # specs rotate and scale the boxes furthest from their centres
        spec = dataclasses.replace(make_spec(), seed=seed)
        for subject in range(3):
            labels, volumes = generate_subject(spec, subject)
            assert list(labels) == list(spec.modalities)
            geom = _reference_geometry(spec, subject)
            for modality in spec.modalities:
                expected = _meshgrid_rasterize(spec, modality, geom)
                assert np.array_equal(labels[modality].labels, expected)
                assert labels[modality].spacing == spec.modalities[modality].spacing
                assert labels[modality].dims == volumes[modality].dims

    def test_rasterize_peak_is_below_two_fields(self):
        # one float64 field of the grid is 2 MiB at 64^3; testing every
        # structure on the whole grid peaked at 5.25 fields, testing it in its
        # box peaks at 1.43
        spec = default_phantom_spec(dims=(64, 64, 64), modalities=("mprage",))
        geom = _reference_geometry(spec, 1)
        tracemalloc.start()
        try:
            phantom._rasterize(spec, "mprage", geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 64**3 * 8

    def test_dataset_rasterizes_each_grid_once(self, tmp_path, monkeypatch):
        calls = []
        rasterize = phantom._rasterize

        def counting(spec, modality, geom):
            calls.append(modality)
            return rasterize(spec, modality, geom)

        monkeypatch.setattr(phantom, "_rasterize", counting)
        spec = default_phantom_spec(dims=(16, 16, 16), modalities=ALL_MODALITIES, seed=4)
        generate_dataset(spec, 5, tmp_path)
        assert sorted(calls) == sorted(ALL_MODALITIES * 5)

    def test_label_files_are_the_subject_labels(self, tmp_path):
        spec = default_phantom_spec(dims=(16, 16, 16), modalities=ALL_MODALITIES, seed=4)
        records = read_manifest(
            generate_dataset(spec, 5, tmp_path, test_fraction=0.2, n_corrupt=1)
        )
        subject_labels = [generate_subject(spec, subject)[0] for subject in range(5)]
        assert len(records) == 5 * len(ALL_MODALITIES)
        for rec in records:
            subject = int(rec.labels_path.name[len("subject"):][:3])
            expected = subject_labels[subject][rec.modality]
            written = read_volume(rec.labels_path)
            assert np.array_equal(written.labels, expected.labels)
            assert written.spacing == expected.spacing


class TestSpecConfig:
    def test_omitted_jitter_fields_take_dataclass_defaults(self, tmp_path):
        spec = default_phantom_spec(dims=(32, 32, 32))
        path = tmp_path / "spec.json"
        save_phantom_spec(spec, path)
        cfg = json.loads(path.read_text())
        for name in ("radius_jitter", "rotation_jitter_deg", "scale_jitter",
                     "translation_jitter_mm", "seed"):
            del cfg[name]
        path.write_text(json.dumps(cfg))
        assert load_phantom_spec(path) == spec
        assert load_phantom_spec(path).radius_jitter == PhantomSpec.radius_jitter

    def test_round_trip(self, tmp_path):
        spec = dataclasses.replace(default_phantom_spec(dims=(24, 24, 24)), seed=7)
        path = tmp_path / "spec.json"
        save_phantom_spec(spec, path)
        assert load_phantom_spec(path) == spec

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: cfg.pop("structures"),
            lambda cfg: cfg["structures"][0].pop("radii"),
            lambda cfg: cfg.update(modalities=["mprage"]),
            lambda cfg: cfg["modalities"]["mprage"].update(contrast=[[0, 1]]),
            lambda cfg: cfg["structures"].append(5),
            lambda cfg: cfg.update(seed="x"),
            lambda cfg: cfg.update(scale_jitter=[0.1]),
            lambda cfg: cfg["structures"][0].update(center=[0.5, 0.5]),
            lambda cfg: cfg["modalities"]["mprage"]["contrast"].update({"0": [2.0]}),
            lambda cfg: cfg.update(dims=[True, 16, 16]),
            lambda cfg: cfg.update(dims=[16.5, 16, 16]),
            lambda cfg: cfg.update(dims=[16, 16]),
        ],
        ids=["no-structures", "no-radii", "modality-list", "contrast-list", "int-structure",
             "str-seed", "list-jitter", "short-center", "short-contrast", "bool-dim",
             "fractional-dim", "two-dims"],
    )
    def test_malformed_config_names_the_file(self, tmp_path, edit):
        path = tmp_path / "spec.json"
        save_phantom_spec(default_phantom_spec(dims=(16, 16, 16)), path)
        cfg = json.loads(path.read_text())
        edit(cfg)
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match="spec.json: missing or mistyped entry"):
            load_phantom_spec(path)

    def test_contrast_key_is_the_decimal_text_of_a_label(self, tmp_path):
        path = tmp_path / "spec.json"
        save_phantom_spec(default_phantom_spec(dims=(16, 16, 16)), path)
        cfg = json.loads(path.read_text())
        for key in ("x", " 14 "):
            edited = json.loads(json.dumps(cfg))
            contrast = edited["modalities"]["mprage"]["contrast"]
            contrast[key] = contrast.pop("14")
            path.write_text(json.dumps(edited))
            entry = re.escape(repr(f"modalities.mprage.contrast.{key}"))
            with pytest.raises(ValueError, match=f"spec.json: .*{entry}: expected an integer"):
                load_phantom_spec(path)

    def test_not_json_names_the_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="spec.json: not JSON"):
            load_phantom_spec(path)

    def test_scalars_are_cast(self, tmp_path):
        spec = default_phantom_spec(dims=(16, 16, 16))
        path = tmp_path / "spec.json"
        save_phantom_spec(spec, path)
        cfg = json.loads(path.read_text())
        cfg.update(seed=0.0, rotation_jitter_deg=3, dims=[16.0, 16, 16])
        path.write_text(json.dumps(cfg))
        loaded = load_phantom_spec(path)
        assert loaded == spec
        assert type(loaded.seed) is int and type(loaded.rotation_jitter_deg) is float
        assert all(type(d) is int for d in loaded.dims)

    def test_unknown_modality_is_named(self):
        with pytest.raises(ValueError, match="unknown modality 'pet', known: mprage, flair"):
            default_phantom_spec(modalities=("mprage", "pet"))

    def test_spec_errors_pass_through(self, tmp_path):
        path = tmp_path / "spec.json"
        save_phantom_spec(default_phantom_spec(dims=(16, 16, 16)), path)
        cfg = json.loads(path.read_text())
        cfg["reference_modality"] = "pet"
        path.write_text(json.dumps(cfg))
        # the spec's own errors, named by the file
        want = f"^phantom spec {re.escape(str(path))}: unknown reference modality 'pet'$"
        with pytest.raises(ValueError, match=want):
            load_phantom_spec(path)


def _dataset(out_dir, modalities=("mprage", "ct"), n_corrupt=0):
    """Five isotropic 16^3 subjects, one of them in the test split."""
    spec = default_phantom_spec(dims=(16, 16, 16), modalities=modalities, isotropic=True, seed=4)
    manifest = generate_dataset(spec, 5, out_dir, test_fraction=0.2, n_corrupt=n_corrupt)
    return read_manifest(manifest)


def _only_mode(monkeypatch, mode):
    """Make ``mode`` the one corruption mode of the datasets written next."""
    monkeypatch.setattr(phantom, "_CORRUPTIONS", {mode: _CORRUPTIONS[mode]})


class TestDataset:
    def test_same_spec_and_seed_write_identical_bytes(self, tmp_path):
        _dataset(tmp_path / "a", n_corrupt=1)
        _dataset(tmp_path / "b", n_corrupt=1)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert "manifest.csv" in names and len(names) == 1 + 5 * 2 * 2
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        return _dataset(tmp_path_factory.mktemp("clean"))

    @pytest.mark.parametrize("mode", _CORRUPTIONS)
    def test_each_mode_is_applied_and_recorded(self, mode, clean, tmp_path, monkeypatch):
        _only_mode(monkeypatch, mode)
        records = _dataset(tmp_path, n_corrupt=1)
        for rec, base in zip(records, clean):
            assert (rec.split, rec.modality) == (base.split, base.modality)
            vol = read_volume(rec.volume_path).data
            if rec.split != "test":
                assert rec.note == ""
                assert np.array_equal(vol, read_volume(base.volume_path).data)
                continue
            assert rec.note == f"corrupt:{mode}"
            assert not np.array_equal(vol, read_volume(base.volume_path).data)
            assert np.array_equal(  # the labels stay truthful
                read_volume(rec.labels_path).labels, read_volume(base.labels_path).labels
            )
            if mode == "swap":  # the other modality's clean volume of the subject
                (partner,) = [
                    r for r in clean
                    if r.split == "test" and r.modality != rec.modality
                ]
                assert np.array_equal(vol, read_volume(partner.volume_path).data)

    def test_swap_without_a_partner_falls_back_to_noise(self, tmp_path, monkeypatch):
        clean = _dataset(tmp_path / "clean", modalities=("mprage",))
        _only_mode(monkeypatch, "swap")
        records = _dataset(tmp_path / "swap", modalities=("mprage",), n_corrupt=1)
        _only_mode(monkeypatch, "noise-0.5")
        noisy = _dataset(tmp_path / "noise", modalities=("mprage",), n_corrupt=1)
        (rec,) = [r for r in records if r.split == "test"]
        (base,) = [r for r in clean if r.split == "test"]
        (expected,) = [r for r in noisy if r.split == "test"]
        assert rec.note == "corrupt:noise-0.5"
        vol = read_volume(rec.volume_path).data
        assert not np.array_equal(vol, read_volume(base.volume_path).data)
        assert np.array_equal(vol, read_volume(expected.volume_path).data)

    def test_more_corrupt_than_test_subjects_rejected_before_writing(self, tmp_path):
        spec = default_phantom_spec(dims=(16, 16, 16), modalities=("mprage",), seed=4)
        with pytest.raises(ValueError, match="cannot corrupt 3 of 1 test subjects"):
            generate_dataset(spec, 5, tmp_path / "out", n_corrupt=3)
        assert not (tmp_path / "out").exists()

    def test_bad_seed_rejected_before_writing(self, tmp_path):
        spec = default_phantom_spec(dims=(16, 16, 16), modalities=("mprage",))
        with pytest.raises(ValueError, match="non-negative"):
            generate_dataset(dataclasses.replace(spec, seed=-1), 5, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_an_all_test_split_is_allowed(self, tmp_path):
        spec = default_phantom_spec(dims=(16, 16, 16), modalities=("mprage",), seed=4)
        records = read_manifest(generate_dataset(spec, 5, tmp_path / "out", test_fraction=1.0))
        assert [r.split for r in records] == ["test"] * 5

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"test_fraction": float("nan")}, "test fraction must lie in"),
            ({"validation_fraction": 1.01}, "validation fraction must lie in"),
            (
                {"test_fraction": 0.5, "validation_fraction": 0.75},
                r"test \+ validation fraction must lie in \[0, 1\], got 1.25",
            ),
            ({"n_corrupt": -2}, "negative number of subjects, got -2"),
            (
                {"test_fraction": 0.5, "validation_fraction": 0.5},
                "^3 test and 3 validation subjects exceed the 5 subjects$",
            ),
        ],
        ids=["nan", "val-past-1", "sum", "corrupt", "counts-past-n"],
    )
    def test_bad_split_rejected_before_writing(self, tmp_path, kwargs, match):
        spec = default_phantom_spec(dims=(16, 16, 16), modalities=("mprage",), seed=4)
        with pytest.raises(ValueError, match=match):
            generate_dataset(spec, 5, tmp_path / "out", **kwargs)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "dims", [(16, 16), (16, 16, 16, 16), (16, -16, 16), (16.0, 16, 16), (True, 16, 16)]
    )
    def test_dims_must_be_three_positive_counts(self, dims):
        with pytest.raises(ValueError, match="3 positive voxel counts"):
            dataclasses.replace(default_phantom_spec(dims=(16, 16, 16)), dims=dims)
