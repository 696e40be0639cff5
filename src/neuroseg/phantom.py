"""Deterministic multi-modality phantom generator with ground-truth labels.

Anatomy is a fixed set of ellipsoids (hemispheric white matter inside a grey
matter shell, lateral ventricles, putamen, hippocampus, brainstem) defined in
world millimetres and rasterized onto each modality's voxel grid, so the
anatomy of one subject is identical across modalities up to grid resolution.
Subjects vary by a small random affine (rotation/scale/translation) and by
per-structure radius jitter. Modalities differ in contrast profile, noise
level and voxel spacing; grey/white contrast is large for the T1-like
profile and buried in noise for the CT-like profile, with

    michelson(mprage) > michelson(flair) ~ michelson(dwi) > michelson(ct)

on the generated means. Everything is reproducible from (spec.seed,
subject_seed): ``generate_subject`` draws a subject's geometry once and
rasterizes it once per modality grid, and returns ``(labels, volumes)``, two
dicts keyed by modality that hold the ``LabelMap`` and the ``Volume`` on that
modality's own grid. Rasterization tests each structure only on the voxels of
its ``structure_bounds`` box, so its cost follows the structures' boxes, not
grid x structures.

A spec is rejected unless no structure can reach the grid border: for every
subject its jitter ranges allow, each structure stays strictly inside the
outermost voxel centres of every modality grid (half a voxel of the coarsest
grid when the grids tile the world extent), so the outermost voxel layer of
every label grid is background. ``structure_bounds`` gives the provably
conservative worst-case extent the check uses.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import NUM_CLASSES, LabelMap, Volume
from .io import ManifestRecord, write_manifest, write_volume
from .transforms import rotation_transform

# structure label indices used by the default phantom
WM_LEFT, GM_LEFT, WM_RIGHT, GM_RIGHT = 1, 2, 3, 4
VENT_LEFT, VENT_RIGHT = 5, 18
PUTAMEN_LEFT, PUTAMEN_RIGHT = 10, 23
BRAINSTEM = 14
HIPPO_LEFT, HIPPO_RIGHT = 15, 25


@dataclass(frozen=True)
class PaintStep:
    """One ellipsoid painted into the label grid; later steps overwrite."""

    label: int
    center: Tuple[float, float, float]  # fractions of world extent
    radii: Tuple[float, float, float]  # fractions of world extent


@dataclass(frozen=True)
class ModalityProfile:
    spacing: Tuple[float, float, float]
    contrast: Dict[int, Tuple[float, float]]  # label -> (mean, noise sigma)


@dataclass(frozen=True)
class PhantomSpec:
    """Anatomy, modality profiles and per-subject jitter ranges of a phantom
    family. Construction rejects dims that are not 3 positive voxel counts, a
    negative seed, labels outside 1..27, incomplete contrast tables, negative
    jitter ranges, and any structure whose worst-case jittered extent
    (``structure_bounds``) reaches an outermost voxel centre of some
    modality grid on some axis."""

    dims: Tuple[int, int, int]  # reference grid (first modality)
    structures: Tuple[PaintStep, ...]
    modalities: Dict[str, ModalityProfile]
    reference_modality: str
    radius_jitter: float = 0.06  # fractional, per structure
    rotation_jitter_deg: float = 3.0
    scale_jitter: float = 0.03
    translation_jitter_mm: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if len(self.dims) != 3 or not all(
            isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in self.dims
        ):
            raise ValueError(f"phantom dims must be 3 positive voxel counts, got {self.dims}")
        if self.seed < 0:
            raise ValueError(f"phantom seed must be non-negative, got {self.seed}")
        labels = {step.label for step in self.structures}
        if not labels or max(labels) >= NUM_CLASSES or min(labels) < 1:
            raise ValueError("phantom structure labels must lie in 1..27")
        for name, profile in self.modalities.items():
            missing = labels - set(profile.contrast) - {0}
            if 0 not in profile.contrast:
                missing.add(0)
            if missing:
                raise ValueError(
                    f"modality {name!r} contrast table missing labels {sorted(missing)}"
                )
        if self.reference_modality not in self.modalities:
            raise ValueError(f"unknown reference modality {self.reference_modality!r}")
        if not all(r >= 0 for r in (self.radius_jitter, self.rotation_jitter_deg,
                                    self.scale_jitter, self.translation_jitter_mm)):
            raise ValueError("phantom jitter ranges must be non-negative")  # NaN fails too
        extent = self.world_extent()
        spacings = [np.asarray(p.spacing, dtype=np.float64) for p in self.modalities.values()]
        dims = [np.asarray(self.modality_dims(name)) for name in self.modalities]
        lo_margin = np.max([0.5 * sp for sp in spacings], axis=0)
        hi_margin = extent - np.min([(n - 0.5) * sp for n, sp in zip(dims, spacings)], axis=0)
        for step in self.structures:
            lo, hi = structure_bounds(self, step)
            for side, clearance, margin in (
                ("low", lo, lo_margin),
                ("high", extent - hi, hi_margin),
            ):
                too_close = np.flatnonzero(clearance <= margin)
                if too_close.size:
                    axis = too_close[0]
                    raise ValueError(
                        f"structure {step.label} can reach the {side} grid border on axis "
                        f"{'xyz'[axis]}: its worst-case jittered extent comes within "
                        f"{clearance[axis]:.3f} mm of the border, but must stay more than "
                        f"{margin[axis]:.3f} mm inside it, past the outermost voxel "
                        f"centres of every modality grid"
                    )

    def world_extent(self) -> np.ndarray:
        ref = self.modalities[self.reference_modality]
        return np.asarray(self.dims, dtype=np.float64) * np.asarray(ref.spacing)

    def modality_dims(self, name: str) -> Tuple[int, int, int]:
        extent = self.world_extent()
        sp = np.asarray(self.modalities[name].spacing, dtype=np.float64)
        return tuple(int(round(e / s)) for e, s in zip(extent, sp))


def structure_bounds(spec: PhantomSpec, step: PaintStep) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis world-mm interval (lo, hi) that contains ``step``'s ellipsoid
    in every subject the spec's jitter ranges allow.

    A subject paints the ellipsoid at centre ``s R d + w + t`` with radii
    ``a = r f s``, where ``d`` is the structure's offset from the world centre
    ``w``, ``R = Rz Ry Rx`` has every angle in [-alpha, alpha], and s, t, f
    are the scale, translation and radius factors. With alpha <= 90 deg
    (wider ranges are clamped to 90, where the limits become the trivial
    +-1) every entry of R obeys

        |R_ij| <= sin(alpha) + sin(alpha)^2             (i != j)
        cos(alpha)^2 - sin(alpha)^3 <= R_ii <= 1

    so ``(R d)_i`` is bounded entrywise, and the rotated ellipsoid's
    half-width along axis i, ``sqrt(sum_j R_ij^2 a_j^2)``, is at most
    ``sqrt(a_i^2 + max|R_ij|^2 sum_{j != i} a_j^2)``. Each factor is bounded
    at its own extreme, which can only widen the interval.
    """
    alpha = np.deg2rad(min(spec.rotation_jitter_deg, 90.0))
    sin, cos = np.sin(alpha), np.cos(alpha)
    off_diag = min(1.0, sin + sin**2)
    diag_lo = cos**2 - sin**3
    extent = spec.world_extent()
    d = (np.asarray(step.center, dtype=np.float64) - 0.5) * extent
    cross = off_diag * (np.sum(np.abs(d)) - np.abs(d))
    rd_hi = np.maximum(d, diag_lo * d) + cross
    rd_lo = np.minimum(d, diag_lo * d) - cross
    s_lo, s_hi = 1.0 - spec.scale_jitter, 1.0 + spec.scale_jitter
    a = np.asarray(step.radii, dtype=np.float64) * extent * (1.0 + spec.radius_jitter) * s_hi
    a2 = a**2
    half = np.sqrt(a2 + off_diag**2 * (np.sum(a2) - a2))
    t = spec.translation_jitter_mm
    lo = extent / 2 + np.minimum(s_lo * rd_lo, s_hi * rd_lo) - t - half
    hi = extent / 2 + np.maximum(s_lo * rd_hi, s_hi * rd_hi) + t + half
    return lo, hi


_DEFAULT_STRUCTURES = (
    # outer grey shells first, white matter overwrites their interior
    PaintStep(GM_LEFT, (0.305, 0.50, 0.53), (0.185, 0.315, 0.270)),
    PaintStep(GM_RIGHT, (0.695, 0.50, 0.53), (0.185, 0.315, 0.270)),
    PaintStep(WM_LEFT, (0.305, 0.50, 0.53), (0.130, 0.245, 0.205)),
    PaintStep(WM_RIGHT, (0.695, 0.50, 0.53), (0.130, 0.245, 0.205)),
    # interior structures carve into white matter
    PaintStep(VENT_LEFT, (0.335, 0.46, 0.56), (0.060, 0.145, 0.105)),
    PaintStep(VENT_RIGHT, (0.665, 0.46, 0.56), (0.060, 0.145, 0.105)),
    PaintStep(PUTAMEN_LEFT, (0.38, 0.615, 0.50), (0.060, 0.090, 0.075)),
    PaintStep(PUTAMEN_RIGHT, (0.62, 0.615, 0.50), (0.060, 0.090, 0.075)),
    PaintStep(HIPPO_LEFT, (0.345, 0.355, 0.445), (0.058, 0.105, 0.068)),
    PaintStep(HIPPO_RIGHT, (0.655, 0.355, 0.445), (0.058, 0.105, 0.068)),
    PaintStep(BRAINSTEM, (0.50, 0.44, 0.27), (0.085, 0.100, 0.095)),
)

_DEFAULT_CONTRAST = {
    # label -> mean intensity per tissue, per modality; sigma is one noise
    # level per modality. Grey/white Michelson contrast: 0.281 (mprage),
    # 0.120 (flair), 0.118 (dwi), 0.018 (ct).
    "mprage": ({0: 2, "wm": 80, "gm": 45, "csf": 10, "put": 58, "hip": 52, "stem": 71}, 4.0),
    "flair": ({0: 2, "wm": 46, "gm": 58.5, "csf": 7, "put": 53, "hip": 55, "stem": 48}, 5.0),
    "dwi": ({0: 2, "wm": 45, "gm": 57, "csf": 16, "put": 50, "hip": 53, "stem": 47}, 5.0),
    "ct": ({0: 2, "wm": 40, "gm": 41.5, "csf": 11, "put": 43, "hip": 42, "stem": 40.5}, 8.0),
}

_TISSUE_OF = {
    0: 0,
    WM_LEFT: "wm",
    WM_RIGHT: "wm",
    GM_LEFT: "gm",
    GM_RIGHT: "gm",
    VENT_LEFT: "csf",
    VENT_RIGHT: "csf",
    PUTAMEN_LEFT: "put",
    PUTAMEN_RIGHT: "put",
    HIPPO_LEFT: "hip",
    HIPPO_RIGHT: "hip",
    BRAINSTEM: "stem",
}

_DEFAULT_SPACING = {
    "mprage": (1.0, 1.0, 1.0),
    "flair": (1.0, 1.0, 1.0),
    "dwi": (1.0, 1.0, 2.0),  # thick slices
    "ct": (1.0, 1.0, 1.0),
}


def default_phantom_spec(
    dims: Tuple[int, int, int] = (32, 32, 32),
    modalities: Sequence[str] = ("mprage", "flair", "dwi", "ct"),
    seed: int = 0,
    isotropic: bool = False,
) -> PhantomSpec:
    """Desk-scale four-modality phantom family; another modality name raises
    ValueError."""
    profiles = {}
    for name in modalities:
        if name not in _DEFAULT_CONTRAST:
            raise ValueError(f"unknown modality {name!r}, known: {', '.join(_DEFAULT_CONTRAST)}")
        means, sigma = _DEFAULT_CONTRAST[name]
        contrast = {
            label: (float(means[tissue]), sigma)
            for label, tissue in _TISSUE_OF.items()
        }
        spacing = (1.0, 1.0, 1.0) if isotropic else _DEFAULT_SPACING[name]
        profiles[name] = ModalityProfile(spacing=spacing, contrast=contrast)
    return PhantomSpec(
        dims=tuple(int(d) for d in dims),
        structures=_DEFAULT_STRUCTURES,
        modalities=profiles,
        reference_modality=modalities[0],
        seed=seed,
    )


@dataclass(frozen=True)
class _SubjectGeometry:
    rotation: np.ndarray  # (3, 3)
    scale: float
    translation: np.ndarray  # (3,)
    radius_factors: np.ndarray  # per structure


def _subject_geometry(spec: PhantomSpec, rng: np.random.Generator) -> _SubjectGeometry:
    angles_deg = rng.uniform(-spec.rotation_jitter_deg, spec.rotation_jitter_deg, 3)
    return _SubjectGeometry(
        rotation=rotation_transform(angles_deg).linear,
        scale=float(rng.uniform(1 - spec.scale_jitter, 1 + spec.scale_jitter)),
        translation=rng.uniform(-spec.translation_jitter_mm, spec.translation_jitter_mm, 3),
        radius_factors=rng.uniform(
            1 - spec.radius_jitter, 1 + spec.radius_jitter, len(spec.structures)
        ),
    )


def _rasterize(spec: PhantomSpec, modality: str, geom: _SubjectGeometry) -> np.ndarray:
    """The subject's label grid on ``modality``'s voxel centres. Each step
    is tested only inside its ``structure_bounds`` box, widened by one voxel
    spacing so that rounding at the surface cannot move a label; the test
    on each voxel is the same float expression as on the whole grid."""
    extent = spec.world_extent()
    world_center = extent / 2
    dims = spec.modality_dims(modality)
    sp = np.asarray(spec.modalities[modality].spacing)
    axes = [(np.arange(dims[d]) + 0.5) * sp[d] for d in range(3)]
    labels = np.zeros(dims, dtype=np.uint8)
    rot_inv = geom.rotation.T
    for step, rfac in zip(spec.structures, geom.radius_factors):
        lo, hi = structure_bounds(spec, step)
        box = tuple(
            slice(np.searchsorted(a, l - s), np.searchsorted(a, h + s, side="right"))
            for a, l, h, s in zip(axes, lo, hi, sp)
        )
        # the box's voxel-centre coordinates, each broadcast along its own axis
        x, y, z = (a[b] for a, b in zip(axes, box))
        x, y, z = x[:, None, None], y[None, :, None], z[None, None, :]
        center = np.asarray(step.center) * extent
        center = geom.scale * (geom.rotation @ (center - world_center)) + world_center + geom.translation
        radii = np.asarray(step.radii) * extent * rfac * geom.scale
        # inside test in the ellipsoid's own rotated frame
        dx = x - center[0]
        dy = y - center[1]
        dz = z - center[2]
        ux = rot_inv[0, 0] * dx + rot_inv[0, 1] * dy + rot_inv[0, 2] * dz
        uy = rot_inv[1, 0] * dx + rot_inv[1, 1] * dy + rot_inv[1, 2] * dz
        uz = rot_inv[2, 0] * dx + rot_inv[2, 1] * dy + rot_inv[2, 2] * dz
        inside = (
            (ux / radii[0]) ** 2 + (uy / radii[1]) ** 2 + (uz / radii[2]) ** 2
        ) <= 1.0
        labels[box][inside] = step.label
    return labels


def generate_subject(
    spec: PhantomSpec, subject_seed: int
) -> Tuple[Dict[str, LabelMap], Dict[str, Volume]]:
    """One subject: ground-truth labels and one intensity volume per
    modality, each on that modality's own grid, from a single geometry draw,
    so the anatomy is consistent across modalities and bitwise deterministic
    given (spec.seed, subject_seed)."""
    root = np.random.SeedSequence([spec.seed, int(subject_seed)])
    geom_seed, *noise_seeds = root.spawn(1 + len(spec.modalities))
    geom = _subject_geometry(spec, np.random.default_rng(geom_seed))
    labels, volumes = {}, {}
    for (name, profile), nseed in zip(spec.modalities.items(), noise_seeds):
        raster = _rasterize(spec, name, geom)
        labels[name] = LabelMap(raster, profile.spacing)
        means = np.zeros(NUM_CLASSES, dtype=np.float64)
        sigmas = np.zeros(NUM_CLASSES, dtype=np.float64)
        for label, (mean, sigma) in profile.contrast.items():
            means[label] = mean
            sigmas[label] = sigma
        rng = np.random.default_rng(nseed)
        data = means[raster]
        noise = rng.standard_normal(raster.shape)
        data = data + noise * sigmas[raster]
        volumes[name] = Volume(data, profile.spacing)  # its one float32 copy
    return labels, volumes


# -- corruption modes for the quality-control experiments --


def _swap_partner(volumes: Dict[str, Volume], modality: str) -> Optional[Volume]:
    """The first other modality's volume on ``modality``'s grid, or None."""
    dims = volumes[modality].dims
    return next((v for other, v in volumes.items() if other != modality and v.dims == dims), None)


# the corruption of each mode, by its manifest note: (kind, level)
_CORRUPTIONS = {
    "noise-0.3": ("noise", 0.3),
    "noise-0.5": ("noise", 0.5),
    "noise-0.7": ("noise", 0.7),
    "occlude-0.4": ("occlude", 0.4),
    "swap": ("swap", 0.0),
}


def _corrupt(
    volumes: Dict[str, Volume], modality: str, mode: Tuple[str, float], rng: np.random.Generator
) -> Volume:
    """``volumes[modality]`` under ``mode`` (kind, level): 'noise' adds
    Gaussian noise of sigma level * intensity range, 'occlude' zeroes a
    random cuboid spanning ``level`` of each axis, and 'swap' stands in the
    same-grid volume of another modality (wrong contrast), which must exist."""
    kind, level = mode
    v = volumes[modality]
    if kind == "noise":
        span = float(v.data.max() - v.data.min())
        data = (v.data + rng.standard_normal(v.dims) * (level * span)).astype(np.float32)
    elif kind == "occlude":
        data = np.array(v.data)
        slices = []
        for n in v.dims:
            w = max(1, int(round(level * n)))
            start = int(rng.integers(0, max(1, n - w + 1)))
            slices.append(slice(start, start + w))
        data[tuple(slices)] = 0.0
    else:
        data = _swap_partner(volumes, modality).data
    return Volume(data, v.spacing, v.affine)


def _split_counts(n: int, test_fraction: float, val_fraction: float) -> Tuple[int, int]:
    n_test = int(np.floor(n * test_fraction + 0.5))  # round half up
    n_val = int(np.floor(n * val_fraction + 0.5))
    if n_test + n_val > n:
        raise ValueError(f"{n_test} test and {n_val} validation subjects exceed the {n} subjects")
    return n_test, n_val


def generate_dataset(
    spec: PhantomSpec,
    n_subjects: int,
    out_dir,
    test_fraction: float = 0.1,
    validation_fraction: float = 0.0,
    modalities: Optional[Sequence[str]] = None,
    n_corrupt: int = 0,
) -> Path:
    """Write MVOX volume/label pairs plus a manifest with train/validation/
    test split tags; the last ``n_corrupt`` test subjects get corrupted
    volumes (labels stay truthful) and a corruption note in the manifest.
    The corrupted subjects cycle through the five modes of ``_CORRUPTIONS``
    by subject index; 'swap' on a modality with no same-grid partner (DWI's
    grid) applies, and notes, 'noise-0.5'. A negative ``n_corrupt``, a
    fraction or fraction sum outside [0, 1], or split counts that round past
    ``n_subjects`` are rejected before anything is written. Returns the
    manifest path.
    """
    if n_subjects < 5:
        raise ValueError(f"need at least 5 subjects, got {n_subjects}")
    for name, fraction in (
        ("test", test_fraction),
        ("validation", validation_fraction),
        ("test + validation", test_fraction + validation_fraction),
    ):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"{name} fraction must lie in [0, 1], got {fraction}")
    if n_corrupt < 0:
        raise ValueError(f"cannot corrupt a negative number of subjects, got {n_corrupt}")
    modalities = list(modalities or spec.modalities)
    n_test, n_val = _split_counts(n_subjects, test_fraction, validation_fraction)
    if n_corrupt > n_test:
        raise ValueError(f"cannot corrupt {n_corrupt} of {n_test} test subjects")
    rng_split = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xC0FFEE]))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    order = rng_split.permutation(n_subjects)
    split_of = {}
    for pos, subject in enumerate(order):
        if pos < n_test:
            split_of[int(subject)] = "test"
        elif pos < n_test + n_val:
            split_of[int(subject)] = "validation"
        else:
            split_of[int(subject)] = "train"
    corrupt_subjects = {int(s) for s in order[max(0, n_test - n_corrupt) : n_test]}

    records = []
    for subject in range(n_subjects):
        labels, volumes = generate_subject(spec, subject)
        split = split_of[subject]
        for modality in modalities:
            note = ""
            vol = volumes[modality]
            if subject in corrupt_subjects:
                mode = list(_CORRUPTIONS)[subject % len(_CORRUPTIONS)]
                kind_level = _CORRUPTIONS[mode]
                rng = np.random.default_rng(
                    np.random.SeedSequence([spec.seed, subject, 0xBAD])
                )
                if mode == "swap" and _swap_partner(volumes, modality) is None:
                    mode, kind_level = "noise-0.5", ("noise", 0.5)
                vol = _corrupt(volumes, modality, kind_level, rng)
                note = f"corrupt:{mode}"
            vol_name = f"subject{subject:03d}_{modality}.mvx"
            lab_name = f"subject{subject:03d}_{modality}_labels.mvx"
            write_volume(vol, out_dir / vol_name)
            write_volume(labels[modality], out_dir / lab_name)
            records.append(
                ManifestRecord(
                    volume_path=Path(vol_name),
                    labels_path=Path(lab_name),
                    modality=modality,
                    split=split,
                    note=note,
                )
            )
    manifest_path = out_dir / "manifest.csv"
    write_manifest(records, manifest_path)
    return manifest_path


# the jitter ranges and seed: scalar fields with defaults, which a config may
# omit, each with the type of its default
_SCALAR_FIELDS = {f.name: type(f.default) for f in fields(PhantomSpec) if f.default is not MISSING}


def _json_number(value, name, kind):
    """``value``, the config entry ``name``, as ``kind``: a JSON number,
    whole for an int; a bool is not a number."""
    whole = kind is int
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or whole and isinstance(value, float) and not value.is_integer()):
        expected = "an integer" if whole else "a number"
        raise ValueError(f"{name!r}: expected {expected}, got {json.dumps(value)}")
    return kind(value)


def _json_numbers(values, name, count, kind=float):
    """``values``, the config entry ``name``, as a tuple of ``kind``: a JSON
    list of ``count`` numbers, each read by ``_json_number``."""
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"{name!r}: expected a list of {count} numbers, got {json.dumps(values)}")
    return tuple(_json_number(v, name, kind) for v in values)


def _json_label(key, table):
    """``key`` of the config entry ``table`` as a label: only the decimal
    text of an integer, as ``save_phantom_spec`` writes it."""
    if key.removeprefix("-").isdecimal() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"{f'{table}.{key}'!r}: expected an integer label as its key")


def load_phantom_spec(path) -> PhantomSpec:
    """Read a PhantomSpec from its JSON config form. A file that is not JSON,
    a missing key, an entry of the wrong type or a spec its own checks reject
    raises ValueError naming the file. Every number is read by
    ``_json_number``, in a list too: dims are a list of 3 integers, a centre,
    radii and a spacing lists of 3 numbers, a contrast entry a list of 2
    (mean, sigma) under the label it paints, written as a decimal integer
    (``_json_label``)."""
    try:
        cfg = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"phantom spec {path}: not JSON ({exc})") from None
    try:
        structures = tuple(
            PaintStep(
                _json_number(s["label"], "label", int),
                _json_numbers(s["center"], f"structures[{i}].center", 3),
                _json_numbers(s["radii"], f"structures[{i}].radii", 3),
            )
            for i, s in enumerate(cfg["structures"])
        )
        modalities = {
            name: ModalityProfile(
                spacing=_json_numbers(p["spacing"], f"modalities.{name}.spacing", 3),
                contrast={
                    _json_label(k, f"modalities.{name}.contrast"): _json_numbers(
                        v, f"modalities.{name}.contrast.{k}", 2
                    )
                    for k, v in p["contrast"].items()
                },
            )
            for name, p in cfg["modalities"].items()
        }
        kwargs = dict(
            dims=_json_numbers(cfg["dims"], "dims", 3, int),
            structures=structures,
            modalities=modalities,
            reference_modality=cfg["reference_modality"],
        )
        for name, kind in _SCALAR_FIELDS.items():
            if name in cfg:  # one the config omits keeps the PhantomSpec default
                kwargs[name] = _json_number(cfg[name], name, kind)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(
            f"phantom spec {path}: missing or mistyped entry ({type(exc).__name__}: {exc})"
        ) from None
    try:
        return PhantomSpec(**kwargs)
    except ValueError as exc:
        raise ValueError(f"phantom spec {path}: {exc}") from None


def save_phantom_spec(spec: PhantomSpec, path) -> None:
    cfg = {
        "dims": list(spec.dims),
        "structures": [
            {"label": s.label, "center": list(s.center), "radii": list(s.radii)}
            for s in spec.structures
        ],
        "modalities": {
            name: {
                "spacing": list(p.spacing),
                "contrast": {str(k): list(v) for k, v in p.contrast.items()},
            }
            for name, p in spec.modalities.items()
        },
        "reference_modality": spec.reference_modality,
        **{name: getattr(spec, name) for name in _SCALAR_FIELDS},
    }
    Path(path).write_text(json.dumps(cfg, indent=2, sort_keys=True))
