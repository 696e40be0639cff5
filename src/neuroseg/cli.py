"""segctl: command-line entry point wiring the full pipeline.

Subcommands: ``phantoms`` (synthetic datasets), ``train`` (fit a model from a
manifest), ``segment`` (register -> resample -> normalize -> segment -> map
back), ``evaluate`` (Dice metrics plus the Dice/CV scatter) and
``uncertainty`` (MC-dropout QC on one volume).

``evaluate`` and ``uncertainty`` score scans on their own grid, without
registration: a scan whose grid 2^depth does not divide exits 1 before
anything is written. Only ``segment`` registers and resamples its input,
onto the model's ``input_dims``, and it registers only as finely as one
voxel of that grid resolves (see ``cmd_segment``). ``evaluate`` scores only
the test records of the modality setting, which also picks the CV threshold.

``segment``, ``evaluate`` and ``uncertainty`` share one MC quality check,
which needs at least 2 MC samples: fewer is an error (exit 1) before the
model is loaded. ``--mc off`` (``segment`` and ``evaluate`` only) runs one
dropout-free forward and no check; ``uncertainty`` always samples. They load
the checkpoint before any input, so one the loader rejects as not a segctl
model (e.g. 4 classes, ``unet.load_checkpoint``) exits 1 before any is read.

Their settings are ``--modality``, ``--mc`` (not ``uncertainty``),
``--mc-samples``, ``--dropout-rate``, ``--cv-threshold`` and ``--seed`` (a
non-negative integer, as for ``train``), each from its flag, else the same
key in the ``--config`` JSON file, else its default. A file entry must be a
JSON number or string the flag would take as its text; any other entry exits
1 before the model is loaded.

Exit codes: 0 success/QC pass, 2 QC warn, 1 error, usage errors included.
Every run echoes its resolved settings into ``run_record.json`` in the
output directory. ``segment``, ``evaluate`` and ``uncertainty`` records hold
``checkpoint``, ``modality``, ``mc``, ``mc_samples``, ``dropout_rate``,
``cv_threshold``, ``seed``, ``mc_workers`` (the MC passes run at once, None
with ``--mc off``), ``blas_pinned`` (OpenBLAS held to one thread while the
network ran), both read from the network's parallel region, and the wall
seconds of each stage and in all (``timings``, ``total_s``). ``segment``
and ``uncertainty`` add the QC ``cv`` and ``verdict``, and ``segment`` the
structure voxel counts of each MC pass (``mc_volumes``). ``train`` records
give their parallel region's ``workers`` and ``blas_pinned``. All but
``phantoms`` records give the process's high-water resident memory in MB
(``peak_rss_mb``, from ``ru_maxrss``) over the whole process lifetime, so a
caller that runs several commands in one process reads a cumulative value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from . import transforms as tf
from .core import LabelMap, Volume, normalize_intensity
from .inference import (
    CV_THRESHOLDS,
    DEFAULT_MC_SAMPLES,
    hard_segment,
    mc_segment,
    uncertainty,
    write_uncertainty_report,
)
from .io import read_as, read_manifest, write_volume
from .metrics import CorrelationError, dice_report, pearson, write_dice_rows
from .phantom import default_phantom_spec, generate_dataset, load_phantom_spec, save_phantom_spec
from .train import TrainConfig, train
from .unet import ModelSpec, UNet3D, load_checkpoint, save_checkpoint

MODALITIES = ("mprage", "flair", "dwi", "ct")


@dataclass
class PipelineConfig:
    """Resolved settings for one segmentation run."""

    modality: str
    reference: Optional[Path]
    checkpoint: Path
    out_dir: Path
    seed: int
    mc: bool
    mc_samples: int
    dropout_rate: Optional[float]  # None: the rate the checkpoint was trained with
    cv_threshold: float

    def __post_init__(self):
        if self.mc and self.mc_samples < 2:
            raise ValueError(f"MC QC needs at least 2 MC samples, got {self.mc_samples}")
        for path in (self.reference, self.checkpoint):
            if path is not None and not Path(path).exists():
                raise FileNotFoundError(f"missing input: {path}")


def _write_run_record(out_dir: Path, command: str, **resolved) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"command": command, **resolved}  # a Path is written as its text
    text = json.dumps(record, indent=2, sort_keys=True, default=os.fspath)
    (out_dir / "run_record.json").write_text(text)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _StageClock:
    """Wall seconds of consecutive pipeline stages, and of the whole run."""

    def __init__(self):
        self._start = self._last = time.perf_counter()
        self._seconds: Dict[str, float] = {}

    def lap(self, stage: str) -> None:
        """End ``stage``: it ran from the previous lap (or the start) to now."""
        now = time.perf_counter()
        self._seconds[f"{stage}_s"] = now - self._last
        self._last = now

    def timings(self) -> Dict[str, float]:
        """Each stage's seconds, and ``total_s`` from the start to now."""
        return {**self._seconds, "total_s": time.perf_counter() - self._start}


def _seed(text) -> int:
    """A ``--seed`` value: a non-negative integer, as numpy's seeding takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# The settings of segment, evaluate and uncertainty: flag type, choices and
# default. A None default is the checkpoint's rate or the modality's threshold.
_SETTINGS = {
    "modality": (str, MODALITIES, "mprage"),
    "mc": (str, ("on", "off"), "on"),
    "mc-samples": (int, None, DEFAULT_MC_SAMPLES),
    "dropout-rate": (float, None, None),
    "cv-threshold": (float, None, None),
    "seed": (_seed, None, 0),
}


def _read_config(path, settings) -> Dict:
    """The entries of a ``--config`` file, each one of ``settings`` and read
    as its flag reads its text: a JSON number or string, converted with the
    flag's type and checked against its choices."""
    try:
        entries = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"config {path}: not JSON ({exc})") from None
    if not isinstance(entries, dict):
        raise ValueError(f"config {path}: expected a JSON object of settings")
    for key, value in entries.items():
        try:
            if key not in settings:
                raise ValueError(f"not one of the settings {', '.join(settings)}")
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise TypeError(f"expected a JSON number or string, got {json.dumps(value)}")
            kind, choices, _ = _SETTINGS[key]
            entries[key] = kind(str(value))
            if choices and entries[key] not in choices:
                raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config {path}: setting {key!r}: {exc}") from None
    return entries


def _pipeline_config(args) -> PipelineConfig:
    """Each of the command's settings flags takes its value from the flag,
    else the ``--config`` file, else its default. A file that is not one JSON
    object of such settings raises ValueError naming the file (and key)."""
    settings = [key for key in _SETTINGS if hasattr(args, key.replace("-", "_"))]
    from_file = _read_config(args.config, settings) if args.config else {}
    value = {}
    for key in settings:
        flag = getattr(args, key.replace("-", "_"))
        value[key] = from_file.get(key, _SETTINGS[key][2]) if flag is None else flag
    threshold = value["cv-threshold"]
    return PipelineConfig(
        modality=value["modality"],
        reference=Path(args.reference) if getattr(args, "reference", None) else None,
        checkpoint=Path(args.checkpoint),
        out_dir=Path(args.out),
        seed=value["seed"],
        mc=value.get("mc") != "off",  # uncertainty has no --mc: it always samples
        mc_samples=value["mc-samples"],
        dropout_rate=value["dropout-rate"],
        cv_threshold=CV_THRESHOLDS[value["modality"]] if threshold is None else threshold,
    )


def _load_model(cfg: PipelineConfig) -> UNet3D:
    """Load the checkpoint; a set dropout rate replaces the trained one."""
    model = load_checkpoint(cfg.checkpoint)
    if cfg.dropout_rate is not None:
        model.spec = dataclasses.replace(model.spec, dropout_rate=cfg.dropout_rate)
    return model


def cmd_phantoms(args) -> int:
    out_dir = Path(args.out)
    if args.config:
        spec = load_phantom_spec(args.config)
    else:
        spec = default_phantom_spec(
            dims=args.dims,
            modalities=tuple(args.modalities.split(",")),
            seed=args.seed,
            isotropic=args.isotropic,
        )
    manifest = generate_dataset(
        spec,
        n_subjects=args.subjects,
        out_dir=out_dir,
        test_fraction=args.test_fraction,
        validation_fraction=args.validation_fraction,
        n_corrupt=args.corrupt,
    )
    save_phantom_spec(spec, out_dir / "phantom_spec.json")
    _write_run_record(
        out_dir,
        "phantoms",
        subjects=args.subjects,
        test_fraction=args.test_fraction,
        validation_fraction=args.validation_fraction,
        corrupt=args.corrupt,
        seed=spec.seed,
        manifest=manifest.name,
    )
    print(f"wrote dataset manifest {manifest}")
    return 0


def _train_config(args) -> TrainConfig:
    """The flags' settings: each defaults to TrainConfig's, --patience to --epochs."""
    return TrainConfig(
        learning_rate=args.lr,
        max_epochs=args.epochs,
        patience=args.epochs if args.patience is None else args.patience,
        batch_size=args.batch_size,
        seed=args.seed,
        validation_fraction=args.validation_fraction,
        translation_voxels=args.aug_translation,
        rotation_degrees=args.aug_rotation,
        crop_fraction=args.aug_crop,
    )


def cmd_train(args) -> int:
    out_dir = Path(args.out)
    records = [r for r in read_manifest(args.manifest) if r.modality == args.modality]
    if not records:
        print(f"error: manifest has no {args.modality!r} records", file=sys.stderr)
        return 1
    cfg = _train_config(args)
    # the flags' spec on no grid yet, so that a grid error names the scan
    spec = ModelSpec(
        features=args.features, depth=args.depth, bottleneck_layers=args.bottleneck,
        dropout_rate=args.dropout_rate, input_dims=(),
    )
    first = read_as(records[0].volume_path, Volume)
    try:
        spec.check_grid(first.dims)
    except ad.ShapeError as exc:
        raise ad.ShapeError(f"{records[0].volume_path}: {exc}") from None
    spec = dataclasses.replace(spec, input_dims=first.dims)
    model = UNet3D(spec, seed=cfg.seed)
    with ad.parallel() as region:
        model, log = train(model, records, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / f"{args.modality}_model.ckpt"
    save_checkpoint(model, ckpt)
    log.write_csv(out_dir / "train_log.csv")
    _write_run_record(
        out_dir,
        "train",
        manifest=args.manifest,
        modality=args.modality,
        **dataclasses.asdict(cfg),
        features=spec.features,
        depth=spec.depth,
        bottleneck=spec.bottleneck_layers,
        input_dims=list(spec.input_dims),
        checkpoint=ckpt.name,
        best_epoch=log.best_epoch,
        stop_reason=log.stop_reason,
        workers=region.workers,
        blas_pinned=region.pinned,
        peak_rss_mb=_peak_rss_mb(),
    )
    print(
        f"trained {args.modality}: best epoch {log.best_epoch} "
        f"({log.stop_reason}), checkpoint {ckpt}"
    )
    return 0


def _segment(model, volume, cfg: PipelineConfig):
    """Returns (labels on the volume's grid, MC structure volumes, QC
    report); the last two are None with ``--mc off``, which runs one forward."""
    if cfg.mc:
        fused, volumes = mc_segment(model, volume, n=cfg.mc_samples, seed=cfg.seed)
        return fused, volumes, uncertainty(volumes, cfg.cv_threshold)
    with ad.no_grad():
        P = model.forward(
            np.asarray(volume.data, dtype=model.dtype)[None, None],
            mode="eval",
            dropout_active=False,
        )
    return hard_segment(P.data[0], like=volume), None, None


def _write_qc(report, out_dir: Path) -> int:
    """Write ``uncertainty.csv`` and return the exit code: 2, with a
    warning, when the CV exceeds the threshold, else 0."""
    write_uncertainty_report(report, out_dir / "uncertainty.csv")
    if report.verdict == "pass":
        return 0
    print(
        f"QC warning: CV {report.cv:.4f} exceeds threshold {report.threshold:.4f}",
        file=sys.stderr,
    )
    return 2


def _qc_record(cfg: PipelineConfig, model, region, clock: _StageClock) -> Dict:
    """The run-record keys of ``segment``, ``evaluate`` and ``uncertainty``:
    the settings; from ``region``, the parallel region the network ran in,
    the MC passes run at once (one per worker, None with ``--mc off``) and
    whether BLAS was pinned to one thread; timings and peak memory."""
    return {
        "checkpoint": cfg.checkpoint,
        "modality": cfg.modality,
        "mc": cfg.mc,
        "mc_samples": cfg.mc_samples,
        "dropout_rate": model.spec.dropout_rate,
        "cv_threshold": cfg.cv_threshold,
        "seed": cfg.seed,
        "mc_workers": min(region.workers, cfg.mc_samples) if cfg.mc else None,
        "blas_pinned": region.pinned,
        "timings": clock.timings(),
        "peak_rss_mb": _peak_rss_mb(),
    }


def cmd_segment(args) -> int:
    """Register the input to the reference, resample it onto the model's
    ``input_dims``, segment it there and map the labels back. Registration
    runs its pyramid only as finely as one model voxel resolves: once a level
    fits both scans, its finest level is the largest block-mean factor no
    larger than the smallest reference-to-model-grid voxel ratio, so a
    reference 2x finer than the model grid skips the full-resolution level."""
    clock = _StageClock()
    cfg = _pipeline_config(args)
    model = _load_model(cfg)
    original = read_as(args.input, Volume)
    reference = read_as(cfg.reference, Volume)
    clock.lap("load")
    reg = tf.register_affine(original, reference, model.spec.input_dims)
    clock.lap("register")
    if not reg.converged:
        print(
            f"warning: coregistration did not converge (final cost {reg.final_cost:.6g})",
            file=sys.stderr,
        )
    to_model_grid = tf.grid_scaling(model.spec.input_dims, reference.dims)
    t_total = reg.transform.compose(to_model_grid)
    model_spacing = tuple(
        s * d / m
        for s, d, m in zip(reference.spacing, reference.dims, model.spec.input_dims)
    )
    resampled = tf.resample_spline(original, t_total, model.spec.input_dims, model_spacing)
    clock.lap("resample")
    normalized = normalize_intensity(resampled)
    clock.lap("normalize")
    with ad.parallel() as region:
        seg_model_grid, volumes, report = _segment(model, normalized, cfg)
    clock.lap("mc")
    out_labels = tf.map_back(seg_model_grid, original, t_total)
    clock.lap("map_back")

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_volume(out_labels, cfg.out_dir / "segmentation.mvx")
    tf.save_transform(t_total, cfg.out_dir / "transform.txt")
    code = 0 if report is None else _write_qc(report, cfg.out_dir)
    clock.lap("write")
    _write_run_record(
        cfg.out_dir,
        "segment",
        input=args.input,
        reference=cfg.reference,
        registration_converged=reg.converged,
        registration_cost=reg.final_cost,
        registration_levels=[
            {**dataclasses.asdict(t), "diverged": t.diverged} for t in reg.levels
        ],
        mc_volumes=None if volumes is None else volumes.tolist(),
        cv=getattr(report, "cv", None),
        verdict=getattr(report, "verdict", None),
        **_qc_record(cfg, model, region, clock),
    )
    print(f"segmentation written to {cfg.out_dir / 'segmentation.mvx'}")
    return code


def cmd_evaluate(args) -> int:
    """Score the test split's records of the resolved modality on the
    volumes' own grid, without registration; a volume on a grid the depth
    does not divide exits 1, naming the volume, and writes nothing. The
    scans run in one parallel region, which every scan's passes share."""
    clock = _StageClock()
    cfg = _pipeline_config(args)
    model = _load_model(cfg)
    records = [
        r for r in read_manifest(args.manifest)
        if r.split == "test" and r.modality == cfg.modality
    ]
    if not records:
        print(f"error: manifest has no {cfg.modality!r} test records", file=sys.stderr)
        return 1
    clock.lap("load")
    rows = []
    cvs = []
    with ad.parallel() as region:
        for rec in records:
            vol = read_as(rec.volume_path, Volume)
            try:
                model.spec.check_grid(vol.dims)
            except ad.ShapeError as exc:
                raise ad.ShapeError(f"{rec.volume_path}: {exc}") from None
            labels = read_as(rec.labels_path, LabelMap)
            normalized = normalize_intensity(vol)
            seg, _, report = _segment(model, normalized, cfg)
            rows.append((rec.volume_path.name, dice_report(seg.labels, labels.labels)))
            if report is not None:
                cvs.append(report.cv)
    clock.lap("score")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_dice_rows(rows, cfg.out_dir / "evaluation.csv")
    averages = [dr.average for _, dr in rows]
    weighted = [dr.volume_weighted for _, dr in rows]
    summary = {
        "volumes": len(rows),
        "d_a_mean": float(np.mean(averages)),
        "d_a_std": float(np.std(averages)),
        "d_v_mean": float(np.mean(weighted)),
        "d_v_std": float(np.std(weighted)),
    }
    if cvs:
        with open(cfg.out_dir / "scatter.csv", "w", newline="") as fh:
            fh.write("volume,d_a,cv\n")
            for (name, dr), cv in zip(rows, cvs):
                fh.write(f"{name},{dr.average!r},{cv!r}\n")
        try:
            summary["pearson_da_cv"] = pearson(averages, cvs)
        except CorrelationError as exc:
            summary["pearson_da_cv"] = None
            summary["pearson_note"] = str(exc)
    (cfg.out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    clock.lap("write")
    _write_run_record(
        cfg.out_dir,
        "evaluate",
        manifest=args.manifest,
        **summary,
        **_qc_record(cfg, model, region, clock),
    )
    print(
        f"evaluated {len(rows)} volumes: D_A {summary['d_a_mean']:.4f} "
        f"+/- {summary['d_a_std']:.4f}, D_V {summary['d_v_mean']:.4f} "
        f"+/- {summary['d_v_std']:.4f}"
    )
    return 0


def cmd_uncertainty(args) -> int:
    clock = _StageClock()
    cfg = _pipeline_config(args)
    model = _load_model(cfg)
    vol = read_as(args.input, Volume)
    clock.lap("load")
    normalized = normalize_intensity(vol)
    clock.lap("normalize")
    with ad.parallel() as region:
        _, _, report = _segment(model, normalized, cfg)
    clock.lap("mc")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    code = _write_qc(report, cfg.out_dir)
    clock.lap("write")
    _write_run_record(
        cfg.out_dir,
        "uncertainty",
        input=args.input,
        cv=report.cv,
        verdict=report.verdict,
        **_qc_record(cfg, model, region, clock),
    )
    print(f"CV {report.cv:.4f} (threshold {report.threshold:.4f}): {report.verdict}")
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other error does: 2 means a QC warning.
    Long flags are not abbreviated, so ``uncertainty --mc`` is an error, not
    ``--mc-samples``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _voxel_counts(text):
    """``--dims`` as a tuple of ints; ``PhantomSpec`` checks that they are
    3 positive counts."""
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer voxel counts, got {text!r}"
        ) from None


def _add_common(parser, settings):
    """The flags of ``segment``, ``evaluate`` and ``uncertainty``; each of
    ``settings`` parses to None when not given, so ``--config`` can fill it."""
    parser.add_argument("--config", help="JSON config file; flags take precedence")
    parser.add_argument("--checkpoint", required=True)
    for key in settings:
        kind, choices, _ = _SETTINGS[key]
        parser.add_argument(f"--{key}", type=kind, choices=choices)
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segctl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantoms", help="generate a synthetic labeled dataset")
    p.add_argument("--subjects", type=int, default=20)
    p.add_argument("--dims", type=_voxel_counts, default="32,32,32")
    p.add_argument("--modalities", default="mprage,flair,dwi,ct")
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument("--validation-fraction", type=float, default=0.0)
    p.add_argument("--corrupt", type=int, default=0)
    p.add_argument("--isotropic", action="store_true")
    p.add_argument("--config", help="phantom spec JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phantoms)

    p = sub.add_parser("train", help="train a segmentation model from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--modality", choices=MODALITIES, required=True)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--bottleneck", type=int, default=2)
    p.add_argument("--dropout-rate", type=float, default=ModelSpec.dropout_rate)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=None, help="default: --epochs")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument(
        "--validation-fraction", type=float, default=TrainConfig.validation_fraction,
        help="training records held out for validation, only when the manifest has none",
    )
    p.add_argument("--aug-translation", type=float, default=TrainConfig.translation_voxels)
    p.add_argument("--aug-rotation", type=float, default=TrainConfig.rotation_degrees)
    p.add_argument("--aug-crop", type=float, default=TrainConfig.crop_fraction)
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment one volume end to end")
    p.add_argument("--input", required=True)
    p.add_argument("--reference", required=True)
    _add_common(p, _SETTINGS)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score a checkpoint on a manifest's test split")
    p.add_argument("--manifest", required=True)
    _add_common(p, _SETTINGS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("uncertainty", help="MC-dropout QC verdict for one volume")
    p.add_argument("--input", required=True)
    _add_common(p, [key for key in _SETTINGS if key != "mc"])  # it always samples
    p.set_defaults(func=cmd_uncertainty)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
