"""segctl: command-line entry point wiring the full pipeline.

Subcommands: ``phantoms`` (synthetic datasets), ``train`` (fit a model from a
manifest), ``segment`` (register -> resample -> normalize -> segment -> map
back), ``evaluate`` (Dice metrics plus the Dice/CV scatter) and
``uncertainty`` (MC-dropout QC on one volume).

``evaluate`` scores a manifest's test volumes on their own grid, without
registration: each volume must already be on the model grid, and one that is
not is an error (exit 1) before anything is written. Only ``segment``
registers and resamples its input. ``evaluate`` scores only the test records
of one modality, the one that also picks the CV threshold: ``--modality``,
else ``modality`` in the ``--config`` file, else ``mprage``.

``segment``, ``evaluate`` and ``uncertainty`` share one MC quality check,
which needs at least 2 MC samples: fewer is an error (exit 1) before the
model is loaded. ``--mc off`` (``segment`` and ``evaluate`` only) runs one
dropout-free forward and no check; ``uncertainty`` always samples.

Exit codes: 0 success/QC pass, 2 QC warn, 1 error, usage errors included.
Every run echoes its resolved settings into ``run_record.json`` in the
output directory; a ``segment`` record also holds the wall seconds of each
stage (``timings``) and the per-pass structure voxel counts of the MC
samples (``mc_volumes``). ``segment`` and ``uncertainty`` records give the
number of MC passes run at once (``mc_workers``) and whether OpenBLAS was
pinned to one thread while they ran (``blas_pinned``); a ``train`` record
gives the workers of the parallel region its epochs ran in (``workers``)
and ``blas_pinned`` likewise. ``train`` and
``segment`` records give the process's high-water resident memory in MB when
the record is written (``peak_rss_mb``, from ``ru_maxrss``). It marks the
whole process lifetime, so a caller that runs several commands in one process
reads a cumulative value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
        if self.modality not in MODALITIES:
            raise ValueError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        if self.mc and self.mc_samples < 2:
            raise ValueError(f"MC QC needs at least 2 MC samples, got {self.mc_samples}")
        for path in (self.reference, self.checkpoint):
            if path is not None and not Path(path).exists():
                raise FileNotFoundError(f"missing input: {path}")


def _write_run_record(out_dir: Path, command: str, resolved: Dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"command": command}
    record.update(
        {k: (str(v) if isinstance(v, Path) else v) for k, v in sorted(resolved.items())}
    )
    (out_dir / "run_record.json").write_text(json.dumps(record, indent=2, sort_keys=True))


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


def _pipeline_config(args) -> PipelineConfig:
    """Each setting comes from its flag, else the ``--config`` JSON file,
    else its default."""
    from_file = json.loads(Path(args.config).read_text()) if args.config else {}

    def resolve(key, default, cast):
        for value in (getattr(args, key.replace("-", "_")), from_file.get(key), default):
            if value is not None:
                return cast(value)
        return None

    modality = resolve("modality", "mprage", str)
    threshold = resolve("cv-threshold", CV_THRESHOLDS.get(modality), float)
    return PipelineConfig(
        modality=modality,
        reference=Path(args.reference) if getattr(args, "reference", None) else None,
        checkpoint=Path(args.checkpoint),
        out_dir=Path(args.out),
        seed=resolve("seed", 0, int),
        # uncertainty has no --mc: it always samples
        mc=not hasattr(args, "mc") or resolve("mc", "on", str) == "on",
        mc_samples=resolve("mc-samples", DEFAULT_MC_SAMPLES, int),
        dropout_rate=resolve("dropout-rate", None, float),
        cv_threshold=threshold,
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
        dims = tuple(int(d) for d in args.dims.split(","))
        spec = default_phantom_spec(
            dims=dims,
            modalities=tuple(args.modalities.split(",")),
            seed=int(args.seed or 0),
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
        {
            "subjects": args.subjects,
            "test_fraction": args.test_fraction,
            "validation_fraction": args.validation_fraction,
            "corrupt": args.corrupt,
            "seed": spec.seed,
            "manifest": manifest.name,
        },
    )
    print(f"wrote dataset manifest {manifest}")
    return 0


def cmd_train(args) -> int:
    out_dir = Path(args.out)
    records = [r for r in read_manifest(args.manifest) if r.modality == args.modality]
    if not records:
        print(f"error: manifest has no {args.modality!r} records", file=sys.stderr)
        return 1
    first = read_as(records[0].volume_path, Volume)
    spec = ModelSpec(
        num_classes=28,
        features=args.features,
        depth=args.depth,
        bottleneck_layers=args.bottleneck,
        dropout_rate=args.dropout_rate,
        input_dims=first.dims,
    )
    cfg = TrainConfig(
        learning_rate=args.lr,
        max_epochs=args.epochs,
        patience=args.epochs if args.patience is None else args.patience,
        batch_size=args.batch_size,
        seed=args.seed or 0,
        validation_fraction=args.validation_fraction,
        translation_voxels=args.aug_translation,
        rotation_degrees=args.aug_rotation,
        crop_fraction=args.aug_crop,
    )
    model = UNet3D(spec, seed=cfg.seed)
    model, log = train(model, records, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / f"{args.modality}_model.ckpt"
    save_checkpoint(model, ckpt)
    log.write_csv(out_dir / "train_log.csv")
    _write_run_record(
        out_dir,
        "train",
        {
            "manifest": str(args.manifest),
            "modality": args.modality,
            **dataclasses.asdict(cfg),
            "features": spec.features,
            "depth": spec.depth,
            "bottleneck": spec.bottleneck_layers,
            "input_dims": list(spec.input_dims),
            "checkpoint": ckpt.name,
            "best_epoch": log.best_epoch,
            "stop_reason": log.stop_reason,
            "workers": log.workers,
            "blas_pinned": log.workers > 1,
            "peak_rss_mb": _peak_rss_mb(),
        },
    )
    print(
        f"trained {args.modality}: best epoch {log.best_epoch} "
        f"({log.stop_reason}), checkpoint {ckpt}"
    )
    return 0


def _segment_on_model_grid(model, volume, cfg: PipelineConfig):
    """Returns (labels on the model grid, MC sample set, QC report); the last
    two are None with ``--mc off``."""
    if cfg.mc:
        fused, samples = mc_segment(model, volume, n=cfg.mc_samples, seed=cfg.seed)
        return fused, samples, uncertainty(samples, cfg.cv_threshold)
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


def _qc_record(cfg: PipelineConfig, model, samples, report) -> Dict:
    """The run-record keys ``segment`` and ``uncertainty`` share: the MC
    settings, the QC result, the passes run at once and whether BLAS was
    pinned to one thread for them (it is whenever more than one ran at once)."""
    workers = None if samples is None else samples.workers
    return {
        "checkpoint": str(cfg.checkpoint),
        "mc_samples": cfg.mc_samples,
        "dropout_rate": model.spec.dropout_rate,
        "cv_threshold": cfg.cv_threshold,
        "seed": cfg.seed,
        "cv": None if report is None else report.cv,
        "verdict": None if report is None else report.verdict,
        "mc_workers": workers,
        "blas_pinned": workers is not None and workers > 1,
    }


def cmd_segment(args) -> int:
    clock = _StageClock()
    cfg = _pipeline_config(args)
    model = _load_model(cfg)
    original = read_as(args.input, Volume)
    reference = read_as(cfg.reference, Volume)
    clock.lap("load")
    reg = tf.register_affine(original, reference)
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
    seg_model_grid, samples, report = _segment_on_model_grid(model, normalized, cfg)
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
        {
            "input": str(args.input),
            "reference": str(cfg.reference),
            "modality": cfg.modality,
            "mc": cfg.mc,
            "registration_converged": reg.converged,
            "registration_cost": reg.final_cost,
            "registration_levels": [
                {**dataclasses.asdict(t), "diverged": t.diverged} for t in reg.levels
            ],
            "mc_volumes": None if samples is None else samples.volumes.tolist(),
            **_qc_record(cfg, model, samples, report),
            "timings": clock.timings(),
            "peak_rss_mb": _peak_rss_mb(),
        },
    )
    print(f"segmentation written to {cfg.out_dir / 'segmentation.mvx'}")
    return code


def cmd_evaluate(args) -> int:
    """Score the test split's records of the resolved modality on the
    volumes' own grid, without registration; a volume off the model grid
    exits 1 and writes nothing."""
    cfg = _pipeline_config(args)
    model = _load_model(cfg)
    records = [
        r for r in read_manifest(args.manifest)
        if r.split == "test" and r.modality == cfg.modality
    ]
    if not records:
        print(f"error: manifest has no {cfg.modality!r} test records", file=sys.stderr)
        return 1
    rows = []
    averages = []
    weighted = []
    cvs = []
    for rec in records:
        vol = read_as(rec.volume_path, Volume)
        labels = read_as(rec.labels_path, LabelMap)
        normalized = normalize_intensity(vol)
        seg, _, report = _segment_on_model_grid(model, normalized, cfg)
        dr = dice_report(seg.labels, labels.labels, model.spec.num_classes)
        rows.append((rec.volume_path.name, dr))
        averages.append(dr.average)
        weighted.append(dr.volume_weighted)
        if report is not None:
            cvs.append(report.cv)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_dice_rows(rows, cfg.out_dir / "evaluation.csv")
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
            for (name, _), da, cv in zip(rows, averages, cvs):
                fh.write(f"{name},{da!r},{cv!r}\n")
        try:
            summary["pearson_da_cv"] = pearson(averages, cvs)
        except CorrelationError as exc:
            summary["pearson_da_cv"] = None
            summary["pearson_note"] = str(exc)
    (cfg.out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    _write_run_record(
        cfg.out_dir,
        "evaluate",
        {
            "manifest": str(args.manifest),
            "checkpoint": str(cfg.checkpoint),
            "mc": cfg.mc,
            "mc_samples": cfg.mc_samples,
            "dropout_rate": model.spec.dropout_rate,
            "seed": cfg.seed,
            **summary,
        },
    )
    print(
        f"evaluated {len(rows)} volumes: D_A {summary['d_a_mean']:.4f} "
        f"+/- {summary['d_a_std']:.4f}, D_V {summary['d_v_mean']:.4f} "
        f"+/- {summary['d_v_std']:.4f}"
    )
    return 0


def cmd_uncertainty(args) -> int:
    cfg = _pipeline_config(args)
    model = _load_model(cfg)
    vol = read_as(args.input, Volume)
    _, samples, report = _segment_on_model_grid(model, normalize_intensity(vol), cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    code = _write_qc(report, cfg.out_dir)
    _write_run_record(
        cfg.out_dir,
        "uncertainty",
        {"input": str(args.input), **_qc_record(cfg, model, samples, report)},
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


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags take precedence")
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--modality", choices=MODALITIES, default=None)
    parser.add_argument("--mc-samples", type=int, default=None)
    parser.add_argument("--dropout-rate", type=float, default=None)
    parser.add_argument("--cv-threshold", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segctl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantoms", help="generate a synthetic labeled dataset")
    p.add_argument("--subjects", type=int, default=20)
    p.add_argument("--dims", default="32,32,32")
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
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--patience", type=int, default=None, help="default: --epochs")
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--validation-fraction", type=float, default=0.1)
    p.add_argument("--aug-translation", type=float, default=4.0)
    p.add_argument("--aug-rotation", type=float, default=10.0)
    p.add_argument("--aug-crop", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment one volume end to end")
    p.add_argument("--input", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--mc", choices=("on", "off"), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score a checkpoint on a manifest's test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mc", choices=("on", "off"), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("uncertainty", help="MC-dropout QC verdict for one volume")
    p.add_argument("--input", required=True)
    _add_common(p)
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
