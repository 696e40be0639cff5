"""segctl: command-line entry point wiring the full pipeline.

Subcommands: ``phantoms`` (synthetic datasets), ``train`` (fit a model from a
manifest), ``segment`` (register -> resample -> normalize -> segment -> map
back), ``evaluate`` (Dice metrics plus the Dice/CV scatter) and
``uncertainty`` (MC-dropout QC on one volume).

Exit codes: 0 success/QC pass, 2 QC warn, 1 error. Every run echoes its
resolved settings into ``run_record.json`` in the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from . import transforms as tf
from .core import StructureTable, Volume, normalize_intensity
from .inference import (
    CV_THRESHOLDS,
    DEFAULT_MC_SAMPLES,
    hard_segment,
    mc_segment,
    uncertainty,
    write_uncertainty_report,
)
from .io import read_manifest, read_volume, write_volume
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
    checkpoint: Optional[Path]
    out_dir: Path
    seed: int
    mc: bool
    mc_samples: int
    dropout_rate: Optional[float]  # None: the rate the checkpoint was trained with
    cv_threshold: float

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
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
        checkpoint=Path(args.checkpoint) if getattr(args, "checkpoint", None) else None,
        out_dir=Path(args.out),
        seed=resolve("seed", 0, int),
        mc=resolve("mc", "on", str) == "on",
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
    first = read_volume(records[0].volume_path)
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
        patience=args.patience,
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
        },
    )
    print(
        f"trained {args.modality}: best epoch {log.best_epoch} "
        f"({log.stop_reason}), checkpoint {ckpt}"
    )
    return 0


def _segment_on_model_grid(model, volume, cfg: PipelineConfig):
    """Returns (labels on model grid, report or None)."""
    if cfg.mc:
        fused, samples = mc_segment(model, volume, n=cfg.mc_samples, seed=cfg.seed)
        report = (
            uncertainty(samples, StructureTable.default(), cfg.cv_threshold)
            if cfg.mc_samples >= 2
            else None
        )
        return fused, report
    with ad.no_grad():
        P = model.forward(
            np.asarray(volume.data, dtype=model.dtype)[None, None],
            mode="eval",
            dropout_active=False,
        )
    return hard_segment(P, like=volume), None


def cmd_segment(args) -> int:
    cfg = _pipeline_config(args)
    model = _load_model(cfg)
    original = read_volume(args.input)
    if not isinstance(original, Volume):
        print("error: segmentation input must be an intensity volume", file=sys.stderr)
        return 1
    reference = read_volume(cfg.reference)
    reg = tf.register_affine(original, reference)
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
    normalized = normalize_intensity(resampled)
    seg_model_grid, report = _segment_on_model_grid(model, normalized, cfg)
    out_labels = tf.map_back(seg_model_grid, original, t_total)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_volume(out_labels, cfg.out_dir / "segmentation.mvx")
    tf.save_transform(t_total, cfg.out_dir / "transform.txt")
    code = 0
    if report is not None:
        write_uncertainty_report(
            report, StructureTable.default(), cfg.out_dir / "uncertainty.csv"
        )
        if report.verdict == "warn":
            print(
                f"QC warning: CV {report.cv:.4f} exceeds threshold {report.threshold:.4f}",
                file=sys.stderr,
            )
            code = 2
    _write_run_record(
        cfg.out_dir,
        "segment",
        {
            "input": str(args.input),
            "reference": str(cfg.reference),
            "checkpoint": str(cfg.checkpoint),
            "modality": cfg.modality,
            "mc": cfg.mc,
            "mc_samples": cfg.mc_samples,
            "dropout_rate": model.spec.dropout_rate,
            "cv_threshold": cfg.cv_threshold,
            "seed": cfg.seed,
            "registration_converged": reg.converged,
            "registration_cost": reg.final_cost,
            "cv": None if report is None else report.cv,
            "verdict": None if report is None else report.verdict,
        },
    )
    print(f"segmentation written to {cfg.out_dir / 'segmentation.mvx'}")
    return code


def cmd_evaluate(args) -> int:
    cfg = _pipeline_config(args)
    model = _load_model(cfg)
    records = [r for r in read_manifest(args.manifest) if r.split == "test"]
    if getattr(args, "modality", None):
        records = [r for r in records if r.modality == args.modality]
    if not records:
        print("error: manifest has an empty test split", file=sys.stderr)
        return 1
    rows = []
    averages = []
    weighted = []
    cvs = []
    for rec in records:
        vol = read_volume(rec.volume_path)
        labels = read_volume(rec.labels_path)
        normalized = normalize_intensity(vol)
        seg, report = _segment_on_model_grid(model, normalized, cfg)
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
    vol = read_volume(args.input)
    if not isinstance(vol, Volume):
        print("error: input must be an intensity volume", file=sys.stderr)
        return 1
    normalized = normalize_intensity(vol)
    _, samples = mc_segment(model, normalized, n=cfg.mc_samples, seed=cfg.seed)
    report = uncertainty(samples, StructureTable.default(), cfg.cv_threshold)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_uncertainty_report(report, StructureTable.default(), cfg.out_dir / "uncertainty.csv")
    _write_run_record(
        cfg.out_dir,
        "uncertainty",
        {
            "input": str(args.input),
            "checkpoint": str(cfg.checkpoint),
            "mc_samples": cfg.mc_samples,
            "dropout_rate": model.spec.dropout_rate,
            "cv_threshold": cfg.cv_threshold,
            "seed": cfg.seed,
            "cv": report.cv,
            "verdict": report.verdict,
        },
    )
    print(f"CV {report.cv:.4f} (threshold {report.threshold:.4f}): {report.verdict}")
    return 0 if report.verdict == "pass" else 2


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags take precedence")
    parser.add_argument("--modality", choices=MODALITIES, default=None)
    parser.add_argument("--mc", choices=("on", "off"), default=None)
    parser.add_argument("--mc-samples", type=int, default=None)
    parser.add_argument("--dropout-rate", type=float, default=None)
    parser.add_argument("--cv-threshold", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="segctl", description=__doc__)
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
    p.add_argument("--patience", type=int, default=100)
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
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--reference", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score a checkpoint on a manifest's test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("uncertainty", help="MC-dropout QC verdict for one volume")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
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
