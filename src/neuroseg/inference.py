"""Segmentation inference: argmax labeling, MC-dropout fusion and the
coefficient-of-variation quality check.

MC sampling runs the trained network N times with eval-mode batch norm and
active dropout. The layers before the first dropout (encoder block 1) are
the same in every pass, so they run once per volume and each pass starts
from their output. The passes stream through one parallel region
(``autodiff.parallel``) of one worker per usable core, with OpenBLAS pinned
to one thread: each worker runs one pass at a time, and the calling thread
fuses pass i while the workers run the next ones (``UNet3D.mc_passes``).
Each pass in flight holds its own working set, so w workers need about w
passes' memory. Every pass draws from its own rng and the sum runs in pass
order, so the results are bitwise those of one pass at a time. The fused map
is the voxelwise argmax (``hard_segment``) of the summed softmax fields
(equivalently their mean).
Per-sample anatomical volumes are the voxel counts of each sample's hard
segmentation; their dispersion across samples yields CV_s = sigma_s / mu_s,
and the aggregate CV is the mean of CV_s over structures with mu_s > 0. The
structures are those of ``StructureTable.default()``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .core import LabelMap, StructureTable, Volume
from .unet import UNet3D

DEFAULT_MC_SAMPLES = 15
CV_THRESHOLDS = {"mprage": 0.01, "flair": 0.025, "dwi": 0.025, "ct": 0.025}


@dataclass
class McSampleSet:
    """Per-sample structure volumes (voxel counts) from N stochastic passes."""

    volumes: np.ndarray  # (N, num_classes) int64
    workers: int = 1  # passes run at once (the parallel region's workers)


@dataclass
class UncertaintyReport:
    mean_volume: Dict[int, float]  # mu_s over MC samples
    std_volume: Dict[int, float]  # population sigma_s
    cv_per_structure: Dict[int, float]
    excluded: List[int]  # structures with mu_s == 0 (flagged, not scored)
    cv: float
    threshold: float
    verdict: str  # "pass" | "warn"


def hard_segment(P: np.ndarray, like: Volume) -> LabelMap:
    """Voxelwise argmax labeling of a (C, x, y, z) class-score field on
    ``like``'s grid; ties break toward the lowest class index."""
    return LabelMap(np.argmax(P, axis=0).astype(np.uint8), like.spacing, like.affine)


def _structure_volumes(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.bincount(labels.reshape(-1), minlength=num_classes)[:num_classes]


def mc_segment(
    model: UNet3D,
    v: Volume,
    n: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
):
    """Monte Carlo dropout segmentation of a preprocessed volume.

    ``v`` must already be on the model grid (else ``ShapeError`` before any
    pass) and intensity-normalized. Each of the ``n`` passes uses an
    independent rng derived from ``seed``, so the fused result does not
    depend on evaluation order. The block before the first dropout runs once
    for the volume, not once per pass, and up to one pass per usable core
    runs at once while this thread fuses the finished ones
    (``UNet3D.mc_passes``); every pass equals a full ``forward`` bitwise, and
    the float64 sum of the softmax fields runs in pass order.
    Returns the fused LabelMap (``hard_segment`` of that sum) and the sample
    set for the CV computation.
    """
    if n < 1:
        raise ValueError(f"need at least 1 MC sample, got {n}")
    num_classes = model.spec.num_classes
    total = np.zeros((num_classes,) + v.dims, dtype=np.float64)
    volumes = []

    def fuse(P):
        sample = P.data[0]
        np.add(total, sample, out=total)
        volumes.append(_structure_volumes(np.argmax(sample, axis=0), num_classes))

    x = np.asarray(v.data, dtype=model.dtype)[None, None]
    rngs = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n))
    workers = model.mc_passes(x, rngs, fuse)
    samples = McSampleSet(volumes=np.array(volumes, dtype=np.int64), workers=min(workers, n))
    return hard_segment(total, v), samples


def uncertainty(samples: McSampleSet, threshold: float) -> UncertaintyReport:
    """Coefficient-of-variation report over MC samples, for each structure
    of ``StructureTable.default()``.

    CV_s = sigma_s / mu_s with population standard deviation; structures with
    mu_s = 0 are excluded from the aggregate and flagged (a missing structure
    is itself a quality signal). Verdict is 'warn' iff the aggregate CV
    exceeds the threshold.
    """
    n = len(samples.volumes)
    if n < 2:
        raise ValueError(f"CV needs at least 2 MC samples, got {n}")
    mean_volume = {}
    std_volume = {}
    cv_per_structure = {}
    excluded = []
    for s in (entry.index for entry in StructureTable.default()):
        vols = samples.volumes[:, s].astype(np.float64)
        mu = float(vols.mean())
        sigma = float(vols.std())  # population
        mean_volume[s] = mu
        std_volume[s] = sigma
        if mu > 0:
            cv_per_structure[s] = sigma / mu
        else:
            excluded.append(s)
    if not cv_per_structure:
        raise ValueError("no structure present in any MC sample")
    cv = float(np.mean(list(cv_per_structure.values()), dtype=np.float64))
    verdict = "warn" if cv > threshold else "pass"
    return UncertaintyReport(
        mean_volume=mean_volume,
        std_volume=std_volume,
        cv_per_structure=cv_per_structure,
        excluded=excluded,
        cv=cv,
        threshold=threshold,
        verdict=verdict,
    )


def write_uncertainty_report(report: UncertaintyReport, path) -> None:
    """One row per structure of ``StructureTable.default()`` (mu, sigma, CV
    or 'absent'), then a summary row with the aggregate CV, threshold and
    verdict."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["structure", "name", "mean_volume", "std_volume", "cv"])
        for entry in StructureTable.default():
            s = entry.index
            if s in report.cv_per_structure:
                writer.writerow(
                    [
                        s,
                        entry.name,
                        repr(report.mean_volume[s]),
                        repr(report.std_volume[s]),
                        repr(report.cv_per_structure[s]),
                    ]
                )
            else:
                writer.writerow([s, entry.name, "0.0", "0.0", "absent"])
        writer.writerow(
            ["summary", "", repr(report.cv), repr(report.threshold), report.verdict]
        )
