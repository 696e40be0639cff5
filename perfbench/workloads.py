"""Workloads of the benchmark: set-up, the timed closed loop and output checks.

One client drives the public API in-process and sends its next operation
only when the previous one has finished, like a clinician's batch queue.
An operation is one ``segctl segment`` call (``neuroseg.cli.run``) on the
segment workloads and one training epoch (``neuroseg.train.train``) on
train-32. Inputs are phantoms generated from the workload seed.

Output checks use names imported here at load time, so a tracer (which
replaces the functions inside neuroseg's modules) never times them.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neuroseg import autodiff as ad
from neuroseg import cli, phantom
from neuroseg import transforms as tf
from neuroseg.core import LabelMap, normalize_intensity, one_hot
from neuroseg.io import read_manifest, read_volume
from neuroseg.metrics import combined_loss, dice_report
from neuroseg.train import TrainConfig, train
from neuroseg.transforms import grid_scaling, load_transform, resample_nearest
from neuroseg.unet import ModelSpec, UNet3D, load_checkpoint, save_checkpoint

from calibrate import calibrate, correction, warm_up
from tracing import Tracer

SETUP_REPEATS = 5  # setup_s is the median of this many complete set-ups

END_TO_END_UNITS = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _check(condition, message):
    if not condition:
        raise CheckFailed(message)


def _phantoms(native: int, subjects: int, seed: int, out_dir: Path):
    spec = phantom.default_phantom_spec(dims=(native,) * 3, modalities=("mprage",), seed=seed)
    # looked up on the module so that a traced set-up times it
    manifest = phantom.generate_dataset(
        spec, n_subjects=subjects, out_dir=out_dir, modalities=("mprage",)
    )
    return read_manifest(manifest)


@dataclass
class SegmentSetup:
    reference: object  # ManifestRecord of the reference and its truth labels
    scans: list  # ManifestRecord of each native scan and its truth labels
    checkpoint: Path


@dataclass(frozen=True)
class SegmentWorkload:
    """``segctl segment`` of native ``native``-cubed scans registered to a
    reference of the same size and resampled onto a ``grid``-cubed model.

    Quality is the alignment Dice: D_A between the reference's truth labels
    and the scan's truth labels pulled onto the model grid through the
    transform the call wrote, median over the first ``min_ops`` calls (which
    every run makes, so it does not depend on speed). The checkpoint is
    untrained, so the Dice of the segmentation itself is only recorded.
    """

    name: str
    native: int
    grid: int
    features: int
    depth: int
    mc_samples: int = 15
    subjects: int = 5  # subject 0 is the reference, the rest are scans
    min_ops: int = 2

    def setup(self, seed: int, work: Path) -> SegmentSetup:
        """Phantoms, a deterministic checkpoint and one warm-up forward.

        The checkpoint holds ``UNet3D(spec, seed)`` weights and batch-norm
        statistics from one train-mode forward of the reference: dense-op
        cost does not depend on weight values, and this keeps set-up short.
        """
        records = _phantoms(self.native, self.subjects, seed, work / "phantoms")
        reference = read_volume(records[0].volume_path)
        spec = ModelSpec(features=self.features, depth=self.depth, input_dims=(self.grid,) * 3)
        spacing = tuple(s * d / self.grid for s, d in zip(reference.spacing, reference.dims))
        x = tf.resample_spline(
            reference, tf.grid_scaling(spec.input_dims, reference.dims), spec.input_dims, spacing
        )
        x = np.asarray(normalize_intensity(x).data, dtype=np.float32)[None, None]
        model = UNet3D(spec, seed=seed)
        with ad.no_grad():
            model.forward(x, mode="train", dropout_active=False)
            model.forward(x, mode="eval", dropout_active=True, rng=np.random.default_rng(seed))
        checkpoint = work / "model.ckpt"
        save_checkpoint(model, checkpoint)
        return SegmentSetup(records[0], records[1:], checkpoint)

    def op(self, setup: SegmentSetup, seed: int, i: int, work: Path):
        """Segment scan ``i`` (cycling) and check its outputs; returns the
        call's wall time and a record of the outputs."""
        scan = setup.scans[i % len(setup.scans)]
        out = work / f"segment{i}"
        argv = [
            "segment",
            "--input", str(scan.volume_path),
            "--reference", str(setup.reference.volume_path),
            "--checkpoint", str(setup.checkpoint),
            "--modality", "mprage",
            "--mc-samples", str(self.mc_samples),
            "--seed", str(seed),
            "--out", str(out),
        ]
        try:
            with contextlib.redirect_stdout(_io.StringIO()):
                t0 = time.perf_counter()
                code = cli.run(argv)
                seconds = time.perf_counter() - t0
            # exit 2 is a QC warning, which an untrained checkpoint is expected to give
            _check(code in (0, 2), f"segment exited with code {code}")
            truth = read_volume(scan.labels_path)
            seg = read_volume(out / "segmentation.mvx")
            _check(isinstance(seg, LabelMap), "segmentation.mvx is not a label map")
            _check(seg.dims == truth.dims, f"segmentation dims {seg.dims} != native {truth.dims}")
            _check(int(seg.labels.max()) <= 27, "segmentation label outside 0..27")
            _check((out / "uncertainty.csv").is_file(), "uncertainty.csv missing")
            record = json.loads((out / "run_record.json").read_text())
            cv = record.get("cv")
            _check(isinstance(cv, float) and math.isfinite(cv), f"run_record cv is {cv!r}")
            dims = (self.grid,) * 3
            ref_truth = read_volume(setup.reference.labels_path)
            on_grid = resample_nearest(ref_truth, grid_scaling(dims, ref_truth.dims), dims, (1, 1, 1))
            pulled = resample_nearest(truth, load_transform(out / "transform.txt"), dims, (1, 1, 1))
            facts = {
                "exit": code,
                "align_dice": dice_report(pulled.labels, on_grid.labels).average,
                "seg_dice": dice_report(seg.labels, truth.labels).average,
                "registration_converged": record["registration_converged"],
                "cv": cv,
            }
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return seconds, facts

    def quality(self, facts: list) -> float:
        return statistics.median(f["align_dice"] for f in facts[: self.min_ops])


@dataclass
class TrainSetup:
    records: list
    model: UNet3D
    cfg: TrainConfig
    train_losses: list = field(default_factory=list)  # one per epoch run so far


@dataclass(frozen=True)
class TrainWorkload:
    """``train()`` one epoch per operation at the ``segctl train`` defaults.

    Quality is the mean training loss of epoch 1 over that of epoch
    ``min_ops``, which every run reaches, so it does not depend on speed;
    a loss that has not fallen by then fails the check.
    """

    name: str
    grid: int
    features: int = 8
    depth: int = 2
    subjects: int = 12  # 1 test, 1 validation, 10 training phantoms
    min_ops: int = 3

    def setup(self, seed: int, work: Path) -> TrainSetup:
        """Phantoms, a fresh model and one warm-up training step (forward,
        loss, backward) on a throwaway copy, since a step moves weights and
        batch-norm statistics."""
        records = _phantoms(self.grid, self.subjects, seed, work / "phantoms")
        spec = ModelSpec(features=self.features, depth=self.depth, input_dims=(self.grid,) * 3)
        x = normalize_intensity(read_volume(records[0].volume_path))
        labels = read_volume(records[0].labels_path)
        P = UNet3D(spec, seed=seed).forward(
            np.asarray(x.data, dtype=np.float32)[None, None], rng=np.random.default_rng(seed)
        )
        combined_loss(P, one_hot(labels, spec.num_classes)[None]).backward()
        # TrainConfig's defaults are those of `segctl train`
        cfg = TrainConfig(max_epochs=1, patience=1, seed=seed)
        return TrainSetup(records, UNet3D(spec, seed=seed), cfg)

    def op(self, setup: TrainSetup, seed: int, i: int, work: Path):
        """One epoch (``train`` with ``max_epochs=1``) from the previous
        epoch's weights, then a checkpoint round trip."""
        t0 = time.perf_counter()
        model, log = train(setup.model, setup.records, setup.cfg)
        seconds = time.perf_counter() - t0
        epoch = log.epochs[-1]
        _check(math.isfinite(epoch.train_loss), f"train loss is {epoch.train_loss}")
        _check(math.isfinite(epoch.val_loss), f"validation loss is {epoch.val_loss}")
        setup.train_losses.append(epoch.train_loss)
        if len(setup.train_losses) == self.min_ops:
            _check(
                setup.train_losses[-1] < setup.train_losses[0],
                f"training loss did not fall in {self.min_ops} epochs: {setup.train_losses}",
            )
        path = work / "train.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path).named_arrays()
        path.unlink()
        arrays = model.named_arrays()
        _check(list(loaded) == list(arrays), "checkpoint array names did not load back")
        for name, arr in arrays.items():
            _check(np.array_equal(arr, loaded[name]), f"checkpoint array {name} did not load back")
        facts = {
            "epoch": len(setup.train_losses),
            "train_loss": epoch.train_loss,
            "val_loss": epoch.val_loss,
            "val_dice": epoch.val_dice,
        }
        return seconds, facts

    def quality(self, facts: list) -> float:
        by_epoch = {f["epoch"]: f["train_loss"] for f in facts}
        return by_epoch[1] / by_epoch[self.min_ops]


# Calls and epochs of 2 to 5 s on a 2-core machine, so that a run's median
# is taken over six or more of them: one call's time moves by +-15% there.
WORKLOADS = {
    # network forward most of a segment call, registration a fifth:
    # conv3d, eval batch-norm, dropout and MC reuse show here
    "mc-32": SegmentWorkload("mc-32", native=32, grid=32, features=16, depth=4),
    # register_affine most of a segment call, the network a few percent
    "reg-48": SegmentWorkload("reg-48", native=48, grid=16, features=8, depth=2),
    # graph building, backward, train-mode batch-norm, augment, loss, Adam
    "train-32": TrainWorkload("train-32", grid=32),
}


def _ops_done(times, trace):
    return min(len(times[False]), len(times[True])) if trace else len(times[False])


def run(wl, seed: int, seconds: float, trace: bool, work: Path):
    """Set up ``SETUP_REPEATS`` times, then run operations back to back
    until the next one would end after ``seconds``, and at least
    ``wl.min_ops`` times. A traced run alternates untraced and traced
    operations, so it measures its own overhead. The calibration kernel runs
    before and after every set-up and operation. ``op_s`` is the untraced
    operations' mean wall time, corrected for the host's load by the mean
    kernel time around them; ``setup_s`` is the median set-up wall time,
    each corrected by the kernel times around it.

    Returns (attempted, failed, metrics as {name: value}, run details).
    """
    tracer = Tracer(wl.grid) if trace else None
    setup_times = []  # wall time of each set-up
    setup_corrected = []  # ... corrected for the host's load
    warm_up()
    calibrations = [calibrate()]
    for r in range(SETUP_REPEATS):
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            setup = wl.setup(seed, work / f"setup{r}")
            setup_times.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.uninstall()
        calibrations.append(calibrate())
        setup_corrected.append(setup_times[-1] * correction(statistics.mean(calibrations[-2:])))
    if tracer:
        generate_dataset_s = tracer.seconds["phantom.generate_dataset.s"] / SETUP_REPEATS
        tracer.reset()

    times = {False: [], True: []}  # traced? -> wall time of each operation
    around = []  # mean kernel time before and after each untraced operation
    facts = []
    attempted = failed = 0
    start = time.perf_counter()
    rounds = []  # wall time of each loop round, output checks and calibration included
    while _ops_done(times, trace) < wl.min_ops or (
        # start no operation that is expected to end past the deadline
        time.perf_counter() - start + statistics.median(rounds) <= seconds
    ):
        round_start = time.perf_counter()
        traced = trace and len(times[True]) < len(times[False])
        attempted += 1
        if traced:
            tracer.install()
        try:
            op_seconds, op_facts = wl.op(setup, seed, attempted - 1, work)
        except Exception:  # a failed operation is counted and reported, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
            if failed > wl.min_ops:
                break
            continue
        finally:
            if traced:
                tracer.uninstall()
            calibrations.append(calibrate())
        times[traced].append(op_seconds)
        if not traced:
            around.append((calibrations[-2] + calibrations[-1]) / 2)
        facts.append(op_facts)
        rounds.append(time.perf_counter() - round_start)

    metrics = {}
    if failed == 0:
        if trace:
            metrics = tracer.layer_metrics(
                len(times[True]), generate_dataset_s, times[True], times[False]
            )
        else:
            metrics = {
                "op_s": statistics.mean(times[False]) * correction(statistics.mean(around)),
                "setup_s": statistics.median(setup_corrected),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "quality": wl.quality(facts),
            }
    details = {
        "setup_wall_s": setup_times,
        "op_wall_s": {"untraced": times[False], "traced": times[True]},
        "calibration_s": calibrations,
        "op_facts": facts,
    }
    return attempted, failed, metrics, details
