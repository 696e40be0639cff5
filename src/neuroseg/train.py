"""Optimization loop: Adam, paired augmentation, validation split, early
stopping and deterministic seeding.

Before epoch 1, ``read_pair`` checks each record's volume and labels grids.
One epoch is a seeded-shuffle pass over the training volumes. After each
epoch the validation loss is evaluated with dropout off and eval batch-norm
statistics; training stops at ``max_epochs`` or once the validation loss has
not improved for ``patience`` epochs, and the best-validation parameters are
restored into the returned model.

One optimizer step runs inside ``_train_step``, which returns only the loss
value. The step's autodiff graph (every activation, every array a backward
closure saved, every interior gradient) is referenced from that call alone,
so it is freed when the call returns: the next step's augmentation and
forward, and the epoch's validation, never run beside a dead graph. Each
validation volume is scored inside ``_validation_step``, which likewise
returns only floats, so its softmax field and prediction are freed before
the next volume and the next epoch.

All epochs run in one parallel region (``autodiff.parallel``): every
convolution, forward and both gradients, splits its work (im2col stacks,
kn2row plane chunks or weight-gradient column chunks) over one worker per
usable core, with OpenBLAS pinned to one thread if there are two or more.
A convolution uses all but one of the pool's threads, so the spare one
prepares the next batch of the epoch (``augment``, then
``normalize_intensity``) while the current step runs, one ahead in the
region's run-ahead loop (``run_ahead``); its spline resamples release the
GIL. Only that one preparation is in flight, and it alone draws from the
augmentation rng, so the draws come in batch order. Results are bitwise
those of one thread, whatever the worker count.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from . import autodiff as ad
from . import transforms as tf
from .autodiff import Tensor
from .core import LabelMap, Volume, normalize_intensity, one_hot
from .io import ManifestRecord, read_as
from .metrics import combined_loss, dice_report
from .unet import ModelSpec, UNet3D


class NonFiniteLossError(RuntimeError):
    """Training hit a NaN/Inf loss; carries the failure position and history."""

    def __init__(self, epoch: int, batch: int, history: List[float]):
        super().__init__(
            f"non-finite training loss at epoch {epoch}, batch {batch}; "
            f"last losses: {history[-5:]}"
        )
        self.epoch = epoch
        self.batch = batch
        self.history = history


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    max_epochs: int = 400
    patience: int = 100
    batch_size: int = 1
    translation_voxels: float = 4.0
    rotation_degrees: float = 10.0
    crop_fraction: float = 0.1
    seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("translation_voxels", "rotation_degrees"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.crop_fraction <= 0.5:
            # every crop keeps at least half of each axis; deeper crops on
            # three axes at once can leave no labelled voxel
            raise ValueError(f"crop_fraction must lie in [0, 0.5], got {self.crop_fraction}")
        if self.max_epochs < 1 or self.patience < 1:
            # with no epoch, the checkpoint's batch norms would never have run
            raise ValueError("max_epochs and patience must be >= 1")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")
        if not 0.0 < self.validation_fraction <= 0.5:
            raise ValueError("validation_fraction must lie in (0, 0.5]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_dice: float
    # wall seconds of the epoch (training steps and validation); not part of
    # a log's equality, which compares what was computed
    epoch_s: float = field(compare=False)


@dataclass
class TrainLog:
    epochs: List[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    stop_reason: str = ""

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "val_dice", "epoch_s"])
            for e in self.epochs:
                writer.writerow(
                    [
                        e.epoch,
                        repr(e.train_loss),
                        repr(e.val_loss),
                        repr(e.val_dice),
                        repr(e.epoch_s),
                    ]
                )
            writer.writerow(["best_epoch", self.best_epoch, "stop_reason", self.stop_reason])


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class Adam:
    """Adam with bias correction; state arrays share the parameter dtype."""

    def __init__(self, params: Dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        b1c = 1.0 - _BETA1 ** self.t
        b2c = 1.0 - _BETA2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = _BETA1 * self.m[k] + (1.0 - _BETA1) * g
            self.v[k] = _BETA2 * self.v[k] + (1.0 - _BETA2) * g * g
            mh = self.m[k] / b1c
            vh = self.v[k] / b2c
            p.data = p.data - self.lr * mh / (np.sqrt(vh) + _EPS)


def augment(
    v: Volume,
    l: LabelMap,
    rng: np.random.Generator,
    translation_voxels: float,
    rotation_degrees: float,
    crop_fraction: float,
) -> Tuple[Volume, LabelMap]:
    """Apply one random rigid transform plus crop-and-zero-pad to a paired
    volume and label map: spline resampling for intensities, nearest for
    labels, the identical geometry for both. Output dims are preserved and
    zero-range settings return the pair bit for bit."""
    angles = rng.uniform(-rotation_degrees, rotation_degrees, 3)
    shift = rng.uniform(-translation_voxels, translation_voxels, 3)
    crops = rng.uniform(0.0, crop_fraction, 3)
    splits = rng.random(3)
    center = (np.asarray(v.dims, dtype=np.float64) - 1) / 2
    t = tf.rotation_transform(angles, center).compose(tf.translation_transform(shift))
    out_v = tf.resample_spline(v, t, v.dims, v.spacing)
    out_l = tf.resample_nearest(l, t, l.dims, l.spacing)
    data = np.array(out_v.data)
    labels = np.array(out_l.labels)
    for axis, (frac, split) in enumerate(zip(crops, splits)):
        n = int(round(frac * v.dims[axis]))
        if n == 0:
            continue
        lo = int(round(split * n))
        hi = n - lo
        sl_lo = [slice(None)] * 3
        sl_lo[axis] = slice(0, lo)
        sl_hi = [slice(None)] * 3
        sl_hi[axis] = slice(v.dims[axis] - hi, v.dims[axis])
        for arr in (data, labels):
            arr[tuple(sl_lo)] = 0
            arr[tuple(sl_hi)] = 0
    return (
        Volume(data, out_v.spacing, out_v.affine),
        LabelMap(labels, out_l.spacing, out_l.affine),
    )


def read_pair(record: ManifestRecord, spec: ModelSpec) -> Tuple[Volume, LabelMap]:
    """The volume and labels of ``record``: the volume on a grid ``spec``
    takes, the labels on its grid, else a ShapeError naming the file."""
    vol = read_as(record.volume_path, Volume)
    with ad.named(record.volume_path):
        spec.check_grid(vol.dims)
    labels = read_as(record.labels_path, LabelMap)
    with ad.named(record.labels_path):
        if labels.dims != vol.dims:  # worded as dice_report words it
            raise ad.ShapeError(f"prediction grid {vol.dims} vs truth grid {labels.dims}")
    return vol, labels


def _prepare(pairs, rng: np.random.Generator, cfg: TrainConfig, idx):
    """The training batch of ``pairs[i]`` for i in ``idx``: each pair
    augmented with draws from ``rng``, its volume then normalized."""
    batch = []
    for i in idx:
        vol, lab = pairs[i]
        av, al = augment(
            vol, lab, rng, cfg.translation_voxels, cfg.rotation_degrees, cfg.crop_fraction
        )
        batch.append((normalize_intensity(av), al))
    return batch


def _forward_loss(model: UNet3D, batch, mode, dropout_active, rng):
    xs = np.stack([np.asarray(v.data, dtype=model.dtype)[None] for v, _ in batch])
    ts = np.stack([one_hot(l) for _, l in batch])
    P = model.forward(Tensor(xs), mode=mode, dropout_active=dropout_active, rng=rng)
    loss = combined_loss(P, ts)
    return P, loss


def _train_step(model: UNet3D, opt: Adam, batch, rng) -> float:
    """One train-mode forward on ``batch`` and, only if its loss is finite,
    backward and an Adam step. Returns the loss value and nothing that holds
    the graph, so the graph dies with this call."""
    _, loss = _forward_loss(model, batch, "train", True, rng)
    value = loss.item()
    if np.isfinite(value):
        opt.zero_grad()
        loss.backward()
        opt.step()
    return value


def _validation_step(model: UNet3D, vol: Volume, lab: LabelMap) -> Tuple[float, float]:
    """Loss and average Dice of one validation volume (eval statistics, no
    dropout, no graph). Returns only floats, so the softmax field and the
    prediction die with this call."""
    with ad.no_grad():
        P, loss = _forward_loss(model, [(normalize_intensity(vol), lab)], "eval", False, None)
    pred = np.argmax(P.data[0], axis=0)
    return loss.item(), dice_report(pred, lab.labels).average


def train(model: UNet3D, records, cfg: TrainConfig) -> Tuple[UNet3D, TrainLog]:
    """Adam-optimize the combined Dice/cross-entropy loss over ``records``,
    a list of ManifestRecord (``io.read_manifest``).

    Records tagged 'validation' are used as the validation set; otherwise
    ``cfg.validation_fraction`` of the training records is carved off with
    the run seed. Before epoch 1, ``read_pair`` checks every record's volume
    and labels grids, raising ShapeError naming the file. The epochs run in
    one parallel region (``autodiff.parallel``).

    At each new best validation loss a copy of ``model.named_arrays()`` is
    taken; at the end it is copied back into the model's current arrays, so
    the returned model carries the best-validation parameters and running
    statistics. Batch-norm ``initialized`` flags need no snapshot: every
    batch norm runs in train mode in epoch 1, so they are all set from the
    first snapshot on.
    """
    train_recs = [r for r in records if r.split == "train"]
    val_recs = [r for r in records if r.split == "validation"]
    ss = np.random.SeedSequence(cfg.seed)
    seeds = ss.spawn(4)
    rng_split = np.random.default_rng(seeds[0])
    rng_augment = np.random.default_rng(seeds[1])
    rng_dropout = np.random.default_rng(seeds[2])
    rng_shuffle = np.random.default_rng(seeds[3])
    if not val_recs:
        if len(train_recs) < 2:
            raise ValueError(f"need at least 2 training volumes, got {len(train_recs)}")
        n_val = max(1, int(round(len(train_recs) * cfg.validation_fraction)))
        order = rng_split.permutation(len(train_recs))
        val_recs = [train_recs[i] for i in order[:n_val]]
        train_recs = [train_recs[i] for i in order[n_val:]]
    if len(train_recs) < 2:
        raise ValueError(f"need at least 2 training volumes, got {len(train_recs)}")

    train_pairs = [read_pair(rec, model.spec) for rec in train_recs]
    val_pairs = [read_pair(rec, model.spec) for rec in val_recs]
    grids = sorted({vol.dims for vol, _ in train_pairs})
    if cfg.batch_size > 1 and len(grids) > 1:
        raise ValueError(f"a batch stacks volumes of one grid, but they lie on {grids}")

    opt = Adam(model.parameters(), cfg.learning_rate)
    log = TrainLog()
    best_val = np.inf
    best_arrays = None
    history: List[float] = []

    with ad.parallel() as region:
        for epoch in range(1, cfg.max_epochs + 1):
            started = time.perf_counter()
            order = rng_shuffle.permutation(len(train_pairs))
            batches = [order[i : i + cfg.batch_size] for i in range(0, len(order), cfg.batch_size)]
            epoch_losses = []
            prepared = region.run_ahead(_prepare, batches, 1, train_pairs, rng_augment, cfg)
            for b, batch in enumerate(prepared):
                value = _train_step(model, opt, batch, rng_dropout)
                history.append(value)
                if not np.isfinite(value):
                    raise NonFiniteLossError(epoch, b, history)
                epoch_losses.append(value)
            train_loss = float(np.mean(epoch_losses, dtype=np.float64))

            val_losses, val_dices = zip(*(_validation_step(model, v, l) for v, l in val_pairs))
            val_loss = float(np.mean(val_losses, dtype=np.float64))
            val_dice = float(np.mean(val_dices, dtype=np.float64))
            log.epochs.append(
                EpochStats(epoch, train_loss, val_loss, val_dice, time.perf_counter() - started)
            )

            if val_loss < best_val:
                best_val = val_loss
                log.best_epoch = epoch
                best_arrays = {k: a.copy() for k, a in model.named_arrays().items()}
            if epoch - log.best_epoch >= cfg.patience:
                log.stop_reason = "early-stop"
                break
        else:
            log.stop_reason = "max-epochs"

    if best_arrays is not None:
        for name, arr in model.named_arrays().items():
            np.copyto(arr, best_arrays[name])
    return model, log
