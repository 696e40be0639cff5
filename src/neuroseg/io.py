"""Bit-exact binary volume I/O (MVOX format) and dataset manifests.

MVOX layout, all little-endian: magic ``MVX1``; dims as 3 x u32; spacing as
3 x f32; voxel-to-world affine as 12 x f32 (row-major 3 x 4); one dtype code
byte (0 = float32 intensities, 1 = uint8 labels); payload length in bytes as
u64; then the raw voxel payload with x varying fastest. Writing what was read
reproduces the file byte for byte.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from .core import NUM_CLASSES, AffineTransform, LabelMap, Volume

MAGIC = b"MVX1"
_HEADER = struct.Struct("<4s3I3f12fBQ")
DTYPE_F32 = 0
DTYPE_U8 = 1


class VolumeFormatError(ValueError):
    """Base class for malformed volume files."""


class BadMagicError(VolumeFormatError):
    pass


class TruncatedPayloadError(VolumeFormatError):
    pass


class NonFiniteDataError(VolumeFormatError):
    pass


class LabelRangeError(VolumeFormatError):
    pass


def write_volume(obj: Union[Volume, LabelMap], path) -> None:
    """Serialize a Volume or LabelMap to MVOX."""
    if isinstance(obj, Volume):
        code, arr = DTYPE_F32, np.asarray(obj.data, dtype="<f4")
    elif isinstance(obj, LabelMap):
        code, arr = DTYPE_U8, np.asarray(obj.labels, dtype=np.uint8)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    payload = arr.tobytes(order="F")  # x fastest
    affine12 = np.hstack(
        [obj.affine.linear, obj.affine.translation[:, None]]
    ).astype("<f4")
    header = _HEADER.pack(
        MAGIC,
        *(int(d) for d in obj.dims),
        *(np.float32(s) for s in obj.spacing),
        *affine12.reshape(-1),
        code,
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_volume(path) -> Union[Volume, LabelMap]:
    """Load an MVOX file; the dtype code selects Volume vs LabelMap."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than the fixed header")
    fields = _HEADER.unpack_from(raw)
    magic = fields[0]
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    dims = fields[1:4]
    spacing = fields[4:7]
    affine12 = np.array(fields[7:19], dtype=np.float64).reshape(3, 4)
    code = fields[19]
    declared = fields[20]
    if code not in (DTYPE_F32, DTYPE_U8):
        raise VolumeFormatError(f"{path}: unknown dtype code {code}")
    itemsize = 4 if code == DTYPE_F32 else 1
    expected = int(np.prod(dims)) * itemsize
    payload = raw[_HEADER.size :]
    if declared != expected or len(payload) < declared:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, "
            f"declared {declared}, grid needs {expected}"
        )
    dtype = "<f4" if code == DTYPE_F32 else np.uint8
    data = np.frombuffer(payload[:declared], dtype=dtype).reshape(dims, order="F")
    affine = AffineTransform(affine12[:, :3], affine12[:, 3])
    if code == DTYPE_F32:
        if not np.all(np.isfinite(data)):
            raise NonFiniteDataError(f"{path}: non-finite intensities")
        return Volume(data, spacing, affine)
    if data.size and data.max() >= NUM_CLASSES:
        raise LabelRangeError(
            f"{path}: label {int(data.max())} outside [0, {NUM_CLASSES - 1}]"
        )
    return LabelMap(data, spacing, affine)


def read_as(path, kind: type) -> Union[Volume, LabelMap]:
    """``read_volume(path)``, which must hold a ``kind`` (``Volume`` or
    ``LabelMap``): a file of the other kind raises ``VolumeFormatError``."""
    obj = read_volume(path)
    if not isinstance(obj, kind):
        raise VolumeFormatError(
            f"{path}: holds a {type(obj).__name__}, expected a {kind.__name__}"
        )
    return obj


@dataclass(frozen=True)
class ManifestRecord:
    """One dataset entry: paired volume/labels files plus modality and split tags."""

    volume_path: Path
    labels_path: Path
    modality: str
    split: str  # "train" | "validation" | "test"
    note: str = ""  # free-form tag, e.g. corruption marker


def write_manifest(records: Sequence[ManifestRecord], path) -> None:
    """Write records as comma-separated lines; paths are stored as given.

    Records carry four base columns (volume, labels, modality, split); a
    fifth note column is emitted only when non-empty.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for rec in records:
            row = [str(rec.volume_path), str(rec.labels_path), rec.modality, rec.split]
            if rec.note:
                row.append(rec.note)
            writer.writerow(row)


def read_manifest(path) -> List[ManifestRecord]:
    """Read a manifest; relative paths are resolved against its directory."""
    base = Path(path).parent
    records = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 4:
                raise ValueError(f"{path}: manifest line needs 4 columns, got {row}")
            vol, lab, modality, split = (c.strip() for c in row[:4])
            note = row[4].strip() if len(row) > 4 else ""
            records.append(
                ManifestRecord(
                    volume_path=(base / vol) if not Path(vol).is_absolute() else Path(vol),
                    labels_path=(base / lab) if not Path(lab).is_absolute() else Path(lab),
                    modality=modality,
                    split=split,
                    note=note,
                )
            )
    return records
