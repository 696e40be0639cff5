import numpy as np
import pytest

from neuroseg.core import AffineTransform, LabelMap, Volume
from neuroseg.io import (
    BadMagicError,
    LabelRangeError,
    ManifestRecord,
    NonFiniteDataError,
    TruncatedPayloadError,
    VolumeFormatError,
    read_manifest,
    read_volume,
    write_manifest,
    write_volume,
)


@pytest.fixture
def volume(rng):
    data = rng.random((4, 4, 4), dtype=np.float32) * 90 + 5
    affine = AffineTransform(np.diag([1.0, 1.5, 3.0]), [0.5, -1.0, 2.0])
    return Volume(data, spacing=(1.0, 1.5, 3.0), affine=affine)


@pytest.fixture
def labelmap(rng):
    labels = rng.integers(0, 28, (5, 3, 2), dtype=np.uint8)
    return LabelMap(labels, spacing=(2.0, 2.0, 2.0))


class TestRoundTrip:
    def test_volume_file_bytes_stable(self, tmp_path, volume):
        p1 = tmp_path / "a.mvx"
        p2 = tmp_path / "b.mvx"
        write_volume(volume, p1)
        loaded = read_volume(p1)
        write_volume(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.data, volume.data)
        assert loaded.spacing == volume.spacing
        assert np.array_equal(loaded.affine.as_matrix(), volume.affine.as_matrix())

    def test_labels_file_bytes_stable(self, tmp_path, labelmap):
        p1 = tmp_path / "a.mvx"
        p2 = tmp_path / "b.mvx"
        write_volume(labelmap, p1)
        loaded = read_volume(p1)
        assert isinstance(loaded, LabelMap)
        write_volume(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.labels, labelmap.labels)

    def test_payload_is_x_fastest(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        path = tmp_path / "v.mvx"
        write_volume(Volume(data), path)
        payload = np.frombuffer(path.read_bytes()[-32:], dtype="<f4")
        # x varies fastest: (0,0,0), (1,0,0), (0,1,0), (1,1,0), ...
        assert payload.tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


class TestLoadErrors:
    def test_bad_magic(self, tmp_path, volume):
        path = tmp_path / "v.mvx"
        write_volume(volume, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_volume(path)

    def test_truncated_payload(self, tmp_path, volume):
        path = tmp_path / "v.mvx"
        write_volume(volume, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(TruncatedPayloadError):
            read_volume(path)

    @pytest.mark.parametrize("kind", ["volume", "labelmap"])
    def test_trailing_bytes(self, tmp_path, kind, request):
        path = tmp_path / "v.mvx"
        write_volume(request.getfixturevalue(kind), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(VolumeFormatError, match="1 bytes after"):
            read_volume(path)

    def test_non_finite_payload(self, tmp_path, volume):
        path = tmp_path / "v.mvx"
        write_volume(volume, path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.asarray([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteDataError):
            read_volume(path)

    def test_label_out_of_range(self, tmp_path, labelmap):
        path = tmp_path / "l.mvx"
        write_volume(labelmap, path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 28
        path.write_bytes(bytes(raw))
        with pytest.raises(LabelRangeError):
            read_volume(path)

    def test_errors_are_distinct_types(self):
        kinds = {BadMagicError, TruncatedPayloadError, NonFiniteDataError, LabelRangeError}
        assert len(kinds) == 4


class TestManifest:
    def test_round_trip_and_resolution(self, tmp_path):
        records = [
            ManifestRecord("s0_mprage.mvx", "s0_labels.mvx", "mprage", "train"),
            ManifestRecord("s1_ct.mvx", "s1_labels.mvx", "ct", "test", "corrupt:noise-0.5"),
            ManifestRecord(tmp_path / "a" / "s2.mvx", "s2_labels.mvx", "ct", "validation"),
        ]
        path = tmp_path / "m" / "manifest.csv"
        path.parent.mkdir()
        write_manifest(records, path)
        loaded = read_manifest(path)
        assert len(loaded) == 3
        assert loaded[0].volume_path == tmp_path / "m" / "s0_mprage.mvx"
        assert loaded[2].volume_path == tmp_path / "a" / "s2.mvx"  # absolute: kept as is
        assert loaded[2].labels_path == tmp_path / "m" / "s2_labels.mvx"
        assert loaded[0].note == ""
        assert loaded[1].split == "test"
        assert loaded[1].note == "corrupt:noise-0.5"

    def test_rejects_short_rows(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("a.mvx,b.mvx,mprage\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    @pytest.mark.parametrize("split", ["Train", "training", ""])
    def test_rejects_unknown_split(self, tmp_path, split):
        path = tmp_path / "manifest.csv"
        path.write_text(f"a.mvx,a_labels.mvx,mprage,train\nb.mvx,b_labels.mvx,mprage,{split}\n")
        with pytest.raises(ValueError, match="b.mvx"):
            read_manifest(path)
