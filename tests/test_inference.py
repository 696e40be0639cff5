import numpy as np
import pytest

from neuroseg import autodiff as ad
from neuroseg.core import StructureTable, Volume
from neuroseg.inference import (
    McSampleSet,
    mc_segment,
    uncertainty,
    write_uncertainty_report,
)
from neuroseg.unet import ModelSpec, UNet3D


def _samples():
    """Four passes: every structure at 100 voxels except structure 2, which
    alternates 90/110 (mu 100, population sigma 10, CV 0.1), and structure 5,
    absent from every pass. Background varies widely and is never scored."""
    volumes = np.full((4, 28), 100, dtype=np.int64)
    volumes[:, 0] = [1000, 5000, 200, 9000]
    volumes[:, 2] = [90, 110, 90, 110]
    volumes[:, 5] = 0
    return McSampleSet(n=4, volumes=volumes, seeds=[0, 1, 2, 3])


class TestUncertainty:
    def test_cv_on_hand_made_samples(self):
        report = uncertainty(_samples(), StructureTable.default(), threshold=0.01)
        assert report.mean_volume[2] == 100.0
        assert report.std_volume[2] == 10.0
        assert report.cv_per_structure[2] == 0.1
        assert report.cv_per_structure[1] == 0.0
        # structure 5 is flagged and left out of the mean over 26 structures
        assert report.excluded == [5]
        assert 5 not in report.cv_per_structure
        assert report.mean_volume[5] == 0.0
        assert len(report.cv_per_structure) == 26
        assert report.cv == 0.1 / 26

    def test_verdict_at_threshold(self):
        cv = 0.1 / 26
        table = StructureTable.default()
        assert uncertainty(_samples(), table, threshold=cv).verdict == "pass"
        below = np.nextafter(cv, 0.0)
        assert uncertainty(_samples(), table, threshold=below).verdict == "warn"

    def test_needs_two_samples_and_one_structure(self):
        table = StructureTable.default()
        one = McSampleSet(n=1, volumes=np.ones((1, 28), dtype=np.int64), seeds=[0])
        with pytest.raises(ValueError, match="at least 2"):
            uncertainty(one, table, 0.01)
        empty = McSampleSet(n=2, volumes=np.zeros((2, 28), dtype=np.int64), seeds=[0, 1])
        with pytest.raises(ValueError, match="no structure"):
            uncertainty(empty, table, 0.01)

    def test_report_marks_absent_structure(self, tmp_path):
        table = StructureTable.default()
        report = uncertainty(_samples(), table, threshold=0.01)
        path = tmp_path / "uncertainty.csv"
        write_uncertainty_report(report, table, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows[5][0] == "5" and rows[5][-1] == "absent"
        assert rows[2][-1] == repr(0.1)
        assert rows[-1] == ["summary", "", repr(report.cv), repr(0.01), "pass"]


class TestMcSegment:
    def test_fusion_does_not_depend_on_sample_order(self):
        spec = ModelSpec(
            features=2, depth=2, bottleneck_layers=1, num_classes=4, input_dims=(8, 8, 8)
        )
        model = UNet3D(spec, seed=21)
        gen = np.random.default_rng(8)
        x = gen.random((1, 1, 8, 8, 8), dtype=np.float32) * 100
        model.forward(x, mode="train", rng=np.random.default_rng(0))  # batch-norm stats
        v = Volume(x[0, 0])
        fused, samples = mc_segment(model, v, n=5, seed=3)

        # the same passes, each with its own child rng, run in reverse order;
        # float32 probabilities sum exactly in float64, so the order of the
        # sum cannot change the fused labels either
        children = np.random.SeedSequence(3).spawn(5)
        total = np.zeros((4, 8, 8, 8))
        for i in reversed(range(5)):
            with ad.no_grad():
                P = model.forward(
                    x, mode="eval", dropout_active=True, rng=np.random.default_rng(children[i])
                )
            total += P.data[0]
            counts = np.bincount(np.argmax(P.data[0], axis=0).ravel(), minlength=4)
            assert np.array_equal(samples.volumes[i], counts)
        assert np.array_equal(fused.labels, np.argmax(total, axis=0))
        assert len(np.unique(samples.volumes, axis=0)) > 1  # the passes differ

    def test_encoder_block_1_runs_once_per_volume(self, monkeypatch):
        spec = ModelSpec(
            features=2, depth=2, bottleneck_layers=1, num_classes=4, input_dims=(8, 8, 8)
        )
        model = UNet3D(spec, seed=2)
        x = np.random.default_rng(1).random((1, 1, 8, 8, 8), dtype=np.float32)
        model.forward(x, mode="train", rng=np.random.default_rng(0))  # batch-norm stats
        block1 = {id(stage.conv.w) for stage in model.encoders[0]}
        calls = []
        dropouts = []
        conv3d, dropout = ad.conv3d, ad.dropout

        def counting(x, w, b):
            calls.append((x.shape[1], id(w) in block1))
            return conv3d(x, w, b)

        def counting_dropout(x, rate, rng):
            dropouts.append(x.shape[1:])
            return dropout(x, rate, rng)

        monkeypatch.setattr(ad, "conv3d", counting)
        monkeypatch.setattr(ad, "dropout", counting_dropout)
        with ad.no_grad():
            model.forward(x, "eval", True, np.random.default_rng(0))
        per_forward = len(calls)
        calls.clear()
        dropouts.clear()
        mc_segment(model, Volume(x[0, 0]), n=5, seed=0)
        assert [c for c in calls if c[0] == spec.in_channels] == [(spec.in_channels, True)]
        assert sum(in_block1 for _, in_block1 in calls) == 2  # its two convolutions
        assert len(calls) == 2 + 5 * (per_forward - 2)  # the others run in every pass
        # every pass keeps all 2 * depth dropouts, two of them on the full
        # grid: encoder block 1's and the last decoder block's
        assert len(dropouts) == 5 * 2 * spec.depth
        assert dropouts.count((spec.features, 8, 8, 8)) == 5 * 2
