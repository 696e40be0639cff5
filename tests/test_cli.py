import dataclasses
import json

import numpy as np
import pytest

from neuroseg import cli
from neuroseg.core import StructureTable, normalize_intensity
from neuroseg.inference import mc_segment, uncertainty, write_uncertainty_report
from neuroseg.io import read_manifest, read_volume
from neuroseg.phantom import default_phantom_spec, generate_dataset
from neuroseg.unet import ModelSpec, UNet3D, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """Five 16^3 MPRAGE phantoms (one in the test split) and a checkpoint
    trained at dropout 0.05 (one train-mode forward, enough for batch-norm
    statistics)."""
    root = tmp_path_factory.mktemp("cli")
    spec = default_phantom_spec(dims=(16, 16, 16), modalities=("mprage",), seed=2)
    records = read_manifest(generate_dataset(spec, 5, root / "phantoms", test_fraction=0.2))
    model = UNet3D(
        ModelSpec(
            features=2, depth=2, bottleneck_layers=1, input_dims=(16, 16, 16), dropout_rate=0.05
        ),
        seed=1,
    )
    x = normalize_intensity(read_volume(records[0].volume_path)).data[None, None]
    model.forward(x, mode="train", rng=np.random.default_rng(0))
    checkpoint = root / "model.ckpt"
    save_checkpoint(model, checkpoint)
    return root, records, checkpoint


def _run(args, out):
    code = cli.run(args + ["--out", str(out)])
    return code, json.loads((out / "run_record.json").read_text())


def _uncertainty_csv(checkpoint, volume_path, rate, n, seed, path):
    """The report of the uncertainty command, computed directly at ``rate``."""
    model = load_checkpoint(checkpoint)
    model.spec = dataclasses.replace(model.spec, dropout_rate=rate)
    _, samples = mc_segment(model, normalize_intensity(read_volume(volume_path)), n, seed)
    table = StructureTable.default()
    write_uncertainty_report(uncertainty(samples, table, 0.01), table, path)
    return path.read_text()


class TestDropoutRate:
    def test_omitted_rate_is_the_checkpoints(self, setup, tmp_path):
        root, records, checkpoint = setup
        args = ["--checkpoint", str(checkpoint), "--mc-samples", "3"]
        volume = records[1].volume_path
        code, record = _run(["uncertainty", "--input", str(volume)] + args, tmp_path / "u")
        assert code in (0, 2)
        assert record["dropout_rate"] == 0.05
        want = _uncertainty_csv(checkpoint, volume, 0.05, 3, 0, tmp_path / "want.csv")
        assert (tmp_path / "u" / "uncertainty.csv").read_text() == want

        reference = ["--reference", str(records[0].volume_path)]
        code, record = _run(
            ["segment", "--input", str(volume)] + reference + args, tmp_path / "s"
        )
        assert code in (0, 2)
        assert record["dropout_rate"] == 0.05
        code, record = _run(
            ["evaluate", "--manifest", str(root / "phantoms" / "manifest.csv")] + args,
            tmp_path / "e",
        )
        assert code == 0
        assert record["dropout_rate"] == 0.05

    def test_flag_overrides_checkpoint_rate(self, setup, tmp_path):
        _, records, checkpoint = setup
        volume = records[1].volume_path
        args = ["uncertainty", "--input", str(volume), "--checkpoint", str(checkpoint)]
        code, record = _run(args + ["--mc-samples", "3", "--dropout-rate", "0.3"], tmp_path / "u")
        assert code in (0, 2)
        assert record["dropout_rate"] == 0.3
        got = (tmp_path / "u" / "uncertainty.csv").read_text()
        assert got == _uncertainty_csv(checkpoint, volume, 0.3, 3, 0, tmp_path / "a.csv")
        assert got != _uncertainty_csv(checkpoint, volume, 0.05, 3, 0, tmp_path / "b.csv")

    def test_train_default_is_model_spec_default(self):
        args = cli.build_parser().parse_args(
            ["train", "--manifest", "m.csv", "--modality", "mprage", "--out", "o"]
        )
        assert args.dropout_rate == ModelSpec().dropout_rate


class TestConfigFile:
    def test_config_value_used_and_flag_overrides(self, setup, tmp_path):
        _, records, checkpoint = setup
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mc-samples": 3, "seed": 4, "cv-threshold": 0.5}))
        args = [
            "uncertainty", "--input", str(records[1].volume_path),
            "--checkpoint", str(checkpoint), "--config", str(config),
        ]
        _, record = _run(args, tmp_path / "from_file")
        assert (record["mc_samples"], record["seed"], record["cv_threshold"]) == (3, 4, 0.5)
        _, record = _run(args + ["--mc-samples", "2", "--seed", "0"], tmp_path / "flags")
        assert (record["mc_samples"], record["seed"], record["cv_threshold"]) == (2, 0, 0.5)
        _, record = _run(args[:-2], tmp_path / "defaults")
        assert (record["mc_samples"], record["seed"], record["cv_threshold"]) == (15, 0, 0.01)


class TestErrors:
    def test_short_checkpoint_exits_1(self, setup, tmp_path, capsys):
        _, records, _ = setup
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(b"NSU1\x00")
        code = cli.run(
            [
                "uncertainty", "--input", str(records[1].volume_path),
                "--checkpoint", str(bad), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "short.ckpt" in capsys.readouterr().err

    def test_one_mc_sample_exits_1_before_writing(self, setup, tmp_path, capsys):
        _, records, checkpoint = setup
        out = tmp_path / "o"
        code = cli.run(
            [
                "uncertainty", "--input", str(records[1].volume_path),
                "--checkpoint", str(checkpoint), "--mc-samples", "1", "--out", str(out),
            ]
        )
        assert code == 1
        assert "at least 2 MC samples" in capsys.readouterr().err
        assert not (out / "run_record.json").exists()
