import dataclasses
import json

import numpy as np
import pytest

from neuroseg import autodiff as ad
from neuroseg import cli
from neuroseg.autodiff import parallel_workers
from neuroseg.core import normalize_intensity
from neuroseg.inference import mc_segment, uncertainty, write_uncertainty_report
from neuroseg.io import read_manifest, read_volume, write_volume
from neuroseg.phantom import default_phantom_spec, generate_dataset, generate_subject
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
    write_uncertainty_report(uncertainty(samples, 0.01), path)
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


class TestTrain:
    def test_patience_defaults_to_epochs(self, setup, tmp_path):
        root, _, _ = setup
        code, record = _run(
            [
                "train", "--manifest", str(root / "phantoms" / "manifest.csv"),
                "--modality", "mprage", "--features", "2", "--epochs", "3",
            ],
            tmp_path / "train",
        )
        assert code == 0
        assert record["patience"] == 3 and record["max_epochs"] == 3


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


    def test_config_modality_picks_the_evaluated_records(self, setup, tmp_path):
        # one value picks both the CV threshold and the scored test records
        _, _, checkpoint = setup  # a 16^3 model; MPRAGE and CT share the grid
        spec = default_phantom_spec(dims=(16, 16, 16), modalities=("mprage", "ct"), seed=2)
        manifest = generate_dataset(spec, 5, tmp_path / "phantoms", test_fraction=0.2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"modality": "ct"}))
        args = [
            "evaluate", "--manifest", str(manifest), "--checkpoint", str(checkpoint),
            "--mc-samples", "2",
        ]
        scored = {}
        for name, extra in (
            ("flag", ["--modality", "ct"]), ("config", ["--config", str(config)]), ("bare", [])
        ):
            code, record = _run(args + extra, tmp_path / name)
            assert code == 0 and record["volumes"] == 1
            scored[name] = [
                (tmp_path / name / f).read_text() for f in ("evaluation.csv", "scatter.csv")
            ]
        assert scored["config"] == scored["flag"]
        assert "_ct.mvx" in scored["flag"][0] and "_mprage.mvx" not in scored["flag"][0]
        assert "_mprage.mvx" in scored["bare"][0] and "_ct.mvx" not in scored["bare"][0]


class TestRunRecord:
    def test_segment_records_registration_levels(self, setup, tmp_path):
        _, _, checkpoint = setup  # a 16^3 model; the scans are 32^3
        spec = default_phantom_spec(dims=(32, 32, 32), modalities=("mprage",), seed=1)
        paths = []
        for subject in (0, 1):
            path = tmp_path / f"subject{subject}.mvx"
            write_volume(generate_subject(spec, subject)[1]["mprage"], path)
            paths.append(str(path))
        args = ["segment", "--reference", paths[0], "--input", paths[1]]
        code, record = _run(
            args + ["--checkpoint", str(checkpoint), "--mc-samples", "2"], tmp_path / "s"
        )
        assert code in (0, 2)
        levels = record["registration_levels"]
        assert [t["level"] for t in levels] == [4, 2, 1]
        for t, cap in zip(levels, [80, 80, 50]):
            assert t["iterations"] <= cap
            assert t["stop_reason"] in ("budget", "plateau")
            assert t["best_cost"] <= t["start_cost"]
        assert not any(t["diverged"] for t in levels)
        assert record["registration_converged"]

    def test_segment_records_timings_and_mc_volumes(self, setup, tmp_path):
        _, records, checkpoint = setup  # scans and model grid are both 16^3
        args = [
            "segment", "--reference", str(records[0].volume_path),
            "--input", str(records[1].volume_path), "--checkpoint", str(checkpoint),
            "--mc-samples", "3",
        ]
        _, record = _run(args, tmp_path / "s")
        timings = record["timings"]
        stages = ["load", "register", "resample", "normalize", "mc", "map_back", "write"]
        assert set(timings) == {f"{stage}_s" for stage in stages} | {"total_s"}
        assert all(t >= 0 for t in timings.values())
        assert sum(timings[f"{stage}_s"] for stage in stages) <= timings["total_s"]
        volumes = np.asarray(record["mc_volumes"])
        assert volumes.shape == (3, 28)
        assert (volumes.sum(axis=1) == 16**3).all()
        _, record = _run(args + ["--mc", "off"], tmp_path / "off")
        assert record["mc_volumes"] is None and record["timings"]["mc_s"] >= 0

    def test_train_checkpoint_bytes_do_not_depend_on_workers(self, setup, tmp_path, monkeypatch):
        root, _, _ = setup
        if ad._blas_thread_api() is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
        args = [
            "train", "--manifest", str(root / "phantoms" / "manifest.csv"),
            "--modality", "mprage", "--features", "2", "--depth", "2", "--epochs", "2",
            "--seed", "3",
        ]
        out = {}
        for workers in (1, 3):
            monkeypatch.setattr(ad, "parallel_workers", lambda: workers)
            code, record = _run(args, tmp_path / str(workers))
            assert code == 0
            assert record["workers"] == workers
            assert record["blas_pinned"] == (workers > 1)
            log = (tmp_path / str(workers) / "train_log.csv").read_text().splitlines()
            out[workers] = (
                (tmp_path / str(workers) / record["checkpoint"]).read_bytes(),
                [row.rsplit(",", 1)[0] for row in log[1:-1]],  # without epoch_s
                log[-1],
            )
        assert out[1] == out[3]

    def test_segment_and_uncertainty_record_mc_workers(self, setup, tmp_path):
        _, records, checkpoint = setup
        common = ["--input", str(records[1].volume_path), "--checkpoint", str(checkpoint)]
        segment = ["segment", "--reference", str(records[0].volume_path)] + common
        for n in (2, 3):
            for i, args in enumerate((segment, ["uncertainty"] + common)):
                _, record = _run(args + ["--mc-samples", str(n)], tmp_path / f"{n}-{i}")
                assert record["mc_workers"] == min(parallel_workers(), n)
                assert record["blas_pinned"] == (record["mc_workers"] > 1)
        _, record = _run(segment + ["--mc", "off"], tmp_path / "off")
        assert record["mc_workers"] is None and record["blas_pinned"] is False


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

    @pytest.mark.parametrize("command", ["segment", "evaluate", "uncertainty"])
    def test_one_mc_sample_exits_1_before_writing(
        self, setup, tmp_path, capsys, monkeypatch, command
    ):
        root, records, checkpoint = setup
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: pytest.fail("model loaded"))
        inputs = {
            "segment": ["--input", str(records[1].volume_path),
                        "--reference", str(records[0].volume_path)],
            "evaluate": ["--manifest", str(root / "phantoms" / "manifest.csv")],
            "uncertainty": ["--input", str(records[1].volume_path)],
        }[command]
        out = tmp_path / "o"
        code = cli.run(
            [command] + inputs
            + ["--checkpoint", str(checkpoint), "--mc-samples", "1", "--out", str(out)]
        )
        assert code == 1
        assert "at least 2 MC samples" in capsys.readouterr().err
        assert not (out / "run_record.json").exists() and not out.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["segment", "--bogus", "1"], 1),
            (["segment", "--input", "a.mvx", "--checkpoint", "m.ckpt", "--out", "o"], 1),
            (["uncertainty", "--input", "a.mvx", "--checkpoint", "m.ckpt", "--mc", "off",
              "--out", "o"], 1),
            (["segment", "--help"], 0),
        ],
    )
    def test_usage_errors_exit_1(self, argv, code, capsys):
        # exit 2 is a QC warning, so a usage error must not use argparse's 2;
        # --help still exits 0
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert "usage: segctl" in (out if code == 0 else err)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["segment", "--input", "{labels}", "--reference", "{volume}"], "Volume"),
            (["segment", "--input", "{volume}", "--reference", "{labels}"], "Volume"),
            (["uncertainty", "--input", "{labels}"], "Volume"),
            (["evaluate", "--manifest", "{swapped}"], "Volume"),
            (["evaluate", "--manifest", "{no_labels}"], "LabelMap"),
            (["train", "--manifest", "{swapped}", "--modality", "mprage"], "Volume"),
            (["train", "--manifest", "{no_labels}", "--modality", "mprage"], "LabelMap"),
        ],
        ids=[
            "segment-input", "segment-reference", "uncertainty-input",
            "evaluate-volume", "evaluate-labels", "train-volume", "train-labels",
        ],
    )
    def test_wrong_kind_of_file_exits_1(self, setup, tmp_path, capsys, argv, expected):
        # a label map where an intensity volume belongs, or the reverse
        _, records, checkpoint = setup
        paths = {
            "volume": records[1].volume_path,
            "labels": records[1].labels_path,
            "swapped": tmp_path / "swapped.csv",
            "no_labels": tmp_path / "no_labels.csv",
        }
        paths["swapped"].write_text(
            "".join(f"{r.labels_path},{r.volume_path},mprage,{r.split}\n" for r in records)
        )
        paths["no_labels"].write_text(
            "".join(f"{r.volume_path},{r.volume_path},mprage,{r.split}\n" for r in records)
        )
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] != "train":
            argv += ["--checkpoint", str(checkpoint), "--mc-samples", "2"]
        out = tmp_path / "o"
        assert cli.run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"expected a {expected}" in err
        assert not out.exists()

    @pytest.mark.parametrize("mc", ["on", "off"])
    def test_evaluate_off_the_model_grid_exits_1(self, setup, tmp_path, capsys, mc):
        # evaluate scores volumes on their own grid: a 24^3 test volume does
        # not fit the 16^3 model, and nothing is registered or resampled
        _, _, checkpoint = setup
        spec = default_phantom_spec(dims=(24, 24, 24), modalities=("mprage",), seed=3)
        manifest = generate_dataset(spec, 5, tmp_path / "phantoms", test_fraction=0.2)
        out = tmp_path / "o"
        code = cli.run(
            [
                "evaluate", "--manifest", str(manifest), "--checkpoint", str(checkpoint),
                "--mc", mc, "--mc-samples", "2", "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "24, 24, 24" in err and "16, 16, 16" in err
        assert not (out / "summary.json").exists()
        assert not (out / "run_record.json").exists()


class TestGoldenPath:
    """phantoms -> train one epoch -> segment -> evaluate -> uncertainty at
    16^3, through ``cli.run`` as a user would, and a bad checkpoint."""

    RECORD_KEYS = {
        "phantoms": {
            "command", "subjects", "test_fraction", "validation_fraction", "corrupt",
            "seed", "manifest",
        },
        "train": {
            "command", "manifest", "modality", "learning_rate", "max_epochs", "patience",
            "batch_size", "translation_voxels", "rotation_degrees", "crop_fraction",
            "seed", "validation_fraction", "features", "depth", "bottleneck",
            "input_dims", "checkpoint", "best_epoch", "stop_reason", "workers",
            "blas_pinned", "peak_rss_mb",
        },
        "segment": {
            "command", "input", "reference", "checkpoint", "modality", "mc", "mc_samples",
            "dropout_rate", "cv_threshold", "seed", "registration_converged",
            "registration_cost", "registration_levels", "cv", "verdict", "mc_volumes",
            "mc_workers", "blas_pinned", "timings", "peak_rss_mb",
        },
        "evaluate": {
            "command", "manifest", "checkpoint", "mc", "mc_samples", "dropout_rate", "seed",
            "volumes", "d_a_mean", "d_a_std", "d_v_mean", "d_v_std", "pearson_da_cv",
            "pearson_note",
        },
        "uncertainty": {
            "command", "input", "checkpoint", "mc_samples", "dropout_rate", "cv_threshold",
            "seed", "cv", "verdict", "mc_workers", "blas_pinned",
        },
    }

    def test_phantoms_train_segment_evaluate_uncertainty(self, tmp_path):
        data = tmp_path / "phantoms"
        code, record = _run(
            [
                "phantoms", "--subjects", "5", "--dims", "16,16,16",
                "--modalities", "mprage", "--test-fraction", "0.2", "--seed", "4",
            ],
            data,
        )
        assert code == 0 and set(record) == self.RECORD_KEYS["phantoms"]
        manifest = data / "manifest.csv"
        records = read_manifest(manifest)
        test = next(r for r in records if r.split == "test")
        reference = next(r for r in records if r.split == "train")

        code, record = _run(
            [
                "train", "--manifest", str(manifest), "--modality", "mprage",
                "--features", "2", "--epochs", "1", "--patience", "1",
            ],
            tmp_path / "train",
        )
        assert code == 0 and set(record) == self.RECORD_KEYS["train"]
        assert record["stop_reason"] == "max-epochs"
        assert record["workers"] == parallel_workers()
        assert record["blas_pinned"] == (record["workers"] > 1)
        assert isinstance(record["peak_rss_mb"], float) and record["peak_rss_mb"] > 0
        log = (tmp_path / "train" / "train_log.csv").read_text().splitlines()
        assert log[0].split(",")[-1] == "epoch_s" and len(log) == 3
        checkpoint = tmp_path / "train" / record["checkpoint"]

        mc = ["--checkpoint", str(checkpoint), "--mc-samples", "3"]
        code, record = _run(
            ["segment", "--input", str(test.volume_path),
             "--reference", str(reference.volume_path)] + mc,
            tmp_path / "segment",
        )
        assert code in (0, 2) and set(record) == self.RECORD_KEYS["segment"]
        assert (code == 2) == (record["verdict"] == "warn")
        assert read_volume(tmp_path / "segment" / "segmentation.mvx").dims == (16, 16, 16)
        assert len(record["mc_volumes"]) == 3
        assert isinstance(record["peak_rss_mb"], float) and record["peak_rss_mb"] > 0

        code, record = _run(["evaluate", "--manifest", str(manifest)] + mc, tmp_path / "eval")
        assert code == 0 and set(record) == self.RECORD_KEYS["evaluate"]
        assert record["volumes"] == 1
        assert record["pearson_da_cv"] is None  # one volume: no correlation, a note

        code, record = _run(
            ["uncertainty", "--input", str(test.volume_path)] + mc, tmp_path / "unc"
        )
        assert code in (0, 2) and set(record) == self.RECORD_KEYS["uncertainty"]
        assert (code == 2) == (record["verdict"] == "warn")

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(checkpoint.read_bytes()[:-100])
        for command in (
            ["segment", "--input", str(test.volume_path), "--reference",
             str(reference.volume_path)],
            ["evaluate", "--manifest", str(manifest)],
            ["uncertainty", "--input", str(test.volume_path)],
        ):
            out = tmp_path / f"bad-{command[0]}"
            assert cli.run(command + ["--checkpoint", str(bad), "--out", str(out)]) == 1
            assert not (out / "run_record.json").exists()
