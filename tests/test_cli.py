import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from neuroseg import autodiff as ad
from neuroseg import cli
from neuroseg import train as train_module
from neuroseg.autodiff import parallel_workers
from neuroseg.core import LabelMap, normalize_intensity
from neuroseg.inference import mc_segment, uncertainty, write_uncertainty_report
from neuroseg.io import read_manifest, read_volume, write_manifest, write_volume
from neuroseg.phantom import (
    default_phantom_spec,
    generate_dataset,
    generate_subject,
    save_phantom_spec,
)
from neuroseg.train import TrainConfig
from neuroseg.unet import ModelSpec, UNet3D, load_checkpoint, save_checkpoint

from conftest import rewrite_header


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


def _pipeline_inputs(kind, root, records):
    """The command and input flags of one pipeline run: ``segment``
    registers records[1] to records[0], ``own-grid`` segments records[1] on
    its own grid and ``evaluate`` scores the test split."""
    return {
        "segment": ["segment", "--input", str(records[1].volume_path),
                    "--reference", str(records[0].volume_path)],
        "own-grid": ["segment", "--input", str(records[1].volume_path)],
        "evaluate": ["evaluate", "--manifest", str(root / "phantoms" / "manifest.csv")],
    }[kind]


def _uncertainty_csv(checkpoint, volume_path, rate, n, seed, path):
    """The QC report of ``segment`` without ``--reference``, computed
    directly at ``rate``."""
    model = load_checkpoint(checkpoint)
    model.spec = dataclasses.replace(model.spec, dropout_rate=rate)
    _, volumes = mc_segment(model, normalize_intensity(read_volume(volume_path)), n, seed)
    write_uncertainty_report(uncertainty(volumes, 0.01), path)
    return path.read_text()


class TestDropoutRate:
    def test_omitted_rate_is_the_checkpoints(self, setup, tmp_path):
        root, records, checkpoint = setup
        args = ["--checkpoint", str(checkpoint), "--mc-samples", "3"]
        volume = records[1].volume_path
        code, record = _run(["segment", "--input", str(volume)] + args, tmp_path / "u")
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
        args = ["segment", "--input", str(volume), "--checkpoint", str(checkpoint)]
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
    def test_bare_parse_takes_the_train_config_defaults(self):
        # the train-32 benchmark runs TrainConfig's defaults as segctl train's
        args = cli.build_parser().parse_args(
            ["train", "--manifest", "m", "--modality", "mprage", "--out", "o"]
        )
        assert cli._train_config(args) == TrainConfig(patience=TrainConfig.max_epochs)

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

    @pytest.mark.parametrize("flags", [["--epochs", "0"], ["--epochs", "2", "--patience", "0"]])
    def test_no_epoch_exits_1_before_writing(self, setup, tmp_path, capsys, flags):
        # a checkpoint whose batch norms never ran cannot be used by segment
        root, _, _ = setup
        out = tmp_path / "train"
        code = cli.run(
            [
                "train", "--manifest", str(root / "phantoms" / "manifest.csv"),
                "--modality", "mprage", "--features", "2", "--out", str(out),
            ]
            + flags
        )
        assert code == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, named",
        [("--aug-crop", "1.5", "crop_fraction"), ("--aug-crop", "0.6", "crop_fraction"),
         ("--aug-translation", "nan", "translation"), ("--lr", "-1", "learning_rate")],
    )
    def test_unusable_setting_exits_1_before_any_epoch(
        self, setup, tmp_path, capsys, monkeypatch, flag, value, named
    ):
        # a crop of 1.5 zeroes whole volumes and one of 0.6 can wipe every
        # label; nan overflowed in augment; a negative rate climbs the loss
        root, _, _ = setup
        monkeypatch.setattr(train_module, "augment", lambda *a: pytest.fail("epoch 1 began"))
        out = tmp_path / "train"
        code = cli.run(
            [
                "train", "--manifest", str(root / "phantoms" / "manifest.csv"),
                "--modality", "mprage", "--features", "2", "--epochs", "1", "--out", str(out),
                flag, value,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and value in err
        assert not out.exists()

    def test_training_labels_on_another_grid_exit_1_before_any_step(
        self, setup, tmp_path, capsys, monkeypatch
    ):
        # 16x32x8 labels for a 16^3 training scan: the voxel counts agree,
        # but the grids do not. Not the first record, which cmd_train reads
        # for the model's grid, so train() itself finds it.
        root, records, _ = setup
        k = max(i for i, r in enumerate(records) if r.split == "train")
        assert k > 0
        labels = tmp_path / "labels.mvx"
        truth = read_volume(records[k].labels_path).labels
        write_volume(LabelMap(truth.reshape(16, 32, 8)), labels)
        records = list(records)
        records[k] = dataclasses.replace(records[k], labels_path=labels)
        manifest = tmp_path / "manifest.csv"
        write_manifest(records, manifest)
        monkeypatch.setattr(train_module, "_train_step", lambda *a: pytest.fail("a step ran"))
        out = tmp_path / "train"
        code = cli.run(
            ["train", "--manifest", str(manifest), "--modality", "mprage", "--features", "2",
             "--epochs", "1", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {labels}: prediction grid (16, 16, 16) vs truth grid (16, 32, 8)"
        )
        assert not out.exists()


class TestConfigFile:
    def test_config_value_used_and_flag_overrides(self, setup, tmp_path):
        _, records, checkpoint = setup
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mc-samples": 3, "seed": 4, "cv-threshold": 0.5}))
        args = [
            "segment", "--input", str(records[1].volume_path),
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

    @pytest.mark.parametrize(
        "content, key, inputs",
        [
            ([3], None, "segment"),
            ({"mc-samples": [3]}, "mc-samples", "segment"),
            ({"cv-threshold": "low"}, "cv-threshold", "segment"),
            ({"mc": "ON"}, "mc", "segment"),
            ({"mc_samples": 1}, "mc_samples", "segment"),
            ("{not json", None, "segment"),
            ({"cv-threshold": True}, "cv-threshold", "segment"),
            ({"mc-samples": 3.9}, "mc-samples", "segment"),
            ({"seed": 1.5}, "seed", "segment"),
            ({"seed": True}, "seed", "segment"),
            ({"seed": -1}, "seed", "segment"),
            ({"seed": -1}, "seed", "evaluate"),
            ({"seed": "-1"}, "seed", "own-grid"),
            ({"cv-threshold": "nan"}, "cv-threshold", "segment"),
            ({"cv-threshold": float("nan")}, "cv-threshold", "own-grid"),
            ({"cv-threshold": float("inf")}, "cv-threshold", "evaluate"),
            ({"cv-threshold": -0.5}, "cv-threshold", "own-grid"),
        ],
        ids=[
            "list", "list-value", "bad-float", "mc-case", "unknown-key", "not-json",
            "bool-threshold", "float-samples", "float-seed", "bool-seed",
            "negative-seed", "evaluate-negative-seed", "own-grid-negative-seed",
            "nan-threshold", "json-nan-threshold", "json-infinity-threshold",
            "negative-threshold",
        ],
    )
    def test_bad_config_exits_1_before_any_work(
        self, setup, tmp_path, capsys, monkeypatch, content, key, inputs
    ):
        # each value is checked as its flag is, and a typo is not ignored
        root, records, checkpoint = setup
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: pytest.fail("model loaded"))
        config = tmp_path / "config.json"
        config.write_text(content if isinstance(content, str) else json.dumps(content))
        out = tmp_path / "o"
        code = cli.run(
            _pipeline_inputs(inputs, root, records)
            + ["--checkpoint", str(checkpoint), "--config", str(config), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config) in err
        assert key is None or f"error: config {config}: setting {key!r}: " in err
        if content in ({"seed": -1}, {"seed": "-1"}):
            assert "expected a non-negative integer, got '-1'" in err
        if key == "cv-threshold" and content[key] is not True:
            assert "expected a finite non-negative number" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, inputs",
        [
            ("segment", ["--input", "i", "--reference", "r"]),
            ("evaluate", ["--manifest", "m"]),
        ],
        ids=["segment", "evaluate"],
    )
    def test_config_keys_are_the_commands_settings_flags(
        self, tmp_path, capsys, command, inputs
    ):
        # an unknown key's error lists the keys the command's config may hold
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        argv = [command] + inputs + ["--checkpoint", "c", "--out", str(tmp_path / "o")]
        assert cli.run(argv + ["--config", str(config)]) == 1
        listed = capsys.readouterr().err.strip().split("not one of the settings ")[1].split(", ")
        assert listed == ["modality", "mc", "mc-samples", "dropout-rate", "cv-threshold", "seed"]
        valid = {"modality": "ct", "mc": "off"}
        for key in listed:  # each is a flag of the command
            args = cli.build_parser().parse_args(argv + [f"--{key}", valid.get(key, "2")])
            assert getattr(args, key.replace("-", "_")) is not None


class TestRunRecord:
    @staticmethod
    def _check_timings(record, stages):
        timings = record["timings"]
        assert set(timings) == {f"{stage}_s" for stage in stages} | {"total_s"}
        assert all(t >= 0 for t in timings.values())
        assert sum(timings[f"{stage}_s"] for stage in stages) <= timings["total_s"]
        assert record["peak_rss_mb"] > 0

    @staticmethod
    def _registration_levels(checkpoint, dims, tmp_path):
        """Segment seed-1 MPRAGE phantom 1 onto phantom 0 at ``dims`` and
        check the recorded pyramid levels; returns their factors."""
        spec = default_phantom_spec(dims=dims, modalities=("mprage",), seed=1)
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
        for t, cap in zip(levels, [80, 80, 50]):
            assert t["iterations"] <= cap
            assert t["stop_reason"] in ("budget", "plateau")
            assert t["best_cost"] <= t["start_cost"]
        assert not any(t["diverged"] for t in levels)
        assert record["registration_converged"]
        return [t["level"] for t in levels]

    def test_segment_records_registration_levels(self, setup, tmp_path):
        # a 16^3 model and 32^3 scans: one model voxel is 2 reference voxels,
        # so the pyramid stops at level 2
        _, _, checkpoint = setup
        assert self._registration_levels(checkpoint, (32, 32, 32), tmp_path) == [4, 2]

    def test_segment_on_the_model_grid_records_every_level(self, setup, tmp_path):
        _, _, checkpoint = setup  # the scans and the model grid are both 16^3
        assert self._registration_levels(checkpoint, (16, 16, 16), tmp_path) == [4, 2, 1]

    def test_segment_records_timings_and_mc_volumes(self, setup, tmp_path):
        _, records, checkpoint = setup  # scans and model grid are both 16^3
        args = [
            "segment", "--reference", str(records[0].volume_path),
            "--input", str(records[1].volume_path), "--checkpoint", str(checkpoint),
            "--mc-samples", "3",
        ]
        _, record = _run(args, tmp_path / "s")
        stages = ["load", "register", "resample", "normalize", "mc", "map_back", "write"]
        self._check_timings(record, stages)
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
            for i, args in enumerate((segment, ["segment"] + common)):
                _, record = _run(args + ["--mc-samples", str(n)], tmp_path / f"{n}-{i}")
                assert record["mc_workers"] == min(parallel_workers(), n)
                assert record["blas_pinned"] == (record["mc_workers"] > 1)
        # the one forward of --mc off runs in the region too, pinned as it is
        _, record = _run(segment + ["--mc", "off"], tmp_path / "off")
        assert record["mc_workers"] is None
        assert record["blas_pinned"] == (parallel_workers() > 1)

    def test_evaluate_records_mc_workers(self, setup, tmp_path, monkeypatch):
        # the record's count is that of every scan's passes: each scan's
        # passes ran in the one region the record reads
        root, _, checkpoint = setup
        args = [
            "evaluate", "--manifest", str(root / "phantoms" / "manifest.csv"),
            "--checkpoint", str(checkpoint),
        ]
        ran = []

        def recording_mc_segment(*a, **kw):
            ran.append(min(ad._region.get().workers, kw["n"]))
            return mc_segment(*a, **kw)

        monkeypatch.setattr(cli, "mc_segment", recording_mc_segment)
        pinnable = ad._blas_thread_api() is not None
        for workers in (1, 3) if pinnable else (1,):
            monkeypatch.setattr(ad, "parallel_workers", lambda: workers)
            for n in (2, 3):
                ran.clear()
                out = tmp_path / f"{workers}-{n}"
                code, record = _run(args + ["--mc-samples", str(n)], out)
                assert code == 0 and ran
                assert record["mc_workers"] == min(workers, n)
                assert ran == [record["mc_workers"]] * len(ran)
                assert record["blas_pinned"] == (record["mc_workers"] > 1)
        _, record = _run(args + ["--mc", "off"], tmp_path / "off")
        assert record["mc_workers"] is None
        assert record["blas_pinned"] == (ad.parallel_workers() > 1)  # as last patched

    def test_evaluate_records_timings_and_peak_rss(self, setup, tmp_path):
        root, _, checkpoint = setup
        args = [
            "evaluate", "--manifest", str(root / "phantoms" / "manifest.csv"),
            "--checkpoint", str(checkpoint), "--mc-samples", "2",
        ]
        code, record = _run(args, tmp_path / "e")
        assert code == 0
        self._check_timings(record, ["load", "score", "write"])

    def test_uncertainty_records_timings_and_peak_rss(self, setup, tmp_path):
        # segment without --reference times only the stages that ran
        _, records, checkpoint = setup
        args = [
            "segment", "--input", str(records[1].volume_path),
            "--checkpoint", str(checkpoint), "--mc-samples", "2",
        ]
        code, record = _run(args, tmp_path / "u")
        assert code in (0, 2)
        self._check_timings(record, ["load", "normalize", "mc", "write"])
        assert sorted(p.name for p in (tmp_path / "u").iterdir()) == [
            "run_record.json", "segmentation.mvx", "uncertainty.csv"
        ]


class TestErrors:
    def test_short_checkpoint_exits_1(self, setup, tmp_path, capsys):
        _, records, _ = setup
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(b"NSU1\x00")
        code = cli.run(
            [
                "segment", "--input", str(records[1].volume_path),
                "--checkpoint", str(bad), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "short.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("inputs", ["segment", "evaluate", "own-grid"])
    def test_one_mc_sample_exits_1_before_writing(
        self, setup, tmp_path, capsys, monkeypatch, inputs
    ):
        root, records, checkpoint = setup
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: pytest.fail("model loaded"))
        out = tmp_path / "o"
        code = cli.run(
            _pipeline_inputs(inputs, root, records)
            + ["--checkpoint", str(checkpoint), "--mc-samples", "1", "--out", str(out)]
        )
        assert code == 1
        assert "at least 2 MC samples" in capsys.readouterr().err
        assert not (out / "run_record.json").exists() and not out.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["segment", "--bogus", "1"], 1),
            (["segment", "--reference", "r.mvx", "--checkpoint", "m.ckpt", "--out", "o"], 1),
            (["uncertainty", "--input", "a.mvx", "--checkpoint", "m.ckpt", "--out", "o"], 1),
            (["segment", "--help"], 0),
            (["segment", "--input", "a.mvx", "--reference", "r.mvx", "--checkpoint", "m.ckpt",
              "--seed", "-1", "--out", "o"], 1),
            (["evaluate", "--manifest", "m.csv", "--checkpoint", "m.ckpt", "--seed", "-1",
              "--out", "o"], 1),
            (["segment", "--input", "a.mvx", "--checkpoint", "m.ckpt", "--seed", "-1",
              "--out", "o"], 1),
            (["train", "--manifest", "m.csv", "--modality", "mprage", "--seed", "-1",
              "--out", "o"], 1),
            (["segment", "--input", "a.mvx", "--checkpoint", "m.ckpt", "--cv-threshold", "nan",
              "--out", "o"], 1),
            (["segment", "--input", "a.mvx", "--reference", "r.mvx", "--checkpoint", "m.ckpt",
              "--cv-threshold", "inf", "--out", "o"], 1),
            (["evaluate", "--manifest", "m.csv", "--checkpoint", "m.ckpt", "--cv-threshold",
              "-0.5", "--out", "o"], 1),
        ],
    )
    def test_usage_errors_exit_1(self, argv, code, capsys):
        # exit 2 is a QC warning, so a usage error must not use argparse's 2;
        # --help still exits 0. A negative seed or a CV threshold no CV can
        # be judged against fails here, before any file is read or written,
        # and names the flag. There is no uncertainty command: segment
        # without --reference runs its QC
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert "usage: segctl" in (out if code == 0 else err)
        if "-1" in argv:
            assert "argument --seed: expected a non-negative integer, got '-1'" in err
        if "--cv-threshold" in argv:
            assert "argument --cv-threshold: expected a finite non-negative number" in err
        if argv[0] == "uncertainty":
            assert "invalid choice: 'uncertainty'" in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["segment", "--input", "{labels}", "--reference", "{volume}"], "Volume"),
            (["segment", "--input", "{volume}", "--reference", "{labels}"], "Volume"),
            (["segment", "--input", "{labels}"], "Volume"),
            (["evaluate", "--manifest", "{swapped}"], "Volume"),
            (["evaluate", "--manifest", "{no_labels}"], "LabelMap"),
            (["train", "--manifest", "{swapped}", "--modality", "mprage"], "Volume"),
            (["train", "--manifest", "{no_labels}", "--modality", "mprage"], "LabelMap"),
        ],
        ids=[
            "segment-input", "segment-reference", "own-grid-input",
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

    @pytest.mark.parametrize("inputs", ["segment", "own-grid"])
    def test_checkpoint_without_28_classes_exits_1_before_any_work(
        self, setup, tmp_path, capsys, monkeypatch, inputs
    ):
        root, records, _ = setup
        model = UNet3D(ModelSpec(features=2, depth=1, input_dims=(16, 16, 16)), seed=0)
        checkpoint = tmp_path / "four.ckpt"
        save_checkpoint(model, checkpoint)
        rewrite_header(
            checkpoint, checkpoint.read_bytes(), lambda h: h["spec"].update(num_classes=4)
        )
        monkeypatch.setattr(cli, "read_as", lambda *a: pytest.fail("input read"))
        out = tmp_path / "o"
        code = cli.run(
            _pipeline_inputs(inputs, root, records)
            + ["--checkpoint", str(checkpoint), "--mc-samples", "2", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4 classes" in err and "four.ckpt" in err
        assert not out.exists()

    def test_malformed_phantom_spec_exits_1(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"dims": [16, 16, 16]}))
        out = tmp_path / "o"
        code = cli.run(["phantoms", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config) in err and "structures" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, entry",
        [
            (lambda cfg: cfg.update(seed="x"), "'seed'"),
            (lambda cfg: cfg.update(radius_jitter="x"), "'radius_jitter'"),
            (lambda cfg: "{not json", "not JSON"),
            (lambda cfg: cfg.update(seed=1.5), "'seed': expected an integer, got 1.5"),
            (lambda cfg: cfg.update(seed=True), "'seed': expected an integer, got true"),
            (
                lambda cfg: cfg["structures"][0].update(label=2.7),
                "'label': expected an integer, got 2.7",
            ),
            (
                lambda cfg: cfg["modalities"]["mprage"].update(spacing=["1", 1, 1]),
                "'modalities.mprage.spacing': expected a number, got \"1\"",
            ),
            (
                lambda cfg: cfg["modalities"]["mprage"]["contrast"].update({"0": ["x", 1]}),
                "'modalities.mprage.contrast.0': expected a number, got \"x\"",
            ),
            (
                lambda cfg: cfg["structures"][0].update(radii=[True, 2, 2]),
                "'structures[0].radii': expected a number, got true",
            ),
        ],
        ids=["str-seed", "str-jitter", "not-json", "float-seed", "bool-seed", "float-label",
             "str-spacing", "str-contrast", "bool-radius"],
    )
    def test_bad_phantom_spec_exits_1_and_writes_nothing(self, tmp_path, capsys, edit, entry):
        config = tmp_path / "s.json"
        save_phantom_spec(default_phantom_spec(dims=(16, 16, 16)), config)
        cfg = json.loads(config.read_text())
        edited = edit(cfg)
        config.write_text(edited if isinstance(edited, str) else json.dumps(cfg))
        out = tmp_path / "o"
        assert cli.run(["phantoms", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config) in err and entry in err
        assert not out.exists()

    def test_unknown_modality_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.run(
            ["phantoms", "--subjects", "5", "--dims", "16,16,16", "--modalities", "mprage,pet",
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'pet'" in err and "mprage, flair, dwi, ct" in err
        assert not out.exists()

    @pytest.mark.parametrize("mc", ["on", "off"])
    def test_evaluate_off_the_model_grid_exits_1(self, setup, tmp_path, capsys, mc):
        # evaluate scores volumes on their own grid: the depth-2 model takes
        # none with an axis 4 does not divide, as 18^3, and nothing is
        # registered or resampled
        _, _, checkpoint = setup
        spec = default_phantom_spec(dims=(18, 18, 18), modalities=("mprage",), seed=3)
        manifest = generate_dataset(spec, 5, tmp_path / "phantoms", test_fraction=0.2)
        (test,) = [r for r in read_manifest(manifest) if r.split == "test"]
        out = tmp_path / "o"
        code = cli.run(
            [
                "evaluate", "--manifest", str(manifest), "--checkpoint", str(checkpoint),
                "--mc", mc, "--mc-samples", "2", "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {test.volume_path}: axis x has 18 voxels")
        assert "2^depth = 4" in err
        assert not (out / "summary.json").exists()
        assert not (out / "run_record.json").exists()

    def test_segment_off_the_model_grid_without_reference_exits_1(self, setup, tmp_path, capsys):
        # without --reference nothing resamples the scan onto a grid the model takes
        _, _, checkpoint = setup
        spec = default_phantom_spec(dims=(18, 18, 18), modalities=("mprage",), seed=3)
        scan = tmp_path / "scan.mvx"
        write_volume(generate_subject(spec, 0)[1]["mprage"], scan)
        out = tmp_path / "o"
        code = cli.run(
            ["segment", "--input", str(scan), "--checkpoint", str(checkpoint),
             "--mc-samples", "2", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scan}: axis x has 18 voxels") and "2^depth = 4" in err
        assert not out.exists()

    def test_evaluate_labels_on_another_grid_exits_1(self, setup, tmp_path, capsys, submits):
        # a 16x32x16 scan scored against 32x16x16 labels: the voxel counts
        # agree, but the grids do not
        _, _, checkpoint = setup
        scan, labels = tmp_path / "scan.mvx", tmp_path / "labels.mvx"
        for dims, index, path in (((16, 32, 16), 1, scan), ((32, 16, 16), 0, labels)):
            spec = default_phantom_spec(dims=dims, modalities=("mprage",), seed=3)
            write_volume(generate_subject(spec, 0)[index]["mprage"], path)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{scan},{labels},mprage,test\n")
        out = tmp_path / "o"
        code = cli.run(
            ["evaluate", "--manifest", str(manifest), "--checkpoint", str(checkpoint),
             "--mc-samples", "2", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labels}: prediction grid (16, 32, 16) vs truth grid")
        assert not out.exists()
        # the record is checked before its scan's passes: none ran
        assert not [fn for _, fn in submits if getattr(fn, "__func__", None) is UNet3D._rest]

    def test_train_off_the_depth_grid_exits_1(self, tmp_path, capsys):
        # the first record's grid sets the model's: the error names that scan
        spec = default_phantom_spec(dims=(18, 18, 18), modalities=("mprage",), seed=3)
        manifest = generate_dataset(spec, 5, tmp_path / "phantoms", test_fraction=0.2)
        first = read_manifest(manifest)[0]
        out = tmp_path / "o"
        code = cli.run(
            ["train", "--manifest", str(manifest), "--modality", "mprage", "--epochs", "1",
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {first.volume_path}: axis x has 18 voxels")
        assert "2^depth = 4" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--dims", "16,16"], "(16, 16)"),
            (["--dims", "0,16,16"], "(0, 16, 16)"),
            (["--test-fraction", "1.5"], "1.5"),
            (["--test-fraction", "-0.5"], "-0.5"),
            (["--test-fraction", "0.6", "--validation-fraction", "0.6"], "1.2"),
            (["--corrupt", "-1"], "-1"),
            (["--test-fraction", "0.5", "--validation-fraction", "0.5"], "3 test and 3"),
        ],
        ids=[
            "two-axes", "zero-axis", "test-1.5", "test-neg", "sum-past-1", "corrupt-neg",
            "counts-past-n",
        ],
    )
    def test_malformed_phantom_flag_exits_1_and_writes_nothing(
        self, tmp_path, capsys, flags, named
    ):
        out = tmp_path / "o"
        argv = ["phantoms", "--subjects", "5", "--modalities", "mprage", "--out", str(out)]
        assert cli.run(argv + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    def test_non_integer_dims_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.run(["phantoms", "--subjects", "5", "--dims", "32,32,x", "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage: segctl" in err and "argument --dims" in err and "'32,32,x'" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_phantom_seed_exits_1_and_writes_nothing(self, tmp_path, capsys, source):
        out = tmp_path / "o"
        argv = ["phantoms", "--subjects", "5", "--dims", "16,16,16", "--out", str(out)]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            config = tmp_path / "s.json"
            save_phantom_spec(default_phantom_spec(dims=(16, 16, 16)), config)
            config.write_text(json.dumps({**json.loads(config.read_text()), "seed": -1}))
            argv += ["--config", str(config)]
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and "non-negative" in err
        if source == "config":
            assert err.startswith(f"error: phantom spec {config}: ")
        assert "expected non-negative integer" not in err  # numpy's, which names no field
        assert not out.exists()


class TestOwnGrid:
    """``evaluate`` and ``--mc off`` on grids other than the checkpoint's."""

    @pytest.mark.parametrize("mc", ["on", "off"])
    @pytest.mark.parametrize(
        "dims, modalities, grid",
        [((16, 16, 16), ("mprage", "dwi"), (16, 16, 8)), ((24, 24, 24), ("mprage",), (24,) * 3)],
        ids=["dwi", "mprage-24"],
    )
    def test_evaluate_scores_a_grid_the_depth_divides(
        self, setup, tmp_path, dims, modalities, grid, mc
    ):
        _, _, checkpoint = setup  # a 16^3 MPRAGE model of depth 2
        spec = default_phantom_spec(dims=dims, modalities=modalities, seed=3)
        manifest = generate_dataset(spec, 5, tmp_path / "phantoms", test_fraction=0.2)
        modality = modalities[-1]
        test = next(
            r for r in read_manifest(manifest) if r.split == "test" and r.modality == modality
        )
        assert read_volume(test.volume_path).dims == grid
        out = tmp_path / "o"
        code, record = _run(
            [
                "evaluate", "--manifest", str(manifest), "--modality", modality,
                "--checkpoint", str(checkpoint), "--mc", mc, "--mc-samples", "2",
            ],
            out,
        )
        assert code == 0 and record["volumes"] == 1
        assert json.loads((out / "summary.json").read_text())["volumes"] == 1

    def test_mc_off_forward_runs_in_a_parallel_region(self, setup, tmp_path, monkeypatch):
        # segment's and evaluate's one dropout-free forward runs in a
        # parallel region, and gives the fields it gives outside one
        root, records, checkpoint = setup
        forward = UNet3D.forward
        seen = []

        def spy(model, x, *args, **kwargs):
            P = forward(model, x, *args, **kwargs)
            seen.append((ad._region.get() is not None, np.array(x), P.data.copy()))
            return P

        monkeypatch.setattr(UNet3D, "forward", spy)
        off = ["--checkpoint", str(checkpoint), "--mc", "off"]
        segment = ["segment", "--input", str(records[1].volume_path),
                   "--reference", str(records[0].volume_path)]
        assert _run(segment + off, tmp_path / "s")[0] == 0
        manifest = str(root / "phantoms" / "manifest.csv")
        assert _run(["evaluate", "--manifest", manifest] + off, tmp_path / "e")[0] == 0
        assert [inside for inside, _, _ in seen] == [True, True]
        model = load_checkpoint(checkpoint)
        for _, x, P in seen:
            with ad.no_grad():
                alone = forward(model, x, "eval", False).data
            assert alone.tobytes() == P.tobytes()


class TestGoldenPath:
    """phantoms -> train one epoch -> segment -> evaluate -> segment without
    ``--reference`` (its uncertainty report on the scan's own grid) at 16^3,
    through ``cli.run`` as a user would, and a bad checkpoint."""

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
            "pearson_note", "timings", "peak_rss_mb",
            "modality", "cv_threshold", "mc_workers", "blas_pinned",
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
            ["segment", "--input", str(test.volume_path)] + mc, tmp_path / "own-grid"
        )
        assert code in (0, 2) and set(record) == self.RECORD_KEYS["segment"]
        assert (code == 2) == (record["verdict"] == "warn")
        assert record["reference"] is None and len(record["mc_volumes"]) == 3
        for key in ("converged", "cost", "levels"):
            assert record[f"registration_{key}"] is None
        assert read_volume(tmp_path / "own-grid" / "segmentation.mvx").dims == (16, 16, 16)
        assert not (tmp_path / "own-grid" / "transform.txt").exists()

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(checkpoint.read_bytes()[:-100])
        for i, command in enumerate((
            ["segment", "--input", str(test.volume_path), "--reference",
             str(reference.volume_path)],
            ["evaluate", "--manifest", str(manifest)],
            ["segment", "--input", str(test.volume_path)],
        )):
            out = tmp_path / f"bad-{i}"
            assert cli.run(command + ["--checkpoint", str(bad), "--out", str(out)]) == 1
            assert not (out / "run_record.json").exists()


class TestGoldenDigests:
    """The bytes of every output of one fixed 16^3 run through ``cli.run``:
    phantoms in all four modalities with every corruption mode (DWI's ``swap``
    falls back to noise), a 2-epoch depth-1 MPRAGE model, ``segment`` with 3
    MC samples and with ``--mc off``, ``evaluate`` with 3 MC samples and
    with ``--mc off``, and ``segment`` without ``--reference``.
    ``run_record.json`` and ``train_log.csv`` hold wall times and peak
    memory, so they are not pinned. A change that keeps every float
    operation and its order keeps every digest."""

    DIGESTS = Path(__file__).parent / "data" / "golden_sha256.json"
    UNPINNED = {"run_record.json", "train_log.csv"}

    @staticmethod
    def run_commands(root):
        """Run every command into ``root``; returns the MPRAGE test scan that
        ``segment`` reads."""
        data = root / "phantoms"
        assert cli.run(
            [
                "phantoms", "--subjects", "10", "--dims", "16,16,16", "--corrupt", "5",
                "--test-fraction", "0.5", "--validation-fraction", "0.1", "--seed", "3",
                "--out", str(data),
            ]
        ) == 0
        manifest = data / "manifest.csv"
        notes = {r.note for r in read_manifest(manifest)}
        assert {"corrupt:noise-0.3", "corrupt:noise-0.5", "corrupt:noise-0.7",
                "corrupt:occlude-0.4", "corrupt:swap"} <= notes
        records = [r for r in read_manifest(manifest) if r.modality == "mprage"]
        test = next(r for r in records if r.split == "test")
        reference = next(r for r in records if r.split == "train")
        assert cli.run(
            [
                "train", "--manifest", str(manifest), "--modality", "mprage", "--epochs", "2",
                "--features", "2", "--depth", "1", "--seed", "1", "--out", str(root / "train"),
            ]
        ) == 0
        checkpoint = ["--checkpoint", str(root / "train" / "mprage_model.ckpt")]
        segment = ["segment", "--input", str(test.volume_path),
                   "--reference", str(reference.volume_path)] + checkpoint
        codes = [
            cli.run(segment + ["--mc-samples", "3", "--out", str(root / "segment-mc")]),
            cli.run(segment + ["--mc", "off", "--out", str(root / "segment-off")]),
            cli.run(["evaluate", "--manifest", str(manifest), "--mc", "off"] + checkpoint
                    + ["--out", str(root / "evaluate")]),
            cli.run(["evaluate", "--manifest", str(manifest), "--mc-samples", "3"] + checkpoint
                    + ["--out", str(root / "evaluate-mc")]),
            cli.run(["segment", "--input", str(test.volume_path)] + checkpoint
                    + ["--out", str(root / "segment-own-grid")]),
        ]
        assert codes == [2, 0, 0, 0, 2]
        return test.volume_path

    def test_every_output_byte_for_byte(self, tmp_path):
        runs = tmp_path / "runs"
        scan = self.run_commands(runs)
        got = {
            str(path.relative_to(runs)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(runs.rglob("*"))
            if path.is_file() and path.name not in self.UNPINNED
        }
        assert got == json.loads(self.DIGESTS.read_text())
        # without --reference, segment writes mc_segment's labels on the
        # scan's grid (15 passes and seed 0, segment's defaults)
        model = load_checkpoint(runs / "train" / "mprage_model.ckpt")
        labels, _ = mc_segment(model, normalize_intensity(read_volume(scan)), n=15, seed=0)
        write_volume(labels, tmp_path / "direct.mvx")
        direct = (tmp_path / "direct.mvx").read_bytes()
        assert (runs / "segment-own-grid" / "segmentation.mvx").read_bytes() == direct
