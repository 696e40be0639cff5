import dataclasses
import gc
import re
import threading
import weakref

import numpy as np
import pytest

from neuroseg import autodiff as ad
from neuroseg import train as train_module
from neuroseg.autodiff import Tensor
from neuroseg.core import LabelMap, Volume
from neuroseg.io import ManifestRecord, write_volume
from neuroseg.phantom import default_phantom_spec, generate_dataset, generate_subject
from neuroseg.train import (
    Adam,
    NonFiniteLossError,
    TrainConfig,
    TrainLog,
    augment,
    train,
)
from neuroseg.unet import ModelSpec, UNet3D


class TestAdam:
    def test_matches_reference_on_scalar_quadratic(self):
        # minimize f(x) = (x - 3)^2 from x = 0
        p = Tensor(np.asarray([0.0]), requires_grad=True)
        opt = Adam({"x": p}, lr=0.1)

        # ten-line reference implementation
        x = 0.0
        m = v = 0.0
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
        for t in range(1, 101):
            g = 2 * (x - 3.0)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

            opt.zero_grad()
            p.grad = 2 * (p.data - 3.0)
            opt.step()
            assert p.data[0] == pytest.approx(x, abs=1e-12)

    def test_skips_params_without_grad(self):
        p = Tensor(np.asarray([1.0]), requires_grad=True)
        opt = Adam({"x": p}, lr=0.5)
        opt.step()
        assert p.data[0] == 1.0


@pytest.fixture
def pair(rng):
    spec = default_phantom_spec(dims=(16, 16, 16), modalities=("mprage",), seed=21)
    labels, vols = generate_subject(spec, 0)
    return vols["mprage"], labels["mprage"]


class TestAugment:
    def test_zero_ranges_identity_bitwise(self, pair, rng):
        vol, labels = pair
        av, al = augment(vol, labels, rng, 0.0, 0.0, 0.0)
        assert np.array_equal(av.data, vol.data)
        assert np.array_equal(al.labels, labels.labels)

    def test_pure_translation_keeps_correspondence(self, pair):
        vol, labels = pair

        class FixedRng:
            """Drives augment to a pure (2, 0, 0)-voxel translation."""

            def uniform(self, lo, hi, size):
                if hi == 0.0:  # rotation range disabled
                    return np.zeros(size)
                return np.asarray([2.0, 0.0, 0.0])

            def random(self, size):
                return np.zeros(size)

        av, al = augment(vol, labels, FixedRng(), translation_voxels=4.0,
                         rotation_degrees=0.0, crop_fraction=0.0)
        assert np.array_equal(av.data[:14], vol.data[2:])
        assert np.array_equal(al.labels[:14], labels.labels[2:])
        # the slab vacated by the shift is background in both outputs:
        # label 0 and the zero fill, so nothing moved differently
        assert np.all(al.labels[14:] == 0)
        assert np.all(av.data[14:] == 0.0)

    def test_rotation_invents_no_labels(self, pair, rng):
        vol, labels = pair
        present = set(np.unique(labels.labels))
        for _ in range(5):
            _, al = augment(vol, labels, rng, 0.0, 10.0, 0.0)
            assert set(np.unique(al.labels)) <= present

    def test_crop_preserves_dims(self, pair, rng):
        vol, labels = pair
        av, al = augment(vol, labels, rng, 0.0, 0.0, 0.3)
        assert av.dims == vol.dims
        assert al.dims == labels.dims

    def test_deepest_accepted_crop_keeps_labels(self, pair):
        # TrainConfig's largest crop_fraction keeps half of each axis, so no
        # draw leaves a scan without labelled voxels (0.99 left none in 3 of
        # these 20 draws)
        vol, labels = pair
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, al = augment(vol, labels, rng, 0.0, 0.0, 0.5)
            assert (al.labels > 0).any()


def _tiny_records(tmp_path, n=6, dims=(16, 16, 16), seed=33):
    spec = default_phantom_spec(dims=dims, modalities=("mprage",), seed=seed)
    manifest = generate_dataset(spec, max(n, 5), tmp_path, test_fraction=0.2)
    from neuroseg.io import read_manifest

    return [r for r in read_manifest(manifest) if r.modality == "mprage"]


def _tiny_model(dims=(16, 16, 16), seed=5, dropout=0.2):
    spec = ModelSpec(
        features=2, depth=2, bottleneck_layers=1, input_dims=dims, dropout_rate=dropout
    )
    return UNet3D(spec, seed=seed)


class TestTrainLoop:
    def test_toy_descent(self, tmp_path):
        records = _tiny_records(tmp_path)
        cfg = TrainConfig(max_epochs=4, patience=4, seed=1)
        model, log = train(_tiny_model(), records, cfg)
        assert log.epochs[-1].train_loss < log.epochs[0].train_loss
        assert log.stop_reason == "max-epochs"

    def test_deterministic_bitwise(self, tmp_path):
        records = _tiny_records(tmp_path)
        cfg = TrainConfig(max_epochs=2, patience=2, seed=9)
        model_a, log_a = train(_tiny_model(seed=2), records, cfg)
        model_b, log_b = train(_tiny_model(seed=2), records, cfg)
        assert log_a == log_b
        for name, p in model_a.parameters().items():
            assert np.array_equal(p.data, model_b.parameters()[name].data)

    def test_early_stop_on_constructed_plateau(self, tmp_path, monkeypatch):
        records = _tiny_records(tmp_path)
        # frozen parameters (an Adam step changes nothing) and frozen
        # batch-norm stats: nothing can improve after the first epoch, so
        # patience 3 stops at epoch 4
        monkeypatch.setattr(ad, "BN_MOMENTUM", 1.0)
        monkeypatch.setattr(Adam, "step", lambda self: None)
        spec = ModelSpec(features=2, depth=2, bottleneck_layers=1, input_dims=(16, 16, 16))
        model = UNet3D(spec, seed=4)
        cfg = TrainConfig(max_epochs=50, patience=3, seed=4)
        model, log = train(model, records, cfg)
        assert log.stop_reason == "early-stop"
        assert log.best_epoch == 1
        assert log.epochs[-1].epoch == 4

    def test_returns_best_checkpoint_not_last(self, tmp_path):
        records = _tiny_records(tmp_path)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=7)
        model, log = train(_tiny_model(seed=3), records, cfg)
        best = log.best_epoch
        assert best == int(np.argmin([e.val_loss for e in log.epochs])) + 1
        assert best < log.epochs[-1].epoch
        # the same run cut at the best epoch ends in exactly the returned state
        short = TrainConfig(max_epochs=best, patience=best, seed=7)
        at_best, _ = train(_tiny_model(seed=3), records, short)
        arrays, want_arrays = model.named_arrays(), at_best.named_arrays()
        assert list(arrays) == list(want_arrays)
        for name, arr in arrays.items():  # parameters and batch-norm statistics
            assert arr.dtype == want_arrays[name].dtype
            assert np.array_equal(arr, want_arrays[name]), name

    def test_needs_two_volumes(self, tmp_path):
        records = _tiny_records(tmp_path)[:1]
        with pytest.raises(ValueError, match="at least 2"):
            train(_tiny_model(), records, TrainConfig(max_epochs=1, patience=1))

    def test_validation_tags_respected(self, tmp_path):
        records = _tiny_records(tmp_path)
        explicit = []
        seen_train = 0
        for r in records:
            if r.split == "train":
                seen_train += 1
                split = "validation" if seen_train == 1 else "train"
            else:
                split = r.split
            explicit.append(
                ManifestRecord(r.volume_path, r.labels_path, r.modality, split, r.note)
            )
        cfg = TrainConfig(max_epochs=1, patience=1, seed=0)
        _, log = train(_tiny_model(), explicit, cfg)
        assert len(log.epochs) == 1

    def test_log_records_epoch_wall_seconds(self, tmp_path):
        records = _tiny_records(tmp_path)
        cfg = TrainConfig(max_epochs=2, patience=2, seed=0)
        _, log = train(_tiny_model(), records, cfg)
        assert all(e.epoch_s >= 0 for e in log.epochs)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        rows = path.read_text().strip().splitlines()[1:-1]
        assert [float(row.split(",")[4]) for row in rows] == [e.epoch_s for e in log.epochs]

    def test_nonfinite_loss_diagnostics(self, tmp_path):
        records = _tiny_records(tmp_path)
        model = _tiny_model(seed=6)
        # poison one first-conv weight with NaN so the loss is NaN; a large
        # finite offset would be absorbed by the following batch norm
        first = next(iter(model.parameters().values()))
        first.data = first.data.copy()
        first.data.flat[0] = np.nan
        cfg = TrainConfig(max_epochs=2, patience=2, seed=0)
        with pytest.raises(NonFiniteLossError) as err:
            train(model, records, cfg)
        assert err.value.epoch == 1
        assert err.value.history  # loss history travels with the error

    def test_nonfinite_loss_leaves_parameters_untouched(self, tmp_path):
        records = _tiny_records(tmp_path)
        model = _tiny_model(seed=6)
        first = next(iter(model.parameters().values()))
        first.data = first.data.copy()
        first.data.flat[0] = np.nan
        before = {name: p.data.tobytes() for name, p in model.parameters().items()}
        cfg = TrainConfig(max_epochs=2, patience=2, seed=0)
        with pytest.raises(NonFiniteLossError) as err:
            train(model, records, cfg)
        assert (err.value.epoch, err.value.batch) == (1, 0)
        assert len(err.value.history) == 1 and np.isnan(err.value.history[0])
        for name, p in model.parameters().items():
            assert p.data.tobytes() == before[name], name
            assert p.grad is None, name  # no backward ran

    def test_no_graph_outlives_its_step(self, tmp_path, monkeypatch):
        # at every training forward, no graph node built by this run is
        # alive: the previous step's graph died with its _train_step call
        records = _tiny_records(tmp_path)
        # held, so that no id in `before` is reused by a node of this run
        alive_before = [o for o in gc.get_objects() if isinstance(o, Tensor) and o._parents]
        before = {id(o) for o in alive_before}
        counts = []
        forward_loss = train_module._forward_loss

        def counting_forward_loss(model, batch, mode, dropout_active, rng):
            if mode == "train":
                counts.append(
                    sum(
                        1
                        for o in gc.get_objects()
                        if isinstance(o, Tensor) and o._parents and id(o) not in before
                    )
                )
            return forward_loss(model, batch, mode, dropout_active, rng)

        monkeypatch.setattr(train_module, "_forward_loss", counting_forward_loss)
        train(_tiny_model(), records, TrainConfig(max_epochs=2, patience=2, seed=0))
        assert len(counts) == 8  # 2 epochs of 4 training volumes
        assert counts == [0] * len(counts)

    def test_validation_fields_die_before_the_next_epoch(self, tmp_path, monkeypatch):
        # each validation volume's softmax field is freed by the time the
        # next epoch's first training step starts
        records = _tiny_records(tmp_path)
        refs = []
        checked = []
        forward_loss = train_module._forward_loss
        train_step = train_module._train_step

        def recording_forward_loss(model, batch, mode, dropout_active, rng):
            P, loss = forward_loss(model, batch, mode, dropout_active, rng)
            if mode == "eval":
                refs.append(weakref.ref(P.data))
            return P, loss

        def checking_train_step(model, opt, batch, rng):
            if refs and not checked:
                checked.append([r() is None for r in refs])
            return train_step(model, opt, batch, rng)

        monkeypatch.setattr(train_module, "_forward_loss", recording_forward_loss)
        monkeypatch.setattr(train_module, "_train_step", checking_train_step)
        cfg = TrainConfig(max_epochs=2, patience=2, seed=0, validation_fraction=0.4)
        train(_tiny_model(), records, cfg)
        assert len(checked) == 1 and len(checked[0]) == 2  # two validation volumes
        assert checked[0] == [True] * len(checked[0])

    def test_epochs_run_in_one_region_and_restore_blas(self, tmp_path, monkeypatch):
        api = ad._blas_thread_api()
        if api is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
        get, put = api
        before = get()
        put(2)  # a count the pin visibly changes, even on a one-core host
        try:
            monkeypatch.setattr(ad, "parallel_workers", lambda: 3)
            seen = []
            train_step = train_module._train_step

            def recording_train_step(model, opt, batch, rng):
                seen.append((get(), ad._region.get().workers))
                return train_step(model, opt, batch, rng)

            monkeypatch.setattr(train_module, "_train_step", recording_train_step)
            train(_tiny_model(), _tiny_records(tmp_path), TrainConfig(max_epochs=2, patience=2))
            assert seen == [(1, 3)] * 8
            assert get() == 2 and ad._region.get() is None
        finally:
            put(before)

    @pytest.mark.parametrize("plateau", [False, True], ids=["max-epochs", "early-stop"])
    def test_bitwise_whatever_the_workers(self, tmp_path, monkeypatch, submits, plateau):
        # with 1, 2 or 3 workers each next batch is prepared on a pool
        # thread, submitted before the current step starts, one batch ahead
        # at most. Logs, parameters and batch-norm statistics are equal bit
        # for bit, so rng_augment was drawn in batch order.
        if ad._blas_thread_api() is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
        records = _tiny_records(tmp_path)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=11)
        if plateau:  # as in test_early_stop_on_constructed_plateau
            monkeypatch.setattr(ad, "BN_MOMENTUM", 1.0)
            monkeypatch.setattr(Adam, "step", lambda self: None)
            cfg = TrainConfig(max_epochs=50, patience=2, seed=11)
        augment_threads, prepared_at_step = [], []
        train_step = train_module._train_step

        def recording_augment(*args):
            augment_threads.append(threading.current_thread())
            return augment(*args)

        def recording_train_step(*args):
            prepared_at_step.append(sum(fn is train_module._prepare for _, fn in submits))
            return train_step(*args)

        monkeypatch.setattr(train_module, "augment", recording_augment)
        monkeypatch.setattr(train_module, "_train_step", recording_train_step)
        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(ad, "parallel_workers", lambda: workers)
            augment_threads.clear()
            prepared_at_step.clear()
            submits.clear()
            model, log = train(_tiny_model(seed=8), records, cfg)
            assert threading.current_thread() not in augment_threads
            # 4 training volumes, so 4 steps an epoch
            ahead = [4 * e + k for e in range(len(log.epochs)) for k in (2, 3, 4, 4)]
            assert prepared_at_step == ahead
            runs[workers] = log, {k: a.copy() for k, a in model.named_arrays().items()}
        log, arrays = runs[1]
        assert log.stop_reason == ("early-stop" if plateau else "max-epochs")
        for other_log, other_arrays in (runs[2], runs[3]):
            assert other_log == log
            assert list(other_arrays) == list(arrays)
            for name, arr in arrays.items():
                assert other_arrays[name].tobytes() == arr.tobytes(), name

    def test_log_csv_round_trip(self, tmp_path):
        log = TrainLog(stop_reason="max-epochs", best_epoch=2)
        from neuroseg.train import EpochStats

        log.epochs = [EpochStats(1, 5.0, 4.5, 0.3, 1.5), EpochStats(2, 4.0, 4.1, 0.4, 1.25)]
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_dice,epoch_s"
        assert len(lines) == 4
        assert "best_epoch,2" in lines[-1]


def _two_grid_records(tmp_path):
    return [
        r for dims in ((16, 16, 16), (24, 24, 24))
        for r in _tiny_records(tmp_path / str(dims[0]), dims=dims)
    ]


class TestGrids:
    """train() takes volumes on any grid the model's depth divides."""

    def test_a_grid_the_depth_does_not_divide_raises_before_epoch_1(self, tmp_path, monkeypatch):
        # one 18^3 volume among 16^3 ones, as a training or a validation
        # volume: the error names its file
        on_grid = _tiny_records(tmp_path / "16")
        off = _tiny_records(tmp_path / "18", dims=(18, 18, 18))[0]
        monkeypatch.setattr(train_module, "augment", lambda *a: pytest.fail("epoch 1 began"))
        want = re.escape(str(off.volume_path)) + r": axis x has 18 voxels.*2\^depth = 4"
        for split in ("train", "validation"):
            records = on_grid + [dataclasses.replace(off, split=split)]
            with pytest.raises(ad.ShapeError, match=want):
                train(_tiny_model(), records, TrainConfig(max_epochs=1, patience=1))

    def test_a_batch_over_two_grids_raises_before_epoch_1(self, tmp_path, monkeypatch):
        records = _two_grid_records(tmp_path)
        monkeypatch.setattr(train_module, "augment", lambda *a: pytest.fail("epoch 1 began"))
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=2)
        with pytest.raises(ValueError, match=r"one grid.*\(16, 16, 16\), \(24, 24, 24\)"):
            train(_tiny_model(), records, cfg)

    def test_one_volume_per_batch_trains_on_two_grids(self, tmp_path):
        records = _two_grid_records(tmp_path)
        _, log = train(_tiny_model(dims=(8, 8, 8)), records, TrainConfig(max_epochs=1, patience=1))
        assert len(log.epochs) == 1 and np.isfinite(log.epochs[0].val_loss)


class TestConfigValidation:
    def test_patience_bounded(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=10, patience=20)

    def test_validation_fraction_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=0.9)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", 0.0),
            ("learning_rate", -1.0),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("translation_voxels", -1.0),
            ("translation_voxels", float("nan")),
            ("translation_voxels", float("inf")),
            ("rotation_degrees", -1.0),
            ("rotation_degrees", float("nan")),
            ("rotation_degrees", float("inf")),
            ("crop_fraction", -0.1),
            ("crop_fraction", 0.6),
            ("crop_fraction", 0.99),
            ("crop_fraction", 1.0),
            ("crop_fraction", 1.5),
            ("crop_fraction", float("nan")),
        ],
    )
    def test_values_no_run_can_use(self, field, value):
        # a learning rate that trains nothing or diverges; augmentation
        # ranges numpy cannot draw from; a crop that can wipe every label
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("translation_voxels", 0.0), ("rotation_degrees", 0.0), ("crop_fraction", 0.0),
         ("crop_fraction", 0.5)],
    )
    def test_no_augmentation_is_accepted(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value

    def test_defaults_match_training_protocol(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.max_epochs == 400
        assert cfg.patience == 100
        assert cfg.batch_size == 1
