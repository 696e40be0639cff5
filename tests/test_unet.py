import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuroseg import autodiff as ad
from neuroseg import metrics
from neuroseg.autodiff import Tensor
from neuroseg.core import Volume, one_hot
from neuroseg.inference import hard_segment, mc_segment
from neuroseg.unet import (
    CheckpointError,
    ModelSpec,
    ModelSpecError,
    UNet3D,
    load_checkpoint,
    save_checkpoint,
)

from conftest import central_diff, max_rel_err, rewrite_header

# written before the fixed values left ModelSpec, by
# UNet3D(ModelSpec(features=1, depth=1, input_dims=(8, 8, 8)), seed=0) after
# one train-mode forward (input rng 1, dropout rng 2)
FIXTURE_CKPT = Path(__file__).parent / "data" / "parent_f1_d1_8.ckpt"


def oracle_parameter_count(in_channels, num_classes, features, depth, bottleneck, k=3):
    """Independent layer-by-layer enumeration of trainable array shapes.

    Walks the architecture and sums products of explicit shape tuples; kept
    deliberately separate from the model code.
    """
    shapes = []
    f = [features * 2 ** d for d in range(depth)]
    c = in_channels
    for fd in f:  # encoder blocks: two conv+bn stages each
        shapes += [(fd, c, k, k, k), (fd,), (fd,), (fd,)]
        shapes += [(fd, fd, k, k, k), (fd,), (fd,), (fd,)]
        c = fd
    fb = features * 2 ** depth
    for i in range(bottleneck):
        cin = c if i == 0 else fb
        shapes += [(fb, cin, k, k, k), (fb,), (fb,), (fb,)]
        c = fb
    for fd in reversed(f):
        shapes += [(c, fd, 2, 2, 2), (fd,)]  # transpose conv
        shapes += [(fd, 2 * fd, k, k, k), (fd,), (fd,), (fd,)]  # conv on concat
        shapes += [(fd, fd, k, k, k), (fd,), (fd,), (fd,)]
        c = fd
    shapes += [(num_classes, c, 1, 1, 1), (num_classes,)]
    return sum(int(np.prod(s)) for s in shapes)


class TestParameterCount:
    def test_reference_architecture_is_5_65M(self):
        spec = ModelSpec(features=16, depth=4, bottleneck_layers=2)
        count = UNet3D(spec, seed=0).parameter_count()
        assert count == oracle_parameter_count(1, 28, 16, 4, 2)
        assert count == 5_648_316
        assert round(count / 1e6, 2) == 5.65

    def test_minimal_spec_matches_oracle(self):
        spec = ModelSpec(features=1, depth=1, bottleneck_layers=1, input_dims=(8, 8, 8))
        assert UNet3D(spec, seed=0).parameter_count() == oracle_parameter_count(1, 28, 1, 1, 1)

    def test_doubling_features_roughly_quadruples(self):
        base = ModelSpec(features=16, depth=4, bottleneck_layers=2)
        doubled = dataclasses.replace(base, features=32)
        ratio = UNet3D(doubled, seed=0).parameter_count() / UNet3D(base, seed=0).parameter_count()
        assert 3.5 < ratio < 4.05

    @given(
        features=st.integers(1, 4),
        depth=st.integers(1, 2),
        bottleneck=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_store_matches_analytic_count(self, features, depth, bottleneck):
        spec = ModelSpec(
            features=features, depth=depth, bottleneck_layers=bottleneck, input_dims=(8, 8, 8)
        )
        model = UNet3D(spec, seed=0)
        assert model.parameter_count() == oracle_parameter_count(
            1, 28, features, depth, bottleneck
        )

    def test_parameter_names_unique(self):
        model = UNet3D(
            ModelSpec(features=2, depth=2, input_dims=(8, 8, 8)), seed=0
        )
        names = list(model.parameters())
        assert len(names) == len(set(names))


class TestSpecValidation:
    def test_divisibility_error_names_axis(self):
        with pytest.raises(ModelSpecError, match="axis x"):
            ModelSpec(input_dims=(100, 128, 128), depth=4)

    def test_dwi_and_ct_shapes_are_legal(self):
        ModelSpec(input_dims=(160, 160, 32), depth=4)
        ModelSpec(input_dims=(96, 128, 128), depth=4)

    def test_bad_dropout(self):
        with pytest.raises(ModelSpecError):
            ModelSpec(dropout_rate=1.0)

    @pytest.mark.parametrize(
        "fixed",
        [{"num_classes": 4}, {"in_channels": 2}, {"kernel": (5, 5, 5)},
         {"bn_eps": 1e-3}, {"bn_momentum": 0.5}],
        ids=lambda kw: next(iter(kw)),
    )
    def test_fixed_values_are_not_settings(self, fixed):
        with pytest.raises(TypeError):
            ModelSpec(**fixed)

    def test_five_settings_and_28_classes(self):
        names = [f.name for f in dataclasses.fields(ModelSpec)]
        assert names == ["features", "depth", "bottleneck_layers", "dropout_rate", "input_dims"]
        assert ModelSpec().num_classes == 28


class TestLayout:
    def test_depth_two_schematic(self):
        spec = ModelSpec(features=16, depth=2, input_dims=(16, 16, 16))
        assert spec.encoder_features == (16, 32)
        assert spec.bottleneck_features == 64
        params = UNet3D(spec, seed=0).parameters()
        # transpose-conv weights are (in, out, 2, 2, 2): decoders run 64 -> 32 -> 16
        assert params["dec1.up.w"].data.shape == (64, 32, 2, 2, 2)
        assert params["dec2.up.w"].data.shape == (32, 16, 2, 2, 2)

    def test_block_structure(self):
        model = UNet3D(
            ModelSpec(features=2, depth=2, input_dims=(8, 8, 8)), seed=0
        )
        assert len(model.encoders) == 2
        assert len(model.decoders) == 2
        assert len(model.bottleneck) == 2
        assert model.head.w.shape == (28, 2, 1, 1, 1)


@pytest.fixture
def tiny_model():
    spec = ModelSpec(features=2, depth=2, bottleneck_layers=1, input_dims=(8, 8, 8))
    return UNet3D(spec, seed=11)


class TestForward:
    def test_output_is_probability_field(self, tiny_model, rng):
        x = rng.random((1, 1, 8, 8, 8), dtype=np.float32) * 100
        out = tiny_model.forward(x, mode="train", rng=np.random.default_rng(0))
        assert out.shape == (1, 28, 8, 8, 8)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-5)

    def test_spatial_dims_preserved(self):
        spec = ModelSpec(features=2, depth=2, bottleneck_layers=1, input_dims=(8, 16, 8))
        model = UNet3D(spec, seed=0)
        x = np.zeros((1, 1, 8, 16, 8), dtype=np.float32)
        out = model.forward(x, mode="train", rng=np.random.default_rng(0))
        assert out.shape[2:] == (8, 16, 8)

    def test_deterministic_without_dropout(self, tiny_model, rng):
        x = rng.random((1, 1, 8, 8, 8), dtype=np.float32)
        a = tiny_model.forward(x, mode="train", dropout_active=False).data
        b = tiny_model.forward(x, mode="train", dropout_active=False).data
        assert np.array_equal(a, b)

    def test_dropout_states_differ(self, tiny_model, rng):
        x = rng.random((1, 1, 8, 8, 8), dtype=np.float32)
        tiny_model.forward(x, mode="train", rng=np.random.default_rng(0))  # init stats
        a = tiny_model.forward(
            x, mode="eval", dropout_active=True, rng=np.random.default_rng(1)
        ).data
        b = tiny_model.forward(
            x, mode="eval", dropout_active=True, rng=np.random.default_rng(2)
        ).data
        assert not np.array_equal(a, b)

    def test_shape_mismatch_rejected(self, tiny_model, monkeypatch):
        # depth 2 takes any grid 4 divides; z = 10 is not one, and the check
        # comes before encoder block 1
        monkeypatch.setattr(tiny_model, "_first", lambda *a: pytest.fail("encoder ran"))
        with pytest.raises(ad.ShapeError, match="axis z has 10 voxels.*2\\^depth = 4"):
            tiny_model.forward(np.zeros((1, 1, 8, 8, 10), dtype=np.float32))

    def test_full_scale_mprage_shape(self):
        # reference architecture on a full-size grid, no graph, inside a
        # parallel region as segment runs its forward
        spec = ModelSpec(features=16, depth=4, bottleneck_layers=2)
        model = UNet3D(spec, seed=0)
        x = np.zeros((1, 1, 128, 128, 128), dtype=np.float32)
        with ad.parallel(), ad.no_grad():
            out = model.forward(x, mode="train", dropout_active=False)
        assert out.shape == (1, 28, 128, 128, 128)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-4)


class TestAnyGrid:
    """A model takes any grid 2^depth divides; ``input_dims`` does not
    enter the network."""

    def test_off_spec_grid_equals_a_model_built_for_it(self, rng):
        grid = (24, 24, 12)
        models = [
            UNet3D(ModelSpec(features=2, depth=2, bottleneck_layers=1, input_dims=dims), seed=7)
            for dims in ((8, 8, 8), grid)
        ]
        x = rng.standard_normal((1, 1) + grid).astype(np.float32)
        outputs = []
        for model in models:
            train = model.forward(x, mode="train", rng=np.random.default_rng(0))
            plain = model.forward(x, "eval", False)
            passes = []
            model.mc_passes(x, (np.random.default_rng(s) for s in (3, 4)), passes.append)
            outputs.append([P.data.tobytes() for P in [train, plain] + passes])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("depth, grid", [(1, (8, 8, 7)), (3, (16, 16, 12)), (2, (8, 0, 8))])
    def test_a_grid_the_depth_does_not_divide_is_rejected(self, depth, grid):
        model = UNet3D(ModelSpec(features=1, depth=depth, input_dims=(8, 8, 8)), seed=0)
        step = 2**depth
        with pytest.raises(ad.ShapeError, match=rf"not a positive multiple of 2\^depth = {step}"):
            model.forward(np.zeros((1, 1) + grid, np.float32), "train", False)
        with pytest.raises(ModelSpecError, match=rf"2\^depth = {step}"):
            ModelSpec(depth=depth, input_dims=grid)


class TestMcPasses:
    @pytest.mark.parametrize(
        "depth, rate", [(1, 0.2), (2, 0.2), (2, 0.0)], ids=["depth1", "depth2", "rate0"]
    )
    def test_each_pass_equals_forward_bitwise(self, depth, rate, rng):
        spec = ModelSpec(
            features=2, depth=depth, bottleneck_layers=1, input_dims=(8, 8, 8),
            dropout_rate=rate,
        )
        model = UNet3D(spec, seed=5)
        x = rng.standard_normal((1, 1, 8, 8, 8)).astype(np.float32)
        model.forward(x, mode="train", rng=np.random.default_rng(0))  # batch-norm stats
        seeds = [3, 4, 5]
        passes = []
        model.mc_passes(x, (np.random.default_rng(s) for s in seeds), passes.append)
        assert len(passes) == len(seeds)
        for s, P in zip(seeds, passes):
            assert not P.requires_grad
            expected = model.forward(x, "eval", True, np.random.default_rng(s))
            assert P.data.dtype == expected.data.dtype
            assert P.data.tobytes() == expected.data.tobytes()
        if rate > 0:
            assert passes[0].data.tobytes() != passes[1].data.tobytes()

    def test_rejects_a_mismatched_input(self, tiny_model, monkeypatch):
        monkeypatch.setattr(tiny_model, "_first", lambda *a: pytest.fail("encoder ran"))
        with pytest.raises(ad.ShapeError, match="axis z has 10 voxels.*2\\^depth = 4"):
            tiny_model.mc_passes(
                np.zeros((1, 1, 8, 8, 10), np.float32), [], lambda P: pytest.fail("fused")
            )


class TestEndToEndGradient:
    def test_loss_gradient_matches_finite_differences(self):
        # 8^3 toy network in float64; sample parameters from every layer kind
        spec = ModelSpec(
            features=2, depth=2, bottleneck_layers=1, input_dims=(8, 8, 8),
            dropout_rate=0.0,
        )
        n_params_checked = 0
        for seed in range(20):
            gen = np.random.default_rng(seed)
            model = UNet3D(spec, seed=seed, dtype=np.float64)
            x = gen.random((1, 1, 8, 8, 8))
            labels = gen.integers(0, 3, (8, 8, 8))
            T = one_hot(labels)[None].astype(np.float64)

            def loss_value():
                out = model.forward(x, mode="train", dropout_active=False)
                return metrics.combined_loss(out, T).item()

            out = model.forward(x, mode="train", dropout_active=False)
            loss = metrics.combined_loss(out, T)
            for p in model.parameters().values():
                p.grad = None
            loss.backward()

            params = model.parameters()
            names = list(params)
            picks = gen.choice(len(names), size=3, replace=False)
            for pick in picks:
                tensor_p = params[names[pick]]
                flat = tensor_p.data.reshape(-1)
                idx = int(gen.integers(flat.size))
                orig = flat[idx]
                h = 1e-5
                flat[idx] = orig + h
                fp = loss_value()
                flat[idx] = orig - h
                fm = loss_value()
                flat[idx] = orig
                numeric = (fp - fm) / (2 * h)
                analytic = tensor_p.grad.reshape(-1)[idx]
                assert max_rel_err(analytic, numeric, floor=1e-3) < 1e-3, names[pick]
                n_params_checked += 1
        assert n_params_checked >= 50


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny_model, tmp_path, rng):
        x = rng.random((1, 1, 8, 8, 8), dtype=np.float32)
        tiny_model.forward(x, mode="train", rng=np.random.default_rng(3))  # stats
        before = tiny_model.forward(x, mode="eval", dropout_active=False).data
        path = tmp_path / "model.ckpt"
        opt_state = {"adam.t": np.asarray([7], dtype=np.int64)}
        save_checkpoint(tiny_model, path, extras=opt_state)
        loaded = load_checkpoint(path)
        after = loaded.forward(x, mode="eval", dropout_active=False).data
        assert np.array_equal(before, after)
        assert loaded.extras["adam.t"].tolist() == [7]
        for name, t in tiny_model.parameters().items():
            assert np.array_equal(t.data, loaded.parameters()[name].data)

    def test_checkpoint_records_init_seed(self, tmp_path):
        spec = ModelSpec(features=2, depth=1, input_dims=(8, 8, 8))
        model = UNet3D(spec, seed=41)
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        rebuilt = UNet3D(loaded.spec, loaded.seed)
        for name, t in rebuilt.parameters().items():
            assert np.array_equal(t.data, loaded.parameters()[name].data)

    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        # every weight is read from the file, so none is drawn first
        spec = ModelSpec(features=2, depth=1, input_dims=(8, 8, 8))
        model = UNet3D(spec, seed=41)
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(model, path)
        draws = []
        default_rng = np.random.default_rng

        class Recording:
            def __init__(self, *args):
                self._rng = default_rng(*args)

            def uniform(self, *args, **kwargs):
                draws.append(args)
                return self._rng.uniform(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        UNet3D(spec, seed=41)
        assert draws  # building a model does draw through the recorder
        draws.clear()
        loaded = load_checkpoint(path)
        assert draws == []
        for name, t in model.named_arrays().items():
            assert t.tobytes() == loaded.named_arrays()[name].tobytes()

    def test_bad_file_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_bytes(b"NSU1\x00")  # shorter than the 8-byte preamble
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])  # truncated payload
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)
        rewrite_header(path, raw, lambda h: h["bn_initialized"].pop("enc1.bn1"))
        with pytest.raises(CheckpointError, match="enc1.bn1"):
            load_checkpoint(path)
        rewrite_header(path, raw, lambda h: h.pop("bn_initialized"))
        with pytest.raises(CheckpointError, match="bn_initialized"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        for extras in (None, {"adam.t": np.asarray([7], dtype=np.int64)}):
            save_checkpoint(tiny_model, path, extras=extras)
            path.write_bytes(path.read_bytes() + b"\x00")
            with pytest.raises(CheckpointError, match="after the last array"):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            # same payload bytes, so only the stated name or shape is wrong
            (lambda table: table[1].__setitem__(0, "enc1.conv1.bias"), "enc1.conv1.bias"),
            (lambda table: table.pop(), "missing"),
            (lambda table: table[1].__setitem__(1, [1, table[1][1][0]]), "shape"),
        ],
        ids=["unknown", "missing", "mis-shaped"],
    )
    def test_arrays_must_match_model_exactly(self, tiny_model, tmp_path, edit, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model, path)
        rewrite_header(path, path.read_bytes(), lambda h: edit(h["arrays"]))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_bytes_pinned(self, tmp_path):
        # pinned digests of the format's bytes: a fresh model, then the same
        # model after a train-mode forward of zeros (exactly zero statistics)
        spec = ModelSpec(features=2, depth=2, bottleneck_layers=1, input_dims=(8, 8, 8))
        model = UNet3D(spec, seed=11)
        path = tmp_path / "pinned.ckpt"
        digests = []
        for _ in range(2):
            save_checkpoint(model, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            with ad.no_grad():
                model.forward(np.zeros((1, 1, 8, 8, 8), np.float32), "train", False)
        assert digests == [
            "5873691b39f1e0ee56f91a5c1217e78321ef4280368f6dfed548ea922ca626b6",
            "433a60c80a32aa0a390457c4b009c3fa5f70f24c8d5996961fac0e6d967a92e4",
        ]


class TestFixtureCheckpoint:
    def test_loads_and_resaves_byte_for_byte(self, tmp_path):
        model = load_checkpoint(FIXTURE_CKPT)
        assert model.spec == ModelSpec(features=1, depth=1, input_dims=(8, 8, 8))
        assert all(state.initialized for state in model._bn_states.values())
        save_checkpoint(model, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == FIXTURE_CKPT.read_bytes()

    def test_segments_byte_for_byte(self):
        # label digests of an MC and a dropout-free segmentation, taken
        # before the network took grids other than its input_dims
        model = load_checkpoint(FIXTURE_CKPT)
        data = np.random.default_rng(3).standard_normal((8, 8, 8)).astype(np.float32)
        v = Volume(data, (1.0, 1.0, 1.0))
        fused, _ = mc_segment(model, v, n=3, seed=4)
        with ad.no_grad():
            plain = hard_segment(model.forward(data[None, None], "eval", False).data[0], like=v)
        digests = [hashlib.sha256(lab.labels.tobytes()).hexdigest() for lab in (fused, plain)]
        assert digests == [
            "31ae17b6335d2044c2d2e20c044e3f3f5e71dd1465f7e9857a531d00985dc5a2",
            "7fe1592286d3a58c05d8d3b8fc16495d5e6bf3883005cabc74536dd3725fa48f",
        ]

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("num_classes", 4, "4 classes, segctl models have 28 classes"),
            ("in_channels", 2, "2 input channels"),
            ("kernel", [5, 5, 5], r"kernel \[5, 5, 5\]"),
            ("bn_eps", 1e-3, "eps 0.001"),
            ("bn_momentum", 0.5, "momentum 0.5"),
        ],
        ids=["num_classes", "in_channels", "kernel", "bn_eps", "bn_momentum"],
    )
    def test_a_different_fixed_value_is_rejected(self, tmp_path, key, value, match):
        path = tmp_path / "edited.ckpt"
        rewrite_header(path, FIXTURE_CKPT.read_bytes(), lambda h: h["spec"].update({key: value}))
        with pytest.raises(CheckpointError, match=f"{key}.*{match}"):
            load_checkpoint(path)
        rewrite_header(path, FIXTURE_CKPT.read_bytes(), lambda h: h["spec"].pop(key))
        with pytest.raises(CheckpointError, match=f"malformed checkpoint: '{key}'"):
            load_checkpoint(path)

