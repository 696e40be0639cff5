import os
import sys
import threading

import numpy as np
import pytest

from neuroseg import autodiff as ad
from neuroseg.core import AffineTransform, Volume
from neuroseg.inference import (
    hard_segment,
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
    return volumes


class TestUncertainty:
    def test_cv_on_hand_made_samples(self):
        report = uncertainty(_samples(), threshold=0.01)
        assert report.mean_volume[2] == 100.0
        assert report.std_volume[2] == 10.0
        assert report.cv_per_structure[2] == 0.1
        assert report.cv_per_structure[1] == 0.0
        # structure 5 is left out of the mean over 26 structures
        assert 5 not in report.cv_per_structure
        assert report.mean_volume[5] == 0.0
        assert len(report.cv_per_structure) == 26
        assert report.cv == 0.1 / 26

    def test_verdict_at_threshold(self):
        cv = 0.1 / 26
        assert uncertainty(_samples(), threshold=cv).verdict == "pass"
        below = np.nextafter(cv, 0.0)
        assert uncertainty(_samples(), threshold=below).verdict == "warn"

    def test_needs_two_samples_and_one_structure(self):
        with pytest.raises(ValueError, match="at least 2"):
            uncertainty(np.ones((1, 28), dtype=np.int64), 0.01)
        with pytest.raises(ValueError, match="no structure"):
            uncertainty(np.zeros((2, 28), dtype=np.int64), 0.01)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
    def test_one_voxel_flicker_does_not_drive_the_aggregate(self):
        # 15 passes: structures 1 and 2 vary by 1%, structure 7 is one voxel
        # in pass 0 only. Its CV_7 is sqrt(14) whatever its size, and the
        # shipped mean of CV_s reads 1.25 although the anatomy is stable.
        sign = np.where(np.arange(15) % 2 == 0, 1, -1)
        volumes = np.zeros((15, 28), dtype=np.int64)
        volumes[:, 1] = 1000 + 10 * sign
        volumes[:, 2] = 500 + 5 * sign
        volumes[0, 7] = 1
        report = uncertainty(volumes, threshold=0.05)
        assert report.cv < 0.05

    def test_report_marks_absent_structure(self, tmp_path):
        report = uncertainty(_samples(), threshold=0.01)
        path = tmp_path / "uncertainty.csv"
        write_uncertainty_report(report, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows[5][0] == "5" and rows[5][-1] == "absent"
        assert rows[2][-1] == repr(0.1)
        assert rows[-1] == ["summary", "", repr(report.cv), repr(0.01), "pass"]


class TestHardSegment:
    def test_ties_go_to_the_lowest_class(self):
        P = np.zeros((4, 2, 1, 1))
        P[[1, 3], 1] = 0.5  # voxel 1: classes 1 and 3 tie; voxel 0: all four
        seg = hard_segment(P, Volume(np.zeros((2, 1, 1), dtype=np.float32)))
        assert seg.labels.dtype == np.uint8
        assert seg.labels.ravel().tolist() == [0, 1]

    def test_geometry_comes_from_like(self):
        affine = AffineTransform(np.diag([2.0, 1.0, 0.5]), [1.0, -2.0, 3.0])
        like = Volume(np.zeros((3, 4, 5), dtype=np.float32), (2.0, 1.0, 0.5), affine)
        P = np.random.default_rng(0).random((28, 3, 4, 5))
        seg = hard_segment(P, like)
        assert seg.spacing == like.spacing and seg.affine is affine
        assert np.array_equal(seg.labels, np.argmax(P, axis=0))

    def test_mc_fusion_is_hard_segment_of_the_float64_sum(self):
        model, x = _mc_model()
        affine = AffineTransform(np.eye(3), [4.0, 5.0, 6.0])
        v = Volume(x[0, 0], (1.5, 1.5, 2.0), affine)
        fused, _ = mc_segment(model, v, n=3, seed=6)
        total = np.zeros((28, 8, 8, 8), dtype=np.float64)
        for child in np.random.SeedSequence(6).spawn(3):
            with ad.no_grad():
                total += model.forward(x, "eval", True, np.random.default_rng(child)).data[0]
        want = hard_segment(total, v)
        assert fused.labels.tobytes() == want.labels.tobytes()
        assert fused.labels.dtype == np.uint8
        assert fused.spacing == v.spacing and fused.affine is affine


class TestMcSegment:
    def test_fusion_does_not_depend_on_sample_order(self):
        spec = ModelSpec(features=2, depth=2, bottleneck_layers=1, input_dims=(8, 8, 8))
        model = UNet3D(spec, seed=21)
        gen = np.random.default_rng(8)
        x = gen.random((1, 1, 8, 8, 8), dtype=np.float32) * 100
        model.forward(x, mode="train", rng=np.random.default_rng(0))  # batch-norm stats
        v = Volume(x[0, 0])
        fused, volumes = mc_segment(model, v, n=5, seed=3)

        # the same passes, each with its own child rng, run in reverse order;
        # float32 probabilities sum exactly in float64, so the order of the
        # sum cannot change the fused labels either
        children = np.random.SeedSequence(3).spawn(5)
        total = np.zeros((28, 8, 8, 8))
        for i in reversed(range(5)):
            with ad.no_grad():
                P = model.forward(
                    x, mode="eval", dropout_active=True, rng=np.random.default_rng(children[i])
                )
            total += P.data[0]
            counts = np.bincount(np.argmax(P.data[0], axis=0).ravel(), minlength=28)
            assert np.array_equal(volumes[i], counts)
        assert np.array_equal(fused.labels, np.argmax(total, axis=0))
        assert len(np.unique(volumes, axis=0)) > 1  # the passes differ

    def test_encoder_block_1_runs_once_per_volume(self, monkeypatch):
        spec = ModelSpec(features=2, depth=2, bottleneck_layers=1, input_dims=(8, 8, 8))
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
        assert [c for c in calls if c[0] == 1] == [(1, True)]  # the one input channel
        assert sum(in_block1 for _, in_block1 in calls) == 2  # its two convolutions
        assert len(calls) == 2 + 5 * (per_forward - 2)  # the others run in every pass
        # every pass keeps all 2 * depth dropouts, two of them on the full
        # grid: encoder block 1's and the last decoder block's
        assert len(dropouts) == 5 * 2 * spec.depth
        assert dropouts.count((spec.features, 8, 8, 8)) == 5 * 2


def _mc_model():
    spec = ModelSpec(features=2, depth=2, bottleneck_layers=1, input_dims=(8, 8, 8))
    model = UNet3D(spec, seed=2)
    x = np.random.default_rng(1).random((1, 1, 8, 8, 8), dtype=np.float32)
    model.forward(x, mode="train", rng=np.random.default_rng(0))  # batch-norm stats
    return model, x


def _one_at_a_time(model, x, n, seed):
    """mc_segment's labels and volumes from a plain loop of full forwards."""
    total = np.zeros((28, 8, 8, 8))
    volumes = []
    for child in np.random.SeedSequence(seed).spawn(n):
        with ad.no_grad():
            P = model.forward(x, "eval", True, np.random.default_rng(child))
        total += P.data[0]
        volumes.append(np.bincount(np.argmax(P.data[0], axis=0).ravel(), minlength=28))
    return np.argmax(total, axis=0), np.array(volumes)


def _blas_threads():
    api = ad._blas_thread_api()
    if api is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    return api[0]()


@pytest.fixture
def three_workers(monkeypatch):
    """A region of 3 workers, whatever the core count: n = 5 passes stream
    through them with fewer passes than workers at the end, and threads
    outnumber cores on a small host."""
    _blas_threads()
    monkeypatch.setattr(ad, "parallel_workers", lambda: 3)


class TestParallelPasses:
    @pytest.mark.parametrize("n", [2, 5])
    def test_mc_segment_equals_one_pass_at_a_time(self, n):
        model, x = _mc_model()
        fused, got = mc_segment(model, Volume(x[0, 0]), n=n, seed=4)
        labels, volumes = _one_at_a_time(model, x, n, 4)
        assert np.array_equal(fused.labels, labels)
        assert np.array_equal(got, volumes) and got.dtype == np.int64

    def test_streamed_fields_are_bitwise_forward(self, three_workers):
        model, x = _mc_model()
        seeds = [7, 8, 9, 10, 11]
        passes = []
        model.mc_passes(x, (np.random.default_rng(s) for s in seeds), passes.append)
        assert len(passes) == 5
        for s, P in zip(seeds, passes):
            # graph building is off in the pool threads too
            assert not P.requires_grad and P._parents == ()
            with ad.no_grad():
                want = model.forward(x, "eval", True, np.random.default_rng(s))
            assert P.data.tobytes() == want.data.tobytes()

    def test_without_blas_control_one_pass_at_a_time(self, monkeypatch):
        monkeypatch.setattr(ad, "_blas_thread_api", lambda: None)
        assert ad.parallel_workers() == 1
        model, x = _mc_model()
        fused, got = mc_segment(model, Volume(x[0, 0]), n=5, seed=4)
        labels, volumes = _one_at_a_time(model, x, 5, 4)
        assert np.array_equal(fused.labels, labels)
        assert np.array_equal(got, volumes)

    def test_workers_are_the_usable_cores(self):
        _blas_threads()
        assert ad.parallel_workers() == len(os.sched_getaffinity(0))

    def test_blas_pinned_during_passes_and_restored(self, monkeypatch, three_workers):
        before = _blas_threads()
        get = ad._blas_thread_api()[0]
        seen = []
        dropout = ad.dropout

        def recording(x, rate, rng):
            seen.append(get())
            return dropout(x, rate, rng)

        model, x = _mc_model()
        monkeypatch.setattr(ad, "dropout", recording)
        mc_segment(model, Volume(x[0, 0]), n=5, seed=0)
        # 5 passes streamed through 3 workers: all pinned to one thread
        assert seen == [1] * len(seen) and len(seen) == 5 * 2 * model.spec.depth
        assert get() == before

    def test_blas_restored_after_a_pass_raises(self, monkeypatch, three_workers):
        before = _blas_threads()
        model, x = _mc_model()
        rngs = [np.random.default_rng(s) for s in range(5)]
        dropout = ad.dropout

        def failing(x, rate, rng):
            if rng is rngs[2]:
                raise RuntimeError("pass 3 failed")
            return dropout(x, rate, rng)

        monkeypatch.setattr(ad, "dropout", failing)
        with pytest.raises(RuntimeError, match="pass 3 failed"):
            model.mc_passes(x, rngs, lambda P: None)
        assert ad._blas_thread_api()[0]() == before

    def test_blas_restored_when_abandoned_after_first_yield(self, three_workers):
        # a fuse that raises abandons the passes after the first field
        before = _blas_threads()
        get = ad._blas_thread_api()[0]
        model, x = _mc_model()
        pinned = []

        def fuse(P):
            pinned.append(get())
            raise RuntimeError("fuse failed")

        with pytest.raises(RuntimeError, match="fuse failed"):
            model.mc_passes(x, (np.random.default_rng(s) for s in range(5)), fuse)
        # the region, and its pin, are open while the first field is fused
        assert pinned == [1]
        assert get() == before
        assert ad._region.get() is None
        assert not [t for t in threading.enumerate() if t.name.startswith("parallel")]

    def test_blas_restored_when_closed_after_first_field(self, three_workers):
        # GeneratorExit is not an Exception: the region closes on it too
        before = _blas_threads()
        model, x = _mc_model()
        fused = []

        def fuse(P):
            fused.append(P)
            raise GeneratorExit

        with pytest.raises(GeneratorExit):
            model.mc_passes(x, (np.random.default_rng(s) for s in range(5)), fuse)
        assert len(fused) == 1
        assert ad._blas_thread_api()[0]() == before
        assert ad._region.get() is None
        assert not [t for t in threading.enumerate() if t.name.startswith("parallel")]

    def test_convs_in_pass_threads_submit_nothing(self, three_workers, submits, monkeypatch):
        # only the calling thread hands work to the pool: encoder block 1's
        # conv slabs and one task per pass; a pass never splits its convs.
        # One slab per stack, so that these small convs are split at all.
        monkeypatch.setattr(ad, "_STACK_BYTES", 1)
        model, x = _mc_model()
        fused, got = mc_segment(model, Volume(x[0, 0]), n=5, seed=4)
        assert {thread for thread, _ in submits} == {threading.current_thread()}
        assert sum(fn == model._rest for _, fn in submits) == 5
        assert len(submits) > 5  # encoder block 1's convs were split too
        labels, volumes = _one_at_a_time(model, x, 5, 4)
        assert np.array_equal(fused.labels, labels)
        assert np.array_equal(got, volumes)

    def test_two_concurrent_calls(self):
        before = _blas_threads()
        model, x = _mc_model()
        want = [_one_at_a_time(model, x, 5, seed) for seed in (0, 1)]
        got = {}

        def call(seed):
            got[seed] = mc_segment(model, Volume(x[0, 0]), n=5, seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(seed,)) for seed in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seed in (0, 1):
            assert np.array_equal(got[seed][0].labels, want[seed][0])
            assert np.array_equal(got[seed][1], want[seed][1])
        assert ad._blas_thread_api()[0]() == before
