import csv
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from neuroseg import autodiff as ad
from neuroseg.autodiff import Tensor
from neuroseg.core import NUM_CLASSES, one_hot
from neuroseg.metrics import (
    _LOG_CLAMP,
    DICE_EPS,
    CorrelationError,
    DiceReport,
    combined_loss,
    dice_report,
    pearson,
    write_dice_rows,
)

from conftest import central_diff, float_bits, max_rel_err


def _report(scores, voxels):
    """A DiceReport whose arrays hold the given label -> value entries, and 0
    at every other label."""
    per_structure, volumes = np.zeros(NUM_CLASSES), np.zeros(NUM_CLASSES)
    per_structure[list(scores)] = list(scores.values())
    volumes[list(voxels)] = list(voxels.values())
    return DiceReport(per_structure, volumes)


class TestDicePerStructure:
    def test_perfect_prediction(self, rng):
        labels = rng.integers(0, 4, (4, 4, 4))
        scores = dice_report(labels, labels).per_structure
        for s in (1, 2, 3):
            assert scores[s] == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_masks(self):
        labels_a = np.zeros((2, 2, 2), dtype=np.uint8)
        labels_a[0] = 1
        labels_b = np.zeros((2, 2, 2), dtype=np.uint8)
        labels_b[1] = 1
        scores = dice_report(labels_a, labels_b).per_structure
        assert scores[1] < 1e-6

    def test_half_overlap_hand_count(self):
        # |T| = 4, |P| = 4, overlap 2 -> 2*2 / (4+4) = 0.5
        truth = np.zeros((4, 2, 1), dtype=np.uint8)
        truth[0:2, :, 0] = 1  # 4 voxels
        pred = np.zeros((4, 2, 1), dtype=np.uint8)
        pred[1:3, :, 0] = 1  # 4 voxels, 2 shared
        scores = dice_report(pred, truth).per_structure
        assert scores[1] == pytest.approx(0.5, abs=1e-6)

    def test_empty_structure_defined_as_one(self):
        labels = np.zeros((2, 2, 2), dtype=np.uint8)
        scores = dice_report(labels, labels).per_structure
        assert scores[1] == 1.0
        assert scores[2] == 1.0

    def test_exhaustive_3x3x1_masks_match_set_overlap(self):
        # every pair of binary masks on a 3x3x1 grid vs 2|A n B|/(|A|+|B|)
        grids = []
        for bits in range(512):
            m = np.array([(bits >> i) & 1 for i in range(9)], dtype=np.uint8)
            grids.append(m.reshape(3, 3, 1))
        counts = [int(g.sum()) for g in grids]
        flat = np.stack([g.reshape(-1) for g in grids]).astype(np.int64)
        inters = flat @ flat.T
        checked = 0
        for a in range(0, 512, 7):  # stride keeps runtime sane; full sweep in acceptance
            for b in range(512):
                ours = dice_report(grids[a], grids[b]).per_structure[1]
                na, nb, i = counts[a], counts[b], int(inters[a, b])
                expected = (2 * i + DICE_EPS) / (na + nb + DICE_EPS)
                assert ours == pytest.approx(expected, rel=1e-12)
                checked += 1
        assert checked == 74 * 512


class TestSummaries:
    def test_uniform_scores(self):
        rep = _report({1: 0.8, 2: 0.8}, {1: 10, 2: 90})
        assert rep.average == pytest.approx(0.8)
        assert rep.volume_weighted == pytest.approx(0.8)

    def test_hand_weighted_example(self):
        rep = _report({1: 1.0, 2: 0.5}, {1: 100, 2: 300})
        assert rep.average == pytest.approx(0.75, abs=1e-12)
        assert rep.volume_weighted == pytest.approx(0.625, abs=1e-12)

    def test_single_structure(self):
        rep = _report({1: 0.62}, {1: 50})
        assert rep.average == pytest.approx(0.62)
        assert rep.volume_weighted == pytest.approx(0.62)

    def test_absent_structures_excluded_and_recorded(self):
        pred = np.zeros((3, 3, 3), dtype=np.uint8)
        truth = np.zeros((3, 3, 3), dtype=np.uint8)
        pred[0, 0, 0] = 1
        truth[0, 0, 0] = 1
        truth[1, 1, 1] = 0  # structure 2 never appears in truth
        pred[2, 2, 2] = 2  # but is predicted somewhere
        rep = dice_report(pred, truth)
        assert rep.volumes[2] == 0 and rep.volumes[3] == 0
        assert rep.average == pytest.approx(rep.per_structure[1])
        assert rep.volume_weighted == pytest.approx(rep.per_structure[1])

    def test_summaries_bounded_by_extremes(self, rng):
        scores = {s: float(rng.uniform(0.2, 0.9)) for s in range(1, 8)}
        vols = {s: int(rng.integers(5, 500)) for s in range(1, 8)}
        rep = _report(scores, vols)
        lo, hi = min(scores.values()), max(scores.values())
        assert lo <= rep.average <= hi
        assert lo <= rep.volume_weighted <= hi

    def test_equal_volumes_make_weighted_equal_average(self, rng):
        scores = {s: float(rng.uniform(0, 1)) for s in range(1, 6)}
        rep = _report(scores, {s: 77 for s in scores})
        assert rep.volume_weighted == pytest.approx(rep.average, abs=1e-12)


def _dict_dice_report(pred, truth):
    """The per-label dicts ``dice_report`` built before its tables became
    arrays: Dice and ground-truth voxels of structures 1..27."""
    joint = np.bincount(
        truth.ravel().astype(np.int64) * NUM_CLASSES + pred.ravel(),
        minlength=NUM_CLASSES * NUM_CLASSES,
    ).reshape(NUM_CLASSES, NUM_CLASSES).astype(np.float64)
    true_counts, pred_counts = joint.sum(axis=1), joint.sum(axis=0)
    dice = (2.0 * np.diag(joint) + DICE_EPS) / (true_counts + pred_counts + DICE_EPS)
    per_structure = {s: float(dice[s]) for s in range(1, NUM_CLASSES)}
    volumes = {s: int(true_counts[s]) for s in range(1, NUM_CLASSES)}
    return per_structure, volumes


def _dict_average(per_structure, volumes):
    scores = [d for s, d in per_structure.items() if volumes.get(s, 0) > 0]
    if not scores:
        raise ValueError("no structures present in ground truth")
    return float(np.mean(scores, dtype=np.float64))


def _dict_volume_weighted(per_structure, volumes):
    num = 0.0
    den = 0.0
    for s, d in per_structure.items():
        v = volumes.get(s, 0)
        num += v * d
        den += v
    if den == 0:
        raise ValueError("no structures present in ground truth")
    return float(num / den)


def _dict_rows(rows):
    """``write_dice_rows``'s bytes as its per-label dict loop wrote them."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["volume", "structure", "dice", "voxels", "d_a", "d_v"])
    for name, (per_structure, volumes) in rows:
        for s in sorted(per_structure):
            if volumes.get(s, 0) > 0:
                writer.writerow([name, s, repr(per_structure[s]), volumes[s], "", ""])
        writer.writerow(
            [
                name, "summary", "", "",
                repr(_dict_average(per_structure, volumes)),
                repr(_dict_volume_weighted(per_structure, volumes)),
            ]
        )
    return fh.getvalue().encode()


class TestArraysMatchDictLoops:
    """The label-indexed arrays give every summary and report byte that the
    per-label dict loops gave."""

    @staticmethod
    def _pairs(n):
        # truths draw from a random subset of labels, so structures go missing,
        # and background (label 0) fills much of every map but is never scored
        gen = np.random.default_rng(30)
        for _ in range(n):
            shape = tuple(gen.integers(2, 9, 3))
            labels = gen.choice(NUM_CLASSES, int(gen.integers(1, NUM_CLASSES + 1)), replace=False)
            truth = np.where(
                gen.random(shape) < gen.random(), 0, gen.choice(labels, shape)
            ).astype(np.uint8)
            pred = np.where(
                gen.random(shape) < gen.random(), truth, gen.integers(0, NUM_CLASSES, shape)
            ).astype(np.uint8)
            yield pred, truth

    def test_summaries_bitwise_on_random_label_maps(self):
        cases = absent = empty = 0
        for pred, truth in self._pairs(1500):
            rep = dice_report(pred, truth)
            per_structure, volumes = _dict_dice_report(pred, truth)
            assert rep.per_structure.shape == rep.volumes.shape == (NUM_CLASSES,)
            assert [float_bits(rep.per_structure[s]) for s in per_structure] == [
                float_bits(d) for d in per_structure.values()
            ]
            assert [rep.volumes[s] for s in volumes] == list(volumes.values())
            if not any(volumes.values()):
                empty += 1
                for summary in ("average", "volume_weighted"):
                    with pytest.raises(ValueError, match="no structures present"):
                        getattr(rep, summary)
                continue
            assert float_bits(rep.average) == float_bits(_dict_average(per_structure, volumes))
            weighted = _dict_volume_weighted(per_structure, volumes)
            assert float_bits(rep.volume_weighted) == float_bits(weighted)
            absent += 0 in volumes.values()
            cases += 1
        assert cases >= 1000 and absent > 500 and empty > 0

    def test_summaries_bitwise_on_random_tables(self):
        # whole-brain voxel counts, where a pairwise sum of the products
        # would round differently from the label-order one
        gen = np.random.default_rng(31)
        for _ in range(1000):
            per_structure = gen.random(NUM_CLASSES)
            volumes = gen.integers(0, 10 ** int(gen.integers(1, 8)), NUM_CLASSES).astype(float)
            volumes[gen.random(NUM_CLASSES) < 0.3] = 0
            volumes[1] = max(volumes[1], 1)  # one structure present
            rep = DiceReport(per_structure, volumes)
            scores = {s: float(per_structure[s]) for s in range(1, NUM_CLASSES)}
            voxels = {s: int(volumes[s]) for s in range(1, NUM_CLASSES)}
            assert float_bits(rep.average) == float_bits(_dict_average(scores, voxels))
            assert float_bits(rep.volume_weighted) == float_bits(_dict_volume_weighted(scores, voxels))

    def test_report_file_bitwise_on_random_label_maps(self, tmp_path):
        pairs = [(p, t) for p, t in self._pairs(1500) if t.any()]
        path = tmp_path / "eval.csv"
        write_dice_rows([(f"v{i}", dice_report(p, t)) for i, (p, t) in enumerate(pairs)], path)
        want = _dict_rows([(f"v{i}", _dict_dice_report(p, t)) for i, (p, t) in enumerate(pairs)])
        assert path.read_bytes() == want


class TestCombinedLoss:
    def test_perfect_prediction_limit(self):
        # all 28 classes present; P = T clamped at 1 - 1e-7
        labels = np.arange(28, dtype=np.uint8).reshape(1, 4, 7)
        T = one_hot(labels, 28)[None]
        P = T * (1 - 1e-7) + (1 - T) * (1e-7 / 27)
        loss = combined_loss(Tensor(P.astype(np.float64)), T.astype(np.float64))
        assert loss.item() == pytest.approx(-28.0, abs=1e-3)

    def test_uniform_prediction_hand_value(self):
        # 2x2x2 volume, all voxels class 5, P uniform = 1/28
        labels = np.full((2, 2, 2), 5, dtype=np.uint8)
        T = one_hot(labels, 28)[None].astype(np.float64)
        P = np.full((1, 28, 2, 2, 2), 1.0 / 28, dtype=np.float64)
        loss = combined_loss(Tensor(P), T)
        ce = 8 * math.log(28)
        present = (2 * 8 / 28 + DICE_EPS) / (8 / 28 + 8 + DICE_EPS)
        absent = DICE_EPS / (8 / 28 + DICE_EPS)
        expected = ce - present - 27 * absent
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            combined_loss(Tensor(np.zeros((1, 3, 2, 2, 2))), np.zeros((1, 4, 2, 2, 2)))

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_wrt_logits(self, seed):
        gen = np.random.default_rng(seed)
        z = gen.standard_normal((1, 5, 4, 4, 4))
        labels = gen.integers(0, 5, (4, 4, 4))
        T = one_hot(labels, 5)[None].astype(np.float64)
        zt = Tensor(z, requires_grad=True)
        combined_loss(ad.softmax_channels(zt), T).backward()

        def f():
            return combined_loss(ad.softmax_channels(Tensor(z)), T).item()

        assert max_rel_err(zt.grad, central_diff(f, z)) < 1e-4

    def test_descent_on_logits_converges_to_truth(self):
        # minimizing over P (via logits) drives P toward T on a 2^3 instance
        gen = np.random.default_rng(3)
        labels = gen.integers(0, 3, (2, 2, 2))
        T = one_hot(labels, 3)[None].astype(np.float64)
        z = gen.standard_normal((1, 3, 2, 2, 2)) * 0.1
        first = None
        for step in range(400):
            zt = Tensor(z, requires_grad=True)
            P = ad.softmax_channels(zt)
            loss = combined_loss(P, T)
            if first is None:
                first = loss.item()
            loss.backward()
            z = z - 0.5 * zt.grad
        final_P = ad.softmax_channels(Tensor(z)).data
        assert loss.item() < first
        assert np.all(np.argmax(final_P[0], axis=0) == labels)
        assert np.max(np.abs(final_P - T)) < 0.05


def _plain_loss(P, T):
    """combined_loss's value and first-write gradient as plain expressions,
    one full-size array per step."""
    axes, cshape = (0, 2, 3, 4), (1, -1, 1, 1, 1)
    inter = (P.astype(np.float64) * T).sum(axis=axes)
    denom = P.sum(axis=axes, dtype=np.float64) + T.sum(axis=axes, dtype=np.float64) + DICE_EPS
    dice = (2.0 * inter + DICE_EPS) / denom
    Pc = np.maximum(P, _LOG_CLAMP)
    value = np.asarray(-(T * np.log(Pc)).sum(dtype=np.float64) - dice.sum())
    ddice = 2.0 * T * denom.reshape(cshape) - (2.0 * inter + DICE_EPS).reshape(cshape)
    ddice = ddice / (denom ** 2).reshape(cshape)
    dce = np.where(P >= _LOG_CLAMP, -T / Pc, 0.0)
    grad = np.zeros_like(P)
    grad += (np.ones_like(value) * (dce - ddice)).astype(P.dtype)
    return value, grad


class TestCombinedLossBuffers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equals_the_plain_expressions(self, dtype):
        # softmax fields of a batch of 2 with values below the log clamp,
        # zeros and -0.0; the truth is float32 one-hot, as training passes
        gen = np.random.default_rng(8)
        for _ in range(5):
            z = gen.standard_normal((2, 6, 5, 6, 7)) * 4
            P = np.exp(z)
            P = (P / P.sum(axis=1, keepdims=True)).astype(dtype)
            for value, count in ((0.0, 40), (_LOG_CLAMP / 100, 40), (-0.0, 5)):
                P.flat[gen.integers(0, P.size, count)] = value
            T = np.stack([one_hot(gen.integers(0, 6, (5, 6, 7)), 6) for _ in range(2)])
            Pt = Tensor(P, requires_grad=True)
            loss = combined_loss(Pt, T)
            loss.backward()
            value, grad = _plain_loss(P, T)
            assert loss.data.dtype == value.dtype and loss.data.tobytes() == value.tobytes()
            assert Pt.grad.dtype == grad.dtype and Pt.grad.tobytes() == grad.tobytes()

    def test_peak_memory_in_fields(self):
        # a float32 (1, 28, 16, 16, 16) field is one unit. The forward peaks
        # at its float64 product (2 units) and keeps no field for the
        # backward; the backward holds its float64 Dice term, one float32
        # field, a mask and the gradient the first write copies. The plain
        # expressions kept max(P, clamp) and peaked at 6 units backward.
        gen = np.random.default_rng(2)
        P = gen.dirichlet(np.ones(28), (16, 16, 16)).transpose(3, 0, 1, 2)[None]
        P = np.ascontiguousarray(P, dtype=np.float32)
        T = one_hot(gen.integers(0, 28, (16, 16, 16)))[None]
        Pt = Tensor(P, requires_grad=True)
        tracemalloc.start()
        try:
            loss = combined_loss(Pt, T)
            kept, forward = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            backward = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept < 0.1 * P.nbytes
        assert forward < 2.5 * P.nbytes
        assert backward < 4.5 * P.nbytes


class TestPearson:
    def test_perfect_anticorrelation(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        ys = [-x for x in xs]
        assert pearson(xs, ys) == pytest.approx(-1.0, abs=1e-12)

    def test_perfect_correlation(self):
        xs = [0.5, 1.0, 4.0]
        assert pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_example(self):
        # xs {1,2,3}, ys {2,2,4}: r = sqrt(3)/2
        assert pearson([1, 2, 3], [2, 2, 4]) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(CorrelationError):
            pearson([1, 2], [3, 4])

    def test_zero_variance(self):
        with pytest.raises(CorrelationError):
            pearson([1, 1, 1], [2, 3, 4])


class TestReportFile:
    def test_rows_and_summary(self, tmp_path):
        rep = _report({1: 0.9, 2: 0.7, 3: 0.5}, {1: 10, 2: 20, 3: 0})
        path = tmp_path / "eval.csv"
        write_dice_rows([("vol0", rep), ("vol1", rep)], path)
        lines = path.read_text().strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header.split(",")[:4] == ["volume", "structure", "dice", "voxels"]
        detail = [r for r in rows if ",summary," not in r]
        summaries = [r for r in rows if ",summary," in r]
        assert len(detail) == 2 * 2  # volumes x structures present
        assert len(summaries) == 2
