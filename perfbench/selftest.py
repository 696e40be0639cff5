"""Self-test of the benchmark on tiny workloads (about a minute).

    python3 -m pytest -q perfbench/selftest.py

Not named ``test_*.py``, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_package()

import calibrate  # noqa: E402
import neuroseg  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "tiny-segment": workloads.SegmentWorkload(
        "tiny-segment", native=32, grid=32, features=4, depth=2, mc_samples=2
    ),
    "tiny-train": workloads.TrainWorkload("tiny-train", grid=32, features=4, subjects=6),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _targets():
    """(owner, attribute) of every function a tracer replaces, including the
    copies other neuroseg modules imported by name."""
    originals = [getattr(tracing.autodiff, op) for op in tracing.AUTODIFF_OPS]
    originals += [getattr(owner, attr) for owner, attr in tracing.TIMED.values()]
    sites = [(tracing.autodiff, op) for op in tracing.AUTODIFF_OPS]
    sites += list(tracing.TIMED.values()) + [tracing.MAP_COORDINATES]
    for name, module in list(sys.modules.items()):
        if name == "neuroseg" or name.startswith("neuroseg."):
            for key, value in vars(module).items():
                if any(value is fn for fn in originals):
                    sites.append((module, key))
    return {(owner, attr): getattr(owner, attr) for owner, attr in sites}


@pytest.fixture
def watched_ops(monkeypatch):
    """Records, for every operation, whether any traced function was wrapped
    when it started."""
    originals = _targets()
    seen = []

    def watch(op):
        def checked(*args, **kwargs):
            wrapped = [k for k, fn in originals.items() if getattr(*k) is not fn]
            seen.append(bool(wrapped))
            return op(*args, **kwargs)

        return checked

    for cls in (workloads.SegmentWorkload, workloads.TrainWorkload):
        monkeypatch.setattr(cls, "op", watch(cls.op))
    return originals, seen


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_installs_no_wrapper(name, watched_ops, tmp_path):
    _, seen = watched_ops
    attempted, failed, values, details = workloads.run(TINY[name], 3, 0.0, False, tmp_path)
    assert failed == 0 and attempted == TINY[name].min_ops
    assert seen == [False] * attempted
    assert set(values) == set(workloads.END_TO_END_UNITS)
    # one calibration before the first set-up and one after each set-up and operation
    calibrations = details["calibration_s"]
    assert len(calibrations) == 1 + workloads.SETUP_REPEATS + attempted
    walls = details["op_wall_s"]["untraced"]
    around = [(a + b) / 2 for a, b in zip(calibrations[-attempted - 1:], calibrations[-attempted:])]
    expected = sum(walls) / attempted * calibrate.correction(sum(around) / attempted)
    assert values["op_s"] == pytest.approx(expected)


def test_tracer_leaves_the_calibration_kernel_alone():
    with tracing.Tracer(32):
        assert getattr(*tracing.MAP_COORDINATES) is not calibrate.map_coordinates
    assert getattr(*tracing.MAP_COORDINATES) is calibrate.map_coordinates


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_restores_every_function(name, watched_ops, tmp_path):
    originals, seen = watched_ops
    _, failed, values, _ = workloads.run(TINY[name], 3, 0.0, True, tmp_path)
    assert failed == 0
    # untraced and traced operations alternate, untraced first
    assert seen == [False, True] * TINY[name].min_ops
    assert all(getattr(*k) is fn for k, fn in originals.items())
    assert set(values) == set(tracing.LAYER_METRIC_UNITS)
    assert values["unet.forward.calls"] > 0 and values["autodiff.conv3d.L0.fwd_s"] > 0


def test_tracer_restores_after_a_failing_call():
    originals = _targets()
    with pytest.raises(neuroseg.GeometryError):
        with tracing.Tracer(32):
            neuroseg.AffineTransform([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [0, 0, 0]).invert()
    assert all(getattr(*k) is fn for k, fn in originals.items())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    (environment,) = [json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment ")]
    for key in ("numpy", "scipy", "blas_threads", "nproc", "git_sha", "seed"):
        assert key in environment
    assert environment["blas_threads"] <= environment["nproc"]


def test_declared_units_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRIC_UNITS
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
