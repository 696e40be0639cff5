"""The benchmark's tracer still finds every function it patches.

``perfbench/tracing.py`` names neuroseg functions and methods by owner and
attribute. A refactor that renames or removes one would only fail when the
benchmark runs; these checks make it fail here. Nothing is run while the
tracer is installed.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def _patch_sites(tracing):
    """(owner, attribute) of everything the tracer can replace: the autodiff
    ops, the timed functions and methods, and ``map_coordinates``."""
    sites = [(tracing.autodiff, op) for op in tracing.AUTODIFF_OPS]
    sites += list(tracing.TIMED.values())
    sites.append(tracing.MAP_COORDINATES)
    return sites


def _bindings(tracing):
    """{(owner id, attribute): value} of every attribute the tracer may set:
    each patch site, and every global of every loaded neuroseg module."""
    found = {(id(owner), attr): getattr(owner, attr) for owner, attr in _patch_sites(tracing)}
    for name, module in list(sys.modules.items()):
        if name == "neuroseg" or name.startswith("neuroseg."):
            for key, value in vars(module).items():
                found[(id(module), key)] = value
    return found


def test_every_traced_name_resolves(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in _patch_sites(tracing)
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, "tracer names that no longer exist: " + ", ".join(missing)


def test_install_then_uninstall_restores_every_attribute(tracing):
    before = _bindings(tracing)
    tracer = tracing.Tracer(16)
    tracer.install()
    try:
        untouched = [
            attr for owner, attr in _patch_sites(tracing)
            if getattr(owner, attr) is before[(id(owner), attr)]
        ]
        assert not untouched, "the tracer did not replace these"
    finally:
        tracer.uninstall()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_segment_workload_runs_at_toy_size(workloads, tmp_path):
    # the benchmark calls the package by keyword; a renamed one fails here
    wl = workloads.SegmentWorkload("toy", native=16, grid=16, features=2, depth=1, mc_samples=2)
    setup = wl.setup(0, tmp_path)
    seconds, facts = wl.op(setup, 0, 0, tmp_path)
    assert seconds > 0 and facts["exit"] in (0, 2)
    assert 0.0 <= wl.quality([facts] * wl.min_ops) <= 1.0


def test_train_workload_runs_at_toy_size(workloads, tmp_path):
    # the third epoch runs the workload's check that the loss fell
    wl = workloads.TrainWorkload("toy", grid=16, features=2, depth=1, subjects=6)
    setup = wl.setup(0, tmp_path)
    facts = [wl.op(setup, 0, i, tmp_path)[1] for i in range(wl.min_ops)]
    assert [f["epoch"] for f in facts] == [1, 2, 3]
    assert wl.quality(facts) > 1.0
