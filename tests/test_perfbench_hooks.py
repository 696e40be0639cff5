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
