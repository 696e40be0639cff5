"""The package's module graph has two fixed edges it must never gain.

- No ``src/neuroseg`` module imports ``cli``: the command line is the top of
  the graph, and the library never reaches back into it.
- ``autodiff`` imports no other ``neuroseg`` module: the engine sits at the
  bottom, so shared helpers other modules need (``ShapeError``, ``named``,
  the parallel region) live there without a cycle.

Imports are read from the source with ``ast``, wherever they appear in a
module, function bodies included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "neuroseg"


def _package_imports(source: str) -> set:
    """The ``neuroseg`` modules that ``source``, a module of the package,
    imports: relative or absolute, by ``import``, ``from ... import`` of a
    module, or ``from`` a module of a name. The package itself is
    ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "neuroseg":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "neuroseg":
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x / from neuroseg import x
                found.update(alias.name for alias in node.names)
    return found


def _modules():
    return {path.stem: _package_imports(path.read_text()) for path in PACKAGE.glob("*.py")}


@pytest.mark.parametrize(
    "source, want",
    [
        ("from . import cli", {"cli"}),
        ("from .cli import run", {"cli"}),
        ("from .cli.sub import run", {"cli"}),
        ("import neuroseg.cli", {"cli"}),
        ("import neuroseg", {"__init__"}),
        ("from neuroseg import cli as c", {"cli"}),
        ("from neuroseg.cli import run", {"cli"}),
        ("def f():\n    from . import autodiff as ad, core", {"autodiff", "core"}),
        ("import numpy as np\nfrom contextlib import contextmanager", set()),
    ],
)
def test_imports_are_read(source, want):
    assert _package_imports(source) == want


def test_no_module_imports_cli():
    importers = sorted(name for name, imports in _modules().items() if "cli" in imports)
    assert importers == []


def test_autodiff_imports_no_other_package_module():
    assert _modules()["autodiff"] == set()
