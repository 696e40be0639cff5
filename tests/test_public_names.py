"""Every public name in ``neuroseg`` has a caller outside the tests.

A public module-level function counts as used when ``src/`` or
``perfbench/`` loads it from its own module: as a bare name in that module,
as a name imported from that module, as an attribute of a name bound to that
module, or as a string constant (the benchmark's tracer patches functions by
their string name). A method of some other object that shares its name, such
as ``set.add``, is not a use of ``autodiff.add``. A public class or module
constant, or a public method, counts as used when ``src/`` or ``perfbench/``
loads it somewhere: as a name, an attribute, an import alias or a string
constant. A public field of a public dataclass counts as used only when it is
read as an attribute or named by a string constant: a local variable of the
same name is not a read of the field. A name only the tests reach is dead
code; delete it, or list it in ``ALLOWED`` with the reason it stays. A field
only the tests read is deleted.

A public dataclass field with a plain ``=`` default is a setting, and a
setting no program sets is a constant: make it one, or list it in
``SET_BY_NAME`` with the reason it stays a field. A field counts as set when
``src/`` or ``perfbench/`` passes it by keyword, passes it by position to its
class, assigns it as an attribute or names it in a string constant, outside
the body of the dataclass itself.

A default of a parameter is a setting too: of a public function, of a public
method or of a public class's ``__init__``. Make it a constant, or list it in
``KEPT_DEFAULTS`` with the reason it stays, unless some call in ``src/`` or
``perfbench/`` passes it, by keyword or by position. A call matches by the
name it calls: the function's or method's name, or the class's name for its
``__init__``.
"""

import ast
from itertools import takewhile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neuroseg"

ALLOWED = {
    "autodiff.add": "a graph op the autodiff tests compose gradients from",
    "autodiff.mul": "a graph op the autodiff tests compose gradients from",
    "autodiff.sum_all": "the scalar reduction the autodiff gradient checks end in",
    "UNet3D.parameter_count": "the trainable-scalar count the tests check against a closed form",
    "AffineTransform.identity": "the neutral transform of the resampling round-trip tests",
}

SET_BY_NAME = {
    f"PhantomSpec.{name}": "set by name from a phantom spec JSON"
    for name in ("radius_jitter", "rotation_jitter_deg", "scale_jitter", "translation_jitter_mm")
}

KEPT_DEFAULTS = {
    "unet.UNet3D(dtype=)": "float64 models are the finite-difference gradient test's reference",
    "unet.save_checkpoint(extras=)": (
        "format-1 checkpoints carry extra.* arrays, the store of a calibrated QC threshold"
    ),
}


def _public(name):
    return not name.startswith("_")


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _definitions():
    """{qualified name: (defining file, whether it is a module-level
    function)} for every public top-level function, class and module constant
    of the package, and every public method."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                found[f"{module}.{node.name}"] = (path.name, isinstance(node, ast.FunctionDef))
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and _public(item.name):
                            found[f"{node.name}.{item.name}"] = (path.name, False)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and _public(name.id):
                            found[f"{module}.{name.id}"] = (path.name, False)
    return found


def _fields():
    """{qualified name: defining file} for every public field of a public
    dataclass of the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _public(node.name) and _is_dataclass(node):
                for item in node.body:
                    if (
                        isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and _public(item.target.id)
                    ):
                        found[f"{node.name}.{item.target.id}"] = path.name
    return found


def _is_classvar(annotation):
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return isinstance(target, ast.Name) and target.id == "ClassVar"


def _init_fields():
    """{class name: (defining file, [(field, whether it has a plain ``=``
    default)])} for every public dataclass of the package, its init fields in
    declaration order."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _public(node.name) and _is_dataclass(node):
                found[node.name] = (path.name, [
                    # a default_factory is a field(...) call, not a plain default
                    (item.target.id, bool(item.value) and not isinstance(item.value, ast.Call))
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and not _is_classvar(item.annotation)
                ])
    return found


def _source_paths():
    return sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def _sources():
    for path in _source_paths():
        yield from ast.walk(ast.parse(path.read_text()))


def _from_module(node):
    """The package module a ``from ... import`` names: '' for the package
    itself, None for a module outside it."""
    if node.level == 1:
        return node.module or ""
    if node.module == "neuroseg":
        return ""
    if node.module and node.module.startswith("neuroseg."):
        return node.module[len("neuroseg.") :]
    return None


def _function_uses():
    """Every 'module.name' that ``src/`` or ``perfbench/`` loads from that
    package module: a bare name in the module itself, a name imported from
    it, or an attribute of a name bound to it."""
    used = set()
    for path in _source_paths():
        tree = ast.parse(path.read_text())
        own = path.stem if path.parent == PACKAGE else None
        bound = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            source = _from_module(node) if isinstance(node, ast.ImportFrom) else None
            if source is None:
                continue
            for alias in node.names:
                if source:
                    used.add(f"{source}.{alias.name}")
                else:  # from neuroseg import autodiff as ad
                    bound[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
                used.add(f"{own}.{node.id}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
            ):
                used.add(f"{bound[node.value.id]}.{node.attr}")
    return used


def _strings():
    """Every string constant in ``src/`` or ``perfbench/`` (``getattr`` and
    the tracer name attributes so)."""
    return {
        node.value
        for node in _sources()
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _read_attributes():
    """Every attribute that ``src/`` or ``perfbench/`` reads, and every
    string constant there."""
    read = _strings()
    for node in _sources():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def _loaded_names():
    """Every identifier that ``src/`` or ``perfbench/`` loads: the read
    attributes and string constants, every loaded name and import alias."""
    loaded = _read_attributes()
    for node in _sources():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.alias):
            loaded.add(node.name.split(".")[-1])
    return loaded


def _field_settings(classes):
    """Every (setting, top-level class it is made in, or None) of ``src/``
    and ``perfbench/``: a keyword argument's name, an assigned attribute's
    name, a string constant, or 'Class.field' for an argument passed by
    position to one of ``classes``, {class name: [field, ...]}."""
    found = set()
    for path in _source_paths():
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.keyword) and node.arg:
                    found.add((node.arg, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    found.add((node.attr, owner))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found.add((node.value, owner))
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    positional = takewhile(lambda a: not isinstance(a, ast.Starred), node.args)
                    for _, field in zip(positional, classes.get(name, ())):
                        found.add((f"{name}.{field}", owner))
    return found


def _unset_settings():
    """{qualified name: defining file} of every public dataclass field with a
    plain ``=`` default that no program sets outside the class's own body."""
    fields = _init_fields()
    settings = _field_settings({c: [f for f, _ in fs] for c, (_, fs) in fields.items()})
    unset = {}
    for cls, (path, class_fields) in fields.items():
        for field, has_default in class_fields:
            if has_default and not any(
                name in (field, f"{cls}.{field}") and owner != cls for name, owner in settings
            ):
                unset[f"{cls}.{field}"] = path
    return unset


def _parameter_defaults():
    """{qualified parameter: (defining file, the name a call uses, the
    parameter, its position among the arguments a call passes, or None if
    it is keyword-only)} for every parameter with a default of a public
    function of the package, a public method of a public class or a public
    class's ``__init__``. A method's first parameter (``self`` or ``cls``)
    is bound, so a call passes none for it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            functions = []  # (qualified name, the name a call uses, definition, bound)
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                functions.append((f"{module}.{node.name}", node.name, node, 0))
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        functions.append((f"{module}.{node.name}", node.name, item, 1))
                    elif _public(item.name):
                        qualified = f"{module}.{node.name}.{item.name}"
                        functions.append((qualified, item.name, item, 1))
            for qualified, called, function, bound in functions:
                args = function.args
                positional = (args.posonlyargs + args.args)[bound:]
                first = len(positional) - len(args.defaults)
                for position, arg in enumerate(positional[first:], first):
                    found[f"{qualified}({arg.arg}=)"] = (path.name, called, arg.arg, position)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{qualified}({arg.arg}=)"] = (path.name, called, arg.arg, None)
    return found


def _unset_defaults():
    """{qualified parameter: defining file} of every parameter default that
    no call in ``src/`` or ``perfbench/`` passes."""
    keywords = set()
    most_positional = {}  # called name -> the most leading positional arguments a call passes
    for node in _sources():
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords.update((name, k.arg) for k in node.keywords if k.arg)
            n = sum(1 for _ in takewhile(lambda a: not isinstance(a, ast.Starred), node.args))
            most_positional[name] = max(n, most_positional.get(name, 0))
    return {
        qualified: path
        for qualified, (path, called, parameter, position) in _parameter_defaults().items()
        if (called, parameter) not in keywords
        and (position is None or most_positional.get(called, 0) <= position)
    }


def _unused():
    """{qualified name: defining file} of every public name with no use
    outside the tests."""
    loaded = _loaded_names()
    functions = _function_uses()
    strings = _strings()
    unused = {}
    for qualified, (path, is_function) in _definitions().items():
        name = qualified.split(".")[-1]
        if is_function:
            used = qualified in functions or name in strings
        else:
            used = name in loaded
        if not used:
            unused[qualified] = path
    return unused


def test_every_public_name_has_a_caller():
    dead = sorted(
        f"{qualified} ({path})" for qualified, path in _unused().items() if qualified not in ALLOWED
    )
    assert not dead, "public names only the tests use: " + ", ".join(dead)


def test_every_dataclass_field_is_read():
    read = _read_attributes()
    dead = sorted(
        f"{qualified} ({path})"
        for qualified, path in _fields().items()
        if qualified.split(".")[-1] not in read
    )
    assert not dead, "dataclass fields only the tests read: " + ", ".join(dead)


def test_allowlist_names_existing_unused_names():
    definitions = _definitions()
    unused = _unused()
    for qualified in ALLOWED:
        assert qualified in definitions, f"{qualified} is not defined"
        assert qualified in unused, f"{qualified} has a caller now"


def test_every_setting_is_set_by_a_program():
    unset = sorted(
        f"{qualified} ({path})"
        for qualified, path in _unset_settings().items()
        if qualified not in SET_BY_NAME
    )
    assert not unset, "dataclass fields with a default no program sets: " + ", ".join(unset)


def test_set_by_name_lists_unset_settings():
    unset = _unset_settings()
    for qualified in SET_BY_NAME:
        assert qualified in unset, f"{qualified} is set by a program now, or is not a setting"


def test_every_default_is_passed_by_a_program():
    unset = sorted(
        f"{qualified} ({path})"
        for qualified, path in _unset_defaults().items()
        if qualified not in KEPT_DEFAULTS
    )
    assert not unset, "parameter defaults no program passes: " + ", ".join(unset)


def test_kept_defaults_are_unset_defaults():
    unset = _unset_defaults()
    for qualified in KEPT_DEFAULTS:
        assert qualified in unset, f"{qualified} is passed by a program now, or has no default"
