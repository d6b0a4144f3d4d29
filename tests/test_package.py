"""The package namespace is the union of its modules' ``__all__`` lists."""

import ast
import pathlib
import types

import cavityqfc
from cavityqfc import conversion, errors, fitting, noise, photon_stats, presets, snr

REEXPORTED = (conversion, errors, fitting, noise, photon_stats, presets, snr)


def test_public_names_are_the_modules_all():
    public = {
        name for name, value in vars(cavityqfc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for module in REEXPORTED for name in module.__all__}
    assert not public & {"np", "dataclass", "field", "fields", "math", "annotations"}


def test_no_module_shadows_another_modules_name():
    names = [name for module in REEXPORTED for name in module.__all__]
    assert len(names) == len(set(names))
    for module in REEXPORTED:
        for name in module.__all__:
            assert getattr(cavityqfc, name) is getattr(module, name)


def test_errors_all_lists_every_exception_class():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert set(errors.__all__) == classes


def _raised_names() -> set:
    """The names that a ``raise`` statement in the package raises, called or bare."""
    names = set()
    for path in pathlib.Path(cavityqfc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def test_every_exception_class_is_raised():
    # a class that no raise names, nor any subclass of it, is public API that never fires
    raised = [getattr(errors, name) for name in _raised_names() & set(errors.__all__)]
    unraised = [name for name in errors.__all__
                if not any(issubclass(cls, getattr(errors, name)) for cls in raised)]
    assert unraised == []
