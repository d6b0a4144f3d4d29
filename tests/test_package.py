"""The package namespace is the union of its modules' ``__all__`` lists."""

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
    assert set(errors.__all__) == classes and len(classes) == 8
