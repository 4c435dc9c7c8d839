import importlib

import qtst

MODULES = ("errors", "fit", "kie", "kramers", "qcorr", "spectral", "units", "wkb")


def test_package_all_is_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"qtst.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)), "a name is public in two modules"
    assert sorted(qtst.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(qtst, name) is getattr(module, name)
