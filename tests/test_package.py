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


def test_builtin_friction_models_leave_the_checks_to_the_base_class():
    # FrictionModel.laplace_kernel and friction_spectrum are the one place
    # that checks z and omega; a built-in model defines only the bodies
    from qtst import spectral

    for cls in spectral._KINDS.values():
        own = vars(cls)
        assert "_kernel" in own and "_spectrum" in own, cls.__name__
        assert "laplace_kernel" not in own and "friction_spectrum" not in own, cls.__name__
