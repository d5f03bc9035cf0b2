import importlib
import pkgutil

import pytest

import soficrank

MODULES = sorted(
    "soficrank." + info.name for info in pkgutil.iter_modules(soficrank.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module but left in its __all__ breaks star imports
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_is_the_submodule(name):
    # a re-export named like its submodule would shadow it on the package
    module = importlib.import_module(name)
    assert getattr(soficrank, name.rsplit(".", 1)[1]) is module


def test_every_module_declares_all():
    undeclared = [n for n in MODULES if not hasattr(importlib.import_module(n), "__all__")]
    assert undeclared == []


def test_no_module_level_caches():
    # a functools cache is state shared by every job run in one process
    cached = [
        "%s.%s" % (name, attr)
        for name in MODULES
        for attr, value in vars(importlib.import_module(name)).items()
        if hasattr(value, "cache_info")
    ]
    assert cached == []
