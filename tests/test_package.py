"""The package root: every public name and submodule loads on first access."""

import importlib
import sys

import pytest

import thirdrule


def test_every_public_name_resolves_to_its_module_attribute():
    assert len(set(thirdrule.__all__)) == len(thirdrule.__all__)
    for name, module in thirdrule._HOME.items():
        home = importlib.import_module(f"thirdrule.{module}")
        assert getattr(thirdrule, name) is getattr(home, name), name
    assert thirdrule.__version__ == "0.1.0"


def test_dir_lists_every_public_name():
    assert set(thirdrule.__all__) <= set(dir(thirdrule))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from thirdrule import *", namespace)
    assert set(thirdrule.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["stress", "cli"])
def test_submodule_loads_through_the_root(name):
    # a bare ``import thirdrule`` reaches ``thirdrule.<name>`` through this hook
    assert thirdrule.__getattr__(name) is sys.modules[f"thirdrule.{name}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        thirdrule.no_such_name
    with pytest.raises(ImportError):
        from thirdrule import no_such_name  # noqa: F401
