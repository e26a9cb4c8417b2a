"""The package root: every public name and submodule loads on first access."""

import ast
import builtins
import importlib
import inspect
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


def test_every_name_the_cli_calls_is_in_the_name_table():
    # cli binds a command's names from ``_EXPORTS`` when the command starts,
    # so a called name the table left out would be a NameError at run time.
    from thirdrule import cli

    tree = ast.parse(inspect.getsource(cli))
    stored = set(dir(builtins))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else stored).add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.ExceptHandler)):
            stored.add(node.name)
        elif isinstance(node, ast.arg):
            stored.add(node.arg)
        elif isinstance(node, ast.alias):
            stored.add(node.asname or node.name.split(".")[0])
    bound_on_demand = read - stored
    assert {"run_stress", "solve_plan", "shapley_values"} <= bound_on_demand
    assert bound_on_demand <= set(thirdrule._HOME)
