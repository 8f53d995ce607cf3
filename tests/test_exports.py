"""Every exported name resolves, so a deletion cannot leave a stale export.

The package's modules declare their public names in __all__, and
nielsencalc/__init__.py re-exports a selection of them by name.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import nielsencalc

MODULES = [importlib.import_module(f"nielsencalc.{info.name}")
           for info in pkgutil.iter_modules(nielsencalc.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_the_package_reexports_only_declared_names():
    tree = ast.parse(inspect.getsource(nielsencalc))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"nielsencalc.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(nielsencalc, alias.asname or alias.name) is getattr(
                module, alias.name)
