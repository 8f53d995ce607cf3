"""Every exported name resolves, so a deletion cannot leave a stale export,
and every definition is referenced, so no code is kept for nothing.

The package's modules declare their public names in __all__, and
nielsencalc/__init__.py re-exports a selection of them by name.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nielsencalc").glob("*.py"))
# ROADMAP item 3 gives these a caller
UNCALLED_BY_DESIGN = {"criteria_equivalence_iii", "criteria_equivalence_iii_prime"}


def _used_names(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_is_referenced():
    """Every function, class and method of the package, dunders aside, is
    named by package code outside its own definition, or by README.md,
    tests/test_acceptance.py or bench/.  The rule goes by name alone, so a
    definition that shares its name with one in use passes: it is a floor,
    not a proof that the code is used."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    used = sum(map(_used_names, trees), Counter())
    texts = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "bench").rglob("*.py"))]
    words = set(re.findall(r"\w+", "\n".join(
        path.read_text(encoding="utf-8") for path in texts)))
    unused = sorted(
        node.name for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == _used_names(node)[node.name]
        and node.name not in words | UNCALLED_BY_DESIGN)
    assert unused == []
