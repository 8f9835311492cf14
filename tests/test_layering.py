"""The math layers build no reports: only ``verify`` and ``cli`` turn a
comparison into a ``VerificationReport``, so no evaluator imports ``report``
or ``verify``.  Every cache of big integers is the one bits-bounded memo of
``padic``; ``lru_cache`` serves only the caches whose entries are a few
numbers each.  The source is read with ``ast``; every exported name must
resolve."""

import ast
import importlib
from importlib.util import find_spec
from pathlib import Path

import pytest

MATH_LAYERS = ("euler", "fermionic", "zeta_char", "zeta_czp", "kernels", "characters", "padic")
REPORTING = {"padiczeta.report", "padiczeta.verify"}
PACKAGE = Path(find_spec("padiczeta").origin).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
# _zeta_value holds at most three numbers an entry and is the most read cache;
# _progression_degree holds one small int; _representation_value and
# _oracle_value hold one value an entry
COUNT_BOUNDED = {"_zeta_value", "_progression_degree", "_representation_value", "_oracle_value"}


def parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def names_used(tree: ast.AST) -> set[str]:
    """Every bare name, attribute and imported name in the tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def imported_modules(name: str) -> set[str]:
    """Every module ``padiczeta.<name>`` imports, by absolute name; a name
    imported from a package counts as a possible submodule."""
    found = set()
    for node in ast.walk(parse(name)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, "the package is flat"
            module = ".".join(filter(None, ("padiczeta" if node.level else "", node.module)))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_relative_imports_resolve():
    assert {"padiczeta.report", "padiczeta.verify"} <= imported_modules("cli")


@pytest.mark.parametrize("name", MATH_LAYERS)
def test_math_layer_imports_neither_report_nor_verify(name):
    assert not imported_modules(name) & REPORTING


@pytest.mark.parametrize("name", [m for m in MODULES if m != "padic"])
def test_only_padic_defines_memo_machinery(name):
    used = names_used(parse(name))
    assert "OrderedDict" not in used
    # the Euler triangle grows under a lock and is never evicted: not a memo
    if name != "euler":
        assert not used & {"threading", "Lock", "RLock"}


@pytest.mark.parametrize("name", MODULES)
def test_lru_cache_only_on_the_count_bounded_caches(name):
    tree = parse(name)
    decorating = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                if {"lru_cache", "cache"} & names_used(decorator):
                    assert node.name in COUNT_BOUNDED
                    decorating.update(map(id, ast.walk(decorator)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in decorating:
            assert getattr(node, "id", getattr(node, "attr", None)) not in {"lru_cache", "cache"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module("padiczeta" if name == "__init__" else f"padiczeta.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
