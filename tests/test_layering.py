"""The math layers build no reports: only ``verify`` and ``cli`` turn a
comparison into a ``VerificationReport``, so no evaluator imports ``report``
or ``verify``.  The imports are read from the source with ``ast``."""

import ast
from importlib.util import find_spec
from pathlib import Path

import pytest

MATH_LAYERS = ("euler", "fermionic", "zeta_char", "zeta_czp", "kernels", "characters", "padic")
REPORTING = {"padiczeta.report", "padiczeta.verify"}


def imported_modules(name: str) -> set[str]:
    """Every module ``padiczeta.<name>`` imports, by absolute name; a name
    imported from a package counts as a possible submodule."""
    source = Path(find_spec(f"padiczeta.{name}").origin).read_text(encoding="utf-8")
    found = set()
    for node in ast.walk(ast.parse(source)):
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
