"""The oracles stay independent of the code they check."""
import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
ENGINE_MODULES = {"branchcover.linalg", "branchcover.intersection"}
ENGINE_WORDS = ("rank", "nullspace", "betti", "chain_complex", "boundary", "component",
                "connected")


def imported_names(tree):
    """(module, name) for every name an import statement brings in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", alias.name


def test_oracles_are_independent():
    imports = list(imported_names(ast.parse(ORACLES.read_text(encoding="utf-8"))))
    assert imports, "no imports found: the parse is wrong"
    for module, name in imports:
        full = f"{module}.{name}"
        assert not any(path == m or path.startswith(m + ".")
                       for path in (module, full) for m in ENGINE_MODULES), full
        assert not any(word in name.lower() for word in ENGINE_WORDS), full
