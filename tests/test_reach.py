"""Every definition in the package is reached from the package itself.

Code that only the tests call belongs with the tests (``oracles.py``,
``complexes.py``, ``stalks.py``).  A top-level ``def`` or ``class`` in
``src/branchcover`` counts as reached when a name or attribute with its
name, or an import of it, appears in some other top-level statement of
the package.
"""
import ast
from pathlib import Path

import branchcover

PACKAGE = Path(branchcover.__file__).resolve().parent


def referenced_names(node):
    """Names a node reads: plain names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def unreferenced_definitions(package: Path) -> list[str]:
    """``module.name`` of every top-level definition no other statement names."""
    defined = {}
    users: dict[str, list[ast.stmt]] = {}
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{stmt.name}"] = stmt
            for name in set(referenced_names(stmt)):
                users.setdefault(name, []).append(stmt)
    return sorted(qualname for qualname, stmt in defined.items()
                  if not any(user is not stmt for user in users.get(stmt.name, ())))


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced_definitions(PACKAGE) == []
