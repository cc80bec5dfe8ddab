"""The package has two error families, and every raise names one of them.

``errors.py`` defines ``BranchCoverError`` and its two subclasses,
``InputError`` (exit 1) and ``InternalCheckError`` (exit 3); the message
names the failure.  A ``raise`` in ``src/branchcover`` of a name imported
from ``.errors`` must name one of the two families.
"""
import ast
from pathlib import Path

import branchcover

PACKAGE = Path(branchcover.__file__).resolve().parent
FAMILIES = {"InputError", "InternalCheckError"}


def test_errors_defines_exactly_the_two_families_and_their_base():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)]
    assert classes == ["BranchCoverError", "InputError", "InternalCheckError"]


def raised_error_names(package: Path) -> list[tuple[str, int, str]]:
    """(file, line, name) of every raise of a name imported from ``.errors``."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name
                    for stmt in ast.walk(tree)
                    if isinstance(stmt, ast.ImportFrom) and stmt.module == "errors"
                    for alias in stmt.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name) and target.id in imported:
                    found.append((path.name, node.lineno, target.id))
    return found


def test_every_raise_of_a_package_error_names_a_family():
    raised = raised_error_names(PACKAGE)
    assert raised, "no raise of a package error was found"
    assert [r for r in raised if r[2] not in FAMILIES] == []


def raise_messages(package: Path) -> list[tuple[str, int, str]]:
    """(file, line, text) of every raise, its text the string constants of
    its call's arguments, f-string pieces included."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                text = "".join(c.value for arg in node.exc.args for c in ast.walk(arg)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
                found.append((path.name, node.lineno, text))
    return found


def test_one_raise_decides_that_a_punctured_star_is_disconnected():
    """``fox_complete`` makes the one connectivity test of a base punctured
    star; no other raise repeats it."""
    sites = [r for r in raise_messages(PACKAGE) if "punctured star" in r[2]]
    assert [(name, text) for name, _line, text in sites] == [
        ("covering.py", "punctured star of branch simplex  is not connected")]
