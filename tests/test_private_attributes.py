"""No module of the package reads or writes a private attribute of another object.

A name with one leading underscore belongs to the object or module that
defines it: only ``self`` touches its own.  State that a caller must see
is a field of a record, never a private slot filled in from outside.
The namedtuple API (``_asdict``, ``_replace``, ``_fields``, ``_make``) is
public despite its underscore, and dunder names are the language's.
"""
import ast
from pathlib import Path

import branchcover

PACKAGE = Path(branchcover.__file__).resolve().parent
NAMEDTUPLE_API = {"_asdict", "_replace", "_fields", "_make"}


def foreign_private_attributes(package: Path) -> list[tuple[str, int, str]]:
    """``(file, line, expression)`` of each ``x._name`` whose ``x`` is not ``self``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            name = node.attr
            if (not name.startswith("_") or name.startswith("__") and name.endswith("__")
                    or name in NAMEDTUPLE_API):
                continue
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                continue
            found.append((path.name, node.lineno, ast.unparse(node)))
    return found


def test_the_scan_sees_a_foreign_private_attribute(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(spec, rec):\n"
        "    spec._cache[1] = rec._replace(a=1).__len__()\n"
        "    return self._own\n")
    assert foreign_private_attributes(tmp_path) == [("mod.py", 2, "spec._cache")]


def test_no_module_touches_a_private_attribute_of_another_object():
    assert foreign_private_attributes(PACKAGE) == []
