"""Flatness is checked in one place: ``covering.validate_monodromy``.

``LocalSystemQ`` checks nothing, because every system the package builds
comes from a validated transport table: the table builders are the only
code that makes a ``LocalSystemQ``, and each call of a builder hands it
a ``.table``, as :class:`covering.BranchedCoverSpec` holds it.  A second
way to make a system would show as a ``LocalSystemQ(...)`` call elsewhere,
or as a builder handed something else.
"""
import ast
from pathlib import Path

import branchcover

PACKAGE = Path(branchcover.__file__).resolve().parent
BUILDERS = ("pushforward_local_system", "kernel_system")


def _called(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unchecked_systems(source: str) -> list[str]:
    """Each ``LocalSystemQ(...)`` call outside ``_table_system``, and each
    builder call with no ``....table`` argument, by function and line."""
    found = []

    def scan(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = _called(child)
                args = list(child.args) + [kw.value for kw in child.keywords]
                if name == "LocalSystemQ" and where != "_table_system":
                    found.append(f"{where}, line {child.lineno}: LocalSystemQ(...)")
                if name in BUILDERS and not any(
                        isinstance(a, ast.Attribute) and a.attr == "table" for a in args):
                    found.append(f"{where}, line {child.lineno}: {name} without a table")
            scan(child, where)

    scan(ast.parse(source), "<module>")
    return found


def test_the_guard_sees_an_unchecked_system():
    source = ("def _table_system(base, rank, table, action):\n"
              "    return LocalSystemQ(base, rank, {})\n"
              "def gauge(system):\n"
              "    return local_systems.LocalSystemQ(system.base, 1, {})\n"
              "def twisted(spec, table):\n"
              "    kernel_system(spec.complement, spec.degree, spec.table)\n"
              "    return pushforward_local_system(spec.complement, spec.degree, table)\n")
    assert unchecked_systems(source) == [
        "gauge, line 4: LocalSystemQ(...)",
        "twisted, line 7: pushforward_local_system without a table"]


def test_every_system_comes_from_a_validated_table():
    found = {path.name: unchecked_systems(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    calls = [_called(node) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    assert calls.count("LocalSystemQ") == 1
    assert all(name in calls for name in BUILDERS)
