"""The package eliminates in one place: ``linalg._pivot_rows``.

A second solver over a prime field would show as a modular inverse,
``pow(x, -1, p)``, or as a ``*mod_p*`` helper; the GF(p) elimination that
draws random monodromy classes lives with the tests (``complexes.py``).
"""
import ast
from pathlib import Path

import branchcover

PACKAGE = Path(branchcover.__file__).resolve().parent


def prime_field_code(source: str) -> list[str]:
    """Each modular-inverse ``pow`` call and each ``*mod_p*`` name a module defines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "pow" and len(node.args) >= 2
                and isinstance(node.args[1], (ast.UnaryOp, ast.Constant))
                and ast.literal_eval(node.args[1]) == -1):
            found.append(f"line {node.lineno}: pow(..., -1, ...)")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        else:
            continue
        if "mod_p" in name:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_the_guard_sees_a_prime_field_solver():
    source = ("def solve_mod_p(rows, p):\n"
              "    inv = pow(rows[0][0], -1, p)\n"
              "    return inv\n")
    assert prime_field_code(source) == ["line 1: solve_mod_p", "line 2: pow(..., -1, ...)"]
    assert prime_field_code("x = pow(2, 3, 5)\ny = pow(2, 1 - 2)\n") == []


def test_no_module_solves_over_a_prime_field():
    found = {path.name: prime_field_code(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
