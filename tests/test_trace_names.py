"""The functions the benchmark's tracer wraps that the package no longer defines.

``bench/tracing.py`` wraps package functions by name and skips a name it
cannot find, so the metrics of that layer then read 0 and show nothing.
This test pins the names that are gone: a change that removes or renames
another traced function fails here until it lists the name, saying which
layer the trace no longer sees.  The tracer is read as text, not imported.
"""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

ABSENT = {
    "covering.build_complement_cover",
    "covering.pullback_stratification",
    "intersection.intersection_chain_complex",
    "linalg.invariant_space",
    "linalg.matmul",
    "linalg.matrix_inverse",
    "linalg.sparse_nullspace",
    "local_systems.trace_split",
    "simplicial.chain_complex",
    "verify.verify_unbranched",
}


def wrapped_names() -> list[str]:
    """``module.attribute`` of every entry of the tracer's ``WRAPPED`` table."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    table = next(stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in stmt.targets))
    return [".".join(ast.literal_eval(field) for field in entry.elts[:2])
            for entry in table.elts]


def defined(name: str) -> bool:
    module, *path = name.split(".")
    owner = importlib.import_module(f"branchcover.{module}")
    for part in path:
        owner = getattr(owner, part, None)
    return owner is not None


def test_traced_names_missing_from_the_package_are_the_known_ones():
    names = wrapped_names()
    assert "verify.verify_branched" in names  # the table was found and read
    assert {name for name in names if not defined(name)} == ABSENT
