"""The package's record types: construction, immutability and value semantics."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import branchcover
from branchcover.covering import ConnectivityReport, CoverComplex, MonodromyRep
from branchcover.commands import ConeCheckResult
from branchcover.local_systems import LocalSystemQ
from branchcover.specfile import LoadedSpec
from branchcover.stratified import Stratum
from branchcover.verify import (
    NECESSITY_NOTE,
    DecompositionReport,
    FiberRow,
)

from stalks import StalkCheckEntry, StalkCheckResult

# every record with its fields in order
RECORDS = {
    MonodromyRep: ("degree", "assignments", "basepoint"),
    ConnectivityReport: ("base_failures", "cover_failures", "checked_base", "checked_cover"),
    CoverComplex: ("spec", "total", "projection", "fibers", "stars"),
    ConeCheckResult: ("link_ih", "cone_ih", "cutoff", "expected", "mismatches"),
    StalkCheckEntry: ("vertex", "level", "codim", "cutoff", "link_ih", "star_ih",
                      "expected", "mismatches"),
    StalkCheckResult: ("entries",),
    LoadedSpec: ("base", "branch", "monodromy", "perversity"),
    Stratum: ("level", "dim", "simplices"),
    LocalSystemQ: ("rank", "transports"),
    FiberRow: ("simplex", "orbit_count", "one_plus_invariants", "lift_count"),
    DecompositionReport: ("perversity", "degree", "base_dim", "betti_cover", "ih_cover",
                          "ih_trivial", "ih_kernel", "equal_per_degree", "fiber", "connectivity",
                          "euler_cover", "euler_ok", "b0_ok", "betti_base_manifold",
                          "manifold_crosscheck_ok", "stratification_levels",
                          "pullback_levels", "note"),
}
IDS = [cls.__name__ for cls in RECORDS]


def _values(cls, shift=0):
    """Fresh, hashable, pairwise distinct field values."""
    return tuple((cls.__name__, i + shift) for i in range(len(RECORDS[cls])))


# the modules `verify` runs: a fresh ``import branchcover.cli`` loads these and no others
VERIFY_MODULES = ["branchcover"] + [f"branchcover.{name}" for name in (
    "cli", "covering", "errors", "intersection", "linalg", "local_systems", "presentation",
    "simplicial", "specfile", "stratified", "verify")]


def test_package_import_loads_no_module_of_its_own():
    """``branchcover/__init__.py`` re-exports nothing: every name is read
    from the module that defines it, so importing the package compiles the
    package file alone."""
    package_root = str(Path(branchcover.__file__).resolve().parents[1])
    proc = subprocess.run(  # -B: no bytecode written next to the sources
        [sys.executable, "-B", "-c",
         "import sys, branchcover; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'branchcover'))"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['branchcover']\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Nor ``branchcover.commands`` or ``branchcover.fixtures``, which only the
    other commands need, nor ``typing``, and no ``src/`` record is a
    ``typing.NamedTuple``: building one compiles its annotations."""
    package_root = str(Path(branchcover.__file__).resolve().parents[1])
    proc = subprocess.run(  # -B: no bytecode written next to the sources
        [sys.executable, "-B", "-c",
         "import sys, branchcover.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'branchcover'))"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"[]\n{sorted(VERIFY_MODULES)}\n"
    # nor `typing`: -S keeps out the modules that `site` would load first
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c",
         "import sys, branchcover.cli; print('typing' in sys.modules)"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

    package = Path(branchcover.__file__).resolve().parent
    named_tuples = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                for base in node.bases)]
    assert named_tuples == []


def test_verify_with_non_unit_pivots_loads_no_rational_arithmetic(tmp_path, monkeypatch):
    """Neither the CLI import nor a verify whose elimination meets pivots
    other than +-1 loads ``fractions``, or the ``decimal`` and ``numbers``
    that it imports."""
    from branchcover import cli, linalg

    spec = Path(__file__).resolve().parent / "golden" / "sphere-p2-d2.json"
    real = linalg._pivot_rows
    pivots = []

    def spy(rows):
        for pc, row in real(rows):
            pivots.append(row[pc])
            yield pc, row

    monkeypatch.setattr(linalg, "_pivot_rows", spy)
    assert cli.main(["verify", str(spec), "--out", str(tmp_path / "in-process.txt")]) == 0
    assert any(pv not in (1, -1) for pv in pivots)

    package_root = str(Path(branchcover.__file__).resolve().parents[1])
    rational = "{'fractions', 'decimal', 'numbers'}"
    proc = subprocess.run(  # -B: no bytecode written next to the sources
        [sys.executable, "-B", "-c",
         "import sys, branchcover.cli as cli; "
         f"print(sorted({rational} & set(sys.modules))); "
         f"rc = cli.main(['verify', {str(spec)!r}, '--out', {str(tmp_path / 'child.txt')!r}]); "
         f"print(rc, sorted({rational} & set(sys.modules)))"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n0 []\n"
    assert (tmp_path / "child.txt").read_text() == (tmp_path / "in-process.txt").read_text()


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_builds_positionally_and_by_keyword(cls):
    fields = RECORDS[cls]
    values = _values(cls)
    rec = cls(*values)
    assert rec == cls(**dict(zip(fields, values)))
    assert tuple(getattr(rec, f) for f in fields) == values


def test_record_defaults():
    report = DecompositionReport(*_values(DecompositionReport)[:-1])
    assert report.note == NECESSITY_NOTE
    assert MonodromyRep(2, {}) == MonodromyRep(2, {}, None)  # the least complement vertex


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_is_immutable(cls):
    rec = cls(*_values(cls))
    for field in RECORDS[cls]:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.not_a_field = None


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_compares_and_hashes_by_value(cls):
    a, b = cls(*_values(cls)), cls(*_values(cls))
    assert a == b and hash(a) == hash(b)
    assert a != cls(*_values(cls, shift=1))
