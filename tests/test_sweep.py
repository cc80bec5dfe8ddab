"""Every command over every golden spec: exit code, stderr and a hash of stdout.

The sweep runs each of VARIANTS on each spec ``tests/golden/*.json`` and
``tests/golden/rejected/*.json``, in process through ``cli.main``, and
compares every case with its entry in ``tests/golden/sweep.json``: the
exit code, the stderr text and the SHA-256 of stdout.  A case is named
``<spec stem>:<variant>``, the stem of a rejected spec with its
``rejected/`` prefix.  ``test_golden.py`` pins the full stdout of the
cases that matter most; the sweep pins the rest, so that a refactor that
changes any report, message or exit code shows up as a diff of
``sweep.json``.

After an intended change of output, regenerate the file from the
repository root and review its diff:

    PYTHONPATH=src python tests/test_sweep.py
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from pathlib import Path

import pytest

from branchcover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP = GOLDEN / "sweep.json"

# variant name -> command and its arguments after the spec path
VARIANTS = {
    "verify": ["verify"],
    "verify-json": ["verify", "--format", "json"],
    **{f"verify-json-{p}": ["verify", "--format", "json", "--perversity", p]
       for p in ("lower", "upper", "zero", "top")},
    "verify-zero": ["verify", "--perversity", "zero"],
    "verify-upper": ["verify", "--perversity", "upper"],
    "twisted": ["twisted"],
    "fibers": ["fibers"],
    "generators": ["generators"],
    "ih": ["ih"],
    "ih-upper": ["ih", "--perversity", "upper"],
    "homology": ["homology"],
    "cone-check": ["cone-check"],
}


def specs() -> list[str]:
    """Stems of the swept specs, relative to ``GOLDEN`` and without ``.json``."""
    paths = sorted(GOLDEN.glob("*.json")) + sorted(GOLDEN.glob("rejected/*.json"))
    return [p.relative_to(GOLDEN).with_suffix("").as_posix()
            for p in paths if p != SWEEP]


def cases() -> dict[str, list[str]]:
    """Case name -> the command line it runs."""
    return {f"{spec}:{variant}": [argv[0], str(GOLDEN / f"{spec}.json"), *argv[1:]]
            for spec in specs() for variant, argv in VARIANTS.items()}


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"rc": rc, "stderr": err.getvalue(),
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


CASES = cases()


@functools.cache
def _pinned() -> dict:
    return json.loads(SWEEP.read_text(encoding="utf-8"))


def test_sweep_pins_every_case():
    assert sorted(_pinned()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_case_matches_pinned(case):
    assert run_case(CASES[case]) == _pinned()[case]


if __name__ == "__main__":
    pinned = {case: run_case(argv) for case, argv in CASES.items()}
    SWEEP.write_text(json.dumps(pinned, sort_keys=True, indent=1) + "\n", encoding="utf-8")
