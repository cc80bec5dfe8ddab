"""Golden corpus: CLI output that refactors must leave byte-identical.

Each spec ``tests/golden/<spec>.json`` named in SPECS is the output of
``branchcover fixture`` with the arguments there.  The ``*-seed1.json``
specs are the benchmark workloads of the same name at seed 1, written
once by ``bench/workloads.make_job`` and committed as they are, so the
largest inputs are checked too; they run with the workloads' verify
flags.  ``susp-s3-unknot-double.json`` is the suspension of
``s3-unknot-double.json`` (``complexes.suspended``), S^4 branched over an
unknotted S^2; its reports are pinned at ``zero`` and ``top``, the
perversities whose value on its codimension-4 stratum is not 1.  The
specs under ``rejected/`` are ones that `verify` rejects:
``rejected/sphere-p6-d3-sub1.json`` is ``sphere-p6-d3.json`` with
``"subdivisions": 1``, so its assignments name edges of the unsubdivided
complement, and `generators` prints the contract that new assignments
must follow; ``rejected/branch-levels-no-branch.json`` gives levels for
a locus it does not have.  Each case in CASES runs one CLI command on a spec, and
``tests/golden/<case>.out`` is its stdout.  An intended change of output
is recorded by rerunning that command with ``--out`` and reviewing the
diff.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from branchcover.cli import main
from branchcover.fixtures import spec_to_text
from branchcover.specfile import load_spec, read_spec

from complexes import suspended

GOLDEN = Path(__file__).resolve().parent / "golden"

# spec file stem -> `branchcover fixture` arguments
SPECS = {
    "sphere-p2-d2": ["sphere-branched", "--points", "2", "--degree", "2"],
    "sphere-p3-d3": ["sphere-branched", "--points", "3", "--degree", "3"],
    "sphere-p6-d3": ["sphere-branched", "--points", "6", "--degree", "3"],
    "sphere-p6-d6": ["sphere-branched", "--points", "6", "--degree", "6"],
    "s3-unknot-double": ["s3-unknot-double"],
    "circle-d5": ["circle-cover", "--degree", "5", "--perm", "1,0,3,4,2"],
    "suspension-torus": ["suspension-torus"],
    "pinched-torus": ["pinched-torus"],
}

# case name -> (command, spec stem, extra arguments, exit code)
CASES = {
    "verify-sphere-p2-d2": ("verify", "sphere-p2-d2", ["--format", "json"], 0),
    "verify-sphere-p3-d3": ("verify", "sphere-p3-d3", ["--format", "json"], 0),
    "verify-sphere-p6-d3": ("verify", "sphere-p6-d3", ["--format", "json"], 0),
    "verify-sphere-p6-d6": ("verify", "sphere-p6-d6", ["--format", "json"], 0),
    "verify-s3-unknot-double": ("verify", "s3-unknot-double", ["--format", "json"], 0),
    "verify-s3-unknot-double-upper": (
        "verify", "s3-unknot-double", ["--format", "json", "--perversity", "upper"], 0),
    "verify-circle-d5": ("verify", "circle-d5", [], 0),
    "verify-circle-d5-json": ("verify", "circle-d5", ["--format", "json"], 0),
    "twisted-circle-d5": ("twisted", "circle-d5", [], 0),
    "fibers-sphere-p6-d3": ("fibers", "sphere-p6-d3", [], 0),
    "generators-sphere-p6-d3": ("generators", "sphere-p6-d3", [], 0),
    "generators-pinched-torus": ("generators", "pinched-torus", [], 0),
    "generators-sphere-p6-d3-sub1": ("generators", "rejected/sphere-p6-d3-sub1", [], 0),
    "ih-suspension-torus": ("ih", "suspension-torus", [], 0),
    "ih-pinched-torus": ("ih", "pinched-torus", [], 0),
    "verify-susp-cover-seed1": (
        "verify", "susp-cover-seed1", ["--perversity", "upper", "--format", "json"], 0),
    "verify-sphere2pt-d31-seed1": ("verify", "sphere2pt-d31-seed1", ["--format", "json"], 0),
    "verify-circle-d64-seed1": ("verify", "circle-d64-seed1", [], 0),
    **{f"verify-susp-s3-unknot-double-{p}": (
        "verify", "susp-s3-unknot-double", ["--format", "json", "--perversity", p], 0)
       for p in ("zero", "top")},
}


def _run(argv, capsys) -> tuple[int, str]:
    capsys.readouterr()
    rc = main(argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    command, spec, extra, want_rc = CASES[case]
    rc, out = _run([command, str(GOLDEN / f"{spec}.json"), *extra], capsys)
    assert rc == want_rc
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_fixture_spec_matches_golden(spec, capsys):
    rc, out = _run(["fixture", *SPECS[spec]], capsys)
    assert rc == 0
    assert out == (GOLDEN / f"{spec}.json").read_text(encoding="utf-8")


def test_suspended_spec_is_the_suspension_of_the_golden_spec():
    loaded = load_spec(read_spec(str(GOLDEN / "s3-unknot-double.json")))
    assert spec_to_text(suspended(loaded)) == (
        GOLDEN / "susp-s3-unknot-double.json").read_text(encoding="utf-8")


def test_subdivided_spec_is_the_golden_spec_subdivided_once(capsys):
    path = GOLDEN / "rejected" / "sphere-p6-d3-sub1.json"
    spec = json.loads((GOLDEN / "sphere-p6-d3.json").read_text(encoding="utf-8"))
    spec["options"]["subdivisions"] = 1
    assert json.loads(path.read_text(encoding="utf-8")) == spec
    for command in ("verify", "twisted", "fibers"):
        capsys.readouterr()
        rc = main([command, str(path)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: 12->23 is not a generator edge of the presentation\n"


@pytest.mark.parametrize("argv", [["ih"], ["ih", "--perversity", "upper"], ["homology"],
                                  ["cone-check"]], ids=" ".join)
def test_subdivided_spec_reads_as_its_base_where_no_cover_is_built(argv, tmp_path, capsys):
    """The commands that read no monodromy do not check its assignments:
    they print for the stale spec what they print for its base alone."""
    path = GOLDEN / "rejected" / "sphere-p6-d3-sub1.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    del raw["monodromy"]
    base = tmp_path / "base.json"
    base.write_text(json.dumps(raw), encoding="utf-8")
    rc, out = _run([argv[0], str(path), *argv[1:]], capsys)
    assert rc == 0 and out
    assert (rc, out) == _run([argv[0], str(base), *argv[1:]], capsys)
