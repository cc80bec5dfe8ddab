"""The command line surface: help texts, usage errors and every command in a fresh process.

``tests/golden/cli/`` holds ``branchcover --help`` (``help.out``), each
subcommand's ``--help`` (``help-<command>.out``), both at 80 columns, and
the stderr of an unknown command (``unknown-command.err``), as Python
3.11's ``argparse`` formats them.  Each command but ``verify``, whose
reports ``test_golden.py`` pins, is also run as ``python -m
branchcover.cli`` in a process of its own on a golden spec, so the code it
loads on use is loaded the way a user's command loads it.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import branchcover
from branchcover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("generators", "verify", "homology", "twisted", "ih", "fibers", "cone-check",
            "fixture")

# command -> (arguments, golden stdout): one case per command but verify
FRESH = {
    "generators": (["sphere-p6-d3.json"], "generators-sphere-p6-d3.out"),
    "homology": (["suspension-torus.json"], "homology-suspension-torus.out"),
    "twisted": (["circle-d5.json"], "twisted-circle-d5.out"),
    "ih": (["pinched-torus.json"], "ih-pinched-torus.out"),
    "fibers": (["sphere-p6-d3.json"], "fibers-sphere-p6-d3.out"),
    "cone-check": (["suspension-torus.json"], "cone-check-suspension-torus.out"),
    "fixture": (["sphere-branched", "--points", "6", "--degree", "3"], "sphere-p6-d3.json"),
}


def _help(argv, capsys, monkeypatch) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_top_level_help(capsys, monkeypatch):
    assert _help(["--help"], capsys, monkeypatch) == (
        GOLDEN / "cli" / "help.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help(command, capsys, monkeypatch):
    assert _help([command, "--help"], capsys, monkeypatch) == (
        GOLDEN / "cli" / f"help-{command}.out").read_text(encoding="utf-8")


def test_unknown_command_is_a_one_line_usage_error(capsys):
    capsys.readouterr()
    assert main(["bogus"]) == 1
    assert capsys.readouterr() == (
        "", (GOLDEN / "cli" / "unknown-command.err").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(FRESH))
def test_command_in_a_fresh_process_matches_golden(command):
    args, golden = FRESH[command]
    if command != "fixture":
        args = [str(GOLDEN / args[0]), *args[1:]]
    package_root = str(Path(branchcover.__file__).resolve().parents[1])
    proc = subprocess.run(  # -B: no bytecode written next to the sources
        [sys.executable, "-B", "-m", "branchcover.cli", command, *args],
        capture_output=True, text=True,
        env={"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": package_root})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / golden).read_text(encoding="utf-8")
