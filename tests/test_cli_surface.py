"""The command line surface: help texts, usage errors and every command in a fresh process.

``tests/golden/cli/`` holds ``branchcover --help`` (``help.out``), each
subcommand's ``--help`` (``help-<command>.out``), both at 80 columns, and
the stderr of each usage error in USAGE_ERRORS (``<case>.err``), as Python
3.11's ``argparse`` formats them; a command line that starts with a
command's name is parsed by that command's parser alone, any other by the
whole tree, and both must print these.  Each command but ``verify``, whose
reports ``test_golden.py`` pins, is also run as ``python -m
branchcover.cli`` in a process of its own on a golden spec, so the code it
loads on use is loaded the way a user's command loads it.
"""
from __future__ import annotations

import argparse
import ast
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


# case -> command line; each exits 1 with one line on stderr, ``<case>.err``
USAGE_ERRORS = {
    "unknown-command": ["bogus"],
    "verify-no-spec": ["verify"],
    "verify-bad-perversity": ["verify", "spec.json", "--perversity", "bad"],
    "verify-unknown-option": ["verify", "spec.json", "--bogus"],
    "fixture-bad-points": ["fixture", "sphere-branched", "--points", "x"],
    "ih-no-spec": ["ih"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_matches_golden(case, capsys):
    capsys.readouterr()
    assert main(USAGE_ERRORS[case]) == 1
    assert capsys.readouterr() == (
        "", (GOLDEN / "cli" / f"{case}.err").read_text(encoding="utf-8"))


def test_a_command_builds_only_its_own_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["verify", str(GOLDEN / "circle-d5.json"), "--out", str(tmp_path / "r")]) == 0
    assert built == ["branchcover verify"]


def test_commands_imports_nothing_from_cli():
    """So ``python -m branchcover.cli`` compiles and runs ``cli.py`` once."""
    path = Path(branchcover.__file__).resolve().parent / "commands.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(module + ("." if node.module else "") + alias.name
                            for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported & {".cli", "branchcover.cli"} == set()


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


def test_cli_run_as_main_is_not_imported_again():
    """``python -m branchcover.cli`` runs the module as ``__main__`` only:
    no other command imports it again as ``branchcover.cli``."""
    spec = GOLDEN / "suspension-torus.json"
    package_root = str(Path(branchcover.__file__).resolve().parents[1])
    proc = subprocess.run(  # -B: no bytecode written next to the sources
        [sys.executable, "-B", "-c",
         "import runpy, sys\n"
         f"sys.argv = ['branchcover', 'homology', {str(spec)!r}]\n"
         "try:\n"
         "    runpy.run_module('branchcover.cli', run_name='__main__', alter_sys=True)\n"
         "except SystemExit as exc:\n"
         "    print(exc.code, 'branchcover.cli' in sys.modules)\n"],
        capture_output=True, text=True,
        env={"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": package_root})
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / "homology-suspension-torus.out").read_text(
        encoding="utf-8") + "0 False\n"
