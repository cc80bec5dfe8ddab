"""File-driven command line front end.

Exit codes: 0 success, 1 invalid input or unreadable file, 2 decomposition
equality failed, 3 internal cross-check failed or unexpected exception.  All
output is deterministic: identical input files produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import sys

from .errors import InputError, InternalCheckError
from .intersection import PERVERSITIES
from .specfile import load_spec, read_spec
from .verify import verify_branched

SPEC = ("spec", {"help": "path to a JSON spec file"})
OUT = ("--out", {"help": "write output to a file"})
PERVERSITY = ("--perversity", {"choices": tuple(PERVERSITIES),
                               "help": "override the file's perversity"})
FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})

# the command line: name -> (help, arguments, handler); an argument is a name or a
# flag with its `add_argument` keywords, and a handler is read off `commands`, which
# is imported only to run one (`verify` runs `cmd_verify`, here)
COMMANDS = {
    "generators": ("print the presentation contract for assignments", (SPEC, OUT),
                   lambda c: c.cmd_generators),
    "verify": ("run the full decomposition check", (SPEC, OUT, PERVERSITY, FORMAT), None),
    "homology": ("betti numbers of the base complex", (SPEC, OUT), lambda c: c.cmd_homology),
    "twisted": ("twisted betti numbers of the complement", (SPEC, OUT), lambda c: c.cmd_twisted),
    "ih": ("intersection homology of the stratified base", (SPEC, OUT, PERVERSITY),
           lambda c: c.cmd_ih),
    "fibers": ("fiber cardinalities over the branch locus", (SPEC, OUT), lambda c: c.cmd_fibers),
    "cone-check": ("treat the complex as a link and verify the cone formula",
                   (SPEC, OUT, PERVERSITY), lambda c: c.cmd_cone_check),
    "fixture": ("write a ready-to-run spec file", (
        ("name", {"help": "sphere-branched | s3-unknot-double | "
                          "suspension-torus | pinched-torus | circle-cover"}),
        ("--points", {"type": int, "help": "branch points (sphere-branched)"}),
        ("--degree", {"type": int, "help": "covering degree"}),
        ("--perm", {"help": "image array, e.g. 1,2,0 (circle-cover)"}),
        ("--out", {"help": "write the spec file here"})), lambda c: c.cmd_fixture),
}


def cmd_verify(args) -> tuple[str, int]:
    loaded = load_spec(read_spec(args.spec))
    spec = loaded.cover_spec()
    report = verify_branched(spec, args.perversity or loaded.perversity)
    text = report.to_json() if args.format == "json" else report.to_text()
    if not report.internal_ok:
        return text, 3
    if not report.all_equal:
        return text, 2
    return text, 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 1, one line), not with argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, or of the whole command line.

    argparse hands every argument after a command's name to that command's
    parser, so both parse a command line that starts with ``name`` alike.
    """
    if name is not None:
        parser = _Parser(prog=f"branchcover {name}")
        parsers = {name: parser}
    else:
        parser = _Parser(
            prog="branchcover",
            description="branched covers of triangulated stratified spaces: "
                        "build, decompose, verify")
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {command: sub.add_parser(command, help=row[0])
                   for command, row in COMMANDS.items()}
    for command, p in parsers.items():
        for flag, keywords in COMMANDS[command][1]:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        single = argv[0] if argv and argv[0] in COMMANDS else None
        args = build_parser(single).parse_args(argv[1:] if single else argv)
        name = single or args.command
        if name == "verify":
            text, code = cmd_verify(args)
        else:
            from . import commands  # only the other commands load it and the code they reach

            text, code = COMMANDS[name][2](commands)(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except InternalCheckError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 3
    except (InputError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # a bug, not bad input: one line, never a traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}".splitlines()[0] + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
