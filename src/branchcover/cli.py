"""File-driven command line front end.

Exit codes: 0 success, 1 invalid input or unreadable file, 2 decomposition
equality failed, 3 internal cross-check failed or unexpected exception.  All
output is deterministic: identical input files produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import sys

from .errors import InputError, InternalCheckError
from .specfile import LoadedSpec, SpecData, load_spec, parse_spec_text
from .verify import verify_branched


def _read(path: str) -> SpecData:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


def _load(path: str) -> LoadedSpec:
    return load_spec(_read(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(args) -> int:
    loaded = _load(args.spec)
    spec = loaded.cover_spec()
    report = verify_branched(spec, args.perversity or loaded.perversity)
    text = report.to_json() if args.format == "json" else report.to_text()
    _emit(text, args.out)
    if not report.internal_ok:
        return 3
    if not report.all_equal:
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 1, one line), not with argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="branchcover",
        description="branched covers of triangulated stratified spaces: "
                    "build, decompose, verify")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_command(name, help_text, perversity=False, fmt=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a JSON spec file")
        p.add_argument("--out", default=None, help="write output to a file")
        if perversity:
            p.add_argument("--perversity", choices=("lower", "upper", "zero", "top"),
                           default=None, help="override the file's perversity")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")

    add_spec_command("generators", "print the presentation contract for assignments")
    add_spec_command("verify", "run the full decomposition check", perversity=True, fmt=True)
    add_spec_command("homology", "betti numbers of the base complex")
    add_spec_command("twisted", "twisted betti numbers of the complement")
    add_spec_command("ih", "intersection homology of the stratified base", perversity=True)
    add_spec_command("fibers", "fiber cardinalities over the branch locus")
    add_spec_command("cone-check", "treat the complex as a link and verify the cone formula",
                     perversity=True)

    pf = sub.add_parser("fixture", help="write a ready-to-run spec file")
    pf.add_argument("name", help="sphere-branched | s3-unknot-double | "
                                 "suspension-torus | pinched-torus | circle-cover")
    pf.add_argument("--points", type=int, default=None, help="branch points (sphere-branched)")
    pf.add_argument("--degree", type=int, default=None, help="covering degree")
    pf.add_argument("--perm", default=None, help="image array, e.g. 1,2,0 (circle-cover)")
    pf.add_argument("--out", default=None, help="write the spec file here")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args)
        from . import commands  # only the other commands load it and the code they reach

        return commands.COMMANDS[args.command](args)
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
