"""File-driven command line front end.

Exit codes: 0 success, 1 invalid input or unreadable file, 2 decomposition
equality failed, 3 internal cross-check failed or unexpected exception.  All
output is deterministic: identical input files produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import sys

from .errors import InputError, InternalCheckError
from .covering import complement_presentation, fox_complete
from .intersection import cone_formula_check, ih_betti, perversity_by_name
from .local_systems import kernel_system, pushforward_local_system, twisted_betti
from .simplicial import betti_numbers
from .specfile import (
    MAX_DEGREE,
    LoadedSpec,
    SpecData,
    load_spec,
    parse_spec_text,
    spec_to_dict,
    spec_to_text,
)
from .verify import codim_check, fiber_rank_report, verify_branched


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


def cmd_generators(args) -> int:
    # the contract does not depend on the assignments, so it is printed
    # for a spec whose assignments no longer match it, too
    data = _read(args.spec)
    loaded = load_spec(data._replace(monodromy=None))
    branch = loaded.branch
    pres = complement_presentation(
        loaded.base.complex, frozenset(branch.complex.vertices) if branch else (),
        (data.monodromy or {}).get("basepoint"))
    lines = [f"basepoint: {pres.basepoint}",
             f"vertices: {len(pres.complex.vertices)}",
             f"tree-edges: {len(pres.tree_edges)}",
             f"generators ({len(pres.generators)}):"]
    for i, (u, v) in enumerate(pres.generators):
        lines.append(f"  g{i}: {u}->{v}")
    lines.append(f"relators: {len(pres.relators)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


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


def cmd_homology(args) -> int:
    loaded = _load(args.spec)
    b = betti_numbers(loaded.base.complex)
    _emit(f"betti: {list(b)}\n", args.out)
    return 0


def cmd_twisted(args) -> int:
    loaded = _load(args.spec)
    spec = loaded.cover_spec()
    base_c, d, table = spec.complement, spec.degree, spec.table
    pushforward = pushforward_local_system(base_c, d, table)
    kernel = kernel_system(base_c, d, table)
    lines = [
        f"complement betti:          {list(betti_numbers(base_c))}",
        f"pushforward twisted betti: {list(twisted_betti(base_c, pushforward))}",
        f"kernel twisted betti:      {list(twisted_betti(base_c, kernel))}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_ih(args) -> int:
    loaded = _load(args.spec)
    name = args.perversity or loaded.perversity
    m = loaded.base.dim
    p = perversity_by_name(name, m) if m >= 2 else None
    values = ih_betti(loaded.base, p)
    _emit(f"ih ({name}): {list(values)}\n", args.out)
    return 0


def cmd_fibers(args) -> int:
    loaded = _load(args.spec)
    spec = loaded.cover_spec()
    cover = fox_complete(spec)
    report = fiber_rank_report(spec, cover)
    lines = ["simplex | orbits | 1+invariants | lifts | status"]
    for r in report.rows:
        lines.append(f"{list(r.simplex)} | {r.orbit_count} | {r.one_plus_invariants} "
                     f"| {r.lift_count} | {'ok' if r.ok else 'MISMATCH'}")
    codim = codim_check(spec)
    lines.append(f"codimension check: {codim.note}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 3


def cmd_cone_check(args) -> int:
    loaded = _load(args.spec)
    link_sc = loaded.base
    l = link_sc.dim
    name = args.perversity or loaded.perversity
    p = perversity_by_name(name, max(l + 1, 2))
    result = cone_formula_check(link_sc, p)
    lines = [
        f"link ih: {list(result.link_ih)}",
        f"cone ih: {list(result.cone_ih)}",
        f"cutoff degree: {result.cutoff}",
        f"cone formula: {'HOLDS' if result.ok else 'FAILS'}",
    ]
    for (deg, want, got) in result.mismatches:
        lines.append(f"  degree {deg}: expected {want}, got {got}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if result.ok else 2


def _parse_perm(text: str, degree: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.replace("[", "").replace("]", "").split(","))
    except ValueError:
        raise InputError(f"cannot parse permutation {text!r}") from None
    if sorted(parts) != list(range(degree)):
        raise InputError(f"{list(parts)} is not a permutation of 0..{degree - 1}")
    return parts


def cmd_fixture(args) -> int:
    from . import fixtures  # only this command needs them; every other one skips the import

    name = args.name
    if args.degree is not None and args.degree > MAX_DEGREE:
        raise InputError(f"--degree must be at most {MAX_DEGREE}")
    if name == "sphere-branched":
        points = args.points if args.points is not None else 6
        degree = args.degree if args.degree is not None else 2
        y, r, rep, pres = fixtures.sphere_branched_data(points, degree)
        spec = spec_to_dict(y, r, rep, pres)
    elif name == "s3-unknot-double":
        y, r, rep, pres = fixtures.s3_unknot_double_data()
        spec = spec_to_dict(y, r, rep, pres)
    elif name == "circle-cover":
        degree = args.degree if args.degree is not None else 2
        perm = _parse_perm(args.perm, degree) if args.perm else tuple(
            (i + 1) % degree for i in range(degree))
        y, r, rep, pres = fixtures.circle_cover_data(degree, perm)
        spec = spec_to_dict(y, r, rep, pres)
    elif name == "suspension-torus":
        spec = spec_to_dict(fixtures.suspension_torus(), None, None)
    elif name == "pinched-torus":
        spec = spec_to_dict(fixtures.pinched_torus(), None, None)
    else:
        raise InputError(f"unknown fixture {name!r}")
    _emit(spec_to_text(spec), args.out)
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

    def add_spec_command(name, fn, help_text, perversity=False, fmt=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a JSON spec file")
        p.add_argument("--out", default=None, help="write output to a file")
        if perversity:
            p.add_argument("--perversity", choices=("lower", "upper", "zero", "top"),
                           default=None, help="override the file's perversity")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)
        return p

    add_spec_command("generators", cmd_generators,
                     "print the presentation contract for assignments")
    add_spec_command("verify", cmd_verify,
                     "run the full decomposition check", perversity=True, fmt=True)
    add_spec_command("homology", cmd_homology, "betti numbers of the base complex")
    add_spec_command("twisted", cmd_twisted,
                     "twisted betti numbers of the complement")
    add_spec_command("ih", cmd_ih,
                     "intersection homology of the stratified base", perversity=True)
    add_spec_command("fibers", cmd_fibers,
                     "fiber cardinalities over the branch locus")
    add_spec_command("cone-check", cmd_cone_check,
                     "treat the complex as a link and verify the cone formula",
                     perversity=True)

    pf = sub.add_parser("fixture", help="write a ready-to-run spec file")
    pf.add_argument("name", help="sphere-branched | s3-unknot-double | "
                                 "suspension-torus | pinched-torus | circle-cover")
    pf.add_argument("--points", type=int, default=None, help="branch points (sphere-branched)")
    pf.add_argument("--degree", type=int, default=None, help="covering degree")
    pf.add_argument("--perm", default=None, help="image array, e.g. 1,2,0 (circle-cover)")
    pf.add_argument("--out", default=None, help="write the spec file here")
    pf.set_defaults(fn=cmd_fixture)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
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
