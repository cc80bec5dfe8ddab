"""Every command but ``verify``, and the library code that only they reach.

:func:`cli.main` imports this module only to run one of these commands,
so a ``verify`` process never compiles it.  Each handler returns its text
and exit code, and ``cli.main`` writes the text.  Besides the handlers it
holds the cone formula check (``cone-check``) and the codimension
corollary (``fibers``), with the cone constructions they build on.
"""
from __future__ import annotations

from collections import namedtuple

from .covering import BranchedCoverSpec, complement_presentation, fox_complete
from .errors import InputError, InternalCheckError
from .intersection import Perversity, allowable_simplices, ih_betti, perversity_by_name
from .local_systems import LocalSystemQ, kernel_system, pushforward_local_system, twisted_betti
from .simplicial import Simplex, SimplicialComplex, betti_numbers
from .specfile import MAX_DEGREE, load_spec, read_spec
from .stratified import StratifiedComplex
from .verify import fiber_rank_report


# ---------------------------------------------------------------------------
# cone formula


def cone(c: SimplicialComplex, apex: int | None = None) -> SimplicialComplex:
    """Join with a fresh apex (max id + 1 unless given)."""
    if apex is None:
        apex = (max(c.vertices) + 1) if c.vertices else 0
    simps: set[Simplex] = {(apex,)}
    for s in c.simplices:
        simps.add(s)
        simps.add(s + (apex,))
    return SimplicialComplex(simps)


def cone_stratified(link_sc: StratifiedComplex) -> StratifiedComplex:
    """Closed cone with the apex as the deepest stratum.

    Level j of the cone is the cone on level j-1 of the link; level 0 is
    the apex alone.
    """
    base = link_sc.complex
    apex = (max(base.vertices) + 1) if base.vertices else 0
    total = cone(base, apex)
    m = total.dim
    singular = []
    for j in range(m - 2, -1, -1):
        lvl = link_sc.level(j - 1)
        if lvl.n_simplices() == 0:
            singular.append(SimplicialComplex(((apex,),)))
        else:
            singular.append(cone(lvl, apex))
    return StratifiedComplex(total, singular)


class ConeCheckResult(namedtuple("ConeCheckResult",
                                 "link_ih cone_ih cutoff expected mismatches")):
    """IH of a link and of its closed cone against the cone formula.

    ``link_ih``, ``cone_ih`` and ``expected`` are ``tuple[int, ...]``,
    ``cutoff`` is an ``int`` and ``mismatches`` holds one
    ``(degree, expected, got)`` triple of ints per degree that differs.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def cone_formula_check(link_sc: StratifiedComplex, p: Perversity | None,
                       coeff: LocalSystemQ | None = None) -> ConeCheckResult:
    """Verify IH of the closed cone against the truncated IH of the link.

    For a compact link of dimension l >= 1 the cone keeps the link's IH
    strictly below degree l - p(l+1) and vanishes from there on.  A
    0-dimensional link falls outside the codimension-2 theory; its cone
    is a contractible graph with IH (1, 0).
    """
    l = link_sc.dim
    if l < 0:
        raise InputError("the link is empty")
    link_ih = ih_betti(link_sc, allowed=allowable_simplices(link_sc, p), coeff=coeff)
    cone_sc = cone_stratified(link_sc)
    cone_ih = ih_betti(cone_sc, allowed=allowable_simplices(cone_sc, p), coeff=coeff)
    if l == 0:
        cutoff = 1
        expected = (1, 0)
    else:
        if p is None or p.top_dim < l + 1:
            raise InputError(f"perversity must be defined up to {l + 1}")
        cutoff = l - p[l + 1]
        expected = tuple(link_ih[j] if j < cutoff else 0 for j in range(l + 2))
    mismatches = tuple((j, expected[j], cone_ih[j])
                       for j in range(l + 2) if expected[j] != cone_ih[j])
    return ConeCheckResult(link_ih, cone_ih, cutoff, expected, mismatches)


# ---------------------------------------------------------------------------
# codimension corollary


class CodimReport(namedtuple("CodimReport",
                             "applicable branch_dim base_dim fibers non_minimal note")):
    """The codimension corollary on a spec.

    ``applicable`` and ``non_minimal`` are ``bool``, ``branch_dim`` and
    ``base_dim`` are ``int``, ``fibers`` is a tuple of ``(simplex,
    cardinality)`` pairs and ``note`` is a ``str``.
    """

    __slots__ = ()


def codim_check(spec: BranchedCoverSpec, orbits: dict[Simplex, int]) -> CodimReport:
    """If the branch locus has codimension >= 3, no branching may occur.

    All fibers, the orbit counts ``orbits`` of the fiber table, must then
    equal the degree and the locus is flagged non-minimal; a smaller
    fiber raises, since it signals invalid input or a bug.
    """
    m = spec.base.dim
    rdim = spec.branch.dim
    if rdim < 0:
        return CodimReport(False, rdim, m, (), False, "branch locus empty; vacuous pass")
    if rdim > m - 3:
        return CodimReport(False, rdim, m, (), False,
                           "branch locus has codimension 2; check not applicable")
    fibers = []
    for tau in spec.branch_simplices():
        card = orbits[tau]
        fibers.append((tau, card))
        if card < spec.degree:
            raise InternalCheckError(
                f"fiber over {list(tau)} has cardinality {card} < degree {spec.degree} "
                f"at codimension >= 3")
    return CodimReport(True, rdim, m, tuple(fibers), True,
                       "all fibers equal the degree; the locus is not minimal")


# ---------------------------------------------------------------------------
# commands


def cmd_generators(args) -> tuple[str, int]:
    # the contract does not depend on the assignments, so it is printed
    # for a spec whose assignments no longer match it, too
    data = read_spec(args.spec)
    loaded = load_spec(dict(data, monodromy=None))
    pres = complement_presentation(loaded.base.complex, frozenset(loaded.branch.complex.vertices),
                                   (data.get("monodromy") or {}).get("basepoint"))
    lines = [f"basepoint: {pres.basepoint}",
             f"vertices: {len(pres.complex.vertices)}",
             f"tree-edges: {len(pres.tree_edges)}",
             f"generators ({len(pres.generators)}):"]
    for i, (u, v) in enumerate(pres.generators):
        lines.append(f"  g{i}: {u}->{v}")
    lines.append(f"relators: {len(pres.relators)}")
    return "\n".join(lines) + "\n", 0


def cmd_homology(args) -> tuple[str, int]:
    loaded = load_spec(read_spec(args.spec))
    b = betti_numbers(loaded.base.complex)
    return f"betti: {list(b)}\n", 0


def cmd_twisted(args) -> tuple[str, int]:
    loaded = load_spec(read_spec(args.spec))
    spec = loaded.cover_spec()
    base_c = spec.complement
    pushforward = pushforward_local_system(spec.degree, spec.table)
    kernel = kernel_system(spec.degree, spec.table)
    lines = [
        f"complement betti:          {list(betti_numbers(base_c))}",
        f"pushforward twisted betti: {list(twisted_betti(base_c, pushforward))}",
        f"kernel twisted betti:      {list(twisted_betti(base_c, kernel))}",
    ]
    return "\n".join(lines) + "\n", 0


def cmd_ih(args) -> tuple[str, int]:
    loaded = load_spec(read_spec(args.spec))
    name = args.perversity or loaded.perversity
    p = perversity_by_name(name, loaded.base.dim)
    values = ih_betti(loaded.base, allowed=allowable_simplices(loaded.base, p))
    return f"ih ({name}): {list(values)}\n", 0


def cmd_fibers(args) -> tuple[str, int]:
    loaded = load_spec(read_spec(args.spec))
    spec = loaded.cover_spec()
    report = fiber_rank_report(fox_complete(spec))
    lines = ["simplex | orbits | 1+invariants | lifts | status"]
    for r in report.rows:
        lines.append(f"{list(r.simplex)} | {r.orbit_count} | {r.one_plus_invariants} "
                     f"| {r.lift_count} | {'ok' if r.ok else 'MISMATCH'}")
    codim = codim_check(spec, {r.simplex: r.orbit_count for r in report.rows})
    lines.append(f"codimension check: {codim.note}")
    return "\n".join(lines) + "\n", 0 if report.ok else 3


def cmd_cone_check(args) -> tuple[str, int]:
    loaded = load_spec(read_spec(args.spec))
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
    return "\n".join(lines) + "\n", 0 if result.ok else 2


def _parse_perm(text: str) -> tuple[int, ...]:
    """The integers of ``--perm``; ``fixtures.circle_cover_data`` checks them."""
    try:
        return tuple(int(x) for x in text.replace("[", "").replace("]", "").split(","))
    except ValueError:
        raise InputError(f"cannot parse permutation {text!r}") from None


def cmd_fixture(args) -> tuple[str, int]:
    from . import fixtures  # only this command needs them; every other one skips the import

    name = args.name
    if args.degree is not None and args.degree > MAX_DEGREE:
        raise InputError(f"--degree must be at most {MAX_DEGREE}")
    if name == "sphere-branched":
        points = args.points if args.points is not None else 6
        degree = args.degree if args.degree is not None else 2
        spec = fixtures.spec_to_dict(*fixtures.sphere_branched_data(points, degree))
    elif name == "s3-unknot-double":
        spec = fixtures.spec_to_dict(*fixtures.s3_unknot_double_data())
    elif name == "circle-cover":
        degree = args.degree if args.degree is not None else 2
        perm = _parse_perm(args.perm) if args.perm else tuple(
            (i + 1) % degree for i in range(degree))
        spec = fixtures.spec_to_dict(*fixtures.circle_cover_data(degree, perm))
    elif name == "suspension-torus":
        spec = fixtures.spec_to_dict(fixtures.suspension_torus())
    elif name == "pinched-torus":
        spec = fixtures.spec_to_dict(fixtures.pinched_torus())
    else:
        raise InputError(f"unknown fixture {name!r}")
    return fixtures.spec_to_text(spec), 0
