"""Small complexes, a GF(p) solver and local-system shorthands that only the tests use.

The package's own fixtures (``branchcover.fixtures``) are the ones the
``fixture`` command writes; these are extra bases, a stratified
subdivision, the constant system, the restriction of a system, a
codimension-3 spec, a monodromy moved to another basepoint, the
suspension of a spec, intersection homology at a perversity, closed
stars, links and oriented vertex links, the orbit counts
of a cover's fiber table, the GF(p) elimination that draws random
cyclic monodromy classes for the tests, and the subdivision cases of the
golden specs.
"""
from __future__ import annotations

import json
from itertools import combinations

from branchcover.covering import (
    BranchedCoverSpec,
    CoverComplex,
    MonodromyRep,
    compose_perms,
    complement_presentation,
    invert_perm,
    transport_along,
    validate_monodromy,
)
from branchcover.errors import InputError
from branchcover.fixtures import boundary_simplex, cycle_complex, spec_to_dict
from branchcover.intersection import Perversity, allowable_simplices, ih_betti
from branchcover.local_systems import (
    LocalSystemQ,
    kernel_system,
    permutation_action,
    pushforward_local_system,
)
from branchcover.presentation import EdgePathPresentation
from branchcover.simplicial import (
    Simplex,
    SimplicialComplex,
    barycentric_subdivide_complex,
    closure,
)
from branchcover.specfile import LoadedSpec
from branchcover.stratified import StratifiedComplex, subdivide_with_subcomplexes
from branchcover.verify import fiber_rank_report


def pushforward(pres: EdgePathPresentation, rep: MonodromyRep) -> LocalSystemQ:
    """The pushforward system of a monodromy given on a bare presentation."""
    return pushforward_local_system(rep.degree, validate_monodromy(pres, rep))


def kernel(pres: EdgePathPresentation, rep: MonodromyRep) -> LocalSystemQ:
    """The sum-zero kernel system of a monodromy given on a bare presentation."""
    return kernel_system(rep.degree, validate_monodromy(pres, rep))


def trivial_system(base: SimplicialComplex, rank: int = 1) -> LocalSystemQ:
    """The constant rank-r system: the identity on every oriented edge."""
    ident = permutation_action(range(rank))
    edges = base.simplices_of_dim(1)
    return LocalSystemQ(rank, {e: ident for (u, v) in edges for e in ((u, v), (v, u))})


def orbits(cover: CoverComplex) -> dict[Simplex, int]:
    """Orbit count of each branch simplex, as the cover's fiber table traces it."""
    return {row.simplex: row.orbit_count for row in fiber_rank_report(cover).rows}


def restrict(system: LocalSystemQ, sub: SimplicialComplex) -> LocalSystemQ:
    """Restriction to a subcomplex whose edges all carry transports; flatness is inherited."""
    try:
        transports = {e: system.transports[e]
                      for (u, v) in sub.simplices_of_dim(1) for e in ((u, v), (v, u))}
    except KeyError:
        raise InputError("restriction target is not a subcomplex of the base") from None
    return LocalSystemQ(system.rank, transports)


def ih(sc: StratifiedComplex, p: Perversity | None,
       coeff: LocalSystemQ | None = None) -> tuple[int, ...]:
    """``ih_betti`` at a perversity: the allowable set for ``p``, then the ranks."""
    return ih_betti(sc, allowed=allowable_simplices(sc, p), coeff=coeff)


def barycentric_subdivide(sc: StratifiedComplex) -> StratifiedComplex:
    """Subdivide the complex and all filtration levels together."""
    return subdivide_with_subcomplexes(sc, ())[0]


def codim3_vertex_data(degree: int = 2):
    """Single branch vertex in the 3-sphere: codimension 3, fibers stay full."""
    sub, b_id, _by_top = barycentric_subdivide_complex(boundary_simplex(4))
    w = b_id[(0,)]
    branch = SimplicialComplex(((w,),))
    pres = complement_presentation(sub, {w})
    rep = MonodromyRep(degree, dict.fromkeys(pres.generators, tuple(range(degree))),
                       pres.basepoint)
    return StratifiedComplex(sub), StratifiedComplex(branch), rep


def rebased(base: StratifiedComplex, branch: StratifiedComplex, rep: MonodromyRep,
            basepoint: int) -> MonodromyRep:
    """The monodromy ``rep`` of the spec ``(base, branch, rep)`` read from
    another complement vertex ``basepoint``.

    The validated table T is regauged to the spanning tree at the new
    basepoint b: image(u->v) = g(v)^-1 o T(u->v) o g(u), where g(v) is the
    transport of T along the new tree path b -> v.  So every new tree edge
    carries the identity, and a loop at b keeps its transport under T.
    """
    spec = BranchedCoverSpec(base, branch, rep)
    pres = complement_presentation(base.complex, spec.branch_vertices, basepoint)
    d = rep.degree
    g = {v: transport_along(spec.table, pres.tree_path(v), d) for v in pres.complex.vertices}
    return MonodromyRep(d, {(u, v): compose_perms(invert_perm(g[v]),
                                                  compose_perms(spec.table[(u, v)], g[u]))
                            for u, v in pres.generators}, basepoint)


def suspended(loaded: LoadedSpec) -> dict:
    """The spec, as a file writes it, of the suspension of a loaded spec.

    The subdivided base, the branch locus and each of their singular
    levels are suspended over the same two new apexes, so both apexes lie
    in the locus; a suspension of dimension 2 or more also gets the apexes
    as a new level 0, since the link of an apex, the unsuspended complex,
    need not be a sphere.  The apexes are branch vertices, so
    the complement, its presentation and the assignment keys are unchanged,
    and the monodromy is kept; a full subcomplex stays full under
    suspension, so the spec asks for no subdivision.
    """
    north = max(loaded.base.complex.vertices) + 1
    apexes = SimplicialComplex(((north,), (north + 1,)))

    def join(c: SimplicialComplex) -> SimplicialComplex:
        return SimplicialComplex({*c.simplices, *apexes.simplices,
                                  *(s + a for s in c.simplices for a in apexes.simplices)})

    def suspend(sc: StratifiedComplex) -> StratifiedComplex:
        levels = [join(sc.levels[j]) for j in range(sc.dim - 2, -1, -1)]
        return StratifiedComplex(join(sc.complex),
                                 levels + [apexes] if sc.dim >= 1 else [])

    return spec_to_dict(suspend(loaded.base), suspend(loaded.branch), loaded.monodromy)


def subdivision_cases(paths) -> list[tuple]:
    """``(path, subdivisions)`` for each spec file: unsubdivided, and
    subdivided once when its base has dimension at most 3.  Subdividing
    multiplies the top simplices of a dimension-4 base by 5!, which takes
    a metamorphic check of the 4-dimensional golden spec from 0.15 to 30 s.
    """
    cases = []
    for path in paths:
        dim = max(map(len, json.loads(path.read_text(encoding="utf-8"))["complex"])) - 1
        cases += [(path, s) for s in ((0, 1) if dim <= 3 else (0,))]
    return cases


def full_simplex(n: int) -> SimplicialComplex:
    """The solid n-simplex on vertices 0..n."""
    return closure([tuple(range(n + 1))])


def figure_eight() -> SimplicialComplex:
    """Two circles sharing the vertex 0."""
    a = cycle_complex(4, start=0)           # 0-1-2-3
    b = [(0, 4), (4, 5), (5, 6), (0, 6), (4,), (5,), (6,)]
    return SimplicialComplex(set(a.simplices) | set(b) | {(0,)})


def theta_graph() -> SimplicialComplex:
    """Two vertices joined by three arcs of length 2."""
    return closure([(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])


def k4_graph() -> SimplicialComplex:
    return closure(list(combinations(range(4), 2)))


def annulus() -> SimplicialComplex:
    """Triangulated cylinder over a hexagon; core circle 0..5, rim 6..11."""
    faces = []
    for i in range(6):
        j = (i + 1) % 6
        faces.append(tuple(sorted((i, j, 6 + i))))
        faces.append(tuple(sorted((j, 6 + i, 6 + j))))
    return closure(faces)


def star(c: SimplicialComplex, simplex: Simplex) -> SimplicialComplex:
    """Closed star: the closure of all cofaces of ``simplex``.

    Only the simplices through the first vertex of ``simplex`` are scanned.
    """
    s = tuple(simplex)
    if s not in c.simplices:
        raise InputError(f"{list(s)} is not a simplex of the complex")
    return closure(filter(set(s).issubset, c.cofaces_of_vertex(s[0])))


def link(c: SimplicialComplex, simplex: Simplex) -> SimplicialComplex:
    """Faces of star simplices disjoint from ``simplex``."""
    s = tuple(simplex)
    if s not in c.simplices:
        raise InputError(f"{list(s)} is not a simplex of the complex")
    sset = set(s)
    st = star(c, s)
    return SimplicialComplex(t for t in st.simplices if not sset & set(t))


def oriented_vertex_link_cycle(c: SimplicialComplex, signs: dict[Simplex, int],
                               v: int) -> list[tuple[int, int]]:
    """Directed link cycle of a surface vertex, following the orientation."""
    out: dict[int, int] = {}
    for t in c.simplices_of_dim(2):
        if v not in t:
            continue
        idx = t.index(v)
        a, b = t[(idx + 1) % 3], t[(idx + 2) % 3]
        if signs[t] == 1:
            out[a] = b
        else:
            out[b] = a
    start = min(out)
    cycle = [(start, out[start])]
    while cycle[-1][1] != start:
        u = cycle[-1][1]
        cycle.append((u, out[u]))
    if len(cycle) != len(out):
        raise InputError(f"link of vertex {v} is not a single cycle")
    return cycle


def _rref_mod_p(m: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan over GF(p), p prime, in place on rows reduced mod p.

    Pivots only in the first ``ncols`` columns; returns the pivot columns,
    the i-th pivot sitting in row i.
    """
    pivots: list[int] = []
    for pc in range(ncols):
        pr = len(pivots)
        if pr == len(m):
            break
        piv = next((i for i in range(pr, len(m)) if m[i][pc]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        inv = pow(m[pr][pc], -1, p)
        m[pr] = [(x * inv) % p for x in m[pr]]
        for i in range(len(m)):
            if i != pr and m[i][pc]:
                f = m[i][pc]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[pr])]
        pivots.append(pc)
    return pivots


def solve_mod_p(rows: list[list[int]], rhs: list[int], ncols: int,
                p: int) -> list[int] | None:
    """One solution of a linear system over GF(p), or None if inconsistent."""
    m = [[rows[i][j] % p for j in range(ncols)] + [rhs[i] % p] for i in range(len(rows))]
    pivots = _rref_mod_p(m, ncols, p)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    sol = [0] * ncols
    for ri, ci in enumerate(pivots):
        sol[ci] = m[ri][ncols]
    return sol


def cyclic_image(step: int, d: int) -> tuple[int, ...]:
    """Image array of the d-cycle (0 1 ... d-1) raised to `step`."""
    return tuple((i + step) % d for i in range(d))


def word_row(pres: EdgePathPresentation, path_edges: list[tuple[int, int]],
              ncols: int) -> list[int]:
    row = [0] * ncols
    for (u, v) in path_edges:
        e = (u, v) if u < v else (v, u)
        if e in pres.tree_edges:
            continue
        gi = pres.gen_index[e]
        row[gi] += 1 if u < v else -1
    return row


def relator_rows(pres: EdgePathPresentation) -> list[list[int]]:
    rows = []
    n = len(pres.generators)
    for word in pres.relators:
        row = [0] * n
        for (gi, sign) in word:
            row[gi] += sign
        rows.append(row)
    return rows


def nullspace_mod_p(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the solution space of a homogeneous system over GF(p)."""
    m = [[r[j] % p for j in range(ncols)] for r in rows]
    pivots = _rref_mod_p(m, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for ri, pc in enumerate(pivots):
            vec[pc] = (-m[ri][f]) % p
        basis.append(vec)
    return basis
