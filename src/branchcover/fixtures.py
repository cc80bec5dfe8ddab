"""Named fixtures: complexes, stratified spaces and ready-to-run specs.

Only the ``fixture`` command and the tests load this module: it also
holds the suspension construction the fixtures build on and the writer
of spec files (:func:`spec_to_dict`, :func:`spec_to_text`).

The sphere and knot fixtures read their cyclic monodromy off a cut, as
Hurwitz (1891) and Berstein-Edmonds (1979) glue sheets: a Z/d cochain
that carries a cut's weight on each complement edge crossing it.  Its
values on the meridians (the link of a branch vertex, or of a branch
edge in dimension 3) fix its class, and the spanning-tree gauge of the
presentation picks the one representative that is 0 on the tree.
"""
from __future__ import annotations

import json

from .errors import InputError
from .covering import MonodromyRep, complement_presentation
from .presentation import EdgePathPresentation, edge_path_presentation
from .simplicial import SimplicialComplex, Simplex, closure, connected_components
from .stratified import EMPTY_STRATIFIED, StratifiedComplex


# ---------------------------------------------------------------------------
# basic complexes


def cycle_complex(n: int, start: int = 0) -> SimplicialComplex:
    """Simplicial circle on n >= 3 vertices start..start+n-1."""
    if n < 3:
        raise InputError("a simplicial circle needs at least 3 vertices")
    vs = [start + i for i in range(n)]
    simplices = [(v,) for v in vs]
    for i in range(n):
        simplices.append(tuple(sorted((vs[i], vs[(i + 1) % n]))))
    return SimplicialComplex(simplices)


def suspension(c: SimplicialComplex) -> SimplicialComplex:
    """Join with two fresh apexes (max id + 1 and + 2)."""
    base = (max(c.vertices) + 1) if c.vertices else 0
    north, south = base, base + 1
    simps: set[Simplex] = {(north,), (south,)}
    for s in c.simplices:
        simps.add(s)
        simps.add(s + (north,))
        simps.add(s + (south,))
    return SimplicialComplex(simps)


def hexagon() -> SimplicialComplex:
    return cycle_complex(6)


def octahedron() -> SimplicialComplex:
    """Boundary of the octahedron; antipodal vertex pairs (0,5), (1,3), (2,4)."""
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
             (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]
    return closure(faces)


def torus7() -> SimplicialComplex:
    """Seven-vertex triangulation of the torus."""
    faces = []
    for i in range(7):
        faces.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return closure(faces)


def boundary_simplex(n: int) -> SimplicialComplex:
    """The boundary sphere of the n-simplex (an (n-1)-sphere)."""
    from itertools import combinations
    verts = range(n + 1)
    return SimplicialComplex(
        s for k in range(1, n + 1) for s in combinations(verts, k))


# ---------------------------------------------------------------------------
# stratified demo spaces


def suspension_torus() -> StratifiedComplex:
    """Suspension of the 7-vertex torus; the two apexes are the deep stratum."""
    total = suspension(torus7())
    apexes = SimplicialComplex(((7,), (8,)))
    return StratifiedComplex(total, [apexes, apexes])


def pinched_torus() -> StratifiedComplex:
    """Torus with one pinched vertex link.

    Built by subdividing the octahedron once and identifying the two
    barycenters of the antipodal vertices 0 and 5; the pinch vertex keeps
    the smaller id and its link is a disjoint pair of circles.
    """
    from .simplicial import barycentric_subdivide_complex

    sub, b_id, _by_top = barycentric_subdivide_complex(octahedron())
    a, b = b_id[(0,)], b_id[(5,)]
    keep, drop = min(a, b), max(a, b)

    def rename(v: int) -> int:
        return keep if v == drop else v

    simplices = {tuple(sorted(set(rename(v) for v in s))) for s in sub.simplices}
    total = SimplicialComplex(simplices)
    pinch = SimplicialComplex(((keep,),))
    return StratifiedComplex(total, [pinch])


# ---------------------------------------------------------------------------
# orientation and cuts


def orient_closed_surface(c: SimplicialComplex) -> dict[Simplex, int]:
    """Coherent orientation signs for a closed triangulated surface.

    Adjacent triangles must induce opposite directions on their common
    edge; propagation is BFS from the least triangle.  Raises InputError
    if the surface is not orientable or an edge is not shared by exactly
    two triangles.
    """
    triangles = c.simplices_of_dim(2)
    by_edge: dict[Simplex, list[Simplex]] = {}
    for t in triangles:
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            by_edge.setdefault(e, []).append(t)
    for e, ts in by_edge.items():
        if len(ts) != 2:
            raise InputError(f"edge {list(e)} lies in {len(ts)} triangles, expected 2")

    def induced(t: Simplex, e: Simplex, sign: int) -> int:
        # direction +1 means the ascending edge agrees with the boundary cycle
        i = t.index(e[0])
        j = t.index(e[1])
        # boundary of (v0,v1,v2) with sign +: v0->v1, v1->v2, v2->v0
        forward = (j - i) % 3 == 1
        return sign if forward else -sign

    signs: dict[Simplex, int] = {}
    from collections import deque

    for start in triangles:
        if start in signs:
            continue
        signs[start] = 1
        queue = deque([start])
        while queue:
            t = queue.popleft()
            for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                other = next(x for x in by_edge[e] if x != t)
                want = -induced(t, e, signs[t])
                need = 1 if induced(other, e, 1) == want else -1
                if other in signs:
                    if signs[other] != need:
                        raise InputError("surface is not orientable")
                else:
                    signs[other] = need
                    queue.append(other)
    return signs


def _add_cut(sub: SimplicialComplex, signs: dict[Simplex, int], path: tuple[int, ...],
             weight: int, cochain: dict[tuple[int, int], int]) -> None:
    """Add the cut along a chordless vertex ``path`` to ``cochain``.

    At each inner vertex p the link of p, less the two path neighbours,
    falls into two arcs; ``weight`` goes on p's edges toward the left arc,
    the side of the triangle whose oriented boundary runs p -> next.  On
    the complement of the two ends this is a cocycle: a loop reads
    ``weight`` times its crossings of the path from right to left, so the
    oriented meridian of the first vertex reads +weight and that of the
    last -weight.
    """
    for prev, p, nxt in zip(path, path[1:], path[2:]):
        triangles = [t for t in sub.cofaces_of_vertex(p) if len(t) == 3]
        # the third vertex of the triangle whose boundary runs p -> nxt
        left = next(t[(t.index(p) + 2 * signs[t]) % 3] for t in triangles
                    if t[(t.index(p) + signs[t]) % 3] == nxt)
        ends = {prev, nxt}
        rims = [tuple(w for w in t if w != p) for t in triangles]
        arcs = connected_components({w for rim in rims for w in rim} - ends,
                                    (rim for rim in rims if not ends & set(rim)))
        for w in next(arc for arc in arcs if left in arc):
            cochain[(p, w)] = cochain.get((p, w), 0) + weight


def _tree_gauge(pres: EdgePathPresentation, cochain: dict[tuple[int, int], int],
                d: int) -> MonodromyRep:
    """Generator assignments of a Z/d cocycle, made 0 on the spanning tree.

    ``cochain`` holds values on oriented edges, read antisymmetrically;
    generator u -> v maps to the d-cycle raised to h(u) + cochain(u -> v) - h(v),
    where h sums the cochain along the tree path from the basepoint.
    """
    def value(u: int, v: int) -> int:
        return cochain.get((u, v), 0) - cochain.get((v, u), 0)

    def h(v: int) -> int:
        path = pres.tree_path(v)
        return sum(map(value, path, path[1:]))

    return MonodromyRep(d, {(u, v): tuple((i + h(u) + value(u, v) - h(v)) % d for i in range(d))
                            for u, v in pres.generators}, pres.basepoint)


# ---------------------------------------------------------------------------
# ready-made branched cover data


def sphere_branched_data(points: int, degree: int):
    """Subdivided octahedron with `points` branch vertices and cyclic monodromy.

    Every meridian maps to the full d-cycle c, so the number of points must
    be divisible by the degree.  Cuts join each branch vertex to the next
    with weights 1, 2, ..., points - 1, so the last meridian reads
    -(points - 1), which is 1 mod d.
    """
    if not 2 <= points <= 6:
        raise InputError("the octahedron model supports 2 to 6 branch points")
    if degree < 2:
        raise InputError("degree must be at least 2")
    if points % degree != 0:
        raise InputError(
            f"{points} meridians mapping to a d-cycle need d | points; "
            f"got degree {degree}")

    base0 = octahedron()
    order = [0, 5, 1, 3, 2, 4]
    branch_orig = sorted(order[:points])

    from .simplicial import barycentric_subdivide_complex, full_subcomplex
    sub, b_id, _by_top = barycentric_subdivide_complex(base0)
    signs = orient_closed_surface(sub)
    branch_vertices = [b_id[(w,)] for w in branch_orig]
    branch = SimplicialComplex(tuple((v,) for v in sorted(branch_vertices)))

    y = StratifiedComplex(sub)
    r = StratifiedComplex(branch)

    pres = complement_presentation(sub, frozenset(branch_vertices))
    cochain: dict[tuple[int, int], int] = {}
    for weight, (a, b) in enumerate(zip(branch_vertices, branch_vertices[1:]), 1):
        # a BFS tree path is a shortest path, so it has no chords
        path = edge_path_presentation(
            full_subcomplex(sub, pres.complex.vertices + (a, b)), a).tree_path(b)
        _add_cut(sub, signs, path, weight, cochain)
    return y, r, _tree_gauge(pres, cochain, degree)


def s3_unknot_double_data():
    """Double cover of the 3-sphere branched over a triangle unknot.

    The base is the once-subdivided boundary of the 4-simplex; the branch
    locus is the subdivided circle through the original vertices 0, 1, 2.
    The subdivided face 012 spans the knot and meets the complement only at
    its barycenter, so the cut is the one edge from there into the
    tetrahedron 0123, and the meridian of every branch edge maps to the
    transposition.
    """
    base0 = boundary_simplex(4)
    circle = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]

    from .simplicial import barycentric_subdivide_complex, barycentric_subdivide_set
    sub, b_id, by_top = barycentric_subdivide_complex(base0)
    branch = SimplicialComplex(barycentric_subdivide_set(by_top, circle))

    y = StratifiedComplex(sub)
    r = StratifiedComplex(branch)

    pres = complement_presentation(sub, frozenset(branch.vertices))
    cochain = {(b_id[(0, 1, 2)], b_id[(0, 1, 2, 3)]): 1}
    return y, r, _tree_gauge(pres, cochain, 2)


def circle_cover_data(degree: int, perm: tuple[int, ...]):
    """Cover of the hexagon with the single generator mapping to `perm`."""
    if degree < 1:
        raise InputError("degree must be at least 1")
    if sorted(perm) != list(range(degree)):
        raise InputError(f"{list(perm)} is not a permutation of 0..{degree - 1}")
    base = hexagon()
    y = StratifiedComplex(base)
    pres = edge_path_presentation(base, 0)
    rep = MonodromyRep(degree, {pres.generators[0]: tuple(perm)}, pres.basepoint)
    return y, EMPTY_STRATIFIED, rep


# ---------------------------------------------------------------------------
# serialization


def _levels(sc: StratifiedComplex) -> list:
    """Singular levels, top (dim m-2) first, less the trailing empty ones."""
    levels = [[list(s) for s in sc.levels[j].all_simplices()] for j in range(sc.dim - 2, -1, -1)]
    while levels and not levels[-1]:
        levels.pop()
    return levels


def spec_to_dict(base: StratifiedComplex, branch: StratifiedComplex = EMPTY_STRATIFIED,
                 monodromy: MonodromyRep | None = None) -> dict:
    out: dict = {"complex": [list(s) for s in base.complex.all_simplices()]}
    if levels := _levels(base):
        out["stratification"] = levels
    if branch.complex.n_simplices():
        out["branch"] = [list(s) for s in branch.complex.all_simplices()]
        if levels := _levels(branch):
            out["branch_stratification"] = levels
    if monodromy is not None:
        out["monodromy"] = {
            "degree": monodromy.degree,
            "assignments": {f"{u}->{v}": list(image)
                            for (u, v), image in monodromy.assignments.items()},
        }
        if monodromy.basepoint is not None:
            out["monodromy"]["basepoint"] = monodromy.basepoint
    out["options"] = {"perversity": "lower", "subdivisions": 0}
    return out


def spec_to_text(spec_dict: dict) -> str:
    return json.dumps(spec_dict, sort_keys=True, indent=2) + "\n"
