"""Named fixtures: complexes, stratified spaces and ready-to-run specs.

Only the ``fixture`` command and the tests load this module: it also
holds the link and suspension constructions the fixtures build on and
the writer of spec files (:func:`spec_to_dict`, :func:`spec_to_text`).

Monodromy assignments for the sphere and knot fixtures are synthesized by
solving a linear system over a prime field: relator loops must vanish and
every meridian (the directed link cycle of a branch vertex, or the link
of a branch edge in dimension 3) must map to the designated cycle.  Link
cycles are oriented coherently through a global surface orientation, so
the systems are always consistent for the fixtures shipped here.
"""
from __future__ import annotations

import json

from .errors import InputError
from .covering import MonodromyRep, complement_presentation
from .presentation import EdgePathPresentation, edge_path_presentation
from .simplicial import SimplicialComplex, Simplex, star
from .stratified import StratifiedComplex


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


def link(c: SimplicialComplex, simplex: Simplex) -> SimplicialComplex:
    """Faces of star simplices disjoint from ``simplex``."""
    s = tuple(simplex)
    if s not in c.simplices:
        raise InputError(f"{list(s)} is not a simplex of the complex")
    sset = set(s)
    st = star(c, s)
    return SimplicialComplex(t for t in st.simplices if not sset & set(t))


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
    return _closure(faces)


def torus7() -> SimplicialComplex:
    """Seven-vertex triangulation of the torus."""
    faces = []
    for i in range(7):
        faces.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return _closure(faces)


def boundary_simplex(n: int) -> SimplicialComplex:
    """The boundary sphere of the n-simplex (an (n-1)-sphere)."""
    from itertools import combinations
    verts = range(n + 1)
    return SimplicialComplex(
        s for k in range(1, n + 1) for s in combinations(verts, k))


def _closure(top: list[Simplex]) -> SimplicialComplex:
    from itertools import combinations
    out = set()
    for s in top:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return SimplicialComplex(out)


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
# orientation and prime-field solving


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


def _word_row(pres: EdgePathPresentation, path_edges: list[tuple[int, int]],
              ncols: int) -> list[int]:
    row = [0] * ncols
    for (u, v) in path_edges:
        e = (u, v) if u < v else (v, u)
        if e in pres.tree_edges:
            continue
        gi = pres.gen_index[e]
        row[gi] += 1 if u < v else -1
    return row


def _relator_rows(pres: EdgePathPresentation) -> list[list[int]]:
    rows = []
    n = len(pres.generators)
    for word in pres.relators:
        row = [0] * n
        for (gi, sign) in word:
            row[gi] += sign
        rows.append(row)
    return rows


def _cyclic_monodromy(pres: EdgePathPresentation, meridians: list[list[tuple[int, int]]],
                      degree: int, failure: str) -> MonodromyRep:
    """Images in the cyclic group of prime order ``degree`` under which every
    relator maps to 1 and every meridian (a path of oriented edges) to the
    d-cycle; ``failure`` is the message when there are none."""
    n = len(pres.generators)
    rows = _relator_rows(pres)
    rhs = [0] * len(rows) + [1] * len(meridians)
    rows.extend(_word_row(pres, path, n) for path in meridians)
    sol = solve_mod_p(rows, rhs, n, degree)
    if sol is None:
        raise InputError(failure)
    return MonodromyRep(degree, tuple(cyclic_image(s, degree) for s in sol))


# ---------------------------------------------------------------------------
# ready-made branched cover data


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def sphere_branched_data(points: int, degree: int):
    """Subdivided octahedron with `points` branch vertices and cyclic monodromy.

    Every meridian maps to the full d-cycle, so the number of points must
    be divisible by the degree and the degree must be prime (the solver
    works over GF(d)).
    """
    if not 2 <= points <= 6:
        raise InputError("the octahedron model supports 2 to 6 branch points")
    if degree < 2 or not _is_prime(degree):
        raise InputError("degree must be a prime at least 2")
    if points % degree != 0:
        raise InputError(
            f"{points} meridians mapping to a d-cycle need d | points; "
            f"got degree {degree}")

    base0 = octahedron()
    order = [0, 5, 1, 3, 2, 4]
    branch_orig = sorted(order[:points])

    from .simplicial import barycentric_subdivide_complex
    sub, b_id, _by_top = barycentric_subdivide_complex(base0)
    signs = orient_closed_surface(sub)
    branch_vertices = [b_id[(w,)] for w in branch_orig]
    branch = SimplicialComplex(tuple((v,) for v in sorted(branch_vertices)))

    y = StratifiedComplex(sub)
    r = StratifiedComplex(branch)

    pres = complement_presentation(sub, frozenset(branch_vertices))
    # meridian: the directed link cycle of the branch vertex in the
    # subdivision, which stays inside the complement
    meridians = [oriented_vertex_link_cycle(sub, signs, v) for v in branch_vertices]
    rep = _cyclic_monodromy(pres, meridians, degree,
                            "no cyclic monodromy with the requested local cycles exists")
    return y, r, rep, pres


def s3_unknot_double_data():
    """Double cover of the 3-sphere branched over a triangle unknot.

    The base is the once-subdivided boundary of the 4-simplex; the branch
    locus is the subdivided circle through the original vertices 0, 1, 2.
    The meridian of every branch edge maps to the transposition.
    """
    base0 = boundary_simplex(4)
    circle = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]

    from .simplicial import barycentric_subdivide_complex, barycentric_subdivide_set
    sub, _b_id, by_top = barycentric_subdivide_complex(base0)
    branch = SimplicialComplex(barycentric_subdivide_set(by_top, circle))

    y = StratifiedComplex(sub)
    r = StratifiedComplex(branch)

    pres = complement_presentation(sub, frozenset(branch.vertices))
    meridians = []
    for tau in branch.simplices_of_dim(1):
        meridian = link(sub, tau)
        cyc_edges = meridian.simplices_of_dim(1)
        adj: dict[int, list[int]] = {}
        for (u, v) in cyc_edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        start = min(adj)
        path_vertices = [start, sorted(adj[start])[0]]
        while path_vertices[-1] != start:
            prev, here = path_vertices[-2], path_vertices[-1]
            nxt = next(x for x in sorted(adj[here]) if x != prev)
            path_vertices.append(nxt)
        meridians.append(list(zip(path_vertices, path_vertices[1:])))
    rep = _cyclic_monodromy(pres, meridians, 2,
                            "no double cover with transposition meridians exists")
    return y, r, rep, pres


def circle_cover_data(degree: int, perm: tuple[int, ...]):
    """Cover of the hexagon with the single generator mapping to `perm`."""
    if degree < 1:
        raise InputError("degree must be at least 1")
    if sorted(perm) != list(range(degree)):
        raise InputError(f"{list(perm)} is not a permutation of 0..{degree - 1}")
    base = hexagon()
    y = StratifiedComplex(base)
    pres = edge_path_presentation(base, 0)
    rep = MonodromyRep(degree, (tuple(perm),))
    return y, None, rep, pres


# ---------------------------------------------------------------------------
# serialization


def _levels(sc: StratifiedComplex) -> list:
    """Singular levels, top (dim m-2) first, less the trailing empty ones."""
    levels = [[list(s) for s in sc.levels[j].all_simplices()] for j in range(sc.dim - 2, -1, -1)]
    while levels and not levels[-1]:
        levels.pop()
    return levels


def spec_to_dict(base: StratifiedComplex, branch: StratifiedComplex | None,
                 monodromy: MonodromyRep | None, presentation=None) -> dict:
    out: dict = {"complex": [list(s) for s in base.complex.all_simplices()]}
    if levels := _levels(base):
        out["stratification"] = levels
    if branch is not None:
        out["branch"] = [list(s) for s in branch.complex.all_simplices()]
        if levels := _levels(branch):
            out["branch_stratification"] = levels
    if monodromy is not None:
        if presentation is None:
            raise InputError("serializing monodromy needs the presentation")
        assignments = {
            f"{u}->{v}": list(monodromy.images[i])
            for i, (u, v) in enumerate(presentation.generators)
        }
        out["monodromy"] = {
            "degree": monodromy.degree,
            "basepoint": presentation.basepoint,
            "assignments": assignments,
        }
    out["options"] = {"perversity": "lower", "subdivisions": 0}
    return out


def spec_to_text(spec_dict: dict) -> str:
    return json.dumps(spec_dict, sort_keys=True, indent=2) + "\n"
