"""Small complexes, a GF(p) kernel and local-system shorthands that only the tests use.

The package's own fixtures (``branchcover.fixtures``) are the ones the
``fixture`` command writes; these are extra bases, a stratified
subdivision, the constant system, the restriction of a system and a
codimension-3 spec for the tests.
"""
from __future__ import annotations

from itertools import combinations

from branchcover.covering import MonodromyRep, complement_presentation, validate_monodromy
from branchcover.errors import InputError
from branchcover.fixtures import _closure, _rref_mod_p, boundary_simplex, cycle_complex
from branchcover.local_systems import (
    LocalSystemQ,
    Transport,
    kernel_system,
    pushforward_local_system,
)
from branchcover.presentation import EdgePathPresentation
from branchcover.simplicial import SimplicialComplex, barycentric_subdivide_complex
from branchcover.stratified import StratifiedComplex, subdivide_with_subcomplexes


def pushforward(pres: EdgePathPresentation, rep: MonodromyRep) -> LocalSystemQ:
    """The pushforward system of a monodromy given on a bare presentation."""
    return pushforward_local_system(pres.complex, rep.degree, validate_monodromy(pres, rep))


def kernel(pres: EdgePathPresentation, rep: MonodromyRep) -> LocalSystemQ:
    """The sum-zero kernel system of a monodromy given on a bare presentation."""
    return kernel_system(pres.complex, rep.degree, validate_monodromy(pres, rep))


def trivial_system(base: SimplicialComplex, rank: int = 1) -> LocalSystemQ:
    """The constant rank-r system: the identity on every oriented edge."""
    ident = Transport.permutation(range(rank))
    edges = base.simplices_of_dim(1)
    return LocalSystemQ(base, rank, {e: ident for (u, v) in edges for e in ((u, v), (v, u))})


def restrict(system: LocalSystemQ, sub: SimplicialComplex) -> LocalSystemQ:
    """Restriction to a subcomplex; flatness is inherited."""
    if not sub.is_subcomplex_of(system.base):
        raise InputError("restriction target is not a subcomplex of the base")
    transports = {}
    for (u, v) in sub.simplices_of_dim(1):
        transports[(u, v)] = system.transports[(u, v)]
        transports[(v, u)] = system.transports[(v, u)]
    return LocalSystemQ(sub, system.rank, transports)


def barycentric_subdivide(sc: StratifiedComplex) -> StratifiedComplex:
    """Subdivide the complex and all filtration levels together."""
    return subdivide_with_subcomplexes(sc, ())[0]


def codim3_vertex_data(degree: int = 2):
    """Single branch vertex in the 3-sphere: codimension 3, fibers stay full."""
    sub, b_id, _by_top = barycentric_subdivide_complex(boundary_simplex(4))
    w = b_id[(0,)]
    branch = SimplicialComplex(((w,),))
    pres = complement_presentation(sub, {w})
    rep = MonodromyRep(degree, tuple(tuple(range(degree)) for _ in pres.generators))
    return StratifiedComplex(sub), StratifiedComplex(branch), rep, pres


def full_simplex(n: int) -> SimplicialComplex:
    """The solid n-simplex on vertices 0..n."""
    return _closure([tuple(range(n + 1))])


def figure_eight() -> SimplicialComplex:
    """Two circles sharing the vertex 0."""
    a = cycle_complex(4, start=0)           # 0-1-2-3
    b = [(0, 4), (4, 5), (5, 6), (0, 6), (4,), (5,), (6,)]
    return SimplicialComplex(set(a.simplices) | set(b) | {(0,)})


def theta_graph() -> SimplicialComplex:
    """Two vertices joined by three arcs of length 2."""
    return _closure([(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])


def k4_graph() -> SimplicialComplex:
    return _closure(list(combinations(range(4), 2)))


def annulus() -> SimplicialComplex:
    """Triangulated cylinder over a hexagon; core circle 0..5, rim 6..11."""
    faces = []
    for i in range(6):
        j = (i + 1) % 6
        faces.append((i, j, 6 + i))
        faces.append((j, 6 + i, 6 + j))
    return _closure(faces)


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
