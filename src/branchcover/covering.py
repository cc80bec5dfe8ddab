"""Branched covers from monodromy data.

The complement of the branch locus is modeled as the full subcomplex on
the vertices off the locus (legitimate once the locus is full).  One
builder, :func:`fox_complete`, makes every cover: a validated permutation
assignment on the edge-path generators glues the unbranched cover of the
complement sheet by sheet, and the cover is completed over the locus by
adding one vertex per connected component of the preimage of each
punctured star, which is the combinatorial form of Fox completion.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import InputError, InternalCheckError
from .presentation import EdgePathPresentation, edge_path_presentation
from .simplicial import (
    SimplicialComplex,
    Simplex,
    closure,
    components,
    connected_components,
    full_subcomplex,
    is_full,
)
from .stratified import StratifiedComplex

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutations


def identity_perm(d: int) -> Perm:
    return tuple(range(d))


def compose_perms(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p[q[i]]: q acts first."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def is_permutation(seq: Sequence[int], d: int) -> bool:
    return len(seq) == d and sorted(seq) == list(range(d))


def orbit_count(perms: Iterable[Perm], d: int) -> int:
    return len(connected_components(range(d), (e for p in perms for e in enumerate(p))))


# ---------------------------------------------------------------------------
# monodromy data


class MonodromyRep(namedtuple("MonodromyRep", "degree assignments basepoint", defaults=(None,))):
    """Degree-d permutation assignment: ``degree`` is an ``int``,
    ``assignments`` maps each generator edge ``(u, v)`` to its ``Perm`` image
    and ``basepoint``, or ``None`` for the least one, is the complement vertex
    they are read from, as a spec file writes them."""

    __slots__ = ()


def validate_monodromy(pres: EdgePathPresentation,
                       rep: MonodromyRep) -> dict[tuple[int, int], Perm]:
    """Accept iff the assigned edges are the generators, all images are
    permutations and all relators map to 1.

    An assigned edge that is not a generator is reported first, then a
    generator with no image.  Each distinct image is checked and inverted
    once, and equal images share one object, so each relator is evaluated
    letter by letter, left to right, passing over letters that map to the
    identity; the first relator that does not evaluate to the identity is
    the one reported.
    Returns the transport table: oriented edge -> sheet permutation, the
    image on each generator edge, its inverse on the reverse and the
    identity on both ways of a tree edge.
    """
    d = rep.degree
    if d < 1:
        raise InputError("degree must be at least 1")
    assignments = rep.assignments
    for (u, v) in assignments:
        if (u, v) not in pres.gen_index:
            raise InputError(f"{u}->{v} is not a generator edge of the presentation")
    for (u, v) in pres.generators:
        if (u, v) not in assignments:
            raise InputError(f"no image assigned to generator {u}->{v}")
    ident = identity_perm(d)
    shared: dict[Perm, Perm] = {ident: ident}  # equal images are one object
    inverse_of: dict[Perm, Perm] = {ident: ident}
    for e in pres.generators:
        img = assignments[e]
        if img not in inverse_of:
            if not is_permutation(img, d):
                raise InputError(
                    f"image of generator {e[0]}->{e[1]} is not a permutation: {list(img)}")
            shared[img] = img
            inverse_of[img] = invert_perm(img)
    images = tuple(shared[assignments[e]] for e in pres.generators)
    inverses = tuple(map(inverse_of.__getitem__, images))
    for i, word in enumerate(pres.relators):
        acc = ident
        for (gi, sign) in word:
            p = images[gi] if sign > 0 else inverses[gi]
            if p is ident:
                continue
            # p acts after acc; after the identity, that is p itself
            acc = p if acc is ident else tuple(map(p.__getitem__, acc))
        if acc != ident:
            raise InputError(f"relator {i} evaluates to {list(acc)}")
    table: dict[tuple[int, int], Perm] = {}
    for (u, v) in pres.tree_edges:
        table[(u, v)] = table[(v, u)] = ident
    for (u, v), image, inverse in zip(pres.generators, images, inverses):
        table[(u, v)] = image
        table[(v, u)] = inverse
    return table


def transport_along(table: dict[tuple[int, int], Perm], path: Sequence[int], d: int) -> Perm:
    acc = identity_perm(d)
    for u, v in zip(path, path[1:]):
        acc = compose_perms(table[(u, v)], acc)
    return acc


# ---------------------------------------------------------------------------
# branched cover specification


def complement_presentation(y: SimplicialComplex, branch_vertices,
                            basepoint: int | None = None) -> EdgePathPresentation:
    """Presentation of the full subcomplex of ``y`` off ``branch_vertices``
    (a set), based at ``basepoint`` or else at its smallest vertex.

    An empty complement and a basepoint off it are rejected here, and a
    disconnected complement by the presentation.
    """
    complement = full_subcomplex(y, (v for v in y.vertices if v not in branch_vertices))
    if complement.n_simplices() == 0:
        raise InputError("complement of the branch locus is empty")
    if basepoint is None:
        basepoint = min(complement.vertices)
    elif (basepoint,) not in complement.simplices:
        raise InputError(
            f"basepoint {basepoint} is not a vertex of the complement of the branch locus")
    return edge_path_presentation(complement, basepoint)


class BranchedCoverSpec:
    """Base, branch locus and monodromy, checked, with what checking them
    derives: the complement's :func:`complement_presentation` at the
    monodromy's basepoint, its complex, the locus vertices and the transport
    table.  What Fox completion derives is on the cover, not here."""

    __slots__ = ("base", "branch", "complement", "presentation", "monodromy",
                 "branch_vertices", "table")

    def __init__(self, base: StratifiedComplex, branch: StratifiedComplex,
                 monodromy: MonodromyRep):
        r = branch.complex
        if r.n_simplices():
            # a subcomplex of codimension at least 2, full and holding the
            # singular set, checked in that order
            y = base.complex
            m = base.dim
            if not r.is_subcomplex_of(y):
                raise InputError("branch locus is not a subcomplex of the base")
            if r.dim > m - 2:
                raise InputError(
                    f"branch locus has dimension {r.dim} in a base of dimension {m}")
            if not is_full(y, r):
                raise InputError(
                    "branch locus is not a full subcomplex of the base; "
                    "raise the spec's \"subdivisions\" option")
            if m >= 2 and not base.singular_set.is_subcomplex_of(r):
                raise InputError(
                    "singular set of the base must be contained in the branch locus")
        branch_vertices = frozenset(r.vertices)
        presentation = complement_presentation(base.complex, branch_vertices, monodromy.basepoint)

        self.base = base
        self.branch = branch
        self.complement = presentation.complex
        self.presentation = presentation
        self.monodromy = monodromy
        self.branch_vertices = branch_vertices
        self.table = validate_monodromy(presentation, monodromy)

    @property
    def degree(self) -> int:
        return self.monodromy.degree

    def branch_simplices(self) -> tuple[Simplex, ...]:
        return self.branch.complex.all_simplices()


def _star_off(c: SimplicialComplex, s: Simplex, removed) -> SimplicialComplex:
    """The star of ``s`` in ``c`` less the vertices in ``removed``, as a full
    subcomplex: the closure of each coface of ``s`` less ``removed``, since a
    face of a coface avoids ``removed`` exactly when it is a face of that rest."""
    return closure(tuple(v for v in t if v not in removed)
                   for t in filter(set(s).issubset, c.cofaces_of_vertex(s[0])))


def _one_component(c: SimplicialComplex) -> bool:
    return len(components(c)) == 1


# ---------------------------------------------------------------------------
# covers


class CoverComplex(namedtuple("CoverComplex", "spec total projection fibers stars")):
    """Total complex of a cover with its simplicial projection and what Fox
    completion derives over the branch locus.

    ``spec`` is the :class:`BranchedCoverSpec` and ``total`` the
    ``SimplicialComplex``; ``projection`` maps each lift to its simplex,
    ``fibers`` each branch simplex to the ascending tuple of its lifts and
    ``stars`` each branch simplex to its punctured star, its star less the
    locus as a full subcomplex, non-empty and connected.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# local monodromy


def local_monodromy_group(cover: CoverComplex, tau: Simplex) -> tuple[Perm, ...]:
    """Generators of the sheet action of loops in the punctured star of tau.

    Loops are read off a deterministic local spanning tree at the least
    vertex of the punctured star.  ``validate_monodromy`` gives every edge
    of the global spanning tree the identity, so the global tree path to
    that vertex transports by the identity: conjugating the loops to the
    global basepoint would change nothing, and the generated subgroup is
    already a well-defined representative of its conjugacy class.
    """
    p = cover.stars[tau]
    d = cover.spec.degree
    table = cover.spec.table
    local_pres = edge_path_presentation(p, min(p.vertices))

    gens: list[Perm] = []
    seen: set[Perm] = set()
    ident = identity_perm(d)
    for (u, v) in local_pres.generators:
        path = local_pres.tree_path(u) + (v,) + tuple(reversed(local_pres.tree_path(v)))[1:]
        loop = transport_along(table, path, d)
        if loop != ident and loop not in seen:
            seen.add(loop)
            gens.append(loop)
    return tuple(sorted(gens)) if gens else (ident,)


# ---------------------------------------------------------------------------
# Fox completion


def fox_complete(spec: BranchedCoverSpec) -> CoverComplex:
    """Glue d sheets over the complement and complete them over the locus.

    Sheet s of a complement vertex v is cover vertex index(v) * d + s; the
    vertices over the locus follow, one per connected component of the
    preimage of the punctured star of each branch vertex, taken in
    ascending order.  A simplex off the locus lifts once per sheet of its
    first vertex, the other vertices following the transports.  Lifts of a
    branch simplex are the connected components of the preimage of its
    punctured star; incidence between lifts follows component containment.
    With an empty locus this is the unbranched cover of the base.  The
    cover keeps ``projection``, from each lift to its simplex, ``fibers``,
    from each branch simplex to its lifts, and ``stars``, from each branch
    simplex to its punctured star.
    Fails if a punctured star is disconnected (local-flatness shadow),
    before any lift is made, or if two lifts collide as vertex sets
    (insufficient subdivision).
    """
    y = spec.base.complex
    d = spec.degree
    table = spec.table
    branch_vertices = spec.branch_vertices

    index = {v: i * d for i, v in enumerate(spec.complement.vertices)}
    next_id = len(index) * d

    # the punctured star of each branch simplex, equal stars tested once
    stars: dict[Simplex, SimplicialComplex] = {}
    tested: set[SimplicialComplex] = set()
    for tau in spec.branch_simplices():
        punctured = stars[tau] = _star_off(y, tau, branch_vertices)
        if punctured not in tested:
            if not _one_component(punctured):
                raise InputError(
                    f"punctured star of branch simplex {list(tau)} is not connected")
            tested.add(punctured)

    comps_by_star: dict[SimplicialComplex, list[list[int]]] = {}  # equal stars share them

    def preimage_components(tau: Simplex) -> list[list[int]]:
        punctured = stars[tau]
        if punctured not in comps_by_star:
            # the sheet vertices ascend, so each component does and they come in order
            comps_by_star[punctured] = connected_components(
                (index[v] + s for v in punctured.vertices for s in range(d)),
                ((index[u] + s, index[v] + table[(u, v)][s])
                 for (u, v) in punctured.simplices_of_dim(1) for s in range(d)))
        return comps_by_star[punctured]

    # one new vertex per component of the preimage of each vertex's punctured star
    over: dict[int, dict[int, int]] = {}  # branch vertex -> sheet vertex id -> new vertex id
    for w in sorted(branch_vertices):
        lookup = over[w] = {}
        for comp in preimage_components((w,)):
            lookup.update(dict.fromkeys(comp, next_id))
            next_id += 1

    projection: dict[Simplex, Simplex] = {}

    def register(lift_ids: Iterable[int], base_simplex: Simplex) -> Simplex:
        # A lift has one vertex over each vertex of its simplex, so lifts of
        # different simplices differ, and the d lifts of a simplex off the
        # locus differ in their anchor's sheet: only two lifts of one branch
        # simplex can share a vertex set.
        lift = tuple(sorted(lift_ids))
        if lift in projection:
            raise InputError(
                f"lifts of {list(projection[lift])} and {list(base_simplex)} share the vertex set "
                f"{list(lift)}; subdivide the base")
        projection[lift] = base_simplex
        return lift

    fibers: dict[Simplex, tuple[Simplex, ...]] = {}
    for sig in y.all_simplices():
        sig_k = tuple(v for v in sig if v not in branch_vertices)
        sig_r = tuple(v for v in sig if v in branch_vertices)
        if not sig_k:
            fibers[sig] = tuple(sorted(register([over[w][comp[0]] for w in sig], sig)
                                       for comp in preimage_components(sig)))
            continue
        anchor = sig_k[0]
        for s in range(d):
            rep = index[anchor] + s
            ids = [rep]
            for v in sig_k[1:]:
                ids.append(index[v] + table[(anchor, v)][s])
            for w in sig_r:
                ids.append(over[w][rep])
            register(ids, sig)

    return CoverComplex(spec, SimplicialComplex(projection.keys()), projection, fibers, stars)


# ---------------------------------------------------------------------------
# checks


class ConnectivityReport(namedtuple(
        "ConnectivityReport", "base_failures cover_failures checked_base checked_cover")):
    """Punctured-star connectivity downstairs and upstairs; ``base_failures``
    is always empty, as :func:`fox_complete` builds no cover over a
    disconnected punctured star.

    ``base_failures`` and ``cover_failures`` are ``tuple[Simplex, ...]``,
    ``checked_base`` and ``checked_cover`` are ``int`` counts.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.base_failures and not self.cover_failures


def complement_connectivity_check(cover: CoverComplex) -> ConnectivityReport:
    """Verify star(tau) minus the locus is non-empty and connected for every
    branch simplex tau, and star(lift) minus the vertices over the locus
    for every lift of every branch simplex.

    :func:`fox_complete` has tested the base stars already, so only the
    stars upstairs are tested here; a failure among them is reported, not
    raised.
    """
    spec = cover.spec
    taus = spec.branch_simplices()
    over_locus = {v for w in spec.branch_vertices for (v,) in cover.fibers[(w,)]}
    lifts = [lift for tau in taus for lift in cover.fibers[tau]]
    cover_failures = tuple(lift for lift in lifts if not _one_component(
        _star_off(cover.total, lift, over_locus)))
    return ConnectivityReport((), cover_failures, len(taus), len(lifts))


def riemann_hurwitz_check(cover: CoverComplex, orbits: dict[Simplex, int]) -> int:
    """Verify the combinatorial Euler-characteristic identity of the cover.

    chi(total) must equal d * (-1)^dim summed over base simplices off the
    locus plus orbit-count * (-1)^dim summed over branch simplices.  The
    orbit counts, keyed by branch simplex, come from loop tracing, as the
    fiber table reads them, independent of the component counts used to
    build the completion.
    """
    spec = cover.spec
    d = spec.degree
    rhs = 0
    for sig in spec.base.complex.all_simplices():
        rhs += (-1) ** (len(sig) - 1) * orbits.get(sig, d)
    chi = cover.total.euler_characteristic()
    if chi != rhs:
        raise InternalCheckError(f"chi of the cover is {chi} but the branch data predicts {rhs}")
    return chi


# ---------------------------------------------------------------------------
# refined stratification


def refine_stratification(base: StratifiedComplex, branch: StratifiedComplex) -> StratifiedComplex:
    """Common refinement of the base strata and the branch strata.

    Pieces are the top stratum minus the locus together with all nonempty
    intersections of a base stratum with a branch stratum; they are
    re-indexed into a descending filtration by dimension.  With an empty
    locus the refinement is the base itself.  ``base`` and ``branch`` are
    a spec's, which :class:`BranchedCoverSpec` has checked, so they are
    not checked again.
    """
    y = base.complex
    m = base.dim
    r = branch.complex
    if not r.n_simplices():
        return base

    y_stratum: dict[Simplex, int] = {}
    for i, st in enumerate(base.strata()):
        for s in st.simplices:
            y_stratum[s] = i
    r_stratum: dict[Simplex, int] = {}
    for i, st in enumerate(branch.strata()):
        for s in st.simplices:
            r_stratum[s] = i

    pieces: dict[tuple[int, int], list[Simplex]] = {}
    for s in r.all_simplices():
        pieces.setdefault((y_stratum[s], r_stratum[s]), []).append(s)

    piece_dim = {key: max(len(s) - 1 for s in group) for key, group in pieces.items()}
    singular = [closure(s for key, group in pieces.items() if piece_dim[key] <= j for s in group)
                for j in range(m - 2, -1, -1)]
    return StratifiedComplex(y, singular)

