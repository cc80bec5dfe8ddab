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
    star,
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


def _check_branch_locus(base: StratifiedComplex, r: SimplicialComplex, full: bool) -> None:
    """Raise unless ``r`` is a subcomplex of the base of codimension at least 2,
    full when ``full`` is set, holding the singular set; checked in that order."""
    y = base.complex
    m = base.dim
    if not r.is_subcomplex_of(y):
        raise InputError("branch locus is not a subcomplex of the base")
    if r.dim > m - 2:
        raise InputError(
            f"branch locus has dimension {r.dim} in a base of dimension {m}")
    if full and not is_full(y, r):
        raise InputError(
            "branch locus is not a full subcomplex of the base; "
            "raise the spec's \"subdivisions\" option")
    if m >= 2 and not base.singular_set.is_subcomplex_of(r):
        raise InputError(
            "singular set of the base must be contained in the branch locus")


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
    """Base, branch locus and validated monodromy on the complement.

    The spec presents the complement of the branch locus itself, with
    :func:`complement_presentation` at the monodromy's basepoint, and keeps
    that presentation and its complex.
    """

    __slots__ = ("base", "branch", "complement", "presentation", "monodromy",
                 "branch_vertices", "table", "_punctured", "_connected", "_local_groups")

    def __init__(self, base: StratifiedComplex, branch: StratifiedComplex,
                 monodromy: MonodromyRep):
        if branch.complex.n_simplices():
            _check_branch_locus(base, branch.complex, full=True)
        branch_vertices = frozenset(branch.complex.vertices)
        presentation = complement_presentation(base.complex, branch_vertices, monodromy.basepoint)

        self.base = base
        self.branch = branch
        self.complement = presentation.complex
        self.presentation = presentation
        self.monodromy = monodromy
        self.branch_vertices = branch_vertices
        self.table = validate_monodromy(presentation, monodromy)
        self._punctured: dict[Simplex, SimplicialComplex] = {}
        self._connected: set[SimplicialComplex] = set()
        self._local_groups: dict[SimplicialComplex, tuple[Perm, ...]] = {}

    @property
    def degree(self) -> int:
        return self.monodromy.degree

    def branch_simplices(self) -> tuple[Simplex, ...]:
        return self.branch.complex.all_simplices()

    def punctured_star(self, tau: Simplex) -> SimplicialComplex:
        """star(tau) minus the branch locus, as a full subcomplex.

        The one connectivity test of a base punctured star: an empty or
        disconnected one raises :class:`InputError`.  Only stars that pass
        are cached; equal stars of different branch simplices are tested once.
        """
        tau = tuple(tau)
        if tau not in self.branch.complex.simplices:
            raise InputError(f"{list(tau)} is not a simplex of the branch locus")
        cached = self._punctured.get(tau)
        if cached is None:
            cached = _punctured_star(self.base.complex, tau, self.branch_vertices)
            if cached not in self._connected:
                if not _nonempty_connected(cached):
                    raise InputError(
                        f"punctured star of branch simplex {list(tau)} is not connected")
                self._connected.add(cached)
            self._punctured[tau] = cached
        return cached


def _punctured_star(c: SimplicialComplex, s: Simplex, removed) -> SimplicialComplex:
    """star(s) in ``c`` less the vertices in ``removed``, as a full subcomplex."""
    st = star(c, s)
    return full_subcomplex(st, (v for v in st.vertices if v not in removed))


def _nonempty_connected(c: SimplicialComplex) -> bool:
    return len(components(c)) == 1


# ---------------------------------------------------------------------------
# covers


class CoverComplex:
    """Total complex of a cover with its simplicial projection and, for each
    branch simplex, the ascending tuple of its lifts."""

    __slots__ = ("spec", "total", "projection", "fibers")

    def __init__(self, spec: BranchedCoverSpec, total: SimplicialComplex,
                 projection: dict[Simplex, Simplex],
                 fibers: dict[Simplex, tuple[Simplex, ...]]):
        self.spec = spec
        self.total = total
        self.projection = projection
        self.fibers = fibers


# ---------------------------------------------------------------------------
# local monodromy and fiber cardinalities


def local_monodromy_group(spec: BranchedCoverSpec, tau: Simplex) -> tuple[Perm, ...]:
    """Generators of the sheet action of loops in the punctured star.

    Loops are read off a deterministic local spanning tree at the least
    vertex of the punctured star.  ``validate_monodromy`` gives every edge
    of the global spanning tree the identity, so the global tree path to
    that vertex transports by the identity: conjugating the loops to the
    global basepoint would change nothing, and the generated subgroup is
    already a well-defined representative of its conjugacy class.
    It depends on tau only through the punctured star, so it is cached on
    the spec by punctured star: branch simplices with equal stars share it.
    """
    p = spec.punctured_star(tau)
    cached = spec._local_groups.get(p)
    if cached is not None:
        return cached
    d = spec.degree
    table = spec.table
    local_base = min(p.vertices)
    local_pres = edge_path_presentation(p, local_base)

    gens: list[Perm] = []
    seen: set[Perm] = set()
    ident = identity_perm(d)
    for (u, v) in local_pres.generators:
        path = local_pres.tree_path(u) + (v,) + tuple(reversed(local_pres.tree_path(v)))[1:]
        loop = transport_along(table, path, d)
        if loop != ident and loop not in seen:
            seen.add(loop)
            gens.append(loop)
    cached = spec._local_groups[p] = tuple(sorted(gens)) if gens else (ident,)
    return cached


def fiber_cardinality(spec: BranchedCoverSpec, tau: Simplex) -> int:
    """Orbit count of the local monodromy group on the sheets."""
    return orbit_count(local_monodromy_group(spec, tau), spec.degree)


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
    cover keeps ``projection``, from each lift to its simplex, and
    ``fibers``, from each branch simplex to its lifts.
    Fails if a punctured star is disconnected (local-flatness shadow) or
    if two lifts collide as vertex sets (insufficient subdivision).
    """
    y = spec.base.complex
    d = spec.degree
    table = spec.table
    branch_vertices = spec.branch_vertices

    vid = {}
    for v in spec.complement.vertices:
        for s in range(d):
            vid[(v, s)] = len(vid)
    next_id = len(vid)

    for tau in spec.branch_simplices():
        spec.punctured_star(tau)  # raises unless non-empty and connected

    comps_by_star: dict[SimplicialComplex, list[list[int]]] = {}  # equal stars share them

    def preimage_components(tau: Simplex) -> list[list[int]]:
        punctured = spec.punctured_star(tau)
        if punctured not in comps_by_star:
            # the sheet vertices ascend, so each component does and they come in order
            comps_by_star[punctured] = connected_components(
                (vid[(v, s)] for v in punctured.vertices for s in range(d)),
                ((vid[(u, s)], vid[(v, table[(u, v)][s])])
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
            rep = vid[(anchor, s)]
            ids = [rep]
            for v in sig_k[1:]:
                ids.append(vid[(v, table[(anchor, v)][s])])
            for w in sig_r:
                ids.append(over[w][rep])
            register(ids, sig)

    return CoverComplex(spec, SimplicialComplex(projection.keys()), projection, fibers)


# ---------------------------------------------------------------------------
# checks


class ConnectivityReport(namedtuple(
        "ConnectivityReport", "base_failures cover_failures checked_base checked_cover")):
    """Punctured-star connectivity downstairs and upstairs; ``base_failures``
    is always empty, as the spec hands out only connected punctured stars.

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

    The base stars are read through :meth:`BranchedCoverSpec.punctured_star`,
    which raises on a disconnected one and caches the rest, so after
    :func:`fox_complete` they cost nothing.  A failure upstairs is
    reported, not raised.
    """
    spec = cover.spec
    taus = spec.branch_simplices()
    for tau in taus:
        spec.punctured_star(tau)
    over_locus = {v for w in spec.branch_vertices for (v,) in cover.fibers[(w,)]}
    lifts = [lift for tau in taus for lift in cover.fibers[tau]]
    cover_failures = tuple(lift for lift in lifts if not _nonempty_connected(
        _punctured_star(cover.total, lift, over_locus)))
    return ConnectivityReport((), cover_failures, len(taus), len(lifts))


def riemann_hurwitz_check(cover: CoverComplex) -> int:
    """Verify the combinatorial Euler-characteristic identity of the cover.

    chi(total) must equal d * (-1)^dim summed over base simplices off the
    locus plus orbit-count * (-1)^dim summed over branch simplices, with
    orbit counts recomputed by loop tracing (independent of the component
    counts used to build the completion).
    """
    spec = cover.spec
    d = spec.degree
    rset = spec.branch.complex.simplices
    rhs = 0
    for sig in spec.base.complex.all_simplices():
        sign = (-1) ** (len(sig) - 1)
        if sig in rset:
            rhs += sign * fiber_cardinality(spec, sig)
        else:
            rhs += sign * d
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
    locus the refinement is the base itself.
    """
    y = base.complex
    m = base.dim
    r = branch.complex
    if not r.n_simplices():
        return base
    _check_branch_locus(base, r, full=False)

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

