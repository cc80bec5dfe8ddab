"""Finite simplicial complexes and their homology ranks over the rationals.

A simplex is a strictly ascending tuple of non-negative integer vertex
ids; a complex is a face-closed finite set of simplices.  Boundary
operators use the ascending-vertex orientation with alternating signs.
One routine, :func:`homology_ranks`, computes every homology the package
needs exactly: ordinary, twisted and intersection homology are the
homology of the chains on a chosen set of simplices with chosen
coefficients.  Signs are ``int``; chains stay integral unless their
coefficients are not.
"""
from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from itertools import chain, combinations, groupby, repeat
from operator import add

from .errors import InputError, InternalCheckError
from . import linalg

Simplex = tuple[int, ...]


class SimplicialComplex:
    """Immutable finite abstract simplicial complex.

    The constructor normalizes the input to a frozenset and groups it by
    dimension, in the order given when the input is a sequence, so input
    already in (dimension, vertices) order sorts in one linear pass.  One
    pass over the facets of each dimension verifies face closure; a
    ``ValueError`` names the smallest simplex, in (dimension, vertices)
    order, that lacks a facet.  It is meant for internally-built simplex
    sets.  User input goes through :func:`validate_complex`, which reports
    malformed data instead of silently repairing it.
    """

    __slots__ = ("_simplices", "_by_dim", "_vertices", "_cofaces")

    def __init__(self, simplices: Iterable[Simplex]):
        if isinstance(simplices, (set, frozenset)):
            ordered = simps = frozenset(simplices)
        else:
            ordered = list(map(tuple, simplices))
            simps = frozenset(set(ordered))  # copied from a set, the table is sized once
            if len(simps) != len(ordered):  # a repeat: group each simplex once
                ordered = simps
        self._by_dim = {n - 1: tuple(sorted(run))  # a stable sort keeps the order given
                        for n, run in groupby(sorted(ordered, key=len), len)}
        for d, top in self._by_dim.items():
            if d > 0 and not simps.issuperset(_facets(top, d)):
                s = next(s for s in top if not all(map(simps.__contains__, combinations(s, d))))
                facet = next(f for f in combinations(s, d) if f not in simps)
                raise ValueError(f"not face-closed: {s} lacks face {facet}")
        self._simplices = simps
        self._vertices = tuple(v for (v,) in self._by_dim.get(0, ()))
        self._cofaces = None

    @property
    def simplices(self) -> frozenset[Simplex]:
        return self._simplices

    @property
    def dim(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    def n_simplices(self, d: int | None = None) -> int:
        if d is None:
            return len(self._simplices)
        return len(self._by_dim.get(d, ()))

    def simplices_of_dim(self, d: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(d, ())

    def all_simplices(self) -> tuple[Simplex, ...]:
        return tuple(chain.from_iterable(self._by_dim.values()))  # keyed in ascending dim

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        """The simplices that are no face of another, in (dimension, vertices) order.

        A d-simplex is one exactly when it is no facet of a (d+1)-simplex:
        the facets are struck from a set of the d-simplices as they are
        made, so none of them is kept.
        """
        out: list[Simplex] = []
        for d, simps in self._by_dim.items():
            if d + 1 in self._by_dim:
                free = set(simps)
                free.difference_update(_facets(self._by_dim[d + 1], d + 1))
                simps = filter(free.__contains__, simps)
            out.extend(simps)
        return tuple(out)

    def cofaces_of_vertex(self, v: int) -> list[Simplex]:
        """The simplices containing vertex ``v``, from an index built once."""
        if self._cofaces is None:
            index: dict[int, list[Simplex]] = {u: [] for u in self._vertices}
            for s in self._simplices:
                for u in s:
                    index[u].append(s)
            self._cofaces = index
        return self._cofaces[v]

    def __contains__(self, simplex: Simplex) -> bool:
        return tuple(simplex) in self._simplices

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self._simplices)

    def __repr__(self) -> str:
        counts = ",".join(str(self.n_simplices(d)) for d in range(self.dim + 1))
        return f"SimplicialComplex(dim={self.dim}, f=({counts}))"

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._simplices <= other.simplices

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * self.n_simplices(d) for d in range(self.dim + 1))


def _facets(simplices: Sequence[Simplex], d: int) -> Iterator[Simplex]:
    """The facets of the given d-simplices, with repeats: each choice of d of
    their d+1 vertex columns, zipped back into simplices."""
    return chain.from_iterable(zip(*kept) for kept in combinations(zip(*simplices), d))


EMPTY_COMPLEX = SimplicialComplex(())


def validate_complex(raw: Sequence[Sequence[int]]) -> SimplicialComplex:
    """Normalize a raw simplex list into a complex, rejecting bad input.

    A listed simplex whose face is absent is an error, never silently
    repaired; the caller decides how to close its input.
    """
    seen: set[Simplex] = set()
    for entry in raw:
        s = tuple(entry)
        if not s or any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in s):
            raise InputError(
                f"simplex {list(entry)} is not a nonempty tuple of non-negative integers")
        if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise InputError(f"simplex {list(entry)} is not strictly ascending")
        if s in seen:
            raise InputError(f"simplex {list(entry)} listed twice")
        seen.add(s)
    try:
        return SimplicialComplex(seen)
    except ValueError:  # a face is missing: name it as a scan of the input set meets it
        for s in seen:
            if len(s) > 1:
                for facet in combinations(s, len(s) - 1):
                    if facet not in seen:
                        raise InputError(
                            f"simplex {list(s)} has unlisted face {list(facet)}") from None
        raise


def full_subcomplex(c: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Largest subcomplex whose simplices use only the given vertices."""
    return SimplicialComplex(list(filter(set(vertices).issuperset, c.all_simplices())))


def is_full(c: SimplicialComplex, sub: SimplicialComplex) -> bool:
    """True if ``sub`` equals the full subcomplex on its own vertex set."""
    on_vertices = filter(set(sub.vertices).issuperset, c.all_simplices())
    return all(map(sub.simplices.__contains__, on_vertices))


def closure(simplices: Iterable[Simplex]) -> SimplicialComplex:
    """Every face of the given ascending simplices."""
    return SimplicialComplex({face for s in simplices
                              for k in range(1, len(s) + 1) for face in combinations(s, k)})


def connected_components(nodes: Iterable[Hashable],
                         edges: Iterable[tuple[Hashable, Hashable]]) -> list[list]:
    """The connected components of a graph, by union-find (Tarjan, JACM 1975).

    Each component lists its nodes in the order given, and the components
    come in the order of their first node.  Every edge joins two nodes.
    """
    parent = {v: v for v in nodes}

    def find(x):
        while (up := parent[x]) != x:
            parent[x] = x = parent[up]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def components(c: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Connected components of the vertices under edge adjacency, in ascending order."""
    return tuple(map(tuple, connected_components(c.vertices, c.simplices_of_dim(1))))


# ---------------------------------------------------------------------------
# barycentric subdivision


def barycentric_subdivide_complex(
    c: SimplicialComplex,
) -> tuple[SimplicialComplex, dict[Simplex, int], dict[Simplex, list[Simplex]]]:
    """Barycentric subdivision with bookkeeping.

    Returns (subdivision, barycenter ids, index by top simplex).  The
    vertices of the subdivision are the simplices of ``c``, numbered by
    ``b_id`` in (dim, tuple) order.  A simplex of the subdivision is a
    chain of faces s_0 < ... < s_k, written (b_id[s_0], ..., b_id[s_k]);
    a proper face comes first in that order, so the ids ascend and the
    chain is read back from them through the inverse of ``b_id``.
    ``by_top[s]`` lists the simplices whose chain ends at ``s``, so each
    simplex of the subdivision is listed once.  The chains are made in
    lexicographic order, so the subdivision sorts them in one linear pass.
    """
    order = c.all_simplices()
    b_id = {s: i for i, s in enumerate(order)}
    cofaces: list[list[int]] = [[] for _ in order]
    for i, t in enumerate(order):
        for k in range(1, len(t)):
            for face in combinations(t, k):
                cofaces[b_id[face]].append(i)
    # the chains starting at i put (i,) before the chains starting at its
    # cofaces, which come after i and ascend
    starting: list[list[Simplex]] = [[] for _ in order]
    for i in reversed(range(len(order))):
        head = (i,)
        out = [head]
        for j in cofaces[i]:
            out.extend(map(add, repeat(head), starting[j]))
        starting[i] = out
    chains = list(chain.from_iterable(starting))
    by_top: list[list[Simplex]] = [[] for _ in order]
    for ns in chains:
        by_top[ns[-1]].append(ns)
    return SimplicialComplex(chains), b_id, dict(zip(order, by_top))


def barycentric_subdivide_set(by_top: dict[Simplex, list[Simplex]],
                              old: Iterable[Simplex]) -> list[Simplex]:
    """Simplices of the subdivision inside a face-closed old subcomplex.

    A chain lies inside a face-closed ``old`` exactly when its top simplex
    does, so the answer is the union of ``by_top`` over ``old``, listed in
    the order of ``old``; a simplex that was not subdivided adds nothing.
    """
    return list(chain.from_iterable(map(by_top.get, old, repeat(()))))


# ---------------------------------------------------------------------------
# homology ranks over the rationals

SparseCol = dict[int, linalg.Scalar]

_SIGNS = (1, -1)


def _boundary_columns(simplices: Sequence[Simplex], rows: dict[Simplex, int], rank: int = 1,
                      transport=None, anchor=None) -> list[SparseCol]:
    """Boundary columns of the j-simplices, ``rank`` columns per simplex.

    The coefficients of a simplex ``s`` sit at the vertex ``anchor(s)``.
    Its i-th face enters with sign (-1)^i, the coefficients carried to
    ``anchor(face)`` by ``transport(anchor(s), anchor(face))`` (a list of
    sparse columns), or unchanged when the two anchors agree.  Coefficient t of
    a face is row ``rows[face] * rank + t``.  Without a transport every
    coefficient stays put and ``anchor`` is never called.
    """
    cols: list[SparseCol] = []
    for s in simplices:
        a_s = anchor(s) if transport else None
        blocks = []
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            fi = rows[face]
            keys = (fi,) if rank == 1 else range(fi * rank, (fi + 1) * rank)
            a_f = anchor(face) if transport else None
            blocks.append((keys, _SIGNS[i & 1], None if a_f == a_s else transport(a_s, a_f)))
        for t in range(rank):
            col: SparseCol = {}
            for keys, sign, mat in blocks:
                if mat is None:
                    col[keys[t]] = sign
                else:
                    for rt, v in mat[t].items():
                        col[keys[rt]] = sign * v
            cols.append(col)
    return cols


def homology_ranks(c: SimplicialComplex, chosen: Callable[[Simplex], bool], rank: int = 1,
                   transport=None, anchor=None) -> tuple[int, ...]:
    """Homology ranks in degrees 0..dim of the chains on the chosen simplices.

    C_j is the space of chains on the chosen j-simplices whose boundary
    lies on chosen simplices again, with ``rank`` coefficients per simplex
    carried as in :func:`_boundary_columns`.  Choosing every simplex gives
    ordinary or twisted homology; choosing the allowable ones gives
    intersection homology.

    Let A^j be the boundary of the chosen j-simplices (N_j columns), its
    rows numbered with the chosen (j-1)-simplices first, and A_out^j its
    rows past them.  C_j is the kernel of A_out^j, and A_out^j is part of
    A^j, so rk(boundary on C_j) = rk A^j - rk A_out^j and

        b_j = N_j - rk A^j - rk A^{j+1} + rk A_out^{j+1}.

    That the boundary maps C_j into C_{j-1} and squares to zero there is
    one exact rank test per degree: every x in C_j has A^{j-1} A_in^j x =
    0, where A_in^j is A^j on the chosen faces, that is
    rank([A_out^j ; A^{j-1} A_in^j]) == rank(A_out^j).  With every simplex
    chosen A_out is empty and the test is d_{j-1} d_j = 0.  A failure
    raises :class:`InternalCheckError` naming the degree.

    The degrees are built one at a time and columns that are zero are
    dropped, since they add nothing to a rank.  Each boundary is checked
    in full against the next one before it is handed to
    :func:`linalg.rank_from_columns`, which consumes it, so at most two
    boundaries are alive at once.  A_out^j is built only when some row is
    cut, which never happens for ordinary or twisted chains.
    """
    m = c.dim
    n = [0] * (m + 1)         # N_j
    rk = [0] * (m + 2)        # rk A^j
    rk_out = [0] * (m + 2)    # rk A_out^j
    rows: dict[Simplex, int] = {}
    prev: list[SparseCol] = []    # A^{j-1}, alive until A^j is checked against it
    for j in range(m + 1):
        simps = c.simplices_of_dim(j)
        picked = [s for s in simps if chosen(s)]
        n[j] = len(picked) * rank
        if j:
            cols = _boundary_columns(picked, rows, rank, transport, anchor)
            cut = n[j - 1]
            if len(rows) * rank > cut:
                out = ({i: v for i, v in col.items() if i >= cut} for col in cols)
                rk_out[j] = linalg.rank_from_columns([col for col in out if col])
            if j >= 2:
                # rows of A^{j-1} A_in^j sit below the degree-(j-1) rows of A_out^j
                shift = len(rows) * rank
                stacked = []
                for col in cols:
                    acc: SparseCol = {}
                    for i, v in col.items():
                        if i >= cut:
                            acc[i] = v
                        else:
                            for k, w in prev[i].items():
                                acc[shift + k] = acc.get(shift + k, 0) + v * w
                    if any(acc.values()):
                        stacked.append(acc)
                if linalg.rank_from_columns(stacked) != rk_out[j]:
                    raise InternalCheckError(
                        f"boundary of a chain in degree {j} left the chosen chains "
                        "or does not square to zero")
                rk[j - 1] = linalg.rank_from_columns(prev)
            prev = cols
        rows = {s: i for i, s in enumerate(picked)}
        for s in simps:
            rows.setdefault(s, len(rows))
    if m >= 1:
        rk[m] = linalg.rank_from_columns(prev)
    return tuple(n[j] - rk[j] - rk[j + 1] + rk_out[j + 1] for j in range(m + 1))


def betti_numbers(c: SimplicialComplex) -> tuple[int, ...]:
    """Rational Betti numbers in degrees 0..dim."""
    return homology_ranks(c, lambda s: True)
