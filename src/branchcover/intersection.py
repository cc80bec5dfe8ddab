"""Perversities, allowable chains and intersection homology.

A chain is allowable when each of its simplices meets every filtration
level in controlled dimension; the intersection complex in degree j is
the space of allowable j-chains whose boundary is again allowable.
Fullness of the filtration levels makes the intersection of a simplex
with a level the face spanned by its vertices there, so allowability is
a vertex count.  :func:`ih_betti` takes the homology ranks from exact
ranks of the boundary of the allowable chains alone.  The reference they
are tested against, the complex with explicit bases, is the independent
oracle ``oracles.ic_betti`` in ``tests/oracles.py``.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import AnchorUnavailable, BadDimension, InternalCheckError
from . import linalg
from .local_systems import LocalSystemQ
from .simplicial import Simplex, SparseCol, _boundary_columns
from .stratified import (
    StratifiedComplex,
    cone_stratified,
    induced_link,
    induced_star,
)


class Perversity:
    """Goresky-MacPherson perversity: p(2) = 0 and unit steps.

    ``values`` holds p(2), ..., p(top_dim) and ``p[k]`` is p(k).  A
    perversity is immutable and compares and hashes by value.
    """

    __slots__ = ("top_dim", "values")

    def __init__(self, top_dim: int, values: tuple[int, ...]):
        if top_dim < 2:
            raise BadDimension("a perversity needs dimension at least 2")
        if len(values) != top_dim - 1:
            raise BadDimension(f"need values p(2)..p({top_dim}), got {len(values)}")
        if values[0] != 0:
            raise BadDimension("p(2) must be 0")
        for a, b in zip(values, values[1:]):
            if b - a not in (0, 1):
                raise BadDimension("perversity steps must be 0 or 1")
        object.__setattr__(self, "top_dim", top_dim)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Perversity")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Perversity")

    def __reduce__(self):
        return (Perversity, (self.top_dim, self.values))

    def __eq__(self, other):
        if not isinstance(other, Perversity):
            return NotImplemented
        return (self.top_dim, self.values) == (other.top_dim, other.values)

    def __hash__(self) -> int:
        return hash((self.top_dim, self.values))

    def __repr__(self) -> str:
        return f"Perversity(top_dim={self.top_dim!r}, values={self.values!r})"

    def __getitem__(self, k: int) -> int:
        if not 2 <= k <= self.top_dim:
            raise BadDimension(f"perversity value p({k}) undefined")
        return self.values[k - 2]


def zero_perversity(m: int) -> Perversity:
    return Perversity(m, tuple(0 for _ in range(2, m + 1)))


def lower_middle(m: int) -> Perversity:
    return Perversity(m, tuple((k - 2) // 2 for k in range(2, m + 1)))


def upper_middle(m: int) -> Perversity:
    return Perversity(m, tuple((k - 1) // 2 for k in range(2, m + 1)))


def top_perversity(m: int) -> Perversity:
    return Perversity(m, tuple(k - 2 for k in range(2, m + 1)))


def complementary(p: Perversity) -> Perversity:
    return Perversity(p.top_dim, tuple(k - 2 - p[k] for k in range(2, p.top_dim + 1)))


def perversity_by_name(name: str, m: int) -> Perversity:
    table = {"lower": lower_middle, "upper": upper_middle,
             "zero": zero_perversity, "top": top_perversity}
    if name not in table:
        raise BadDimension(f"unknown perversity name {name!r}")
    return table[name](max(m, 2))


# ---------------------------------------------------------------------------
# allowability


def _level_vertex_sets(sc: StratifiedComplex) -> list[set[int]]:
    return [set(sc.level(j).vertices) for j in range(max(sc.dim, 0) + 1)]


def _allowable(s: Simplex, m: int, level_verts: list[set[int]],
               p: Perversity | None) -> bool:
    js = len(s) - 1
    for k in range(2, m + 1):
        count = sum(1 for v in s if v in level_verts[m - k])
        if count == 0:
            continue
        if p is None:
            raise BadDimension("a perversity is required in dimension >= 2")
        if count - 1 > js - k + p[k]:
            return False
    return True


def is_allowable(simplex: Simplex, sc: StratifiedComplex, p: Perversity | None) -> bool:
    """dim(s ^ X_{m-k}) <= dim s - k + p(k) for every k >= 2."""
    sc.full_check()
    return _allowable(tuple(simplex), sc.dim, _level_vertex_sets(sc), p)


# ---------------------------------------------------------------------------
# allowable chains and their ranks


class _AllowableChains(NamedTuple):
    """Boundary columns of the allowable chains, degree by degree.

    ``cols[j]`` holds ``coefficient_rank`` columns per allowable
    j-simplex.  Its degree-(j-1) rows number the allowable faces first and
    all other (j-1)-simplices after them in simplex order, so the rows from
    ``cut(j)`` on are the boundary outside the allowable chains.
    """

    coefficient_rank: int
    allowable: tuple[tuple[Simplex, ...], ...]
    cols: tuple[list[SparseCol], ...]

    def cut(self, j: int) -> int:
        return len(self.allowable[j - 1]) * self.coefficient_rank if j else 0


def _allowable_chains(sc: StratifiedComplex, p: Perversity | None,
                      coeff: LocalSystemQ | None) -> _AllowableChains | None:
    """Allowable simplices and their boundary columns; None for an empty space."""
    m = sc.dim
    if m < 0:
        return None
    sc.full_check()
    if m >= 2:
        if p is None:
            raise BadDimension("a perversity is required in dimension >= 2")
        if p.top_dim < m:
            raise BadDimension(f"perversity only defined up to {p.top_dim}, need {m}")

    r = coeff.rank if coeff is not None else 1
    singular = set(sc.singular_set.vertices)
    level_verts = _level_vertex_sets(sc)

    # rows of degree j: the allowable j-simplices, then all others in simplex order
    allowable: list[tuple[Simplex, ...]] = []
    rows: list[dict[Simplex, int]] = []
    for j in range(m + 1):
        simps = sc.complex.simplices_of_dim(j)
        allowable.append(tuple(s for s in simps if _allowable(s, m, level_verts, p)))
        index = {s: i for i, s in enumerate(allowable[j])}
        for s in simps:
            index.setdefault(s, len(index))
        rows.append(index)

    def anchor(s: Simplex) -> int:
        for v in s:
            if v not in singular:
                return v
        raise AnchorUnavailable(
            f"simplex {list(s)} of an allowable chain has no vertex off the singular "
            "set; subdivide the base")

    transport = coeff.transport if coeff is not None else None
    cols = tuple(_boundary_columns(allowable[j], rows[j - 1], r, transport, anchor) if j else []
                 for j in range(m + 1))
    return _AllowableChains(r, tuple(allowable), cols)


def ih_betti(sc: StratifiedComplex, p: Perversity | None,
             coeff: LocalSystemQ | None = None) -> tuple[int, ...]:
    """Intersection homology ranks in degrees 0..dim, from ranks alone.

    Let A^j be the boundary of the allowable j-chains (N_j columns) and
    A_out^j its rows past the allowable faces.  IC_j is the kernel of
    A_out^j, and A_out^j is part of A^j, so rk(boundary on IC_j) =
    rk A^j - rk A_out^j and

        ih_j = N_j - rk A^j - rk A^{j+1} + rk A_out^{j+1}.

    That the boundary maps IC_j into IC_{j-1} and squares to zero there is
    one exact rank test per degree: every x in IC_j has A^{j-1} A_in^j x =
    0, where A_in^j is A^j on the allowable faces, that is
    rank([A_out^j ; A^{j-1} A_in^j]) == rank(A_out^j).  A failure raises
    :class:`InternalCheckError` naming the degree.

    The test oracle ``oracles.ic_betti`` computes the same ranks from
    explicit bases of the IC_j, written from the definitions alone.
    """
    chains = _allowable_chains(sc, p, coeff)
    if chains is None:
        return ()
    m = sc.dim
    r = chains.coefficient_rank
    cols = chains.cols
    rank = [0] * (m + 2)      # rk A^j
    rank_out = [0] * (m + 2)  # rk A_out^j
    for j in range(1, m + 1):
        cut = chains.cut(j)
        out = [{i: v for i, v in col.items() if i >= cut} for col in cols[j]]
        rank[j] = linalg.rank_from_columns(cols[j])
        rank_out[j] = linalg.rank_from_columns(out)
        if j >= 2:
            # rows of A^{j-1} A_in^j sit below the degree-(j-1) rows of A_out^j
            shift = sc.complex.n_simplices(j - 1) * r
            prev = cols[j - 1]
            stacked = []
            for col, col_out in zip(cols[j], out):
                acc = dict(col_out)
                for i, v in col.items():
                    if i < cut:
                        for k, w in prev[i].items():
                            acc[shift + k] = acc.get(shift + k, 0) + v * w
                stacked.append(acc)
            if linalg.rank_from_columns(stacked) != rank_out[j]:
                raise InternalCheckError(
                    f"boundary of an intersection chain in degree {j} left the "
                    "intersection chains or does not square to zero")
    return tuple(len(chains.allowable[j]) * r - rank[j] - rank[j + 1] + rank_out[j + 1]
                 for j in range(m + 1))


# ---------------------------------------------------------------------------
# cone formula and stalk checks


class ConeCheckResult(NamedTuple):
    link_ih: tuple[int, ...]
    cone_ih: tuple[int, ...]
    cutoff: int
    expected: tuple[int, ...]
    mismatches: tuple[tuple[int, int, int], ...]  # (degree, expected, got)

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
        raise BadDimension("the link is empty")
    link_ih = ih_betti(link_sc, p, coeff)
    cone_sc = cone_stratified(link_sc)
    cone_ih = ih_betti(cone_sc, p, coeff)
    if l == 0:
        cutoff = 1
        expected = (1, 0)
    else:
        if p is None or p.top_dim < l + 1:
            raise BadDimension(f"perversity must be defined up to {l + 1}")
        cutoff = l - p[l + 1]
        expected = tuple(link_ih[j] if j < cutoff else 0 for j in range(l + 2))
    mismatches = tuple((j, expected[j], cone_ih[j])
                       for j in range(l + 2) if expected[j] != cone_ih[j])
    return ConeCheckResult(link_ih, cone_ih, cutoff, expected, mismatches)


class StalkCheckEntry(NamedTuple):
    vertex: int
    level: int
    codim: int
    cutoff: int
    link_ih: tuple[int, ...]
    star_ih: tuple[int, ...]
    expected: tuple[int, ...]
    mismatches: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


class StalkCheckResult(NamedTuple):
    entries: tuple[StalkCheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def deligne_stalk_check(sc: StratifiedComplex, p: Perversity,
                        coeff: LocalSystemQ | None = None) -> StalkCheckResult:
    """Check the closed star of every singular vertex against the cone formula.

    The closed star of a vertex in a codimension-k stratum is a cone over
    its link, so its IH must agree with the link's IH strictly below
    degree (k-1) - p(k) and vanish from there on: the chain-level shadow
    of the truncation conditions the decomposition relies on.
    """
    m = sc.dim
    sc.full_check()
    entries = []
    for (v,) in sc.singular_set.simplices_of_dim(0):
        j = sc.min_level((v,))
        k = m - j
        link_sc = induced_link(sc, v)
        star_sc = induced_star(sc, v)
        link_ih = ih_betti(link_sc, p, coeff)
        star_ih = ih_betti(star_sc, p, coeff)
        cutoff = (k - 1) - p[k]
        expected = tuple(
            (link_ih[i] if i < len(link_ih) else 0) if i < cutoff else 0
            for i in range(m + 1))
        mism = tuple((i, expected[i], star_ih[i])
                     for i in range(m + 1) if expected[i] != star_ih[i])
        entries.append(StalkCheckEntry(v, j, k, cutoff, link_ih, star_ih, expected, mism))
    return StalkCheckResult(tuple(entries))
