"""Local intersection-homology references that only the tests use.

Complementary perversities, the smallest level holding a simplex, the
star and link of a vertex with their induced filtrations, and the
Deligne stalk check that compares the two by the cone formula.  They call the package's ``ih_betti``, so they live here
and not in ``oracles.py``, whose references stay independent of it.
"""
from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from branchcover.errors import InputError
from branchcover.local_systems import LocalSystemQ
from branchcover.simplicial import Simplex, SimplicialComplex
from branchcover.stratified import StratifiedComplex

from complexes import ih, link, star


def complementary(p: Callable[[int], int]) -> Callable[[int], int]:
    return lambda k: k - 2 - p(k)


def min_level(sc: StratifiedComplex, simplex: Simplex) -> int:
    """Smallest filtration index whose level contains the simplex."""
    simplex = tuple(simplex)
    return next(j for j in range(sc.dim + 1) if simplex in sc.levels[j])


def induced_star(sc: StratifiedComplex, vertex: int) -> StratifiedComplex:
    """Closed star of a vertex with the induced filtration."""
    st = star(sc.complex, (vertex,))
    singular = []
    for j in range(sc.dim - 2, -1, -1):
        singular.append(SimplicialComplex(st.simplices & sc.levels[j].simplices))
    return StratifiedComplex(st, singular)


def induced_link(sc: StratifiedComplex, vertex: int) -> StratifiedComplex:
    """Link of a vertex with the induced filtration, indices shifted by one.

    Level j of the link is the link's intersection with ambient level
    j+1, so codimensions of strata are preserved; since levels are
    nested, content of deeper ambient levels lands at the link's deepest
    level.  When the induced filtration cannot be represented (for
    example a marked point on a 1-dimensional link, which would need a
    forbidden codimension-1 stratum), the triangulation is too coarse for
    stalk analysis at this vertex and a barycentric subdivision is
    required.
    """
    m = sc.dim
    lk = link(sc.complex, (vertex,))
    lk_simps = lk.simplices
    if lk.dim != m - 1:
        raise InputError(
            f"link of vertex {vertex} has dimension {lk.dim}, expected {m - 1}")
    singular = []
    for j in range(lk.dim - 2, -1, -1):
        singular.append(SimplicialComplex(lk_simps & sc.level(j + 1).simplices))
    leftover = lk_simps & sc.level(min(1, m - 1)).simplices
    if lk.dim < 2 and leftover:
        raise InputError(
            f"link of vertex {vertex} is {lk.dim}-dimensional but meets the singular "
            "set; subdivide the complex once")
    try:
        return StratifiedComplex(lk, singular)
    except InputError as exc:
        raise InputError(
            f"link of vertex {vertex} does not carry the induced filtration "
            f"({exc}); subdivide the complex once") from None


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


def deligne_stalk_check(sc: StratifiedComplex, p: Callable[[int], int],
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
        j = min_level(sc, (v,))
        k = m - j
        link_sc = induced_link(sc, v)
        star_sc = induced_star(sc, v)
        link_ih = ih(link_sc, p, coeff)
        star_ih = ih(star_sc, p, coeff)
        cutoff = (k - 1) - p(k)
        expected = tuple(
            (link_ih[i] if i < len(link_ih) else 0) if i < cutoff else 0
            for i in range(m + 1))
        mism = tuple((i, expected[i], star_ih[i])
                     for i in range(m + 1) if expected[i] != star_ih[i])
        entries.append(StalkCheckEntry(v, j, k, cutoff, link_ih, star_ih, expected, mism))
    return StalkCheckResult(tuple(entries))
