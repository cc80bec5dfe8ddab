"""Stratified simplicial complexes.

A stratification is a descending filtration by subcomplexes
X = X_m >= X_{m-2} >= X_{m-3} >= ... >= X_0, with the pseudomanifold
convention X_{m-1} = X_{m-2} and a dense top stratum.  Strata are the
connected pieces of the level differences, where each simplex belongs to
the smallest level containing it.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations, groupby

from .errors import InputError
from .simplicial import (
    EMPTY_COMPLEX,
    SimplicialComplex,
    barycentric_subdivide_complex,
    barycentric_subdivide_set,
    connected_components,
    is_full,
)


class Stratum(namedtuple("Stratum", "level dim simplices")):
    """One stratum: its ``level`` and ``dim`` (``int``) and its ``simplices``
    (``tuple[Simplex, ...]``)."""

    __slots__ = ()


class StratifiedComplex:
    """Pure simplicial complex with a descending filtration.

    ``singular_levels`` lists X_{m-2}, X_{m-3}, ..., X_0 top-down; a
    truncated list is padded with empty levels.  Levels must be
    subcomplexes, descending, and of bounded dimension; every maximal
    simplex must have dimension m and lie outside X_{m-2}.
    """

    __slots__ = ("complex", "levels")

    def __init__(self, complex: SimplicialComplex,
                 singular_levels: Sequence[SimplicialComplex] = ()):
        m = complex.dim
        if m < 0 and singular_levels:
            raise InputError("empty complex admits no singular levels")
        levels = [EMPTY_COMPLEX] * (m + 1)
        if m >= 0:
            levels[m] = complex
        provided = list(singular_levels)
        if len(provided) > max(m - 1, 0):
            raise InputError(
                f"too many filtration levels for dimension {m}: got {len(provided)}")
        for i, lvl in enumerate(provided):
            levels[m - 2 - i] = lvl
        if m >= 2:
            levels[m - 1] = levels[m - 2]

        for j in range(m):
            if not levels[j].is_subcomplex_of(levels[j + 1]):
                raise InputError(f"filtration level {j} is not contained in level {j + 1}")
            if levels[j].dim > j:
                raise InputError(
                    f"filtration level {j} contains a simplex of dimension {levels[j].dim}")
        if m >= 1:
            # level m - 2 holds no simplex of dimension m - 1 or more (checked
            # above), so no maximal simplex lies in the singular set
            for s in complex.maximal_simplices():
                if len(s) - 1 != m:
                    raise InputError(
                        f"maximal simplex {list(s)} has dimension {len(s) - 1}, expected {m}")

        self.complex = complex
        self.levels = tuple(levels)

    @property
    def dim(self) -> int:
        return self.complex.dim

    @property
    def singular_set(self) -> SimplicialComplex:
        return self.levels[self.dim - 2] if self.dim >= 2 else EMPTY_COMPLEX

    def level(self, j: int) -> SimplicialComplex:
        if j < 0:
            return EMPTY_COMPLEX
        if j > self.dim:
            return self.complex
        return self.levels[j]

    def __repr__(self) -> str:
        sizes = ",".join(str(l.n_simplices()) for l in self.levels)
        return f"StratifiedComplex(dim={self.dim}, level sizes=({sizes}))"

    def strata(self) -> tuple[Stratum, ...]:
        """Connected pieces of the level differences.

        Two simplices of the same difference are adjacent when one is a
        face of the other; since the level assignment is monotone under
        faces, any such pair is joined by a chain of facet steps inside
        the difference, so codimension-1 adjacency suffices.  Pieces list
        their simplices in (dimension, vertices) order.
        """
        table = {s: self.dim for s in self.complex.simplices}  # smallest level holding s
        for j in range(self.dim - 1, -1, -1):
            table.update(dict.fromkeys(self.levels[j].simplices, j))
        out = []
        for j, run in groupby(sorted(table, key=lambda s: (table[s], len(s), s)), table.get):
            nodes = list(run)
            facets = ((s, f) for s in nodes if len(s) > 1
                      for f in combinations(s, len(s) - 1) if table[f] == j)
            out.extend(Stratum(level=j, dim=len(piece[-1]) - 1, simplices=tuple(piece))
                       for piece in connected_components(nodes, facets))
        return tuple(out)

    def full_check(self) -> None:
        """Raise InputError unless every level is full in the complex."""
        bad = [j for j in range(self.dim) if not is_full(self.complex, self.levels[j])]
        if bad:
            raise InputError(
                f"filtration levels {bad} are not full subcomplexes; "
                "raise the spec's \"subdivisions\" option (2 always suffices)")


# the empty stratified complex: the branch locus of an unbranched cover
EMPTY_STRATIFIED = StratifiedComplex(EMPTY_COMPLEX)


def subdivide_with_subcomplexes(
    sc: StratifiedComplex, extras: Sequence[StratifiedComplex]
) -> tuple[StratifiedComplex, list[StratifiedComplex]]:
    """Subdivide ``sc`` once, carrying stratified subcomplexes along."""
    new, _b_id, by_top = barycentric_subdivide_complex(sc.complex)

    def subdivided(x: SimplicialComplex) -> SimplicialComplex:
        return SimplicialComplex(barycentric_subdivide_set(by_top, x.all_simplices()))

    def carry(x: StratifiedComplex, complex_: SimplicialComplex) -> StratifiedComplex:
        return StratifiedComplex(complex_, [subdivided(x.levels[j])
                                            for j in range(x.dim - 2, -1, -1)])

    return carry(sc, new), [carry(ex, subdivided(ex.complex)) for ex in extras]
