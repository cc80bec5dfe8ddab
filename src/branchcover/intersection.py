"""Perversities, allowable chains and intersection homology.

A chain is allowable when each of its simplices meets every filtration
level in controlled dimension; the intersection complex in degree j is
the space of allowable j-chains whose boundary is again allowable.
Fullness of the filtration levels makes the intersection of a simplex
with a level the face spanned by its vertices there, so allowability is
a vertex count.  :func:`allowable_simplices` returns the allowable
simplices and :func:`ih_betti` hands them to
:func:`simplicial.homology_ranks`, the one homology routine of the
package, which takes the ranks from the boundary of the allowable chains
alone.  The reference they are tested against, the complex with explicit
bases, is the independent oracle ``oracles.ic_betti`` in
``tests/oracles.py``.
"""
from __future__ import annotations

from collections.abc import Callable

from .errors import InputError
from .local_systems import LocalSystemQ
from .simplicial import Simplex, homology_ranks
from .stratified import StratifiedComplex

# the Goresky-MacPherson perversities a spec file or the command line may
# name, in the order listed, each its formula k -> p(k): p(2) = 0 and every
# step is 0 or 1 (tests/test_intersection.py checks both)
PERVERSITIES: dict[str, Callable[[int], int]] = {
    "lower": lambda k: (k - 2) // 2,
    "upper": lambda k: (k - 1) // 2,
    "zero": lambda k: 0,
    "top": lambda k: k - 2,
}


def perversity_by_name(name: str) -> Callable[[int], int]:
    if name not in PERVERSITIES:
        raise InputError(f"unknown perversity name {name!r}")
    return PERVERSITIES[name]


# ---------------------------------------------------------------------------
# allowability


def allowable_simplices(sc: StratifiedComplex, p: Callable[[int], int]) -> set[Simplex]:
    """The simplices of ``sc`` allowable for ``p``, after checking that the
    levels are full."""
    m = sc.dim
    sc.full_check()
    level_verts = [set(sc.level(j).vertices) for j in range(m + 1)]

    def allowable(s: Simplex) -> bool:
        js = len(s) - 1
        for k in range(2, m + 1):
            count = len(level_verts[m - k].intersection(s))
            if count and count - 1 > js - k + p(k):
                return False
        return True

    return set(filter(allowable, sc.complex.simplices))


# ---------------------------------------------------------------------------
# intersection homology


def ih_betti(sc: StratifiedComplex, *, allowed: set[Simplex],
             coeff: LocalSystemQ | None = None) -> tuple[int, ...]:
    """Intersection homology ranks in degrees 0..dim.

    :func:`simplicial.homology_ranks` on ``allowed``, the set that
    :func:`allowable_simplices` returns for ``sc``, with the coefficients
    ``coeff`` off its singular set; it also checks that the boundary keeps
    the intersection chains.  The test oracle ``oracles.ic_betti`` computes the same ranks
    from explicit bases of the IC_j, written from the definitions alone.
    """
    return homology_ranks(sc.complex, allowed.__contains__, coeff,
                          frozenset(sc.singular_set.vertices))
