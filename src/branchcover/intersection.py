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

from collections import namedtuple

from .errors import InputError
from .local_systems import LocalSystemQ
from .simplicial import Simplex, homology_ranks
from .stratified import StratifiedComplex


class Perversity(namedtuple("Perversity", "top_dim values")):
    """Goresky-MacPherson perversity: p(2) = 0 and unit steps.

    ``top_dim`` is an ``int`` and ``values`` a ``tuple[int, ...]`` holding
    p(2), ..., p(top_dim); ``p[k]`` is p(k).
    """

    __slots__ = ()

    def __new__(cls, top_dim: int, values: tuple[int, ...]):
        if top_dim < 2:
            raise InputError("a perversity needs dimension at least 2")
        if len(values) != top_dim - 1:
            raise InputError(f"need values p(2)..p({top_dim}), got {len(values)}")
        if values[0] != 0:
            raise InputError("p(2) must be 0")
        for a, b in zip(values, values[1:]):
            if b - a not in (0, 1):
                raise InputError("perversity steps must be 0 or 1")
        return super().__new__(cls, top_dim, values)

    def __getitem__(self, k: int) -> int:
        if not 2 <= k <= self.top_dim:
            raise InputError(f"perversity value p({k}) undefined")
        return self.values[k - 2]


def zero_perversity(m: int) -> Perversity:
    return Perversity(m, tuple(0 for _ in range(2, m + 1)))


def lower_middle(m: int) -> Perversity:
    return Perversity(m, tuple((k - 2) // 2 for k in range(2, m + 1)))


def upper_middle(m: int) -> Perversity:
    return Perversity(m, tuple((k - 1) // 2 for k in range(2, m + 1)))


def top_perversity(m: int) -> Perversity:
    return Perversity(m, tuple(k - 2 for k in range(2, m + 1)))


# the perversities a spec file or the command line may name, in the order listed
PERVERSITIES = {"lower": lower_middle, "upper": upper_middle,
                "zero": zero_perversity, "top": top_perversity}


def perversity_by_name(name: str, m: int) -> Perversity:
    if name not in PERVERSITIES:
        raise InputError(f"unknown perversity name {name!r}")
    return PERVERSITIES[name](max(m, 2))


# ---------------------------------------------------------------------------
# allowability


def allowable_simplices(sc: StratifiedComplex, p: Perversity | None) -> set[Simplex]:
    """The simplices of ``sc`` allowable for ``p``, after checking that the
    levels are full and that ``p`` is defined up to the dimension."""
    m = sc.dim
    sc.full_check()
    if m >= 2:
        if p is None:
            raise InputError("a perversity is required in dimension >= 2")
        if p.top_dim < m:
            raise InputError(f"perversity only defined up to {p.top_dim}, need {m}")
    level_verts = [set(sc.level(j).vertices) for j in range(m + 1)]

    def allowable(s: Simplex) -> bool:
        js = len(s) - 1
        for k in range(2, m + 1):
            count = len(level_verts[m - k].intersection(s))
            if count and count - 1 > js - k + p[k]:
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
    of a simplex at its first vertex off the singular set; it also checks
    that the boundary keeps the intersection chains.  The test oracle
    ``oracles.ic_betti`` computes the same ranks from explicit bases of the
    IC_j, written from the definitions alone.
    """
    singular = set(sc.singular_set.vertices)

    def anchor(s: Simplex) -> int:
        for v in s:
            if v not in singular:
                return v
        raise InputError(
            f"simplex {list(s)} of an allowable chain has no vertex off the singular "
            "set; subdivide the base")

    if coeff is None:
        return homology_ranks(sc.complex, allowed.__contains__)
    return homology_ranks(sc.complex, allowed.__contains__, coeff.rank, coeff.transport, anchor)
