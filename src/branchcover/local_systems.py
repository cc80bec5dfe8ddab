"""Rank-r local systems over the rationals as flat edge transports.

A local system assigns an invertible rational matrix to every oriented
edge of its base complex, with inverse transports on reversed edges and
flatness over every 2-simplex.  Every system the package builds is a
cover's transport table (oriented edge -> sheet permutation) with an
action applied to it, one transport per distinct permutation: the
permutation action gives the pushforward, and the action on sum-zero
vectors its kernel summand (the pushforward is that kernel of the
coordinate sum plus the constant system), which drives all decomposition
checks.  The sum-zero action is faithful for d >= 2, so both fail their
inverse and flatness checks on the same tables.  Either action has at
most two nonzeros per column, so a transport is a matrix as :mod:`linalg`
stores one, r sparse columns ``{row: value}`` with no zero entries, and
is never modified once built.  Twisted
homology is :func:`simplicial.homology_ranks` on every simplex, with the
coefficients of a simplex at its minimal vertex.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

from .errors import InputError
from . import linalg
from .covering import Perm
from .simplicial import SimplicialComplex, SparseCol, homology_ranks


def permutation_action(perm: Sequence[int]) -> list[SparseCol]:
    """The permutation matrix P with P e_s = e_{perm[s]}: column s is {perm[s]: 1}."""
    return [{t: 1} for t in perm]


def sum_zero_action(perm: Perm) -> list[SparseCol]:
    """Action of a permutation on the sum-zero basis e_i - e_{d-1}.

    Column i is e_{perm[i]} - e_{perm[d-1]} in that basis: +1 at row
    perm[i] and -1 at row perm[d-1], each dropped when it is d - 1.
    """
    d = len(perm)
    last = perm[d - 1]
    cols: list[SparseCol] = [{} for _ in range(d - 1)]
    for i, col in enumerate(cols):
        if perm[i] < d - 1:
            col[perm[i]] = 1
        if last < d - 1:
            col[last] = -1
    return cols


def _product(a: list[SparseCol], b: list[SparseCol]) -> list[SparseCol]:
    """The product a . b of two transports: ``b`` acts first."""
    out = []
    for col in b:
        acc: SparseCol = {}
        for k, y in col.items():
            for i, x in a[k].items():
                acc[i] = acc.get(i, 0) + x * y
        out.append({i: v for i, v in acc.items() if v})
    return out


class LocalSystemQ:
    """Flat invertible edge-transport data over a base complex."""

    __slots__ = ("base", "rank", "transports")

    def __init__(self, base: SimplicialComplex, rank: int,
                 transports: dict[tuple[int, int], list[SparseCol]]):
        if rank < 0:
            raise InputError("rank must be non-negative")
        edges = base.simplices_of_dim(1)
        for (u, v) in edges:
            if (u, v) not in transports or (v, u) not in transports:
                raise InputError(f"edge {u}->{v} has no transport")
        # a system built from a table shares one transport per permutation, so
        # each distinct pair and triple of transport objects is checked once,
        # the first time it is met: a failure still names the first edge or
        # 2-simplex, in order, on which the check fails
        ident = permutation_action(range(rank))
        checked = set()
        for (u, v) in edges:
            f, b = transports[(u, v)], transports[(v, u)]
            key = (id(f), id(b))
            if key in checked:
                continue
            checked.add(key)
            if len(f) != rank or len(b) != rank:
                raise InputError(f"transport of {u}->{v} is not {rank}x{rank}")
            if _product(b, f) != ident:
                raise InputError(f"transport of {v}->{u} is not inverse to {u}->{v}")
        checked.clear()
        for (a, b, c) in base.simplices_of_dim(2):
            ab, bc, ac = transports[(a, b)], transports[(b, c)], transports[(a, c)]
            key = (id(ab), id(bc), id(ac))
            if key in checked:
                continue
            checked.add(key)
            if _product(bc, ab) != ac:
                raise InputError(f"flatness fails on 2-simplex {[a, b, c]}")
        self.base = base
        self.rank = rank
        self.transports = transports

    def transport(self, u: int, v: int) -> list[SparseCol]:
        try:
            return self.transports[(u, v)]
        except KeyError:
            raise InputError(f"no transport along {u}->{v}") from None


def _table_system(base: SimplicialComplex, rank: int, table: dict[tuple[int, int], Perm],
                  action: Callable[[Perm], list[SparseCol]]) -> LocalSystemQ:
    made = {p: action(p) for p in set(table.values())}  # one transport per permutation
    return LocalSystemQ(base, rank, {e: made[p] for e, p in table.items()})


def pushforward_local_system(base: SimplicialComplex, degree: int,
                             table: dict[tuple[int, int], Perm]) -> LocalSystemQ:
    """Rank-d permutation system modeling the direct image of a d-cover.

    ``table`` is the transport table of a validated monodromy on ``base``
    (oriented edge -> sheet permutation), as :func:`covering.validate_monodromy`
    returns it and a :class:`covering.BranchedCoverSpec` holds it.
    """
    return _table_system(base, degree, table, permutation_action)


def kernel_system(base: SimplicialComplex, degree: int,
                  table: dict[tuple[int, int], Perm]) -> LocalSystemQ:
    """Rank-(d-1) sum-zero summand of the pushforward, from the same table.

    The coordinate sum after the diagonal is d times the identity, so over
    the rationals the pushforward is this system plus the constant one.
    """
    return _table_system(base, degree - 1, table, sum_zero_action)


# ---------------------------------------------------------------------------
# invariants and twisted homology


def invariant_dimension(matrices: Sequence[list[SparseCol]], rank: int) -> int:
    """Dimension of the joint fixed space of a family of transports.

    The fixed space is the kernel of the stacked M - I blocks, so its
    dimension is ``rank`` minus their rank.  Column j of block b is column
    j of M shifted by b * rank, less 1 on the diagonal, read off the sparse
    columns.
    """
    columns = []
    for j in range(rank):
        col: SparseCol = {}
        for b, m in enumerate(matrices):
            col.update((b * rank + i, v) for i, v in m[j].items())
            diag = b * rank + j
            col[diag] = col.get(diag, 0) - 1
            if not col[diag]:
                del col[diag]
        columns.append(col)
    return rank - linalg.rank_from_columns(columns)


def twisted_betti(c: SimplicialComplex, system: LocalSystemQ) -> tuple[int, ...]:
    """Homology ranks with coefficients attached at the minimal vertex of each simplex.

    The boundary transports coefficients along the edge joining the
    minimal vertices, which lies inside the simplex; flatness makes the
    square of the boundary vanish.
    """
    for e in c.simplices_of_dim(1):
        if e not in system.transports:
            raise InputError(f"local system has no transport for edge {list(e)}")
    return homology_ranks(c, lambda s: True, system.rank, system.transport, min)
