"""Rank-r local systems over the rationals as flat edge transports.

A local system assigns an invertible rational matrix to every oriented
edge of its base complex.  Every system the package builds is a cover's
transport table (oriented edge -> sheet permutation), as
:func:`covering.validate_monodromy` returns it, with an action applied,
one transport per distinct permutation: the permutation action gives the
pushforward, and the action on sum-zero vectors its kernel summand (the
pushforward is that kernel plus the constant system), which drives all
decomposition checks.  Nothing is checked again here.  The table is flat,
as the presentation has one relator per 2-simplex and the validation
evaluates each; its reverse entries are the inverses of the forward ones
by construction; and homology reads only the transports along ascending
edges, where a table that is not flat fails the d^2 = 0 check of
:func:`simplicial.homology_ranks` in degree 2.  A transport is r sparse
columns ``{row: value}`` with no zero entries, as :mod:`linalg` stores a
matrix, at most two nonzeros per column, never modified once built.
Twisted homology is :func:`simplicial.homology_ranks` on every simplex,
with the coefficients of a simplex at its minimal vertex.
"""
from __future__ import annotations

from collections import namedtuple
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


class LocalSystemQ(namedtuple("LocalSystemQ", "rank transports")):
    """Edge transports: ``transports[(u, v)]`` carries the rank-``rank``
    coefficients from u to v.  Built from a validated table, so not checked."""

    __slots__ = ()

    def transport(self, u: int, v: int) -> list[SparseCol]:
        try:
            return self.transports[(u, v)]
        except KeyError:
            raise InputError(f"no transport along {u}->{v}") from None


def _table_system(rank: int, table: dict[tuple[int, int], Perm],
                  action: Callable[[Perm], list[SparseCol]]) -> LocalSystemQ:
    made = {p: action(p) for p in set(table.values())}  # one transport per permutation
    return LocalSystemQ(rank, {e: made[p] for e, p in table.items()})


def pushforward_local_system(degree: int, table: dict[tuple[int, int], Perm]) -> LocalSystemQ:
    """Rank-d permutation system modeling the direct image of a d-cover.

    ``table`` is the transport table of a validated monodromy (oriented
    edge -> sheet permutation), as :func:`covering.validate_monodromy`
    returns it and a :class:`covering.BranchedCoverSpec` holds it.
    """
    return _table_system(degree, table, permutation_action)


def kernel_system(degree: int, table: dict[tuple[int, int], Perm]) -> LocalSystemQ:
    """Rank-(d-1) sum-zero summand of the pushforward, from the same table.

    The coordinate sum after the diagonal is d times the identity, so over
    the rationals the pushforward is this system plus the constant one.
    """
    return _table_system(degree - 1, table, sum_zero_action)


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
    square of the boundary vanish, and a system that is not flat fails
    the d^2 = 0 check in degree 2.  An edge of ``c`` with no transport is
    an :class:`InputError`.
    """
    return homology_ranks(c, lambda s: True, system.rank, system.transport, min)
