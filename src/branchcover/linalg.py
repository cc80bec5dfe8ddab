"""Exact linear algebra over the integers.

Everything here is exact and integral.  Boundary, permutation and
sum-zero matrices have ``int`` entries and nearly all their pivots are
+-1; a pivot of another value scales the rows it eliminates instead of
dividing the pivot row (fraction-free elimination, Bareiss, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*, Math.
Comp. 1968), and each scaled row is divided by the gcd of its entries to
keep them small.  Scaling a row by a nonzero integer leaves its zero
pattern as it is, so every pivot choice and every rank are those of
elimination over the rationals.  Ranks come from one sparse Gauss
elimination, :func:`_pivot_rows`, with a min-degree pivot rule (Dumas,
Saunders and Villard, *On efficient sparse integer matrix Smith normal
form computations*, 2001); :func:`rank_from_columns` counts its pivots.
The package needs ranks only: kernels, and the explicit
intersection-chain bases built from them, live in the test oracle
``tests/oracles.py``.

Conventions: a sparse matrix is a list of ``{index: value}`` dicts, its
columns (or, for :func:`_pivot_rows`, its rows).  The elimination works
in place and holds no copy, so a matrix handed to it is consumed: a
caller checks what it needs of a matrix before its rank is taken.  All
pivot choices are deterministic, so every routine is reproducible bit
for bit.
"""
from __future__ import annotations

import heapq
from collections.abc import Iterator
from math import gcd

Scalar = int


# ---------------------------------------------------------------------------
# sparse elimination


def _pivot_rows(rows: list[dict[int, Scalar]]
                ) -> Iterator[tuple[int, dict[int, Scalar]]]:
    """Sparse Gaussian elimination of a list of ``{col: value}`` rows, in place.

    The rows are consumed: zero entries are dropped, eliminated rows end
    empty and each target row is updated where it stands, so the
    elimination needs no copy of its input.  Min-degree pivot rule:
    always eliminate a row of minimal fill (smallest entry count, then
    smallest index), pivoting in its sparsest column (fewest live rows,
    then smallest id).  Simplicial boundary operators eliminate with very
    little fill under this rule.  Yields ``(pivot column, pivot row)`` in
    elimination order; each yielded row has no entry in an earlier pivot
    column, and keeps its pivot ``pv`` as it stands: no row is divided.

    A +-1 pivot clears a target row as ``row2 - (f * pv) * row``.  Any
    other pivot scales it, to ``pv * row2 - f * row``, and the result is
    divided by the gcd of its entries (its content).  Either way each row
    is a nonzero multiple of the row that elimination over the rationals
    leaves, with the same zero pattern, so every fill count, pivot choice
    and rank is the rational one.  Entries that are not ``int`` (a
    caller's exact rationals) are scaled alike and never divided.
    Deterministic.
    """
    cols: dict[int, list[int]] = {}   # column -> its live rows
    heap = []
    for r, row in enumerate(rows):
        if not all(row.values()):
            for c in [c for c, v in row.items() if not v]:
                del row[c]
        if row:
            heap.append((len(row), r))
            for c in row:
                cols.setdefault(c, []).append(r)
    heapq.heapify(heap)
    done = bytearray(len(rows))
    while heap:
        nnz, r = heapq.heappop(heap)
        row = rows[r]
        if done[r] or len(row) != nnz:
            continue  # stale entry; a fresh one is in the heap if the row lives
        pc = min(row, key=lambda c: (len(cols[c]), c))
        pv = row[pc]
        # detach the pivot row; every other row of its pivot column is eliminated below
        done[r] = 1
        targets = cols.pop(pc)
        targets.remove(r)
        for c in row:
            if c != pc:
                live = cols[c]
                live.remove(r)
                if not live:
                    del cols[c]
        unit = pv == 1 or pv == -1
        for r2 in sorted(targets):
            row2 = rows[r2]
            f = row2.pop(pc)
            if unit:
                f *= pv  # f / pv: a unit is its own inverse
            else:
                for c2 in row2:
                    row2[c2] *= pv
            for c2, v in row.items():
                if c2 == pc:
                    continue
                new = row2.get(c2, 0) - f * v
                if new:
                    if c2 not in row2:
                        cols.setdefault(c2, []).append(r2)
                    row2[c2] = new
                elif c2 in row2:
                    del row2[c2]
                    live = cols[c2]
                    live.remove(r2)
                    if not live:
                        del cols[c2]
            if row2:
                if not unit:
                    _divide_content(row2)
                heapq.heappush(heap, (len(row2), r2))
        yield pc, row


def _divide_content(row: dict[int, Scalar]) -> None:
    """Divide a nonzero row by the gcd of its entries, when they are all ``int``."""
    try:
        g = gcd(*row.values())
    except TypeError:  # a non-integer entry: the row keeps its scale
        return
    if g != 1:
        for c in row:
            row[c] //= g


def rank_from_columns(columns: list[dict[int, Scalar]]) -> int:
    """Rank of a sparse matrix given as a list of ``{row: value}`` columns.

    rank(A) = rank(A^T), so the columns are eliminated as the rows of the
    transpose, without building a transposed copy.  The columns are
    consumed: they are eliminated in place, and every column dict is left
    empty, each pivot column cleared as soon as it has been used.
    """
    rank = 0
    for _pc, row in _pivot_rows(columns):
        row.clear()
        rank += 1
    return rank

