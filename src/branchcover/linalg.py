"""Exact linear algebra over the rationals, integers first.

Everything here is exact: entries are ``int`` or ``fractions.Fraction``
and stay as given.  Boundary, permutation and sum-zero matrices are
integral and nearly all their pivots are +-1, so elimination stays in
``int`` until a pivot of another value divides, through ``Fraction``.
Ranks come from one sparse Gauss elimination, :func:`_pivot_rows`, with
a min-degree pivot rule (Dumas, Saunders and Villard, *On efficient
sparse integer matrix Smith normal form computations*, 2001);
:func:`rank_from_columns` counts its pivots.  The package needs ranks
only: kernels, and the explicit intersection-chain bases built from
them, live in the test oracle ``tests/oracles.py``.

Conventions: sparse matrices are ``{row: {col: value}}`` or lists of
``{row: value}`` column dicts.  All pivot choices are deterministic, so
every routine is reproducible bit for bit.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterator, Sequence

Scalar = int | Fraction


# ---------------------------------------------------------------------------
# sparse elimination


def _pivot_rows(rows: dict[int, dict[int, Scalar]]
                ) -> Iterator[tuple[int, dict[int, Scalar]]]:
    """Sparse Gaussian elimination of ``{row: {col: value}}``, one pivot at a time.

    Min-degree pivot rule: always eliminate a row of minimal fill (smallest
    entry count, then smallest id), pivoting in its sparsest column (fewest
    live rows, then smallest id).  Simplicial boundary operators eliminate
    with very little fill under this rule.  Yields ``(pivot column, pivot
    row divided by its pivot)`` in elimination order; each yielded row has
    no entry in an earlier pivot column.  Entries keep their type: a +-1
    pivot row is yielded as is or negated, and only another pivot divides,
    through ``Fraction``.  Exact arithmetic leaves the same zero pattern
    whatever the entry types, so the pivot choices never depend on them.
    Deterministic.
    """
    work: dict[int, dict[int, Scalar]] = {}
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        filtered = {c: v for c, v in row.items() if v}
        if filtered:
            work[r] = filtered
            for c in filtered:
                cols.setdefault(c, set()).add(r)

    heap = [(len(row), r) for r, row in work.items()]
    heapq.heapify(heap)
    while heap:
        nnz, r = heapq.heappop(heap)
        row = work.get(r)
        if row is None or len(row) != nnz:
            continue  # stale entry; a fresh one is in the heap if the row lives
        pc = min(row, key=lambda c: (len(cols[c]), c))
        pv = row[pc]
        # detach the pivot row
        for c in row:
            cols[c].discard(r)
            if not cols[c]:
                del cols[c]
        del work[r]
        if pv == 1:
            norm = row
        elif pv == -1:
            norm = {c: -v for c, v in row.items()}
        else:
            norm = {c: Fraction(v) / pv for c, v in row.items()}
        for r2 in sorted(cols.get(pc, ())):
            row2 = work[r2]
            f = row2[pc]
            for c2, v in norm.items():
                if c2 == pc:
                    del row2[pc]
                    cols[pc].discard(r2)
                    continue
                new = row2.get(c2, 0) - f * v
                if new:
                    if c2 not in row2:
                        cols.setdefault(c2, set()).add(r2)
                    row2[c2] = new
                elif c2 in row2:
                    del row2[c2]
                    cols[c2].discard(r2)
                    if not cols[c2]:
                        del cols[c2]
            if row2:
                heapq.heappush(heap, (len(row2), r2))
            else:
                del work[r2]
        if pc in cols and not cols[pc]:
            del cols[pc]
        yield pc, norm


def rank_from_columns(columns: Sequence[dict[int, Scalar]]) -> int:
    """Rank of a sparse matrix given as a list of ``{row: value}`` columns.

    rank(A) = rank(A^T), so the columns are eliminated as the rows of the
    transpose, without building a transposed copy.
    """
    return sum(1 for _ in _pivot_rows(dict(enumerate(columns))))

