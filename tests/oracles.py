"""Independent reference implementations used to derive expected values.

Everything here is deliberately written from scratch against the
definitions (dense Gauss over Fraction, brute-force face enumeration,
union-find orbits, intersection chains from explicit bases) and never
calls into the package's own elimination or homology code, so the two
sides of every assertion are independent.  ``rational_pivot_rows`` is
the package's sparse elimination as it was over the rationals, kept to
check that the integer elimination makes the same pivot choices.  ``test_oracles_are_independent``
checks the imports that this contract rules out.

The explicit-matrix adapter at the end builds the package's transports
(lists of sparse columns ``{row: value}``) and :class:`LocalSystemQ`
objects from dense rational matrices (any invertible transports, not
only permutations), so tests can feed the sparse machinery systems it
never builds itself.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from branchcover.errors import InputError
from branchcover.local_systems import LocalSystemQ
from branchcover.presentation import EdgePathPresentation, edge_path_presentation
from branchcover.simplicial import SimplicialComplex
from branchcover.stratified import StratifiedComplex


def dense_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    pr = 0
    for pc in range(nc):
        piv = None
        for i in range(pr, nr):
            if m[i][pc] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        pv = m[pr][pc]
        m[pr] = [x / pv for x in m[pr]]
        for i in range(nr):
            if i != pr and m[i][pc] != 0:
                f = m[i][pc]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        pr += 1
        rank += 1
        if pr == nr:
            break
    return rank


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def matmul(a, b):
    """Dense product; ``a`` is anything read as ``a[i][k]``, ``b`` a list of rows."""
    inner = len(b)
    ncols = len(b[0]) if inner else 0
    return [[sum((Fraction(a[i][k]) * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(ncols)] for i in range(len(a))]


def mat_equal(a, b):
    """Entrywise equality of two row-iterable matrices."""
    return [list(row) for row in a] == [list(row) for row in b]


def permutation_matrix(image):
    """Dense P with P e_s = e_{image[s]}."""
    n = len(image)
    return [[Fraction(1 if image[s] == t else 0) for s in range(n)] for t in range(n)]


def sum_zero_matrix(perm):
    """Dense action of a permutation on the basis u_i = e_i - e_{d-1} of the sum-zero space.

    A sum-zero vector w is sum_k w_k u_k over k < d-1, so column i is the
    first d-1 coordinates of P u_i = e_{perm[i]} - e_{perm[d-1]}.
    """
    d = len(perm)
    cols = []
    for i in range(d - 1):
        w = [0] * d
        w[perm[i]] += 1
        w[perm[d - 1]] -= 1
        cols.append(w[:d - 1])
    return [[Fraction(cols[j][i]) for j in range(d - 1)] for i in range(d - 1)]


def close_faces(top):
    """Face closure of a list of simplices, as a sorted list."""
    out = set()
    for s in top:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return sorted(out, key=lambda s: (len(s), s))


def brute_betti(simplices) -> tuple[int, ...]:
    """Betti numbers from scratch: dense boundary matrices + Gauss."""
    simps = sorted({tuple(s) for s in simplices}, key=lambda s: (len(s), s))
    if not simps:
        return ()
    dim = max(len(s) for s in simps) - 1
    by_dim = {d: [s for s in simps if len(s) - 1 == d] for d in range(dim + 1)}
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in range(dim + 1)}

    def boundary_matrix(j):
        rows = len(by_dim[j - 1])
        cols = len(by_dim[j])
        mat = [[0] * cols for _ in range(rows)]
        for ci, s in enumerate(by_dim[j]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                mat[index[j - 1][face]][ci] = (-1) ** i
        return mat

    ranks = [0] * (dim + 2)
    for j in range(1, dim + 1):
        ranks[j] = dense_rank(boundary_matrix(j))
    return tuple(len(by_dim[j]) - ranks[j] - ranks[j + 1] for j in range(dim + 1))


def euler(simplices) -> int:
    return sum((-1) ** (len(s) - 1) for s in {tuple(s) for s in simplices})


def brute_cofaces(simplices, sigma):
    """All simplices containing sigma, by brute-force enumeration."""
    sset = set(sigma)
    return [s for s in simplices if sset <= set(s)]


def brute_star(simplices, sigma):
    out = set()
    for s in brute_cofaces(simplices, sigma):
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return sorted(out, key=lambda s: (len(s), s))


def subdivide_set_all_chains(sub, b_id, old) -> set:
    """Simplices of a barycentric subdivision whose whole chain lies in ``old``.

    ``sub`` and ``b_id`` are as returned by ``barycentric_subdivide_complex``;
    the chain of a simplex of ``sub`` is read back from its vertex ids through
    the inverse of ``b_id``.
    """
    simplex_of = {i: s for s, i in b_id.items()}
    old_set = set(old)
    return {ns for ns in sub.simplices if all(simplex_of[v] in old_set for v in ns)}


def brute_link(simplices, sigma):
    sset = set(sigma)
    return [s for s in brute_star(simplices, sigma) if not sset & set(s)]


def bfs_components(vertices, edges):
    adj = {v: set() for v in vertices}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    comps = []
    for v0 in sorted(vertices):
        if v0 in seen:
            continue
        comp = []
        stack = [v0]
        seen.add(v0)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def bfs_strata(simplices, levels):
    """Strata from the definition, as (level, dim, simplices) triples.

    A simplex belongs to the smallest level holding it; a stratum is a
    connected piece of a level difference, two simplices adjacent when one
    is a face of the other.  Pieces come in the order of their least
    simplex and list their simplices in (dimension, vertices) order.
    """
    def order(s):
        return (len(s), s)

    level = {s: min(j for j, lvl in enumerate(levels) if s in lvl) for s in simplices}
    out = []
    for j in sorted(set(level.values())):
        group = sorted((s for s in level if level[s] == j), key=order)
        adj = {s: set() for s in group}
        for s in group:
            for k in range(1, len(s)):
                for face in combinations(s, k):
                    if face in adj:
                        adj[s].add(face)
                        adj[face].add(s)
        seen = set()
        for s0 in group:
            if s0 in seen:
                continue
            piece, stack = [], [s0]
            seen.add(s0)
            while stack:
                s = stack.pop()
                piece.append(s)
                stack.extend(t for t in adj[s] - seen)
                seen.update(adj[s])
            piece.sort(key=order)
            out.append((j, max(len(s) for s in piece) - 1, tuple(piece)))
    return out


def orbits_of(perms, d):
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in perms:
        for i in range(d):
            a, b = find(i), find(p[i])
            if a != b:
                parent[a] = b
    return sorted({find(i) for i in range(d)})


def riemann_hurwitz_chi(degree, chi_base, branch_points):
    """chi of a surface cover: d*chi(base) - sum of (d - fiber size)."""
    return degree * chi_base - sum(degree - f for f in branch_points)


def sheet_cover(spec) -> dict:
    """Lift -> base simplex over the complement of a cover spec, by search.

    Every sheet labelling (s_v) of a complement simplex with
    table[(u, v)][s_u] == s_v on all of its edges is a lift; sheet s of
    vertex v is numbered index(v) * d + s, with v indexed in the ascending
    vertex order of the complement.  No anchor vertex is chosen.
    """
    d = spec.degree
    index = {v: i for i, v in enumerate(spec.complement.vertices)}
    lifts = {}
    for sig in spec.complement.all_simplices():
        for labels in product(range(d), repeat=len(sig)):
            sheet = dict(zip(sig, labels))
            if all(spec.table[(u, v)][sheet[u]] == sheet[v] for u, v in combinations(sig, 2)):
                lifts[tuple(sorted(index[v] * d + sheet[v] for v in sig))] = sig
    return lifts


def fibers_by_projection(projection, taus) -> dict:
    """Each simplex of ``taus`` -> the ascending tuple of the lifts that
    ``projection`` maps onto it, by inverting the map."""
    lifts = {tau: [] for tau in taus}
    for s, tau in projection.items():
        if tau in lifts:
            lifts[tau].append(s)
    return {tau: tuple(sorted(over)) for tau, over in lifts.items()}


def pullback_stratification(cover, refined) -> StratifiedComplex:
    """The preimage filtration on the total complex of a completed cover:
    level j holds the simplices that ``cover.projection`` maps into level j
    of ``refined``, a stratification of the cover's base."""
    return StratifiedComplex(cover.total, [
        SimplicialComplex(s for s in cover.total.simplices
                          if cover.projection[s] in refined.levels[j].simplices)
        for j in range(refined.dim - 2, -1, -1)])


def suspension_ih_oracle(link_ih, cutoff):
    """IH of a suspension from the cone formula via Mayer-Vietoris.

    Writing c for the cutoff (link dim minus perversity at link dim + 1):
    degrees below c restrict isomorphically to each cone, so the glued
    rank is the link's; degree c dies into the cones; degrees above c are
    connecting-map images of the link one degree down.
    """
    l = len(link_ih) - 1
    out = []
    for i in range(l + 2):
        if i < cutoff:
            out.append(link_ih[i])
        elif i == cutoff:
            out.append(0)
        else:
            out.append(link_ih[i - 1])
    return tuple(out)


def dense_nullspace(rows, ncols: int) -> list[dict[int, Fraction]]:
    """Kernel basis of a dense matrix by reduced row echelon form over Fraction.

    Basis vector i is 1 at the i-th free column, 0 at the other free
    columns, and given as a sparse ``{index: value}`` dict.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        piv = next((i for i in range(pr, len(m)) if m[i][pc] != 0), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        pv = m[pr][pc]
        m[pr] = [x / pv for x in m[pr]]
        for i in range(len(m)):
            if i != pr and m[i][pc] != 0:
                f = m[i][pc]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        pivots.append(pc)
        pr += 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = {f: Fraction(1)}
        for i, pc in enumerate(pivots):
            if m[i][f] != 0:
                vec[pc] = -m[i][f]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# intersection chains with explicit bases


def _add_multiple(target: dict, f, source: dict) -> None:
    """target += f * source, dropping zeros."""
    for k, v in source.items():
        new = target.get(k, 0) + f * v
        if new:
            target[k] = new
        else:
            target.pop(k, None)


def reduce_columns(columns) -> tuple[int, list[dict]]:
    """Left-to-right column reduction over the rationals that tracks combinations.

    Each sparse column ``{key: value}`` (keys ordered) is reduced against
    the earlier nonzero reduced columns at its largest key until that key
    is new or the column is zero.  A column reduced to zero records its
    combination of the input columns.  Returns the number of nonzero
    reduced columns and those combinations, a kernel basis given as
    ``{column index: value}`` dicts.  Exact: a quotient of entries is a
    ``Fraction``, kept as an ``int`` when it is integral.
    """
    reduced: dict = {}  # largest key -> (reduced column, combination)
    kernel = []
    for i, col in enumerate(columns):
        col = {k: v for k, v in col.items() if v}
        combo = {i: 1}
        while col:
            lead = max(col)
            if lead not in reduced:
                reduced[lead] = (col, combo)
                break
            pcol, pcombo = reduced[lead]
            f = Fraction(col[lead]) / pcol[lead]
            f = f.numerator if f.denominator == 1 else f
            _add_multiple(col, -f, pcol)
            _add_multiple(combo, -f, pcombo)
        else:
            kernel.append(combo)
    return len(reduced), kernel


def rational_pivot_rows(rows):
    """The package's sparse elimination as it was over the rationals, kept as a reference.

    The same min-degree rule as ``linalg._pivot_rows``: eliminate a row of
    fewest entries (then smallest index), pivoting in its column of fewest
    live rows (then smallest id).  Each pivot row is divided by its pivot
    through ``Fraction`` and cleared from the other rows of its column as
    ``row2 - f * row``.  Works in place; yields ``(pivot column, pivot
    row)`` with the pivot row's pivot equal to 1.
    """
    cols: dict[int, list[int]] = {}
    heap = []
    for r, row in enumerate(rows):
        for c in [c for c, v in row.items() if not v]:
            del row[c]
        if row:
            heap.append((len(row), r))
            for c in row:
                cols.setdefault(c, []).append(r)
    heapq.heapify(heap)
    done = set()
    while heap:
        nnz, r = heapq.heappop(heap)
        row = rows[r]
        if r in done or len(row) != nnz:
            continue
        pc = min(row, key=lambda c: (len(cols[c]), c))
        pv = row[pc]
        done.add(r)
        targets = cols.pop(pc)
        targets.remove(r)
        for c in row:
            if c != pc:
                cols[c].remove(r)
                if not cols[c]:
                    del cols[c]
        for c in row:
            row[c] = Fraction(row[c]) / pv
        for r2 in sorted(targets):
            row2 = rows[r2]
            f = row2.pop(pc)
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
                    cols[c2].remove(r2)
                    if not cols[c2]:
                        del cols[c2]
            if row2:
                heapq.heappush(heap, (len(row2), r2))
        yield pc, row


def ic_complex(sc, p, coeff=None):
    """Intersection chains of a stratified complex with full levels, by definition.

    A j-simplex s of an m-dimensional complex is allowable when, for
    every k >= 2, it has at most j - k + p(k) + 1 vertices in level
    X_{m-k} (fullness makes s meet X_{m-k} in the face those vertices
    span).  A chain is ``{(simplex, t): value}``: coefficient t of the
    local system at the first vertex of the simplex off the singular set,
    carried to a face's vertex by dense reads (:func:`dense`) of ``coeff.transport``.
    IC_j is the kernel of the boundary rows outside the allowable
    (j-1)-simplices.  Returns (allowable simplices by degree, IC_j bases
    by degree, the boundary as a function on chains).
    """
    m = sc.dim
    r = coeff.rank if coeff is not None else 1
    levels = [set(sc.level(j).vertices) for j in range(m + 1)]
    singular = levels[m - 2] if m >= 2 else set()

    def is_allowable(s):
        j = len(s) - 1
        for k in range(2, m + 1):
            count = len(levels[m - k].intersection(s))
            if count and count - 1 > j - k + p[k]:
                return False
        return True

    def anchor(s):
        return next(v for v in s if v not in singular)

    def boundary(chain: dict) -> dict:
        out: dict = {}
        for (s, t), c in chain.items():
            if len(s) == 1:
                continue
            a = anchor(s)
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                b = anchor(face)
                if coeff is None or a == b:
                    image = {(face, t): 1}
                else:
                    rows = dense(coeff.transport(a, b))
                    image = {(face, u): rows[u][t] for u in range(r)}
                _add_multiple(out, c if i % 2 == 0 else -c, image)
        return out

    allowable = [[s for s in sc.complex.simplices_of_dim(j) if is_allowable(s)]
                 for j in range(m + 1)]
    bases = []
    for j in range(m + 1):
        keys = [(s, t) for s in allowable[j] for t in range(r)]
        inside = set(allowable[j - 1]) if j else set()
        outside = [{key: v for key, v in boundary({gen: 1}).items() if key[0] not in inside}
                   for gen in keys]
        _count, kernel = reduce_columns(outside)
        bases.append([{keys[i]: v for i, v in combo.items()} for combo in kernel])
    return allowable, bases, boundary


def ic_closed(sc, p, coeff=None) -> bool:
    """The boundary of each IC_j basis chain is allowable and has zero boundary."""
    allowable, bases, boundary = ic_complex(sc, p, coeff)
    for j in range(1, len(bases)):
        inside = set(allowable[j - 1])
        for x in bases[j]:
            dx = boundary(x)
            if not {s for s, _t in dx} <= inside or boundary(dx):
                return False
    return True


def ic_betti(sc, p, coeff=None) -> tuple[int, ...]:
    """ih_j = dim IC_j - rank of the boundary on IC_j - rank on IC_{j+1}."""
    _allowable, bases, boundary = ic_complex(sc, p, coeff)
    ranks = [reduce_columns([boundary(x) for x in basis])[0] for basis in bases] + [0]
    return tuple(len(bases[j]) - ranks[j] - ranks[j + 1] for j in range(len(bases)))


# ---------------------------------------------------------------------------
# explicit-matrix adapter


class RelatorViolatedMatrix(InputError):
    """A matrix assignment does not satisfy a relator of the presentation."""


def matrix_inverse(a) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan; raises ValueError if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def dense(t: list[dict]) -> list[list]:
    """The rows of a transport, read off its sparse columns."""
    n = len(t)
    return [[t[j].get(i, 0) for j in range(n)] for i in range(n)]


def transport_from_rows(rows) -> list[dict]:
    """A transport, its sparse columns, from a dense square matrix given as rows.

    Raises ValueError if the matrix is not square.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"matrix with {n} rows is not square")
    return [{i: Fraction(row[j]) for i, row in enumerate(rows) if row[j]} for j in range(n)]


def transport_inverse(t: list[dict]) -> list[dict]:
    """Exact inverse; raises ValueError if singular."""
    return transport_from_rows(matrix_inverse(dense(t)))


def local_system_from_forward_edges(base, rank: int, forward) -> LocalSystemQ:
    """Forward transports as dense rows; reverses are inverses."""
    transports = {}
    for (u, v) in base.simplices_of_dim(1):
        m = transports[(u, v)] = transport_from_rows(forward[(u, v)])
        transports[(v, u)] = transport_inverse(m)
    return LocalSystemQ(rank, transports)


@dataclass(frozen=True)
class RepresentationQ:
    """Invertible matrix assignment on the generators of a presentation."""

    presentation: EdgePathPresentation
    rank: int
    matrices: tuple

    def validate(self) -> None:
        if len(self.matrices) != len(self.presentation.generators):
            raise RelatorViolatedMatrix(
                f"{len(self.presentation.generators)} generators but "
                f"{len(self.matrices)} matrices")
        inverses = [matrix_inverse(m) for m in self.matrices]
        ident = identity(self.rank)
        for i, word in enumerate(self.presentation.relators):
            acc = ident
            for (gi, sign) in word:
                acc = matmul(self.matrices[gi] if sign > 0 else inverses[gi], acc)
            if not mat_equal(acc, ident):
                raise RelatorViolatedMatrix(f"relator {i} does not evaluate to the identity")


def from_representation(rep: RepresentationQ) -> LocalSystemQ:
    """Tree edges transport by the identity, generators by their matrices."""
    rep.validate()
    pres = rep.presentation
    ident = identity(rep.rank)
    forward = {e: ident if e in pres.tree_edges else rep.matrices[pres.gen_index[e]]
               for e in pres.complex.simplices_of_dim(1)}
    return local_system_from_forward_edges(pres.complex, rep.rank, forward)


def monodromy_matrices(base, system: LocalSystemQ) -> list[list[dict]]:
    """Transport around each generator loop of ``base``, at the basepoint."""
    if len(bfs_components(base.vertices, base.simplices_of_dim(1))) > 1:
        raise InputError("base of the local system is not connected")
    if not base.vertices:
        return []
    pres = edge_path_presentation(base, min(base.vertices))
    mats = []
    for (u, v) in pres.generators:
        path = pres.tree_path(u) + (v,) + tuple(reversed(pres.tree_path(v)))[1:]
        acc = identity(system.rank)
        for a, b in zip(path, path[1:]):
            acc = matmul(dense(system.transport(a, b)), acc)
        mats.append(transport_from_rows(acc))
    return mats


def global_sections(base, system: LocalSystemQ) -> tuple[int, list[dict[int, Fraction]]]:
    """Dimension and basis of the joint fixed space of the monodromy on ``base``."""
    r = system.rank
    stacked = [[x - (1 if i == j else 0) for j, x in enumerate(row)]
               for m in monodromy_matrices(base, system) for i, row in enumerate(dense(m))]
    basis = dense_nullspace(stacked, r)
    return len(basis), basis


# the four maps of the trace splitting of Q^d = constant + sum-zero kernel


def unit_map(d: int) -> list[list[Fraction]]:
    """d x 1, the all-ones column (eta)."""
    return [[Fraction(1)] for _ in range(d)]


def trace_map(d: int) -> list[list[Fraction]]:
    """1 x d, the coordinate sum (epsilon)."""
    return [[Fraction(1)] * d]


def kernel_inclusion(d: int) -> list[list[Fraction]]:
    """d x (d-1), columns e_i - e_{d-1}."""
    return [[Fraction((1 if j == i else 0) - (1 if j == d - 1 else 0)) for i in range(d - 1)]
            for j in range(d)]


def kernel_projection(d: int) -> list[list[Fraction]]:
    """(d-1) x d, v -> coordinates of v - mean in the basis e_i - e_{d-1}."""
    return [[Fraction(1 if i == j else 0) - Fraction(1, d) for j in range(d)]
            for i in range(d - 1)]
