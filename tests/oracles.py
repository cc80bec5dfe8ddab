"""Independent reference implementations used to derive expected values.

Everything here is deliberately written from scratch against the
definitions (dense Gauss over Fraction, brute-force face enumeration,
union-find orbits) and never calls into the package's own elimination or
homology code, so the two sides of every assertion are independent.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations


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
