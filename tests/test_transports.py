"""Sparse transports: their matrices, checks, and differential tests.

A transport is a list of sparse columns; the tests read it as a dense
matrix through ``oracles.dense``.  The differential tests build every system twice:
from the transport table (``pushforward_local_system``, ``kernel_system``)
and through the dense adapter in ``oracles`` (``from_representation`` of
explicit permutation and sum-zero matrices written out there), and
require the same twisted and intersection Betti numbers from both.  The
two table builders also reject the same corrupted tables.
"""
import re

import pytest
from hypothesis import given, settings, strategies as st

from branchcover.covering import (
    BranchedCoverSpec,
    MonodromyRep,
    fox_complete,
    refine_stratification,
)
from branchcover.errors import InputError
from branchcover.fixtures import circle_cover_data, hexagon, sphere_branched_data
from branchcover.intersection import ih_betti, lower_middle
from branchcover import local_systems
from branchcover.local_systems import (
    LocalSystemQ,
    _product,
    kernel_system,
    permutation_action,
    pushforward_local_system,
    sum_zero_action,
    twisted_betti,
)
from branchcover.simplicial import betti_numbers

from complexes import annulus, full_simplex, kernel, pushforward
from oracles import (
    RepresentationQ,
    brute_betti,
    dense,
    from_representation,
    identity,
    mat_equal,
    matmul,
    permutation_matrix,
    sum_zero_matrix,
    transport_from_rows,
    transport_inverse,
)

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# transports as matrices


def test_transport_permutation_convention():
    # P e_s = e_{image[s]}: column s holds a single 1 in row image[s]
    p = permutation_action((1, 2, 0))
    assert len(p) == 3
    assert [row[0] for row in dense(p)] == [0, 1, 0]
    assert mat_equal(dense(p), permutation_matrix((1, 2, 0)))
    # q acts first in the product p . q
    q = permutation_action((2, 0, 1))
    assert _product(p, q) == permutation_action((0, 1, 2))


def square(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n)


small_matrices = st.integers(1, 5).flatmap(square)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_sparse_composition_matches_dense_product(pair):
    a, b = pair
    prod = _product(transport_from_rows(a), transport_from_rows(b))
    assert mat_equal(dense(prod), matmul(a, b))
    assert prod == transport_from_rows(matmul(a, b))


@SETTINGS
@given(st.integers(1, 9).flatmap(lambda d: st.permutations(range(d))))
def test_sum_zero_action_matches_dense_definition(perm):
    perm = tuple(perm)
    t = sum_zero_action(perm)
    assert mat_equal(dense(t), sum_zero_matrix(perm))
    assert all(0 < len(col) <= 2 for col in t)
    inv = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    assert _product(sum_zero_action(inv), t) == permutation_action(range(len(perm) - 1))


@SETTINGS
@given(small_matrices)
def test_dense_adapter_inverse(rows):
    t = transport_from_rows(rows)
    try:
        inv = transport_inverse(t)
    except ValueError:
        return  # singular
    assert mat_equal(dense(_product(inv, t)), identity(len(rows)))


# ---------------------------------------------------------------------------
# every LocalSystemQ is checked: inverse and flatness


def _both_ways(c, t):
    return {e: t for (u, v) in c.simplices_of_dim(1) for e in ((u, v), (v, u))}


def test_sparse_broken_triangle_raises():
    c = full_simplex(2)
    transports = _both_ways(c, permutation_action((0, 1)))
    LocalSystemQ(c, 2, dict(transports))  # the identity system is flat
    swap = permutation_action((1, 0))
    transports[(0, 1)] = transports[(1, 0)] = swap  # inverse to itself, not flat
    with pytest.raises(InputError, match=re.escape("flatness fails on 2-simplex [0, 1, 2]")):
        LocalSystemQ(c, 2, transports)


def test_sparse_wrong_reverse_raises():
    c = hexagon()
    transports = _both_ways(c, permutation_action((0, 1, 2)))
    transports[(0, 1)] = transports[(1, 0)] = permutation_action((1, 2, 0))
    with pytest.raises(InputError, match="transport of 1->0 is not inverse to 0->1"):
        LocalSystemQ(c, 3, transports)


def test_sparse_wrong_size_raises():
    c = hexagon()
    transports = _both_ways(c, permutation_action((0, 1)))
    transports[(0, 1)] = permutation_action((0, 1, 2))
    with pytest.raises(InputError, match="transport of 0->1 is not 2x2"):
        LocalSystemQ(c, 2, transports)


def _gauge_table(c, h):
    """The flat table carrying h[v] . h[u]^-1 along every oriented edge u->v."""
    d = len(h[min(c.vertices)])
    return {(a, b): tuple(h[b][h[a].index(s)] for s in range(d))
            for (u, v) in c.simplices_of_dim(1) for a, b in ((u, v), (v, u))}


@st.composite
def corrupted_tables(draw):
    """A flat degree-d table over the annulus, some entries replaced or dropped.

    An edge is replaced one way only, which breaks its inverse, or both
    ways by a permutation and its inverse, which may break flatness.
    """
    c = annulus()
    d = draw(st.integers(1, 4))
    table = _gauge_table(c, {v: tuple(draw(st.permutations(range(d)))) for v in c.vertices})
    for (u, v) in draw(st.lists(st.sampled_from(sorted(table)), max_size=3)):
        p = tuple(draw(st.permutations(range(d))))
        how = draw(st.sampled_from(("both ways", "one way", "dropped")))
        if how == "dropped":
            table.pop((u, v), None)
            continue
        table[(u, v)] = p
        if how == "both ways":
            table[(v, u)] = tuple(sorted(range(d), key=p.__getitem__))
    return c, d, table


def _verdict(build, c, d, table):
    try:
        build(c, d, table)
    except InputError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(corrupted_tables())
def test_kernel_and_pushforward_reject_the_same_tables(data):
    # the sum-zero action is faithful for d >= 2, so the kernel's inverse and
    # flatness checks keep the pushforward's verdict, message included
    assert _verdict(kernel_system, *data) == _verdict(pushforward_local_system, *data)


def test_corrupted_tables_reach_every_verdict():
    c = annulus()
    table = _gauge_table(c, {v: tuple((v + s) % 3 for s in range(3)) for v in c.vertices})
    (u, v), (a, b, w) = c.simplices_of_dim(1)[0], c.simplices_of_dim(2)[0]
    swap = (1, 0, 2)  # never a gauge value here: those are all cyclic shifts
    verdicts = {None: table,
                f"edge {u}->{v} has no transport": {e: p for e, p in table.items() if e != (u, v)},
                f"transport of {v}->{u} is not inverse to {u}->{v}":
                    {**table, (u, v): (1, 2, 0), (v, u): (1, 2, 0)},
                f"flatness fails on 2-simplex {[a, b, w]}": {**table, (a, b): swap, (b, a): swap}}
    for message, bad in verdicts.items():
        for build in (pushforward_local_system, kernel_system):
            assert _verdict(build, c, 3, bad) == message


def test_checks_multiply_each_distinct_pair_and_triple_once(monkeypatch):
    """A table system shares one transport per permutation, so its inverse and
    flatness checks take one product per distinct (forward, backward) pair and
    one per distinct flatness triple, not one per edge and 2-simplex."""
    y, r, rep, pres = sphere_branched_data(3, 3)
    spec = BranchedCoverSpec(y, r, rep, pres)
    base = spec.complement  # 48 edges and 24 2-simplices, 3 distinct pairs, 5 triples
    products = []
    real = local_systems._product

    def spy(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(local_systems, "_product", spy)
    for build in (pushforward_local_system, kernel_system):
        products.clear()
        t = build(base, spec.degree, spec.table).transports
        pairs = {(id(t[(u, v)]), id(t[(v, u)])) for u, v in base.simplices_of_dim(1)}
        triples = {(id(t[(a, b)]), id(t[(b, c)]), id(t[(a, c)]))
                   for a, b, c in base.simplices_of_dim(2)}
        assert 0 < len(products) <= len(pairs) + len(triples)
        assert len(pairs) + len(triples) < base.n_simplices(1) + base.n_simplices(2)


# ---------------------------------------------------------------------------
# differential: sparse constructors against the dense adapter and oracles


def _dense_systems(pres, rep):
    d = rep.degree
    push = from_representation(RepresentationQ(
        pres, d, tuple(permutation_matrix(g) for g in rep.images)))
    kernel = from_representation(RepresentationQ(
        pres, d - 1, tuple(sum_zero_matrix(g) for g in rep.images)))
    return push, kernel


@SETTINGS
@given(st.integers(1, 9).flatmap(lambda d: st.permutations(range(d))))
def test_hexagon_sparse_and_dense_paths_agree(perm):
    d = len(perm)
    y, r, rep, pres = circle_cover_data(d, tuple(perm))
    base = pres.complex
    push = pushforward(pres, rep)
    k = kernel(pres, rep)
    dense_push, dense_kernel = _dense_systems(pres, rep)

    b_push = twisted_betti(base, push)
    b_kernel = twisted_betti(base, k)
    assert twisted_betti(base, dense_push) == b_push
    assert twisted_betti(base, dense_kernel) == b_kernel
    assert ih_betti(y, None, k) == ih_betti(y, None, dense_kernel) == b_kernel

    cover = fox_complete(BranchedCoverSpec(y, r, rep, pres))
    b_cover = brute_betti(cover.total.all_simplices())
    b_base = brute_betti(base.all_simplices())
    assert b_cover == b_push == tuple(x + k for x, k in zip(b_base, b_kernel))


# (branch points, prime degree) pairs that sphere_branched_data accepts
SPHERES = ((2, 2), (4, 2), (6, 2), (3, 3), (6, 3), (5, 5))


@st.composite
def sphere_covers(draw):
    """A sphere fixture's cyclic cover plus trivial sheets, sheets relabelled."""
    points, p = draw(st.sampled_from(SPHERES))
    d = p + draw(st.integers(0, 9 - p))
    sigma = draw(st.permutations(range(d)))
    y, r, rep0, pres = sphere_branched_data(points, p)
    images = []
    for g in rep0.images:
        g = tuple(g) + tuple(range(p, d))
        conj = [0] * d
        for i in range(d):
            conj[sigma[i]] = sigma[g[i]]
        images.append(tuple(conj))
    return y, r, MonodromyRep(d, tuple(images)), pres


@settings(max_examples=10, deadline=None, derandomize=True)
@given(sphere_covers())
def test_sphere_sparse_and_dense_paths_agree(data):
    y, r, rep, pres = data
    spec = BranchedCoverSpec(y, r, rep, pres)
    push = pushforward(pres, rep)
    dense_push, dense_kernel = _dense_systems(pres, rep)
    assert twisted_betti(spec.complement, push) == twisted_betti(spec.complement, dense_push)

    refined = refine_stratification(y, r)
    p = lower_middle(2)
    ih_kernel = ih_betti(refined, p, kernel(pres, rep))
    assert ih_betti(refined, p, dense_kernel) == ih_kernel
    cover = fox_complete(spec)
    b_cover = betti_numbers(cover.total)
    assert b_cover == tuple(t + k for t, k in zip(ih_betti(refined, p, None), ih_kernel))
