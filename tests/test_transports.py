"""Sparse transports: their matrices, what guards a table, and differential tests.

A transport is a list of sparse columns; the tests read it as a dense
matrix through ``oracles.dense``.  The differential tests build every system twice:
from the transport table (``pushforward_local_system``, ``kernel_system``)
and through the dense adapter in ``oracles`` (``from_representation`` of
explicit permutation and sum-zero matrices written out there), and
require the same twisted and intersection Betti numbers from both.  A
system is not checked when it is built: a table that is not flat fails
the d^2 = 0 check when its homology is taken, and its reverse entries are
never read, so on corrupted tables both builders give the verdict that a
dense check of the forward entries predicts.
"""
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from branchcover import covering
from branchcover.cli import main
from branchcover.covering import (
    BranchedCoverSpec,
    MonodromyRep,
    fox_complete,
    refine_stratification,
)
from branchcover.errors import InputError, InternalCheckError
from branchcover.fixtures import circle_cover_data, hexagon, sphere_branched_data
from branchcover.intersection import lower_middle
from branchcover.local_systems import (
    kernel_system,
    permutation_action,
    pushforward_local_system,
    sum_zero_action,
    twisted_betti,
)
from branchcover.simplicial import betti_numbers

from complexes import annulus, full_simplex, ih, kernel, pushforward
from oracles import (
    RepresentationQ,
    brute_betti,
    dense,
    from_representation,
    identity,
    local_system_from_forward_edges,
    mat_equal,
    matmul,
    permutation_matrix,
    sum_zero_matrix,
    transport_from_rows,
    transport_inverse,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
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
    assert mat_equal(matmul(dense(p), dense(q)), identity(3))


def square(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n)


small_matrices = st.integers(1, 5).flatmap(square)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_sparse_composition_matches_dense_product(pair):
    # the dense adapter round-trips a product, and its columns hold no zeros
    a, b = pair
    prod = transport_from_rows(matmul(dense(transport_from_rows(a)), dense(transport_from_rows(b))))
    assert mat_equal(dense(prod), matmul(a, b))
    assert all(v for col in prod for v in col.values())


@SETTINGS
@given(st.integers(1, 9).flatmap(lambda d: st.permutations(range(d))))
def test_sum_zero_action_matches_dense_definition(perm):
    perm = tuple(perm)
    t = sum_zero_action(perm)
    assert mat_equal(dense(t), sum_zero_matrix(perm))
    assert all(0 < len(col) <= 2 for col in t)
    inv = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    assert mat_equal(matmul(dense(sum_zero_action(inv)), dense(t)), identity(len(perm) - 1))


@SETTINGS
@given(small_matrices)
def test_dense_adapter_inverse(rows):
    t = transport_from_rows(rows)
    try:
        inv = transport_inverse(t)
    except ValueError:
        return  # singular
    assert mat_equal(matmul(dense(inv), dense(t)), identity(len(rows)))


# ---------------------------------------------------------------------------
# a system is not checked when built: the d^2 = 0 check guards flatness


def _both_ways(c, p):
    return {e: p for (u, v) in c.simplices_of_dim(1) for e in ((u, v), (v, u))}


def test_sparse_broken_triangle_raises():
    c = full_simplex(2)
    table = _both_ways(c, (0, 1))
    assert twisted_betti(c, pushforward_local_system(2, table)) == (2, 0, 0)
    table[(0, 1)] = table[(1, 0)] = (1, 0)  # inverse to itself, not flat
    for build in (pushforward_local_system, kernel_system):
        with pytest.raises(InternalCheckError, match="boundary of a chain in degree 2 "):
            twisted_betti(c, build(2, table))


def test_a_table_that_is_not_flat_exits_3_through_the_cli(monkeypatch, capsys):
    # one edge of a flat 2-simplex changed both ways breaks flatness there
    def corrupted(pres, rep):
        table = real(pres, rep)
        a, b, _ = pres.complex.simplices_of_dim(2)[0]
        p = table[(a, b)]
        table[(a, b)] = q = (p[1], p[0]) + p[2:]
        table[(b, a)] = tuple(sorted(range(len(q)), key=q.__getitem__))
        return table

    real = covering.validate_monodromy
    monkeypatch.setattr(covering, "validate_monodromy", corrupted)
    assert main(["twisted", str(GOLDEN / "sphere-p3-d3.json")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal check failed: boundary of a chain in degree 2 ")
    assert err.count("\n") == 1


def test_sparse_wrong_reverse_leaves_ranks_unchanged():
    # homology reads only the transports along ascending edges
    c = hexagon()
    table = _both_ways(c, (0, 1, 2))
    table[(0, 1)], table[(1, 0)] = (1, 2, 0), (2, 0, 1)
    wrong = {**table, (1, 0): (1, 2, 0)}
    for build in (pushforward_local_system, kernel_system):
        assert twisted_betti(c, build(3, wrong)) == twisted_betti(c, build(3, table))


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


def _predicted(c, table, matrix):
    """The verdict read off the forward entries alone, each as a dense matrix.

    The first forward edge with no entry is an ``InputError``; otherwise a
    2-simplex on which the forward matrices do not compose is the d^2 = 0
    failure in degree 2; otherwise the ranks of the dense system whose
    reverse transports are the inverses of the forward ones.
    """
    edges = c.simplices_of_dim(1)
    missing = [e for e in edges if e not in table]
    if missing:
        return "no transport along {}->{}".format(*missing[0])
    m = {e: matrix(table[e]) for e in edges}
    if any(not mat_equal(matmul(m[(b, w)], m[(a, b)]), m[(a, w)])
           for a, b, w in c.simplices_of_dim(2)):
        return "degree 2"
    return twisted_betti(c, local_system_from_forward_edges(c, len(m[edges[0]]), m))


def _verdict(build, c, d, table):
    try:
        return twisted_betti(c, build(d, table))
    except InputError as exc:
        return str(exc)
    except InternalCheckError as exc:
        assert str(exc).startswith("boundary of a chain in degree 2 "), exc
        return "degree 2"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(corrupted_tables())
def test_kernel_and_pushforward_reject_the_same_tables(data):
    c, _, table = data
    push = _predicted(c, table, permutation_matrix)
    kernel = _predicted(c, table, sum_zero_matrix)
    assert _verdict(pushforward_local_system, *data) == push
    assert _verdict(kernel_system, *data) == kernel
    if isinstance(push, str):  # the sum-zero action is faithful for d >= 2
        assert kernel == push



def test_corrupted_tables_reach_every_verdict():
    # from the flat table with the cyclic shift by v at vertex v: edge 0->1
    # dropped, the 2-simplex [0, 1, 6] made non-flat by a swap (never a gauge
    # value here: those are all cyclic shifts), and 1->0 not inverse to 0->1
    c = annulus()
    table = _gauge_table(c, {v: tuple((v + s) % 3 for s in range(3)) for v in c.vertices})
    (u, v), (a, b, w) = c.simplices_of_dim(1)[0], c.simplices_of_dim(2)[0]
    assert (u, v) == (a, b)
    swap = (1, 0, 2)
    for build in (pushforward_local_system, kernel_system):
        flat = _verdict(build, c, 3, table)
        assert isinstance(flat, tuple)
        verdicts = {f"no transport along {u}->{v}": {e: p for e, p in table.items() if e != (u, v)},
                    "degree 2": {**table, (a, b): swap, (b, a): swap},
                    flat: {**table, (v, u): (1, 2, 0)}}
        for verdict, bad in verdicts.items():
            assert _verdict(build, c, 3, bad) == verdict


# ---------------------------------------------------------------------------
# differential: sparse constructors against the dense adapter and oracles


def _dense_systems(pres, rep):
    d = rep.degree
    images = [rep.assignments[e] for e in pres.generators]
    push = from_representation(RepresentationQ(
        pres, d, tuple(permutation_matrix(g) for g in images)))
    kernel = from_representation(RepresentationQ(
        pres, d - 1, tuple(sum_zero_matrix(g) for g in images)))
    return push, kernel


@SETTINGS
@given(st.integers(1, 9).flatmap(lambda d: st.permutations(range(d))))
def test_hexagon_sparse_and_dense_paths_agree(perm):
    d = len(perm)
    y, r, rep = circle_cover_data(d, tuple(perm))
    spec = BranchedCoverSpec(y, r, rep)
    pres = spec.presentation
    base = pres.complex
    push = pushforward(pres, rep)
    k = kernel(pres, rep)
    dense_push, dense_kernel = _dense_systems(pres, rep)

    b_push = twisted_betti(base, push)
    b_kernel = twisted_betti(base, k)
    assert twisted_betti(base, dense_push) == b_push
    assert twisted_betti(base, dense_kernel) == b_kernel
    assert ih(y, None, k) == ih(y, None, dense_kernel) == b_kernel

    cover = fox_complete(spec)
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
    y, r, rep0 = sphere_branched_data(points, p)
    assignments = {}
    for e, g in rep0.assignments.items():
        g = tuple(g) + tuple(range(p, d))
        conj = [0] * d
        for i in range(d):
            conj[sigma[i]] = sigma[g[i]]
        assignments[e] = tuple(conj)
    return y, r, MonodromyRep(d, assignments, rep0.basepoint)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(sphere_covers())
def test_sphere_sparse_and_dense_paths_agree(data):
    y, r, rep = data
    spec = BranchedCoverSpec(y, r, rep)
    pres = spec.presentation
    push = pushforward(pres, rep)
    dense_push, dense_kernel = _dense_systems(pres, rep)
    assert twisted_betti(spec.complement, push) == twisted_betti(spec.complement, dense_push)

    refined = refine_stratification(y, r)
    p = lower_middle(2)
    ih_kernel = ih(refined, p, kernel(pres, rep))
    assert ih(refined, p, dense_kernel) == ih_kernel
    cover = fox_complete(spec)
    b_cover = betti_numbers(cover.total)
    assert b_cover == tuple(t + k for t, k in zip(ih(refined, p, None), ih_kernel))
