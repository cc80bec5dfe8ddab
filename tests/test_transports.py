"""Sparse transports: dense-reading contract, checks, and differential tests.

The differential tests build every system twice: through the sparse
constructors (``pushforward_local_system``, ``trace_split``) and through
the dense adapter in ``oracles`` (``from_representation`` of explicit
permutation and sum-zero matrices written out there), and require the same
twisted and intersection Betti numbers from both.
"""
import re
from fractions import Fraction

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
from branchcover.local_systems import (
    LocalSystemQ,
    Transport,
    sum_zero_action,
    trace_split,
    twisted_betti,
)
from branchcover.presentation import edge_path_presentation
from branchcover.simplicial import betti_numbers

from complexes import full_simplex, pushforward
from oracles import (
    RepresentationQ,
    brute_betti,
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
# the dense-reading contract


def test_transport_permutation_convention():
    # P e_s = e_{image[s]}: column s holds a single 1 in row image[s]
    p = Transport.permutation((1, 2, 0))
    assert len(p) == 3
    assert [p[t][0] for t in range(3)] == [0, 1, 0]
    assert mat_equal(p, permutation_matrix((1, 2, 0)))
    # q acts first in p @ q
    q = Transport.permutation((2, 0, 1))
    assert p @ q == Transport.permutation((0, 1, 2))
    with pytest.raises(IndexError):
        p[3]


def square(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n)


small_matrices = st.integers(1, 5).flatmap(square)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_sparse_composition_matches_dense_product(pair):
    a, b = pair
    prod = transport_from_rows(a) @ transport_from_rows(b)
    assert mat_equal(prod, matmul(a, b))
    assert prod == transport_from_rows(matmul(a, b))


@SETTINGS
@given(st.integers(1, 9).flatmap(lambda d: st.permutations(range(d))))
def test_sum_zero_action_matches_dense_definition(perm):
    perm = tuple(perm)
    t = sum_zero_action(perm)
    assert mat_equal(t, sum_zero_matrix(perm))
    assert all(0 < len(col) <= 2 for col in t.cols)
    inv = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    assert sum_zero_action(inv) @ t == Transport.permutation(range(len(perm) - 1))


@SETTINGS
@given(small_matrices)
def test_dense_adapter_inverse(rows):
    t = transport_from_rows(rows)
    try:
        inv = transport_inverse(t)
    except ValueError:
        return  # singular
    assert mat_equal(inv @ t, identity(len(rows)))


# ---------------------------------------------------------------------------
# every LocalSystemQ is checked: inverse and flatness


def _both_ways(c, t):
    return {e: t for (u, v) in c.simplices_of_dim(1) for e in ((u, v), (v, u))}


def test_sparse_broken_triangle_raises():
    c = full_simplex(2)
    transports = _both_ways(c, Transport.permutation((0, 1)))
    LocalSystemQ(c, 2, dict(transports))  # the identity system is flat
    swap = Transport.permutation((1, 0))
    transports[(0, 1)] = transports[(1, 0)] = swap  # inverse to itself, not flat
    with pytest.raises(InputError, match=re.escape("flatness fails on 2-simplex [0, 1, 2]")):
        LocalSystemQ(c, 2, transports)


def test_sparse_wrong_reverse_raises():
    c = hexagon()
    transports = _both_ways(c, Transport.permutation((0, 1, 2)))
    transports[(0, 1)] = transports[(1, 0)] = Transport.permutation((1, 2, 0))
    with pytest.raises(InputError, match="transport of 1->0 is not inverse to 0->1"):
        LocalSystemQ(c, 3, transports)


def test_sparse_wrong_size_raises():
    c = hexagon()
    transports = _both_ways(c, Transport.permutation((0, 1)))
    transports[(0, 1)] = Transport.permutation((0, 1, 2))
    with pytest.raises(InputError, match="transport of 0->1 is not 2x2"):
        LocalSystemQ(c, 2, transports)


def test_sparse_non_permutation_raises_in_trace_split():
    # a sign system and a sum-zero kernel are sparse but not permutations
    c = hexagon()
    signs = _both_ways(c, Transport.permutation((0,)))
    gen = edge_path_presentation(c, 0).generators[0]
    signs[gen] = signs[gen[::-1]] = Transport([{0: -1}])
    _y, _r, rep, pres = circle_cover_data(3, (1, 2, 0))
    kernel = trace_split(pushforward(pres, rep)).kernel
    doubled = _both_ways(c, Transport([{0: Fraction(2)}]))
    doubled_inv = Transport([{0: Fraction(1, 2)}])
    for (u, v) in c.simplices_of_dim(1):
        doubled[(v, u)] = doubled_inv
    for system in (LocalSystemQ(c, 1, signs), kernel, LocalSystemQ(c, 1, doubled)):
        with pytest.raises(InputError, match="is not a permutation matrix"):
            trace_split(system)


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
    kernel = trace_split(push).kernel
    dense_push, dense_kernel = _dense_systems(pres, rep)

    b_push = twisted_betti(base, push)
    b_kernel = twisted_betti(base, kernel)
    assert twisted_betti(base, dense_push) == b_push
    assert twisted_betti(base, dense_kernel) == b_kernel
    assert twisted_betti(base, trace_split(dense_push).kernel) == b_kernel
    assert ih_betti(y, None, kernel) == ih_betti(y, None, dense_kernel) == b_kernel

    cover = fox_complete(BranchedCoverSpec(y, r, rep, pres))
    b_cover = brute_betti(cover.total.all_simplices())
    b_base = brute_betti(base.all_simplices())
    assert b_cover == b_push == tuple(x + k for x, k in zip(b_base, b_kernel))


# (branch points, prime degree) accepted by sphere_branched_data
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
    kernel = trace_split(push).kernel
    dense_push, dense_kernel = _dense_systems(pres, rep)
    assert twisted_betti(spec.complement, push) == twisted_betti(spec.complement, dense_push)

    refined = refine_stratification(y, r)
    p = lower_middle(2)
    ih_kernel = ih_betti(refined, p, kernel)
    assert ih_betti(refined, p, dense_kernel) == ih_kernel
    cover = fox_complete(spec)
    b_cover = betti_numbers(cover.total)
    assert b_cover == tuple(t + k for t, k in zip(ih_betti(refined, p, None), ih_kernel))
