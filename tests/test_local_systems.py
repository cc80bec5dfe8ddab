import random
from fractions import Fraction

import pytest

from branchcover.covering import BranchedCoverSpec, MonodromyRep, fox_complete
from branchcover.errors import InputError, InternalCheckError
from branchcover.local_systems import (
    kernel_system,
    pushforward_local_system,
    sum_zero_action,
    twisted_betti,
)
from branchcover.presentation import edge_path_presentation
from branchcover.simplicial import _boundary_columns, betti_numbers, full_subcomplex
from branchcover.fixtures import (
    circle_cover_data,
    hexagon,
    octahedron,
    torus7,
)
from branchcover.stratified import EMPTY_STRATIFIED, StratifiedComplex
from complexes import (
    annulus,
    figure_eight,
    full_simplex,
    k4_graph,
    kernel,
    pushforward,
    restrict,
    theta_graph,
    trivial_system,
)
from oracles import (
    RelatorViolatedMatrix,
    RepresentationQ,
    dense,
    from_representation,
    global_sections,
    identity as ident,
    kernel_inclusion,
    kernel_projection,
    local_system_from_forward_edges,
    mat_equal,
    matmul,
    monodromy_matrices,
    permutation_matrix,
    trace_map,
    unit_map,
)


# ---------------------------------------------------------------------------
# construction


def test_trivial_representation_gives_identity_transports():
    pres = edge_path_presentation(hexagon(), 0)
    rep = RepresentationQ(pres, 2, (ident(2),))
    ls = from_representation(rep)
    for e in hexagon().simplices_of_dim(1):
        if e in pres.tree_edges:
            assert mat_equal(dense(ls.transport(*e)), ident(2))


def test_sign_system_on_hexagon():
    pres = edge_path_presentation(hexagon(), 0)
    ls = from_representation(RepresentationQ(pres, 1, ([[-1]],)))
    assert ls.rank == 1
    mats = monodromy_matrices(hexagon(), ls)
    assert len(mats) == 1 and mat_equal(dense(mats[0]), [[-1]])


def test_nontrivial_rep_on_simply_connected_base_rejected():
    pres = edge_path_presentation(full_simplex(2), 0)
    with pytest.raises(RelatorViolatedMatrix):
        from_representation(RepresentationQ(pres, 1, ([[-1]],)))


def test_flatness_enforced():
    # nothing checks a system when it is built; its homology checks d^2 = 0
    c = full_simplex(2)
    bad = {e: ident(1) for e in c.simplices_of_dim(1)}
    bad[(0, 1)] = [[Fraction(2)]]
    with pytest.raises(InternalCheckError, match="boundary of a chain in degree 2 "):
        twisted_betti(c, local_system_from_forward_edges(c, 1, bad))


def test_pushforward_flat_on_octahedron():
    # trivial fundamental group forces the identity assignment; the point
    # is that relator evaluation accepts and the system is flat
    pres = edge_path_presentation(octahedron(), 0)
    rep = MonodromyRep(3, dict.fromkeys(pres.generators, (0, 1, 2)))
    ls = pushforward(pres, rep)
    assert twisted_betti(octahedron(), ls) == (3, 0, 3)  # d^2 = 0: the system is flat


# ---------------------------------------------------------------------------
# trace splitting


def test_trace_split_degree_one():
    y, r, rep = circle_cover_data(1, (0,))
    pres = BranchedCoverSpec(y, r, rep).presentation
    assert kernel(pres, rep).rank == 0


def test_trace_split_swap():
    y, r, rep = circle_cover_data(2, (1, 0))
    pres = BranchedCoverSpec(y, r, rep).presentation
    k = kernel(pres, rep)
    assert k.rank == 1
    gen_edge = pres.generators[0]
    assert mat_equal(dense(k.transport(*gen_edge)), [[-1]])


def test_trace_split_three_cycle_matrix():
    # independent derivation: apply the permutation to the sum-zero basis
    # u_i = e_i - e_2 and solve for the coordinates
    perm = (1, 2, 0)
    basis = [[1, 0, -1], [0, 1, -1]]  # u_0, u_1 as coordinate rows

    def apply(perm, vec):
        out = [0, 0, 0]
        for i, v in enumerate(vec):
            out[perm[i]] += v
        return out

    expected_cols = []
    for u in basis:
        w = apply(perm, u)
        # solve a*u0 + b*u1 = w
        a, b = Fraction(w[0]), Fraction(w[1])
        assert [a * x + b * y for x, y in zip(*basis)] == [Fraction(v) for v in w]
        expected_cols.append((a, b))
    expected = [[expected_cols[j][i] for j in range(2)] for i in range(2)]
    assert expected == [[-1, -1], [1, 0]]

    got = sum_zero_action(perm)
    assert mat_equal(dense(got), expected)

    y, r, rep = circle_cover_data(3, perm)
    pres = BranchedCoverSpec(y, r, rep).presentation
    k = kernel(pres, rep)
    assert k.rank == 2
    assert mat_equal(dense(k.transport(*pres.generators[0])), expected)


def test_trace_epsilon_eta_identity():
    for d in (1, 2, 3, 5):
        perm = tuple((i + 1) % d for i in range(d))
        y, r, rep = circle_cover_data(d, perm)
        pres = BranchedCoverSpec(y, r, rep).presentation
        assert kernel(pres, rep).rank == d - 1
        comp = matmul(trace_map(d), unit_map(d))
        assert comp == [[d]]
        # inclusion-projection pairs sum to the identity on Q^d
        p_triv = matmul(unit_map(d), [[Fraction(1, d)] * d])
        incl, proj = kernel_inclusion(d), kernel_projection(d)
        p_ker = [[sum((incl[i][k] * proj[k][j] for k in range(d - 1)), Fraction(0))
                  for j in range(d)] for i in range(d)]
        assert mat_equal([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(p_triv, p_ker)],
                         ident(d))


def test_kernel_is_natural():
    # the sum-zero projection intertwines the permutation action and the
    # kernel action on the generator loop: K(g) . proj = proj . P(g)
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(2, 6)
        perm = tuple(rng.sample(range(d), d))
        y, r, rep = circle_cover_data(d, perm)
        pres = BranchedCoverSpec(y, r, rep).presentation
        proj = kernel_projection(d)
        lhs = matmul(dense(kernel(pres, rep).transport(*pres.generators[0])), proj)
        rhs = matmul(proj, permutation_matrix(perm))
        assert mat_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# global sections


def test_global_sections_trivial_system():
    for rank in (0, 1, 3):
        ls = trivial_system(hexagon(), rank)
        dim, basis = global_sections(hexagon(), ls)
        assert dim == rank and len(basis) == rank


def test_global_sections_swap_kernel_zero():
    y, r, rep = circle_cover_data(2, (1, 0))
    pres = BranchedCoverSpec(y, r, rep).presentation
    dim, _ = global_sections(hexagon(), kernel(pres, rep))
    assert dim == 0


def test_global_sections_unipotent():
    pres = edge_path_presentation(hexagon(), 0)
    ls = from_representation(RepresentationQ(pres, 2, ([[1, 1], [0, 1]],)))
    dim, basis = global_sections(hexagon(), ls)
    assert dim == 1
    (vec,) = basis
    # fixed space of [[1,1],[0,1]] is spanned by e_0
    assert vec.get(0) and not vec.get(1)


# ---------------------------------------------------------------------------
# twisted homology


def test_twisted_with_trivial_coefficients_is_ordinary():
    for c in (hexagon(), octahedron(), torus7(), annulus(), full_simplex(3)):
        trivial = trivial_system(c, 1)
        assert twisted_betti(c, trivial) == betti_numbers(c)
        for j in range(1, c.dim + 1):
            rows = {s: i for i, s in enumerate(c.simplices_of_dim(j - 1))}
            simps = c.simplices_of_dim(j)
            assert (_boundary_columns(simps, rows, 1, trivial.transport, min)
                    == _boundary_columns(simps, rows))


def test_twisted_circle_sign_system():
    pres = edge_path_presentation(hexagon(), 0)
    ls = from_representation(RepresentationQ(pres, 1, ([[-1]],)))
    assert twisted_betti(hexagon(), ls) == (0, 0)


def test_twisted_circle_cyclic_kernel():
    y, r, rep = circle_cover_data(3, (1, 2, 0))
    pres = BranchedCoverSpec(y, r, rep).presentation
    assert twisted_betti(hexagon(), kernel(pres, rep)) == (0, 0)


def test_twisted_h0_equals_global_sections_on_permutation_systems():
    # permutation systems and their kernels are self-dual, so invariants
    # and coinvariants have the same dimension
    rng = random.Random(9)
    for _ in range(15):
        d = rng.randint(1, 5)
        perm = tuple(rng.sample(range(d), d))
        y, r, rep = circle_cover_data(d, perm)
        pres = BranchedCoverSpec(y, r, rep).presentation
        for ls in (pushforward(pres, rep), kernel(pres, rep)):
            dim, _ = global_sections(hexagon(), ls)
            assert twisted_betti(hexagon(), ls)[0] == dim


def test_restrict():
    ls = trivial_system(octahedron(), 2)
    sub = full_subcomplex(octahedron(), [1, 2, 3, 4])
    res = restrict(ls, sub)
    assert res.rank == 2 and set(res.transports) == set(_both(sub))
    point = full_subcomplex(octahedron(), [0])
    res0 = restrict(ls, point)
    assert res0.rank == 2 and not res0.transports
    with pytest.raises(InputError, match="restriction target is not a subcomplex of the base"):
        restrict(res, octahedron())


def test_restrict_swap_system_to_punctured_star():
    y, r, rep = sphere_branched_swap()
    spec = BranchedCoverSpec(y, r, rep)
    push = pushforward_local_system(spec.degree, spec.table)
    tau = spec.branch_simplices()[0]
    p = fox_complete(spec).stars[tau]
    res = restrict(push, p)
    assert res.rank == 2
    assert set(res.transports) == {(u, v) for (u, v) in _both(p)}


def _both(c):
    for (u, v) in c.simplices_of_dim(1):
        yield (u, v)
        yield (v, u)


def sphere_branched_swap():
    from branchcover.fixtures import sphere_branched_data
    return sphere_branched_data(2, 2)


# ---------------------------------------------------------------------------
# Betti additivity across validated covers


GRAPH_BASES = (hexagon, figure_eight, theta_graph, k4_graph)


def test_betti_additivity_randomized():
    rng = random.Random(17)
    checked = 0
    for base_fn in GRAPH_BASES:
        base = base_fn()
        pres = edge_path_presentation(base, min(base.vertices))
        for _ in range(6):
            d = rng.randint(1, 5)
            rep = MonodromyRep(d, {e: tuple(rng.sample(range(d), d)) for e in pres.generators})
            spec = BranchedCoverSpec(StratifiedComplex(base), EMPTY_STRATIFIED, rep)
            cover = fox_complete(spec)
            push = pushforward_local_system(spec.degree, spec.table)
            b_total = betti_numbers(cover.total)
            b_push = twisted_betti(base, push)
            b_triv = twisted_betti(base, trivial_system(base))
            b_ker = twisted_betti(base, kernel_system(spec.degree, spec.table))
            assert b_total == b_push
            assert b_push == tuple(x + y for x, y in zip(b_triv, b_ker))
            checked += 1
    assert checked >= 24


def test_pushforward_degree_one_is_trivial_rank_one():
    y, r, rep = circle_cover_data(1, (0,))
    pres = BranchedCoverSpec(y, r, rep).presentation
    ls = pushforward(pres, rep)
    assert ls.rank == 1
    for e in pres.complex.simplices_of_dim(1):
        assert mat_equal(dense(ls.transport(*e)), [[1]])


def test_restrict_identity():
    ls = trivial_system(octahedron(), 2)
    same = restrict(ls, octahedron())
    assert same == ls
