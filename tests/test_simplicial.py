import pytest

from branchcover.errors import (
    DuplicateSimplex,
    InternalCheckError,
    MissingFace,
    NonAscendingTuple,
    SimplexNotFound,
)
from branchcover.simplicial import (
    ChainComplexQ,
    SimplicialComplex,
    barycentric_subdivide_complex,
    betti,
    betti_numbers,
    chain_complex,
    components,
    cone,
    full_subcomplex,
    is_full,
    link,
    star,
    suspension,
    validate_complex,
)
from branchcover.fixtures import hexagon, octahedron, torus7, boundary_simplex, full_simplex

from oracles import brute_betti, brute_link, brute_star, bfs_components, close_faces, euler


# ---------------------------------------------------------------------------
# validation


def test_validate_empty():
    c = validate_complex([])
    assert c.dim == -1
    assert betti_numbers(c) == ()


def test_validate_interval():
    c = validate_complex([[0], [1], [0, 1]])
    assert c.dim == 1
    assert (0, 1) in c


def test_validate_missing_face():
    with pytest.raises(MissingFace):
        validate_complex([[0, 1]])


def test_validate_duplicate():
    with pytest.raises(DuplicateSimplex):
        validate_complex([[0], [0]])


def test_validate_non_ascending():
    with pytest.raises(NonAscendingTuple):
        validate_complex([[1, 0], [0], [1]])
    with pytest.raises(NonAscendingTuple):
        validate_complex([[0, 0]])
    with pytest.raises(NonAscendingTuple):
        validate_complex([[-1]])


def test_constructor_requires_closure():
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1)])


# ---------------------------------------------------------------------------
# star and link (expected values from brute-force coface enumeration)


def test_link_of_octahedron_vertex_is_4_cycle():
    oct_ = octahedron()
    lk = link(oct_, (0,))
    expected = set(map(tuple, brute_link(oct_.all_simplices(), (0,))))
    assert set(lk.simplices) == expected
    assert betti_numbers(lk) == (1, 1)
    assert lk.n_simplices(0) == 4 and lk.n_simplices(1) == 4


def test_link_of_octahedron_edge_is_two_points():
    oct_ = octahedron()
    lk = link(oct_, (0, 1))
    assert set(lk.simplices) == set(map(tuple, brute_link(oct_.all_simplices(), (0, 1))))
    assert lk.simplices_of_dim(0) == ((2,), (4,))
    assert lk.dim == 0


def test_link_of_interval_endpoint():
    c = validate_complex([[0], [1], [0, 1]])
    assert link(c, (0,)).simplices == frozenset({(1,)})


def test_star_matches_oracle():
    oct_ = octahedron()
    st = star(oct_, (0,))
    assert set(st.simplices) == set(map(tuple, brute_star(oct_.all_simplices(), (0,))))


def test_star_missing_simplex():
    with pytest.raises(SimplexNotFound):
        star(hexagon(), (0, 2))


# ---------------------------------------------------------------------------
# cone and suspension


def test_cone_of_empty_is_point():
    c = cone(validate_complex([]))
    assert c.simplices == frozenset({(0,)})


def test_cone_of_hexagon_is_disk():
    assert betti_numbers(cone(hexagon())) == (1, 0, 0)


def test_suspension_of_octahedron_is_3_sphere():
    s = suspension(octahedron())
    # independent check: brute-force homology of an independently built join
    simplices = set(octahedron().simplices)
    joined = set(simplices)
    for apex in (6, 7):
        joined.add((apex,))
        joined |= {tuple(sorted(t + (apex,))) for t in simplices}
    assert betti_numbers(s) == brute_betti(joined) == (1, 0, 0, 1)


# ---------------------------------------------------------------------------
# chain complexes and betti numbers


def test_chain_complex_point():
    cc = chain_complex(validate_complex([[0]]))
    assert cc.ranks == (1,)
    assert betti(cc) == (1,)


def test_edge_boundary_signs():
    cc = chain_complex(validate_complex([[0], [1], [0, 1]]))
    # boundary of [0,1] is [1] - [0]
    col = cc.boundaries[1][0]
    assert col == {0: -1, 1: 1}


def test_boundary_squared_zero_enforced():
    chain_complex(octahedron())  # constructor would raise otherwise


def test_nonzero_boundary_squared_raises_internal_check():
    # d2 e0 = e0 and d1 e0 = e0, so d1 d2 != 0 in degree 2
    with pytest.raises(InternalCheckError, match="degree 2"):
        ChainComplexQ((1, 1, 1), ((), ({0: 1},), ({0: 1},)))


def test_betti_octahedron_and_torus_against_oracle():
    for c in (octahedron(), torus7(), boundary_simplex(4)):
        assert betti_numbers(c) == brute_betti(c.all_simplices())
    assert betti_numbers(octahedron()) == (1, 0, 1)
    assert betti_numbers(torus7()) == (1, 2, 1)


def test_torus7_is_a_closed_surface():
    t = torus7()
    assert t.n_simplices(0) == 7 and t.n_simplices(1) == 21 and t.n_simplices(2) == 14
    for e in t.simplices_of_dim(1):
        cofaces = [f for f in t.simplices_of_dim(2) if set(e) <= set(f)]
        assert len(cofaces) == 2
    for v in t.vertices:
        assert betti_numbers(link(t, (v,))) == (1, 1)


def test_euler_poincare():
    for c in (hexagon(), octahedron(), torus7(), cone(hexagon()),
              suspension(octahedron()), full_simplex(3)):
        b = betti_numbers(c)
        assert c.euler_characteristic() == sum((-1) ** j * b[j] for j in range(len(b)))
        assert c.euler_characteristic() == euler(c.all_simplices())


# ---------------------------------------------------------------------------
# components


def test_components_hexagon():
    assert len(components(hexagon())) == 1


def test_components_two_edges():
    c = validate_complex([[0], [1], [2], [3], [0, 1], [2, 3]])
    assert components(c) == ((0, 1), (2, 3))


def test_components_octahedron_minus_star():
    oct_ = octahedron()
    st = star(oct_, (0,))
    rest = full_subcomplex(oct_, [v for v in oct_.vertices if v != 0])
    got = components(rest)
    expected = bfs_components(rest.vertices,
                              rest.simplices_of_dim(1))
    assert [list(c) for c in got] == expected
    assert len(got) == 1


# ---------------------------------------------------------------------------
# barycentric subdivision


def test_subdivision_of_triangle_boundary():
    c = validate_complex(close_faces([(0, 1), (1, 2), (0, 2)]))
    sub, b_id, _ = barycentric_subdivide_complex(c)
    assert sub.n_simplices(0) == 6 and sub.n_simplices(1) == 6
    assert betti_numbers(sub) == (1, 1)


def test_subdivision_of_full_triangle():
    sub, _, _ = barycentric_subdivide_complex(full_simplex(2))
    assert sub.n_simplices(0) == 7 and sub.n_simplices(2) == 6
    assert betti_numbers(sub) == (1, 0, 0)


def test_subdivision_preserves_betti():
    for c in (hexagon(), octahedron(), torus7(), cone(hexagon()), full_simplex(3)):
        sub, _, _ = barycentric_subdivide_complex(c)
        assert betti_numbers(sub) == betti_numbers(c)


def test_betti_of_cone_is_contractible():
    for c in (hexagon(), octahedron(), torus7(), validate_complex([[0], [1]])):
        b = betti_numbers(cone(c))
        assert b[0] == 1 and all(x == 0 for x in b[1:])


def test_full_subcomplex_and_is_full():
    oct_ = octahedron()
    sub = full_subcomplex(oct_, [0, 5])
    assert set(sub.simplices) == {(0,), (5,)}
    assert is_full(oct_, sub)
    not_full = SimplicialComplex([(0,), (1,)])
    assert not is_full(oct_, not_full)  # edge (0,1) exists in the octahedron
