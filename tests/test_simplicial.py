import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from branchcover.errors import InputError, InternalCheckError
from branchcover.simplicial import (
    SimplicialComplex,
    _boundary_columns,
    barycentric_subdivide_complex,
    betti_numbers,
    closure,
    components,
    connected_components,
    full_subcomplex,
    homology_ranks,
    is_full,
    validate_complex,
)
from branchcover.intersection import lower_middle
from branchcover.local_systems import twisted_betti
from branchcover.stratified import StratifiedComplex
from branchcover.commands import cone
from branchcover.fixtures import boundary_simplex, hexagon, octahedron, suspension, torus7

from complexes import full_simplex, ih, link, star, trivial_system
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
    with pytest.raises(InputError, match=re.escape("simplex [0, 1] has unlisted face [0]")):
        validate_complex([[0, 1]])


def test_validate_duplicate():
    with pytest.raises(InputError, match=re.escape("simplex [0] listed twice")):
        validate_complex([[0], [0]])


def test_validate_non_ascending():
    with pytest.raises(InputError, match=re.escape("simplex [1, 0] is not strictly ascending")):
        validate_complex([[1, 0], [0], [1]])
    with pytest.raises(InputError, match=re.escape("simplex [0, 0] is not strictly ascending")):
        validate_complex([[0, 0]])
    with pytest.raises(InputError, match=re.escape("simplex [-1] is not a nonempty tuple of non-negative integers")):
        validate_complex([[-1]])


def test_constructor_requires_closure():
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1)])


def _by_dim_then_vertices(simplices):
    return sorted(simplices, key=lambda s: (len(s), s))


# a face-closed complex on at most 7 vertices with some simplices taken out
closed_then_cut = st.lists(
    st.frozensets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=6,
).map(close_faces).flatmap(
    lambda simps: st.sets(st.sampled_from(simps), max_size=3).map(
        lambda cut: [s for s in simps if s not in cut]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(closed_then_cut)
def test_closure_check_matches_brute_definition(simps):
    """The constructor raises exactly when a facet is missing and names the
    smallest simplex lacking one; validate_complex names a real gap."""
    present = set(simps)
    gaps = [(s, f) for s in _by_dim_then_vertices(present) if len(s) > 1
            for f in combinations(s, len(s) - 1) if f not in present]
    if not gaps:
        assert SimplicialComplex(simps).simplices == present
        assert validate_complex([list(s) for s in simps]).simplices == present
        return
    with pytest.raises(ValueError) as info:
        SimplicialComplex(simps)
    s, f = gaps[0]
    assert str(info.value) == f"not face-closed: {s} lacks face {f}"
    with pytest.raises(InputError, match="has unlisted face") as info:
        validate_complex([list(s) for s in simps])
    named = {f"simplex {list(s)} has unlisted face {list(f)}" for s, f in gaps}
    assert str(info.value) in named


@settings(max_examples=150, deadline=None, derandomize=True)
@given(closed_then_cut, st.randoms(use_true_random=False))
def test_constructor_does_not_depend_on_the_form_of_its_input(simps, rnd):
    """A set, a frozenset, a sorted list, a shuffled list, a list with repeats,
    a list of lists and a generator of the same simplices give equal complexes,
    or the same ValueError."""
    shuffled = list(simps)
    rnd.shuffle(shuffled)
    repeated = shuffled + rnd.choices(shuffled, k=3) if shuffled else []
    rnd.shuffle(repeated)
    forms = [set(simps), frozenset(simps), _by_dim_then_vertices(simps), shuffled, repeated,
             [list(s) for s in shuffled], (s for s in shuffled)]
    outcomes = []
    for form in forms:
        try:
            c = SimplicialComplex(form)
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((tuple(c.simplices_of_dim(d) for d in range(c.dim + 1)),
                             c.vertices, c.maximal_simplices(), hash(c), c))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=4), max_size=6))
def test_closure_matches_close_faces(facets):
    simplices = [tuple(sorted(f)) for f in facets]
    assert closure(iter(simplices)).all_simplices() == tuple(close_faces(simplices))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=4),
                min_size=1, max_size=6), st.data())
def test_maximal_full_and_is_full_match_brute_definitions(facets, data):
    c = SimplicialComplex(close_faces(facets))
    simps = c.simplices
    assert c.all_simplices() == tuple(_by_dim_then_vertices(simps))
    assert c.maximal_simplices() == tuple(
        s for s in c.all_simplices() if not any(set(s) < set(t) for t in simps))
    vertices = data.draw(st.frozensets(st.integers(0, 7)))
    assert full_subcomplex(c, vertices).simplices == {s for s in simps if set(s) <= vertices}
    # vertices and edges: such a subcomplex often misses an edge or triangle on its vertices
    low = c.simplices_of_dim(0) + c.simplices_of_dim(1)
    sub = SimplicialComplex(close_faces(
        data.draw(st.lists(st.sampled_from(low), min_size=1, max_size=4))))
    on_its_vertices = {s for s in simps if set(s) <= set(sub.vertices)}
    assert is_full(c, sub) == (sub.simplices == on_its_vertices)


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
    with pytest.raises(InputError, match=re.escape("[0, 2] is not a simplex of the complex")):
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
    point = validate_complex([[0]])
    assert point.n_simplices(0) == 1
    assert betti_numbers(point) == (1,)


def test_edge_boundary_signs():
    # boundary of [0,1] is [1] - [0]
    assert _boundary_columns([(0, 1)], {(0,): 0, (1,): 1}) == [{0: -1, 1: 1}]


def test_boundary_squared_zero_enforced():
    homology_ranks(octahedron(), lambda s: True)  # would raise otherwise


def test_nonzero_boundary_squared_raises_internal_check():
    # transport 2 on 0->1 and 1 on the other edges is not flat on [0,1,2]:
    # with coefficients at the minimal vertex, d1 d2 [0,1,2] = [2] != 0
    def transport(u, v):
        return {(0, 1): [{0: 2}], (1, 0): [{0: Fraction(1, 2)}]}.get((u, v), [{0: 1}])

    with pytest.raises(InternalCheckError, match="degree 2"):
        homology_ranks(full_simplex(2), lambda s: True, 1, transport, min)


def test_betti_octahedron_and_torus_against_oracle():
    for c in (octahedron(), torus7(), boundary_simplex(4)):
        assert betti_numbers(c) == brute_betti(c.all_simplices())
    assert betti_numbers(octahedron()) == (1, 0, 1)
    assert betti_numbers(torus7()) == (1, 2, 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_one_homology_engine_matches_oracle(facets):
    """Ordinary, twisted and intersection ranks all agree with dense Betti numbers.

    Trivial coefficients of rank r multiply the Betti numbers by r, and the
    trivial filtration, which exists on a pure complex, gives IH = H.
    """
    c = SimplicialComplex(close_faces(facets))
    b = betti_numbers(c)
    assert b == brute_betti(c.all_simplices())
    for r in (1, 2, 3):
        assert twisted_betti(c, trivial_system(c, r)) == tuple(r * x for x in b)
    if len({len(s) for s in c.maximal_simplices()}) == 1:
        p = lower_middle(c.dim) if c.dim >= 2 else None
        assert ih(StratifiedComplex(c), p) == b


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_connected_components_match_bfs_oracle(data):
    """Shuffled nodes, repeated edges and self-loops: the same partition as
    the oracle, each component in input order, components by first node."""
    n = data.draw(st.integers(0, 12))
    nodes = data.draw(st.permutations(range(n)))
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=16)) if n else []
    edges += data.draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    got = connected_components(nodes, edges)
    assert sorted(map(sorted, got)) == bfs_components(nodes, edges)
    position = {v: i for i, v in enumerate(nodes)}
    assert all(c == sorted(c, key=position.get) for c in got)
    firsts = [position[c[0]] for c in got]
    assert firsts == sorted(firsts)


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
