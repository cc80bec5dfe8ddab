import re

import pytest
from hypothesis import given, settings, strategies as st

from branchcover.covering import (
    BranchedCoverSpec,
    MonodromyRep,
    fox_complete,
    transport_along,
    validate_monodromy,
)
from branchcover.errors import InputError
from branchcover.presentation import edge_path_presentation
from branchcover.simplicial import betti_numbers
from branchcover.specfile import load_spec, parse_spec_text
from branchcover.verify import verify_branched
from branchcover.fixtures import (
    circle_cover_data,
    hexagon,
    octahedron,
    orient_closed_surface,
    pinched_torus,
    s3_unknot_double_data,
    spec_to_dict,
    spec_to_text,
    sphere_branched_data,
    suspension_torus,
    torus7,
)

from complexes import (
    annulus,
    codim3_vertex_data,
    figure_eight,
    k4_graph,
    link,
    nullspace_mod_p,
    orbits,
    oriented_vertex_link_cycle,
    solve_mod_p,
    theta_graph,
)
from oracles import brute_betti


def test_graph_bases_are_connected_with_free_pi1():
    for c, rank in ((hexagon(), 1), (figure_eight(), 2), (theta_graph(), 2),
                    (k4_graph(), 3)):
        pres = edge_path_presentation(c, min(c.vertices))
        assert pres.relators == ()
        assert len(pres.generators) == rank


def test_annulus_is_a_cylinder():
    c = annulus()
    assert betti_numbers(c) == (1, 1, 0)
    assert c.euler_characteristic() == 0


def test_orientability():
    for c in (octahedron(), torus7()):
        signs = orient_closed_surface(c)
        assert set(signs.values()) <= {1, -1}
        assert len(signs) == c.n_simplices(2)


def test_oriented_link_cycles_cover_the_link():
    c = octahedron()
    signs = orient_closed_surface(c)
    for v in c.vertices:
        cycle = oriented_vertex_link_cycle(c, signs, v)
        assert len(cycle) == link(c, (v,)).n_simplices(1)
        # consecutive directed edges chain up
        for (a, b), (c2, d2) in zip(cycle, cycle[1:]):
            assert b == c2


def test_meridian_orientations_sum_to_zero():
    # with a coherent orientation the meridian classes sum to zero, so the
    # all-ones target is solvable exactly when the degree divides the count
    with pytest.raises(InputError, match=re.escape("3 meridians mapping to a d-cycle need d | points; got degree 2")):
        sphere_branched_data(3, 2)
    with pytest.raises(InputError, match=re.escape("4 meridians mapping to a d-cycle need d | points; got degree 3")):
        sphere_branched_data(4, 3)
    sphere_branched_data(6, 3)  # 3 | 6: solvable


def test_sphere_branched_rejects_bad_params():
    with pytest.raises(InputError, match="the octahedron model supports 2 to 6 branch points"):
        sphere_branched_data(8, 2)
    for degree in (1, 0, -2):
        with pytest.raises(InputError, match="^degree must be at least 2$"):
            sphere_branched_data(4, degree)


# every (points, degree) with 2 <= degree <= points <= 6 and degree | points
SPHERE_PAIRS = [(n, d) for n in range(2, 7) for d in range(2, n + 1) if n % d == 0]


@st.composite
def shipped_cover_data(draw):
    """The data of a fixture with a monodromy, as the `fixture` command writes it."""
    name = draw(st.sampled_from(["sphere-branched", "s3-unknot-double", "circle-cover"]))
    if name == "sphere-branched":
        return sphere_branched_data(*draw(st.sampled_from(SPHERE_PAIRS)))
    if name == "s3-unknot-double":
        return s3_unknot_double_data()
    perm = tuple(draw(st.permutations(range(draw(st.integers(1, 9))))))
    return circle_cover_data(len(perm), perm)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shipped_cover_data())
def test_fixture_spec_loads_back_its_assignments(data):
    y, r, rep = data
    loaded = load_spec(parse_spec_text(spec_to_text(spec_to_dict(y, r, rep))))
    assert loaded.monodromy == rep and rep.basepoint is not None
    assert loaded.cover_spec().presentation == BranchedCoverSpec(y, r, rep).presentation


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shipped_cover_data(), st.data())
def test_validate_monodromy_reads_the_assignments_in_any_order(data, draw):
    y, r, rep = data
    pres = BranchedCoverSpec(y, r, rep).presentation
    edges = draw.draw(st.permutations(list(rep.assignments)))
    shuffled = MonodromyRep(rep.degree, {e: rep.assignments[e] for e in edges})
    assert validate_monodromy(pres, shuffled) == validate_monodromy(pres, rep)


@pytest.mark.parametrize("points,degree", SPHERE_PAIRS)
def test_sphere_branched_verifies_at_every_degree(points, degree):
    y, r, rep = sphere_branched_data(points, degree)
    spec = BranchedCoverSpec(y, r, rep)
    table = spec.table
    signs = orient_closed_surface(y.complex)
    cycle = tuple((i + 1) % degree for i in range(degree))
    for (v,) in r.complex.simplices_of_dim(0):  # every oriented meridian maps to c
        loop = [u for u, _ in oriented_vertex_link_cycle(y.complex, signs, v)]
        assert transport_along(table, loop + loop[:1], degree) == cycle
    report = verify_branched(spec)
    assert report.all_equal and report.internal_ok
    assert [row.orbit_count for row in report.fiber.rows] == [1] * points
    # Riemann-Hurwitz: chi = 2d - points(d - 1), and b1 = 2 - chi
    chi = 2 * degree - points * (degree - 1)
    assert report.betti_cover == (1, 2 - chi, 1) == (1, (points - 2) * (degree - 1), 1)


def test_solve_mod_p():
    # x0 + x1 = 1, x1 = 1 over GF(2)
    sol = solve_mod_p([[1, 1], [0, 1]], [1, 1], 2, 2)
    assert sol == [0, 1]
    assert solve_mod_p([[1], [1]], [0, 1], 1, 3) is None


def test_nullspace_mod_p():
    basis = nullspace_mod_p([[1, 1, 0]], 3, 2)
    assert len(basis) == 2
    for vec in basis:
        assert (vec[0] + vec[1]) % 2 == 0


def test_sphere_branched_data_is_consistent():
    y, r, rep = sphere_branched_data(6, 2)
    assert y.dim == 2
    assert r.complex.n_simplices(0) == 6
    spec = BranchedCoverSpec(y, r, rep)
    assert orbits(fox_complete(spec)) == dict.fromkeys(spec.branch_simplices(), 1)


def test_unknot_data_is_consistent():
    y, r, rep = s3_unknot_double_data()
    assert y.dim == 3
    assert betti_numbers(r.complex) == (1, 1)   # the branch locus is a circle
    assert betti_numbers(y.complex) == (1, 0, 0, 1)


def test_suspension_torus_homology():
    st = suspension_torus()
    assert betti_numbers(st.complex) == brute_betti(st.complex.all_simplices()) \
        == (1, 0, 2, 1)


def test_pinched_torus_is_pseudomanifold():
    pt = pinched_torus()
    assert pt.complex.euler_characteristic() == 1
    pinch = pt.level(0).vertices[0]
    lk = link(pt.complex, (pinch,))
    assert betti_numbers(lk) == (2, 2)  # two disjoint circles


def test_branching_at_pinch_fails_flatness_shadow():
    # the punctured star of the pinch vertex is disconnected, so the cover
    # cannot be built: one message
    pt = pinched_torus()
    pinch = pt.level(0).vertices[0]
    from branchcover.simplicial import SimplicialComplex
    from branchcover.stratified import StratifiedComplex
    r = StratifiedComplex(SimplicialComplex([(pinch,)]))
    bverts = {pinch}
    from branchcover.simplicial import full_subcomplex
    complement = full_subcomplex(pt.complex,
                                 [v for v in pt.complex.vertices if v not in bverts])
    pres = edge_path_presentation(complement, min(complement.vertices))
    rep = MonodromyRep(1, dict.fromkeys(pres.generators, (0,)))
    spec = BranchedCoverSpec(pt, r, rep)
    message = re.escape(f"punctured star of branch simplex [{pinch}] is not connected")
    with pytest.raises(InputError, match=f"^{message}$"):
        fox_complete(spec)


def test_fiber_cardinality_constant_on_refined_strata():
    from branchcover.covering import refine_stratification
    for builder, args in ((sphere_branched_data, (6, 2)),
                          (sphere_branched_data, (3, 3)),
                          (s3_unknot_double_data, ())):
        y, r, rep = builder(*args)
        cards = orbits(fox_complete(BranchedCoverSpec(y, r, rep)))
        refined = refine_stratification(y, r)
        for stratum in refined.strata():
            values = {cards[s] for s in stratum.simplices if s in cards}
            assert len(values) <= 1


def test_codim3_only_identity_monodromy_validates():
    # the punctured-star complement of a vertex in the 3-sphere is simply
    # connected, so relators force every generator to the identity
    y, r, rep = codim3_vertex_data(2)
    pres = BranchedCoverSpec(y, r, rep).presentation
    swapped = dict(rep.assignments)
    swapped[pres.generators[0]] = (1, 0)
    from branchcover.covering import validate_monodromy
    with pytest.raises(InputError, match=r"relator \d+ evaluates to \[1, 0\]"):
        validate_monodromy(pres, MonodromyRep(2, swapped))
