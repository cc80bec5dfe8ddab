import re
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from branchcover.covering import refine_stratification
from branchcover.errors import InputError
from branchcover.simplicial import (
    SimplicialComplex,
    barycentric_subdivide_complex,
    barycentric_subdivide_set,
    betti_numbers,
    full_subcomplex,
    validate_complex,
)
from branchcover.specfile import load_spec, parse_spec_text
from branchcover.stratified import EMPTY_STRATIFIED, StratifiedComplex, subdivide_with_subcomplexes
from branchcover.commands import cone_stratified
from branchcover.fixtures import (
    boundary_simplex,
    circle_cover_data,
    hexagon,
    octahedron,
    pinched_torus,
    s3_unknot_double_data,
    sphere_branched_data,
    suspension_torus,
    torus7,
)

from complexes import barycentric_subdivide, subdivision_cases
from oracles import bfs_strata, close_faces, subdivide_set_all_chains

GOLDEN = Path(__file__).resolve().parent / "golden"
# the golden specs; sweep.json pins command outputs (test_sweep.py)
GOLDEN_SPECS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "sweep.json")
from stalks import induced_link, induced_star, min_level


def test_trivial_stratification_levels():
    sc = StratifiedComplex(octahedron())
    assert sc.dim == 2
    assert sc.singular_set.n_simplices() == 0
    assert sc.level(-1).n_simplices() == 0
    assert sc.level(2) == octahedron()


def test_level_containment_enforced():
    oct_ = octahedron()
    inside = SimplicialComplex([(0,)])
    outside = SimplicialComplex([(99,)])
    StratifiedComplex(oct_, [inside])
    with pytest.raises(InputError, match="filtration level 1 is not contained in level 2"):
        StratifiedComplex(oct_, [outside])


def test_level_dimension_bound():
    oct_ = octahedron()
    too_big = SimplicialComplex([(0,), (1,), (0, 1)])
    with pytest.raises(InputError, match="filtration level 0 contains a simplex of dimension 1"):
        StratifiedComplex(oct_, [too_big])  # level 0 with a 1-simplex


def test_purity_enforced():
    # a 2-complex with a dangling edge is not a pseudomanifold
    bad = validate_complex([[0], [1], [2], [3], [0, 1], [0, 2], [1, 2], [0, 3], [0, 1, 2]])
    with pytest.raises(InputError, match=re.escape("maximal simplex [0, 3] has dimension 1, expected 2")):
        StratifiedComplex(bad)


def test_top_simplices_not_singular():
    oct_ = octahedron()
    with pytest.raises(InputError, match="filtration level 0 contains a simplex of dimension 2"):
        StratifiedComplex(oct_, [oct_])


def test_min_level_and_strata_of_suspension_torus():
    st = suspension_torus()
    assert min_level(st, (7,)) == 0
    assert min_level(st, (0,)) == 3
    strata = st.strata()
    # two apex strata and one top stratum
    assert [s.level for s in strata] == [0, 0, 3]
    assert strata[0].simplices == ((7,),)
    assert strata[1].simplices == ((8,),)
    assert strata[2].dim == 3


def test_strata_of_pinched_torus():
    pt = pinched_torus()
    strata = pt.strata()
    assert len(strata) == 2
    assert strata[0].level == 0 and strata[0].dim == 0
    assert strata[1].level == 2


GOLDEN_CASES = subdivision_cases(GOLDEN_SPECS)


@pytest.mark.parametrize("path, subdivisions", GOLDEN_CASES,
                         ids=[f"{p.stem}-{s}" for p, s in GOLDEN_CASES])
def test_strata_match_the_definition_on_golden_specs(path, subdivisions):
    """The base, the branch locus and their refinement, as loaded from each
    golden spec at 0 and 1 subdivisions: levels, dims, simplices and order."""
    data = parse_spec_text(path.read_text(encoding="utf-8"))
    loaded = load_spec(dict(data, monodromy=None,
                            options=dict(data.get("options", {}), subdivisions=subdivisions)))
    for sc in (loaded.base, loaded.branch, refine_stratification(loaded.base, loaded.branch)):
        assert list(map(tuple, sc.strata())) == bfs_strata(sc.complex.simplices, sc.levels)


def test_full_check_passes_on_fixtures():
    suspension_torus().full_check()
    pinched_torus().full_check()


def test_full_check_failure():
    oct_ = octahedron()
    # two adjacent vertices do not span a full subcomplex (the edge is missing)
    level = SimplicialComplex([(0,), (1,)])
    sc = StratifiedComplex(oct_, [level])
    with pytest.raises(InputError, match=re.escape("filtration levels [0, 1] are not full subcomplexes")):
        sc.full_check()


def test_barycentric_subdivide_stratified():
    st = suspension_torus()
    sub = barycentric_subdivide(st)
    assert betti_numbers(sub.complex) == betti_numbers(st.complex)
    assert sub.singular_set.n_simplices(0) == 2
    sub.full_check()
    # strata counts are preserved
    assert len(sub.strata()) == len(st.strata())


def test_induced_star_and_link_of_cone_point():
    st = suspension_torus()
    lk = induced_link(st, 7)
    assert lk.complex == torus7()
    assert lk.singular_set.n_simplices() == 0
    star_sc = induced_star(st, 7)
    assert star_sc.dim == 3
    assert min_level(star_sc, (7,)) == 0


def test_induced_link_too_coarse_for_adjacent_marked_points():
    # two adjacent isolated singular vertices: the 1-dimensional link of
    # either would need a forbidden codimension-1 stratum, so the
    # triangulation is too coarse and one subdivision is demanded
    oct_ = octahedron()
    level = SimplicialComplex([(1,), (2,)])  # adjacent vertices of the octahedron
    sc = StratifiedComplex(oct_, [level])
    with pytest.raises(InputError, match="link of vertex 1 is 1-dimensional but meets the singular set"):
        induced_link(sc, 1)


def test_cone_stratified_apex_is_deepest():
    link_sc = StratifiedComplex(hexagon())
    cone_sc = cone_stratified(link_sc)
    assert cone_sc.dim == 2
    apex = max(cone_sc.complex.vertices)
    assert min_level(cone_sc, (apex,)) == 0
    cone_sc.full_check()


def test_cone_stratified_of_zero_dim_link():
    two_points = StratifiedComplex(SimplicialComplex([(0,), (1,)]))
    cone_sc = cone_stratified(two_points)
    assert cone_sc.dim == 1
    assert cone_sc.singular_set.n_simplices() == 0  # no singular levels in dim 1


# the fixtures the `fixture` command writes, as (base, branch locus)
SHIPPED_FIXTURES = {
    "sphere-branched": lambda: sphere_branched_data(6, 2)[:2],
    "s3-unknot-double": lambda: s3_unknot_double_data()[:2],
    "circle-cover": lambda: circle_cover_data(2, (1, 0))[:2],
    "suspension-torus": lambda: (suspension_torus(), EMPTY_STRATIFIED),
    "pinched-torus": lambda: (pinched_torus(), EMPTY_STRATIFIED),
}


def _assert_carried_by_all_chain_rule(subdivision, old):
    """The top-simplex index carries ``old`` to the simplices of the subdivision
    whose whole chain lies in ``old``, each listed once."""
    new, b_id, by_top = subdivision
    carried = barycentric_subdivide_set(by_top, old)
    assert len(carried) == len(set(carried))
    assert set(carried) == subdivide_set_all_chains(new, b_id, old)


@pytest.mark.parametrize("name", sorted(SHIPPED_FIXTURES))
def test_subdivided_levels_match_all_chain_rule(name):
    base, branch = SHIPPED_FIXTURES[name]()
    extras = [branch]
    for subdivision in (1, 2):
        subdivided = barycentric_subdivide_complex(base.complex)
        for level in dict.fromkeys(base.levels + tuple(lvl for ex in extras for lvl in ex.levels)):
            _assert_carried_by_all_chain_rule(subdivided, level.simplices)
        if subdivision == 1:
            base, extras = subdivide_with_subcomplexes(base, extras)


SMALL_BASES = {"octahedron": octahedron, "torus7": torus7,
               "boundary-4-simplex": lambda: boundary_simplex(4)}


@lru_cache(maxsize=None)
def _small_base(name: str, subdivisions: int):
    """A small base subdivided ``subdivisions`` times, with its next subdivision."""
    c = SMALL_BASES[name]()
    for _ in range(subdivisions):
        c = barycentric_subdivide_complex(c)[0]
    return c, barycentric_subdivide_complex(c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SMALL_BASES)), st.sampled_from((0, 1)), st.booleans(), st.data())
def test_subdivided_subcomplexes_match_all_chain_rule(name, subdivisions, full, data):
    """Random face-closed subcomplexes: full ones on random vertex sets and
    closures of random simplices, of small bases subdivided 0 or 1 times."""
    c, subdivided = _small_base(name, subdivisions)
    if full:
        old = full_subcomplex(c, data.draw(st.sets(st.sampled_from(c.vertices)))).simplices
    else:
        old = close_faces(data.draw(st.lists(st.sampled_from(c.all_simplices()), max_size=5)))
    _assert_carried_by_all_chain_rule(subdivided, old)
