import functools
import random
from collections import Counter
from itertools import combinations
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from branchcover.covering import (
    BranchedCoverSpec,
    MonodromyRep,
    complement_connectivity_check,
    complement_presentation,
    compose_perms,
    fox_complete,
    identity_perm,
    invert_perm,
    local_monodromy_group,
    orbit_count,
    refine_stratification,
    riemann_hurwitz_check,
    transport_along,
    validate_monodromy,
    _star_off,
)
from branchcover.errors import InputError
from branchcover.presentation import edge_path_presentation
from branchcover.simplicial import (
    SimplicialComplex,
    betti_numbers,
    components,
)
from branchcover.specfile import load_spec, parse_spec_text
from branchcover.stratified import EMPTY_STRATIFIED, StratifiedComplex
from branchcover.fixtures import (
    circle_cover_data,
    hexagon,
    octahedron,
    pinched_torus,
    s3_unknot_double_data,
    sphere_branched_data,
    suspension_torus,
    torus7,
)

from complexes import codim3_vertex_data, nullspace_mod_p, orbits, relator_rows, star
from oracles import (
    RelatorViolatedMatrix,
    RepresentationQ,
    brute_star,
    fibers_by_projection,
    orbits_of,
    permutation_matrix,
    pullback_stratification,
    riemann_hurwitz_chi,
    sheet_cover,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
# the golden specs; sweep.json pins command outputs (test_sweep.py)
GOLDEN_SPECS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "sweep.json")


# ---------------------------------------------------------------------------
# monodromy validation


def test_validate_hexagon_swap():
    pres = edge_path_presentation(hexagon(), 0)
    validate_monodromy(pres, MonodromyRep(2, {(3, 4): (1, 0)}))


def test_validate_full_triangle_swap_fails():
    from complexes import full_simplex
    pres = edge_path_presentation(full_simplex(2), 0)
    with pytest.raises(InputError, match=re.escape("relator 0 evaluates to [1, 0]")):
        validate_monodromy(pres, MonodromyRep(2, {(1, 2): (1, 0)}))


def test_validate_identity_always_ok():
    for c in (hexagon(), octahedron(), torus7()):
        pres = edge_path_presentation(c, 0)
        validate_monodromy(pres, MonodromyRep(3, dict.fromkeys(pres.generators, (0, 1, 2))))


def test_validate_rejects_non_permutation():
    pres = edge_path_presentation(hexagon(), 0)
    with pytest.raises(InputError, match=re.escape("image of generator 3->4 is not a permutation: [0, 0]")):
        validate_monodromy(pres, MonodromyRep(2, {(3, 4): (0, 0)}))


def test_validate_rejects_missing_generator():
    pres = edge_path_presentation(hexagon(), 0)
    with pytest.raises(InputError, match="no image assigned to generator 3->4"):
        validate_monodromy(pres, MonodromyRep(2, {}))


def test_validate_rejects_unknown_edge_before_missing_generator():
    pres = edge_path_presentation(hexagon(), 0)
    with pytest.raises(InputError, match="0->1 is not a generator edge of the presentation"):
        validate_monodromy(pres, MonodromyRep(2, {(0, 1): (1, 0)}))


def test_perm_helpers():
    p = (1, 2, 0)
    assert compose_perms(invert_perm(p), p) == (0, 1, 2)
    assert orbit_count([p], 3) == len(orbits_of([p], 3)) == 1
    assert orbit_count([(1, 0, 2)], 3) == 2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 9).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.permutations(range(d)), max_size=4))))
def test_orbit_count_matches_union_find_oracle(family):
    d, perms = family
    perms = [tuple(p) for p in perms]
    assert orbit_count(perms, d) == len(orbits_of(perms, d))
    assert orbit_count(iter(perms), d) == len(orbits_of(perms, d))  # any iterable


@functools.cache
def _golden_presentation_and_images(name):
    loaded = load_spec(parse_spec_text((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
    return loaded.cover_spec().presentation, loaded.monodromy


@st.composite
def monodromy_cases(draw):
    """A golden spec's valid monodromy with its sheets relabelled, and perhaps
    one image replaced; or random images on a random presentation whose
    relators are random words or words w w^-1, which hold in any group."""
    name = draw(st.sampled_from(["sphere-p2-d2", "sphere-p3-d3", "s3-unknot-double", None]))
    if name is None:
        n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
        relators = []
        for w in draw(st.lists(st.lists(letter, min_size=1, max_size=4), max_size=5)):
            if draw(st.booleans()):
                w = w + [(gi, -sign) for gi, sign in reversed(w)]
            relators.append(tuple(w))
        generators = tuple((i, i + 1) for i in range(n))
        pres = SimpleNamespace(generators=generators, relators=tuple(relators),
                               gen_index={e: i for i, e in enumerate(generators)},
                               tree_edges=frozenset())
        images = draw(st.lists(st.permutations(range(d)).map(tuple), min_size=n, max_size=n))
        return pres, MonodromyRep(d, dict(zip(generators, images)))
    pres, rep = _golden_presentation_and_images(name)
    d = rep.degree
    sigma = tuple(draw(st.permutations(range(d))))
    assignments = {e: compose_perms(sigma, compose_perms(p, invert_perm(sigma)))
                   for e, p in rep.assignments.items()}
    if draw(st.booleans()):
        e = draw(st.sampled_from(pres.generators))
        assignments[e] = tuple(draw(st.permutations(range(d))))
    return pres, MonodromyRep(d, assignments)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(monodromy_cases())
def test_validate_monodromy_matches_matrix_representation(case):
    """Accepts exactly when the permutation matrices satisfy every relator
    and then returns the transport table; a rejection names the first
    failing relator and its value, evaluated one composition at a time."""
    pres, rep = case
    d = rep.degree
    images = [rep.assignments[e] for e in pres.generators]
    try:
        RepresentationQ(pres, d, tuple(map(permutation_matrix, images))).validate()
        first_bad = None
    except RelatorViolatedMatrix as exc:
        first_bad = int(str(exc).split()[1])
    if first_bad is None:
        table = validate_monodromy(pres, rep)
        ident = identity_perm(d)
        want = {e: ident for (u, v) in pres.tree_edges for e in ((u, v), (v, u))}
        for (u, v), p in rep.assignments.items():
            assert compose_perms(table[(v, u)], p) == ident
            want[(u, v)], want[(v, u)] = p, table[(v, u)]
        assert table == want
        return
    acc = identity_perm(d)
    for gi, sign in pres.relators[first_bad]:
        acc = compose_perms(images[gi] if sign > 0 else invert_perm(images[gi]), acc)
    with pytest.raises(InputError, match="relator") as info:
        validate_monodromy(pres, rep)
    assert str(info.value) == f"relator {first_bad} evaluates to {list(acc)}"


@pytest.mark.parametrize("path", [p for p in GOLDEN_SPECS
                                  if '"monodromy"' in p.read_text(encoding="utf-8")],
                         ids=lambda p: p.stem)
def test_global_tree_paths_transport_by_the_identity(path):
    """The tree path from the basepoint to every complement vertex carries
    the identity, so ``local_monodromy_group`` may read its loops at the
    least vertex of a punctured star without conjugating them."""
    spec = load_spec(parse_spec_text(path.read_text(encoding="utf-8"))).cover_spec()
    ident = identity_perm(spec.degree)
    for v in spec.complement.vertices:
        assert transport_along(spec.table, spec.presentation.tree_path(v), spec.degree) == ident


# ---------------------------------------------------------------------------
# covers of the complement


def test_hexagon_triple_cyclic_cover():
    y, r, rep = circle_cover_data(3, (1, 2, 0))
    cover = fox_complete(BranchedCoverSpec(y, r, rep))
    assert cover.total.euler_characteristic() == 0
    assert len(components(cover.total)) == 1
    assert cover.total.n_simplices(0) == 18


def test_hexagon_identity_cover_three_components():
    y, r, rep = circle_cover_data(3, (0, 1, 2))
    cover = fox_complete(BranchedCoverSpec(y, r, rep))
    assert len(components(cover.total)) == 3
    assert betti_numbers(cover.total) == (3, 3)


def test_hexagon_swap_in_s3_two_components():
    y, r, rep = circle_cover_data(3, (1, 0, 2))
    cover = fox_complete(BranchedCoverSpec(y, r, rep))
    # orbits of <(0 1)> in degree 3: {0,1} and {2}
    assert len(components(cover.total)) == 2
    assert betti_numbers(cover.total) == (2, 2)


def test_component_count_equals_orbits_randomized():
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randint(1, 6)
        perm = tuple(rng.sample(range(d), d))
        y, r, rep = circle_cover_data(d, perm)
        cover = fox_complete(BranchedCoverSpec(y, r, rep))
        assert len(components(cover.total)) == len(orbits_of([perm], d))
        # covering property: d simplices over every base simplex
        assert Counter(cover.projection.values()) == dict.fromkeys(y.complex.all_simplices(), d)


def test_cover_star_injectivity():
    y, r, rep = circle_cover_data(3, (1, 2, 0))
    cover = fox_complete(BranchedCoverSpec(y, r, rep))
    for v in cover.total.vertices:
        st = star(cover.total, (v,))
        images = [cover.projection[s] for s in st.all_simplices()]
        assert len(images) == len(set(images))


# ---------------------------------------------------------------------------
# local monodromy and Fox completion


def test_local_monodromy_of_double_cover_branch_point():
    y, r, rep = sphere_branched_data(2, 2)
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    for tau in spec.branch_simplices():
        gens = local_monodromy_group(cover, tau)
        assert gens == ((1, 0),)
        assert orbits(cover)[tau] == 1


def test_local_monodromy_trivial():
    y, r, rep = codim3_vertex_data(3)
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    (tau,) = spec.branch_simplices()
    assert local_monodromy_group(cover, tau) == ((0, 1, 2),)
    assert orbits(cover) == {tau: 3}


def test_local_monodromy_cyclic_triple():
    y, r, rep = sphere_branched_data(3, 3)
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    for tau in spec.branch_simplices():
        (g,) = local_monodromy_group(cover, tau)
        assert sorted(g) == [0, 1, 2] and g != (0, 1, 2)
        assert orbit_count([g], 3) == 1


def test_fox_complete_sphere_two_points():
    y, r, rep = sphere_branched_data(2, 2)
    cover = fox_complete(BranchedCoverSpec(y, r, rep))
    assert cover.total.euler_characteristic() == 2
    assert betti_numbers(cover.total) == (1, 0, 1)


def test_fox_complete_genus_two():
    y, r, rep = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    # Riemann-Hurwitz oracle: chi = 2*2 - 6*(2-1) = -2
    assert riemann_hurwitz_chi(2, 2, [1] * 6) == -2
    assert cover.total.euler_characteristic() == -2
    assert betti_numbers(cover.total) == (1, 4, 1)
    assert riemann_hurwitz_check(cover, orbits(cover)) == -2


def test_fox_complete_empty_branch_is_plain_cover():
    specs = [BranchedCoverSpec(*circle_cover_data(d, tuple((i + 1) % d for i in range(d))))
             for d in range(1, 6)]
    # a transposition cover of degree 4 built from a Z/2 class, as in
    # test_ih_of_unstratified_base_is_twisted_homology
    c = torus7()
    pres = edge_path_presentation(c, min(c.vertices))
    exponents = nullspace_mod_p(relator_rows(pres), len(pres.generators), 2)[0]
    swap, fixed = (1, 0, 2, 3), (0, 1, 2, 3)
    rep = MonodromyRep(4, {g: swap if e else fixed for g, e in zip(pres.generators, exponents)})
    assert swap in rep.assignments.values()
    specs.append(BranchedCoverSpec(StratifiedComplex(c), EMPTY_STRATIFIED, rep))
    for spec in specs:
        assert fox_complete(spec).projection == sheet_cover(spec)


@pytest.mark.parametrize("data", [lambda: sphere_branched_data(3, 3),
                                  lambda: sphere_branched_data(6, 3),
                                  s3_unknot_double_data],
                         ids=["sphere-p3-d3", "sphere-p6-d3", "s3-unknot-double"])
def test_fox_complete_sheets_match_oracle_off_the_locus(data):
    spec = BranchedCoverSpec(*data())
    cover = fox_complete(spec)
    sheets = {lift: sig for lift, sig in cover.projection.items()
              if not spec.branch_vertices & set(sig)}
    assert spec.branch_vertices and len(sheets) < len(cover.projection)
    assert sheets == sheet_cover(spec)


def test_fox_three_points_degree_three():
    y, r, rep = sphere_branched_data(3, 3)
    cover = fox_complete(BranchedCoverSpec(y, r, rep))
    assert riemann_hurwitz_chi(3, 2, [1, 1, 1]) == 0
    assert cover.total.euler_characteristic() == 0
    assert betti_numbers(cover.total) == (1, 2, 1)
    assert riemann_hurwitz_check(cover, orbits(cover)) == 0


def test_unknot_double_cover_is_sphere():
    y, r, rep = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    assert betti_numbers(cover.total) == (1, 0, 0, 1)
    for tau in spec.branch_simplices():
        assert orbits(cover)[tau] == 1
        assert len(cover.fibers[tau]) == 1


MONODROMY_SPECS = [p for p in GOLDEN_SPECS if '"monodromy"' in p.read_text(encoding="utf-8")]


@pytest.mark.parametrize("path", MONODROMY_SPECS, ids=lambda p: p.stem)
def test_cover_records_the_lifts_of_each_branch_simplex(path):
    """The cover's fibers are keyed by the branch simplices alone, each the
    ascending tuple of the lifts that the projection maps onto it."""
    spec = load_spec(parse_spec_text(path.read_text(encoding="utf-8"))).cover_spec()
    cover = fox_complete(spec)
    assert cover.fibers == fibers_by_projection(cover.projection, spec.branch_simplices())


@pytest.mark.parametrize("path", MONODROMY_SPECS, ids=lambda p: p.stem)
def test_cover_keeps_the_punctured_star_of_each_branch_simplex(path):
    """The cover's stars are keyed by the branch simplices, in their order,
    each the closure of the base simplices containing it restricted to the
    vertices off the locus."""
    spec = load_spec(parse_spec_text(path.read_text(encoding="utf-8"))).cover_spec()
    cover = fox_complete(spec)
    assert tuple(cover.stars) == spec.branch_simplices()
    for tau in spec.branch_simplices():
        cofaces = [s for s in spec.base.complex.simplices if set(tau) <= set(s)]
        closed = {f for s in cofaces for k in range(1, len(s) + 1) for f in combinations(s, k)}
        off_locus = [f for f in closed if not spec.branch_vertices & set(f)]
        assert off_locus and cover.stars[tau] == SimplicialComplex(off_locus)


@pytest.mark.parametrize("name, stars", [("susp-cover-seed1", 8), ("s3-unknot-double", 6)])
def test_fox_complete_takes_components_once_per_punctured_star(name, stars, monkeypatch):
    """Branch simplices with equal punctured stars share the components of
    their preimage: one components call per distinct star, each result new."""
    from branchcover import covering
    loaded = load_spec(parse_spec_text((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
    spec = loaded.cover_spec()
    real, results = covering.connected_components, []

    def spy(nodes, edges):
        results.append(real(nodes, edges))
        return results[-1]

    monkeypatch.setattr(covering, "connected_components", spy)
    cover = fox_complete(spec)
    assert len(set(cover.stars.values())) == stars
    assert len(results) == len({tuple(map(tuple, comps)) for comps in results}) == stars


def test_branch_must_be_full():
    # two adjacent octahedron vertices: the joining edge is missing
    y = StratifiedComplex(octahedron())
    r = StratifiedComplex(SimplicialComplex([(1,), (2,)]))
    with pytest.raises(InputError, match="branch locus is not a full subcomplex of the base"):
        BranchedCoverSpec(y, r, MonodromyRep(1, {}))


def test_branch_codimension_enforced():
    y = StratifiedComplex(hexagon())
    r = StratifiedComplex(SimplicialComplex([(0,)]))
    with pytest.raises(InputError, match="branch locus has dimension 0 in a base of dimension 1"):
        BranchedCoverSpec(y, r, MonodromyRep(1, {}))


# ---------------------------------------------------------------------------
# connectivity checks


def test_connectivity_check_passes_on_sphere_fixture():
    y, r, rep = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    report = complement_connectivity_check(cover)
    assert report.ok
    assert report.checked_base == 6
    assert report.checked_cover == 6


def test_connectivity_check_passes_on_unknot():
    # the check takes the cover; the base stars need none, since
    # fox_complete builds no cover over a disconnected one
    y, r, rep = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep)
    report = complement_connectivity_check(fox_complete(spec))
    assert report.ok and report.checked_base == 12 and report.checked_cover == 12
    assert report.base_failures == ()


def _susp_cover_bench_spec(monkeypatch) -> BranchedCoverSpec:
    """The susp-cover benchmark input at seed 1, from the benchmark's generator."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import make_job
    return load_spec(parse_spec_text(make_job("susp-cover", 1).spec_text)).cover_spec()


def test_loaded_spec_holds_one_complement(monkeypatch):
    """The spec keeps the complex it presented, not an equal copy."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import make_job
    data = parse_spec_text(make_job("susp-cover", 1).spec_text)
    loaded = load_spec(data)
    spec = loaded.cover_spec()
    assert spec.presentation.complex is spec.complement
    pres = complement_presentation(loaded.base.complex, frozenset(loaded.branch.complex.vertices),
                                   data["monodromy"].get("basepoint"))
    assert spec.presentation == pres and spec.complement == pres.complex


def test_load_spec_and_cover_spec_build_the_complement_once(monkeypatch):
    """The loader presents no complement and the spec presents it once: one
    full subcomplex of the base for ``load_spec`` and ``cover_spec()`` together."""
    from branchcover import covering
    real = covering.full_subcomplex
    built = []

    def spy(c, vertices):
        built.append(c)
        return real(c, vertices)

    monkeypatch.setattr(covering, "full_subcomplex", spy)
    loaded = load_spec(parse_spec_text(
        (GOLDEN / "susp-cover-seed1.json").read_text(encoding="utf-8")))
    assert built == []
    spec = loaded.cover_spec()
    assert built == [loaded.base.complex] and built[0] is loaded.base.complex
    assert spec.presentation.complex is spec.complement


# the golden s3-unknot-double spec is the fixture's
@pytest.mark.parametrize("name", ["sphere-branched", "susp-cover"]
                         + [p.stem for p in MONODROMY_SPECS])
def test_star_of_every_lift_and_branch_simplex_matches_brute_star(name, monkeypatch):
    """The punctured star of each branch simplex in the base, and of each of
    its lifts in the cover, is the brute-force star less every simplex that
    meets the locus, or the vertices over it."""
    if name == "susp-cover":
        spec = _susp_cover_bench_spec(monkeypatch)
    elif name == "sphere-branched":
        spec = BranchedCoverSpec(*sphere_branched_data(6, 2))
    else:
        spec = load_spec(parse_spec_text((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
                         ).cover_spec()
    cover = fox_complete(spec)
    over_locus = {v for w in spec.branch_vertices for (v,) in cover.fibers[(w,)]}
    pairs = [(cover.total, lift, over_locus) for tau in spec.branch_simplices()
             for lift in cover.fibers[tau]]
    assert bool(pairs) == bool(spec.branch_vertices)
    pairs += [(spec.base.complex, tau, spec.branch_vertices) for tau in spec.branch_simplices()]
    for c, s, removed in pairs:
        off = [t for t in brute_star(c.simplices, s) if removed.isdisjoint(t)]
        assert _star_off(c, s, removed) == SimplicialComplex(off)


# ---------------------------------------------------------------------------
# refined and pulled-back stratifications


def test_refine_manifold_with_point_branch():
    y, r, _rep = sphere_branched_data(6, 2)
    refined = refine_stratification(y, r)
    assert refined.level(0).n_simplices(0) == 6
    strata = refined.strata()
    assert sum(1 for s in strata if s.level == 0) == 6
    assert sum(1 for s in strata if s.level == 2) == 1


def test_refine_pinched_torus_with_two_point_branch():
    pt = pinched_torus()
    pinch = pt.level(0).vertices[0]
    smooth = next(v for v in pt.complex.vertices if v != pinch)
    r = StratifiedComplex(SimplicialComplex([(pinch,), (smooth,)]))
    refined = refine_stratification(pt, r)
    strata = refined.strata()
    # top minus branch, the pinch point and the smooth point
    assert len(strata) == 3
    assert {s.level for s in strata} == {0, 2}


def test_refine_suspension_circle_through_cone_points():
    st = suspension_torus()
    # circle through both apexes: two arcs of the suspension of a torus vertex
    circle = [(7,), (8,), (0,), (1,)] + [tuple(sorted((0, 7))), tuple(sorted((0, 8))),
                                         tuple(sorted((1, 7))), tuple(sorted((1, 8)))]
    r_complex = SimplicialComplex(circle)
    assert betti_numbers(r_complex) == (1, 1)
    r = StratifiedComplex(r_complex)
    refined = refine_stratification(st, r)
    pieces = refined.strata()
    # 2 arcs at level 1, 2 cone points at level 0, 1 top stratum
    assert sum(1 for s in pieces if s.level == 1) == 2
    assert sum(1 for s in pieces if s.level == 0) == 2
    assert sum(1 for s in pieces if s.level == 3) == 1


def test_pullback_stratification_unbranched_trivial():
    y, r, rep = circle_cover_data(2, (1, 0))
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    pulled = pullback_stratification(cover, y)
    assert pulled.singular_set.n_simplices() == 0


def test_pullback_stratification_genus_two():
    y, r, rep = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    refined = refine_stratification(y, r)
    pulled = pullback_stratification(cover, refined)
    assert pulled.level(0).n_simplices(0) == 6  # one preimage point per branch point
    pulled.full_check()


def test_pullback_stratification_unknot():
    y, r, rep = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    refined = refine_stratification(y, r)
    pulled = pullback_stratification(cover, refined)
    # preimage of the branch circle is a circle
    level1 = pulled.level(1)
    assert betti_numbers(level1) == (1, 1)
    pulled.full_check()


def test_riemann_hurwitz_unbranched_multiplicativity():
    # chi of an unbranched d-cover is d times chi of the base
    for d, perm in ((2, (1, 0)), (3, (1, 2, 0)), (4, (1, 2, 3, 0))):
        y, r, rep = circle_cover_data(d, perm)
        cover = fox_complete(BranchedCoverSpec(y, r, rep))
        assert riemann_hurwitz_check(cover, orbits(cover)) == d * y.complex.euler_characteristic()


def test_fox_completed_surface_cover_is_a_closed_surface():
    # every edge of the total space lies in exactly two triangles and every
    # vertex link is a circle: the completion really is a closed surface
    from complexes import link as link_of
    y, r, rep = sphere_branched_data(6, 2)
    cover = fox_complete(BranchedCoverSpec(y, r, rep))
    x = cover.total
    for e in x.simplices_of_dim(1):
        cofaces = [t for t in x.simplices_of_dim(2) if set(e) <= set(t)]
        assert len(cofaces) == 2
    for v in x.vertices:
        assert betti_numbers(link_of(x, (v,))) == (1, 1)


def test_fox_completed_unknot_cover_is_a_closed_3_manifold():
    from complexes import link as link_of
    y, r, rep = s3_unknot_double_data()
    cover = fox_complete(BranchedCoverSpec(y, r, rep))
    x = cover.total
    for t in x.simplices_of_dim(2):
        cofaces = [s for s in x.simplices_of_dim(3) if set(t) <= set(s)]
        assert len(cofaces) == 2
    for v in x.vertices:
        assert betti_numbers(link_of(x, (v,))) == (1, 0, 1)  # links are 2-spheres


def test_branched_decomposition_degree_three_six_points():
    y, r, rep = sphere_branched_data(6, 3)
    spec = BranchedCoverSpec(y, r, rep)
    # chi = 3*2 - 6*(3-1) = -6: genus 4
    cover = fox_complete(spec)
    assert riemann_hurwitz_check(cover, orbits(cover)) == -6
    from branchcover.verify import verify_branched
    report = verify_branched(spec, "lower")
    assert report.betti_cover == (1, 8, 1)
    assert report.ih_kernel == (0, 8, 0)
    assert report.all_equal and report.internal_ok
