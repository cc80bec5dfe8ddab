import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from branchcover.covering import (
    BranchedCoverSpec,
    MonodromyRep,
    fox_complete,
    refine_stratification,
)
from branchcover.errors import InputError
from branchcover.intersection import (
    Perversity,
    allowable_simplices,
    ih_betti,
    lower_middle,
    perversity_by_name,
    top_perversity,
    upper_middle,
    zero_perversity,
)
from branchcover.local_systems import LocalSystemQ, kernel_system, twisted_betti
from branchcover.presentation import edge_path_presentation
from branchcover.simplicial import SimplicialComplex, betti_numbers, full_subcomplex
from branchcover.specfile import load_spec, parse_spec_text
from branchcover.stratified import StratifiedComplex
from branchcover.commands import cone_formula_check
from branchcover.fixtures import (
    boundary_simplex,
    cycle_complex,
    hexagon,
    octahedron,
    pinched_torus,
    s3_unknot_double_data,
    sphere_branched_data,
    suspension,
    suspension_torus,
    torus7,
)

from complexes import (
    annulus,
    barycentric_subdivide,
    ih,
    kernel,
    nullspace_mod_p,
    relator_rows,
    subdivision_cases,
)
from oracles import (
    dense,
    ic_betti,
    ic_closed,
    ic_complex,
    matmul,
    pullback_stratification,
    suspension_ih_oracle,
    transport_from_rows,
)
from stalks import complementary, deligne_stalk_check

GOLDEN = Path(__file__).resolve().parent / "golden"
# the golden specs; sweep.json pins command outputs (test_sweep.py)
GOLDEN_SPECS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "sweep.json")


# ---------------------------------------------------------------------------
# perversities


def test_middle_perversities_dim4():
    assert lower_middle(4).values == (0, 0, 1)
    assert upper_middle(4).values == (0, 1, 1)


def test_complementary_of_zero_is_top():
    assert complementary(zero_perversity(4)).values == (0, 1, 2)
    assert complementary(zero_perversity(4)) == top_perversity(4)


def test_complementary_identity():
    for m in (2, 3, 4, 5, 7):
        for p in (zero_perversity(m), lower_middle(m), upper_middle(m)):
            q = complementary(p)
            for k in range(2, m + 1):
                assert p[k] + q[k] == k - 2
    assert complementary(lower_middle(5)) == upper_middle(5)


def test_growth_conditions_enforced():
    with pytest.raises(InputError, match=re.escape("p(2) must be 0")):
        Perversity(3, (1, 1))       # p(2) != 0
    with pytest.raises(InputError, match="perversity steps must be 0 or 1"):
        Perversity(4, (0, 2, 2))    # step of 2
    with pytest.raises(InputError, match="perversity steps must be 0 or 1"):
        Perversity(4, (0, 1, 0))    # decreasing
    with pytest.raises(InputError, match="a perversity needs dimension at least 2"):
        Perversity(1, ())


# ---------------------------------------------------------------------------
# allowability


def _two_sphere_with_marked_vertex():
    # octahedron with vertex 0 marked as an isolated singular point
    oct_ = octahedron()
    return StratifiedComplex(oct_, [SimplicialComplex([(0,)])])


def test_allowable_away_from_singular_set():
    sc = _two_sphere_with_marked_vertex()
    allowed = allowable_simplices(sc, zero_perversity(2))
    assert (1, 2) in allowed
    assert (2, 3, 5) in allowed


def test_edge_through_singular_vertex_not_allowable():
    sc = _two_sphere_with_marked_vertex()
    allowed = allowable_simplices(sc, zero_perversity(2))
    assert (0, 1) not in allowed
    assert (0,) not in allowed


def test_triangle_with_one_singular_vertex_allowable():
    sc = _two_sphere_with_marked_vertex()
    assert (0, 1, 2) in allowable_simplices(sc, zero_perversity(2))


def test_allowability_monotone_in_perversity():
    st = suspension_torus()
    assert allowable_simplices(st, lower_middle(3)) <= allowable_simplices(st, upper_middle(3))


def test_allowability_requires_full_levels():
    oct_ = octahedron()
    sc = StratifiedComplex(oct_, [SimplicialComplex([(1,), (2,)])])
    with pytest.raises(InputError, match=re.escape("filtration levels [0, 1] are not full subcomplexes")):
        allowable_simplices(sc, zero_perversity(2))


# ---------------------------------------------------------------------------
# intersection homology: manifolds


MANIFOLDS = (octahedron, torus7, lambda: boundary_simplex(4),
             lambda: suspension(boundary_simplex(4)))


def test_ih_equals_betti_on_manifolds():
    for fn in MANIFOLDS:
        c = fn()
        sc = StratifiedComplex(c)
        b = betti_numbers(c)
        m = max(c.dim, 2)
        for p in (zero_perversity(m), lower_middle(m), upper_middle(m),
                  top_perversity(m)):
            assert ih(sc, p) == b


def test_ih_octahedron_value():
    assert ih(StratifiedComplex(octahedron()), lower_middle(2)) == (1, 0, 1)


# ---------------------------------------------------------------------------
# intersection homology: singular fixtures
# expected values derived through the cone-formula / Mayer-Vietoris oracle


def test_ih_suspension_torus():
    st = suspension_torus()
    torus_ih = (1, 2, 1)
    # cutoff = 2 - p(3): upper middle truncates at 1, lower middle at 2
    assert suspension_ih_oracle(torus_ih, 1) == (1, 0, 2, 1)
    assert suspension_ih_oracle(torus_ih, 2) == (1, 2, 0, 1)
    assert ih(st, upper_middle(3)) == (1, 0, 2, 1)
    assert ih(st, lower_middle(3)) == (1, 2, 0, 1)


def _load_golden(path):
    return load_spec(parse_spec_text(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("path", [p for p in GOLDEN_SPECS
                                  if _load_golden(p).base.dim in (2, 3)],
                         ids=lambda p: p.stem)
def test_ih_suspension_duality(path):
    # on the refined base, complementary middle perversities pair degrees
    # j and m - j, with trivial and, given a monodromy, kernel coefficients,
    # and so they do on the cover with its pulled-back stratification
    loaded = _load_golden(path)
    refined = refine_stratification(loaded.base, loaded.branch)
    cases = {"trivial": (refined, None)}
    if loaded.monodromy is not None:
        spec = loaded.cover_spec()
        cases["kernel"] = (refined, kernel_system(spec.degree, spec.table))
        cases["cover"] = (pullback_stratification(fox_complete(spec), refined), None)
    m = refined.dim
    for label, (sc, coeff) in cases.items():
        lo = ih(sc, lower_middle(m), coeff)
        up = ih(sc, upper_middle(m), coeff)
        assert all(lo[j] == up[m - j] for j in range(m + 1)), (label, lo, up)


def test_ih_pinched_torus():
    # Mayer-Vietoris with the pinch star (cone over two circles, IH (2,0,0))
    # against the complementary cylinder gives (1, 0, 1); ordinary homology
    # differs in degree 1
    pt = pinched_torus()
    assert betti_numbers(pt.complex) == (1, 1, 1)
    assert ih(pt, lower_middle(2)) == (1, 0, 1)
    assert ih(pt, upper_middle(2)) == (1, 0, 1)


def test_ih_invariant_under_subdivision():
    fixtures = [
        (StratifiedComplex(octahedron()), zero_perversity(2)),
        (pinched_torus(), lower_middle(2)),
        (suspension_torus(), lower_middle(3)),
        (suspension_torus(), upper_middle(3)),
    ]
    for sc, p in fixtures:
        sub = barycentric_subdivide(sc)
        assert ih(sub, p) == ih(sc, p)


def _relabelled(sc: StratifiedComplex, rnd: random.Random) -> StratifiedComplex:
    """``sc`` with its vertices sent to distinct random ids."""
    old = sc.complex.vertices
    new_id = dict(zip(old, rnd.sample(range(3 * len(old)), len(old))))

    def image(c: SimplicialComplex) -> SimplicialComplex:
        return SimplicialComplex({tuple(sorted(map(new_id.__getitem__, s))) for s in c.simplices})

    return StratifiedComplex(image(sc.complex),
                             [image(sc.levels[j]) for j in range(sc.dim - 2, -1, -1)])


STRATIFIED_CASES = subdivision_cases(
    [p for p in GOLDEN_SPECS if parse_spec_text(p.read_text(encoding="utf-8")).get("stratification")])


@pytest.mark.parametrize("path, subdivisions", STRATIFIED_CASES,
                         ids=[f"{p.stem}-{s}" for p, s in STRATIFIED_CASES])
def test_betti_and_ih_do_not_depend_on_vertex_labels(path, subdivisions):
    """Metamorphic: a random relabelling of the vertices of a golden stratified
    base keeps its Betti numbers and its IH at both middle perversities."""
    data = parse_spec_text(path.read_text(encoding="utf-8"))
    base = load_spec({"complex": data["complex"], "stratification": data["stratification"],
                      "options": {"subdivisions": subdivisions}}).base
    relabelled = _relabelled(base, random.Random(f"{path.stem}:{subdivisions}"))
    assert relabelled.complex != base.complex
    m = base.dim
    for perversity in (lower_middle(m), upper_middle(m)):
        assert ih(relabelled, perversity) == ih(base, perversity)
    assert betti_numbers(relabelled.complex) == betti_numbers(base.complex)


def test_ic_complex_structure():
    # the oracle's basis chains are supported on allowable simplices, and
    # their boundaries are intersection chains with zero boundary
    st = suspension_torus()
    allowable, bases, _boundary = ic_complex(st, upper_middle(3))
    allowed = allowable_simplices(st, upper_middle(3))
    for j, simps in enumerate(allowable):
        assert set(simps) <= allowed
        for x in bases[j]:
            assert {s for s, _t in x} <= set(simps)
    assert ic_closed(st, upper_middle(3))
    assert ic_betti(st, upper_middle(3)) == ih(st, upper_middle(3)) == (1, 0, 2, 1)


def _refined(data):
    y, r, _rep = data
    return refine_stratification(y, r)


STRATIFIED_BASES = {
    "suspension-torus": suspension_torus,
    "pinched-torus": pinched_torus,
    **{f"sphere-branched-{pts}-{d}": (lambda pts=pts, d=d: _refined(sphere_branched_data(pts, d)))
       for pts, d in ((2, 2), (3, 3), (4, 2), (5, 5), (6, 2), (6, 3))},
    "s3-unknot-double": lambda: _refined(s3_unknot_double_data()),
}


@pytest.mark.parametrize("name", sorted(STRATIFIED_BASES))
def test_allowable_simplices_leave_two_vertices_off_singular_set(name):
    # p(2) = 0 on full levels: every allowable simplex of dimension >= 1
    # keeps two vertices off the singular set, so each of its faces has
    # a vertex there to anchor local-system coefficients
    sc = STRATIFIED_BASES[name]()
    singular = set(sc.singular_set.vertices)
    for pname in ("lower", "upper", "zero", "top"):
        for simplex in allowable_simplices(sc, perversity_by_name(pname, sc.dim)):
            if len(simplex) > 1:
                assert sum(1 for v in simplex if v not in singular) >= 2, (pname, simplex)


# ---------------------------------------------------------------------------
# ranks against bases: ih_betti and the IC oracle


def _cover_kernel(data):
    y, r, rep = data
    spec = BranchedCoverSpec(y, r, rep)
    return refine_stratification(y, r), kernel_system(spec.degree, spec.table)


def _transposition_kernel(sc):
    """Kernel system of a degree-3 cover of the complement of the singular set."""
    c = full_subcomplex(sc.complex, (v for v in sc.complex.vertices
                                     if v not in set(sc.singular_set.vertices)))
    pres = edge_path_presentation(c, min(c.vertices))
    exponents = next(e for e in nullspace_mod_p(relator_rows(pres), len(pres.generators), 2)
                     if any(e))
    rep = MonodromyRep(3, {g: (1, 0, 2) if e else (0, 1, 2)
                           for g, e in zip(pres.generators, exponents)})
    return sc, kernel(pres, rep)


def _scaled(system):
    """The gauge transform D_v T(u,v) D_u^-1 by diagonal D_v with entries 1, 2, 3.

    Its transports are no longer permutations and carry non-unit entries,
    but it is isomorphic to ``system``, so it has the same IH.
    """
    r = system.rank

    def diag(v, power):
        return [[Fraction(1 + (v + i) % 3) ** power if i == j else 0 for j in range(r)]
                for i in range(r)]

    return LocalSystemQ(r, {
        (u, v): transport_from_rows(matmul(matmul(diag(v, 1), dense(t)), diag(u, -1)))
        for (u, v), t in system.transports.items()})


IH_CASES = {
    "suspension-torus": lambda: _transposition_kernel(suspension_torus()),
    "pinched-torus": lambda: _transposition_kernel(pinched_torus()),
    **{f"sphere-branched-{pts}-{d}": (lambda pts=pts, d=d: _cover_kernel(sphere_branched_data(pts, d)))
       for pts, d in ((2, 2), (3, 3), (4, 2), (5, 5), (6, 2), (6, 3))},
    "s3-unknot-double": lambda: _cover_kernel(s3_unknot_double_data()),
}


@pytest.mark.parametrize("name", sorted(IH_CASES))
def test_ih_from_ranks_matches_ic_bases(name):
    sc, kernel = IH_CASES[name]()
    scaled = _scaled(kernel)
    assert any(v not in (0, 1, -1) for t in scaled.transports.values()
               for col in t for v in col.values())
    for pname in ("lower", "upper", "zero", "top"):
        p = perversity_by_name(pname, sc.dim)
        for label, coeff in (("trivial", None), ("kernel", kernel), ("scaled", scaled)):
            ranks = ih(sc, p, coeff)
            assert ranks == ic_betti(sc, p, coeff), (pname, label)
        assert ranks == ih(sc, p, kernel), pname


# ---------------------------------------------------------------------------
# twisted intersection homology


def test_twisted_ih_genus_two_kernel():
    y, r, rep = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep)
    refined = refine_stratification(y, r)
    # derived: b(genus 2 surface) - ih(sphere) = (1,4,1) - (1,0,1)
    assert ih(refined, lower_middle(2), kernel_system(spec.degree, spec.table)) == (0, 4, 0)


def test_twisted_ih_unknot_kernel_vanishes():
    y, r, rep = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep)
    refined = refine_stratification(y, r)
    assert ih(refined, lower_middle(3), kernel_system(spec.degree, spec.table)) == (0, 0, 0, 0)
    assert ih(refined, lower_middle(3), None) == (1, 0, 0, 1)


@pytest.mark.parametrize("base, expected", [(annulus, (2, 2, 0)), (torus7, (2, 4, 2))])
def test_ih_of_unstratified_base_is_twisted_homology(base, expected):
    # with no singular set the IC anchor is the minimal vertex, as in
    # twisted chains; a transposition in degree 4 leaves kernel rank 3
    c = base()
    pres = edge_path_presentation(c, min(c.vertices))
    n = len(pres.generators)
    exponents = nullspace_mod_p(relator_rows(pres), n, 2)[0]
    swap, fixed = (1, 0, 2, 3), (0, 1, 2, 3)
    rep = MonodromyRep(4, {g: swap if e else fixed for g, e in zip(pres.generators, exponents)})
    k = kernel(pres, rep)
    assert ih(StratifiedComplex(c), lower_middle(2), k) == expected
    assert twisted_betti(c, k) == expected


# ---------------------------------------------------------------------------
# cone formula


def test_cone_formula_hexagon():
    res = cone_formula_check(StratifiedComplex(hexagon()), zero_perversity(2))
    assert res.ok
    assert res.cone_ih == (1, 0, 0)
    assert res.cutoff == 1


def test_cone_formula_torus_both_middles():
    t = StratifiedComplex(torus7())
    lo = cone_formula_check(t, lower_middle(3))
    assert lo.ok and lo.cone_ih == (1, 2, 0, 0) and lo.cutoff == 2
    up = cone_formula_check(t, upper_middle(3))
    assert up.ok and up.cone_ih == (1, 0, 0, 0) and up.cutoff == 1


def test_cone_formula_two_points():
    two = StratifiedComplex(SimplicialComplex([(0,), (1,)]))
    res = cone_formula_check(two, None)
    assert res.ok
    assert res.cone_ih == (1, 0)


def test_cone_formula_disconnected_link():
    # cone over two circles: degree zero keeps both components because
    # allowable chains avoid the apex
    two_circles = SimplicialComplex(
        set(cycle_complex(4, 0).simplices) | set(cycle_complex(4, 4).simplices))
    res = cone_formula_check(StratifiedComplex(two_circles), zero_perversity(2))
    assert res.ok
    assert res.cone_ih == (2, 0, 0)


def test_cone_formula_sphere_link():
    res = cone_formula_check(StratifiedComplex(octahedron()), lower_middle(3))
    assert res.ok and res.cone_ih == (1, 0, 0, 0)


# ---------------------------------------------------------------------------
# stalk checks


def test_stalk_check_suspension_torus():
    st = suspension_torus()
    up = deligne_stalk_check(st, upper_middle(3))
    assert up.ok
    assert [e.vertex for e in up.entries] == [7, 8]
    for e in up.entries:
        assert e.codim == 3
        assert e.link_ih == (1, 2, 1)
        assert e.star_ih == (1, 0, 0, 0)
    lo = deligne_stalk_check(st, lower_middle(3))
    assert lo.ok
    for e in lo.entries:
        assert e.star_ih == (1, 2, 0, 0)


def test_stalk_check_pinched_torus():
    pt = pinched_torus()
    res = deligne_stalk_check(pt, lower_middle(2))
    assert res.ok
    (entry,) = res.entries
    assert entry.codim == 2
    # the link is two disjoint circles; allowable chains in the star avoid
    # the apex, so degree zero has rank two on both sides
    assert entry.link_ih == (2, 2)
    assert entry.star_ih == (2, 0, 0)


def test_stalk_check_manifold_is_vacuous():
    sc = StratifiedComplex(octahedron())
    res = deligne_stalk_check(sc, zero_perversity(2))
    assert res.ok and res.entries == ()


def test_stalk_check_unknot_base():
    y, r, rep = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep)
    refined = refine_stratification(y, r)
    res = deligne_stalk_check(refined, lower_middle(3))
    assert res.ok
    assert len(res.entries) == 6
    for e in res.entries:
        assert e.codim == 2
        assert e.star_ih == (1, 0, 0, 0)


def test_ic_requires_full_levels():
    oct_ = octahedron()
    sc = StratifiedComplex(oct_, [SimplicialComplex([(1,), (2,)])])
    with pytest.raises(InputError, match=re.escape("filtration levels [0, 1] are not full subcomplexes")):
        ih(sc, zero_perversity(2))


def test_ic_requires_perversity_in_high_dimension():
    with pytest.raises(InputError, match="a perversity is required in dimension >= 2"):
        ih(StratifiedComplex(octahedron()), None)
    with pytest.raises(InputError, match="perversity only defined up to 2, need 3"):
        # perversity defined only up to dimension 2 cannot serve dimension 3
        ih(suspension_torus(), zero_perversity(2))


def test_ih_betti_takes_the_allowable_set_not_a_perversity():
    """A perversity where the allowable set once went is a ``TypeError``, not
    an empty set of chains."""
    sc = StratifiedComplex(octahedron())
    with pytest.raises(TypeError):
        ih_betti(sc, lower_middle(2))
    assert ih_betti(sc, allowed=allowable_simplices(sc, lower_middle(2))) == (1, 0, 1)


def test_stalk_check_arc_stratum_through_suspension_points():
    # an arc through both suspension points of a 3-sphere: interior points
    # have codimension 2 with marked-sphere links, the endpoints have
    # codimension 3; the coarse triangulation already carries the induced
    # link filtrations because levels are nested
    from branchcover.fixtures import suspension
    total = suspension(boundary_simplex(3))
    arc = SimplicialComplex([(0,), (4,), (5,), (0, 4), (0, 5)])
    apexes = SimplicialComplex([(4,), (5,)])
    sc = StratifiedComplex(total, [arc, apexes])
    for p in (lower_middle(3), upper_middle(3)):
        res = deligne_stalk_check(sc, p)
        assert res.ok
        by_codim = {e.vertex: e for e in res.entries}
        assert by_codim[0].codim == 2 and by_codim[4].codim == 3
        for e in res.entries:
            assert e.link_ih == (1, 0, 1)
            assert e.star_ih == (1, 0, 0, 0)


def test_stalk_check_refined_suspension_circle():
    # refine the suspension of the torus along a suspension circle, then
    # subdivide once for fullness: arc points see marked spheres, the cone
    # points see the torus link truncated at the middle-perversity cutoff
    from branchcover.covering import refine_stratification
    st = suspension_torus()
    circle = SimplicialComplex([(7,), (8,), (0,), (1,), (0, 7), (0, 8), (1, 7), (1, 8)])
    refined = refine_stratification(st, StratifiedComplex(circle))
    with pytest.raises(InputError, match=re.escape("filtration levels [1, 2] are not full subcomplexes")):
        deligne_stalk_check(refined, lower_middle(3))
    sub = barycentric_subdivide(refined)
    res = deligne_stalk_check(sub, lower_middle(3))
    assert res.ok
    codim3 = [e for e in res.entries if e.codim == 3]
    codim2 = [e for e in res.entries if e.codim == 2]
    assert len(codim3) == 2 and len(codim2) == 6
    for e in codim3:
        assert e.link_ih == (1, 2, 1) and e.star_ih == (1, 2, 0, 0)
    for e in codim2:
        assert e.link_ih == (1, 0, 1) and e.star_ih == (1, 0, 0, 0)
