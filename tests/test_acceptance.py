"""Acceptance suite: one test per criterion, exact equalities throughout.

Every check here is exact (tolerance zero) because all arithmetic is
rational.  Each test prints a PASS line; run with ``pytest -s`` to see
them.  Expected values were computed with the independent oracles in
``oracles.py`` before the package code produced them.
"""
import random
import subprocess
import sys
import time
from pathlib import Path

import branchcover
from branchcover.covering import (
    BranchedCoverSpec,
    MonodromyRep,
    fox_complete,
    orbit_count,
    refine_stratification,
    riemann_hurwitz_check,
)
from branchcover.intersection import (
    lower_middle,
    top_perversity,
    upper_middle,
    zero_perversity,
)
from branchcover.local_systems import (
    invariant_dimension,
    kernel_system,
    pushforward_local_system,
    sum_zero_action,
    twisted_betti,
)
from branchcover.presentation import edge_path_presentation
from branchcover.simplicial import SimplicialComplex, betti_numbers
from branchcover.stratified import EMPTY_STRATIFIED, StratifiedComplex
from branchcover.verify import verify_branched
from branchcover.commands import codim_check, cone_formula_check
from branchcover.cli import main as cli_main
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
    codim3_vertex_data,
    figure_eight,
    cyclic_image,
    ih,
    k4_graph,
    nullspace_mod_p,
    orbits,
    theta_graph,
)
from oracles import (
    ic_betti,
    ic_closed,
    pullback_stratification,
    riemann_hurwitz_chi,
    suspension_ih_oracle,
)
from stalks import deligne_stalk_check, induced_link


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: {text} PASS")


# ---------------------------------------------------------------------------


def _random_cyclic_rep(rng, base, p):
    """Random representation into the cyclic group of a p-cycle, p prime."""
    pres = edge_path_presentation(base, min(base.vertices))
    n = len(pres.generators)
    rows = []
    for word in pres.relators:
        row = [0] * n
        for (gi, sign) in word:
            row[gi] += sign
        rows.append(row)
    basis = nullspace_mod_p(rows, n, p)
    x = [0] * n
    for vec in basis:
        c = rng.randrange(p)
        x = [(a + c * b) % p for a, b in zip(x, vec)]
    return pres, MonodromyRep(p, {g: cyclic_image(e, p) for g, e in zip(pres.generators, x)})


def test_criterion_1_unbranched_splitting():
    start = time.time()
    rng = random.Random(2024)
    graph_bases = [hexagon(), figure_eight(), theta_graph(), k4_graph()]
    relator_bases = [annulus(), torus7()]
    checked = 0
    for base in graph_bases:
        pres = edge_path_presentation(base, min(base.vertices))
        for _ in range(9):
            d = rng.randint(1, 5)
            rep = MonodromyRep(d, {e: tuple(rng.sample(range(d), d)) for e in pres.generators})
            _check_unbranched_split(base, pres, rep)
            checked += 1
    for base in relator_bases:
        for _ in range(8):
            p = rng.choice((2, 3, 5))
            pres, rep = _random_cyclic_rep(rng, base, p)
            _check_unbranched_split(base, pres, rep)
            checked += 1
    elapsed = time.time() - start
    assert checked >= 50
    assert elapsed < 60
    _report(1, f"unbranched splitting on {checked} random covers over 6 bases "
               f"({elapsed:.1f}s)")


def _check_unbranched_split(base, pres, rep):
    spec = BranchedCoverSpec(StratifiedComplex(base), EMPTY_STRATIFIED, rep)
    cover = fox_complete(spec)
    b_cover = betti_numbers(cover.total)
    b_base = betti_numbers(base)
    b_kernel = twisted_betti(base, kernel_system(spec.degree, spec.table))
    assert b_cover == tuple(x + y for x, y in zip(b_base, b_kernel))


def test_criterion_2_fiber_rank_formula():
    start = time.time()
    rng = random.Random(99)
    checked = 0
    while checked < 110:
        d = rng.randint(1, 8)
        gens = [tuple(rng.sample(range(d), d)) for _ in range(rng.randint(1, 3))]
        orbits = orbit_count(gens, d)
        inv = invariant_dimension([sum_zero_action(g) for g in gens], d - 1)
        assert orbits == 1 + inv
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10
    _report(2, f"orbit count = 1 + sum-zero invariants on {checked} random "
               f"subgroups of S_d, d <= 8 ({elapsed:.1f}s)")


def test_criterion_3_riemann_hurwitz():
    for k in (0, 1, 2):
        start = time.time()
        points = 2 * k + 2
        y, r, rep = sphere_branched_data(points, 2)
        spec = BranchedCoverSpec(y, r, rep)
        cover = fox_complete(spec)
        chi = riemann_hurwitz_check(cover, orbits(cover))
        assert chi == 2 - 2 * k
        assert chi == riemann_hurwitz_chi(2, 2, [1] * points)
        assert betti_numbers(cover.total) == (1, 2 * k, 1)
        elapsed = time.time() - start
        assert elapsed < 60
    _report(3, "chi and betti of sphere-branched(2k+2, 2) for k in {0,1,2}")


def test_criterion_4_branched_decomposition_manifold_base():
    cases = [
        ((6, 2), (1, 4, 1), (1, 0, 1), (0, 4, 0)),
        ((3, 3), (1, 2, 1), (1, 0, 1), (0, 2, 0)),
    ]
    for (points, degree), b_cover, ih_triv, ih_ker in cases:
        start = time.time()
        y, r, rep = sphere_branched_data(points, degree)
        spec = BranchedCoverSpec(y, r, rep)
        for name in ("lower", "upper"):
            report = verify_branched(spec, name)
            assert report.betti_cover == b_cover
            assert report.ih_trivial == ih_triv
            assert report.ih_kernel == ih_ker
            assert report.all_equal and report.internal_ok
        elapsed = time.time() - start
        assert elapsed < 120
    _report(4, "sphere-branched(6,2) and the cyclic triple cover decompose "
               "for both middle perversities")


def test_criterion_5_dimension_three():
    start = time.time()
    y, r, rep = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep)
    report = verify_branched(spec, "lower")
    assert report.betti_cover == (1, 0, 0, 1)
    assert report.ih_kernel == (0, 0, 0, 0)
    assert report.all_equal and report.internal_ok
    elapsed = time.time() - start
    assert elapsed < 600
    _report(5, f"s3-unknot-double: (1,0,0,1) = (1,0,0,1) + (0,0,0,0) "
               f"({elapsed:.1f}s)")


def test_criterion_6_ih_engine_sanity():
    manifolds = [octahedron(), torus7(), boundary_simplex(4),
                 suspension(boundary_simplex(4))]
    for c in manifolds:
        sc = StratifiedComplex(c)
        b = betti_numbers(c)
        m = max(c.dim, 2)
        for p in (zero_perversity(m), lower_middle(m), upper_middle(m),
                  top_perversity(m)):
            assert ih(sc, p) == b
    # suspension of the torus, derived through the cone-formula oracle
    torus_ih = (1, 2, 1)
    assert suspension_ih_oracle(torus_ih, 2 - upper_middle(3)[3]) == (1, 0, 2, 1)
    assert ih(suspension_torus(), upper_middle(3)) == (1, 0, 2, 1)
    assert suspension_ih_oracle(torus_ih, 2 - lower_middle(3)[3]) == (1, 2, 0, 1)
    assert ih(suspension_torus(), lower_middle(3)) == (1, 2, 0, 1)
    # pinched torus: Mayer-Vietoris of the pinch cone (2,0,0) against the
    # complementary cylinder gives (1, 0, 1)
    assert ih(pinched_torus(), lower_middle(2)) == (1, 0, 1)
    assert ih(pinched_torus(), upper_middle(2)) == (1, 0, 1)
    _report(6, "ih = betti on 4 manifolds x 4 perversities; suspension-torus "
               "= (1,0,2,1); pinched-torus = (1,0,1)")


def test_criterion_7_cone_and_stalk_checks():
    two_circles = SimplicialComplex(
        set(cycle_complex(4, 0).simplices) | set(cycle_complex(4, 4).simplices))
    links = [
        (StratifiedComplex(hexagon()), zero_perversity(2)),
        (StratifiedComplex(octahedron()), lower_middle(3)),
        (StratifiedComplex(octahedron()), upper_middle(3)),
        (StratifiedComplex(torus7()), lower_middle(3)),
        (StratifiedComplex(torus7()), upper_middle(3)),
        (StratifiedComplex(SimplicialComplex([(0,), (1,)])), None),
        (StratifiedComplex(two_circles), zero_perversity(2)),
    ]
    # links of the unknot fixture's branch vertices: spheres with two marked
    # points, with induced stratifications
    y, r, rep = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep)
    refined = refine_stratification(y, r)
    for (v,) in refined.singular_set.simplices_of_dim(0)[:2]:
        links.append((induced_link(refined, v), lower_middle(3)))
    cone_checked = 0
    for link_sc, p in links:
        res = cone_formula_check(link_sc, p)
        assert res.ok, (link_sc, res)
        cone_checked += 1

    stalks_checked = 0
    for sc, p in ((suspension_torus(), lower_middle(3)),
                  (suspension_torus(), upper_middle(3)),
                  (pinched_torus(), lower_middle(2))):
        res = deligne_stalk_check(sc, p)
        assert res.ok
        stalks_checked += len(res.entries)
    # branched fixtures, trivial and kernel coefficients
    for builder, args, m in ((sphere_branched_data, (6, 2), 2),
                             (s3_unknot_double_data, (), 3)):
        y, r, rep = builder(*args)
        spec = BranchedCoverSpec(y, r, rep)
        refined = refine_stratification(y, r)
        for coeff in (None, kernel_system(spec.degree, spec.table)):
            res = deligne_stalk_check(refined, lower_middle(m), coeff)
            assert res.ok
            stalks_checked += len(res.entries)
    _report(7, f"cone formula on {cone_checked} links, stalk conditions at "
               f"{stalks_checked} singular vertices")


def test_criterion_8_structural_invariants():
    # flatness is enforced at construction time for every local system, and
    # boundary-squared by one rank per degree in homology_ranks for the
    # ordinary, twisted and IC boundaries alike; running the full battery
    # here exercises those checks.  The IC oracle's explicit bases are
    # checked directly.
    complexes = [hexagon(), octahedron(), torus7(), boundary_simplex(4)]
    for c in complexes:
        betti_numbers(c)
    y, r, rep = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep)
    push = pushforward_local_system(spec.degree, spec.table)
    kernel = kernel_system(spec.degree, spec.table)
    twisted_betti(spec.complement, push)
    twisted_betti(spec.complement, kernel)
    refined = refine_stratification(y, r)
    for coeff in (None, kernel):
        assert ih(refined, lower_middle(2), coeff) == ic_betti(
            refined, lower_middle(2), coeff)
        assert ic_closed(refined, lower_middle(2), coeff)

    # refined and pulled-back stratifications satisfy all invariants
    checked = 0
    for builder, args in ((sphere_branched_data, (2, 2)),
                          (sphere_branched_data, (4, 2)),
                          (sphere_branched_data, (6, 2)),
                          (sphere_branched_data, (3, 3)),
                          (s3_unknot_double_data, ())):
        y, r, rep = builder(*args)
        spec = BranchedCoverSpec(y, r, rep)
        cover = fox_complete(spec)
        refined = refine_stratification(y, r)   # constructor validates
        refined.full_check()
        pulled = pullback_stratification(cover, refined)
        pulled.full_check()
        assert pulled.dim == refined.dim
        checked += 1
    _report(8, f"boundary-squared, flatness and stratification invariants on "
               f"{checked} fixtures")


def test_criterion_9_codimension_corollary():
    for d in (2, 3):
        y, r, rep = codim3_vertex_data(d)
        spec = BranchedCoverSpec(y, r, rep)
        report = codim_check(spec, orbits(fox_complete(spec)))
        assert report.applicable
        assert report.non_minimal
        assert all(card == d for (_tau, card) in report.fibers)
    # no shipped fixture branches at codimension >= 3
    for builder, args in ((sphere_branched_data, (6, 2)),
                          (sphere_branched_data, (3, 3)),
                          (s3_unknot_double_data, ())):
        y, r, rep = builder(*args)
        spec = BranchedCoverSpec(y, r, rep)
        report = codim_check(spec, orbits(fox_complete(spec)))
        assert not report.applicable  # codim 2 fixtures: check skipped
    _report(9, "codim-3 branch input forces full fibers and the non-minimal flag")


def test_criterion_10_determinism(tmp_path):
    spec_path = tmp_path / "genus2.json"
    assert cli_main(["fixture", "sphere-branched", "--points", "6", "--degree", "2",
                     "--out", str(spec_path)]) == 0
    outs = []
    for i in (1, 2):
        out = tmp_path / f"report{i}.json"
        assert cli_main(["verify", str(spec_path), "--format", "json",
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # cross-process: different hash seeds must not change a single byte.
    # The child imports the same package this process imported, whether it
    # came from an install or from PYTHONPATH=src.  -B: the child writes no
    # bytecode next to the sources, where it would speed up later imports.
    package_root = str(Path(branchcover.__file__).resolve().parents[1])
    env_outs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "branchcover.cli", "verify", str(spec_path),
             "--format", "json"],
            capture_output=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": package_root})
        assert proc.returncode == 0, proc.stderr.decode()
        env_outs.append(proc.stdout)
    assert env_outs[0] == env_outs[1] == outs[0]
    _report(10, "byte-identical reports across runs and hash seeds")
