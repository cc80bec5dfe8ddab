import json
from pathlib import Path

import pytest

from branchcover import intersection, simplicial, verify
from branchcover.cli import main
from branchcover.covering import (
    BranchedCoverSpec,
    CoverComplex,
    fox_complete,
)
from branchcover.simplicial import SimplicialComplex
from branchcover.specfile import load_spec, parse_spec_text
from branchcover.verify import (
    fiber_rank_report,
    verify_branched,
)
from branchcover.commands import codim_check
from branchcover.fixtures import (
    circle_cover_data,
    s3_unknot_double_data,
    sphere_branched_data,
)

from complexes import codim3_vertex_data
from oracles import dense_nullspace

GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# unbranched splitting


def test_unbranched_trivial_degree_one():
    y, r, rep, pres = circle_cover_data(1, (0,))
    report = verify_branched(BranchedCoverSpec(y, r, rep, pres))
    assert report.all_equal
    assert report.ih_kernel == (0, 0)


def test_unbranched_connected_triple_cover():
    y, r, rep, pres = circle_cover_data(3, (1, 2, 0))
    report = verify_branched(BranchedCoverSpec(y, r, rep, pres))
    assert report.betti_cover == (1, 1)
    assert report.ih_trivial == (1, 1)
    assert report.ih_kernel == (0, 0)
    assert report.all_equal


def test_unbranched_disconnected_identity_cover():
    y, r, rep, pres = circle_cover_data(2, (0, 1))
    report = verify_branched(BranchedCoverSpec(y, r, rep, pres))
    assert report.betti_cover == (2, 2)
    assert report.ih_kernel == (1, 1)  # trivial rank-1 kernel
    assert report.all_equal


def test_unbranched_degree_1000_cli(tmp_path, capsys):
    from branchcover.cli import main
    from oracles import orbits_of
    perm, start = [], 0
    for n in (500, 300, 150, 49, 1):  # one cycle per block of sheets
        perm += [start + (i + 1) % n for i in range(n)]
        start += n
    c = len(orbits_of([perm], 1000))
    assert c == 5
    path = tmp_path / "circle-1000.json"
    assert main(["fixture", "circle-cover", "--degree", "1000",
                 "--perm", ",".join(map(str, perm)), "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"b(cover)        = [{c}, {c}]" in out
    assert f"b(base; kernel) = [{c - 1}, {c - 1}]" in out
    assert "equality: HOLDS" in out


# ---------------------------------------------------------------------------
# branched decomposition


def test_branched_genus_two_both_perversities():
    y, r, rep, pres = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep, pres)
    for name in ("lower", "upper"):
        report = verify_branched(spec, name)
        assert report.betti_cover == (1, 4, 1)
        assert report.ih_trivial == (1, 0, 1)
        assert report.ih_kernel == (0, 4, 0)
        assert report.all_equal and report.internal_ok


def test_branched_cyclic_triple_cover():
    y, r, rep, pres = sphere_branched_data(3, 3)
    spec = BranchedCoverSpec(y, r, rep, pres)
    for name in ("lower", "upper"):
        report = verify_branched(spec, name)
        assert report.betti_cover == (1, 2, 1)
        assert report.ih_trivial == (1, 0, 1)
        assert report.ih_kernel == (0, 2, 0)
        assert report.all_equal and report.internal_ok


def test_branched_unknot_double():
    y, r, rep, pres = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep, pres)
    report = verify_branched(spec, "lower")
    assert report.betti_cover == (1, 0, 0, 1)
    assert report.ih_trivial == (1, 0, 0, 1)
    assert report.ih_kernel == (0, 0, 0, 0)
    assert report.all_equal and report.internal_ok


def test_branched_report_consistency_fields():
    y, r, rep, pres = sphere_branched_data(4, 2)
    report = verify_branched(BranchedCoverSpec(y, r, rep, pres), "lower")
    assert report.euler_ok and report.b0_ok and report.manifold_crosscheck_ok
    assert report.betti_base_manifold == (1, 0, 1)
    assert report.fiber.ok
    assert report.connectivity.ok
    euler = sum((-1) ** j * b for j, b in enumerate(report.betti_cover))
    assert euler == report.euler_cover


def test_lower_and_upper_agree_on_fixtures():
    # Witt-like behavior of the shipped fixtures, recorded per fixture
    for builder, args in ((sphere_branched_data, (6, 2)),
                          (sphere_branched_data, (3, 3)),
                          (s3_unknot_double_data, ())):
        y, r, rep, pres = builder(*args)
        spec = BranchedCoverSpec(y, r, rep, pres)
        lo = verify_branched(spec, "lower")
        up = verify_branched(spec, "upper")
        assert lo.ih_trivial == up.ih_trivial
        assert lo.ih_kernel == up.ih_kernel


# ---------------------------------------------------------------------------
# fiber table


def test_fiber_report_rows():
    y, r, rep, pres = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep, pres)
    cover = fox_complete(spec)
    report = fiber_rank_report(spec, cover)
    assert len(report.rows) == 6
    for row in report.rows:
        assert row.orbit_count == 1
        assert row.one_plus_invariants == 1
        assert row.lift_count == 1
        assert row.ok
    assert report.ok


def test_fiber_report_trivial_local_group():
    y, r, rep, pres = codim3_vertex_data(3)
    spec = BranchedCoverSpec(y, r, rep, pres)
    report = fiber_rank_report(spec, fox_complete(spec))
    (row,) = report.rows
    assert row.orbit_count == 3
    assert row.one_plus_invariants == 3  # 1 + 2-dimensional invariants
    assert row.lift_count == 3
    assert row.ok


def test_fiber_report_swap_in_higher_degree():
    # local group <(0 1)> in degree 3: orbits 2, invariants of the sum-zero
    # representation have dimension 1
    from branchcover.covering import orbit_count
    from branchcover.local_systems import sum_zero_action, invariant_dimension
    swap = (1, 0, 2)
    assert orbit_count([swap], 3) == 2
    assert 1 + invariant_dimension([sum_zero_action(swap)], 2) == 2


# ---------------------------------------------------------------------------
# codimension corollary


def test_codim_check_vertex_in_sphere():
    y, r, rep, pres = codim3_vertex_data(2)
    report = codim_check(BranchedCoverSpec(y, r, rep, pres))
    assert report.applicable
    assert report.non_minimal
    assert all(card == 2 for (_tau, card) in report.fibers)


def test_codim_check_skipped_at_codim_two():
    y, r, rep, pres = sphere_branched_data(6, 2)
    report = codim_check(BranchedCoverSpec(y, r, rep, pres))
    assert not report.applicable
    assert "not applicable" in report.note


def test_codim_check_empty_branch():
    y, r, rep, pres = circle_cover_data(2, (1, 0))
    report = codim_check(BranchedCoverSpec(y, r, rep, pres))
    assert not report.applicable
    assert "vacuous" in report.note


# ---------------------------------------------------------------------------
# serialization determinism


def test_report_serialization_deterministic():
    y, r, rep, pres = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep, pres)
    a = verify_branched(spec, "lower")
    b = verify_branched(spec, "lower")
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()
    assert "necessary conditions" in a.to_text()
    assert a.to_json_dict()["all_equal"] is True


@pytest.mark.parametrize("name, header", [("lower", "lower middle perversity"),
                                          ("upper", "upper middle perversity"),
                                          ("zero", "zero perversity"),
                                          ("top", "top perversity")])
def test_text_report_names_the_perversity(name, header, capsys):
    # only the two middle perversities are called middle
    assert main(["verify", str(GOLDEN / "sphere-p6-d3.json"), "--perversity", name]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"decomposition check ({header}, degree 3, base dimension 2)"


def _suspension_circle_double_cover():
    """Double cover of the suspended torus branched over a suspension circle.

    The total space is the suspension of a genus-2 surface, a
    pseudomanifold with non-sphere links, so its Betti numbers and its
    lower-middle intersection homology differ; the decomposition holds
    for the latter.
    """
    from branchcover.simplicial import SimplicialComplex, full_subcomplex
    from branchcover.stratified import StratifiedComplex, subdivide_with_subcomplexes
    from branchcover.covering import MonodromyRep
    from branchcover.presentation import edge_path_presentation
    from branchcover.fixtures import suspension_torus
    from complexes import cyclic_image, link, relator_rows, solve_mod_p, word_row

    st = suspension_torus()
    circle = StratifiedComplex(SimplicialComplex(
        [(7,), (8,), (0,), (1,), (0, 7), (0, 8), (1, 7), (1, 8)]))
    y, (r,) = subdivide_with_subcomplexes(st, [circle])
    bverts = set(r.complex.vertices)
    complement = full_subcomplex(y.complex,
                                 [v for v in y.complex.vertices if v not in bverts])
    pres = edge_path_presentation(complement, min(complement.vertices))
    n = len(pres.generators)
    rows = relator_rows(pres)
    rhs = [0] * len(rows)
    for tau in r.complex.simplices_of_dim(1):
        meridian = link(y.complex, tau)
        adj = {}
        for (u, v) in meridian.simplices_of_dim(1):
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        start = min(adj)
        pathv = [start, sorted(adj[start])[0]]
        while pathv[-1] != start:
            pathv.append(next(x for x in sorted(adj[pathv[-1]]) if x != pathv[-2]))
        rows.append(word_row(pres, list(zip(pathv, pathv[1:])), n))
        rhs.append(1)
    sol = solve_mod_p(rows, rhs, n, 2)
    rep = MonodromyRep(2, tuple(cyclic_image(s, 2) for s in sol))
    return BranchedCoverSpec(y, r, rep, pres)


def test_singular_base_cover_outside_theorem_hypotheses():
    spec = _suspension_circle_double_cover()
    cover = fox_complete(spec)
    from branchcover.simplicial import betti_numbers
    assert betti_numbers(cover.total) == (1, 0, 4, 1)  # suspension of genus 2
    lower = verify_branched(spec, "lower")
    assert lower.betti_cover == (1, 0, 4, 1)
    assert lower.ih_cover == (1, 4, 0, 1)  # the left side: not the Betti numbers
    assert lower.ih_trivial == (1, 2, 0, 1)
    assert lower.ih_kernel == (0, 2, 0, 0)
    assert lower.all_equal
    assert lower.internal_ok
    assert lower.euler_cover == 4 and lower.euler_ok  # the Betti numbers' sum, not the IH's
    upper = verify_branched(spec, "upper")
    assert upper.ih_cover == upper.betti_cover == (1, 0, 4, 1)
    assert upper.ih_trivial == (1, 0, 2, 1)
    assert upper.ih_kernel == (0, 0, 2, 0)
    assert upper.all_equal


def test_susp_cover_at_lower_perversity_compares_the_cover_ih(capsys):
    """The susp-cover workload's cover is singular: at lower perversity its
    Betti numbers (1, 0, 4, 1) differ from its IH (1, 4, 0, 1), and the IH is
    what splits into the two IH of the base (the Betti numbers exited 2)."""
    spec = str(GOLDEN / "susp-cover-seed1.json")
    assert main(["verify", spec, "--perversity", "lower", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["betti_cover"] == [1, 0, 4, 1]
    assert report["ih_cover"] == [1, 4, 0, 1]
    assert [t + k for t, k in zip(report["ih_trivial"], report["ih_kernel"])] == [1, 4, 0, 1]
    assert report["all_equal"] and report["internal_ok"]
    assert report["euler_cover"] == 4 and report["euler_ok"]


def test_cli_equality_failure_exit_code(tmp_path, monkeypatch, capsys):
    from branchcover.fixtures import spec_to_dict, spec_to_text
    spec = _suspension_circle_double_cover()
    path = tmp_path / "singular.json"
    path.write_text(spec_to_text(spec_to_dict(
        spec.base, spec.branch, spec.monodromy, spec.presentation)))
    assert main(["verify", str(path)]) == 0
    assert "  ih(cover)         = [1, 4, 0, 1]\n" in capsys.readouterr().out
    assert main(["verify", str(path), "--perversity", "upper"]) == 0
    real = verify.ih_betti

    def off_by_one(sc, p, coeff=None):  # the kernel IH gains a class in degree 1
        ih = real(sc, p, coeff)
        return ih[:1] + (ih[1] + 1,) + ih[2:] if coeff is not None else ih

    monkeypatch.setattr(verify, "ih_betti", off_by_one)
    assert main(["verify", str(path)]) == 2
    assert "per-degree equality: FAILS ['ok', 'FAIL', 'ok', 'ok']" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# internal checks


def test_verify_checks_connectivity_before_and_with_the_cover(monkeypatch):
    """One susp-cover verify tests each distinct base punctured star once,
    before the cover is built, and then the star of each lift once."""
    from branchcover import covering

    loaded = load_spec(parse_spec_text(
        (GOLDEN / "susp-cover-seed1.json").read_text(encoding="utf-8")))
    spec = loaded.cover_spec()
    real_check, real_fox = covering._nonempty_connected, verify.fox_complete
    events = []

    def check_spy(c):
        events.append(c)
        return real_check(c)

    def fox_spy(spec):
        cover = real_fox(spec)
        events.append("cover")
        return cover

    monkeypatch.setattr(covering, "_nonempty_connected", check_spy)
    monkeypatch.setattr(verify, "fox_complete", fox_spy)
    report = verify_branched(spec, loaded.perversity)
    stars = {spec.punctured_star(tau) for tau in spec.branch_simplices()}
    lifts = report.connectivity.checked_cover
    assert len(stars) == 8 and report.connectivity.checked_base == 16 and lifts == 16
    assert events.index("cover") == len(stars) and set(events[:len(stars)]) == stars
    assert len(events) == len(stars) + 1 + lifts
    assert report.connectivity.ok and report.connectivity.base_failures == ()


def test_verify_computes_each_local_monodromy_group_once(monkeypatch):
    from branchcover import covering

    y, r, rep, pres = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep, pres)
    real = covering.edge_path_presentation
    computed = []

    def spy(complex_, basepoint):
        computed.append(complex_)
        return real(complex_, basepoint)

    # one presentation per distinct punctured star: branch simplices with
    # equal punctured stars share their local monodromy group
    monkeypatch.setattr(covering, "edge_path_presentation", spy)
    report = verify_branched(spec, "lower")
    stars = {spec.punctured_star(tau) for tau in spec.branch_simplices()}
    assert len(report.fiber.rows) == 12
    assert len(computed) == len(set(computed)) == len(stars) == 6
    fiber_rank_report(spec, fox_complete(spec))  # a later caller reads the cache
    assert len(computed) == 6


def test_verify_validates_the_monodromy_once(monkeypatch):
    """The spec validates the monodromy and the pushforward reads its table."""
    from branchcover import covering
    from branchcover.specfile import load_spec, parse_spec_text

    real = covering.validate_monodromy
    validated = []

    def spy(pres, rep):
        validated.append(pres)
        return real(pres, rep)

    monkeypatch.setattr(covering, "validate_monodromy", spy)
    loaded = load_spec(parse_spec_text(GOLDEN_SPHERE.read_text(encoding="utf-8")))
    report = verify_branched(loaded.cover_spec(), loaded.perversity)
    assert report.all_equal and report.internal_ok
    assert validated == [loaded.presentation]


def _flip_one_ic_sign(monkeypatch, trivial: bool) -> None:
    """Negate one entry of one degree-2 IC boundary column of the chosen coefficients.

    The column is in the support of an intersection 2-chain x and the entry
    sits on an allowable face, so the corrupted boundary of x is still
    allowable but its boundary is no longer zero.  Only the boundary
    columns built inside the one ``homology_ranks`` call of ``ih_betti``
    with those coefficients are touched.
    """
    real_ranks = intersection.homology_ranks
    real_columns = simplicial._boundary_columns

    def corrupted_ranks(c, chosen, rank=1, transport=None, anchor=None):
        if (transport is None) != trivial:
            return real_ranks(c, chosen, rank, transport, anchor)
        cut = sum(1 for s in c.simplices_of_dim(1) if chosen(s)) * rank

        def corrupted_columns(simplices, rows, *args):
            cols = real_columns(simplices, rows, *args)
            if simplices and len(simplices[0]) == 3:
                outside = [[col.get(row, 0) for col in cols]
                           for row in sorted({row for col in cols for row in col if row >= cut})]
                basis = dense_nullspace(outside, len(cols))
                col = next(cols[ci] for x in basis for ci in sorted(x)
                           if any(k < cut for k in cols[ci]))
                k = min(col)
                col[k] = -col[k]
            return cols

        with monkeypatch.context() as inner:
            inner.setattr(simplicial, "_boundary_columns", corrupted_columns)
            return real_ranks(c, chosen, rank, transport, anchor)

    monkeypatch.setattr(intersection, "homology_ranks", corrupted_ranks)


GOLDEN_SPHERE = Path(__file__).resolve().parent / "golden" / "sphere-p3-d3.json"


@pytest.mark.parametrize("trivial", [True, False], ids=["trivial", "kernel"])
def test_verify_catches_corrupted_ic_boundary(monkeypatch, capsys, trivial):
    _flip_one_ic_sign(monkeypatch, trivial)
    capsys.readouterr()
    assert main(["verify", str(GOLDEN_SPHERE), "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("internal check failed: ")
    assert "degree 2" in err


GOLDEN_S3 = Path(__file__).resolve().parent / "golden" / "s3-unknot-double.json"


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_verify_catches_corrupted_boundary_in_every_degree(monkeypatch, capsys, degree):
    """A sign flipped in one boundary column of each degree exits 3 in one line.

    The cover of this spec has dimension 3, so degree 3 is the boundary
    whose rank is taken last.  d_{j-1} d_j = 0 is checked on the whole of
    A^{j-1} before its rank consumes it; a flipped column of degree j >= 2
    breaks the check of its own degree, one of degree 1 the check of
    degree 2, since d_0 = 0.
    """
    real_columns = simplicial._boundary_columns

    def corrupted_columns(simplices, *args):
        cols = real_columns(simplices, *args)
        if simplices and len(simplices[0]) == degree + 1:
            k = min(cols[0])
            cols[0][k] = -cols[0][k]
        return cols

    monkeypatch.setattr(simplicial, "_boundary_columns", corrupted_columns)
    capsys.readouterr()
    assert main(["verify", str(GOLDEN_S3), "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("internal check failed: ")
    assert f"degree {max(degree, 2)} " in err


def test_cli_writes_the_report_when_an_internal_check_fails(monkeypatch, capsys):
    """A failed check inside the report exits 3 and still writes the report."""
    real = verify.complement_connectivity_check
    failed = []

    def one_cover_failure(spec, cover):
        lift = cover.fiber_over(spec.branch_simplices()[0])[0]
        failed.append(lift)
        return real(spec, cover)._replace(cover_failures=(lift,))

    monkeypatch.setattr(verify, "complement_connectivity_check", one_cover_failure)
    capsys.readouterr()
    assert main(["verify", str(GOLDEN_SPHERE), "--format", "json"]) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == ""
    assert not report["internal_ok"] and report["all_equal"]
    assert report["connectivity"]["cover_failures"] == [list(failed[0])]
    assert not report["connectivity"]["ok"]


def test_cli_exits_3_when_the_cover_breaks_riemann_hurwitz(monkeypatch, capsys):
    """A cover missing one top simplex fails the Euler-characteristic identity."""
    real = verify.fox_complete
    chis = []

    def drop_one_top_simplex(spec):
        cover = real(spec)
        chis.append(cover.total.euler_characteristic())
        top = cover.total.simplices_of_dim(cover.total.dim)[0]
        total = SimplicialComplex(s for s in cover.total.all_simplices() if s != top)
        projection = {s: b for s, b in cover.projection.items() if s != top}
        return CoverComplex(spec, total, projection)

    monkeypatch.setattr(verify, "fox_complete", drop_one_top_simplex)
    capsys.readouterr()
    assert main(["verify", str(GOLDEN_SPHERE), "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"internal check failed: chi of the cover is {chis[0] - 1} "
                   f"but the branch data predicts {chis[0]}\n")


GOLDEN_CIRCLE_D64 = Path(__file__).resolve().parent / "golden" / "circle-d64-seed1.json"


def test_unbranched_verify_takes_the_base_homology_once(monkeypatch, capsys):
    """With no branch locus ih(base; trivial) is the base homology, computed once."""
    calls = []

    def spy(module):
        real = module.homology_ranks

        def counted(c, chosen, rank=1, *args):
            calls.append((c.n_simplices(), rank))
            return real(c, chosen, rank, *args)
        monkeypatch.setattr(module, "homology_ranks", counted)

    spy(simplicial)      # betti_numbers
    spy(intersection)    # ih_betti
    capsys.readouterr()
    assert main(["verify", str(GOLDEN_CIRCLE_D64)]) == 0
    out = capsys.readouterr().out
    # the cover, then ih(base; trivial) and ih(base; kernel) on the hexagon
    assert calls == [(768, 1), (12, 1), (12, 63)]
    golden = GOLDEN_CIRCLE_D64.with_name("verify-circle-d64-seed1.out")
    assert out == golden.read_text(encoding="utf-8")
