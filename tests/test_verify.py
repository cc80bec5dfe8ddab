import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from branchcover import intersection, simplicial, verify
from branchcover.cli import main
from branchcover.covering import (
    BranchedCoverSpec,
    MonodromyRep,
    complement_presentation,
    fox_complete,
    refine_stratification,
)
from branchcover.errors import InputError
from branchcover.simplicial import SimplicialComplex
from branchcover.stratified import EMPTY_STRATIFIED, StratifiedComplex
from branchcover.specfile import load_spec, parse_spec_text
from branchcover.verify import (
    fiber_rank_report,
    verify_branched,
)
from branchcover.commands import codim_check
from branchcover.fixtures import (
    circle_cover_data,
    s3_unknot_double_data,
    spec_to_text,
    sphere_branched_data,
    suspension_torus,
)
from branchcover.intersection import PERVERSITIES, perversity_by_name

from complexes import codim3_vertex_data, ih, orbits, rebased, suspended
from oracles import (
    dense_nullspace,
    fibers_by_projection,
    pullback_stratification,
    suspension_ih_oracle,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# unbranched splitting


def test_unbranched_trivial_degree_one():
    y, r, rep = circle_cover_data(1, (0,))
    report = verify_branched(BranchedCoverSpec(y, r, rep))
    assert report.all_equal
    assert report.ih_kernel == (0, 0)


def test_unbranched_connected_triple_cover():
    y, r, rep = circle_cover_data(3, (1, 2, 0))
    report = verify_branched(BranchedCoverSpec(y, r, rep))
    assert report.betti_cover == (1, 1)
    assert report.ih_trivial == (1, 1)
    assert report.ih_kernel == (0, 0)
    assert report.all_equal


def test_unbranched_disconnected_identity_cover():
    y, r, rep = circle_cover_data(2, (0, 1))
    report = verify_branched(BranchedCoverSpec(y, r, rep))
    assert report.betti_cover == (2, 2)
    assert report.ih_kernel == (1, 1)  # trivial rank-1 kernel
    assert report.all_equal


@pytest.mark.parametrize("data", [circle_cover_data(2, (1, 0)), sphere_branched_data(2, 2)],
                         ids=["base-dim-1", "base-dim-2"])
def test_an_unknown_perversity_name_is_rejected_at_every_dimension(data):
    with pytest.raises(InputError, match="unknown perversity name 'bogus'"):
        verify_branched(BranchedCoverSpec(*data), "bogus")


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
    y, r, rep = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep)
    for name in ("lower", "upper"):
        report = verify_branched(spec, name)
        assert report.betti_cover == (1, 4, 1)
        assert report.ih_trivial == (1, 0, 1)
        assert report.ih_kernel == (0, 4, 0)
        assert report.all_equal and report.internal_ok


def test_branched_cyclic_triple_cover():
    y, r, rep = sphere_branched_data(3, 3)
    spec = BranchedCoverSpec(y, r, rep)
    for name in ("lower", "upper"):
        report = verify_branched(spec, name)
        assert report.betti_cover == (1, 2, 1)
        assert report.ih_trivial == (1, 0, 1)
        assert report.ih_kernel == (0, 2, 0)
        assert report.all_equal and report.internal_ok


def test_branched_unknot_double():
    y, r, rep = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep)
    report = verify_branched(spec, "lower")
    assert report.betti_cover == (1, 0, 0, 1)
    assert report.ih_trivial == (1, 0, 0, 1)
    assert report.ih_kernel == (0, 0, 0, 0)
    assert report.all_equal and report.internal_ok


def test_branched_report_consistency_fields():
    y, r, rep = sphere_branched_data(4, 2)
    report = verify_branched(BranchedCoverSpec(y, r, rep), "lower")
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
        y, r, rep = builder(*args)
        spec = BranchedCoverSpec(y, r, rep)
        lo = verify_branched(spec, "lower")
        up = verify_branched(spec, "upper")
        assert lo.ih_trivial == up.ih_trivial
        assert lo.ih_kernel == up.ih_kernel


# ---------------------------------------------------------------------------
# fiber table


def test_fiber_report_rows():
    y, r, rep = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep)
    cover = fox_complete(spec)
    report = fiber_rank_report(cover)
    assert len(report.rows) == 6
    for row in report.rows:
        assert row.orbit_count == 1
        assert row.one_plus_invariants == 1
        assert row.lift_count == 1
        assert row.ok
    assert report.ok


def test_fiber_report_trivial_local_group():
    y, r, rep = codim3_vertex_data(3)
    spec = BranchedCoverSpec(y, r, rep)
    report = fiber_rank_report(fox_complete(spec))
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
    spec = BranchedCoverSpec(*codim3_vertex_data(2))
    report = codim_check(spec, orbits(fox_complete(spec)))
    assert report.applicable
    assert report.non_minimal
    assert all(card == 2 for (_tau, card) in report.fibers)


def test_codim_check_skipped_at_codim_two():
    spec = BranchedCoverSpec(*sphere_branched_data(6, 2))
    report = codim_check(spec, orbits(fox_complete(spec)))
    assert not report.applicable
    assert "not applicable" in report.note


def test_codim_check_empty_branch():
    spec = BranchedCoverSpec(*circle_cover_data(2, (1, 0)))
    report = codim_check(spec, orbits(fox_complete(spec)))
    assert not report.applicable
    assert "vacuous" in report.note


# ---------------------------------------------------------------------------
# serialization determinism


def test_report_serialization_deterministic():
    y, r, rep = sphere_branched_data(6, 2)
    spec = BranchedCoverSpec(y, r, rep)
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
    rep = MonodromyRep(2, {g: cyclic_image(s, 2) for g, s in zip(pres.generators, sol)})
    return BranchedCoverSpec(y, r, rep)


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
        spec.base, spec.branch, spec.monodromy)))
    assert main(["verify", str(path)]) == 0
    assert "  ih(cover)         = [1, 4, 0, 1]\n" in capsys.readouterr().out
    assert main(["verify", str(path), "--perversity", "upper"]) == 0
    real = verify.ih_betti

    def off_by_one(sc, *, allowed, coeff=None):  # the kernel IH gains a class in degree 1
        ranks = real(sc, allowed=allowed, coeff=coeff)
        return ranks[:1] + (ranks[1] + 1,) + ranks[2:] if coeff is not None else ranks

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
    real_check, real_fox = covering._one_component, verify.fox_complete
    events, covers = [], []

    def check_spy(c):
        events.append(c)
        return real_check(c)

    def fox_spy(spec):
        covers.append(real_fox(spec))
        events.append("cover")
        return covers[-1]

    monkeypatch.setattr(covering, "_one_component", check_spy)
    monkeypatch.setattr(verify, "fox_complete", fox_spy)
    report = verify_branched(spec, loaded.perversity)
    stars = set(covers[0].stars.values())
    lifts = report.connectivity.checked_cover
    assert len(stars) == 8 and report.connectivity.checked_base == 16 and lifts == 16
    assert events.index("cover") == len(stars) and set(events[:len(stars)]) == stars
    assert len(events) == len(stars) + 1 + lifts
    assert report.connectivity.ok and report.connectivity.base_failures == ()


def test_verify_computes_each_local_monodromy_group_once(monkeypatch):
    from branchcover import covering

    y, r, rep = s3_unknot_double_data()
    spec = BranchedCoverSpec(y, r, rep)
    real = covering.edge_path_presentation
    computed = []

    def spy(complex_, basepoint):
        computed.append(complex_)
        return real(complex_, basepoint)

    # one presentation per branch simplex, of its punctured star: the fiber
    # table traces each group once and Riemann-Hurwitz reads its orbit counts
    monkeypatch.setattr(covering, "edge_path_presentation", spy)
    report = verify_branched(spec, "lower")
    assert len(report.fiber.rows) == 12
    assert len(computed) == 12 and len(set(computed)) == 6
    cover = fox_complete(spec)
    assert computed == [cover.stars[tau] for tau in spec.branch_simplices()]


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
    spec = loaded.cover_spec()
    report = verify_branched(spec, loaded.perversity)
    assert report.all_equal and report.internal_ok
    assert validated == [spec.presentation]


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


@pytest.mark.parametrize("degree, rank", [(1, 1), (2, 1), (3, 1), (2, 2)],
                         ids=["1", "2", "3", "kernel"])
def test_verify_catches_corrupted_boundary_in_every_degree(monkeypatch, capsys, degree, rank):
    """A sign flipped in one boundary column of each degree exits 3 in one
    line that names the failing homology of the report.

    The cover of s3-unknot-double has dimension 3, so degree 3 is the
    boundary whose rank is taken last.  d_{j-1} d_j = 0 is checked on the
    whole of A^{j-1} before its rank consumes it; a flipped column of
    degree j >= 2 breaks the check of its own degree, one of degree 1 the
    check of degree 2, since d_0 = 0.  Every homology is corrupted, so the
    first, the cover's, fails.  Corrupting only the columns of ``rank`` 2
    or more reaches the kernel system alone, of rank 2 on the degree-3
    sphere-p3-d3.  The flipped column is the one whose rows are least, so
    that in intersection homology all its faces are allowable and it is
    a chain on its own.
    """
    real_columns = simplicial._boundary_columns

    def corrupted_columns(simplices, rows, coefficients, *args):
        cols = real_columns(simplices, rows, coefficients, *args)
        if simplices and len(simplices[0]) == degree + 1 and coefficients >= rank:
            col = min(cols, key=max)
            k = min(col)
            col[k] = -col[k]
        return cols

    monkeypatch.setattr(simplicial, "_boundary_columns", corrupted_columns)
    capsys.readouterr()
    spec, stage = (GOLDEN_S3, "b(cover)") if rank == 1 else (GOLDEN_SPHERE, "ih(base; kernel)")
    assert main(["verify", str(spec), "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("internal check failed: ")
    assert f"degree {max(degree, 2)} " in err and err.endswith(f", in {stage}\n")


def test_cli_writes_the_report_when_an_internal_check_fails(monkeypatch, capsys):
    """A failed check inside the report exits 3 and still writes the report."""
    real = verify.complement_connectivity_check
    failed = []

    def one_cover_failure(cover):
        lift = cover.fibers[cover.spec.branch_simplices()[0]][0]
        failed.append(lift)
        return real(cover)._replace(cover_failures=(lift,))

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
        fibers = fibers_by_projection(projection, spec.branch_simplices())
        return cover._replace(total=total, projection=projection, fibers=fibers)

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


# ---------------------------------------------------------------------------
# the choice of basepoint


# the golden specs with a monodromy, less susp-cover, whose verify alone takes seconds
REBASED_SPECS = ("circle-d5", "circle-d64-seed1", "s3-unknot-double", "sphere-p2-d2",
                 "sphere-p3-d3", "sphere-p6-d3", "sphere-p6-d6", "sphere2pt-d31-seed1")


@functools.cache
def _golden_report(name: str):
    """The loaded golden spec and its verify report as JSON."""
    loaded = load_spec(parse_spec_text((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
    spec = loaded.cover_spec()
    return loaded, spec.complement.vertices, verify_branched(spec, loaded.perversity).to_json()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(REBASED_SPECS), st.data())
def test_report_does_not_depend_on_the_basepoint(name, data):
    """The same monodromy read from any complement vertex gives the same report."""
    loaded, vertices, report = _golden_report(name)
    b = data.draw(st.sampled_from(vertices), label="basepoint")
    rep = rebased(loaded.base, loaded.branch, loaded.monodromy, b)
    spec = BranchedCoverSpec(loaded.base, loaded.branch, rep)
    assert spec.presentation.basepoint == b
    assert verify_branched(spec, loaded.perversity).to_json() == report


# ---------------------------------------------------------------------------
# the cover's intersection homology, read through the projection


def _empty_locus_on_a_singular_base() -> BranchedCoverSpec:
    """The identity degree-2 monodromy on the suspended torus: its apexes
    are a singular stratum, but the spec has no branch locus."""
    y = suspension_torus()
    pres = complement_presentation(y.complex, frozenset())
    return BranchedCoverSpec(y, EMPTY_STRATIFIED,
                             MonodromyRep(2, dict.fromkeys(pres.generators, (0, 1))))


def test_singular_base_with_an_empty_locus():
    """No simplex is a branch simplex, yet the lifts of the apexes are
    singular: the cover's IH is not its Betti numbers, and the pulled-back
    levels count the lifts of the refined ones."""
    report = verify_branched(_empty_locus_on_a_singular_base())
    assert report.fiber.rows == ()
    assert report.betti_cover == (2, 0, 4, 2)
    assert report.ih_cover == (2, 4, 0, 2)
    assert report.pullback_levels == ((0, 4), (1, 4), (2, 4), (3, 256))
    assert report.all_equal and report.internal_ok


def _cover_spec(name: str) -> BranchedCoverSpec:
    if name == "empty-locus":
        return _empty_locus_on_a_singular_base()
    return load_spec(parse_spec_text((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
                     ).cover_spec()


@pytest.mark.parametrize("name", REBASED_SPECS + ("susp-cover-seed1", "empty-locus"))
def test_cover_ih_is_ih_on_the_pulled_back_stratification(name):
    """The cover's IH and level sizes in the report, read through the
    projection, are those of the pulled-back stratification built upstairs."""
    spec = _cover_spec(name)
    refined = refine_stratification(spec.base, spec.branch)
    pulled = pullback_stratification(fox_complete(spec), refined)
    levels = tuple((j, level.n_simplices()) for j, level in enumerate(pulled.levels))
    for perversity in PERVERSITIES:
        report = verify_branched(spec, perversity)
        p = perversity_by_name(perversity, pulled.dim)
        assert ih(pulled, p) == report.ih_cover, perversity
        assert levels == report.pullback_levels


# ---------------------------------------------------------------------------
# one allowable set per verify


@pytest.mark.parametrize("perversity", ["lower", "upper"])
@pytest.mark.parametrize("name", REBASED_SPECS + ("susp-cover-seed1",))
def test_verify_derives_the_allowable_set_once(name, perversity, monkeypatch):
    """The cover's IH and both IH of the base read one allowable set: one
    scan and one fullness check of the refined stratification per verify."""
    spec = _cover_spec(name)
    real_allowable, real_full = intersection.allowable_simplices, StratifiedComplex.full_check
    calls = []

    def allowable_spy(sc, p):
        calls.append("allowable_simplices")
        return real_allowable(sc, p)

    def full_spy(sc):
        calls.append("full_check")
        return real_full(sc)

    for module in (intersection, verify):
        monkeypatch.setattr(module, "allowable_simplices", allowable_spy)
    monkeypatch.setattr(StratifiedComplex, "full_check", full_spy)
    verify_branched(spec, perversity)
    assert calls == ["allowable_simplices", "full_check"]


def _ic_layer():
    """The rule by which the benchmark's tracer names the span of an ``ih_betti`` call."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    module_spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracing)
    return tracing._ic_layer


@pytest.mark.parametrize("name", ["circle-d5", "s3-unknot-double", "sphere2pt-d31-seed1"])
def test_verify_passes_the_coefficients_where_the_tracer_reads_them(name, monkeypatch):
    """Two ``ih_betti`` calls per verify, trivial then kernel, each with its
    coefficients where the tracer reads them, so each gets its own span."""
    spec = _cover_spec(name)
    real, calls = verify.ih_betti, []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "ih_betti", spy)
    verify_branched(spec)
    layer = _ic_layer()
    assert [layer(args, kwargs) for args, kwargs in calls] == [
        "intersection.ic_trivial", "intersection.ic_kernel"]
    (_, trivial), (_, kernel) = calls
    assert trivial.get("coeff") is None and kernel["coeff"].rank == spec.degree - 1


# ---------------------------------------------------------------------------
# suspension


# s3-unknot-double at every perversity; susp-cover, whose suspension has the
# one codimension-4 stratum, where p(4) is 0, 1 and 2 (upper agrees with
# lower there: they differ only in odd codimension)
SUSPENDED = ([("s3-unknot-double", p) for p in ("lower", "upper", "zero", "top")]
             + [("susp-cover-seed1", p) for p in ("zero", "lower", "top")]
             + [("sphere-p2-d2", "lower"), ("sphere-p6-d3", "lower")])


@pytest.mark.parametrize("name, perversity", SUSPENDED)
def test_suspension_shifts_ih_as_the_suspension_formula_predicts(name, perversity,
                                                                  tmp_path, capsys):
    """verify on the suspension of a spec holds, and each IH it reports is
    the unsuspended one shifted by the suspension formula (Kirwan and
    Woolf, 2006): with n the suspended dimension and t = n - 1 - p(n),
    IH_i is kept below t, 0 at t and IH_{i-1} above t."""
    loaded = load_spec(parse_spec_text((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
    before = verify_branched(loaded.cover_spec(), perversity)
    path = tmp_path / "suspended.json"
    path.write_text(spec_to_text(suspended(loaded)), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(path), "--format", "json", "--perversity", perversity]) == 0
    after = json.loads(capsys.readouterr().out)
    n = loaded.base.dim + 1
    t = n - 1 - perversity_by_name(perversity, n)[n]
    assert after["base_dim"] == n
    b = before.betti_cover  # reduced homology shifts up by one degree
    assert tuple(after["betti_cover"]) == (1, b[0] - 1, *b[1:])
    for key in ("ih_trivial", "ih_kernel", "ih_cover"):
        assert tuple(after[key]) == suspension_ih_oracle(getattr(before, key), t), key
