import json
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from branchcover.cli import main
from branchcover.covering import MonodromyRep, complement_presentation
from branchcover.errors import InputError
from branchcover.presentation import edge_path_presentation
from branchcover.simplicial import SimplicialComplex, barycentric_subdivide_complex
from branchcover.specfile import (
    MAX_COVER_SIMPLICES,
    MAX_DEGREE,
    load_spec,
    parse_spec_text,
    subdivided_f_vector,
)
from branchcover.stratified import StratifiedComplex
from branchcover.fixtures import (
    circle_cover_data,
    cycle_complex,
    octahedron,
    pinched_torus,
    spec_to_dict,
    spec_to_text,
)

from complexes import full_simplex
from oracles import close_faces

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_fixture(tmp_path, name, *extra):
    out = tmp_path / f"{name}.json"
    rc = main(["fixture", name, *extra, "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# spec file parsing


def test_parse_minimal():
    data = parse_spec_text('{"complex": [[0], [1], [0, 1]]}')
    loaded = load_spec(data)
    assert loaded.base.dim == 1
    assert loaded.branch is None


def test_parse_rejects_bad_json():
    with pytest.raises(InputError, match="not valid JSON"):
        parse_spec_text("not json")


def test_parse_rejects_unknown_key():
    with pytest.raises(InputError, match="unknown key 'monodromy_typo'"):
        parse_spec_text('{"complex": [[0]], "monodromy_typo": {}}')


def test_parse_rejects_bad_options():
    with pytest.raises(InputError, match="options.perversity must be lower, upper, zero or top"):
        parse_spec_text('{"complex": [[0]], "options": {"perversity": "middle"}}')
    with pytest.raises(InputError, match="options.subdivisions must be 0, 1 or 2"):
        parse_spec_text('{"complex": [[0]], "options": {"subdivisions": 5}}')


def test_parse_rejects_bad_assignment_key():
    text = json.dumps({
        "complex": [[0], [1], [0, 1]],
        "monodromy": {"degree": 2, "assignments": {"1-0": [1, 0]}},
    })
    with pytest.raises(InputError, match="assignment key '1-0' is not of the form 'u->v'"):
        load_spec(parse_spec_text(text))


def test_roundtrip_circle_cover():
    y, r, rep, pres = circle_cover_data(3, (1, 2, 0))
    text = spec_to_text(spec_to_dict(y, r, rep, pres))
    loaded = load_spec(parse_spec_text(text))
    spec = loaded.cover_spec()
    assert spec.degree == 3
    assert spec.monodromy.images == ((1, 2, 0),)


def test_subdivisions_option():
    text = json.dumps({
        "complex": [[0], [1], [2], [0, 1], [0, 2], [1, 2]],
        "options": {"subdivisions": 1},
    })
    loaded = load_spec(parse_spec_text(text))
    assert loaded.base.complex.n_simplices(0) == 6  # subdivided 3-cycle


# ---------------------------------------------------------------------------
# CLI commands with fixture-backed golden outputs


def test_cli_fixture_roundtrip_and_verify(tmp_path, capsys):
    path = write_fixture(tmp_path, "sphere-branched", "--points", "6", "--degree", "2")
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "b(cover)          = [1, 4, 1]" in out
    assert "ih(base; trivial) = [1, 0, 1]" in out
    assert "ih(base; kernel)  = [0, 4, 0]" in out
    assert "per-degree equality: HOLDS" in out


def test_cli_verify_json_deterministic(tmp_path):
    path = write_fixture(tmp_path, "sphere-branched", "--points", "4", "--degree", "2")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", str(path), "--format", "json", "--out", str(out1)]) == 0
    assert main(["verify", str(path), "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["all_equal"] is True
    assert payload["betti_cover"] == [1, 2, 1]


def test_cli_generators_hexagon(tmp_path, capsys):
    path = write_fixture(tmp_path, "circle-cover", "--degree", "2")
    rc = main(["generators", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == ("basepoint: 0\n"
                   "vertices: 6\n"
                   "tree-edges: 5\n"
                   "generators (1):\n"
                   "  g0: 3->4\n"
                   "relators: 0\n")


def test_cli_generators_disconnected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "complex": [[0], [1], [2], [3], [0, 1], [2, 3]],
        "monodromy": {"degree": 1, "assignments": {}},
    }))
    rc = main(["generators", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "not connected" in err


def test_cli_corrupted_monodromy_exit_code(tmp_path, capsys):
    path = write_fixture(tmp_path, "sphere-branched", "--points", "6", "--degree", "2")
    raw = json.loads(path.read_text())
    key = sorted(raw["monodromy"]["assignments"])[0]
    raw["monodromy"]["assignments"][key] = [0, 0]
    path.write_text(json.dumps(raw))
    rc = main(["verify", str(path)])
    capsys.readouterr()
    assert rc == 1


def test_cli_homology(tmp_path, capsys):
    path = write_fixture(tmp_path, "circle-cover", "--degree", "3")
    rc = main(["homology", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == "betti: [1, 1]\n"


def test_cli_twisted(tmp_path, capsys):
    path = write_fixture(tmp_path, "circle-cover", "--degree", "3", "--perm", "1,2,0")
    rc = main(["twisted", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "complement betti:          [1, 1]" in out
    assert "pushforward twisted betti: [1, 1]" in out
    assert "kernel twisted betti:      [0, 0]" in out


def test_cli_ih_fixtures(tmp_path, capsys):
    path = write_fixture(tmp_path, "suspension-torus")
    assert main(["ih", str(path), "--perversity", "upper"]) == 0
    assert capsys.readouterr().out == "ih (upper): [1, 0, 2, 1]\n"
    assert main(["ih", str(path), "--perversity", "lower"]) == 0
    assert capsys.readouterr().out == "ih (lower): [1, 2, 0, 1]\n"

    path = write_fixture(tmp_path, "pinched-torus")
    assert main(["ih", str(path)]) == 0
    assert capsys.readouterr().out == "ih (lower): [1, 0, 1]\n"


def test_cli_fibers(tmp_path, capsys):
    path = write_fixture(tmp_path, "sphere-branched", "--points", "2", "--degree", "2")
    rc = main(["fibers", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("| ok") == 2
    assert "codimension check" in out


def test_cli_cone_check(tmp_path, capsys):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(
        {"complex": [[i] for i in range(6)]
         + [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]}))
    rc = main(["cone-check", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "link ih: [1, 1]" in out
    assert "cone ih: [1, 0, 0]" in out
    assert "cone formula: HOLDS" in out


def test_cli_unknown_fixture(capsys):
    rc = main(["fixture", "klein-bottle"])
    assert rc == 1
    assert "unknown fixture" in capsys.readouterr().err


def test_cli_fixture_s3_runs_verify(tmp_path, capsys):
    path = write_fixture(tmp_path, "s3-unknot-double")
    rc = main(["verify", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["betti_cover"] == [1, 0, 0, 1]
    assert payload["ih_kernel"] == [0, 0, 0, 0]


def test_cli_byte_identical_reports(tmp_path):
    path = write_fixture(tmp_path, "circle-cover", "--degree", "2")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["generators", str(path), "--out", str(a)])
    main(["generators", str(path), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


FIXTURE_ARGS = {
    "sphere-branched": ("--points", "4", "--degree", "2"),
    "s3-unknot-double": (),
    "suspension-torus": (),
    "pinched-torus": (),
    "circle-cover": ("--degree", "3", "--perm", "1,2,0"),
}


def test_every_fixture_roundtrips_and_is_deterministic(tmp_path):
    for name, extra in FIXTURE_ARGS.items():
        a = tmp_path / f"{name}-a.json"
        b = tmp_path / f"{name}-b.json"
        assert main(["fixture", name, *extra, "--out", str(a)]) == 0
        assert main(["fixture", name, *extra, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        loaded = load_spec(parse_spec_text(a.read_text()))  # validates
        if loaded.monodromy is not None:
            loaded.cover_spec()  # full validation including relators


# text edits of sphere-p2-d2.json, whose "10->18" is [0, 1]; each edited spec
# once ran with the last of two keys for one edge, or one object key, winning
ALIASED_KEYS = {
    "alias-spaces": ('"10->18":', '" 10 -> 18 ": [1, 0], "10->18":',
                     "assignment key ' 10 -> 18 ' must be written '10->18'"),
    "alias-plus": ('"10->18":', '"+10->18": [1, 0], "10->18":',
                   "assignment key '+10->18' must be written '10->18'"),
    "alias-leading-zero": ('"10->18":', '"010->18": [1, 0], "10->18":',
                           "assignment key '010->18' must be written '10->18'"),
    "alias-underscore": ('"10->18":', '"1_0->18": [1, 0], "10->18":',
                         "assignment key '1_0->18' must be written '10->18'"),
    "repeated-assignment": ('"10->18":', '"10->18": [1, 0], "10->18":',
                            "key '10->18' is repeated in a JSON object"),
    "repeated-section": ('"options": {', '"options": {"perversity": "upper"}, "options": {',
                         "key 'options' is repeated in a JSON object"),
}


@pytest.mark.parametrize("case", sorted(ALIASED_KEYS))
def test_cli_rejects_two_names_for_one_key(case, tmp_path, capsys):
    old, new, message = ALIASED_KEYS[case]
    text = (GOLDEN / "sphere-p2-d2.json").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "spec.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_requires_complex_key():
    with pytest.raises(InputError, match="missing required key 'complex'"):
        parse_spec_text('{"branch": []}')



def _set_basepoint_list(raw):
    raw["monodromy"]["basepoint"] = [1]


def _set_degree_true(raw):
    raw["monodromy"]["degree"] = True  # the fixture has degree 1


def _set_subdivisions_true(raw):
    del raw["monodromy"]
    raw["options"]["subdivisions"] = True


def _assignment_bools(raw):
    for key in raw["monodromy"]["assignments"]:
        raw["monodromy"]["assignments"][key] = [True, False]  # once ran as the swap


def _options_null(raw):
    raw["options"] = None


def _options_unknown_key(raw):
    raw["options"]["subdivision"] = 1  # a typo for subdivisions once ran unsubdivided


def _monodromy_unknown_key(raw):
    raw["monodromy"]["bogus"] = 1


def _branch_everywhere(raw):
    del raw["monodromy"]
    raw["branch"] = raw["complex"]


def _one_edge_over_degree_cap(raw):
    # one edge and no generators: once ran with memory growing with the degree
    raw.clear()
    raw.update({"complex": [[0], [1], [0, 1]],
                "monodromy": {"degree": MAX_DEGREE + 1, "assignments": {}}})


SPEC = object()  # stands for the path of the edited spec in a command line

# case -> (command line, circle-cover degree, edit of the spec or None); each
# edited spec once ran (degree, subdivisions) or crashed with a traceback,
# each usage error once exited 2 with a multi-line usage block, and each
# fixture degree once wrote a spec with exit 0 (one that no command accepts,
# or one past the degree cap)
HOSTILE_EDITS = {
    "basepoint-list": (("verify", SPEC), "2", _set_basepoint_list),
    "degree-bool": (("verify", SPEC), "1", _set_degree_true),
    "subdivisions-bool": (("homology", SPEC), "2", _set_subdivisions_true),
    "generators-empty-complement": (("generators", SPEC), "2", _branch_everywhere),
    "assignment-bool": (("verify", SPEC), "2", _assignment_bools),
    "options-null": (("verify", SPEC), "2", _options_null),
    "options-unknown-key": (("verify", SPEC), "3", _options_unknown_key),
    "monodromy-unknown-key": (("verify", SPEC), "3", _monodromy_unknown_key),
    "usage-unknown-option": (("verify", SPEC, "--bogus"), "2", None),
    "usage-no-command": ((), "2", None),
    "usage-bad-perversity": (("verify", SPEC, "--perversity", "bogus"), "2", None),
    "degree-over-cap": (("verify", SPEC), "2", _one_edge_over_degree_cap),
    "fixture-degree-zero": (("fixture", "circle-cover", "--degree", "0"), "2", None),
    "fixture-degree-negative": (("fixture", "circle-cover", "--degree", "-3"), "2", None),
    "fixture-degree-over-cap": (
        ("fixture", "circle-cover", "--degree", str(MAX_DEGREE + 1)), "2", None),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_EDITS))
def test_cli_rejects_hostile_spec_in_one_line(case, tmp_path, capsys):
    argv, degree, edit = HOSTILE_EDITS[case]
    path = write_fixture(tmp_path, "circle-cover", "--degree", degree)
    if edit is not None:
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main([str(path) if a is SPEC else a for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--perversity" in capsys.readouterr().out


def test_cli_unexpected_exception_exits_3_in_one_line(tmp_path, capsys, monkeypatch):
    import branchcover.cli as cli

    def broken(spec, perversity):
        raise RuntimeError("stage broke\nsecond line")

    monkeypatch.setattr(cli, "verify_branched", broken)
    path = write_fixture(tmp_path, "circle-cover", "--degree", "2")
    capsys.readouterr()
    rc = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "internal error: RuntimeError: stage broke\n"


def test_cli_unreadable_spec_is_input_error(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary):  # a directory, then bytes that are not UTF-8
        capsys.readouterr()
        rc = main(["verify", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1


def _octahedron_spec(**sections):
    simplices = sorted(octahedron().simplices, key=lambda s: (len(s), s))
    return {"complex": [list(s) for s in simplices], **sections}


# site -> (commands, spec): two adjacent vertices of the octahedron are not
# a full subcomplex, as a branch locus or as a filtration level
NOT_FULL = {
    "branch-locus": (("verify", "fibers", "twisted"), _octahedron_spec(
        branch=[[0], [1]], monodromy={"degree": 1, "assignments": {"3->5": [0], "4->5": [0]}})),
    "filtration-level": (("ih",), _octahedron_spec(stratification=[[[0], [1]]])),
}


@pytest.mark.parametrize("site", sorted(NOT_FULL))
def test_cli_not_full_names_the_subdivisions_option(site, tmp_path, capsys):
    commands, raw = NOT_FULL[site]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    for command in commands:
        capsys.readouterr()
        rc = main([command, str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "full subcomplex" in err and "subdivisions" in err


def _golden_with_basepoint(basepoint):
    raw = json.loads((GOLDEN / "sphere-p2-d2.json").read_text(encoding="utf-8"))
    raw["monodromy"]["basepoint"] = raw["branch"][0][0] if basepoint is None else basepoint
    return raw


# case -> spec whose complement cannot be presented
BAD_COMPLEMENTS = {
    "empty": lambda: {"complex": [], "monodromy": {"degree": 1, "assignments": {}}},
    "disconnected": lambda: {  # a bowtie branched at its pinch vertex
        "complex": [[0], [1], [2], [3], [4], [0, 1], [0, 2], [1, 2], [0, 3], [0, 4], [3, 4],
                    [0, 1, 2], [0, 3, 4]],
        "branch": [[0]], "monodromy": {"degree": 1, "assignments": {}}},
    "basepoint-on-locus": lambda: _golden_with_basepoint(None),
    "basepoint-not-a-vertex": lambda: _golden_with_basepoint(999),
}


@pytest.mark.parametrize("case", sorted(BAD_COMPLEMENTS))
def test_cover_spec_rejects_bad_complement_as_verify_does(case, tmp_path, capsys):
    """A library caller presents the complement for its spec with the
    loader's one builder, so it meets the same error class and message,
    which `verify` prints in one line."""
    raw = BAD_COMPLEMENTS[case]()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(["verify", str(path)])
    err = capsys.readouterr().err
    with pytest.raises(InputError) as from_loader:
        load_spec(parse_spec_text(json.dumps(raw)))
    mono = raw.pop("monodromy")
    loaded = load_spec(parse_spec_text(json.dumps(raw)))
    branch_vertices = frozenset(loaded.branch.complex.vertices) if loaded.branch else ()
    with pytest.raises(InputError) as from_spec:
        complement_presentation(loaded.base.complex, branch_vertices, mono.get("basepoint"))
    assert type(from_spec.value) is type(from_loader.value)
    assert str(from_spec.value) == str(from_loader.value)
    assert rc == 1 and err == f"error: {from_spec.value}\n"


def _cycle_spec(n: int, degree: int) -> str:
    (u, v), = edge_path_presentation(cycle_complex(n), 0).generators
    return json.dumps({
        "complex": [list(s) for s in cycle_complex(n).all_simplices()],
        "monodromy": {"degree": degree,
                      "assignments": {f"{u}->{v}": [(i + 1) % degree for i in range(degree)]}}})


def test_cover_size_cap_exits_1_before_the_cover_is_built(tmp_path, capsys, monkeypatch):
    """51 edges and 51 vertices at degree 10 000 ask for 1 020 000 simplices."""
    import branchcover.specfile as specfile
    import branchcover.verify as verify

    def never(*args):
        raise AssertionError("reached past the cover size check")

    monkeypatch.setattr(verify, "fox_complete", never)
    monkeypatch.setattr(specfile, "complement_presentation", never)
    path = tmp_path / "cycle.json"
    path.write_text(_cycle_spec(51, MAX_DEGREE))
    capsys.readouterr()
    rc = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: a degree-{MAX_DEGREE} cover of 102 base simplices exceeds "
                   f"{MAX_COVER_SIMPLICES} simplices\n")


def test_cover_size_cap_admits_exactly_the_cap():
    loaded = load_spec(parse_spec_text(_cycle_spec(50, MAX_DEGREE)))
    assert loaded.monodromy.degree * loaded.base.complex.n_simplices() == MAX_COVER_SIMPLICES


def _f_vector(c):
    return [c.n_simplices(d) for d in range(c.dim + 1)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=4),
                min_size=1, max_size=5), st.integers(1, 2))
def test_subdivided_f_vector_counts_the_subdivision(facets, times):
    c = SimplicialComplex(close_faces(facets))
    f = _f_vector(c)
    for _ in range(times):
        c = barycentric_subdivide_complex(c)[0]
        f = subdivided_f_vector(f)
        assert f == _f_vector(c)
    assert sum(f) == c.n_simplices()


def test_subdivided_f_vector_of_full_simplices():
    """The counts that the subdivision itself gives for the full 4- and 6-simplex."""
    assert sum(subdivided_f_vector(_f_vector(full_simplex(4)))) == 1081
    assert sum(subdivided_f_vector(subdivided_f_vector(_f_vector(full_simplex(4))))) == 97561
    assert sum(subdivided_f_vector(_f_vector(full_simplex(6)))) == 94585


# (vertices, subdivisions) of a full simplex -> simplices of its subdivision
HUGE_SUBDIVISIONS = {(9, 1): 14_174_521, (7, 2): 352_063_321}


@pytest.mark.parametrize("vertices, subdivisions", sorted(HUGE_SUBDIVISIONS))
def test_subdivision_past_the_cap_exits_1_before_subdividing(vertices, subdivisions,
                                                             tmp_path, capsys):
    """A spec of a few KB asks for millions of simplices through its
    subdivisions: every command, with or without a monodromy, rejects it
    in one line by counting the subdivision, never making it."""
    n = HUGE_SUBDIVISIONS[vertices, subdivisions]
    raw = {"complex": [list(s) for k in range(1, vertices + 1)
                       for s in combinations(range(vertices), k)],
           "options": {"subdivisions": subdivisions}}
    with_monodromy = {**raw, "monodromy": {"degree": 2, "assignments": {}}}
    path = tmp_path / "simplex.json"
    for spec, commands, what in (
            (raw, SPEC_COMMANDS, f"a base of {n} simplices"),
            (with_monodromy, ("verify", "fibers"), f"a degree-2 cover of {n} base simplices")):
        path.write_text(json.dumps(spec))
        for command in commands:
            capsys.readouterr()
            tracemalloc.start()
            try:
                rc = main([command, str(path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 1
            assert capsys.readouterr() == (
                "", f"error: {what} exceeds {MAX_COVER_SIMPLICES} simplices\n")
            assert peak < 2**21  # the first command imports `commands`: 0.9 MB


# case -> a spec that `json` cannot read, once an exit 3 as an internal error
UNREADABLE_JSON = {
    "nested-1000-deep": '{"complex": ' + "[" * 1000 + "]" * 1000 + "}",
    "integer-of-5000-digits": '{"complex": [[' + "1" * 5000 + "]]}",
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
def test_json_too_deep_or_too_long_is_input_error(case, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(UNREADABLE_JSON[case])
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: not valid JSON: ") and err.count("\n") == 1


SPEC_COMMANDS = ("generators", "verify", "homology", "twisted", "ih", "fibers", "cone-check")


def _sphere_with_branch_outside_base(subdivisions: int) -> dict:
    """sphere-p2-d2 at ``subdivisions`` with identity assignments, and the
    vertex [999], which is not in the base, added to its branch locus."""
    raw = json.loads((GOLDEN / "sphere-p2-d2.json").read_text(encoding="utf-8"))
    raw["options"]["subdivisions"] = subdivisions
    degree = raw.pop("monodromy")["degree"]
    loaded = load_spec(parse_spec_text(json.dumps(raw)))
    pres = complement_presentation(loaded.base.complex, frozenset(loaded.branch.complex.vertices))
    raw["monodromy"] = {"degree": degree, "assignments": {
        f"{u}->{v}": list(range(degree)) for u, v in pres.generators}}
    raw["branch"].append([999])
    return raw


@pytest.mark.parametrize("subdivisions", (0, 1))
def test_branch_outside_the_base_is_rejected_before_subdividing(subdivisions, tmp_path, capsys):
    """A subdivision carries only the branch simplices inside the base, so
    one outside it is rejected before subdividing, by every command."""
    raw = _sphere_with_branch_outside_base(subdivisions)
    message = "branch locus is not a subcomplex of the base"
    with pytest.raises(InputError, match=f"^{message}$"):
        load_spec(parse_spec_text(json.dumps(raw)))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    for command in SPEC_COMMANDS:
        capsys.readouterr()
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    raw["branch"].pop()  # the rest of the spec is good: it verifies
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path)]) == 0


def test_cli_verify_and_fibers_name_the_disconnected_punctured_star(tmp_path, capsys):
    """The pinched torus branched at its pinch vertex: both commands print
    the one message of the spec's connectivity test and exit 1."""
    pt = pinched_torus()
    pinch, = pt.level(0).vertices
    pres = complement_presentation(pt.complex, {pinch})
    rep = MonodromyRep(1, tuple((0,) for _ in pres.generators))
    branch = StratifiedComplex(SimplicialComplex([(pinch,)]))
    path = tmp_path / "pinched.json"
    path.write_text(spec_to_text(spec_to_dict(pt, branch, rep, pres)))
    for command in ("verify", "fibers"):
        capsys.readouterr()
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: punctured star of branch simplex [{pinch}] is not connected\n")
