"""File format for branched cover specifications.

A spec file is JSON with the following keys (all simplices are strictly
ascending lists of non-negative integers):

    complex                 required, list of simplices
    stratification          optional, descending singular levels of the
                            base, top level (dim m-2) first
    branch                  optional, list of simplices of the locus
    branch_stratification   optional, levels of a nonempty branch
    monodromy               optional: {"degree": d, "basepoint": v,
                            "assignments": {"u->v": [images]}}
    options                 optional: {"perversity": a name in
                            intersection.PERVERSITIES, "subdivisions": 0..2}

Any other key, at the top level or inside monodromy and options, is an
error, and so is a repeated key.  Assignments are 0-indexed image arrays
keyed "u->v", written exactly so, by the generator edges of the
deterministic presentation of the complement, computed after the
requested subdivisions; `generators` prints that contract.
"""
from __future__ import annotations

import json
from collections import namedtuple

from .errors import InputError
from .covering import BranchedCoverSpec, MonodromyRep
from .intersection import PERVERSITIES
from .simplicial import SimplicialComplex, validate_complex
from .stratified import StratifiedComplex, subdivide_with_subcomplexes


# Largest covering degree accepted from a spec file or `fixture --degree`.
# A cover holds d sheets over every simplex, so memory grows with d; the
# cap keeps a short hostile spec from exhausting it.
MAX_DEGREE = 10_000
# Largest number of base simplices after the subdivisions, times the degree
# when the spec has a monodromy, accepted from a spec file: a bound on the
# simplices of the subdivided base and of the cover, checked before the
# base is subdivided, the complement presented or any of the cover built.
MAX_COVER_SIMPLICES = 1_000_000


def read_spec(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


def parse_spec_text(text: str) -> dict:
    """The spec's JSON object, its keys and its options and monodromy checked."""
    try:
        raw = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:  # a number of too many digits is a ValueError
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError("top level must be an object")
    _reject_unknown_keys(raw, ("complex", "stratification", "branch", "branch_stratification",
                               "monodromy", "options"), "")
    if "complex" not in raw:
        raise InputError("missing required key 'complex'")
    opts = raw.get("options", {})
    if not isinstance(opts, dict):
        raise InputError("'options' must be an object")
    _reject_unknown_keys(opts, ("perversity", "subdivisions"), " in 'options'")
    names = tuple(PERVERSITIES)  # a tuple: an unhashable value is not in it, not an error
    if opts.get("perversity", "lower") not in names:
        raise InputError(f"options.perversity must be {', '.join(names[:-1])} or {names[-1]}")
    subs = opts.get("subdivisions", 0)
    if not _is_int(subs) or subs not in (0, 1, 2):
        raise InputError("options.subdivisions must be 0, 1 or 2")
    mono = raw.get("monodromy")
    if mono is not None:
        if not isinstance(mono, dict) or "degree" not in mono or "assignments" not in mono:
            raise InputError("'monodromy' needs keys degree and assignments")
        _reject_unknown_keys(mono, ("degree", "basepoint", "assignments"), " in 'monodromy'")
        if not _is_int(mono["degree"]) or mono["degree"] < 1:
            raise InputError("monodromy.degree must be a positive integer")
        if mono["degree"] > MAX_DEGREE:
            raise InputError(f"monodromy.degree must be at most {MAX_DEGREE}")
        if "basepoint" in mono and not _is_int(mono["basepoint"]):
            raise InputError("monodromy.basepoint must be an integer vertex id")
        if not isinstance(mono["assignments"], dict):
            raise InputError("monodromy.assignments must be an object")
    return raw


def _object(pairs: list) -> dict:
    """A JSON object, rejected when a key repeats: ``json`` would keep the last silently."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"key {key!r} is repeated in a JSON object")
        out[key] = value
    return out


def _reject_unknown_keys(section: dict, known, where: str) -> None:
    for key in section:
        if key not in known:
            raise InputError(f"unknown key {key!r}{where}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_edge_key(key: str) -> tuple[int, int]:
    try:
        u, v = map(int, key.split("->"))
    except ValueError:
        raise InputError(f"assignment key {key!r} is not of the form 'u->v'") from None
    if key != f"{u}->{v}":  # int() also reads " 10", "+10", "010" and "1_0" as 10
        raise InputError(f"assignment key {key!r} must be written '{u}->{v}'")
    if not u < v:
        raise InputError(f"assignment key {key!r} must be ascending")
    return (u, v)


def _simplices(raw: list, where: str) -> list:
    if not isinstance(raw, list):
        raise InputError(f"{where} must be a list of simplices")
    for s in raw:
        if not isinstance(s, list):
            raise InputError(f"{where}: entry {s!r} is not a list")
    return [tuple(s) for s in raw]


class LoadedSpec(namedtuple("LoadedSpec", "base branch monodromy perversity")):
    """The loaded sections: ``base`` and ``branch``, empty for a spec with no
    locus, are ``StratifiedComplex`` objects; ``monodromy``, the file's
    section as a ``MonodromyRep``, is ``None`` for a spec with no
    monodromy; ``perversity`` is a name."""

    __slots__ = ()

    def cover_spec(self) -> BranchedCoverSpec:
        if self.monodromy is None:
            raise InputError("this command needs a 'monodromy' section")
        return BranchedCoverSpec(self.base, self.branch, self.monodromy)


def _stratified_from_lists(complex_: SimplicialComplex, levels_raw: list | None,
                           where: str) -> StratifiedComplex:
    if levels_raw is not None and not isinstance(levels_raw, list):
        raise InputError(f"{where} must be a list of levels")
    return StratifiedComplex(complex_, [validate_complex(_simplices(level, where))
                                        for level in levels_raw or ()])


def subdivided_f_vector(f: list[int]) -> list[int]:
    """The f-vector of the barycentric subdivision of a complex whose f-vector is ``f``.

    The chains of k faces that end at a simplex of m vertices are the
    ordered partitions of its vertices into k blocks, k!·S(m, k) of them
    (S a Stirling number of the second kind), the surjections of an
    m-set onto a k-set; so the subdivision is counted without being made.
    """
    out = [0] * len(f)
    onto = [1]  # onto[k]: surjections of an m-set onto a k-set, here for m = 0
    for m, count in enumerate(f, start=1):
        onto = [0] + [k * (onto[k - 1] + (onto[k] if k < m else 0)) for k in range(1, m + 1)]
        for k in range(1, m + 1):
            out[k - 1] += count * onto[k]
    return out


def load_spec(data: dict) -> LoadedSpec:
    """Validate the parsed spec, subdivide as requested and assemble domain objects.

    The assignment keys are read as edges here and checked against the
    presentation by :func:`covering.validate_monodromy`.
    """
    base_c = validate_complex(_simplices(data["complex"], "complex"))
    base = _stratified_from_lists(base_c, data.get("stratification"), "stratification")

    branch_raw = data.get("branch")  # null is no locus, as for the other sections
    branch_c = validate_complex(_simplices([] if branch_raw is None else branch_raw, "branch"))
    if not branch_c.is_subcomplex_of(base_c):  # a subdivision would drop the rest
        raise InputError("branch locus is not a subcomplex of the base")
    if data.get("branch_stratification") and not branch_c.n_simplices():
        raise InputError("branch_stratification needs a nonempty 'branch'")
    branch = _stratified_from_lists(branch_c, data.get("branch_stratification"),
                                    "branch_stratification")

    options = data.get("options", {})
    subdivisions = options.get("subdivisions", 0)
    mono = data.get("monodromy")
    f = [base_c.n_simplices(d) for d in range(base_c.dim + 1)]
    for _ in range(subdivisions):  # counted, so that no subdivision past the cap is made
        f = subdivided_f_vector(f)
    n = sum(f)
    degree = 1 if mono is None else mono["degree"]
    if degree * n > MAX_COVER_SIMPLICES:
        what = (f"a base of {n} simplices" if mono is None
                else f"a degree-{degree} cover of {n} base simplices")
        raise InputError(f"{what} exceeds {MAX_COVER_SIMPLICES} simplices")

    for _ in range(subdivisions):
        base, (branch,) = subdivide_with_subcomplexes(base, [branch])

    monodromy = None
    if mono is not None:
        assignments = {}
        for key, val in mono["assignments"].items():
            if not isinstance(val, list) or not all(map(_is_int, val)):
                raise InputError(f"assignment {key!r} must be a list of integers")
            assignments[_parse_edge_key(key)] = tuple(val)
        monodromy = MonodromyRep(degree, assignments, mono.get("basepoint"))

    return LoadedSpec(base, branch, monodromy, options.get("perversity", "lower"))
