"""Seeded spec files and independent output checks for the benchmark.

Each workload turns a seed into one spec file and knows what a correct
`verify` run on it prints.  The seed only relabels vertices or draws a
permutation, so every seed gives the same invariants; the expected
values below are written out by hand and never computed by the code
under test.

The generators rely on the public spec-file contract alone: the raw
complex is written here, `parse_spec_text` + `load_spec` carry out the
requested subdivisions exactly as `verify` will, and the monodromy is
keyed to the generators of `edge_path_presentation` on the subdivided
complement, which is what `branchcover generators` prints.  Meridians
and the linear system over GF(p) are solved here, not with library
helpers, so an engine change inside the library cannot change the input.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable


@dataclass(frozen=True)
class Job:
    """One generated input: the spec text, the verify flags and the check."""

    spec_text: str
    verify_args: tuple[str, ...]
    check: Callable[[str], list[str]]   # output text -> list of problems


# ---------------------------------------------------------------------------
# small simplicial helpers (independent of the library)


def _closure(top) -> list[tuple[int, ...]]:
    out = set()
    for s in top:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return sorted(out, key=lambda s: (len(s), s))


def _relabel(simplices, sigma) -> list[list[int]]:
    return sorted((sorted(sigma[v] for v in s) for s in simplices),
                  key=lambda s: (len(s), s))


def _link_cycle(simplices, tau) -> list[tuple[int, int]]:
    """The link of `tau` as a closed edge path; the link must be a circle."""
    t = set(tau)
    adj: dict[int, list[int]] = {}
    for s in simplices:
        if len(s) == len(tau) + 2 and t <= set(s):
            u, v = (x for x in s if x not in t)
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    start = min(adj)
    path = [start, min(adj[start])]
    while path[-1] != start:
        prev, here = path[-2], path[-1]
        path.append(next(x for x in sorted(adj[here]) if x != prev))
    return list(zip(path, path[1:]))


def _word_row(pres, edges, n: int) -> dict[int, int]:
    row: dict[int, int] = {}
    for (u, v) in edges:
        e = (u, v) if u < v else (v, u)
        if e in pres.tree_edges:
            continue
        gi = pres.gen_index[e]
        row[gi] = row.get(gi, 0) + (1 if u < v else -1)
    return row


def _solve_mod_p(rows: list[dict[int, int]], rhs: list[int], n: int, p: int) -> list[int]:
    """One solution of a sparse linear system over GF(p), free unknowns zero."""
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    for row, b in zip(rows, rhs):
        row = {c: v % p for c, v in row.items() if v % p}
        b %= p
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], -1, p)
                pivots[c] = ({k: v * inv % p for k, v in row.items()}, b * inv % p)
                break
            prow, pb = pivots[c]
            f = row[c]
            for k, v in prow.items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            b = (b - f * pb) % p
        else:
            if b:
                raise ValueError("monodromy system has no solution")
    x = [0] * n
    for c in sorted(pivots, reverse=True):
        prow, pb = pivots[c]
        x[c] = (pb - sum(v * x[k] for k, v in prow.items() if k != c)) % p
    return x


def _cyclic_monodromy(spec: dict, meridian_of: Callable, p: int) -> dict:
    """Solve for the cyclic GF(p) monodromy where each meridian maps to +1.

    `meridian_of(loaded)` returns the meridian edge paths of the
    subdivided complex that `load_spec` builds from `spec`.
    """
    from branchcover.presentation import edge_path_presentation
    from branchcover.simplicial import SimplicialComplex
    from branchcover.specfile import load_spec, parse_spec_text

    loaded = load_spec(parse_spec_text(json.dumps(spec)))
    bverts = set(loaded.branch.complex.vertices)
    complement = SimplicialComplex(
        s for s in loaded.base.complex.simplices if not bverts.intersection(s))
    pres = edge_path_presentation(complement, min(complement.vertices))
    n = len(pres.generators)
    rows = []
    for word in pres.relators:
        row: dict[int, int] = {}
        for gi, sign in word:
            row[gi] = row.get(gi, 0) + sign
        rows.append(row)
    rhs = [0] * len(rows)
    for path in meridian_of(loaded):
        rows.append(_word_row(pres, path, n))
        rhs.append(1)
    steps = _solve_mod_p(rows, rhs, n, p)
    return {
        "degree": p,
        "assignments": {f"{u}->{v}": [(i + s) % p for i in range(p)]
                        for (u, v), s in zip(pres.generators, steps)},
    }


# ---------------------------------------------------------------------------
# independent checks


def _check_json(out: str, want: dict, row_orbits: int | None) -> list[str]:
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = [f"{k} = {report.get(k)!r}, want {v!r}"
                for k, v in want.items() if report.get(k) != v]
    if row_orbits is not None:
        rows = report.get("fiber_table") or []
        if not rows or any(r.get("orbit_count") != row_orbits for r in rows):
            problems.append(f"fiber rows must all have orbit_count={row_orbits}")
    return problems


def _check_unbranched(out: str, cycles: int) -> list[str]:
    def field(label: str):
        m = re.search(rf"^\s*{re.escape(label)}\s*=\s*(\[[^\]]*\])\s*$", out, re.M)
        return json.loads(m.group(1)) if m else None

    problems = []
    for label, want in (("b(cover)", [cycles, cycles]),
                        ("b(base; kernel)", [cycles - 1, cycles - 1])):
        got = field(label)
        if got != want:
            problems.append(f"{label} = {got!r}, want {want!r}")
    if not re.search(r"^\s*equality: HOLDS\s*$", out, re.M):
        problems.append("equality line does not read HOLDS")
    return problems


# ---------------------------------------------------------------------------
# workloads


def susp_cover(rng: random.Random) -> Job:
    """Double cover of the suspended 7-vertex torus, branched over a circle
    through both apexes (7 and 8 before relabelling)."""
    torus = [tuple(sorted((i, (i + a) % 7, (i + 3) % 7))) for i in range(7) for a in (1, 2)]
    total = _closure([t + (apex,) for t in torus for apex in (7, 8)])
    circle = _closure([(0, 7), (0, 8), (1, 7), (1, 8)])
    sigma = list(range(9))
    rng.shuffle(sigma)
    apexes = [[sigma[7]], [sigma[8]]]
    spec = {
        "complex": _relabel(total, sigma),
        "stratification": [sorted(apexes), sorted(apexes)],
        "branch": _relabel(circle, sigma),
        "options": {"perversity": "upper", "subdivisions": 1},
    }

    def meridians(loaded):
        simplices = loaded.base.complex.simplices
        return [_link_cycle(simplices, e) for e in loaded.branch.complex.simplices_of_dim(1)]

    spec["monodromy"] = _cyclic_monodromy(spec, meridians, 2)
    want = {"betti_cover": [1, 0, 4, 1], "ih_trivial": [1, 0, 2, 1],
            "ih_kernel": [0, 0, 2, 0], "euler_cover": 4, "all_equal": True,
            "internal_ok": True}
    return Job(_spec_text(spec), ("--perversity", "upper", "--format", "json"),
               lambda out: _check_json(out, want, None))


def sphere2pt_d31(rng: random.Random) -> Job:
    """Degree-31 cyclic cover of the once-subdivided octahedron branched at
    an antipodal vertex pair; one meridian maps to the 31-cycle c, which
    forces the other to c^-1."""
    p = 31
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
             (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]
    a, b = rng.choice([(0, 5), (1, 3), (2, 4)])
    sigma = list(range(6))
    rng.shuffle(sigma)
    spec = {
        "complex": _relabel(_closure(faces), sigma),
        "branch": sorted([[sigma[a]], [sigma[b]]]),
        "options": {"perversity": "lower", "subdivisions": 1},
    }

    def meridians(loaded):
        w = min(loaded.branch.complex.vertices)
        return [_link_cycle(loaded.base.complex.simplices, (w,))]

    spec["monodromy"] = _cyclic_monodromy(spec, meridians, p)
    want = {"betti_cover": [1, 0, 1], "ih_trivial": [1, 0, 1], "ih_kernel": [0, 0, 0],
            "all_equal": True, "internal_ok": True}
    return Job(_spec_text(spec), ("--format", "json"),
               lambda out: _check_json(out, want, 1))


def circle_d64(rng: random.Random) -> Job:
    """The `circle-cover` fixture (hexagon, one generator) at degree 64 with
    a random permutation; its cycle count c fixes b(cover) = [c, c]."""
    from branchcover.presentation import edge_path_presentation
    from branchcover.simplicial import SimplicialComplex

    d = 64
    hexagon = _closure([(i, (i + 1) % 6) for i in range(6)])
    (u, v), = edge_path_presentation(SimplicialComplex(hexagon), 0).generators
    perm = list(range(d))
    rng.shuffle(perm)
    seen, cycles = set(), 0
    for i in range(d):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    spec = {
        "complex": [list(s) for s in hexagon],
        "monodromy": {"degree": d, "basepoint": 0, "assignments": {f"{u}->{v}": perm}},
        "options": {"perversity": "lower", "subdivisions": 0},
    }
    return Job(_spec_text(spec), (), lambda out: _check_unbranched(out, cycles))


def _spec_text(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, indent=1) + "\n"


WORKLOADS: dict[str, Callable[[random.Random], Job]] = {
    "susp-cover": susp_cover,
    "sphere2pt-d31": sphere2pt_d31,
    "circle-d64": circle_d64,
}


def make_job(name: str, seed: int) -> Job:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
