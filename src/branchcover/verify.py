"""End-to-end verification of the cover decomposition at the rank level.

For a validated branched cover the intersection homology of the total
space, on the pulled-back stratification, must split, degree by degree,
into the intersection homology of the base with constant coefficients
plus the intersection homology with the sum-zero kernel system, both
taken on the refined stratification: these are the ranks of the
decomposition of the direct image of the cover's intersection complex.
Over a manifold cover the left side is its Betti numbers.  Rank and stalk
equalities are necessary conditions for the sheaf-level decomposition,
not sufficient; the reports say so explicitly.
"""
from __future__ import annotations

import json
from collections import Counter, namedtuple

from .covering import (
    BranchedCoverSpec,
    CoverComplex,
    complement_connectivity_check,
    fox_complete,
    local_monodromy_group,
    orbit_count,
    refine_stratification,
    riemann_hurwitz_check,
)
from .errors import InternalCheckError
from .intersection import allowable_simplices, ih_betti, perversity_by_name
from .local_systems import invariant_dimension, kernel_system, sum_zero_action
from .simplicial import betti_numbers, homology_ranks

NECESSITY_NOTE = ("rank and stalk equalities are necessary conditions for the "
                  "sheaf-level decomposition, not sufficient")


# ---------------------------------------------------------------------------
# fiber table


class FiberRow(namedtuple("FiberRow", "simplex orbit_count one_plus_invariants lift_count")):
    """One branch simplex of the fiber table: the ``Simplex`` and three ``int`` counts."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.orbit_count == self.one_plus_invariants == self.lift_count


def fiber_rank_report(cover: CoverComplex) -> tuple[FiberRow, ...]:
    """The fiber table: orbit counts, 1 + invariants of the kernel system
    and lift counts, one row per branch simplex.

    A mismatch indicates an implementation bug, never acceptable input.
    """
    spec = cover.spec
    d = spec.degree
    rows = []
    for tau in spec.branch_simplices():
        gens = local_monodromy_group(cover, tau)
        orbits = orbit_count(gens, d)
        kernel_mats = [sum_zero_action(g) for g in gens]
        inv = invariant_dimension(kernel_mats, d - 1)
        rows.append(FiberRow(tau, orbits, 1 + inv, len(cover.fibers[tau])))
    return tuple(rows)


# ---------------------------------------------------------------------------
# branched decomposition


class DecompositionReport(namedtuple(
        "DecompositionReport",
        "perversity degree base_dim betti_cover ih_cover ih_trivial ih_kernel equal_per_degree "
        "fiber connectivity euler_cover euler_ok b0_ok betti_base_manifold "
        "manifold_crosscheck_ok stratification_levels pullback_levels note",
        defaults=(NECESSITY_NOTE,))):
    """The verdict of :func:`verify_branched` with every check behind it.

    Fields: ``perversity: str``; ``degree``, ``base_dim``, ``euler_cover:
    int``; ``betti_cover``, ``ih_cover`` (the left side of the equality),
    ``ih_trivial``, ``ih_kernel: tuple[int, ...]``;
    ``equal_per_degree: tuple[bool, ...]``; ``fiber: tuple[FiberRow, ...]``;
    ``connectivity: covering.ConnectivityReport``; ``euler_ok``, ``b0_ok``,
    ``manifold_crosscheck_ok: bool``; ``betti_base_manifold: tuple[int,
    ...] | None``; ``stratification_levels``, ``pullback_levels:
    tuple[tuple[int, int], ...]`` (level, simplex count); ``note: str``,
    :data:`NECESSITY_NOTE` by default.
    """

    __slots__ = ()

    @property
    def all_equal(self) -> bool:
        return all(self.equal_per_degree)

    @property
    def internal_ok(self) -> bool:
        return (all(r.ok for r in self.fiber) and self.connectivity.ok and self.euler_ok
                and self.b0_ok and self.manifold_crosscheck_ok)

    def to_json_dict(self) -> dict:
        out = self._asdict()
        del out["fiber"]
        out["fiber_table"] = [dict(r._asdict(), ok=r.ok) for r in self.fiber]
        out["connectivity"] = dict(self.connectivity._asdict(), ok=self.connectivity.ok)
        out["all_equal"] = self.all_equal
        out["internal_ok"] = self.internal_ok
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        if self.base_dim < 2:  # no branch locus fits, so the cover is unbranched
            return "\n".join([
                f"unbranched splitting check (degree {self.degree})",
                f"  b(cover)        = {list(self.betti_cover)}",
                f"  b(base)         = {list(self.ih_trivial)}",
                f"  b(base; kernel) = {list(self.ih_kernel)}",
                f"  equality: {'HOLDS' if self.all_equal else 'FAILS'}"]) + "\n"
        lines = []
        middle = " middle" if self.perversity in ("lower", "upper") else ""
        lines.append(f"decomposition check ({self.perversity}{middle} perversity, "
                     f"degree {self.degree}, base dimension {self.base_dim})")
        lines.append(f"  b(cover)          = {list(self.betti_cover)}")
        lines.append(f"  ih(cover)         = {list(self.ih_cover)}")
        lines.append(f"  ih(base; trivial) = {list(self.ih_trivial)}")
        lines.append(f"  ih(base; kernel)  = {list(self.ih_kernel)}")
        verdict = "HOLDS" if self.all_equal else "FAILS"
        lines.append(f"  per-degree equality: {verdict} "
                     f"{['ok' if b else 'FAIL' for b in self.equal_per_degree]}")
        lines.append(f"  fiber table ({len(self.fiber)} branch simplices): "
                     f"{'ok' if all(r.ok for r in self.fiber) else 'MISMATCH'}")
        for r in self.fiber:
            lines.append(f"    {list(r.simplex)}: orbits={r.orbit_count} "
                         f"1+invariants={r.one_plus_invariants} lifts={r.lift_count} "
                         f"{'ok' if r.ok else 'MISMATCH'}")
        lines.append(f"  connectivity: base {self.connectivity.checked_base} checked, "
                     f"cover {self.connectivity.checked_cover} checked, "
                     f"{'ok' if self.connectivity.ok else 'FAILURES'}")
        lines.append(f"  euler characteristic of cover: {self.euler_cover} "
                     f"({'consistent' if self.euler_ok else 'INCONSISTENT'})")
        lines.append(f"  degree-0 consistency: {'ok' if self.b0_ok else 'FAIL'}")
        if self.betti_base_manifold is not None:
            lines.append(f"  manifold cross-check b(base) = {list(self.betti_base_manifold)}: "
                         f"{'ok' if self.manifold_crosscheck_ok else 'FAIL'}")
        lines.append(f"  refined levels: {[list(x) for x in self.stratification_levels]}")
        lines.append(f"  pullback levels: {[list(x) for x in self.pullback_levels]}")
        lines.append(f"  note: {self.note}")
        return "\n".join(lines) + "\n"


def _stage(name: str, homology, *args, **kwargs) -> tuple[int, ...]:
    """``homology(*args, **kwargs)``, a failed internal check naming the report's ``name``."""
    try:
        return homology(*args, **kwargs)
    except InternalCheckError as exc:
        raise InternalCheckError(f"{exc}, in {name}") from None


def verify_branched(spec: BranchedCoverSpec, perversity: str = "lower") -> DecompositionReport:
    """Build the cover, refine the stratification and compare ranks.

    The kernel system is carried through the intersection machinery on
    the refined stratification, never pushed forward naively.  The left
    side is the cover's IH, which differs from its Betti numbers when the
    cover is singular; the Euler check reads the Betti numbers, as the
    alternating sum of IH need not be the Euler characteristic.

    The cover's IH is taken on the pulled-back stratification, whose level
    j is the preimage of refined level j, read through the projection: a
    lift has one vertex over each vertex of its simplex, so it meets a
    pulled-back level in as many vertices as its simplex meets the refined
    one.  A lift is allowable exactly when its simplex is, the pulled-back
    levels are full exactly when the refined ones are, and a pulled-back
    level has as many simplices as the lifts of the refined one.
    """
    m = spec.base.dim
    p = perversity_by_name(perversity)

    cover = fox_complete(spec)
    fiber = fiber_rank_report(cover)
    euler_cover = riemann_hurwitz_check(cover, {r.simplex: r.orbit_count for r in fiber})
    b_cover = _stage("b(cover)", betti_numbers, cover.total)

    refined = refine_stratification(spec.base, spec.branch)
    allowed = allowable_simplices(refined, p)  # one set for the cover and both systems
    if refined.singular_set.n_simplices():
        ih_cover = _stage("ih(cover)", homology_ranks, cover.total,
                          lambda s: cover.projection[s] in allowed)
    else:  # with no singular simplex upstairs every chain is allowable
        ih_cover = b_cover
    ih_trivial = _stage("ih(base; trivial)", ih_betti, refined, allowed=allowed)
    kernel = kernel_system(spec.degree, spec.table)
    ih_kernel = _stage("ih(base; kernel)", ih_betti, refined, allowed=allowed, coeff=kernel)

    equal = tuple(ih_cover[j] == ih_trivial[j] + ih_kernel[j] for j in range(m + 1))

    connectivity = complement_connectivity_check(cover)

    # cannot fail: homology_ranks gives b_j = f_j - rk_j - rk_{j+1}, so the
    # alternating sum telescopes to chi(cover), and euler_cover is that chi
    # once riemann_hurwitz_check has matched it to the branch data
    euler_ok = sum((-1) ** j * b_cover[j] for j in range(m + 1)) == euler_cover

    # b_0 = f_0 - rk d_1 is the cover's component count, so no second walk counts them
    global_orbits = orbit_count(spec.monodromy.assignments.values(), spec.degree)
    b0_ok = b_cover[0] == global_orbits

    b_base_manifold = None
    manifold_ok = True
    if spec.base.singular_set.n_simplices() == 0:
        # with no locus the refined stratification is the base itself, and
        # ih_trivial is already its homology: the cross-check holds vacuously
        b_base_manifold = (ih_trivial if refined is spec.base
                           else _stage("b(base)", betti_numbers, spec.base.complex))
        manifold_ok = tuple(ih_trivial) == tuple(b_base_manifold) and ih_cover == b_cover

    strat_levels = tuple((j, refined.levels[j].n_simplices()) for j in range(m + 1))
    lifts = Counter(cover.projection.values())
    pull_levels = tuple((j, sum(lifts[s] for s in refined.levels[j].simplices))
                        for j in range(m + 1))

    return DecompositionReport(
        perversity=perversity, degree=spec.degree, base_dim=m,
        betti_cover=b_cover, ih_cover=ih_cover, ih_trivial=ih_trivial, ih_kernel=ih_kernel,
        equal_per_degree=equal, fiber=fiber, connectivity=connectivity,
        euler_cover=euler_cover, euler_ok=euler_ok, b0_ok=b0_ok,
        betti_base_manifold=b_base_manifold, manifold_crosscheck_ok=manifold_ok,
        stratification_levels=strat_levels, pullback_levels=pull_levels)
