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
from collections import namedtuple

from .covering import (
    BranchedCoverSpec,
    CoverComplex,
    complement_connectivity_check,
    fox_complete,
    local_monodromy_group,
    orbit_count,
    pullback_stratification,
    refine_stratification,
    riemann_hurwitz_check,
)
from .intersection import ih_betti, perversity_by_name
from .local_systems import invariant_dimension, kernel_system, sum_zero_action
from .simplicial import betti_numbers, components

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


class FiberReport(namedtuple("FiberReport", "rows")):
    """The fiber table: ``rows`` is a ``tuple[FiberRow, ...]``."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def fiber_rank_report(spec: BranchedCoverSpec, cover: CoverComplex) -> FiberReport:
    """Orbit counts, 1 + invariants of the kernel system and lift counts, row by row.

    A mismatch indicates an implementation bug, never acceptable input.
    """
    d = spec.degree
    rows = []
    for tau in spec.branch_simplices():
        gens = local_monodromy_group(spec, tau)
        orbits = orbit_count(gens, d)
        kernel_mats = [sum_zero_action(g) for g in gens]
        inv = invariant_dimension(kernel_mats, d - 1)
        rows.append(FiberRow(tau, orbits, 1 + inv, len(cover.fiber_over(tau))))
    return FiberReport(tuple(rows))


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
    ``equal_per_degree: tuple[bool, ...]``; ``fiber: FiberReport``;
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
        return (self.fiber.ok and self.connectivity.ok and self.euler_ok
                and self.b0_ok and self.manifold_crosscheck_ok)

    def to_json_dict(self) -> dict:
        out = self._asdict()
        del out["fiber"]
        out["fiber_table"] = [dict(r._asdict(), ok=r.ok) for r in self.fiber.rows]
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
        lines.append(f"  fiber table ({len(self.fiber.rows)} branch simplices): "
                     f"{'ok' if self.fiber.ok else 'MISMATCH'}")
        for r in self.fiber.rows:
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


def verify_branched(spec: BranchedCoverSpec, perversity: str = "lower") -> DecompositionReport:
    """Build the cover, refine the stratification and compare ranks.

    The kernel system is carried through the intersection machinery on
    the refined stratification, never pushed forward naively.  The left
    side is the cover's IH, which differs from its Betti numbers when the
    cover is singular; the Euler check reads the Betti numbers, as the
    alternating sum of IH need not be the Euler characteristic.
    """
    m = spec.base.dim
    p = perversity_by_name(perversity, m) if m >= 2 else None

    cover = fox_complete(spec)
    euler_cover = riemann_hurwitz_check(cover)
    b_cover = betti_numbers(cover.total)

    if spec.branch is not None:
        refined = refine_stratification(spec.base, spec.branch)
    else:
        refined = spec.base
    pullback = pullback_stratification(cover, refined)

    # with no singular simplex upstairs every chain is allowable
    ih_cover = ih_betti(pullback, p) if pullback.singular_set.n_simplices() else b_cover
    ih_trivial = ih_betti(refined, p, None)
    ih_kernel = ih_betti(refined, p, kernel_system(spec.complement, spec.degree, spec.table))

    equal = tuple(ih_cover[j] == ih_trivial[j] + ih_kernel[j] for j in range(m + 1))

    fiber = fiber_rank_report(spec, cover)
    connectivity = complement_connectivity_check(spec, cover)

    euler_ok = sum((-1) ** j * b_cover[j] for j in range(m + 1)) == euler_cover

    global_orbits = orbit_count(spec.monodromy.images, spec.degree)
    b0_ok = (b_cover[0] == len(components(cover.total)) == global_orbits)

    b_base_manifold = None
    manifold_ok = True
    if spec.base.singular_set.n_simplices() == 0:
        # with no locus the refined stratification is the base itself, and
        # ih_trivial is already its homology: the cross-check holds vacuously
        b_base_manifold = ih_trivial if spec.branch is None else betti_numbers(spec.base.complex)
        manifold_ok = tuple(ih_trivial) == tuple(b_base_manifold) and ih_cover == b_cover

    strat_levels = tuple((j, refined.levels[j].n_simplices()) for j in range(m + 1))
    pull_levels = tuple((j, pullback.levels[j].n_simplices()) for j in range(m + 1))

    return DecompositionReport(
        perversity=perversity, degree=spec.degree, base_dim=m,
        betti_cover=b_cover, ih_cover=ih_cover, ih_trivial=ih_trivial, ih_kernel=ih_kernel,
        equal_per_degree=equal, fiber=fiber, connectivity=connectivity,
        euler_cover=euler_cover, euler_ok=euler_ok, b0_ok=b0_ok,
        betti_base_manifold=b_base_manifold, manifold_crosscheck_ok=manifold_ok,
        stratification_levels=strat_levels, pullback_levels=pull_levels)
