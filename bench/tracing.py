"""Spans around the library's public functions, recorded from outside it.

`Tracer.install()` replaces each function named in `WRAPPED` with a
timing wrapper in every `branchcover` module that holds it, so calls
between modules are seen too.  The library itself is not edited.  A
name that no longer exists is listed in `Tracer.absent` and skipped.

A span is (name, layer, start, end, parent, job).  Spans stay in memory
and are written once, at the end of the job.  A layer's self time is
its spans' durations minus the time of their child spans.  A wrapper
reads its counts off arguments and results after its span has closed,
and that time is subtracted from the parent too, so counting adds to no
self time.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

# ---------------------------------------------------------------------------
# counters: (args, kwargs, result, results already counted by id) -> {metric: count}


def _presentation(args, kwargs, pres, seen):
    if id(pres) in seen:          # lru_cache hit: the same presentation again
        return {}
    seen[id(pres)] = pres         # held, so the id is not reused
    return {"presentation.generators": len(pres.generators)}


def _cover(args, kwargs, cover, seen):
    if id(cover) in seen:         # fox_complete handing on build_complement_cover's
        return {}
    seen[id(cover)] = cover
    return {"covering.cover_simplices": cover.total.n_simplices()}


def _rank(args, kwargs, rank, seen):
    columns = args[0] if args else kwargs["columns"]
    rows: set[int] = set()
    nnz = 0
    for col in columns:
        for i, v in col.items():
            if v:
                rows.add(i)
                nnz += 1
    return {"linalg.rank_calls": 1, "linalg.rank_rows": len(rows),
            "linalg.rank_nnz": nnz, "linalg.rank_out": rank}


def _nullspace(args, kwargs, result, seen):
    rows = args[0] if args else kwargs["rows"]
    return {"linalg.nullspace_nnz": sum(1 for r in rows.values() for v in r.values() if v),
            "linalg.nullspace_dim": len(result[0])}


def _dense(args, kwargs, result, seen):
    return {"linalg.dense_calls": 1}


def _systems(*systems):
    out = {"local_systems.transports": 0, "local_systems.nontrivial_transports": 0,
           "local_systems.dense_entries": 0}
    for system in systems:
        r = system.rank
        for m in system.transports.values():
            out["local_systems.transports"] += 1
            out["local_systems.dense_entries"] += r * r   # computed from sizes
            if any(m[i][j] != (i == j) for i in range(r) for j in range(r)):
                out["local_systems.nontrivial_transports"] += 1
    return out


def _pushforward(args, kwargs, system, seen):
    return _systems(system)


def _split(args, kwargs, split, seen):
    return _systems(split.constant, split.kernel)


def _ic(args, kwargs, ic, seen):
    return {"intersection.allowable_cols":
            sum(len(level) for level in ic.allowable) * ic.coefficient_rank,
            "intersection.ic_dim": sum(len(basis) for basis in ic.ic_basis)}


def _ic_layer(args, kwargs) -> str:
    coeff = args[2] if len(args) > 2 else kwargs.get("coeff")
    return "intersection.ic_trivial" if coeff is None else "intersection.ic_kernel"


# (module, attribute, layer or layer-of-arguments, counter or None)
WRAPPED = (
    ("specfile", "parse_spec_text", "specfile.load", None),
    ("specfile", "load_spec", "specfile.load", None),
    ("stratified", "subdivide_with_subcomplexes", "stratified.subdivide", None),
    ("presentation", "edge_path_presentation", "presentation.build", _presentation),
    ("covering", "BranchedCoverSpec.__init__", "covering.validate", None),
    ("covering", "fox_complete", "covering.fox_complete", _cover),
    ("covering", "build_complement_cover", "covering.fox_complete", _cover),
    ("covering", "riemann_hurwitz_check", "covering.checks", None),
    ("covering", "complement_connectivity_check", "covering.checks", None),
    ("covering", "refine_stratification", "covering.stratify", None),
    ("covering", "pullback_stratification", "covering.stratify", None),
    ("simplicial", "chain_complex", "simplicial.chain_complex", None),
    ("linalg", "rank_from_columns", "linalg.rank", _rank),
    ("linalg", "sparse_nullspace", "linalg.nullspace", _nullspace),
    ("linalg", "matrix_inverse", "linalg.dense", _dense),
    ("linalg", "matmul", "linalg.dense", _dense),
    ("linalg", "invariant_space", "linalg.dense", _dense),
    ("local_systems", "pushforward_local_system", "local_systems.pushforward", _pushforward),
    ("local_systems", "trace_split", "local_systems.trace_split", _split),
    ("local_systems", "twisted_betti", "local_systems.twisted", None),
    ("intersection", "ih_betti", _ic_layer, None),
    ("intersection", "intersection_chain_complex", _ic_layer, _ic),
    ("verify", "fiber_rank_report", "verify.fiber_table", None),
    ("verify", "verify_branched", "verify.self", None),
    ("verify", "verify_unbranched", "verify.self", None),
)

class Tracer:
    """Records spans for one job process."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[dict] = []
        self._seen: dict[int, object] = {}

    def span(self, name: str, layer: str):
        """Open a span; returns `close(count=None)`, where `count()` gives its counts."""
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": parent["id"] if parent else None, "job": self.job,
               "start": time.perf_counter(), "end": None, "child_s": 0.0, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)

        def close(count=None):
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if count is not None:
                rec["counts"] = count()
            if parent is not None:
                parent["child_s"] += time.perf_counter() - rec["start"]
        return close

    def _wrap(self, fn, name, layer, counter):
        def wrapped(*args, **kwargs):
            close = self.span(name, layer(args, kwargs) if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close()
                raise
            close(None if counter is None
                  else lambda: counter(args, kwargs, result, self._seen))
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        """Wrap every name in WRAPPED wherever a branchcover module binds it."""
        owners = {}
        for mod_name in dict.fromkeys(m for m, _a, _l, _c in WRAPPED):
            try:
                owners[mod_name] = importlib.import_module(f"branchcover.{mod_name}")
            except ImportError:
                pass
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "branchcover" or n.startswith("branchcover."))]
        for mod_name, attr, layer, counter in WRAPPED:
            name = f"{mod_name}.{attr}"
            owner = owners.get(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None) if owner is not None else None
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(fn, name, layer, counter)
            if path:                       # a method: patch the class once
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "absent": self.absent, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# derivation, in the parent


TIME_LAYERS = (
    "specfile.load", "stratified.subdivide", "presentation.build",
    "covering.validate", "covering.fox_complete", "covering.checks",
    "covering.stratify", "simplicial.chain_complex", "linalg.rank",
    "linalg.nullspace", "linalg.dense", "local_systems.pushforward",
    "local_systems.trace_split", "local_systems.twisted",
    "intersection.ic_trivial", "intersection.ic_kernel",
    "verify.fiber_table", "verify.self", "cli.emit",
)

COUNTS = (
    "presentation.generators", "covering.cover_simplices",
    "linalg.rank_calls", "linalg.rank_rows", "linalg.rank_nnz", "linalg.rank_out",
    "linalg.nullspace_nnz", "linalg.nullspace_dim", "linalg.dense_calls",
    "local_systems.transports", "local_systems.nontrivial_transports",
    "local_systems.dense_entries",
    "intersection.allowable_cols", "intersection.ic_dim",
)

# ratio = numerator / denominator; 0 where the layer was not reached
RATIOS = {
    "linalg.rank_yield": ("linalg.rank_out", "linalg.rank_rows"),
    "local_systems.nontrivial_ratio": ("local_systems.nontrivial_transports",
                                       "local_systems.transports"),
    "intersection.ic_yield": ("intersection.ic_dim", "intersection.allowable_cols"),
}


def job_layers(spans: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Self time per layer and summed counts for the spans of one job."""
    self_s = dict.fromkeys(TIME_LAYERS, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    for s in spans:
        if s["layer"] in self_s:
            self_s[s["layer"]] += (s["end"] - s["start"]) - s["child_s"]
        for k, v in s["counts"].items():
            counts[k] += v
    return self_s, counts


def ratios(counts: dict[str, int]) -> dict[str, float]:
    return {name: counts[num] / counts[den] if counts[den] else 0.0
            for name, (num, den) in RATIOS.items()}
