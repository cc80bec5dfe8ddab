"""What verifying leaves behind and how far above it its memory peaks.

The checks are in-process and deterministic.  The peak is read with
``tracemalloc`` as a ratio, not in bytes, so it does not depend on the
object sizes of one Python version.
"""
from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

import pytest

from branchcover.covering import fox_complete
from branchcover.specfile import load_spec, parse_spec_text
from branchcover.verify import verify_branched

GOLDEN = Path(__file__).resolve().parent / "golden"
# the golden specs; sweep.json pins command outputs (test_sweep.py)
GOLDEN_SPECS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "sweep.json")

# (peak - live after load) / (live size of the cover) for one verify of the
# susp-cover spec reads 2.53 (Python 3.11); an elimination that copies each
# boundary before consuming it reads 3.09.  The bound sits midway.  Live
# memory is read after a full collection, which empties the free lists of
# set-up garbage.  The excess is measured against the cover that
# ``fox_complete`` builds, the largest thing a verify holds, not against the
# loaded spec, so set-up that keeps less does not raise it.
PEAK_OVER_COVER = 2.81

# What a second pass over the golden corpus may leave traced beyond the first:
# the interpreter's free lists keep a few KB of small tuples alive (8-10 KB on
# Python 3.11), while a cache that outlives its spec keeps about 160 KB.
RETAINED_BY_A_PASS = 16 * 1024


@pytest.mark.parametrize("path", GOLDEN_SPECS, ids=lambda p: p.stem)
def test_verify_leaves_no_cyclic_garbage(path):
    text = path.read_text(encoding="utf-8")
    gc.collect()
    gc.disable()
    try:
        loaded = load_spec(parse_spec_text(text))
        if loaded.monodromy is not None:
            verify_branched(loaded.cover_spec(), loaded.perversity)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verifying_the_corpus_again_retains_nothing():
    """Every golden spec with a monodromy, verified twice in one process as a
    library caller would: the second pass keeps nothing the first did not."""
    texts = [path.read_text(encoding="utf-8") for path in GOLDEN_SPECS]

    def verify_all() -> int:
        verified = 0
        for text in texts:
            loaded = load_spec(parse_spec_text(text))
            if loaded.monodromy is not None:
                verify_branched(loaded.cover_spec(), loaded.perversity)
                verified += 1
        gc.collect()
        return verified

    assert verify_all() >= 8
    tracemalloc.start()  # traced from the end of the first pass
    try:
        verify_all()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= RETAINED_BY_A_PASS


def test_verify_peak_stays_near_what_it_keeps():
    text = (GOLDEN / "susp-cover-seed1.json").read_text(encoding="utf-8")
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        loaded = load_spec(parse_spec_text(text))
        spec = loaded.cover_spec()
        gc.collect()  # empties the free lists, which hold set-up garbage the verify reuses
        before_cover = tracemalloc.get_traced_memory()[0]
        cover = fox_complete(spec)
        gc.collect()
        cover_size = tracemalloc.get_traced_memory()[0] - before_cover
        del cover
        gc.collect()
        after_load = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = verify_branched(spec, "upper")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert report.all_equal and report.internal_ok
    assert (peak - after_load) / cover_size < PEAK_OVER_COVER
