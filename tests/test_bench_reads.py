"""The Context caches the benchmark reads stay where it reads them.

`bench/worker.py` sizes the caches after the work by reading them directly
(`memo_counts`), without calling into widecat, so a renamed cache breaks
every benchmark run while the library's own tests stay green.
"""
import os
import sys

from widecat.verify import run_verify
from conftest import load_context

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import worker  # noqa: E402


def test_memo_counts_reads_every_cache_after_all_suites():
    ctx = load_context("a4.alg")
    assert all(r.ok for r in run_verify(ctx))
    counts = worker.memo_counts(ctx)
    assert all(n >= 0 for n in counts.values()), counts
    # the census the benchmark's oracles compare: sτ-rigid objects of mod A,
    # wide subcategories, and morphisms of the category
    assert (counts["taurigid.strigid"], counts["category.wides"],
            counts["category.morphisms"]) == (197, 42, 818)
