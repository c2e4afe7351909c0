"""Tests of the benchmark's own parts: generator, oracles, tracer, metric list.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from widecat import (algebra, category, context, taurigid, textio,  # noqa: E402
                     verify)

WORKLOADS = sorted(gen.GENERATORS)
# Seed 1 presents A4 as its mirror image, seed 2 as generated.
SEEDS = (1, 2)


def _context(workload: str, seed: int):
    text = gen.generate(workload, seed)
    return context.build_context(algebra.build_algebra(textio.parse_algebra_text(text)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    texts = [gen.generate(workload, s) for s in range(1, 6)]
    assert texts == [gen.generate(workload, s) for s in range(1, 6)]
    assert len(set(texts)) == len(texts)
    for text in texts:
        textio.parse_algebra_text(text)


def _first_vertex_is_a_source(workload: str, seed: int) -> bool:
    pres = textio.parse_algebra_text(gen.generate(workload, seed))
    return any(src == pres.vertices[0] for _, src, _ in pres.arrows)


def test_seeds_pick_the_mirror_image_but_not_the_algebra():
    assert [_first_vertex_is_a_source("verify-a4", s) for s in SEEDS] == [False, True]
    ctxs = [_context("verify-a4", s) for s in SEEDS]
    assert ctxs[0].alg.dim == ctxs[1].alg.dim == 10
    census = oracles.CENSUS["verify-a4"]
    for ctx in ctxs:
        assert ctx.ind_count() == census["ind"]
        full = taurigid.full_subcategory(ctx)
        assert len(taurigid.strigid_objects(ctx, full)) == census["strigid"]
        assert len(category.enumerate_wide_subcategories(ctx)) == census["wides"]


def test_two_seeds_give_the_same_suite_check_counts():
    expected = oracles.SUITE_CHECKS["verify-a4"]
    for seed in SEEDS:
        ctx = _context("verify-a4", seed)
        for suite in ("homological-lemmas", "bijection", "irreducible",
                      "dirrt-bijection"):
            rep = verify.run_suite(ctx, suite)
            assert (rep.checks, rep.failures) == (expected[suite], [])


def test_d5_seeds_keep_the_census():
    census = oracles.CENSUS["export-d5"]
    for seed in SEEDS:
        ctx = _context("export-d5", seed)
        assert ctx.ind_count() == census["ind"]
        full = taurigid.full_subcategory(ctx)
        assert len(taurigid.strigid_objects(ctx, full)) == census["strigid"]


def _record(ind: int, checks: int, output: str = "x") -> dict:
    op = {"op": "bijection", "checks": checks, "failures": 0,
          "first_failure": None, "verify.bijection": 0.5, "sha256": output}
    counts = {"taurigid.strigid": 197, "category.wides": 42,
              "category.morphisms": 818}
    return {"input_sha256": "in", "passes": [{
        "cold": [{"ind": ind, "dim": 10}],
        "warm": [{"cache_hit": True, "same_as_cold": True}],
        "work": [{"ops": [op], "counts": counts}]}]}


def test_oracles_count_each_miss_as_a_failed_operation():
    good = oracles.check("verify-a4", _record(10, 3785), {})
    assert [c["ok"] for c in good] == [True] * 4
    bad = oracles.check("verify-a4", _record(11, 3784), {})
    assert [c["op"] for c in bad if not c["ok"]] == ["cold start", "bijection"]


def test_oracles_catch_outputs_that_change_between_runs_of_one_input():
    ledger: dict = {}
    oracles.check("verify-a4", _record(10, 3785), ledger)
    again = oracles.check("verify-a4", _record(10, 3785), ledger)
    assert all(c["ok"] for c in again)
    changed = oracles.check("verify-a4", _record(10, 3785, output="y"), ledger)
    assert "same output" in next(c["why"] for c in changed if not c["ok"])


def test_tracer_rebinds_every_namespace_and_self_times_add_up():
    ctx = _context("verify-a4", 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("work"):
            verify.run_suite(ctx, "bijection")
    finally:
        tracer.uninstall()
    layers = tracer.summary()
    # verify binds e_table by name; the suite calls it through that binding
    assert layers["reduction.e_table"]["calls"] > 0
    assert layers["context.Context.ext1"]["calls"] > 0
    total = sum(row["self_s"] for row in layers.values())
    assert total == pytest.approx(layers["work"]["incl_s"], rel=1e-6)
    from widecat import reduction
    assert verify.e_table is reduction.e_table


def test_benchmark_json_lists_exactly_the_metrics_the_run_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_run_names_the_suites_and_layers_that_exist():
    assert run.SUITES == verify.SUITE_NAMES
    traced = {spans.layer_name(m, a) for m, a in spans.TRACED + spans.COUNTED}
    assert set(run.CALLS) | set(run.INCLUSIVE.values()) <= traced
