"""One benchmark run of one workload, in a fresh single-threaded interpreter.

Started by `run.py`; prints one JSON record of raw observations (stage
times, operation outputs, memo sizes, and with --trace the per-layer span
summary) as its last line.  Checking those observations against the
invariants is `run.py`'s job, outside the measured process.

A pass is: cold start(s), warm start(s) from the cache the cold start wrote,
and the workload's operations on the last warm Context, repeated on fresh
Contexts while one more cycle fits into --seconds.  A traced run makes one
untraced pass and then one traced pass (without set-up repetitions) on a
fresh cache, each with a single work cycle.
"""
from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import shutil
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gen  # noqa: E402
import spans  # noqa: E402
from widecat import (algebra, arquiver, category, context, taurigid,  # noqa: E402
                     textio, verify)

# Repetitions of a set-up phase, in a batch before the work and one after it:
# at least one per batch, at most MAX_REPS, and no new one once the batch has
# used half of REP_BUDGET_S (the preprojective basis build takes seconds, the
# path algebras' set-up milliseconds, so only theirs are repeated).
MAX_REPS = 200
REP_BUDGET_S = 2.0


class Stages:
    """Wall time of the benchmark's own stages, also spans when tracing."""

    def __init__(self, tracer: spans.Tracer | None):
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self, name: str, into: dict):
        span = self.tracer.span(name) if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            try:
                yield
            finally:
                into[name] = time.perf_counter() - start


def cold_start(stage: Stages, text: str, cache_dir: str):
    rec: dict = {}
    with stage("setup", rec):
        with stage("textio.parse", rec):
            pres = textio.parse_algebra_text(text)
        with stage("algebra.build", rec):
            alg = algebra.build_algebra(pres)
        with stage("context.enumerate", rec):
            ctx = context.build_context(alg)
        with stage("textio.cache_write", rec):
            path = textio.store_cache(cache_dir, ctx)
    rec.update(dim=alg.dim, ind=ctx.ind_count(),
               cache_bytes=os.path.getsize(path))
    return ctx, rec


def warm_start(stage: Stages, text: str, cache_dir: str, cold_ctx):
    rec: dict = {}
    with stage("warm_setup", rec):
        with stage("algebra.rebuild", rec):
            alg = algebra.build_algebra(textio.parse_algebra_text(text))
        with stage("textio.cache_read", rec):
            ctx = textio.load_cached_context(alg, cache_dir)
    rec["cache_hit"] = ctx is not None
    rec["same_as_cold"] = ctx is not None and _module_list(ctx) == _module_list(cold_ctx)
    return ctx, rec


def _module_list(ctx) -> list:
    return [(ctx.label(i), ctx.dims(i), ctx.tau(i), ctx.tau_inv(i))
            for i in ctx.ind_ids()]


# -- workload operations ------------------------------------------------------
# Each OPS entry gives a list of (op name, callable returning observations).


def _suite(ctx, name):
    def op():
        rep = verify.run_suite(ctx, name)
        return {"checks": rep.checks, "failures": len(rep.failures),
                "first_failure": (f"{rep.failures[0].check}: "
                                  f"{rep.failures[0].counterexample}"
                                  if rep.failures else None)}
    return op


def verify_ops(ctx):
    return [(name, _suite(ctx, name)) for name in verify.SUITE_NAMES]


def export_ops(ctx):
    """The CLI's ar-quiver export, tau-rigid list, wide list, wide-cat export."""
    def ar_quiver():
        arq = arquiver.build_ar_quiver(ctx)
        out = arquiver.ar_quiver_dot(arq)
        return {"nodes": len(arq.dims), "arrows": sum(arq.edges.values()),
                "sha256": gen.sha256(out)}

    def tau_rigid():
        objs = taurigid.strigid_objects(ctx, taurigid.full_subcategory(ctx))
        out = "\n".join(o.describe(ctx) for o in objs)
        return {"count": len(objs), "sha256": gen.sha256(out)}

    def wide():
        wides = category.enumerate_wide_subcategories(ctx)
        out = "\n".join(f"rank {taurigid.wide_rank(ctx, w)}: {w.describe(ctx)}"
                        for w in wides)
        return {"count": len(wides), "sha256": gen.sha256(out)}

    def wide_cat():
        cat = category.WideCategory(ctx)
        out = category.category_json(cat)
        return {"objects": len(cat.objects),
                "morphisms": sum(len(cat.morphisms_from(w)) for w in cat.objects),
                "json_morphisms": out.count('"irreducible":'),
                "bytes": len(out.encode()), "sha256": gen.sha256(out)}

    return [("ar-quiver export", ar_quiver), ("tau-rigid list", tau_rigid),
            ("wide list", wide), ("wide-cat export", wide_cat)]


OPS = {"verify-a4": verify_ops, "verify-preproj-a3": verify_ops,
       "export-d5": export_ops}


def run_work(stage: Stages, workload: str, ctx) -> dict:
    rec: dict = {"ops": []}
    with stage("work", rec):
        for name, op in OPS[workload](ctx):
            row: dict = {"op": name}
            try:
                with stage(_op_stage(name), row):
                    row.update(op())
            except Exception as exc:  # one failed operation must not end the run
                row["error"] = f"{type(exc).__name__}: {exc}"
                row["traceback"] = traceback.format_exc()
            rec["ops"].append(row)
    rec["counts"] = memo_counts(ctx)
    return rec


def _op_stage(op_name: str) -> str:
    if op_name in verify.SUITE_NAMES:
        return f"verify.{op_name}"
    return "op." + op_name.replace(" ", "_").replace("-", "_")


def memo_counts(ctx) -> dict:
    """Sizes of the Context's caches after the work, read without calling
    into widecat so that the trace sees only the work (-1: never computed)."""
    tags: dict[str, int] = {}
    for key in ctx.memo:
        tag = key[0] if isinstance(key, tuple) else key
        tags[tag] = tags.get(tag, 0) + 1
    full = taurigid.full_subcategory(ctx)
    strigid = ctx.memo.get(("strigid", full.key))
    wides = ctx.memo.get("wides")
    # morphisms of the category: the sτ-rigid objects of every wide subcategory
    morphisms = -1 if wides is None else sum(
        len(ctx.memo.get(("strigid", w.key), ())) for w in wides)
    return {
        "context.hom.entries": len(ctx._hom),
        "context.ext.entries": len(ctx._ext),
        "context.pres.entries": len(ctx._pres),
        "context.gen.entries": len(ctx._gen),
        "taurigid.strigid.entries": tags.get("strigid", 0),
        "reduction.wide_of.entries": tags.get("wide_of", 0),
        "reduction.etable.entries": tags.get("etable", 0),
        "reduction.relpres.entries": tags.get("relpres", 0),
        "taurigid.strigid": -1 if strigid is None else len(strigid),
        "category.wides": -1 if wides is None else len(wides),
        "category.morphisms": morphisms,
    }


def one_pass(workload: str, text: str, seconds: float, cache_root: str,
             tracer: spans.Tracer | None, reps: bool) -> dict:
    """Set-ups, then work cycles within `seconds` (at least one).

    With `reps`, a set-up phase that fits REP_BUDGET_S more than once is
    repeated, half of its budget before the work and half after it, so that
    its median does not rest on one moment of a machine whose speed drifts.
    """
    stage = Stages(tracer)
    cache_dir = os.path.join(cache_root, "traced" if tracer else "plain")
    out: dict = {"traced": tracer is not None, "cold": [], "warm": [], "work": []}
    budget = REP_BUDGET_S / 2 if reps else 0.0
    warm = set_ups(stage, text, cache_dir, out, budget)
    if warm is not None:  # a cache miss is reported by run.py
        work_cycles(stage, workload, warm, cache_dir, seconds, out)
    del warm
    if len(out["cold"]) > 1 or len(out["warm"]) > 1:
        set_ups(stage, text, cache_dir, out, budget)
    return out


def set_ups(stage: Stages, text: str, cache_dir: str, out: dict, budget: float):
    """Cold starts, then warm starts from the last one's cache, each repeated
    while the phase has used less than `budget`; returns the last warm Context."""
    first = len(out["cold"])
    while len(out["cold"]) == first or _more(out["cold"][first:], "setup", budget):
        shutil.rmtree(cache_dir, ignore_errors=True)
        cold_ctx, rec = cold_start(stage, text, cache_dir)
        out["cold"].append(rec)
    first = len(out["warm"])
    while len(out["warm"]) == first or _more(out["warm"][first:], "warm_setup", budget):
        warm, rec = warm_start(stage, text, cache_dir, cold_ctx)
        out["warm"].append(rec)
    return warm


def _more(recs: list, key: str, budget: float) -> bool:
    return len(recs) < MAX_REPS and sum(r[key] for r in recs) < budget


def work_cycles(stage: Stages, workload: str, ctx, cache_dir: str,
                seconds: float, out: dict) -> None:
    """The operations on the warm Context, then again on fresh Contexts read
    from the cache onto the same Algebra while one more cycle fits."""
    started = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        out["work"].append(run_work(stage, workload, ctx))
        now = time.perf_counter()
        if now - started + (now - cycle) > seconds:
            return
        ctx = textio.load_cached_context(ctx.alg, cache_dir)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(OPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", required=True,
                   help="directory for caches and the span file")
    args = p.parse_args(argv)
    text = gen.generate(args.workload, args.seed)
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "input_sha256": gen.sha256(text), "passes": []}
    # A traced run compares one work cycle traced with one untraced.
    seconds = 0.0 if args.trace else args.seconds
    record["passes"].append(one_pass(args.workload, text, seconds,
                                     args.scratch, None, reps=True))
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            record["passes"].append(one_pass(args.workload, text, 0.0,
                                             args.scratch, tracer, reps=False))
        finally:
            tracer.uninstall()
        record["layers"] = tracer.summary()
        record["span_count"] = tracer.span_count()
        span_file = os.path.join(args.scratch, "spans.tsv.gz")
        with gzip.open(span_file, "wt", encoding="utf-8", compresslevel=1) as fh:
            tracer.write_to(fh)
        record["span_file"] = span_file
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
