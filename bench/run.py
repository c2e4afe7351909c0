"""widecat benchmark: one run of one workload.

    python3 bench/run.py --workload verify-a4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's algebra is generated from
--seed (bench/gen.py), then bench/worker.py runs in a fresh interpreter,
single-threaded, as one closed-loop client: a cold start (parse, build the
algebra, enumerate, write the cache), a warm start from that cache, and the
workload's operations.  Every output is checked against bench/oracles.py.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics (from an extra traced pass) with --trace 1.  The lines before it
give the same numbers for people, with the run's host details.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_DIR = os.path.join(BENCH, "_run")
LEDGER = os.path.join(RUN_DIR, "ledger.json")
WORKER_TIMEOUT_S = 170

sys.path.insert(0, BENCH)
import gen  # noqa: E402
import oracles  # noqa: E402

SUITES = ("homological-lemmas", "bijection", "composition", "associativity",
          "category-axioms", "irreducible", "dirrt-bijection", "sequences")

# Layer functions reported with .calls and .self_s from the traced pass.
CALLS = ("modules.hom_basis", "modules.decompose", "modules.kernel",
         "modules.cokernel", "homology.minimal_presentation",
         "homology.ar_translate", "homology.ar_translate_inverse",
         "homology.ext1_dim", "linalg.rref", "linalg.row_space_reduce",
         "linalg.nullspace", "linalg.solve_matrix", "context.Context.hom",
         "context.Context.ext1", "context.Context.gen_members",
         "taurigid.strigid_objects", "taurigid.ext_projective_ids",
         "taurigid.is_support_tau_rigid", "reduction.wide_of",
         "reduction.e_table", "reduction.e_map_key", "reduction.f_map",
         "reduction.rel_presentation", "homology.chain_maps_mod_homotopy",
         "homology.cone_homology", "sequences.phi", "sequences.phi_inverse",
         "sequences.factorizations", "sequences.enumerate_signed_sequences",
         "category.WideCategory.compose")

# Inclusive time of a layer's entry point, from the traced pass.
INCLUSIVE = {"taurigid.strigid_s": "taurigid.strigid_objects",
             "category.wides_s": "category.enumerate_wide_subcategories",
             "category.build_s": "category.WideCategory.__init__",
             "category.json_s": "category.category_json",
             "arquiver.build_s": "arquiver.build_ar_quiver"}

# Stage timers of the untraced pass (median over repetitions).
COLD_STAGES = {"textio.parse_s": "textio.parse", "algebra.build_s": "algebra.build",
               "context.enumerate_s": "context.enumerate",
               "textio.cache_write_s": "textio.cache_write"}
WARM_STAGES = {"algebra.rebuild_s": "algebra.rebuild",
               "textio.cache_read_s": "textio.cache_read"}

# Sizes of the Context's caches and census counts after the work.
MEMO_COUNTS = ("context.hom.entries", "context.ext.entries",
               "context.pres.entries", "context.gen.entries",
               "taurigid.strigid.entries", "taurigid.strigid",
               "reduction.wide_of.entries", "reduction.etable.entries",
               "reduction.relpres.entries", "category.wides",
               "category.morphisms")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in output order."""
    units = {name: "s" for name in COLD_STAGES}
    units.update({name: "s" for name in WARM_STAGES})
    units.update({"algebra.dim": "count", "context.ind": "count",
                  "textio.cache_bytes": "B"})
    units.update({name: "count" for name in MEMO_COUNTS})
    units.update({f"context.{k}.reuse": "ratio" for k in ("hom", "ext", "gen")})
    for name in CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "s" for name in INCLUSIVE})
    units["category.json_bytes"] = "B"
    for suite in SUITES:
        units[f"verify.{suite}_s"] = "s"
        units[f"verify.{suite}.checks"] = "count"
    units.update({"trace.spans": "count", "trace.self_total_s": "s",
                  "trace.overhead_s": "s", "trace.work_overhead_s": "s"})
    return units


END_TO_END_UNITS = {"setup_s": "s", "warm_setup_s": "s", "work_s": "s",
                    "peak_rss_mb": "MB"}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ops_by_name(p: dict) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for cycle in p["work"]:
        for row in cycle["ops"]:
            out.setdefault(row["op"], []).append(row)
    return out


def end_to_end(record: dict, rss_mb: float) -> dict[str, float]:
    p = record["passes"][0]
    return {"setup_s": _median([r["setup"] for r in p["cold"]]),
            "warm_setup_s": _median([r["warm_setup"] for r in p["warm"]]),
            "work_s": _median([c["work"] for c in p["work"]]),
            "peak_rss_mb": rss_mb}


def per_layer(record: dict) -> dict[str, float]:
    plain, traced = record["passes"]
    layers = record["layers"]
    out: dict[str, float] = {}
    for name, stage in COLD_STAGES.items():
        out[name] = _median([r[stage] for r in plain["cold"]])
    for name, stage in WARM_STAGES.items():
        out[name] = _median([r[stage] for r in plain["warm"]])
    cold = plain["cold"][0]
    out.update({"algebra.dim": cold["dim"], "context.ind": cold["ind"],
                "textio.cache_bytes": cold["cache_bytes"]})
    counts = plain["work"][0]["counts"] if plain["work"] else {}
    for name in MEMO_COUNTS:
        out[name] = counts.get(name, 0)
    traced_counts = traced["work"][0]["counts"] if traced["work"] else {}
    for kind, accessor in (("hom", "hom"), ("ext", "ext1"), ("gen", "gen_members")):
        calls = layers[f"context.Context.{accessor}"]["calls"]
        entries = traced_counts.get(f"context.{kind}.entries", 0)
        out[f"context.{kind}.reuse"] = 1 - entries / calls if calls else 0.0
    for name in CALLS:
        out[f"{name}.calls"] = layers[name]["calls"]
        out[f"{name}.self_s"] = layers[name]["self_s"]
    for name, fn in INCLUSIVE.items():
        out[name] = layers[fn]["incl_s"]
    ops = _ops_by_name(plain)
    exports = ops.get("wide-cat export", [])
    out["category.json_bytes"] = exports[0].get("bytes", 0) if exports else 0
    for suite in SUITES:
        rows = ops.get(suite, [])
        out[f"verify.{suite}_s"] = _median([r[f"verify.{suite}"] for r in rows
                                            if f"verify.{suite}" in r])
        out[f"verify.{suite}.checks"] = rows[0].get("checks", 0) if rows else 0
    # The self times of all spans add up to the traced set-up, warm start and
    # work; what they exceed the untraced figures by is the tracing overhead.
    untraced = end_to_end(record, 0.0)
    out["trace.spans"] = record["span_count"]
    out["trace.self_total_s"] = sum(row["self_s"] for row in layers.values())
    out["trace.overhead_s"] = out["trace.self_total_s"] - (
        untraced["setup_s"] + untraced["warm_setup_s"] + untraced["work_s"])
    out["trace.work_overhead_s"] = (_median([c["work"] for c in traced["work"]])
                                    - untraced["work_s"])
    return out


def host_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_1m": os.getloadavg()[0], "commit": git_commit(ROOT)}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _load_ledger() -> dict:
    try:
        with open(LEDGER, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _store_ledger(ledger: dict) -> None:
    tmp = LEDGER + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, sort_keys=True)
    os.replace(tmp, LEDGER)


def run_worker(args, scratch: str) -> tuple[dict, float]:
    """The worker's record and its peak RSS in MB."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return json.loads(proc.stdout.strip().splitlines()[-1]), rss_mb


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="also write the full run record here")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "widecat", "__init__.py")):
        print(f"error: no widecat sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    started = time.perf_counter()
    try:
        record, rss_mb = run_worker(args, scratch)
        if args.trace:
            kept = os.path.join(RUN_DIR, f"spans-{args.workload}.tsv.gz")
            os.replace(record["span_file"], kept)
            record["span_file"] = os.path.relpath(kept, ROOT)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ledger = _load_ledger()
    checks = oracles.check(args.workload, record, ledger)
    _store_ledger(ledger)
    failed = sum(not c["ok"] for c in checks)
    e2e = end_to_end(record, rss_mb)
    record.update(host=host_info(), checks=checks, end_to_end=e2e,
                  wall_s=time.perf_counter() - started)
    if args.trace:
        record["per_layer"] = per_layer(record)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"input sha256 {record['input_sha256']}")
    print("host " + "  ".join(f"{k} {v}" for k, v in record["host"].items()))
    for c in checks:
        if not c["ok"]:
            print(f"FAILED {c['op']}: {c['why']}")
    for name, value in e2e.items():
        print(f"{name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{'failed_ratio':<14} {failed / len(checks):.6g} ratio "
          f"({failed} of {len(checks)} operations)")
    if args.trace:
        metrics = {n: {"value": record["per_layer"][n], "unit": u}
                   for n, u in per_layer_units().items()}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                   for n, v in e2e.items()}
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
