"""Run every workload over several seeds and summarize the spread.

    python3 bench/baseline.py --seeds 1-10 --out bench/results/baseline.json

Each seed runs every workload once untraced (workloads interleaved, so slow
drift of the machine hits all of them alike), then each workload runs once
traced, on the first seed.  For every end-to-end metric the summary gives the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound, and
the traced runs are checked against the `checks` of bench/predictions.json.
"""
from __future__ import annotations

import argparse
import fnmatch
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    os.makedirs(run.RUN_DIR, exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".json", dir=run.RUN_DIR)
    os.close(fd)
    try:
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--record", path]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=run.WORKER_TIMEOUT_S + 10)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    finally:
        os.remove(path)
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']} "
          f"{result['failed']}/{result['attempted']} failed  "
          + "  ".join(f"{k} {v:.4g}" for k, v in record["end_to_end"].items()),
          flush=True)
    return {"seed": seed, "input_sha256": record["input_sha256"],
            "host": record["host"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "wall_s": record["wall_s"], "end_to_end": record["end_to_end"],
            **({"per_layer": record["per_layer"]} if trace else {})}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def check_predictions(checks: list[dict], traced: dict[str, dict]) -> list[dict]:
    out = []
    for c in checks:
        run_ = traced.get(c["workload"])
        if run_ is None:
            continue
        values = {**run_["per_layer"], **run_["end_to_end"]}
        got = values[c["metric"]]
        if "share_of" in c:
            got /= values[c["share_of"]]
        if "equals" in c:
            ok = got == c["equals"]
        elif "equals_metric" in c:
            ok = got == values[c["equals_metric"]]
        elif "largest_of" in c:
            peers = [k for k in values if fnmatch.fnmatch(k, c["largest_of"])]
            ok = got == max(values[k] for k in peers)
        elif "at_least" in c:
            ok = got >= c["at_least"]
        else:
            ok = got <= c["at_most"]
        out.append({"claim": c["claim"], "holds": ok, "value": got})
        print(f"prediction {'holds' if ok else 'FAILS'}: {c['claim']} ({got:.6g})")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="range such as 1-10")
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out", help="write the summary here")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            runs[w].append(run_once(w, seed, seconds, 0))
    traced = {} if args.no_trace else {
        w: run_once(w, seeds[0], seconds, 1) for w in names}
    summary: dict = {"run_seconds": seconds, "workloads": {}}
    for w in names:
        rows = {}
        for m in spec["end_to_end"]:
            s = spread([r["end_to_end"][m["name"]] for r in runs[w]])
            s["bound"] = m["bound"]
            rows[m["name"]] = s
            print(f"{w:<18} {m['name']:<13} median {s['median']:.5g}  "
                  f"spread {s['spread']:.3f}  bound {m['bound']}")
        summary["workloads"][w] = {"end_to_end": rows, "runs": runs[w],
                                   "traced": traced.get(w)}
    summary["predictions"] = check_predictions(predictions["checks"], traced)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
