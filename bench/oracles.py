"""Invariants every benchmark run is checked against.

Most expected values are closed forms from the literature and share no code
with widecat: the indecomposables of a Dynkin path algebra are its positive
roots (Gabriel), its wide subcategories are counted by the Catalan number of
the type (Ingalls–Thomas, arXiv math/0612219), the sτ-rigid objects of A4 are
the faces of the A4 cluster complex (Fomin–Zelevinsky, arXiv hep-th/0111053),
the sτ-tilting objects of the preprojective Π(A3) are the 4! elements of the
Weyl group (Mizuno, arXiv 1304.0667), and the AR quiver of a Dynkin path
algebra with Coxeter number h has (h - 1) irreducible maps per arrow of the
quiver.  The values marked "seed commit" are what widecat computed when the
benchmark was written, on two orientations each; they must not depend on the
seed either.
"""
from __future__ import annotations

import json

SUITE_CHECKS = {
    # seed commit; identical on every seeded orientation and labelling
    "verify-a4": {"homological-lemmas": 212, "bijection": 3785,
                  "composition": 1597, "associativity": 6217,
                  "category-axioms": 15898, "irreducible": 1058,
                  "dirrt-bijection": 85, "sequences": 7330},
    "verify-preproj-a3": {"homological-lemmas": 306, "bijection": 955,
                          "composition": 365, "associativity": 1015,
                          "category-axioms": 2816, "irreducible": 344,
                          "dirrt-bijection": 49, "sequences": 1240},
}

CENSUS = {
    "verify-a4": {"ind": 10,          # positive roots of A4
                  "wides": 42,        # Catalan number of A4
                  "strigid": 197},    # faces of the A4 cluster complex
    "verify-preproj-a3": {"dim": 10,  # dim Π(A_n) = n(n+1)(n+2)/6
                          "ind": 12,  # seed commit
                          "wides": 24,  # 4! = |W(A3)|
                          "strigid": 75},  # seed commit
    "export-d5": {"ind": 20,          # positive roots of D5
                  "wides": 182,       # Catalan number of D5
                  "strigid": 1233,    # seed commit
                  "morphisms": 8086,  # seed commit
                  "ar_arrows": 28},   # 4 arrows x (h - 1), h = 8
}

# Observation keys that are not outputs of the operation.
_NOT_OUTPUTS = {"op", "error", "traceback", "first_failure"}


def fingerprint(row: dict) -> str:
    """The outputs of one operation, without timings or diagnostics."""
    return json.dumps({k: v for k, v in row.items()
                       if k not in _NOT_OUTPUTS and not _is_stage(k)},
                      sort_keys=True)


def _is_stage(key: str) -> bool:
    return key.startswith("verify.") or key.startswith("op.")


def _expect(checks: list, op: str, pairs) -> None:
    """Record one checked operation; it fails on the first unmet pair."""
    for what, got, want in pairs:
        if got != want:
            checks.append({"op": op, "ok": False,
                           "why": f"{what}: got {got!r}, expected {want!r}"})
            return
    checks.append({"op": op, "ok": True, "why": ""})


def check(workload: str, record: dict, ledger: dict) -> list[dict]:
    """One entry per checked operation: set-ups, work operations, census.

    `ledger` maps input digests to operation fingerprints seen on earlier
    runs; outputs for the same input must be byte-identical across runs.
    """
    census = CENSUS[workload]
    checks: list[dict] = []
    seen = ledger.setdefault(record["input_sha256"], {})
    for p in record["passes"]:
        for rec in p["cold"]:
            pairs = [("indecomposables", rec["ind"], census["ind"])]
            if "dim" in census:
                pairs.append(("dimension", rec["dim"], census["dim"]))
            _expect(checks, "cold start", pairs)
        for rec in p["warm"]:
            _expect(checks, "warm start",
                    [("cache hit", rec["cache_hit"], True),
                     ("same modules as the cold start", rec["same_as_cold"], True)])
        for cycle in p["work"]:
            for row in cycle["ops"]:
                _check_op(checks, workload, row, seen)
            counts = cycle["counts"]
            pairs = [("sτ-rigid objects", counts["taurigid.strigid"], census["strigid"]),
                     ("wide subcategories", counts["category.wides"], census["wides"])]
            if "morphisms" in census:
                pairs.append(("morphisms", counts["category.morphisms"],
                              census["morphisms"]))
            _expect(checks, "census", pairs)
    return checks


def _check_op(checks: list, workload: str, row: dict, seen: dict) -> None:
    op = row["op"]
    if "error" in row:
        checks.append({"op": op, "ok": False, "why": row["error"]})
        return
    census = CENSUS[workload]
    if workload in SUITE_CHECKS:
        pairs = [("failing checks", row["failures"], 0),
                 ("checks", row["checks"], SUITE_CHECKS[workload][op])]
        if row["failures"]:
            pairs[0] = ("failing checks", row["first_failure"], None)
    elif op == "ar-quiver export":
        pairs = [("nodes", row["nodes"], census["ind"]),
                 ("irreducible maps", row["arrows"], census["ar_arrows"])]
    elif op == "tau-rigid list":
        pairs = [("objects", row["count"], census["strigid"])]
    elif op == "wide list":
        pairs = [("wide subcategories", row["count"], census["wides"])]
    else:  # wide-cat export
        pairs = [("objects", row["objects"], census["wides"]),
                 ("morphisms", row["morphisms"], census["morphisms"]),
                 ("morphisms in the JSON", row["json_morphisms"], census["morphisms"])]
    fp = fingerprint(row)
    pairs.append(("same output as before for this input", seen.setdefault(op, fp), fp))
    _expect(checks, op, pairs)
