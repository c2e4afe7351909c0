"""Exhaustive verification suites for the structural theorems.

Every suite sweeps a complete desk-scale algebra: all indecomposables, all
support tau-rigid objects, all wide subcategories, all composable morphisms.
A suite reports the number of elementary checks it ran and a list of
failures, each carrying a minimal human-readable counterexample; zero
failures is the pass condition.  Suites never stop at the first failure.

The reduction-table implementation used by the sweeps can be swapped out
(`table_impl`), which lets the test suite plant a deliberately corrupted
reduction and confirm that the bijection suite catches it.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .category import (WideCategory, enumerate_wide_subcategories,
                       identity_of)
from .context import Context
from .errors import BudgetExceeded, NotSupportTauRigid, WidecatError
from .homology import shifted_hom_dim
from .reduction import e_table, wide_of
from .sequences import (count_signed_sequences, enumerate_signed_sequences,
                        factorizations, ordered_strigid_objects, phi,
                        phi_inverse)
from .taurigid import (CObject, candidate_keys, ext_projective_ids,
                       full_subcategory, is_support_tau_rigid,
                       split_projective_part, stilting_objects,
                       strigid_objects)

SUITE_NAMES = (
    "homological-lemmas",
    "bijection",
    "composition",
    "associativity",
    "category-axioms",
    "irreducible",
    "dirrt-bijection",
    "sequences",
)


@dataclass
class Failure:
    check: str
    counterexample: str


@dataclass
class VerificationReport:
    suite: str
    algebra: str
    checks: int = 0
    failures: list[Failure] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, name: str, ok: bool, counterexample: str = "") -> None:
        self.checks += 1
        if not ok:
            self.failures.append(Failure(name, counterexample))

    def describe(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} FAILED"
        return (f"{self.suite:.<20} {self.checks:>6} checks  {verdict}"
                f"  ({self.seconds:.2f}s)")

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "algebra": self.algebra,
            "checks": self.checks,
            "failures": [{"check": f.check, "counterexample": f.counterexample}
                         for f in self.failures],
            "seconds": round(self.seconds, 3),
            "ok": self.ok,
        }


def _image(table: dict, x: CObject) -> CObject:
    return CObject.from_keys([table[k] for k in x.keys()])


def _members(ctx: Context, w) -> str:
    return "{" + ",".join(ctx.label(i) for i in w.key) + "}"


# ---------------------------------------------------------------------------
# suites


def _suite_homological(ctx: Context, rep: VerificationReport,
                       table_impl) -> None:
    """Three equivalent readings of rigidity, plus translate round trips."""
    ids = ctx.ind_ids()
    for u, x in itertools.product(ids, repeat=2):
        t = ctx.tau(x)
        a = t is None or ctx.hom_dim(u, t) == 0
        b = shifted_hom_dim(ctx.pres(x).cplx, ctx.pres(u).cplx) == 0
        gen = sorted(ctx.gen_members(frozenset([u])))
        c = all(ctx.ext1(x, g) == 0 for g in gen)
        at = f"U={ctx.label(u)}, X={ctx.label(x)}"
        rep.check("rigidity-module-vs-two-term", a == b,
                  f"{at}: vanishing of maps into the translate says {a}, "
                  f"shifted chain maps of presentations say {b}")
        rep.check("rigidity-module-vs-ext", a == c,
                  f"{at}: vanishing of maps into the translate says {a}, "
                  f"extensions into the generated class say {c}")
    for i in ids:
        t = ctx.tau(i)
        if t is not None:
            rep.check("translate-round-trip", ctx.tau_inv(t) == i,
                      f"inverse translate of translate({ctx.label(i)}) is "
                      f"{ctx.label(ctx.tau_inv(t)) if ctx.tau_inv(t) is not None else 0}")
        ti = ctx.tau_inv(i)
        if ti is not None:
            rep.check("inverse-translate-round-trip", ctx.tau(ti) == i,
                      f"translate of inverse-translate({ctx.label(i)}) is "
                      f"{ctx.label(ctx.tau(ti)) if ctx.tau(ti) is not None else 0}")


def _suite_bijection(ctx: Context, rep: VerificationReport,
                     table_impl) -> None:
    """The reduction is a summand-count-preserving bijection, for every object."""
    full = full_subcategory(ctx)
    objs = strigid_objects(ctx, full)
    for u in objs:
        w1 = wide_of(ctx, None, u)
        table = table_impl(ctx, None, u)
        at = f"reducing by {u.describe(ctx)}"
        values = list(table.values())
        rep.check("summand-map-injective", len(set(values)) == len(values),
                  f"{at}: two summands share the image among {sorted(values)}")
        target_keys = set(candidate_keys(ctx, w1))
        rep.check("summand-map-onto", set(values) == target_keys,
                  f"{at}: images {sorted(set(values))} vs candidate summands "
                  f"{sorted(target_keys)} of {_members(ctx, w1)}")
        domain = [x for x in objs if set(x.keys()) <= set(table)]
        images = []
        for x in domain:
            try:
                y = _image(table, x)
            except BudgetExceeded:
                raise
            except WidecatError as exc:
                rep.check("object-image-formed", False,
                          f"{at}: image of {x.describe(ctx)} is not a valid "
                          f"object ({exc})")
                continue
            images.append(y)
            rep.check("object-image-summand-count", y.delta == x.delta,
                      f"{at}: {x.describe(ctx)} has {x.delta} summands, its "
                      f"image {y.describe(ctx)} has {y.delta}")
            rep.check("object-image-rigid", is_support_tau_rigid(ctx, w1, y),
                      f"{at}: image {y.describe(ctx)} of {x.describe(ctx)} is "
                      f"not support tau-rigid in {_members(ctx, w1)}")
        expected = set(strigid_objects(ctx, w1))
        rep.check("object-map-bijective",
                  len(set(images)) == len(images) and set(images) == expected,
                  f"{at}: {len(domain)} compatible objects map onto "
                  f"{len(set(images))} of the {len(expected)} objects of "
                  f"{_members(ctx, w1)}")


def _compatible_pairs(ctx: Context) -> tuple[tuple[CObject, CObject, CObject], ...]:
    """All ordered pairs (u, v) of disjoint objects with u + v support tau-rigid."""
    if "pairs" in ctx.memo:
        return ctx.memo["pairs"]
    objs = strigid_objects(ctx, full_subcategory(ctx))
    out = []
    for u in objs:
        for v in objs:
            try:
                uv = u.union(v)
            except NotSupportTauRigid:
                continue
            if is_support_tau_rigid(ctx, None, uv):
                out.append((u, v, uv))
    ctx.memo["pairs"] = tuple(out)
    return ctx.memo["pairs"]


def _suite_composition(ctx: Context, rep: VerificationReport,
                       table_impl) -> None:
    """Reducing in two steps reaches the same wide subcategory as one step."""
    for u, v, uv in _compatible_pairs(ctx):
        ev = _image(table_impl(ctx, None, u), v)
        lhs = wide_of(ctx, wide_of(ctx, None, u), ev)
        rhs = wide_of(ctx, None, uv)
        rep.check("two-step-target-matches",
                  lhs.members == rhs.members,
                  f"U={u.describe(ctx)}, V={v.describe(ctx)}: two-step target "
                  f"{_members(ctx, lhs)} vs one-step {_members(ctx, rhs)}")


def _suite_associativity(ctx: Context, rep: VerificationReport,
                         table_impl) -> None:
    """Reducing by u then by the image of v equals reducing by u + v."""
    objs = strigid_objects(ctx, full_subcategory(ctx))
    for u, v, uv in _compatible_pairs(ctx):
        w1 = wide_of(ctx, None, u)
        t1 = table_impl(ctx, None, u)
        t2 = table_impl(ctx, w1, _image(t1, v))
        tuv = table_impl(ctx, None, uv)
        at = f"U={u.describe(ctx)}, V={v.describe(ctx)}"
        for x in objs:
            if not set(x.keys()) <= set(tuv):
                continue
            try:
                lhs = _image(t2, _image(t1, x))
            except BudgetExceeded:
                raise
            except (KeyError, WidecatError) as exc:
                rep.check("stepwise-image-defined", False,
                          f"{at}, X={x.describe(ctx)}: two-step image "
                          f"undefined ({exc})")
                continue
            rhs = _image(tuv, x)
            rep.check("stepwise-image-matches", lhs == rhs,
                      f"{at}, X={x.describe(ctx)}: two-step image "
                      f"{lhs.describe(ctx)} vs one-step {rhs.describe(ctx)}")


def _suite_category_axioms(ctx: Context, rep: VerificationReport,
                           table_impl) -> None:
    cat = WideCategory(ctx)
    ms = cat.all_morphisms()
    for m in ms:
        at = m.describe(ctx)
        rep.check("identity-right-neutral",
                  cat.compose(m, identity_of(m.source)) == m,
                  f"{at} composed after the source identity changed")
        rep.check("identity-left-neutral",
                  cat.compose(identity_of(m.target), m) == m,
                  f"{at} composed into the target identity changed")

    for f in ms:
        for g in cat.morphisms_from(f.target):
            gf = cat.compose(g, f)
            for h in cat.morphisms_from(g.target):
                if cat.compose(h, gf) == cat.compose(cat.compose(h, g), f):
                    rep.checks += 1  # passing check, no counterexample text
                    continue
                rep.check("composition-associative", False,
                          f"({h.describe(ctx)}) . ({g.describe(ctx)}) . "
                          f"({f.describe(ctx)}) depends on bracketing")
    for w1 in cat.objects:
        for w2 in cat.objects:
            hom = cat.hom_set(w1, w2)
            if not w2.members <= w1.members:
                rep.check("no-maps-outside-subcategories", not hom,
                          f"{len(hom)} morphisms from {_members(ctx, w1)} to "
                          f"non-subcategory {_members(ctx, w2)}")
            else:
                rep.check("maps-onto-every-subwide", bool(hom),
                          f"no morphism from {_members(ctx, w1)} onto its "
                          f"wide subcategory {_members(ctx, w2)}")


def _suite_irreducible(ctx: Context, rep: VerificationReport,
                       table_impl) -> None:
    """Morphism counts over rank-one drops, and injectivity of the wide image."""
    cat = WideCategory(ctx)
    for w in cat.objects:
        projs = ext_projective_ids(ctx, w)
        proj_targets = {p: wide_of(ctx, w, CObject.of((p,))).key for p in projs}
        for w2 in cat.objects:
            if not (w2.members < w.members
                    and cat.rank[w.key] - cat.rank[w2.key] == 1):
                continue
            n = len(cat.hom_set(w, w2))
            expected = 2 if w2.key in proj_targets.values() else 1
            rep.check("rank-one-morphism-count", n == expected,
                      f"{_members(ctx, w)} -> {_members(ctx, w2)}: "
                      f"{n} morphisms, expected {expected}")
        for m in cat.morphisms_from(w):
            rep.check("irreducible-iff-single-summand",
                      cat.is_irreducible(m) == (m.label.delta == 1),
                      m.describe(ctx))
        # distinct rigid module summands have distinct wide images
        module_keys = [k for k in candidate_keys(ctx, w) if k[0] == "m"]
        seen: dict[tuple, int] = {}
        for _, i in module_keys:
            key = wide_of(ctx, w, CObject.of((i,))).key
            if key in seen:
                rep.check("wide-image-injective-on-modules", False,
                          f"in {_members(ctx, w)}: {ctx.label(seen[key])} and "
                          f"{ctx.label(i)} have the same wide image")
            else:
                rep.check("wide-image-injective-on-modules", True)
                seen[key] = i


def _suite_dirrt(ctx: Context, rep: VerificationReport,
                 table_impl) -> None:
    """Maximal rigid objects biject onto wide subcategories via the split part."""
    full = full_subcategory(ctx)
    maximal = stilting_objects(ctx, full)
    wides = {w.key for w in enumerate_wide_subcategories(ctx)}
    images: dict[tuple, CObject] = {}
    for t in maximal:
        _, nonsplit = split_projective_part(ctx, t.mods)
        j = wide_of(ctx, None, CObject.of(nonsplit))
        members = {x for x in j.members
                   if all(ctx.hom_dim(p, x) == 0 for p in t.shifts)}
        key = tuple(sorted(members))
        rep.check("image-is-wide", key in wides,
                  f"{t.describe(ctx)} maps to {key}, not a wide subcategory")
        if key in images:
            rep.check("assignment-injective", False,
                      f"{t.describe(ctx)} and {images[key].describe(ctx)} both "
                      f"map to the wide subcategory {key}")
        else:
            rep.check("assignment-injective", True)
            images[key] = t
    rep.check("assignment-onto",
              set(images) == wides and len(maximal) == len(wides),
              f"{len(maximal)} maximal objects cover {len(set(images))} of "
              f"{len(wides)} wide subcategories")


def _suite_sequences(ctx: Context, rep: VerificationReport,
                     table_impl) -> None:
    """Sequence counts, the factorization count, and both round trips."""
    cat = WideCategory(ctx)
    for w in cat.objects:
        rank = cat.rank[w.key]
        at = f"inside {_members(ctx, w)}"
        for t in range(rank + 1):
            seqs = enumerate_signed_sequences(ctx, w, t)
            ordered = ordered_strigid_objects(ctx, w, t)
            rep.check("sequence-count-matches-ordered-objects",
                      len(seqs) == len(ordered),
                      f"{at}, length {t}: {len(seqs)} sequences vs "
                      f"{len(ordered)} ordered rigid objects")
            rep.check("sequence-count-function-agrees",
                      count_signed_sequences(ctx, w, t) == len(seqs), at)
            for seq in seqs:
                ordered_img = phi(ctx, w, seq)
                back = phi_inverse(ctx, w, ordered_img)
                rep.check("sequence-round-trip", back == seq,
                          f"{at}: {[e.describe(ctx) for e in seq]} came back "
                          f"as {[e.describe(ctx) for e in back]}")
            for tpl in ordered:
                seq = phi_inverse(ctx, w, tpl)
                fwd = phi(ctx, w, seq)
                rep.check("ordered-object-round-trip", fwd == tpl,
                          f"{at}: {[e.describe(ctx) for e in tpl]} came back "
                          f"as {[e.describe(ctx) for e in fwd]}")
    for m in cat.all_morphisms():
        chains = factorizations(cat, m)
        want = math.factorial(m.label.delta)
        rep.check("factorization-count", len(chains) == want,
                  f"{m.describe(ctx)}: {len(chains)} factorizations "
                  f"into irreducibles, expected {want}")


_SUITES = {
    "homological-lemmas": _suite_homological,
    "bijection": _suite_bijection,
    "composition": _suite_composition,
    "associativity": _suite_associativity,
    "category-axioms": _suite_category_axioms,
    "irreducible": _suite_irreducible,
    "dirrt-bijection": _suite_dirrt,
    "sequences": _suite_sequences,
}


def run_suite(ctx: Context, name: str, algebra: str = "",
              table_impl=None) -> VerificationReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    rep = VerificationReport(suite=name, algebra=algebra or repr(ctx.alg))
    start = time.perf_counter()
    _SUITES[name](ctx, rep, table_impl or e_table)
    rep.seconds = time.perf_counter() - start
    return rep


def run_verify(ctx: Context, suites=None, algebra: str = "",
               table_impl=None) -> list[VerificationReport]:
    """Run the selected suites (all of them by default), in a fixed order."""
    chosen = list(suites) if suites else list(SUITE_NAMES)
    for s in chosen:
        if s not in _SUITES:
            raise ValueError(f"unknown suite {s!r}; choose from {SUITE_NAMES}")
    return [run_suite(ctx, s, algebra=algebra, table_impl=table_impl)
            for s in chosen]
