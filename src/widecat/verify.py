"""Exhaustive verification suites for the structural theorems.

Every suite sweeps a complete desk-scale algebra: all indecomposables, all
support tau-rigid objects, all wide subcategories, all composable morphisms.
A suite reports the number of elementary checks it ran and a list of
failures, each carrying a minimal human-readable counterexample; zero
failures is the pass condition.  Suites never stop at the first failure.

The sweeps over compatible objects walk the link index (`_link`): the
support tau-rigid objects form a simplicial complex, and the objects x with
x + s support tau-rigid are the link of the face s.  The index stores, for
every object y and every subset s of its summands, y minus s under s, in
the order of `strigid_objects`; it has sum over T of 2^|T| entries, and the
suites visit exactly the objects they check instead of scanning all objects
for each pair.

The sweeps read reduction tables through this module's `e_table` binding,
so the test suite plants a deliberately corrupted reduction by patching
`verify.e_table` and confirms that the suites catch it.  A step that may
raise (a summand missing from a patched table, an image that is not a valid
object of the reduced world, a composition that fails, a fault inside the
library while it builds a table or runs a sequence round trip) runs through
`VerificationReport.attempt`, the one path that turns a raised error into a
failed check, so it is reported, never raised; `BudgetExceeded` still
propagates.
"""
from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar

from .category import (WideCategory, enumerate_wide_subcategories,
                       identity_of)
from .context import Context
from .errors import BudgetExceeded, WidecatError
from .homology import shifted_hom_dim
from .reduction import e_table, wide_of
from .sequences import (count_signed_sequences, enumerate_signed_sequences,
                        factorizations, ordered_strigid_objects, phi,
                        phi_inverse)
from .taurigid import (CObject, candidate_keys, ext_projective_ids,
                       full_subcategory, is_support_tau_rigid,
                       split_projective_part, stilting_objects,
                       strigid_objects, strigid_positions)

T = TypeVar("T")


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

    def check(self, name: str, ok: bool,
              counterexample: Callable[[], str] = str) -> None:
        """Count one check; build its counterexample text only on failure."""
        self.checks += 1
        if not ok:
            self.failures.append(Failure(name, counterexample()))

    def attempt(self, name: str, compute: Callable[[], T],
                what: Callable[[], str]) -> T | None:
        """`compute()`, or None after one failed `name` check if it raises.

        The counterexample reads "<what()> raised <Type>: <message>".  Only
        KeyError and WidecatError are caught; BudgetExceeded propagates.
        """
        try:
            return compute()
        except BudgetExceeded:
            raise
        except (KeyError, WidecatError) as exc:
            self.check(name, False,
                       lambda: f"{what()} raised {type(exc).__name__}: {exc}")
            return None

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


def _suite_homological(ctx: Context, rep: VerificationReport) -> None:
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
                  lambda: f"{at}: vanishing of maps into the translate says "
                          f"{a}, shifted chain maps of presentations say {b}")
        rep.check("rigidity-module-vs-ext", a == c,
                  lambda: f"{at}: vanishing of maps into the translate says "
                          f"{a}, extensions into the generated class say {c}")
    for i in ids:
        t = ctx.tau(i)
        if t is not None:
            rep.check("translate-round-trip", ctx.tau_inv(t) == i,
                      lambda: f"inverse translate of translate({ctx.label(i)})"
                              f" is {ctx.label(ctx.tau_inv(t)) if ctx.tau_inv(t) is not None else 0}")
        ti = ctx.tau_inv(i)
        if ti is not None:
            rep.check("inverse-translate-round-trip", ctx.tau(ti) == i,
                      lambda: f"translate of inverse-translate({ctx.label(i)})"
                              f" is {ctx.label(ctx.tau(ti)) if ctx.tau(ti) is not None else 0}")


def _suite_bijection(ctx: Context, rep: VerificationReport) -> None:
    """The reduction is a summand-count-preserving bijection, for every object."""
    link = _link(ctx)
    full = full_subcategory(ctx)
    for u in strigid_objects(ctx, full):
        at = f"reducing by {u.describe(ctx)}"
        reduced = rep.attempt("reduction-defined",
                              lambda: (wide_of(ctx, full, u), e_table(ctx, full, u)),
                              lambda: f"{at}: wide subcategory and table")
        if reduced is None:
            continue
        w1, table = reduced
        values = list(table.values())
        rep.check("summand-map-injective", len(set(values)) == len(values),
                  lambda: f"{at}: two summands share the image among "
                          f"{sorted(values)}")
        target_keys = set(candidate_keys(ctx, w1))
        rep.check("summand-map-onto", set(values) == target_keys,
                  lambda: f"{at}: images {sorted(set(values))} vs candidate "
                          f"summands {sorted(target_keys)} of "
                          f"{_members(ctx, w1)}")
        domain = link[u]
        images = []
        for x in domain:
            y = rep.attempt("object-image-formed", lambda: _image(table, x),
                            lambda: f"{at}: image of {x.describe(ctx)}")
            if y is None:
                continue
            images.append(y)
            rep.check("object-image-summand-count", y.delta == x.delta,
                      lambda: f"{at}: {x.describe(ctx)} has {x.delta} "
                              f"summands, its image {y.describe(ctx)} has "
                              f"{y.delta}")
            rep.check("object-image-rigid", is_support_tau_rigid(ctx, w1, y),
                      lambda: f"{at}: image {y.describe(ctx)} of "
                              f"{x.describe(ctx)} is not support tau-rigid in "
                              f"{_members(ctx, w1)}")
        expected = set(strigid_objects(ctx, w1))
        rep.check("object-map-bijective",
                  len(set(images)) == len(images) and set(images) == expected,
                  lambda: f"{at}: {len(domain)} compatible objects map onto "
                          f"{len(set(images))} of the {len(expected)} objects "
                          f"of {_members(ctx, w1)}")


def _link(ctx: Context) -> dict[CObject, tuple[CObject, ...]]:
    """Face -> link in the complex of support tau-rigid objects of mod A.

    link[s] lists every object x disjoint from s with x + s support
    tau-rigid, in the order of `strigid_objects`; the lists are built from
    the subsets of each object's summands, so no pair is tested.
    """
    return ctx.cached("link", _build_link, ctx)


def _build_link(ctx: Context) -> dict[CObject, tuple[CObject, ...]]:
    position = strigid_positions(ctx, full_subcategory(ctx))
    link: dict[CObject, list[CObject]] = {}
    for y in position:
        keys = y.keys()
        for mask in range(1 << len(keys)):
            face = CObject.from_keys(
                [k for b, k in enumerate(keys) if mask >> b & 1])
            link.setdefault(face, []).append(CObject.from_keys(
                [k for b, k in enumerate(keys) if not mask >> b & 1]))
    return {s: tuple(sorted(xs, key=position.__getitem__))
            for s, xs in link.items()}


def _suite_composition(ctx: Context, rep: VerificationReport) -> None:
    """Reducing in two steps reaches the same wide subcategory as one step."""
    link = _link(ctx)
    full = full_subcategory(ctx)
    for u in strigid_objects(ctx, full):
        for v in link[u]:
            at = f"U={u.describe(ctx)}, V={v.describe(ctx)}"
            lhs = rep.attempt(
                "two-step-target-matches",
                lambda: wide_of(ctx, wide_of(ctx, full, u),
                                _image(e_table(ctx, full, u), v)),
                lambda: f"{at}: two-step target")
            if lhs is None:
                continue
            rhs = wide_of(ctx, full, u.union(v))
            rep.check("two-step-target-matches",
                      lhs.members == rhs.members,
                      lambda: f"{at}: two-step target {_members(ctx, lhs)} vs "
                              f"one-step {_members(ctx, rhs)}")


def _suite_associativity(ctx: Context, rep: VerificationReport) -> None:
    """Reducing by u then by the image of v equals reducing by u + v."""
    link = _link(ctx)
    full = full_subcategory(ctx)
    for u in strigid_objects(ctx, full):
        w1 = wide_of(ctx, full, u)
        t1 = rep.attempt("stepwise-image-defined", lambda: e_table(ctx, full, u),
                         lambda: f"U={u.describe(ctx)}: table of U")
        if t1 is None:
            continue
        for v in link[u]:
            at = f"U={u.describe(ctx)}, V={v.describe(ctx)}"
            t2 = rep.attempt("stepwise-image-defined",
                             lambda: e_table(ctx, w1, _image(t1, v)),
                             lambda: f"{at}: table of the image of V")
            if t2 is None:
                continue
            uv = u.union(v)
            tuv = rep.attempt("stepwise-image-defined",
                              lambda: e_table(ctx, full, uv),
                              lambda: f"{at}: table of U+V")
            if tuv is None:
                continue
            for x in link[uv]:
                images = rep.attempt(
                    "stepwise-image-defined",
                    lambda: (_image(t2, _image(t1, x)), _image(tuv, x)),
                    lambda: f"{at}, X={x.describe(ctx)}: two-step image")
                if images is None:
                    continue
                lhs, rhs = images
                rep.check("stepwise-image-matches", lhs == rhs,
                          lambda: f"{at}, X={x.describe(ctx)}: two-step image "
                                  f"{lhs.describe(ctx)} vs one-step "
                                  f"{rhs.describe(ctx)}")


def _suite_category_axioms(ctx: Context, rep: VerificationReport) -> None:
    """Identities are neutral, composition is associative, and each wide
    subcategory has morphisms to exactly its wide subcategories.  A
    composition that raises fails its check, which names the morphisms."""
    cat = WideCategory(ctx)

    def check(name, test, what, fails):
        ok = rep.attempt(name, test, what)
        if ok is not None:
            rep.check(name, ok, lambda: f"{what()} {fails}")

    ms = cat.all_morphisms()
    for m in ms:
        for name, b, a, where in (
                ("identity-right-neutral", m, identity_of(m.source), "after the source"),
                ("identity-left-neutral", identity_of(m.target), m, "into the target")):
            check(name, lambda: cat.compose(b, a) == m,
                  lambda: f"{m.describe(ctx)} composed {where} identity", "changed")

    for f in ms:
        for g in cat.morphisms_from(f.target):
            try:
                gf = cat.compose(g, f)
            except WidecatError:
                gf = None  # each check composes it again and fails (BudgetExceeded re-raises)
            for h in cat.morphisms_from(g.target):
                check("composition-associative",
                      lambda: (cat.compose(h, gf or cat.compose(g, f))
                               == cat.compose(cat.compose(h, g), f)),
                      lambda: f"({h.describe(ctx)}) . ({g.describe(ctx)}) . "
                              f"({f.describe(ctx)})",
                      "depends on bracketing")
    for w1 in cat.objects:
        for w2 in cat.objects:
            hom = cat.hom_set(w1, w2)
            if not w2.members <= w1.members:
                rep.check("no-maps-outside-subcategories", not hom,
                          lambda: f"{len(hom)} morphisms from "
                                  f"{_members(ctx, w1)} to non-subcategory "
                                  f"{_members(ctx, w2)}")
            else:
                rep.check("maps-onto-every-subwide", bool(hom),
                          lambda: f"no morphism from {_members(ctx, w1)} "
                                  f"onto its wide subcategory "
                                  f"{_members(ctx, w2)}")


def _suite_irreducible(ctx: Context, rep: VerificationReport) -> None:
    """Morphism counts over rank-one drops, a rank drop of one iff a label of
    one summand, and injectivity of the wide image."""
    cat = WideCategory(ctx)
    by_rank: dict[int, list] = {}
    for w in cat.objects:
        by_rank.setdefault(cat.rank[w.key], []).append(w)
    for w in cat.objects:
        projs = ext_projective_ids(ctx, w)
        proj_targets = {p: wide_of(ctx, w, CObject.of((p,))).key for p in projs}
        for w2 in by_rank.get(cat.rank[w.key] - 1, ()):
            if not w2.members < w.members:
                continue
            n = len(cat.hom_set(w, w2))
            expected = 2 if w2.key in proj_targets.values() else 1
            rep.check("rank-one-morphism-count", n == expected,
                      lambda: f"{_members(ctx, w)} -> {_members(ctx, w2)}: "
                              f"{n} morphisms, expected {expected}")
        for m in cat.morphisms_from(w):
            corank = cat.corank(m)
            rep.check("irreducible-iff-single-summand",
                      (corank == 1) == (m.label.delta == 1),
                      lambda: f"{m.describe(ctx)}: rank drop {corank}, "
                              f"{m.label.delta} label summands")
        # distinct rigid module summands have distinct wide images
        module_keys = [k for k in candidate_keys(ctx, w) if k[0] == "m"]
        seen: dict[tuple, int] = {}
        for _, i in module_keys:
            key = wide_of(ctx, w, CObject.of((i,))).key
            rep.check("wide-image-injective-on-modules", key not in seen,
                      lambda: f"in {_members(ctx, w)}: "
                              f"{ctx.label(seen[key])} and {ctx.label(i)}"
                              " have the same wide image")
            seen.setdefault(key, i)


def _suite_dirrt(ctx: Context, rep: VerificationReport) -> None:
    """Maximal rigid objects biject onto wide subcategories via the split part."""
    full = full_subcategory(ctx)
    maximal = stilting_objects(ctx, full)
    wides = {w.key for w in enumerate_wide_subcategories(ctx)}
    images: dict[tuple, CObject] = {}
    for t in maximal:
        _, nonsplit = split_projective_part(ctx, t.mods)
        j = wide_of(ctx, full, CObject.of(nonsplit))
        members = {x for x in j.members
                   if all(ctx.hom_dim(p, x) == 0 for p in t.shifts)}
        key = tuple(sorted(members))
        rep.check("image-is-wide", key in wides,
                  lambda: f"{t.describe(ctx)} maps to {key}, not a wide "
                          "subcategory")
        rep.check("assignment-injective", key not in images,
                  lambda: f"{t.describe(ctx)} and "
                          f"{images[key].describe(ctx)} both map to the "
                          f"wide subcategory {key}")
        images.setdefault(key, t)
    rep.check("assignment-onto",
              set(images) == wides and len(maximal) == len(wides),
              lambda: f"{len(maximal)} maximal objects cover "
                      f"{len(set(images))} of {len(wides)} wide subcategories")


def _suite_sequences(ctx: Context, rep: VerificationReport) -> None:
    """Sequence counts, the factorization count, and both round trips."""
    cat = WideCategory(ctx)
    for w in cat.objects:
        rank = cat.rank[w.key]
        at = f"inside {_members(ctx, w)}"
        for t in range(rank + 1):
            seqs = rep.attempt("sequence-count-matches-ordered-objects",
                               lambda: enumerate_signed_sequences(ctx, w, t),
                               lambda: f"{at}, length {t}: listing the sequences")
            if seqs is None:
                continue
            ordered = ordered_strigid_objects(ctx, w, t)
            rep.check("sequence-count-matches-ordered-objects",
                      len(seqs) == len(ordered),
                      lambda: f"{at}, length {t}: {len(seqs)} sequences vs "
                              f"{len(ordered)} ordered rigid objects")
            rep.check("sequence-count-function-agrees",
                      count_signed_sequences(ctx, w, t) == len(seqs),
                      lambda: at)
            for name, items, there, back in (
                    ("sequence-round-trip", seqs, phi, phi_inverse),
                    ("ordered-object-round-trip", ordered, phi_inverse, phi)):
                for item in items:
                    out = rep.attempt(
                        name, lambda: back(ctx, w, there(ctx, w, item)),
                        lambda: f"{at}: {[e.describe(ctx) for e in item]} there and back")
                    if out is not None:
                        rep.check(name, out == item,
                                  lambda: f"{at}: {[e.describe(ctx) for e in item]} came "
                                          f"back as {[e.describe(ctx) for e in out]}")
    for m in cat.all_morphisms():
        chains = rep.attempt("factorization-count", lambda: factorizations(cat, m),
                             lambda: f"factorizing {m.describe(ctx)}")
        if chains is None:
            continue
        want = math.factorial(m.label.delta)
        rep.check("factorization-count", len(chains) == want,
                  lambda: f"{m.describe(ctx)}: {len(chains)} factorizations "
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
SUITE_NAMES = tuple(_SUITES)


def run_suite(ctx: Context, name: str, algebra: str = "") -> VerificationReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    rep = VerificationReport(suite=name, algebra=algebra or repr(ctx.alg))
    start = time.perf_counter()
    _SUITES[name](ctx, rep)
    rep.seconds = time.perf_counter() - start
    return rep


def run_verify(ctx: Context, suites=None,
               algebra: str = "") -> list[VerificationReport]:
    """Run the selected suites (all of them by default), in a fixed order."""
    chosen = list(suites) if suites else list(SUITE_NAMES)
    for s in chosen:
        if s not in _SUITES:
            raise ValueError(f"unknown suite {s!r}; choose from {SUITE_NAMES}")
    return [run_suite(ctx, s, algebra=algebra) for s in chosen]
