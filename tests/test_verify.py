"""Theorem verification suites: green on the corpus, and able to catch bugs."""
import gc
import re
import weakref

import pytest

from widecat import homology, reduction, sequences, verify
from widecat.category import (WideCategory, enumerate_wide_subcategories,
                              identity_of)
from widecat.errors import BudgetExceeded, WidecatError
from widecat.modules import zero_morphism
from widecat.reduction import e_table
from widecat.taurigid import candidate_keys, full_subcategory, strigid_objects
from widecat.verify import (SUITE_NAMES, VerificationReport, run_suite,
                            run_verify)
from conftest import load_context

# Exhaustive check counts per algebra.  These are structural: they count
# ordered pairs, morphism pairs (sum of 2^delta), composable triples
# (sum of 3^delta), and so on, so any silent shrink of the sweep shows up.
EXPECTED_CHECKS = {
    "triangle": {
        "homological-lemmas": 174,
        "bijection": 721,
        "composition": 275,
        "associativity": 763,
        "category-axioms": 1956,
        "irreducible": 246,
        "dirrt-bijection": 37,
        "sequences": 906,
    },
    "a2": {
        "homological-lemmas": 20,
        "bijection": 95,
        "composition": 31,
        "associativity": 61,
        "category-axioms": 150,
        "irreducible": 33,
        "dirrt-bijection": 11,
        "sequences": 93,
    },
}


def test_all_suites_green_on_corpus(tri_ctx, a2_ctx, pre_ctx):
    for name, ctx in [("a2", a2_ctx), ("preproj", pre_ctx),
                      ("triangle", tri_ctx)]:
        reports = run_verify(ctx, algebra=name)
        assert [r.suite for r in reports] == list(SUITE_NAMES)
        for r in reports:
            assert r.ok, f"{name}/{r.suite}: {[f.check for f in r.failures]}"
            assert r.checks > 0


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_check_counts_triangle(tri_ctx, suite):
    rep = run_suite(tri_ctx, suite)
    assert rep.ok
    assert rep.checks == EXPECTED_CHECKS["triangle"][suite]


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_check_counts_a2(a2_ctx, suite):
    rep = run_suite(a2_ctx, suite)
    assert rep.ok
    assert rep.checks == EXPECTED_CHECKS["a2"][suite]


def test_homological_count_preproj(pre_ctx):
    # 4 indecomposables: 16 ordered pairs x 2 readings, then one translate
    # round trip each way for the two simples (non-projective and
    # non-injective alike here): 32 + 2 + 2
    assert run_suite(pre_ctx, "homological-lemmas").checks == 36


def test_unknown_suite_rejected(a2_ctx):
    with pytest.raises(ValueError):
        run_suite(a2_ctx, "nope")


def test_report_shapes(a2_ctx):
    rep = run_suite(a2_ctx, "bijection", algebra="a2")
    doc = rep.to_json()
    assert set(doc) == {"suite", "algebra", "checks", "failures", "seconds",
                        "ok"}
    assert doc["suite"] == "bijection" and doc["algebra"] == "a2"
    assert doc["ok"] is True and doc["failures"] == []
    line = rep.describe()
    assert "bijection" in line and "ok" in line and "checks" in line


def test_selected_suites_only(a2_ctx):
    reports = run_verify(a2_ctx, suites=["composition", "sequences"])
    assert [r.suite for r in reports] == ["composition", "sequences"]


def test_counterexample_text_is_built_only_on_failure():
    def never() -> str:
        raise AssertionError("text built for a passing check")

    rep = VerificationReport(suite="s", algebra="a")
    rep.check("passes", True, never)
    rep.check("fails", False, lambda: "the counterexample")
    rep.check("fails-without-text", False)
    assert rep.checks == 3
    assert [(f.check, f.counterexample) for f in rep.failures] == [
        ("fails", "the counterexample"), ("fails-without-text", "")]


def test_attempt_returns_the_value_and_adds_no_check():
    rep = VerificationReport(suite="s", algebra="a")
    assert rep.attempt("step", lambda: 7, lambda: "never built") == 7
    assert rep.checks == 0 and rep.ok


@pytest.mark.parametrize("exc, text", [
    (KeyError(("m", 3)), "KeyError: ('m', 3)"),
    (WidecatError("no image"), "WidecatError: no image"),
])
def test_attempt_records_one_failure_for_a_raised_error(exc, text):
    def compute():
        raise exc

    rep = VerificationReport(suite="s", algebra="a")
    assert rep.attempt("step", compute, lambda: "X=S1: image") is None
    assert rep.checks == 1
    assert [(f.check, f.counterexample) for f in rep.failures] == [
        ("step", f"X=S1: image raised {text}")]


def test_attempt_lets_budget_exceeded_through():
    def compute():
        raise BudgetExceeded("over budget")

    rep = VerificationReport(suite="s", algebra="a")
    with pytest.raises(BudgetExceeded):
        rep.attempt("step", compute, lambda: "X=S1")
    assert rep.checks == 0


def _in_mod_a(ctx, w) -> bool:
    """Whether the suites asked for a table of mod A itself: they pass the
    world `full_subcategory` returns.  The world a reduction by the zero
    object cuts out has the same members but is another object, so its
    tables stay intact."""
    return w is full_subcategory(ctx)


def _colliding(ctx, w, obj):
    """A reduction table of mod A with two summands sent to the same image."""
    table = dict(e_table(ctx, w, obj))
    if _in_mod_a(ctx, w) and obj.mods and len(table) >= 2:
        ks = sorted(table)
        table[ks[0]] = table[ks[1]]
    return table


def test_mutated_reduction_is_caught(a2_ctx, monkeypatch):
    """Planting a collision in the reduction table must turn the suite red."""
    monkeypatch.setattr(verify, "e_table", _colliding)
    rep = run_suite(a2_ctx, "bijection")
    assert not rep.ok
    assert any(f.check == "summand-map-injective" for f in rep.failures)
    assert all(f.counterexample for f in rep.failures)


def test_colliding_reduction_is_reported_not_raised(monkeypatch):
    """A collision can map an object onto one that is not support tau-rigid
    in the reduced world; every sweep reports that, none raises.  A fresh
    context keeps the corrupted tables out of the shared fixtures."""
    ctx = load_context("triangle.alg")
    monkeypatch.setattr(verify, "e_table", _colliding)
    for suite in ("bijection", "composition", "associativity"):
        rep = run_suite(ctx, suite)
        assert not rep.ok, suite
        assert all(f.counterexample for f in rep.failures), suite


def test_missing_table_key_is_reported_not_raised(tri_ctx, monkeypatch):
    """A table that lacks a summand turns the sweeps red; nothing escapes.

    Only tables of objects with two or more summands lose a key, so in
    associativity the one-step image by u + v fails while the two-step image
    through u alone is still defined."""

    def dropping(ctx, w, obj):
        table = dict(e_table(ctx, w, obj))
        if _in_mod_a(ctx, w) and obj.delta >= 2 and table:
            del table[max(table)]
        return table

    monkeypatch.setattr(verify, "e_table", dropping)
    expected = {"bijection": "object-image-formed",
                "composition": "two-step-target-matches",
                "associativity": "stepwise-image-defined"}
    for suite, check in expected.items():
        rep = run_suite(tri_ctx, suite)
        assert not rep.ok, suite
        assert any(f.check == check for f in rep.failures), suite
        assert all(f.counterexample for f in rep.failures), suite


def test_wrong_rank_drop_is_reported_not_raised(monkeypatch):
    """A rank drop that disagrees with the label count of one morphism turns
    the irreducible suite red, naming the morphism and both numbers."""
    ctx = load_context("a2.alg")
    cat = WideCategory(ctx)
    planted = next(m for m in cat.morphisms_from(cat.objects[0])
                   if m.label.delta == 1)
    real = WideCategory.corank
    monkeypatch.setattr(
        WideCategory, "corank",
        lambda self, m: real(self, m) + (m == planted))
    rep = run_suite(ctx, "irreducible")
    assert rep.checks == EXPECTED_CHECKS["a2"]["irreducible"]
    assert [f.check for f in rep.failures] == [
        "irreducible-iff-single-summand"]
    assert rep.failures[0].counterexample == (
        f"{planted.describe(ctx)}: rank drop 2, 1 label summands")


def test_failing_composition_is_reported_not_raised(monkeypatch):
    """A composition that raises turns the category-axioms suite red under
    the check that composed, naming the morphisms; nothing escapes, and
    every check is still counted."""
    ctx = load_context("a2.alg")
    cat = WideCategory(ctx)
    planted = next(m for m in cat.morphisms_from(cat.objects[0])
                   if m.label.delta == 1)
    real = WideCategory.compose

    def compose(self, b, a):
        if b == planted and a == identity_of(planted.source):
            raise WidecatError("planted composition failure")
        return real(self, b, a)

    monkeypatch.setattr(WideCategory, "compose", compose)
    rep = run_suite(ctx, "category-axioms")
    assert rep.checks == EXPECTED_CHECKS["a2"]["category-axioms"]
    checks = {f.check for f in rep.failures}
    assert "identity-right-neutral" in checks
    assert checks <= {"identity-right-neutral", "composition-associative"}
    right = next(f for f in rep.failures if f.check == "identity-right-neutral")
    assert right.counterexample == (
        f"{planted.describe(ctx)} composed after the source identity raised "
        "WidecatError: planted composition failure")
    assert all(planted.describe(ctx) in f.counterexample
               for f in rep.failures)


def _skip_f_class(monkeypatch):
    """f_U returns its input: cases I(a) and II(b) leave the reduced world."""
    monkeypatch.setattr(reduction, "_f_class", lambda ctx, u_ids, x, what: x)


def _skip_pullback(monkeypatch):
    """phi keeps the prefix of a sequence without pulling it back."""
    monkeypatch.setattr(sequences, "_phi", lambda ctx, w, keys: keys)


@pytest.mark.parametrize("name", ["triangle.alg", "a3.alg"])
def test_faulty_reduction_is_reported_not_raised(name, monkeypatch):
    """Every suite runs to its end; the bijection suite names the object it
    reduced by, and the error names the world it was reduced in."""
    ctx = load_context(name)
    _skip_f_class(monkeypatch)
    reports = run_verify(ctx)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    bijection = reports[SUITE_NAMES.index("bijection")]
    full = full_subcategory(ctx)
    names = [u.describe(ctx) for u in strigid_objects(ctx, full) if not u.is_zero]
    assert any(f.check == "reduction-defined"
               and f.counterexample.startswith(f"reducing by {u}:")
               and f"by {u} in {full.describe(ctx)}: " in f.counterexample
               for f in bijection.failures for u in names)
    for suite in ("associativity", "sequences"):
        assert not reports[SUITE_NAMES.index(suite)].ok, suite


@pytest.mark.parametrize("name", ["triangle.alg", "a3.alg"])
def test_faulty_phi_is_reported_not_raised(name, monkeypatch):
    """The sequences suite names the world and the entries of the sequence
    whose round trip raised."""
    ctx = load_context(name)
    _skip_pullback(monkeypatch)
    reports = run_verify(ctx)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    seqs = reports[SUITE_NAMES.index("sequences")]
    members = "{" + ",".join(ctx.label(i) for i in full_subcategory(ctx).key) + "}"
    assert any(f.check == "sequence-round-trip"
               and f.counterexample.startswith(f"inside {members}: ['")
               and "raised NotExceptional" in f.counterexample
               for f in seqs.failures)
    assert all(r.ok for r in reports if r.suite != "sequences")


def test_library_fault_in_a_cone_is_reported_not_raised(monkeypatch):
    """`cone_homology` hands the real `factor_through_inclusion` a zero
    inclusion, which a nonzero map cannot factor through: the library raises
    WidecatError, and every suite on the triangle runs to its end with the
    bijection suite naming the object it reduced by."""
    ctx = load_context("triangle.alg")
    real = homology.factor_through_inclusion
    monkeypatch.setattr(homology, "factor_through_inclusion", lambda incl, g: real(
        zero_morphism(incl.source, incl.target), g))
    reports = run_verify(ctx)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    bijection = reports[SUITE_NAMES.index("bijection")]
    full = full_subcategory(ctx)
    names = [u.describe(ctx) for u in strigid_objects(ctx, full) if not u.is_zero]
    assert any(f.check == "reduction-defined"
               and f.counterexample.startswith(f"reducing by {u}:")
               and "raised WidecatError: map " in f.counterexample
               and "does not factor through the inclusion" in f.counterexample
               for f in bijection.failures for u in names)


def _perp_without_tau(monkeypatch):
    """wide_of drops the Hom_W(X, tau_W U) = 0 condition of a module summand."""
    monkeypatch.setattr(reduction, "_perp", lambda ctx, w, key: frozenset(
        x for x in w.key if ctx.hom_dim(key[1], x) == 0))


def _shifted_key_unchanged(monkeypatch):
    """Case II(b) returns the shifted summand it was given."""
    stage = reduction._e_shift_stage
    monkeypatch.setattr(reduction, "_e_shift_stage", lambda ctx, w1, q_ids, key: (
        key if q_ids and key[0] == "s" else stage(ctx, w1, q_ids, key)))


@pytest.mark.parametrize("plant", [_perp_without_tau, _shifted_key_unchanged],
                         ids=["perp-without-tau", "case-IIb-unchanged"])
@pytest.mark.parametrize("name", ["triangle.alg", "a3.alg"])
def test_planted_reduction_fault_is_reported_not_raised(name, plant, monkeypatch):
    """Every suite runs to its end, several report the fault, and a failure
    names the world and the object reduced by."""
    ctx = load_context(name)
    plant(monkeypatch)
    reports = run_verify(ctx)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert sum(not r.ok for r in reports) >= 5
    full = full_subcategory(ctx)
    assert full.describe(ctx) == "mod"
    names = [u.describe(ctx) for u in strigid_objects(ctx, full) if not u.is_zero]
    assert any(f" by {u} in mod: " in f.counterexample
               for r in reports for f in r.failures for u in names)


def _cone_without_approximation(case):
    """The cone of `case` is taken over no approximation by the U-summands."""
    cone = reduction._cone_reduction

    def plant(monkeypatch):
        monkeypatch.setattr(
            reduction, "_cone_reduction",
            lambda ctx, w, w1, u_ids, target, h0, what: cone(
                ctx, w, w1, () if what == case else u_ids, target, h0, what))
    return plant


def _module_stage_drops_shifts(monkeypatch):
    """Case I hands every summand on to case II as a module, unshifted."""
    stage = reduction._e_module_stage
    monkeypatch.setattr(reduction, "_e_module_stage", lambda ctx, w, u_ids, key: (
        "m", stage(ctx, w, u_ids, key)[1]))


@pytest.mark.parametrize("plant, case", [
    (_cone_without_approximation("case I(b)"), "I(b)"),
    (_cone_without_approximation("case I(c)"), "I(c)"),
    (_module_stage_drops_shifts, "II(a)"),
], ids=["case-Ib-unapproximated", "case-Ic-unapproximated", "case-IIa-unshifted"])
@pytest.mark.parametrize("name", ["triangle.alg", "a3.alg"])
def test_planted_case_fault_names_world_object_and_summand(name, plant, case,
                                                           monkeypatch):
    """Every suite runs to its end, and a failure names the case that caught
    the fault with the summand, the object reduced by and the world."""
    ctx = load_context(name)
    full = full_subcategory(ctx)
    objects = {u.describe(ctx) for u in strigid_objects(ctx, full) if not u.is_zero}
    labels = {ctx.label(i) for i in ctx.ind_ids()}
    plant(monkeypatch)
    reports = run_verify(ctx)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    caught = re.compile(rf"reducing (\S+) by (\S+) in mod: case {re.escape(case)}: ")
    named = [m.groups() for r in reports for f in r.failures
             for m in [caught.search(f.counterexample)] if m]
    assert named
    assert all(x.removesuffix("[1]") in labels and u in objects for x, u in named)


def _phi_inverse_reduces_nothing(monkeypatch):
    """phi_inverse reads a table that maps every summand to itself."""
    monkeypatch.setattr(sequences, "e_table", lambda ctx, w, obj: {
        k: k for k in candidate_keys(ctx, w)})


def _f_returns_its_input(monkeypatch):
    """f_map_keys returns the summand keys it was given, not pulled back."""
    for module in (reduction, sequences):
        monkeypatch.setattr(module, "f_map_keys", lambda ctx, w, obj, keys: list(keys))


@pytest.mark.parametrize("plant", [_phi_inverse_reduces_nothing, _f_returns_its_input],
                         ids=["phi-inverse-unreduced", "f-map-keys-unpulled"])
@pytest.mark.parametrize("name", ["triangle.alg", "a3.alg"])
def test_planted_sequence_fault_is_reported_not_raised(name, plant, monkeypatch):
    """Every suite runs to its end, and the sequences suite reports a round
    trip that names its world and its entries."""
    ctx = load_context(name)
    worlds = ["{" + ",".join(ctx.label(i) for i in w.key) + "}"
              for w in enumerate_wide_subcategories(ctx)]
    plant(monkeypatch)
    reports = run_verify(ctx)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    seqs = reports[SUITE_NAMES.index("sequences")]
    assert any(f.check.endswith("round-trip")
               and f.counterexample.startswith(f"inside {m}: ['")
               for f in seqs.failures for m in worlds)


# Cluster-complex f-vectors (f_0 = 1 for the zero object, then faces by
# size) from Fomin-Zelevinsky, arXiv hep-th/0111053.  Every support
# tau-rigid T gives 2^|T| splits u + v (composition), 3^|T| splits
# u + v + x (associativity), and the bijection suite makes three checks per
# reducing object plus two per compatible object.
F_VECTORS = {
    "a3.alg": (1, 9, 21, 14),
    "a4.alg": (1, 14, 56, 84, 42),
    "d4.alg": (1, 16, 66, 100, 50),
}
SUITE_SIZES = {
    "a3.alg": {"composition": 215, "associativity": 595, "bijection": 565},
    "a4.alg": {"composition": 1597, "associativity": 6217,
               "bijection": 3785},
    "d4.alg": {"composition": 1897, "associativity": 7393,
               "bijection": 4493},
}


@pytest.mark.parametrize("name", sorted(F_VECTORS))
def test_suite_sizes_match_the_closed_forms(name):
    f = F_VECTORS[name]
    sums = {b: sum(fk * b ** k for k, fk in enumerate(f)) for b in (1, 2, 3)}
    closed = {"composition": sums[2], "associativity": sums[3],
              "bijection": 3 * sums[1] + 2 * sums[2]}
    assert closed == SUITE_SIZES[name]
    ctx = load_context(name)
    for suite, want in closed.items():
        rep = run_suite(ctx, suite)
        assert rep.ok and rep.checks == want, (suite, rep.checks)


def test_verify_leaves_no_reference_to_the_context():
    """The memos hold no object that refers back to the context, so the
    context dies with its last reference even with the cycle collector off."""
    ctx = load_context("triangle.alg")
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        assert all(r.ok for r in run_verify(ctx))
        del ctx
        assert ref() is None
    finally:
        gc.enable()
