"""The category of wide subcategories: objects, Hom-sets, composition, graph."""
import hashlib
import json
import sys
import tracemalloc

import pytest

from widecat.algebra import QuiverPresentation, build_algebra
from widecat.category import (WideCategory, WideCatMorphism, _irreducible_edges,
                              category_dot, category_json,
                              enumerate_wide_subcategories, identity_of, morphism)
from widecat.context import build_context
from widecat.errors import NotComposable, NotSupportTauRigid
from widecat.reduction import wide_of
from widecat.sequences import enumerate_signed_sequences
from widecat.textio import parse_algebra_text
from widecat.taurigid import (CObject, WideSubcategory, ZERO_COBJECT,
                              full_subcategory, stilting_objects, strigid_objects)
from widecat.verify import run_verify
from conftest import CORPUS, load_context

sys.path.insert(0, str(CORPUS.parent / "bench"))

import gen  # noqa: E402


@pytest.fixture(scope="module")
def tri_cat(tri_ctx):
    return WideCategory(tri_ctx)


def wide_by_members(cat, mem):
    return next(w for w in cat.objects if w.members == frozenset(mem))


def test_object_census(tri_ctx, tri_ids, tri_cat):
    wides = enumerate_wide_subcategories(tri_ctx)
    assert len(wides) == 18
    by_rank = {}
    for w in wides:
        by_rank.setdefault(tri_cat.rank[w.key], []).append(w)
    assert {r: len(v) for r, v in by_rank.items()} == {3: 1, 2: 8, 1: 8, 0: 1}

    P1, P2, P3 = tri_ids["P1"], tri_ids["P2"], tri_ids["P3"]
    I1, I2, I3 = tri_ids["I1"], tri_ids["I2"], tri_ids["I3"]
    S2, N, M8 = tri_ids["S2"], tri_ids["M7"], tri_ids["M8"]
    rank2 = {frozenset(s) for s in [
        {M8, P2}, {P1, M8, I3, N, S2}, {I2, M8}, {P2, I3, I1},
        {P3, P1, I2}, {P3, P2, S2}, {P3, M8, I1}, {S2, I2, I1}]}
    assert {w.members for w in by_rank[2]} == rank2
    # rank one: exactly one wide per indecomposable that admits one; the
    # non-brick with a two-dimensional endomorphism ring never appears alone
    rank1 = {frozenset([i]) for i in [P1, P2, P3, I1, I2, I3, S2, M8]}
    assert {w.members for w in by_rank[1]} == rank1
    # enumeration is sorted from the whole category down to zero
    assert wides[0].members == frozenset(tri_ids.values())
    assert wides[-1].members == frozenset()


def test_enumeration_is_memoized(tri_ctx):
    a = enumerate_wide_subcategories(tri_ctx)
    b = enumerate_wide_subcategories(tri_ctx)
    assert a == b


def test_hom_counting(tri_ids, tri_cat):
    full = wide_by_members(tri_cat, tri_ids.values())
    js2 = wide_by_members(tri_cat, {tri_ids["P2"], tri_ids["I3"], tri_ids["I1"]})
    jp3 = wide_by_members(tri_cat, {tri_ids["S2"], tri_ids["I2"], tri_ids["I1"]})
    assert len(tri_cat.hom_set(full, js2)) == 1
    # a target reachable both by a module and by its shift has two morphisms
    homs = tri_cat.hom_set(full, jp3)
    assert len(homs) == 2
    assert {m.label for m in homs} == {CObject.of((tri_ids["P3"],)),
                                       CObject.of((), (tri_ids["P3"],))}
    # endomorphisms are only the identity, and larger targets are unreachable
    assert tri_cat.hom_set(full, full) == [identity_of(full)]
    assert tri_cat.hom_set(js2, full) == []
    assert tri_cat.hom_set(js2, jp3) == []


def test_hom_sets_target_the_enumerated_objects(tri_ctx, tri_cat):
    """Each morphism of a Hom-set carries the enumerated object as its
    target, not a copy of it."""
    objects = {w.key: w for w in enumerate_wide_subcategories(tri_ctx)}
    for m in tri_cat.all_morphisms():
        assert m.target is objects[m.target.key]


def test_composition_and_identities(tri_ctx, tri_ids, tri_cat):
    full = wide_by_members(tri_cat, tri_ids.values())
    js2 = wide_by_members(tri_cat, {tri_ids["P2"], tri_ids["I3"], tri_ids["I1"]})
    m_s2 = morphism(tri_ctx, full, CObject.of((tri_ids["S2"],)))
    assert m_s2.target == js2
    m_s1 = morphism(tri_ctx, js2, CObject.of((tri_ids["I1"],)))
    comp = tri_cat.compose(m_s1, m_s2)
    assert comp.label == CObject.of((tri_ids["S2"], tri_ids["I2"]))
    assert comp.source == full and comp.target == m_s1.target
    ident = identity_of(full)
    assert ident.label == ZERO_COBJECT
    assert tri_cat.compose(m_s2, ident) == m_s2
    assert tri_cat.compose(identity_of(js2), m_s2) == m_s2


def test_compose_rejects_mismatched_ends(tri_ctx, tri_ids, tri_cat):
    full = wide_by_members(tri_cat, tri_ids.values())
    m_s2 = morphism(tri_ctx, full, CObject.of((tri_ids["S2"],)))
    m_p1 = morphism(tri_ctx, full, CObject.of((tri_ids["P1"],)))
    with pytest.raises(NotComposable):
        tri_cat.compose(m_s2, m_s2)
    with pytest.raises(NotComposable) as err:
        tri_cat.compose(m_s2, m_p1)
    assert f"{m_s2.describe(tri_ctx)} after {m_p1.describe(tri_ctx)}" in str(err.value)


def test_morphism_rejects_bad_label(tri_ctx, tri_ids, tri_cat):
    full = wide_by_members(tri_cat, tri_ids.values())
    with pytest.raises(NotSupportTauRigid):
        morphism(tri_ctx, full, CObject.of((tri_ids["I3"],)))


def test_irreducibility(tri_ctx, tri_ids, tri_cat):
    full = wide_by_members(tri_cat, tri_ids.values())
    js2 = wide_by_members(tri_cat, {tri_ids["P2"], tri_ids["I3"], tri_ids["I1"]})
    m_s2 = morphism(tri_ctx, full, CObject.of((tri_ids["S2"],)))
    m_s1 = morphism(tri_ctx, js2, CObject.of((tri_ids["I1"],)))
    assert tri_cat.is_irreducible(m_s2)
    assert not tri_cat.is_irreducible(tri_cat.compose(m_s1, m_s2))
    assert not tri_cat.is_irreducible(identity_of(full))


def test_irreducible_edge_table(tri_ctx, tri_ids):
    """Every edge of the dropped-zero morphism graph, against a hand-derived
    table: (source members, target members, label, doubled)."""
    P1, P2, P3 = tri_ids["P1"], tri_ids["P2"], tri_ids["P3"]
    I1, I2, I3 = tri_ids["I1"], tri_ids["I2"], tri_ids["I3"]
    S2, N, M8 = tri_ids["S2"], tri_ids["M7"], tri_ids["M8"]
    catd = WideCategory(tri_ctx, drop_zero_object=True)
    assert len(catd.objects) == 17

    def nm(mem):
        return "{" + ",".join(tri_ctx.label(i) for i in sorted(mem)) + "}"

    expected = set()
    full_m = sorted(tri_ids.values())
    for lab, tgt, dbl in [
        ("P1", {P3, P2, S2}, True), ("P2", {P3, M8, I1}, True),
        ("P3", {S2, I2, I1}, True), ("I1", {I2, M8}, False),
        ("I2", {P1, M8, I3, N, S2}, False), ("S2", {P2, I3, I1}, False),
        ("M7", {M8, P2}, False), ("M8", {P3, P1, I2}, False),
    ]:
        expected.add((nm(full_m), nm(tgt), lab, dbl))
    for src, rows in [
        ({M8, P2}, [("M8", {P2}, True), ("P2", {M8}, True)]),
        ({I2, M8}, [("I2", {M8}, True), ("M8", {I2}, True)]),
        ({P1, M8, I3, N, S2}, [("P1", {S2}, True), ("M7", {M8}, True),
                               ("S2", {I3}, False), ("M8", {P1}, False)]),
        ({P2, I3, I1}, [("P2", {I1}, True), ("I3", {P2}, True),
                        ("I1", {I3}, False)]),
        ({P3, P1, I2}, [("P3", {I2}, True), ("P1", {P3}, True),
                        ("I2", {P1}, False)]),
        ({P3, P2, S2}, [("P3", {S2}, True), ("P2", {P3}, True),
                        ("S2", {P2}, False)]),
        ({P3, M8, I1}, [("P3", {I1}, True), ("M8", {P3}, True),
                        ("I1", {M8}, False)]),
        ({S2, I2, I1}, [("S2", {I1}, True), ("I2", {S2}, True),
                        ("I1", {I2}, False)]),
    ]:
        for lab, tgt, dbl in rows:
            expected.add((nm(src), nm(tgt), lab, dbl))
    raw = _irreducible_edges(catd)
    edges = {(e["source"], e["target"], e["label"], e["doubled"]) for e in raw}
    assert len(edges) == len(raw) == 31
    assert sum(1 for e in raw if e["doubled"]) == 19
    assert edges == expected


def test_exports_are_deterministic(tri_ctx):
    catd = WideCategory(tri_ctx, drop_zero_object=True)
    j1 = category_json(catd)
    j2 = category_json(WideCategory(tri_ctx, drop_zero_object=True))
    assert j1 == j2
    doc = json.loads(j1)
    assert set(doc) == {"objects", "morphisms", "edges"}
    assert len(doc["objects"]) == 17
    assert len(doc["edges"]) == 31
    assert all(set(o) == {"key", "members", "rank"} for o in doc["objects"])
    assert all(set(m) == {"source", "target", "label", "irreducible"}
               for m in doc["morphisms"])
    # morphism endpoints index into the object list
    for m in doc["morphisms"]:
        assert 0 <= m["source"] < 17 and 0 <= m["target"] < 17
    dot = category_dot(catd)
    assert dot.count("->") == 31
    assert "black:white:black" in dot  # doubled edges render as parallel pair


# E6 is left out: parsing and re-dumping its two 32 MB exports takes
# seconds and hundreds of MB.
@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.alg")
                                        if p.name != "e6.alg"))
def test_export_is_its_own_sorted_indented_dump(name):
    """The export is the text `json.dumps(..., indent=2, sort_keys=True)`
    gives for it, with morphisms ordered by (source, target, compact label)."""
    ctx = load_context(name)
    for drop in (False, True):
        out = category_json(WideCategory(ctx, drop_zero_object=drop))
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        order = [(m["source"], m["target"], json.dumps(m["label"], sort_keys=True))
                 for m in doc["morphisms"]]
        assert order == sorted(set(order))


# sha256 of `category_json` keeping and dropping the zero object, from the
# export as `json.dumps` wrote it whole; export-d5 seed 1 is the benchmark's
# D5 path algebra over F101 (2,805,027 and 1,958,231 bytes).
EXPORT_SHA256 = {
    "d4.alg": ("4cceb7404942a0ae35810b6f6461cf3565dcb4ae0c3cdf51be7946a346ac2f3e",
               "b171dcecb87533449b8d4830acce44df16ebb38ecc6c31170c900ef4cca4b80a"),
    "export-d5": ("0b31e9834712fdbb422e695f8f232c48ff32475e6c63190f945da0a51ad8990c",
                  "d5c071821b194ead97d0c2beb19ee02b188bb3a9ee87535d929f939538ed1ada"),
}


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_export_bytes_are_pinned(name):
    if name == "export-d5":
        text = gen.generate(name, 1)
        ctx = build_context(build_algebra(parse_algebra_text(text)))
    else:
        ctx = load_context(name)
    digests = tuple(
        hashlib.sha256(category_json(WideCategory(ctx, drop_zero_object=drop))
                       .encode()).hexdigest()
        for drop in (False, True))
    assert digests == EXPORT_SHA256[name]


def test_small_algebra_censuses(a2_ctx):
    assert len(enumerate_wide_subcategories(a2_ctx)) == 5
    ss = build_context(build_algebra(QuiverPresentation(vertices=("1", "2"))))
    assert len(enumerate_wide_subcategories(ss)) == 4
    triv = build_context(build_algebra(QuiverPresentation(vertices=("1",))))
    ct = WideCategory(triv)
    assert len(ct.objects) == 2
    et = _irreducible_edges(ct)
    assert len(et) == 1 and et[0]["doubled"]


def test_preprojective_a3_census():
    # Pi(A_n) has (n+1)! wide subcategories (Mizuno, arXiv 1304.0667)
    ctx = load_context("preproj_a3.alg")
    assert ctx.ind_count() == 12
    assert len(enumerate_wide_subcategories(ctx)) == 24


# (dim, indecomposables, s-tau-rigid incl. 0, s-tau-tilting, wide, complete
# signed sequences, complete sequences with no shifted entry).  Positive
# roots; cluster-complex faces (Fomin-Zelevinsky, arXiv hep-th/0111053);
# Coxeter-Catalan numbers for tilting and wide (Ingalls-Thomas, arXiv
# math/0612219); n! times Catalan for signed sequences, and (n+1)^(n-1) for
# A_n, 2(n-1)^n for D_n exceptional sequences (Obaid et al., arXiv 1307.7573).
LADDER_CENSUS = {
    "a3.alg": (6, 6, 45, 14, 14, 84, 16),
    "a4.alg": (10, 10, 197, 42, 42, 1008, 125),
    "a5.alg": (15, 15, 903, 132, 132, 15840, 1296),
    "d4.alg": (7, 12, 233, 50, 50, 1200, 162),
    "d5.alg": (10, 20, 1233, 182, 182, 21840, 2048),
}


@pytest.mark.parametrize("name", sorted(LADDER_CENSUS))
def test_ladder_census_matches_the_literature(name):
    ctx = load_context(name)
    full = full_subcategory(ctx)
    seqs = enumerate_signed_sequences(ctx, full, ctx.alg.n)
    assert (ctx.alg.dim, ctx.ind_count(), len(strigid_objects(ctx, full)),
            len(stilting_objects(ctx, full)), len(enumerate_wide_subcategories(ctx)),
            len(seqs), sum(not any(e.shifts for e in s) for s in seqs)
            ) == LADDER_CENSUS[name]


# (dim, indecomposables, s-tau-rigid incl. 0, s-tau-tilting, wide) of the
# rungs whose sequences are too many to list here.  E6: 36 positive roots,
# 833 Coxeter-Catalan (Ingalls-Thomas, arXiv math/0612219).  Pi(A4):
# 5! = 120 support tau-tilting objects (Mizuno, arXiv 1304.0667); its 40
# indecomposables and 541 objects are regression pins.
RUNG_CENSUS = {
    "e6.alg": (13, 36, 8177, 833, 833),
    "preproj_a4.alg": (20, 40, 541, 120, 120),
}


@pytest.mark.parametrize("name", sorted(RUNG_CENSUS))
def test_rung_census(name):
    ctx = load_context(name)
    full = full_subcategory(ctx)
    assert (ctx.alg.dim, ctx.ind_count(), len(strigid_objects(ctx, full)),
            len(stilting_objects(ctx, full)), len(enumerate_wide_subcategories(ctx))
            ) == RUNG_CENSUS[name]


def test_preprojective_census(pre_ctx, pre_ids):
    wides = enumerate_wide_subcategories(pre_ctx)
    assert len(wides) == 6
    mem = {w.members for w in wides}
    assert mem == {frozenset(), frozenset(pre_ids.values()),
                   frozenset([pre_ids["P1"]]), frozenset([pre_ids["P2"]]),
                   frozenset([pre_ids["S1"]]), frozenset([pre_ids["S2"]])}


def _worlds(value):
    """The `WideSubcategory`s a memo value holds: itself, the entries of a
    tuple, or the ends of the morphisms in a Hom-set table."""
    if isinstance(value, WideSubcategory):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _worlds(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _worlds(v)
    elif isinstance(value, WideCatMorphism):
        yield from (value.source, value.target)


def test_one_world_object_per_member_set():
    """After every suite, the memos hold one `WideSubcategory` per member set,
    and the morphisms they hold carry no instance dict."""
    ctx = load_context("a4.alg")
    assert all(r.ok for r in run_verify(ctx))
    kinds = ("wide_of", "world", "wides", "homs")
    values = [v for k, v in ctx.memo.items()
              if (k[0] if isinstance(k, tuple) else k) in kinds]
    worlds = [w for v in values for w in _worlds(v)]
    assert len(worlds) > 1000
    assert len({id(w) for w in worlds}) == len({w.members for w in worlds}) == 42
    full = full_subcategory(ctx)
    assert full is wide_of(ctx, full, ZERO_COBJECT) is enumerate_wide_subcategories(ctx)[0]
    cat = WideCategory(ctx)
    assert not any(hasattr(m, "__dict__") for m in cat.all_morphisms())


def test_category_json_peaks_below_three_times_its_output():
    cat = WideCategory(load_context("d4.alg"))
    tracemalloc.start()
    try:
        out = category_json(cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(out)
