"""The category of wide subcategories: objects, Hom-sets, composition, graph."""
import json

import pytest

from widecat.algebra import QuiverPresentation, build_algebra
from widecat.category import (WideCategory, _irreducible_edges, category_dot,
                              category_json, enumerate_wide_subcategories,
                              identity_of, morphism)
from widecat.context import build_context
from widecat.errors import NotComposable, NotSupportTauRigid
from widecat.taurigid import CObject, ZERO_COBJECT
from conftest import load_context


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
    with pytest.raises(NotComposable):
        tri_cat.compose(m_s2, m_s2)


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


def test_preprojective_census(pre_ctx, pre_ids):
    wides = enumerate_wide_subcategories(pre_ctx)
    assert len(wides) == 6
    mem = {w.members for w in wides}
    assert mem == {frozenset(), frozenset(pre_ids.values()),
                   frozenset([pre_ids["P1"]]), frozenset([pre_ids["P2"]]),
                   frozenset([pre_ids["S1"]]), frozenset([pre_ids["S2"]])}
