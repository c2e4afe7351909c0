"""Acceptance gate: eleven end-to-end criteria, one visible line each.

Every timed criterion builds its contexts from scratch inside the timer so
the budget measures real work rather than session-level caching.  Criterion
10 reconstructs the category of wide subcategories by brute force straight
from the closure axioms (kernels, cokernels, extensions over all 2^9
subsets) and demands graph isomorphism with the exported one.
"""
import dataclasses
import json
import math
import time

import networkx as nx
import pytest

from conftest import CORPUS
from widecat.algebra import build_algebra
from widecat.category import (WideCategory, category_json,
                              enumerate_wide_subcategories)
from widecat.cli import main as cli_main
from widecat.context import build_context
from widecat.fields import field_from_name
from widecat.homology import ext1_dim, ext1_space, realize_extension
from widecat.modules import cokernel, decompose, hom_basis, hom_dim, kernel
from widecat.reduction import wide_of
from widecat.sequences import (count_signed_sequences, factorizations,
                               ordered_strigid_objects)
from widecat.taurigid import (CObject, candidate_keys, ext_projective_ids,
                              full_subcategory, wide_rank)
from widecat.textio import parse_algebra_file
from widecat.verify import run_suite

FILES = {"triangle": "triangle.alg", "a2": "a2.alg", "preproj": "preproj_a2.alg"}


def fresh_context(name, field=None):
    pres = parse_algebra_file(str(CORPUS / FILES[name]))
    if field is not None:
        pres = dataclasses.replace(pres, field=field_from_name(field))
    return build_context(build_algebra(pres))


@pytest.fixture(scope="module")
def ctxs():
    return {name: fresh_context(name) for name in FILES}


def announce(capsys, num, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:>2}] PASS  {detail}")


# -- 1: indecomposable census -----------------------------------------------


def test_criterion_01_module_census(capsys):
    t0 = time.perf_counter()
    ctx = fresh_context("triangle")
    dims = sorted(ctx.dims(i) for i in ctx.ind_ids())
    elapsed = time.perf_counter() - t0
    assert ctx.ind_count() == 9
    assert dims == sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
                           (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 1),
                           (1, 2, 1)])
    a, b = [i for i in ctx.ind_ids() if ctx.dims(i) == (1, 1, 1)]
    # same dimension vector, yet not isomorphic: the only maps between them
    # are the two scalar families below, and both have nonzero kernels
    for x, y in [(a, b), (b, a)]:
        maps = hom_basis(ctx.rep(x), ctx.rep(y))
        assert len(maps) <= 1
        assert all(not kernel(f)[0].is_zero for f in maps)
    assert elapsed < 5.0
    announce(capsys, 1, f"9 classes, twin (1,1,1) non-isomorphic, "
                        f"{elapsed:.2f}s < 5s")


# -- 2: the periodic translate orbit -----------------------------------------


def test_criterion_02_translate_orbit(ctxs, capsys):
    ctx = ctxs["triangle"]
    ids = {ctx.label(i): i for i in ctx.ind_ids()}
    assert ctx.tau(ids["S2"]) == ids["M8"]
    assert ctx.tau(ids["M8"]) == ids["S2"]
    assert ctx.tau_inv(ids["S2"]) == ids["M8"]
    assert ctx.tau_inv(ids["M8"]) == ids["S2"]
    assert ctx.dims(ids["M8"]) == (1, 0, 1)
    announce(capsys, 2, "tau swaps S2 <-> M8=(1,0,1) both ways")


# -- 3: three-way vanishing equivalence ---------------------------------------


def test_criterion_03_homological_lemmas(ctxs, capsys):
    total = 0
    for name, ctx in ctxs.items():
        rep = run_suite(ctx, "homological-lemmas", algebra=name)
        assert rep.ok, [f.check for f in rep.failures]
        total += rep.checks
    assert total == 174 + 20 + 36
    announce(capsys, 3, f"{total} ordered-pair equivalence checks, "
                        f"0 discrepancies, 3 algebras")


# -- 4: the reduction bijection ----------------------------------------------


def test_criterion_04_reduction_bijection(capsys):
    fresh = {name: fresh_context(name) for name in FILES}
    t0 = time.perf_counter()
    checks = {}
    for name, ctx in fresh.items():
        rep = run_suite(ctx, "bijection", algebra=name)
        assert rep.ok, [f.check for f in rep.failures]
        checks[name] = rep.checks
    elapsed = time.perf_counter() - t0
    assert checks["triangle"] == 721 and checks["a2"] == 95
    assert checks["preproj"] > 0
    checks = sum(checks.values())
    assert elapsed < 30.0
    announce(capsys, 4, f"{checks} bijection checks, {elapsed:.1f}s < 30s")


# -- 5 and 6: composition and associativity of reductions ---------------------


def test_criterion_05_reduction_composition(ctxs, capsys):
    checks = 0
    for name, ctx in ctxs.items():
        rep = run_suite(ctx, "composition", algebra=name)
        assert rep.ok, [f.check for f in rep.failures]
        checks += rep.checks
    announce(capsys, 5, f"{checks} compatible pairs: reduced image equals "
                        f"the union's image")


def test_criterion_06_reduction_associativity(ctxs, capsys):
    checks = 0
    for name, ctx in ctxs.items():
        rep = run_suite(ctx, "associativity", algebra=name)
        assert rep.ok, [f.check for f in rep.failures]
        checks += rep.checks
    announce(capsys, 6, f"{checks} pointwise two-step-vs-one-step "
                        f"agreements")


# -- 7: category axioms --------------------------------------------------------


def test_criterion_07_category_axioms(capsys):
    timings = []
    for name in FILES:
        ctx = fresh_context(name)
        t0 = time.perf_counter()
        for suite in ("category-axioms", "composition", "associativity"):
            rep = run_suite(ctx, suite, algebra=name)
            assert rep.ok, [f.check for f in rep.failures]
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        timings.append(f"{name} {elapsed:.1f}s")
    announce(capsys, 7, "identity/associativity/hom-emptiness axioms hold "
                        "(" + ", ".join(timings) + "; each < 60s)")


# -- 8: two morphisms exactly at Ext-projectives -------------------------------


def test_criterion_08_corank_one_hom_counts(ctxs, capsys):
    checked = 0
    for name, ctx in ctxs.items():
        cat = WideCategory(ctx)
        for w1 in cat.objects:
            targets = [w2 for w2 in cat.objects
                       if w2.members < w1.members
                       and cat.rank[w2.key] == cat.rank[w1.key] - 1]
            projs = ext_projective_ids(ctx, w1)
            doubled_targets = {wide_of(ctx, w1, CObject.of((p,))).members
                               for p in projs}
            for w2 in targets:
                n = len(cat.hom_set(w1, w2))
                expected = 2 if w2.members in doubled_targets else 1
                assert n == expected, (name, w1.members, w2.members, n)
                checked += 1
        # distinct rigid indecomposable modules have distinct images
        full = full_subcategory(ctx)
        mods = [k[1] for k in candidate_keys(ctx, full) if k[0] == "m"]
        images = [wide_of(ctx, full, CObject.of((i,))).members for i in mods]
        assert len(set(images)) == len(images)
    announce(capsys, 8, f"{checked} corank-1 inclusions: |Hom| = 2 exactly "
                        f"at Ext-projective images, else 1; module-image "
                        f"injectivity on 3 algebras")


# -- 9: counting ---------------------------------------------------------------


def test_criterion_09_counting(ctxs, capsys):
    wides = enumerate_wide_subcategories(ctxs["a2"])
    assert len(wides) == 5
    assert any(not w.members for w in wides)

    morphs = 0
    for name in ("a2", "triangle"):
        cat = WideCategory(ctxs[name])
        for m in cat.all_morphisms():
            fs = factorizations(cat, m)
            assert len(fs) == math.factorial(m.label.delta), (name, m.label)
            morphs += 1

    pairs = 0
    for name, ctx in ctxs.items():
        for w in enumerate_wide_subcategories(ctx):
            for t in range(wide_rank(ctx, w) + 1):
                n_seq = count_signed_sequences(ctx, w, t)
                assert n_seq == len(ordered_strigid_objects(ctx, w, t))
                pairs += 1
    tri = ctxs["triangle"]
    assert count_signed_sequences(tri, full_subcategory(tri), 3) == 108
    announce(capsys, 9, f"5 wide subcategories over the path algebra of A2; "
                        f"delta! factorizations on {morphs} morphisms; "
                        f"sequence counts match on {pairs} (W,t) pairs")


# -- 10: brute-force reconstruction of the morphism graph ----------------------


def _closure_requirements(ctx):
    """For each ordered pair (i, j): every indecomposable forced into a wide
    subcategory containing both, via kernels/cokernels of morphisms (basis
    elements and pencil samples of pairs) and middle terms of extensions."""
    fd = ctx.alg.field
    ids = list(ctx.ind_ids())
    req = {}
    for i in ids:
        for j in ids:
            need = set()
            basis = hom_basis(ctx.rep(i), ctx.rep(j))
            maps = list(basis)
            for a in range(len(basis)):
                for b in range(a + 1, len(basis)):
                    maps.append(basis[a].add(basis[b]))
                    maps.append(basis[a].add(basis[b].neg()))
                    maps.append(basis[a].add(basis[b].scale(fd.of(2))))
            for f in maps:
                for part in (kernel(f)[0], cokernel(f)[0]):
                    need.update(ctx.id_of(s) for s in decompose(part))
            ext = ext1_space(ctx.rep(i), ctx.rep(j))
            for h in ext.reps:
                middle, _, _ = realize_extension(ext, h)
                need.update(ctx.id_of(s) for s in decompose(middle))
            req[(i, j)] = need
    return req


def _brute_force_wides(ctx):
    """All subsets closed under the requirements.  Closure under the sampled
    morphisms is necessary for closure under all of them, so every true wide
    subcategory appears; matching the enumerated count proves both complete."""
    ids = list(ctx.ind_ids())
    req = _closure_requirements(ctx)
    out = []
    for bits in range(1 << len(ids)):
        s = frozenset(ids[k] for k in range(len(ids)) if bits >> k & 1)
        if all(req[(i, j)] <= s for i in s for j in s):
            out.append(s)
    return out


def _bf_ext_projectives(ctx, s):
    return {i for i in s
            if all(ext1_dim(ctx.rep(i), ctx.rep(j)) == 0 for j in s)}


def _graph_from_export(txt):
    doc = json.loads(txt)
    g = nx.DiGraph()
    for o in doc["objects"]:
        g.add_node("{" + ",".join(o["members"]) + "}", rank=o["rank"])
    for e in doc["edges"]:
        g.add_edge(e["source"], e["target"],
                   weight=2 if e["doubled"] else 1)
    return g


def test_criterion_10_graph_reproduction(ctxs, capsys):
    ctx = ctxs["triangle"]
    ids = {ctx.label(i): i for i in ctx.ind_ids()}

    bf_sets = _brute_force_wides(ctx)
    enumerated = {w.members for w in enumerate_wide_subcategories(ctx)}
    assert set(bf_sets) == enumerated and len(bf_sets) == 18

    bf_rank = {s: len(_bf_ext_projectives(ctx, s)) for s in bf_sets}
    nodes = [s for s in bf_sets if s]
    bf = nx.DiGraph()
    for s in nodes:
        bf.add_node(s, rank=bf_rank[s])
    doubles = 0
    for s in nodes:
        proj_targets = {
            frozenset(x for x in s if hom_dim(ctx.rep(p), ctx.rep(x)) == 0)
            for p in _bf_ext_projectives(ctx, s)}
        for t in nodes:
            if t < s and bf_rank[t] == bf_rank[s] - 1:
                doubled = t in proj_targets
                doubles += doubled
                bf.add_edge(s, t, weight=2 if doubled else 1)
    assert bf.number_of_edges() == 31 and doubles == 19

    exported = category_json(WideCategory(ctx, drop_zero_object=True))
    ex = _graph_from_export(exported)
    node_match = nx.algorithms.isomorphism.categorical_node_match("rank", -1)
    edge_match = nx.algorithms.isomorphism.categorical_edge_match("weight", 0)
    assert nx.is_isomorphic(bf, ex, node_match=node_match,
                            edge_match=edge_match)

    # concrete spot check: the image of S2 and its dimension vectors
    js2 = wide_of(ctx, full_subcategory(ctx), CObject.of((ids["S2"],)))
    assert {ctx.dims(i) for i in js2.members} == {(1, 0, 0), (0, 1, 1),
                                                  (1, 1, 1)}
    # doubled exactly at Ext-projective labels, for every exported edge
    name_to_set = {"{" + ",".join(ctx.label(i) for i in sorted(s)) + "}": s
                   for s in nodes}
    for e in json.loads(exported)["edges"]:
        src = name_to_set[e["source"]]
        assert e["doubled"] == (ids[e["label"]] in
                                _bf_ext_projectives(ctx, src))
    announce(capsys, 10, "closure sweep over 512 subsets reproduces all 18 "
                         "objects; 31-edge graph isomorphic to the export; "
                         "19 doubled edges exactly at Ext-projectives")


# -- 11: determinism -----------------------------------------------------------


def test_criterion_11_determinism(capsys, tmp_path):
    # byte-identical exports from two independently built contexts
    j1 = category_json(WideCategory(fresh_context("triangle"),
                                    drop_zero_object=True))
    j2 = category_json(WideCategory(fresh_context("triangle"),
                                    drop_zero_object=True))
    assert j1 == j2

    # byte-identical CLI output, cold cache then warm cache
    tri = str(CORPUS / FILES["triangle"])
    argv = ["wide-cat", "export", tri, "--format", "json",
            "--cache-dir", str(tmp_path), "--drop-zero-object"]
    assert cli_main(list(argv)) == 0
    out1 = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2 == j1

    # rationals versus a prime field: isomorphic morphism graphs
    gq = _graph_from_export(j1)
    jf = category_json(WideCategory(fresh_context("triangle", field="F101"),
                                    drop_zero_object=True))
    gf = _graph_from_export(jf)
    node_match = nx.algorithms.isomorphism.categorical_node_match("rank", -1)
    edge_match = nx.algorithms.isomorphism.categorical_edge_match("weight", 0)
    iso = nx.is_isomorphic(gq, gf, node_match=node_match,
                           edge_match=edge_match)
    assert iso
    announce(capsys, 11, f"repeated exports byte-identical (library and "
                         f"cached CLI); Q vs F101 graphs isomorphic: {iso}")
