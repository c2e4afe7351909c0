"""Signed exceptional sequences, the ordered-object correspondence, and
factorizations of morphisms into irreducibles."""
import math

import pytest

from widecat.category import (WideCategory, enumerate_wide_subcategories,
                              identity_of, morphism)
from widecat.errors import NotExceptional
from widecat.reduction import e_table, wide_of
from widecat.sequences import (count_signed_sequences,
                               enumerate_signed_sequences, factorizations,
                               is_signed_tau_exceptional,
                               ordered_strigid_objects, phi, phi_inverse)
from widecat.taurigid import (CObject, full_subcategory, strigid_objects,
                              wide_rank)
from widecat.verify import run_verify
from conftest import load_context


@pytest.fixture(scope="module")
def a2_labels(a2_ids):
    S1, P2, P1 = a2_ids["I1"], a2_ids["P2"], a2_ids["P1"]
    return {"mS1": CObject.of((S1,)), "mS2": CObject.of((P2,)),
            "mP1": CObject.of((P1,)), "sS2": CObject.of((), (P2,)),
            "sP1": CObject.of((), (P1,))}


def test_membership(a2_ctx, a2_labels):
    full = full_subcategory(a2_ctx)
    lb = a2_labels
    assert is_signed_tau_exceptional(a2_ctx, full, (lb["mS1"], lb["mS2"]))
    assert is_signed_tau_exceptional(a2_ctx, full, (lb["mS1"], lb["sS2"]))
    assert not is_signed_tau_exceptional(a2_ctx, full, (lb["mS2"], lb["mS2"]))
    assert is_signed_tau_exceptional(a2_ctx, full, ())


def test_phi_oracles(a2_ctx, a2_labels):
    full = full_subcategory(a2_ctx)
    lb = a2_labels
    assert phi(a2_ctx, full, (lb["mS1"], lb["mS2"])) == (lb["mP1"], lb["mS2"])
    assert phi(a2_ctx, full, (lb["mS1"], lb["sS2"])) == (lb["mS1"], lb["sS2"])
    assert phi(a2_ctx, full, (lb["mS1"],)) == (lb["mS1"],)


def test_phi_rejects_non_sequences(a2_ctx, a2_ids, a2_labels):
    full = full_subcategory(a2_ctx)
    with pytest.raises(NotExceptional):
        phi(a2_ctx, full, (a2_labels["mS2"], a2_labels["mS2"]))
    with pytest.raises(NotExceptional):
        phi_inverse(a2_ctx, full,
                    (CObject.of((a2_ids["P1"], a2_ids["P2"])),
                     a2_labels["mS1"]))


def test_invalid_input_raises_on_every_call(a2_ctx, a2_labels):
    """Failures are not memoized: a repeated bad call raises again."""
    full = full_subcategory(a2_ctx)
    bad_seq = (a2_labels["mS2"], a2_labels["mS2"])
    bad_ordered = (a2_labels["mS1"], a2_labels["mS2"])  # tau S1 = S2
    for _ in range(2):
        with pytest.raises(NotExceptional):
            phi(a2_ctx, full, bad_seq)
        with pytest.raises(NotExceptional):
            phi_inverse(a2_ctx, full, bad_ordered)


def test_phi_checks_each_entry_it_computes(a2_ctx, a2_ids, a2_labels):
    """A one-entry sequence outside a proper world, and an entry of two
    summands, are rejected on every call."""
    full = full_subcategory(a2_ctx)
    w = wide_of(a2_ctx, full, a2_labels["mS1"])
    outside = next(CObject.of((i,)) for i in a2_ctx.ind_ids()
                   if i not in w.members)
    two = CObject.of((a2_ids["P1"], a2_ids["P2"]))
    for _ in range(2):
        with pytest.raises(NotExceptional):
            phi(a2_ctx, w, (outside,))
        with pytest.raises(NotExceptional):
            phi(a2_ctx, full, (two,))
    inside = CObject.of((min(w.members),))
    assert phi(a2_ctx, w, (inside,)) == (inside,)


def test_round_trips_and_counts_a2(a2_ctx):
    full = full_subcategory(a2_ctx)
    expected = {0: 1, 1: 5, 2: 10}
    for t in range(0, 3):
        seqs = enumerate_signed_sequences(a2_ctx, full, t)
        ords = ordered_strigid_objects(a2_ctx, full, t)
        assert len(seqs) == len(ords) == expected[t]
        assert count_signed_sequences(a2_ctx, full, t) == expected[t]
        for s in seqs:
            assert phi_inverse(a2_ctx, full, phi(a2_ctx, full, s)) == s
        for o in ords:
            assert phi(a2_ctx, full, phi_inverse(a2_ctx, full, o)) == o


def test_counts_triangle(tri_ctx):
    full = full_subcategory(tri_ctx)
    expected = {0: 1, 1: 11, 2: 54, 3: 108}
    for t in range(0, 4):
        n_seq = count_signed_sequences(tri_ctx, full, t)
        assert n_seq == len(ordered_strigid_objects(tri_ctx, full, t))
        assert n_seq == expected[t]


def test_factorizations_a2(a2_ctx, a2_ids, a2_labels):
    cat = WideCategory(a2_ctx)
    full = full_subcategory(a2_ctx)
    m = morphism(a2_ctx, full, CObject.of((a2_ids["P1"], a2_ids["P2"])))
    fs = factorizations(cat, m)
    assert len(fs) == 2
    chains = {tuple(g.label for g in f.chain) for f in fs}
    # one route passes through the image of S2, applying S2 first then S1
    assert (a2_labels["mS2"], a2_labels["mS1"]) in chains
    assert all(len(f.chain) == 2 and all(cat.is_irreducible(g) for g in f.chain)
               for f in fs)
    # chains compose in application order: first arrow leaves the source
    for f in fs:
        assert f.chain[0].source == full
        assert f.chain[0].target == f.chain[1].source
        assert f.chain[1].target == m.target


def test_factorizations_trivial_cases(a2_ctx, a2_labels):
    cat = WideCategory(a2_ctx)
    full = full_subcategory(a2_ctx)
    ident = identity_of(full)
    fs = factorizations(cat, ident)
    assert len(fs) == 1 and fs[0].chain == ()
    irr = morphism(a2_ctx, full, a2_labels["mS2"])
    fs = factorizations(cat, irr)
    assert len(fs) == 1 and len(fs[0].chain) == 1


def test_factorization_counts_are_factorials(tri_ctx):
    """A morphism with d label summands factors into irreducibles in d! ways."""
    full = full_subcategory(tri_ctx)
    cat = WideCategory(tri_ctx)
    checked = 0
    for u in strigid_objects(tri_ctx, full):
        if u.delta > 2:
            continue
        m = morphism(tri_ctx, full, u)
        assert len(factorizations(cat, m)) == math.factorial(u.delta)
        checked += 1
    assert checked == 1 + 11 + 27  # delta 0, 1, 2


def test_factorization_chains_triangle(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    cat = WideCategory(tri_ctx)
    m = morphism(tri_ctx, full, CObject.of((tri_ids["S2"], tri_ids["I2"])))
    fs = factorizations(cat, m)
    chains = {tuple(tri_ctx.label(g.label.mods[0]) for g in f.chain)
              for f in fs}
    assert chains == {("S2", "I1"), ("I2", "S2")}


def test_sequences_relative_to_a_smaller_world(tri_ctx, tri_ids):
    from widecat.reduction import wide_of
    w = wide_of(tri_ctx, full_subcategory(tri_ctx), CObject.of((tri_ids["S2"],)))
    seqs = enumerate_signed_sequences(tri_ctx, w, 1)
    # five: each of the two Ext-projectives twice (module and shift), the
    # non-projective member once
    assert len(seqs) == 5
    assert count_signed_sequences(tri_ctx, w, 1) == 5


def _reference_phi_inverse(ctx, w, ordered):
    """phi_inverse from its definition: reduce the earlier summands by the
    last one through its table, then repeat inside the reduced world."""
    keys = [v.keys()[0] for v in ordered]
    out = []
    while keys:
        last = CObject.from_keys(keys[-1:])
        table = e_table(ctx, w, last)
        keys = [table[k] for k in keys[:-1]]
        w = wide_of(ctx, w, last)
        out.insert(0, last)
    return tuple(out)


def _ordered_objects(ctx, w):
    """Every ordered support tau-rigid object of W with two or more summands."""
    return [tpl for t in range(2, wide_rank(ctx, w) + 1)
            for tpl in ordered_strigid_objects(ctx, w, t)]


@pytest.mark.parametrize("name", ["triangle.alg", "preproj_a2.alg"])
def test_memoized_phi_inverse_matches_the_definition(name):
    """On a fresh context, so that the first call fills the memo and the
    second reads it back."""
    ctx = load_context(name)
    checked = 0
    for w in enumerate_wide_subcategories(ctx):
        for tpl in _ordered_objects(ctx, w):
            want = _reference_phi_inverse(ctx, w, tpl)
            assert phi_inverse(ctx, w, tpl) == want
            assert phi_inverse(ctx, w, tpl) == want
            assert phi(ctx, w, want) == tpl
            checked += 1
    assert checked > 0


def test_phi_memos_stay_lean():
    """After every suite on A4, each world's phi and phi_inverse memos hold
    at most one entry per ordered object (or sequence, as many) of two or
    more summands, made of the shared interned single-summand objects and
    their shared keys, not copies."""
    ctx = load_context("a4.alg")
    assert all(r.ok for r in run_verify(ctx))
    memos = 0
    for w in enumerate_wide_subcategories(ctx):
        bound = len(_ordered_objects(ctx, w))
        for kind in ("phi", "phi_inverse"):
            memo = ctx.memo.get((kind, w.key), {})
            assert len(memo) <= bound
            for entries, value in memo.items():
                for e in entries + value:
                    shared = CObject.from_keys(e.keys())
                    assert e.delta == 1 and e is shared
                    assert e.keys()[0] is shared.keys()[0]
            memos += bool(memo)
    assert memos > 0
