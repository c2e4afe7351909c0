"""The reduction bijection E, its inverse F, and subcategory images J."""
import re

import pytest

from widecat.category import enumerate_wide_subcategories
from widecat import reduction
from widecat.errors import (CaseDispatchError, NotCompatible, NotInImage,
                            NotSupportTauRigid)
from widecat.reduction import e_map, e_map_key, e_table, f_map, wide_of
from widecat.taurigid import (CObject, ZERO_COBJECT, candidate_keys,
                              ext_projective_ids, full_subcategory,
                              is_support_tau_rigid, keys_compatible,
                              strigid_objects, wide_rank)
from conftest import load_context


def members(w):
    return set(w.members)


def test_single_summand_images(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    S2, P3, I2, P1 = (tri_ids[k] for k in ("S2", "P3", "I2", "P1"))
    I1, P2, I3, M8, M7 = (tri_ids[k] for k in ("I1", "P2", "I3", "M8", "M7"))
    assert members(wide_of(tri_ctx, full, CObject.of((S2,)))) == {I1, P2, I3}
    assert members(wide_of(tri_ctx, full, CObject.of((I2,)))) == {S2, M8, P1, I3, M7}
    assert members(wide_of(tri_ctx, full, CObject.of((), (P3,)))) == {I1, S2, I2}
    assert members(wide_of(tri_ctx, full, CObject.of((P1,)))) == {S2, P3, P2}


def test_zero_object_reduces_to_the_ambient(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    assert members(wide_of(tri_ctx, full, ZERO_COBJECT)) == members(full)
    w = wide_of(tri_ctx, full, CObject.of((tri_ids["S2"],)))
    assert members(wide_of(tri_ctx, w, ZERO_COBJECT)) == members(w)


def test_e_map_case_dispatch(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    S2, P3, I2, P1, P2 = (tri_ids[k] for k in ("S2", "P3", "I2", "P1", "P2"))
    I1, I3, M7 = tri_ids["I1"], tri_ids["I3"], tri_ids["M7"]
    # module not generated by the reducer: the torsion-free quotient
    assert e_map_key(tri_ctx, full, CObject.of((S2,)), ("m", I2)) == ("m", I1)
    assert e_map_key(tri_ctx, full, CObject.of((S2,)), ("m", M7)) == ("m", I3)
    # module generated by the reducer: lands in the shifted part
    assert e_map_key(tri_ctx, full, CObject.of((P1,)), ("m", I2)) == ("s", P3)
    # shifted class against a module reducer
    assert e_map_key(tri_ctx, full, CObject.of((S2,)), ("s", P3)) == ("s", P2)
    assert e_map_key(tri_ctx, full, CObject.of((S2,)), ("s", P1)) == ("s", I3)
    # shifted class against a shifted reducer
    assert e_map_key(tri_ctx, full, CObject.of((), (P3,)), ("s", P2)) == ("s", S2)
    # module against a shifted reducer is untouched
    assert e_map_key(tri_ctx, full, CObject.of((), (P3,)), ("m", S2)) == ("m", S2)


def test_e_additive_extension(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    got = e_map(tri_ctx, full, CObject.of((tri_ids["S2"],)),
                CObject.of((tri_ids["I2"],)))
    assert got == CObject.of((tri_ids["I1"],))
    # delta is preserved on a two-summand object
    x = CObject.of((tri_ids["I2"],), (tri_ids["P3"],))
    out = e_map(tri_ctx, full, CObject.of((tri_ids["S2"],)), x)
    assert out.delta == 2
    assert out == CObject.of((tri_ids["I1"],), (tri_ids["P2"],))


def test_e_by_zero_is_identity(tri_ctx):
    full = full_subcategory(tri_ctx)
    for obj in strigid_objects(tri_ctx, full):
        assert e_map(tri_ctx, full, ZERO_COBJECT, obj) == obj


def test_table_is_a_bijection_with_inverse(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    u = CObject.of((tri_ids["S2"],))
    tbl = e_table(tri_ctx, full, u)
    target = wide_of(tri_ctx, full, u)
    assert len(tbl) == 5
    assert set(tbl.values()) == set(candidate_keys(tri_ctx, target))
    for k, v in tbl.items():
        back = f_map(tri_ctx, full, u, CObject.from_keys([v]))
        assert back == CObject.from_keys([k])


def test_f_inverts_e_on_composites(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    u = CObject.of((tri_ids["P1"],))
    x = CObject.of((tri_ids["P2"], tri_ids["P3"]))  # u + x is a stilting sum
    y = e_map(tri_ctx, full, u, x)
    assert y.delta == 2
    assert f_map(tri_ctx, full, u, y) == x


def test_e_map_agrees_with_e_map_key_summand_by_summand(tri_ctx):
    """e_map reads the table; E applied key by key is the oracle, F the inverse."""
    full = full_subcategory(tri_ctx)
    objs = strigid_objects(tri_ctx, full)
    pairs = 0
    for u in objs:
        for x in objs:
            try:
                ux = u.union(x)
            except NotSupportTauRigid:
                continue
            if not is_support_tau_rigid(tri_ctx, full, ux):
                continue
            y = e_map(tri_ctx, full, u, x)
            assert y == CObject.from_keys(
                [e_map_key(tri_ctx, full, u, k) for k in x.keys()])
            assert f_map(tri_ctx, full, u, y) == x
            pairs += 1
    # every support tau-rigid T splits into (u, x) in 2^|T| ways
    assert pairs == sum(2 ** t.delta for t in objs)


def test_ext_projective_ids_hands_out_a_fresh_list(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    tri_ctx.memo.pop(("extproj", full.key), None)
    want = sorted(tri_ids[k] for k in ("P1", "P2", "P3"))
    for _ in range(2):  # the computing call, then the memo hit
        got = ext_projective_ids(tri_ctx, full)
        assert got == want
        got.clear()


def test_f_zero_is_identity(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    y = CObject.of((tri_ids["S2"],))
    assert f_map(tri_ctx, full, ZERO_COBJECT, y) == y


def test_composition_of_reductions(tri_ctx, tri_ids):
    """Reducing twice lands in the subcategory cut out by the union."""
    full = full_subcategory(tri_ctx)
    w1 = wide_of(tri_ctx, full, CObject.of((tri_ids["S2"],)))
    lhs = wide_of(tri_ctx, w1, CObject.of((tri_ids["I1"],)))
    rhs = wide_of(tri_ctx, full, CObject.of((tri_ids["S2"], tri_ids["I2"])))
    assert members(lhs) == members(rhs)


def test_rank_drops_by_delta(tri_ctx):
    from widecat.taurigid import wide_rank
    full = full_subcategory(tri_ctx)
    for obj in strigid_objects(tri_ctx, full):
        w = wide_of(tri_ctx, full, obj)
        assert wide_rank(tri_ctx, w) == 3 - obj.delta


def test_errors(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    S2, I1, P3 = tri_ids["S2"], tri_ids["I1"], tri_ids["P3"]
    u = CObject.of((S2,))
    with pytest.raises(NotSupportTauRigid):
        wide_of(tri_ctx, full, CObject.of((S2, I1)))
    with pytest.raises(NotSupportTauRigid):
        wide_of(tri_ctx, full, CObject.of((tri_ids["I3"],)))
    with pytest.raises(NotSupportTauRigid, match="object I1\\+S2 is not"):
        e_table(tri_ctx, full, CObject.of((S2, I1)))
    with pytest.raises(NotCompatible):
        e_map(tri_ctx, full, u, CObject.of((I1,)))  # the union is not rigid
    with pytest.raises(NotCompatible):
        e_map(tri_ctx, full, u, u)  # overlapping summands
    with pytest.raises(NotInImage,
                       match="summand P3 is not a reduction image for S2 in mod"):
        f_map(tri_ctx, full, u, CObject.of((P3,)))  # not in the target


@pytest.mark.parametrize("patched, obj, key, failure", [
    ("_f_class", "S2", ("m", "I2"),
     "case I(a): result left the reduced world"),
    ("_strip_and_register", "I2", ("m", "I1"),
     "case I(b): result is not Ext-projective in the reduced world"),
    ("_strip_and_register", "S2", ("s", "I2"),
     "case I(c): result is not Ext-projective in the reduced world"),
])
def test_case_dispatch_errors_name_world_object_and_summand(
        tri_ctx, tri_ids, monkeypatch, patched, obj, key, failure):
    """A case whose result leaves the reduced world raises, and the error
    names the world, the reducing object and the summand by their labels,
    and holds them as its fields."""
    w = wide_of(tri_ctx, full_subcategory(tri_ctx), CObject.of((), (tri_ids["P3"],)))
    assert w.describe(tri_ctx) == "{I1,I2,S2}"
    u = tri_ids[obj]
    # the reducing class itself is never in the world it cuts out
    monkeypatch.setattr(reduction, patched, lambda *args: u)
    kind, label = key
    shown = label + ("[1]" if kind == "s" else "")
    with pytest.raises(CaseDispatchError, match="^" + re.escape(
            f"reducing {shown} by {obj} in {{I1,I2,S2}}: {failure}") + "$") as info:
        e_map_key(tri_ctx, w, CObject.of((u,)), (kind, tri_ids[label]))
    assert (info.value.world, info.value.obj, info.value.key) == \
        (w, CObject.of((u,)), (kind, tri_ids[label]))


def test_a2_reductions(a2_ctx, a2_ids):
    full = full_subcategory(a2_ctx)
    p1, p2, s1 = a2_ids["P1"], a2_ids["P2"], a2_ids["I1"]
    assert members(wide_of(a2_ctx, full, CObject.of((s1,)))) == {p1}
    assert members(wide_of(a2_ctx, full, CObject.of((p2,)))) == {s1}
    assert members(wide_of(a2_ctx, full, CObject.of((p1,)))) == {p2}
    assert members(wide_of(a2_ctx, full, CObject.of((), (p1,)))) == {p2}
    assert e_map_key(a2_ctx, full, CObject.of((p2,)), ("m", p1)) == ("m", s1)
    assert e_map_key(a2_ctx, full, CObject.of((), (p2,)), ("m", s1)) == ("m", s1)


def test_preprojective_reductions(pre_ctx, pre_ids):
    full = full_subcategory(pre_ctx)
    assert members(wide_of(pre_ctx, full, CObject.of((pre_ids["S1"],)))) == {pre_ids["P1"]}
    assert members(wide_of(pre_ctx, full, CObject.of((pre_ids["P1"],)))) == {pre_ids["S2"]}


@pytest.mark.parametrize("name", ["triangle.alg", "preproj_a2.alg"])
def test_table_domain_is_the_pairwise_rule(name):
    """A table's keys, read from the clique set, are the candidates of C(W)
    outside the object that are compatible with each of its summands."""
    ctx = load_context(name)
    for w in enumerate_wide_subcategories(ctx):
        keys = candidate_keys(ctx, w)
        for obj in strigid_objects(ctx, w):
            own = obj.keys()
            expected = [k for k in keys if k not in own
                        and all(keys_compatible(ctx, w, k, o) for o in own)]
            assert list(e_table(ctx, w, obj)) == expected


def _perp_by_filter(ctx, w, t) -> frozenset:
    """The members of W that `wide_of` keeps for T, filtered from the
    definition: no maps from any summand, and Hom_W(X, tau_W U) = 0 for each
    module summand U, read through tau in mod A and through Ext^1 into
    Gen(X) & W elsewhere."""
    def no_maps_into_tau(x, u):
        if len(w.members) == ctx.ind_count():
            return ctx.tau(u) is None or ctx.hom_dim(x, ctx.tau(u)) == 0
        gen = ctx.gen_members(frozenset([x])) & w.members
        return all(ctx.ext1(u, g) == 0 for g in gen)

    return frozenset(x for x in w.members
                     if all(ctx.hom_dim(u, x) == 0 for u in t.mods + t.shifts)
                     and all(no_maps_into_tau(x, u) for u in t.mods))


@pytest.mark.parametrize("name", ["triangle.alg", "a4.alg", "d4.alg",
                                  "preproj_a3.alg"])
def test_wide_of_and_rank_match_a_brute_force_filter(name):
    ctx = load_context(name)
    for w in enumerate_wide_subcategories(ctx):
        objs = strigid_objects(ctx, w)
        assert wide_rank(ctx, w) == max(t.delta for t in objs)
        for t in objs:
            assert wide_of(ctx, w, t).members == _perp_by_filter(ctx, w, t), \
                (w.describe(ctx), t.describe(ctx))
