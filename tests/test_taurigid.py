"""Torsion functors, rigidity predicates, approximations, completions."""
import copy
import itertools
import pickle

import pytest

from widecat.category import enumerate_wide_subcategories
from widecat.errors import NotSupportTauRigid, WidecatError
from widecat.modules import hom_basis, image_span, is_isomorphic
from widecat.taurigid import (CObject, WideSubcategory, ZERO_COBJECT,
                              bongartz_complement, candidate_keys, cover_in,
                              ext_projective_ids, full_subcategory,
                              is_support_tau_rigid, keys_compatible,
                              minimal_right_approximation, perp_tau_members,
                              split_projective_part, stilting_objects,
                              strigid_objects, torsion_free_quotient,
                              trace_submodule, wide_rank)
from widecat.verify import _link
from conftest import load_context


def _homs(ctx, u_ids, x):
    """Bases of Hom(A_u, x) for the classes u_ids, in increasing order."""
    return {u: hom_basis(ctx.rep(u), x) for u in sorted(u_ids)}


def test_trace_and_quotient_oracles(tri_ctx, tri_ids):
    # the torsion part of (1,1,0) at S2 is S2; the free quotient is S1
    x = tri_ctx.rep(tri_ids["I2"])
    t, incl = trace_submodule(x, _homs(tri_ctx, [tri_ids["S2"]], x))
    assert t.dims == (0, 1, 0)
    assert incl.is_injective()
    q, proj = torsion_free_quotient(x, _homs(tri_ctx, [tri_ids["S2"]], x))
    assert tri_ctx.id_of(q) == tri_ids["I1"]
    assert proj.is_surjective()
    # trace of P3 = S3 inside P2 is the socle; quotient S2
    p2 = tri_ctx.rep(tri_ids["P2"])
    q2, _ = torsion_free_quotient(p2, _homs(tri_ctx, [tri_ids["P3"]], p2))
    assert tri_ctx.id_of(q2) == tri_ids["S2"]


def test_quotient_is_identity_without_maps(tri_ctx, tri_ids):
    x = tri_ctx.rep(tri_ids["I1"])
    q, proj = torsion_free_quotient(x, _homs(tri_ctx, [tri_ids["P3"]], x))
    assert is_isomorphic(q, x) and proj.is_invertible()


def test_canonical_sequence_exact_everywhere(tri_ctx):
    """0 -> t(X) -> X -> f(X) -> 0 for every (generator, X) pair."""
    for u in tri_ctx.ind_ids():
        for x in tri_ctx.ind_ids():
            xm = tri_ctx.rep(x)
            t, incl = trace_submodule(xm, {u: tri_ctx.hom(u, x)})
            q, proj = torsion_free_quotient(xm, {u: tri_ctx.hom(u, x)})
            assert incl.is_injective() and proj.is_surjective()
            assert proj.compose(incl).is_zero
            for v in range(3):
                assert t.dims[v] + q.dims[v] == xm.dims[v]
            # membership in the generated class == full trace
            assert (x in tri_ctx.gen_members(frozenset([u]))) == (t.dims == xm.dims)


@pytest.mark.parametrize("name", ["triangle.alg", "a3.alg"])
def test_gen_membership_is_a_surjective_approximation(name):
    """x lies in Gen(u) exactly when its minimal add(u)-approximation is onto."""
    ctx = load_context(name)
    for u in ctx.ind_ids():
        gen = ctx.gen_members(frozenset([u]))
        for x in ctx.ind_ids():
            f, _ = minimal_right_approximation(ctx, {u: ctx.hom(u, x)}, ctx.rep(x))
            assert (x in gen) == f.is_surjective()


@pytest.mark.parametrize("name", ["triangle.alg", "a3.alg"])
def test_gen_members_of_pairs_are_the_full_traces(name):
    """x lies in Gen(u + u') exactly when the images of all maps from u and
    u' fill x at every vertex."""
    ctx = load_context(name)
    for pair in itertools.combinations(ctx.ind_ids(), 2):
        gen = ctx.gen_members(frozenset(pair))
        for x in ctx.ind_ids():
            span = image_span(ctx.rep(x), [f for u in pair for f in ctx.hom(u, x)])
            full = all(len(span[v]) == d for v, d in enumerate(ctx.dims(x)))
            assert (x in gen) == full


def test_gen_members_oracle(tri_ctx, tri_ids):
    got = tri_ctx.gen_members(frozenset([tri_ids["P2"]]))
    assert got == frozenset({tri_ids["P2"], tri_ids["S2"]})
    assert tri_ids["P3"] not in got


def test_support_rigidity_oracles(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    S2, P3, I2, I1 = (tri_ids[k] for k in ("S2", "P3", "I2", "I1"))
    P2 = tri_ids["P2"]
    assert is_support_tau_rigid(tri_ctx, full, CObject.of((S2,), (P3,)))
    # the shifted part must avoid maps into the module part: Hom(P2, S2) != 0
    assert not is_support_tau_rigid(tri_ctx, full, CObject.of((S2,), (P2,)))
    assert is_support_tau_rigid(tri_ctx, full, CObject.of((S2, I2)))
    assert not is_support_tau_rigid(tri_ctx, full, CObject.of((S2, I1)))
    assert is_support_tau_rigid(tri_ctx, full, ZERO_COBJECT)
    # a repeated summand is rejected at construction: objects are basic
    with pytest.raises(NotSupportTauRigid):
        CObject((P3,), (P3,))


def test_cobject_of_normalises_and_keeps_the_overlap_check():
    """`of` skips the constructor's checks but builds the same object."""
    built = CObject.of((3, 1, 3), (2,))
    assert built == CObject((1, 3), (2,))
    assert hash(built) == hash(CObject((1, 3), (2,)))
    assert CObject.from_keys([("s", 2), ("m", 3), ("m", 1)]) == built
    with pytest.raises(NotSupportTauRigid):
        CObject.of((1,), (1,))
    with pytest.raises(NotSupportTauRigid):
        CObject((3, 1), ())
    assert not hasattr(built, "__dict__")


def test_equal_objects_are_one_interned_instance():
    """Every constructor, copy and pickle returns the one object per summand
    set, so equality and hashing are identity."""
    obj = CObject((1, 3), (2,))
    same = [CObject.of((3, 1, 3), (2,)),
            CObject.from_keys([("s", 2), ("m", 3), ("m", 1)]),
            CObject.of((1,)).union(CObject.of((3,), (2,))),
            copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]
    assert all(o is obj for o in same)
    assert ZERO_COBJECT is CObject.of() is CObject() is CObject.from_keys(())
    assert "__eq__" not in vars(CObject) and "__hash__" not in vars(CObject)
    assert obj.keys() == (("m", 1), ("m", 3), ("s", 2))
    with pytest.raises(AttributeError):
        obj.mods = (1,)


@pytest.mark.parametrize("build, text", [
    (lambda: CObject((3, 1), ()), "module summands must be distinct (basic object)"),
    (lambda: CObject((1, 1), ()), "module summands must be distinct (basic object)"),
    (lambda: CObject((), (2, 2)), "shifted summands must be distinct (basic object)"),
    (lambda: CObject((1,), (1,)), "a class appears both plain and shifted"),
    (lambda: CObject.of((1, 2), (2,)), "a class appears both plain and shifted"),
    (lambda: CObject.from_keys([("m", 4), ("s", 4)]),
     "a class appears both plain and shifted"),
    (lambda: CObject.of((1,)).union(CObject.of((), (1,))),
     "summand sets overlap; union is not basic"),
    (lambda: CObject.of((1,)).union(CObject.of((1, 2))),
     "summand sets overlap; union is not basic"),
])
def test_cobject_rejections_keep_their_text(build, text):
    """A rejected summand set raises on every attempt: none is kept."""
    for _ in range(2):
        with pytest.raises(NotSupportTauRigid) as info:
            build()
        assert str(info.value) == text


def test_cobject_class_ids_have_no_fixed_width():
    big = CObject.of((600, 3), (601,))
    assert (big.mods, big.shifts, big.delta) == ((3, 600), (601,), 3)
    assert big.keys() == (("m", 3), ("m", 600), ("s", 601))
    assert big is CObject.from_keys(big.keys()) is CObject((3, 600), (601,))
    assert big.union(CObject.of((), (1000,))).shifts == (601, 1000)
    with pytest.raises(NotSupportTauRigid):
        CObject.of((600,), (600,))
    with pytest.raises(NotSupportTauRigid):
        big.union(CObject.of((), (600,)))


def test_strigid_order_is_delta_mods_shifts():
    """On A4, each world's objects come sorted by (delta, mods, shifts), and
    the strigid memo maps each to its position, in that order."""
    ctx = load_context("a4.alg")
    for w in enumerate_wide_subcategories(ctx):
        objs = strigid_objects(ctx, w)
        order = [(o.delta, o.mods, o.shifts) for o in objs]
        assert order == sorted(set(order))
        assert list(ctx.memo[("strigid", w.key)].items()) == \
            [(o, k) for k, o in enumerate(objs)]


def test_rigidity_is_not_the_brick_condition(tri_ctx, tri_ids):
    """(1,1,1) with simple top is a brick but not rigid; (1,2,1) is the
    converse: rigid with a two-dimensional endomorphism ring."""
    full = full_subcategory(tri_ctx)
    keys = set(candidate_keys(tri_ctx, full))
    assert ("m", tri_ids["I3"]) not in keys
    assert ("m", tri_ids["M7"]) in keys
    assert len(keys) == 11  # 8 module classes + 3 shifted projectives


def test_strigid_census(tri_ctx, a2_ctx, pre_ctx):
    for ctx, total, by_delta in [
        (tri_ctx, 57, {0: 1, 1: 11, 2: 27, 3: 18}),
        (a2_ctx, 11, {0: 1, 1: 5, 2: 5}),
        (pre_ctx, 13, {0: 1, 1: 6, 2: 6}),
    ]:
        objs = strigid_objects(ctx, full_subcategory(ctx))
        assert len(objs) == total
        tally = {}
        for o in objs:
            tally[o.delta] = tally.get(o.delta, 0) + 1
        assert tally == by_delta
        assert len({(o.mods, o.shifts) for o in objs}) == total  # all basic, distinct


def test_stilting_objects_have_full_size(tri_ctx, a2_ctx, pre_ctx):
    for ctx in (tri_ctx, a2_ctx, pre_ctx):
        full = full_subcategory(ctx)
        st = stilting_objects(ctx, full)
        assert all(o.delta == ctx.alg.n for o in st)
        assert wide_rank(ctx, full) == ctx.alg.n
    assert len(stilting_objects(a2_ctx, full_subcategory(a2_ctx))) == 5
    assert len(stilting_objects(tri_ctx, full_subcategory(tri_ctx))) == 18
    assert len(stilting_objects(pre_ctx, full_subcategory(pre_ctx))) == 6


def test_a2_pairs(a2_ctx, a2_ids):
    """The five two-summand objects of the one-arrow algebra."""
    P1, P2, S1 = a2_ids["P1"], a2_ids["P2"], a2_ids["I1"]
    objs = strigid_objects(a2_ctx, full_subcategory(a2_ctx))
    pairs = {(o.mods, o.shifts) for o in objs if o.delta == 2}
    assert pairs == {
        ((P1, P2), ()), ((P1, S1), ()), ((P2,), (P1,)),
        ((S1,), (P2,)), ((), (P1, P2))}


def test_ext_projectives(tri_ctx, tri_ids, a2_ctx, a2_ids):
    full = full_subcategory(tri_ctx)
    assert set(ext_projective_ids(tri_ctx, full)) == {
        tri_ids["P1"], tri_ids["P2"], tri_ids["P3"]}
    # the class generated by the projective-injective of the one-arrow algebra
    gen = a2_ctx.gen_members(frozenset([a2_ids["P1"]]))
    assert gen == frozenset({a2_ids["P1"], a2_ids["I1"]})
    assert set(ext_projective_ids(a2_ctx, WideSubcategory(gen))) == gen


def test_minimal_right_approximation(tri_ctx, tri_ids):
    x = tri_ctx.rep(tri_ids["I2"])
    f, used = minimal_right_approximation(tri_ctx, _homs(tri_ctx, [tri_ids["P1"]], x), x)
    assert used == [tri_ids["P1"]]
    assert f.is_surjective()
    # no maps at all: the approximation is from the zero module
    i1 = tri_ctx.rep(tri_ids["I1"])
    f0, used0 = minimal_right_approximation(tri_ctx, _homs(tri_ctx, [tri_ids["P3"]], i1), i1)
    assert used0 == [] and f0.source.is_zero
    # approximation property: every map from the source class factors through f
    from widecat import linalg
    fd = tri_ctx.alg.field
    p1 = tri_ctx.rep(tri_ids["P1"])
    composed = [f.compose(e).flatten() for e in hom_basis(p1, f.source)]
    rank = linalg.rank(fd, composed)
    for g in hom_basis(p1, x):
        assert linalg.rank(fd, composed + [g.flatten()]) == rank


def test_cover_in_requires_membership(a2_ctx, a2_ids):
    i1, p2 = a2_ctx.rep(a2_ids["I1"]), a2_ctx.rep(a2_ids["P2"])
    covered, used = cover_in(a2_ctx, _homs(a2_ctx, [a2_ids["P1"], a2_ids["P2"]], i1), i1)
    assert covered.is_surjective()
    with pytest.raises(WidecatError):
        cover_in(a2_ctx, _homs(a2_ctx, [a2_ids["I1"]], p2), p2)


def test_bongartz_complements(tri_ctx, tri_ids, a2_ctx, a2_ids):
    full = full_subcategory(tri_ctx)
    assert set(bongartz_complement(tri_ctx, [tri_ids["P1"]])) == {
        tri_ids["P2"], tri_ids["P3"]}
    assert bongartz_complement(a2_ctx, [a2_ids["I1"]]) == (a2_ids["P1"],)
    b = bongartz_complement(tri_ctx, [tri_ids["S2"]])
    assert len(b) == 2 and tri_ids["S2"] not in b
    completed = CObject.of(tuple(sorted(b + (tri_ids["S2"],))))
    assert is_support_tau_rigid(tri_ctx, full, completed)
    with pytest.raises(NotSupportTauRigid):
        bongartz_complement(tri_ctx, [tri_ids["I3"]])  # not rigid


def test_bongartz_completion_is_tau_tilting_for_every_rigid(tri_ctx):
    full = full_subcategory(tri_ctx)
    module_keys = [k for k in candidate_keys(tri_ctx, full) if k[0] == "m"]
    for _, u in module_keys:
        b = bongartz_complement(tri_ctx, [u])
        total = tuple(sorted(set(b) | {u}))
        assert len(total) == 3
        assert is_support_tau_rigid(tri_ctx, full, CObject.of(total))


def test_perp_tau_members(tri_ctx, tri_ids):
    perp = perp_tau_members(tri_ctx, [tri_ids["S2"]])
    # everything with no maps into (1,0,1)
    assert tri_ids["S2"] in perp and tri_ids["P3"] not in perp
    assert tri_ids["M8"] not in perp


def test_split_projective_part(tri_ctx, tri_ids, a2_ctx, a2_ids):
    projs = (tri_ids["P1"], tri_ids["P2"], tri_ids["P3"])
    assert split_projective_part(tri_ctx, projs) == (tuple(sorted(projs)), ())
    split, nonsplit = split_projective_part(a2_ctx, (a2_ids["I1"], a2_ids["P1"]))
    assert split == (a2_ids["P1"],)
    assert nonsplit == (a2_ids["I1"],)


def test_keys_compatible_is_order_insensitive(tri_ctx, tri_ids):
    full = full_subcategory(tri_ctx)
    keys = candidate_keys(tri_ctx, full)
    for a in keys:
        for b in keys:
            assert keys_compatible(tri_ctx, full, a, b) == \
                keys_compatible(tri_ctx, full, b, a)


def test_cobject_helpers(tri_ids):
    o = CObject.of((tri_ids["S2"],), (tri_ids["P3"],))
    assert o.delta == 2 and not o.is_zero
    assert set(o.keys()) == {("m", tri_ids["S2"]), ("s", tri_ids["P3"])}
    assert CObject.from_keys(o.keys()) == o
    u = o.union(CObject.of((tri_ids["P2"],)))
    assert u.delta == 3
    assert ZERO_COBJECT.is_zero and ZERO_COBJECT.delta == 0


def _pairwise_rigid(ctx, w, obj):
    """Support tau-rigidity in C(W) straight from the definition: modules in
    W, shifts Ext-projective in W, every pair of summands compatible."""
    if not set(obj.mods) <= w.members:
        return False
    for p in obj.shifts:
        if p not in w.members or any(ctx.ext1(p, j) for j in w.members):
            return False
    keys = obj.keys()
    return all(keys_compatible(ctx, w, a, b)
               for n, a in enumerate(keys) for b in keys[n:])


def _basic_key_sets(ctx, size):
    """Every basic object of at most `size` summands over all classes."""
    keys = [(kind, i) for i in ctx.ind_ids() for kind in "ms"]
    for k in range(size + 1):
        for chosen in itertools.combinations(keys, k):
            ids = [i for _, i in chosen]
            if len(set(ids)) == len(ids):
                yield CObject.from_keys(chosen)


@pytest.mark.parametrize("which", ["tri_ctx", "pre_ctx"])
def test_rigidity_membership_matches_the_pairwise_definition(request, which):
    ctx = request.getfixturevalue(which)
    seen = {"outside W": 0, "shift not Ext-projective": 0, "not rigid": 0,
            "rigid": 0}
    for w in enumerate_wide_subcategories(ctx):
        projs = set(ext_projective_ids(ctx, w))
        for obj in _basic_key_sets(ctx, wide_rank(ctx, w) + 1):
            want = _pairwise_rigid(ctx, w, obj)
            assert is_support_tau_rigid(ctx, w, obj) == want, (w.key, obj)
            if want:
                seen["rigid"] += 1
            elif not set(obj.mods) <= w.members:
                seen["outside W"] += 1
            elif not set(obj.shifts) <= projs:
                seen["shift not Ext-projective"] += 1
            else:
                seen["not rigid"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("which", ["tri_ctx", "pre_ctx"])
def test_link_index_matches_a_brute_filter(request, which):
    ctx = request.getfixturevalue(which)
    full = full_subcategory(ctx)
    objs = strigid_objects(ctx, full)
    link = _link(ctx)
    assert set(link) == set(objs)
    for s in objs:
        brute = [x for x in objs
                 if not set(x.mods + x.shifts) & set(s.mods + s.shifts)
                 and _pairwise_rigid(ctx, full,
                                     CObject.from_keys(x.keys() + s.keys()))]
        assert list(link[s]) == brute, s
    assert sum(map(len, link.values())) == sum(2 ** o.delta for o in objs)
