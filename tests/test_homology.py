"""Presentations, the translate tau, Ext^1, and two-term complex Hom."""
import pytest

from widecat.homology import (ar_translate, ar_translate_inverse, ext1_dim,
                              ext1_space, minimal_presentation,
                              realize_extension, shifted_hom_dim)
from widecat.modules import decompose, is_isomorphic
from widecat.textio import load_cached_context, store_cache
from conftest import CORPUS, load_context


def test_minimal_presentation_vertices(tri_ctx, tri_ids):
    # S2 is presented by P3 -> P2; P1 is projective so its relation term is 0
    pres = minimal_presentation(tri_ctx.rep(tri_ids["S2"]))
    assert pres.cplx.p0.dims == tri_ctx.dims(tri_ids["P2"])
    assert pres.cplx.p1.dims == tri_ctx.dims(tri_ids["P3"])
    pres_p = minimal_presentation(tri_ctx.rep(tri_ids["P1"]))
    assert pres_p.cplx.p1.is_zero
    assert pres_p.cplx.p0.dims == (1, 1, 1)


def test_minimal_presentation_a2(a2_ctx, a2_ids):
    pres = minimal_presentation(a2_ctx.rep(a2_ids["I1"]))  # the source simple
    assert pres.cplx.p0.dims == a2_ctx.dims(a2_ids["P1"])
    assert pres.cplx.p1.dims == a2_ctx.dims(a2_ids["P2"])


def test_presentation_dimension_bookkeeping(tri_ctx):
    # dim P0 = dim X + dim(kernel of the cover) vertexwise, for every class
    for i in tri_ctx.ind_ids():
        x = tri_ctx.rep(i)
        pres = tri_ctx.pres(i)
        omega = pres.omega  # kernel of the cover
        for v in range(3):
            assert pres.cplx.p0.dims[v] == x.dims[v] + omega.dims[v]


def test_translate_table(tri_ctx, tri_ids):
    expect = {"S2": "M8", "M8": "S2", "I1": "M7", "I2": "P2",
              "I3": "P1", "M7": "P3"}
    for src, tgt in expect.items():
        assert tri_ctx.tau(tri_ids[src]) == tri_ids[tgt]
    for p in ["P1", "P2", "P3"]:
        assert tri_ctx.tau(tri_ids[p]) is None
    # inverse table mirrors it
    for src, tgt in expect.items():
        assert tri_ctx.tau_inv(tri_ids[tgt]) == tri_ids[src]
    for i in ["I1", "I2", "I3"]:
        assert tri_ctx.tau_inv(tri_ids[i]) is None


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.alg")))
def test_translate_tables_match_recomputation(tmp_path, name):
    """Every class's tau and tau^-1 entries are the class of a freshly
    computed translate (None when it is zero), and a cached copy of the
    context keeps the ids, dimension vectors, labels and tables."""
    ctx = load_context(name)
    for i in ctx.ind_ids():
        for table, translate in ((ctx.tau, ar_translate),
                                 (ctx.tau_inv, ar_translate_inverse)):
            pieces = decompose(translate(ctx.rep(i)))
            assert len(pieces) <= 1, (name, ctx.label(i))
            want = ctx.id_of(pieces[0]) if pieces else None
            assert not pieces or want is not None, (name, ctx.label(i))
            assert table(i) == want, (name, ctx.label(i), translate.__name__)
    store_cache(str(tmp_path), ctx)
    back = load_cached_context(ctx.alg, str(tmp_path))
    assert back.ind_count() == ctx.ind_count()
    assert back.projective_ids == ctx.projective_ids
    assert back.injective_ids == ctx.injective_ids
    for i in ctx.ind_ids():
        assert back.id_of(ctx.rep(i)) == i
        assert ((back.dims(i), back.label(i), back.tau(i), back.tau_inv(i))
                == (ctx.dims(i), ctx.label(i), ctx.tau(i), ctx.tau_inv(i)))


def test_translate_on_raw_modules(tri_ctx, tri_ids):
    t = ar_translate(tri_ctx.rep(tri_ids["S2"]))
    assert is_isomorphic(t, tri_ctx.rep(tri_ids["M8"]))
    back = ar_translate_inverse(t)
    assert is_isomorphic(back, tri_ctx.rep(tri_ids["S2"]))
    assert ar_translate(tri_ctx.rep(tri_ids["P2"])).is_zero


def test_translate_a2(a2_ctx, a2_ids):
    assert a2_ctx.tau(a2_ids["I1"]) == a2_ids["P2"]
    assert a2_ctx.tau(a2_ids["P1"]) is None
    assert a2_ctx.tau_inv(a2_ids["P2"]) == a2_ids["I1"]


def test_ext_oracles(tri_ctx, tri_ids, a2_ctx, a2_ids):
    assert tri_ctx.ext1(tri_ids["S2"], tri_ids["P3"]) == 1
    assert a2_ctx.ext1(a2_ids["I1"], a2_ids["P2"]) == 1
    for p in ["P1", "P2", "P3"]:
        for j in tri_ctx.ind_ids():
            assert tri_ctx.ext1(tri_ids[p], j) == 0


def test_realized_extension_is_exact_with_the_right_middle(a2_ctx, a2_ids):
    s1 = a2_ctx.rep(a2_ids["I1"])
    s2 = a2_ctx.rep(a2_ids["P2"])
    ext = ext1_space(s1, s2)
    assert ext.dim == 1
    e, incl, proj = realize_extension(ext, ext.reps[0])
    assert incl.is_injective() and proj.is_surjective()
    assert proj.compose(incl).is_zero
    (part,) = decompose(e)
    assert a2_ctx.id_of(part) == a2_ids["P1"]


def test_ext_dim_agrees_with_space(tri_ctx, tri_ids):
    i, j = tri_ids["S2"], tri_ids["P3"]
    assert ext1_space(tri_ctx.rep(i), tri_ctx.rep(j)).dim == ext1_dim(
        tri_ctx.rep(i), tri_ctx.rep(j))


def test_shifted_hom_matches_hom_into_translate(tri_ctx):
    """dim Hom(P_X, P_U[1]) = 0 exactly when Hom(U, tau X) = 0, pairwise."""
    for x in tri_ctx.ind_ids():
        px = tri_ctx.pres(x).cplx
        for u in tri_ctx.ind_ids():
            pu = tri_ctx.pres(u).cplx
            t = tri_ctx.tau(x)
            module_side = t is None or tri_ctx.hom_dim(u, t) == 0
            assert (shifted_hom_dim(px, pu) == 0) == module_side


def test_translate_respects_projectivity_boundary(pre_ctx, pre_ids):
    # self-injective: the two simples swap under tau
    assert pre_ctx.tau(pre_ids["S1"]) == pre_ids["S2"]
    assert pre_ctx.tau(pre_ids["S2"]) == pre_ids["S1"]
    assert pre_ctx.tau(pre_ids["P1"]) is None
    assert pre_ctx.tau(pre_ids["P2"]) is None
