"""Quiver representations: Hom, kernels, images, decomposition, covers."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widecat import DecompositionFailure, QuiverPresentation, build_algebra
from widecat.modules import (Module, decompose, direct_sum, hom_basis,
                             image, indec_isomorphic, injective_envelope,
                             injective_sum, is_indecomposable, is_isomorphic,
                             kernel, cokernel, local_radical_basis,
                             morphism_from_flat, projective_cover,
                             projective_module, projective_sum, simple_module,
                             zero_module, identity_morphism, zero_morphism)
from conftest import load_presentation


def test_hom_dimensions_match_support(tri_ctx, tri_ids):
    # Hom from a projective counts the dimension at its vertex
    for v, p in enumerate(["P1", "P2", "P3"]):
        for x in tri_ctx.ind_ids():
            assert tri_ctx.hom_dim(tri_ids[p], x) == tri_ctx.dims(x)[v]


def test_hom_oracles(tri_ctx, tri_ids):
    assert tri_ctx.hom_dim(tri_ids["S2"], tri_ids["I2"]) == 1
    assert tri_ctx.hom_dim(tri_ids["P1"], tri_ids["P3"]) == 0
    assert tri_ctx.hom_dim(tri_ids["I3"], tri_ids["I2"]) == 1
    assert tri_ctx.hom_dim(tri_ids["M7"], tri_ids["M8"]) == 0
    # endomorphisms: every listed module is a brick except the (1,2,1) one
    for lab in ["P1", "P2", "P3", "I1", "I2", "I3", "S2", "M8"]:
        assert tri_ctx.hom_dim(tri_ids[lab], tri_ids[lab]) == 1
    assert tri_ctx.hom_dim(tri_ids["M7"], tri_ids["M7"]) == 2


def test_kernel_of_cover(a2_ctx, a2_ids):
    p1 = a2_ctx.rep(a2_ids["P1"])
    s1 = a2_ctx.rep(a2_ids["I1"])  # the simple at the source vertex
    (f,) = hom_basis(p1, s1)
    assert f.is_surjective()
    ker, incl = kernel(f)
    assert a2_ctx.id_of(ker) == a2_ids["P2"]  # the simple at the sink vertex
    assert incl.is_injective()
    assert f.compose(incl).is_zero


def test_rank_nullity_per_vertex(tri_ctx, tri_ids):
    x = tri_ctx.rep(tri_ids["I3"])
    y = tri_ctx.rep(tri_ids["I2"])
    for f in hom_basis(x, y):
        ker, _ = kernel(f)
        im, _ = image(f)
        cok, _ = cokernel(f)
        for v in range(3):
            assert ker.dims[v] + im.dims[v] == x.dims[v]
            assert im.dims[v] + cok.dims[v] == y.dims[v]


def test_two_nonisomorphic_modules_with_equal_dimension_vector(tri_ctx, tri_ids):
    p1 = tri_ctx.rep(tri_ids["P1"])
    i3 = tri_ctx.rep(tri_ids["I3"])
    assert p1.dims == i3.dims == (1, 1, 1)
    assert not is_isomorphic(p1, i3)
    assert not indec_isomorphic(p1, i3)
    parts = decompose(direct_sum([p1, i3]))
    assert len(parts) == 2
    assert sorted(m.dims for m in parts) == [(1, 1, 1), (1, 1, 1)]
    assert not is_isomorphic(parts[0], parts[1])
    got = {tri_ctx.id_of(m) for m in parts}
    assert got == {tri_ids["P1"], tri_ids["I3"]}


def test_direct_sum_order_irrelevant_up_to_iso(tri_ctx, tri_ids):
    a = tri_ctx.rep(tri_ids["P2"])
    b = tri_ctx.rep(tri_ids["S2"])
    assert is_isomorphic(direct_sum([a, b]), direct_sum([b, a]))
    parts = decompose(direct_sum([a, a, b]))
    assert sorted(tri_ctx.id_of(m) for m in parts) == sorted(
        [tri_ids["P2"], tri_ids["P2"], tri_ids["S2"]])


def test_indecomposability_certificates(tri_ctx, tri_ids):
    assert is_indecomposable(tri_ctx.rep(tri_ids["M7"]))
    two = direct_sum([tri_ctx.rep(tri_ids["S2"])] * 2)
    assert not is_indecomposable(two)
    assert not is_indecomposable(zero_module(tri_ctx.alg))


def test_projective_cover_and_injective_envelope(tri_ctx, tri_ids):
    m = tri_ctx.rep(tri_ids["S2"])
    p, verts, epi, layout = projective_cover(m)
    assert epi.is_surjective()
    assert tri_ctx.id_of(p) == tri_ids["P2"]
    assert verts == [1]
    assert layout == projective_sum(tri_ctx.alg, verts)[1]
    i, verts_i, mono, layout_i = injective_envelope(m)
    assert mono.is_injective()
    assert tri_ctx.id_of(i) == tri_ids["I2"]
    assert verts_i == [1]
    assert layout_i == injective_sum(tri_ctx.alg, verts_i)[1]


def test_morphism_algebra(tri_ctx, tri_ids):
    m = tri_ctx.rep(tri_ids["P2"])
    ident = identity_morphism(m)
    assert ident.is_invertible()
    z = zero_morphism(m, m)
    assert z.is_zero and ident.add(z.neg()).is_invertible()
    assert ident.scale(tri_ctx.alg.field.of(0)).is_zero


def test_simple_modules(tri_ctx):
    for v in range(3):
        s = simple_module(tri_ctx.alg, v)
        assert s.total_dim == 1 and s.dims[v] == 1
        assert is_indecomposable(s)


def test_module_validation_rejects_bad_shapes():
    alg = build_algebra(load_presentation("a2.alg"))
    with pytest.raises(Exception):
        Module(alg, (1, 1), {0: [[alg.field.of(1), alg.field.of(1)]]}, check=True)


def test_radical_certificate_refuses_a_span_not_closed_under_products():
    """End(S + S) is the 2 x 2 matrices: the matrix units e12 and e21 are
    nilpotent and span a hyperplane with the identity, but e12 e21 = e11
    lies outside their span."""
    alg = build_algebra(load_presentation("a2.alg"))
    s = simple_module(alg, 0)
    m = direct_sum([s, s])
    one, zero = alg.field.one, alg.field.zero
    ends = [identity_morphism(m), morphism_from_flat(m, m, [zero, one, zero, zero]),
            morphism_from_flat(m, m, [zero, zero, one, zero])]
    with pytest.raises(DecompositionFailure, match="not multiplicatively closed"):
        local_radical_basis(m, ends)


def test_radical_of_a_local_end_ring_with_nonzero_products():
    """End(P1) of k[l]/(l^3) is k[l]/(l^3): its radical has the basis
    (l, l^2), and l . l = l^2 is a nonzero product inside the span."""
    alg = build_algebra(QuiverPresentation(
        vertices=("1",), arrows=(("l", "1", "1"),),
        relations=((("1", ("l",) * 3),),)))
    rad = local_radical_basis(projective_module(alg, 0))
    assert len(rad) == 2
    by_rank = sorted(rad, key=lambda f: f.rank())
    assert [f.rank() for f in by_rank] == [1, 2]
    square = by_rank[1].compose(by_rank[1])
    assert not square.is_zero and square.rank() == 1


_A2 = build_algebra(load_presentation("a2.alg"))


@st.composite
def _a2_rep(draw):
    m = draw(st.integers(min_value=0, max_value=3))
    n = draw(st.integers(min_value=0, max_value=3))
    mat = [[_A2.field.of(draw(st.integers(min_value=-2, max_value=2)))
            for _ in range(m)] for _ in range(n)]
    return m, n, mat


@settings(max_examples=40, deadline=None)
@given(_a2_rep())
def test_decompose_a2_representation(rep):
    """Every representation of the one-arrow quiver splits as r copies of the
    projective-injective, plus simples filling out each vertex."""
    m, n, mat = rep
    from widecat import linalg
    module = Module(_A2, (m, n), {0: mat}, check=True)
    r = linalg.rank(_A2.field, mat) if m and n else 0
    parts = decompose(module)
    tally = {}
    for p in parts:
        tally[p.dims] = tally.get(p.dims, 0) + 1
    expected = {}
    if r:
        expected[(1, 1)] = r
    if m - r:
        expected[(1, 0)] = m - r
    if n - r:
        expected[(0, 1)] = n - r
    assert tally == expected
