"""Almost split sequences and the irreducible-map quiver."""
import json

import pytest

from widecat import QuiverPresentation, arquiver, build_algebra, build_context
from widecat.arquiver import (almost_split_sequence, ar_quiver_dot,
                              ar_quiver_json, build_ar_quiver,
                              irreducible_multiplicity)
from widecat.errors import InjectiveInput
from widecat.modules import decompose
from conftest import load_context


def test_sequence_a2(a2_ctx, a2_ids):
    # 0 -> S2 -> P1 -> S1 -> 0
    seq = almost_split_sequence(a2_ctx.rep(a2_ids["P2"]))
    assert a2_ctx.id_of(seq.right) == a2_ids["I1"]
    (mid,) = decompose(seq.middle)
    assert a2_ctx.id_of(mid) == a2_ids["P1"]
    assert seq.incl.is_injective() and seq.proj.is_surjective()
    assert seq.proj.compose(seq.incl).is_zero


def test_sequence_at_the_sink_simple(tri_ctx, tri_ids):
    # 0 -> S3 -> P2 + P1 -> (1,2,1) -> 0
    seq = almost_split_sequence(tri_ctx.rep(tri_ids["P3"]))
    assert tri_ctx.id_of(seq.right) == tri_ids["M7"]
    mids = sorted(tri_ctx.id_of(m) for m in decompose(seq.middle))
    assert mids == sorted([tri_ids["P1"], tri_ids["P2"]])


def test_sequence_in_the_periodic_orbit(tri_ctx, tri_ids):
    # 0 -> (1,0,1) -> E -> S2 -> 0 with dim E = (1,1,1)
    seq = almost_split_sequence(tri_ctx.rep(tri_ids["M8"]))
    assert tri_ctx.id_of(seq.right) == tri_ids["S2"]
    assert seq.middle.dims == (1, 1, 1)


def test_injective_input_rejected(tri_ctx, tri_ids):
    with pytest.raises(InjectiveInput):
        almost_split_sequence(tri_ctx.rep(tri_ids["I1"]))


def test_mesh_dimension_count(tri_ctx, a2_ctx, pre_ctx):
    """dim(left) + dim(right) = dim(middle), vertexwise, at every non-injective."""
    for ctx in (tri_ctx, a2_ctx, pre_ctx):
        checked = 0
        for i in ctx.ind_ids():
            if ctx.is_injective(i):
                continue
            seq = almost_split_sequence(ctx.rep(i))
            n = ctx.alg.n
            for v in range(n):
                assert seq.left.dims[v] + seq.right.dims[v] == seq.middle.dims[v]
            assert ctx.id_of(seq.right) == ctx.tau_inv(i)
            checked += 1
        assert checked == sum(1 for i in ctx.ind_ids() if not ctx.is_injective(i))


def test_enumeration_counts(tri_ctx, a2_ctx, pre_ctx):
    assert tri_ctx.ind_count() == 9
    assert a2_ctx.ind_count() == 3
    assert pre_ctx.ind_count() == 4


def test_projective_and_injective_markers(tri_ctx):
    arq = build_ar_quiver(tri_ctx)
    assert len(arq.projective_ids) == 3 == len(arq.injective_ids)


def test_a2_quiver_is_a_path(a2_ctx, a2_ids):
    arq = build_ar_quiver(a2_ctx)
    assert arq.edges == {(a2_ids["P2"], a2_ids["P1"]): 1,
                         (a2_ids["P1"], a2_ids["I1"]): 1}


def test_periodic_translate_orbit(tri_ctx, tri_ids):
    arq = build_ar_quiver(tri_ctx)
    assert arq.tau[tri_ids["S2"]] == tri_ids["M8"]
    assert arq.tau[tri_ids["M8"]] == tri_ids["S2"]


def test_mesh_multiplicities_match_middle_terms(tri_ctx):
    """The arrow multiplicity into X equals the multiplicity of the source
    in the middle term of the sequence ending at X."""
    arq = build_ar_quiver(tri_ctx)
    for i in tri_ctx.ind_ids():
        if tri_ctx.is_injective(i):
            continue
        seq = almost_split_sequence(tri_ctx.rep(i))
        mid_tally = {}
        for m in decompose(seq.middle):
            mid_tally[tri_ctx.id_of(m)] = mid_tally.get(tri_ctx.id_of(m), 0) + 1
        j = tri_ctx.tau_inv(i)
        incoming = {s: mult for (s, t), mult in arq.edges.items() if t == j}
        assert incoming == mid_tally


def test_semisimple_quiver_has_no_arrows():
    ctx = build_context(build_algebra(QuiverPresentation(vertices=("1", "2"))))
    arq = build_ar_quiver(ctx)
    assert arq.edges == {}
    assert len(arq.dims) == 2


def test_exports(a2_ctx):
    arq = build_ar_quiver(a2_ctx)
    dot = ar_quiver_dot(arq)
    assert dot.startswith("digraph") and dot.count("->") >= 2
    doc = ar_quiver_json(arq)
    json.dumps(doc)
    assert len(doc["nodes"]) == 3
    assert {e["multiplicity"] for e in doc["irreducible_maps"]} == {1}


def test_multiplicity_spot_checks(tri_ctx, tri_ids):
    # the radical of P2 is S3, giving an irreducible inclusion
    assert irreducible_multiplicity(tri_ctx, tri_ids["P3"], tri_ids["P2"]) == 1
    assert irreducible_multiplicity(tri_ctx, tri_ids["P3"], tri_ids["I1"]) == 0


def test_radical_of_each_endomorphism_ring_is_computed_once(monkeypatch):
    """rad End(X) comes from one memo entry per class, however often the
    irreducible multiplicities ask for it."""
    ctx = load_context("triangle.alg")
    real = arquiver.local_radical_basis
    calls = []

    def counting(m, ends=None):
        calls.append(ctx.id_of(m))
        return real(m, ends)

    monkeypatch.setattr(arquiver, "local_radical_basis", counting)
    build_ar_quiver(ctx)
    build_ar_quiver(ctx)
    assert sorted(calls) == ctx.ind_ids()
