"""Path algebras with relations: basis, multiplication, validation."""
import dataclasses

import pytest

from widecat import (InconsistentRelation, NonAdmissible, NotFiniteDimensional,
                     QuiverPresentation, UnknownVertex, build_algebra)
from widecat.fields import field_from_name
from conftest import load_presentation

TRI = QuiverPresentation(
    vertices=("1", "2", "3"),
    arrows=(("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")),
    relations=((("1", ("a", "b")),),))


def test_corpus_dimensions():
    # trivial paths + arrows + surviving longer paths
    assert build_algebra(load_presentation("triangle.alg")).dim == 6
    assert build_algebra(load_presentation("a2.alg")).dim == 3
    assert build_algebra(load_presentation("preproj_a2.alg")).dim == 4
    assert build_algebra(load_presentation("preproj_a3.alg")).dim == 10


def _linear_a(n):
    return QuiverPresentation(
        vertices=tuple(str(i) for i in range(1, n + 1)),
        arrows=tuple((f"a{i}", str(i), str(i + 1)) for i in range(1, n)))


def _nilpotent_loop(k):
    return QuiverPresentation(vertices=("1",), arrows=(("l", "1", "1"),),
                              relations=((("1", ("l",) * k),),))


@pytest.mark.parametrize("pres, dim, longest", [
    (_linear_a(14), 105, 13),      # every path of the A14 quiver survives
    (_nilpotent_loop(13), 13, 12),  # k[l]/(l^13)
], ids=["A14", "loop-l^13"])
def test_long_surviving_paths_build(pres, dim, longest):
    alg = build_algebra(pres)
    assert (alg.dim, alg.max_path_length) == (dim, longest)
    top = alg.dim - 1  # a longest basis path; its square is zero
    assert alg.mult(top, top) == {}


def test_commutative_square_with_coefficient():
    # b.a = 2 d.c identifies the two length-2 paths up to the scalar
    sq = QuiverPresentation(
        vertices=("1", "2", "3", "4"),
        arrows=(("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")),
        relations=((("1", ("a", "b")), ("-2", ("c", "d"))),))
    alg = build_algebra(sq)
    assert alg.dim == 9
    ba = alg.reduce_path((0, (0, 1)))   # apply a then b
    dc = alg.reduce_path((0, (2, 3)))   # apply c then d
    assert set(ba) == set(dc) and len(ba) == 1
    (k, v), (_, w) = ba.popitem(), dc.popitem()
    assert v == alg.field.mul(alg.field.of(2), w)


def test_semisimple_dimension_counts_vertices():
    ss = QuiverPresentation(vertices=("x", "y", "z"))
    assert build_algebra(ss).dim == 3


def test_unknown_vertex_rejected():
    bad = QuiverPresentation(vertices=("1",), arrows=(("a", "1", "9"),))
    with pytest.raises(UnknownVertex):
        build_algebra(bad)


def test_duplicate_labels_rejected():
    with pytest.raises(UnknownVertex):
        build_algebra(QuiverPresentation(vertices=("1", "1")))
    with pytest.raises(InconsistentRelation):
        build_algebra(QuiverPresentation(
            vertices=("1", "2"), arrows=(("a", "1", "2"), ("a", "2", "1"))))


def test_short_relation_terms_rejected():
    bad = QuiverPresentation(vertices=("1", "2"), arrows=(("a", "1", "2"),),
                             relations=((("1", ("a",)),),))
    with pytest.raises(NonAdmissible):
        build_algebra(bad)


def test_mixed_length_relation_rejected():
    # b*a and e*d*c are parallel paths 1 -> 3 of lengths 2 and 3
    bad = QuiverPresentation(
        vertices=("1", "2", "3", "4", "5"),
        arrows=(("a", "1", "2"), ("b", "2", "3"), ("c", "1", "4"),
                ("d", "4", "5"), ("e", "5", "3")),
        relations=((("1", ("a", "b")), ("-1", ("c", "d", "e"))),))
    with pytest.raises(NonAdmissible, match="lengths 2, 3"):
        build_algebra(bad)


@pytest.mark.parametrize("field, terms", [
    ("Q", (("1", ("a", "b")), ("-1", ("a", "b")))),
    ("F3", (("1", ("a", "b")), ("2", ("a", "b")))),
])
def test_relation_zero_after_combining_like_terms_rejected(field, terms):
    bad = QuiverPresentation(
        vertices=("1", "2", "3"), arrows=(("a", "1", "2"), ("b", "2", "3")),
        relations=(terms,), field=field_from_name(field))
    with pytest.raises(InconsistentRelation, match="identically zero"):
        build_algebra(bad)


def test_cancelling_terms_do_not_count_toward_homogeneity():
    # the two length-3 terms cancel, leaving the length-2 relation b*a
    sq = QuiverPresentation(
        vertices=("1", "2", "3", "4", "5"),
        arrows=(("a", "1", "2"), ("b", "2", "3"), ("c", "1", "4"),
                ("d", "4", "5"), ("e", "5", "3")),
        relations=((("1", ("c", "d", "e")), ("1", ("a", "b")),
                    ("-1", ("c", "d", "e"))),))
    plain = dataclasses.replace(sq, relations=((("1", ("a", "b")),),))
    assert build_algebra(sq).dim == build_algebra(plain).dim


def test_non_parallel_relation_rejected():
    bad = QuiverPresentation(
        vertices=("1", "2", "3"),
        arrows=(("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3"), ("d", "3", "1")),
        relations=((("1", ("a", "b")), ("1", ("c", "d"))),))
    with pytest.raises(InconsistentRelation):
        build_algebra(bad)


def test_non_composable_relation_rejected():
    bad = QuiverPresentation(
        vertices=("1", "2"), arrows=(("a", "1", "2"),),
        relations=((("1", ("a", "a")),),))
    with pytest.raises(InconsistentRelation):
        build_algebra(bad)


def test_loop_without_relations_is_infinite_dimensional():
    loop = QuiverPresentation(vertices=("1",), arrows=(("l", "1", "1"),))
    with pytest.raises(NotFiniteDimensional):
        build_algebra(loop)


def test_commuting_loops_are_infinite_dimensional():
    """k<x,y>/(xy - yx) is the polynomial ring in two variables: the basis
    build must give up at the path guard, not echelonize forever."""
    comm = QuiverPresentation(
        vertices=("1",), arrows=(("x", "1", "1"), ("y", "1", "1")),
        relations=((("1", ("x", "y")), ("-1", ("y", "x"))),))
    with pytest.raises(NotFiniteDimensional):
        build_algebra(comm)


def test_nilpotent_loop_builds():
    loop = QuiverPresentation(vertices=("1",), arrows=(("l", "1", "1"),),
                              relations=((("1", ("l", "l")),),))
    assert build_algebra(loop).dim == 2


def test_canonical_text_is_stable_and_field_sensitive():
    import dataclasses
    t1 = TRI.canonical_text()
    t2 = QuiverPresentation(TRI.vertices, TRI.arrows, TRI.relations).canonical_text()
    assert t1 == t2
    tf = dataclasses.replace(TRI, field=field_from_name("F101"))
    assert tf.canonical_text() != t1
    assert "relation 1 b*a" in t1  # relations serialize in written order


def test_paths_between_vertices():
    alg = build_algebra(TRI)
    # only the shortcut survives 1 -> 3 because the composite is a relation
    assert len(alg.paths_from_to(0, 2)) == 1
    assert alg.basis[alg.paths_from_to(0, 2)[0]] == (0, (2,))  # the arrow c
    assert len(alg.paths_from_to(0, 1)) == 1
    assert len(alg.paths_from_to(1, 0)) == 0
    assert len(alg.paths_from_to(0, 0)) == 1  # the trivial path


def test_trivial_paths_are_multiplicative_identities():
    alg = build_algebra(TRI)
    for i in range(alg.dim):
        p = alg.basis[i]
        e_src = alg.trivial_path_index(alg.path_source(p))
        e_tgt = alg.trivial_path_index(alg.path_target(p))
        assert alg.mult(i, e_src) == {i: alg.field.one}
        assert alg.mult(e_tgt, i) == {i: alg.field.one}


def test_relation_kills_product():
    alg = build_algebra(TRI)
    a = alg.paths_from_to(0, 1)[0]
    b = alg.paths_from_to(1, 2)[0]
    assert alg.mult(b, a) == {}
