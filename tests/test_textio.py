"""Presentation-file parsing, module JSON, and the enumeration cache."""
import pytest

from widecat.algebra import build_algebra
from widecat.context import build_context
from widecat.errors import CacheCorrupt, NonAdmissible, ParseError
from widecat.textio import (cache_key, context_for, load_cached_context,
                            module_from_json, module_to_json,
                            parse_algebra_file, parse_algebra_text,
                            store_cache)

TRIANGLE = """
# three vertices, two composable arrows, a shortcut, one zero relation
field Q
vertex 1
vertex 2
vertex 3
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 1 -> 3
relation b*a
"""

SQUARE = """
field Q
vertex 1
vertex 2
vertex 3
vertex 4
arrow a : 1 -> 2
arrow b : 2 -> 4
arrow c : 1 -> 3
arrow d : 3 -> 4
relation b*a - 2 d*c
"""


def test_parse_triangle():
    p = parse_algebra_text(TRIANGLE, "triangle.alg")
    assert p.vertices == ("1", "2", "3")
    assert len(p.arrows) == 3
    # written composition b*a is stored in application order: a, then b
    assert p.relations == ((("1", ("a", "b")),),)
    assert build_algebra(p).dim == 6


def test_parse_matches_corpus_files():
    from conftest import CORPUS
    for name, dim in [("triangle.alg", 6), ("a2.alg", 3), ("preproj_a2.alg", 4)]:
        p = parse_algebra_file(str(CORPUS / name))
        assert build_algebra(p).dim == dim
    # the corpus file writes "relation s*a": rightmost arrow applies first
    p3 = parse_algebra_file(str(CORPUS / "preproj_a2.alg"))
    assert p3.relations[0] == (("1", ("a", "s")),)


def test_parse_coefficient_syntax():
    ps = parse_algebra_text(SQUARE, "square.alg")
    assert ps.relations == ((("1", ("a", "b")), ("-2", ("c", "d"))),)
    assert build_algebra(ps).dim == 9


def test_mixed_length_relation_rejected_at_build():
    pc = parse_algebra_text(TRIANGLE.replace("relation b*a",
                                             "relation b*a - 2 c"))
    assert pc.relations == ((("1", ("a", "b")), ("-2", ("c",))),)
    with pytest.raises(NonAdmissible):
        build_algebra(pc)


@pytest.mark.parametrize("bad", [
    "",
    "vertex 1\nfrobnicate x",
    "field Z\nvertex 1",
    "vertex 1\narrow a 1 -> 1",
    "vertex 1\nrelation ",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_algebra_text(bad)


def test_bound_statement_is_not_part_of_the_format():
    with pytest.raises(ParseError, match=r"old\.alg:2: unknown statement 'bound'"):
        parse_algebra_text("vertex 1\nbound 12\n", "old.alg")


def test_length_one_relation_rejected():
    p = parse_algebra_text("vertex 1\nvertex 2\narrow a : 1 -> 2\nrelation a")
    with pytest.raises(NonAdmissible):
        build_algebra(p)


def test_module_json_round_trip(tri_ctx):
    for i in tri_ctx.ind_ids():
        back = module_from_json(tri_ctx.alg, module_to_json(tri_ctx.rep(i)))
        assert tri_ctx.id_of(back) == i


def test_cache_round_trip(tmp_path, tri_ctx):
    d = str(tmp_path)
    store_cache(d, tri_ctx)
    ctx2 = load_cached_context(tri_ctx.alg, d)
    assert ctx2 is not None
    assert ctx2.ind_count() == tri_ctx.ind_count()
    for i in tri_ctx.ind_ids():
        assert ctx2.label(i) == tri_ctx.label(i)
        assert ctx2.tau(i) == tri_ctx.tau(i)
        assert ctx2.tau_inv(i) == tri_ctx.tau_inv(i)
        assert ctx2.dims(i) == tri_ctx.dims(i)
    assert ctx2.projective_ids == tri_ctx.projective_ids


def test_corrupt_cache_is_detected_and_replaced(tmp_path, tri_ctx):
    from pathlib import Path
    d = str(tmp_path)
    path = store_cache(d, tri_ctx)
    Path(path).write_text("{ not json")
    with pytest.raises(CacheCorrupt):
        load_cached_context(tri_ctx.alg, d)
    ctx3 = context_for(tri_ctx.alg, cache_dir=d)
    assert ctx3.ind_count() == tri_ctx.ind_count()
    ctx4 = load_cached_context(tri_ctx.alg, d)
    assert ctx4 is not None and ctx4.ind_count() == tri_ctx.ind_count()


def test_cache_keys_separate_presentations(tmp_path, tri_ctx, a2_ctx):
    p = parse_algebra_text(TRIANGLE)
    p2 = parse_algebra_text("field Q\nvertex 1\nvertex 2\narrow a : 1 -> 2")
    assert cache_key(p) != cache_key(p2)
    d = str(tmp_path)
    store_cache(d, tri_ctx)
    assert load_cached_context(a2_ctx.alg, d) is None


def test_cache_over_a_prime_field(tmp_path):
    pf = parse_algebra_text(TRIANGLE.replace("field Q", "field Fp 101"))
    assert pf.field.name() == "F101"
    assert cache_key(pf) != cache_key(parse_algebra_text(TRIANGLE))
    ctxf = build_context(build_algebra(pf))
    d = str(tmp_path)
    store_cache(d, ctxf)
    ctxf2 = load_cached_context(ctxf.alg, d)
    assert ctxf2 is not None
    assert ctxf2.ind_count() == ctxf.ind_count() == 9
